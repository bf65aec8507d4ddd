"""The accelerated solver core behind every model, and a subgradient baseline.

:func:`solve` minimizes F(B) = (1/2) ||Y - X B||_F^2 + P(B) through the
moments X^T X and X^T Y (:class:`Moments`), so the per-iteration cost is
independent of the sample count. Its loop is the three-sequence accelerated
scheme: a gradient point W, a descent iterate B, and a weighted running
gradient aggregate Z. Per iteration t, counted from the anchor (the start
point, or the iterate of the last restart):

    1. g_t = grad(W^t)
    2. B^t = W^t - g_t / L
    3. Z^t = anchor - (1/L) * sum_{i<=t} ((i+1)/2) * g_i    (kept as one running sum)
    4. W^{t+1} = ((t+1) B^t + 2 Z^t) / (t+3)

The fusion penalty ||B C||_1 enters the gradient through its smooth
surrogate f_mu, with mu and L derived in :func:`solve` from the operator's
gap constant and norm bound. The row-grouped l1/l2 norm enters steps 2 and 3
through its exact proximal map instead: the composite form of the scheme
(Nesterov 2013, "Gradient methods for minimizing composite functions").

Every fit stops on a duality-gap certificate. With P(B) = max <A, G(B)> over
a dual ball (G(B) = B C, ||A||_inf <= 1; or G = identity, rows of A in the
lam-ball) and X^T X = V diag(s) V^T nonsingular, each such A shows min F >= F(B) - gap,
gap = (P(B) - <A, G(B)>) + (1/2) ||(V s^-1/2)^T (grad loss(B) + G*(A))||^2.
A is the smoothing's maximizer clamp(B C / mu) (Nesterov 2005) or the rowwise
projection of -grad loss(B). F and the gap run only at checks, every
CHECK_EVERY iterations and at the cap; ``converged`` means gap <=
max(rel_obj_tol * |F(B)|, mu * D) there. A check that did not improve
restarts the loop from the best checked iterate (O'Donoghue & Candes 2015),
and a smoothed penalty runs through the mu stages MU_STAGES * mu, each ending
at gap <= mu_s * D (Becker, Bobin & Candes 2011, "NESTA"). A singular X^T X
(J >= N, collinear columns) certifies nothing: the fit stops when F changes by
less than rel_obj_tol between checks and reports ``converged=False``.

A plain subgradient method with step c / sqrt(t+1) is included as the
baseline with the slower O(1/eps^2) rate.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .smoothing import FusionOperator, shrink

CHECK_EVERY = 10
MU_STAGES = (100.0, 10.0, 1.0)
_REL_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    Exactly one smoothing mode is active: the fixed ``mu`` (default 1e-4), or
    the accuracy-driven rule mu = accuracy / (2 D) when ``accuracy`` is set.
    ``rel_obj_tol`` is the relative duality gap to stop at, floored at mu * D.
    """

    mu: float = 1e-4
    accuracy: float | None = None
    rel_obj_tol: float = 1e-6
    max_iters: int = 50000
    record_trace: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.accuracy is not None and not 0 < self.accuracy < np.inf:
            raise ValueError(f"accuracy must be positive and finite, got {self.accuracy}")
        if not 0 < self.rel_obj_tol < np.inf:
            raise ValueError(f"rel_obj_tol must be positive and finite, got {self.rel_obj_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class Solution:
    """Result of one solver run.

    ``trace`` rows are (exact objective, smoothed objective, gradient norm)
    per iteration when tracing was requested. ``objective_smooth`` is a lower
    bound on ``objective_exact`` with gap at most mu * D. ``gap`` is F(B_hat)
    minus the best certified lower bound on the optimum (None when X^T X is
    singular); ``stop_reason`` is ``gap``, ``iteration_cap`` or
    ``uncertified``. ``mu_used`` and ``lipschitz_used`` are the final stage's.
    """

    B_hat: np.ndarray
    objective_exact: float
    objective_smooth: float
    iterations: int
    converged: bool
    gap: float | None
    stop_reason: str
    lipschitz_used: float
    mu_used: float
    trace: tuple[tuple[float, float, float], ...] | None
    runtime_total_s: float
    runtime_periter_s: float


@dataclass(frozen=True)
class Moments:
    """The sample moments of one centered data split, built once per fit.

    Holds X^T X, X^T Y, ||Y||_F^2, lam_max(X^T X) and the factor V s^-1/2 of
    (X^T X)^-1 from eigh(X^T X) = V diag(s) V^T (None when X^T X is singular
    to rounding); every later evaluation reads these, free of the sample
    count. A 1-d response gives the row layout of the univariate fused model:
    the coefficients are one 1 x J row W, X^T Y is stored as that row, and
    the Gram product is W X^T X instead of X^T X B.
    """

    XtX: np.ndarray
    XtY: np.ndarray
    ynorm2: float
    lam_max: float
    inv_factor: np.ndarray | None
    rows: bool

    @classmethod
    def from_data(cls, X: np.ndarray, Y: np.ndarray) -> "Moments":
        """Moments of float arrays X (N x J) and Y (N x K, or N for the row layout)."""
        if X.ndim != 2 or Y.ndim not in (1, 2) or X.shape[0] != Y.shape[0]:
            raise ValueError(f"incompatible shapes X {X.shape}, Y {Y.shape}")
        XtX = X.T @ X
        if not np.all(np.isfinite(XtX)):
            raise NumericError("X^T X contains non-finite entries")
        s, V = np.linalg.eigh(XtX)
        if s[0] > s.size * np.finfo(float).eps * s[-1]:
            V *= s**-0.5  # in place: the one J x J array kept besides X^T X
        else:
            V = None
        rows = Y.ndim == 1
        XtY = (X.T @ Y)[None, :] if rows else X.T @ Y
        return cls(XtX, XtY, float(np.vdot(Y, Y)), float(s[-1]), V, rows)

    @property
    def gram(self) -> Callable[[np.ndarray], np.ndarray]:
        """The Gram product B -> X^T X B (W -> W X^T X in the row layout).

        A bound ndarray method: the layout is picked once, and a call adds no Python frame.
        """
        return self.XtX.__rmatmul__ if self.rows else self.XtX.__matmul__

    def loss_fn(self) -> Callable[[np.ndarray], float]:
        """B -> (1/2) ||Y - X B||_F^2, evaluated through the moments."""
        gram, XtY, ynorm2 = self.gram, self.XtY, self.ynorm2

        def loss(B: np.ndarray) -> float:
            return 0.5 * (ynorm2 - 2.0 * float(np.vdot(B, XtY)) + float(np.vdot(B, gram(B))))

        return loss


def three_sequence_minimize(
    grad: Callable[[np.ndarray], np.ndarray],
    check: Callable[[np.ndarray], tuple[float, bool]],
    B0: np.ndarray, lipschitz: float, max_iters: int,
    prox: Callable[[np.ndarray, float], np.ndarray] | None,
    trace: Callable[[np.ndarray, np.ndarray], None] | None,
) -> tuple[np.ndarray, int, bool]:
    """Run the three-sequence loop from W^0 = ``B0`` for at most ``max_iters`` iterations.

    ``check(B)`` runs every CHECK_EVERY iterations and at the cap and returns
    (value of the objective the loop minimizes, whether B ends the run). At a
    check whose value is not below the best checked one, the loop restarts
    from that best iterate: W = anchor = B_best, S = 0, k = 0. With
    ``prox(V, s)``, the proximal map of s times a non-smooth penalty, B and Z
    become prox(W - g/L, 1/L) and prox(anchor - S/L, A_k/L), with
    A_k = (k+1)(k+2)/4. ``trace(B, g)`` runs every iteration and decides nothing.

    Returns (B, iterations, done): the iterate ``check`` accepted, else the best checked one.
    """
    if lipschitz <= 0:
        raise ValueError(f"Lipschitz bound must be positive, got {lipschitz}")
    anchor = W = best_B = B0
    best_f, weighted_grad_sum, k = np.inf, np.zeros_like(B0), 0
    for t in range(1, max_iters + 1):
        g = grad(W)
        B = W - g / lipschitz
        weighted_grad_sum += (0.5 * (k + 1)) * g
        Z = anchor - weighted_grad_sum / lipschitz
        if prox is not None:
            B = prox(B, 1.0 / lipschitz)
            Z = prox(Z, (k + 1.0) * (k + 2.0) / (4.0 * lipschitz))
        W = ((k + 1.0) * B + 2.0 * Z) / (k + 3.0)
        k += 1
        if trace is not None:
            trace(B, g)
        if t % CHECK_EVERY and t < max_iters:
            continue
        f, done = check(B)
        if done:
            return B, t, True
        if f < best_f:
            best_B, best_f = B, f
        else:
            anchor = W = best_B
            weighted_grad_sum, k = np.zeros_like(B0), 0
    return best_B, max_iters, False


def solve(X: np.ndarray, Y: np.ndarray, config: SolverConfig, penalty) -> Solution:
    """Minimize (1/2) ||Y - X B||_F^2 plus ``penalty``; the core behind every model.

    A :class:`FusionOperator` penalty ||B C||_1 runs through its smooth surrogate;
    mu (``config.mu``, or accuracy / (2 D)) and the step 1/L, with L = lam_max(X^T X)
    + op.norm_bound()^2 / mu, are derived here alone, once per mu stage. Any other
    penalty runs unsmoothed (mu = 0, L = lam_max(X^T X)) and must provide
    ``penalty_exact(B)``, ``prox(V, step)`` (the proximal map of step * penalty)
    and ``dual_point(V)`` (the point of its dual-norm ball nearest to V). ``X``
    and ``Y`` are expected column-centered; a 1-d ``Y`` selects the row layout
    (see :class:`Moments`) and still returns B_hat as a J x 1 column.
    """
    t_start = time.perf_counter()
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    m = Moments.from_data(X, Y)
    gram, XtY, loss = m.gram, m.XtY, m.loss_fn()
    penalty_exact = penalty.penalty_exact
    if isinstance(penalty, FusionOperator):
        op, prox = penalty, None
        mu = config.mu if config.accuracy is None else config.accuracy / (2.0 * op.gap_constant())
        if not mu > 0:
            raise ValueError(f"accuracy {config.accuracy} is too small: mu = accuracy / (2 D) underflows to {mu}")
        D, norm2 = op.gap_constant(), op.norm_bound() ** 2
        stages = [c * mu for c in MU_STAGES] if m.inv_factor is not None else [mu]

        smooth_penalty = functools.partial(op.smoothed_penalty, mu=mu)

        def stage(mu_s: float):  # grad, L and dual_terms of the surrogate smoothed at mu_s
            def grad(W: np.ndarray) -> np.ndarray:
                g = gram(W)
                g -= XtY
                g += op.adjoint(op.aux_optimum(W, mu_s))
                return g

            def dual_terms(B: np.ndarray, g_loss: np.ndarray):
                # at A = clamp(B C / mu_s): ||BC||_1, ||BC||_1 - <A, BC>, A C^T and f_mu_s(B)
                G = op.apply(B)
                A = shrink(G / mu_s)
                pen, pairing = float(np.abs(G).sum()), float(np.vdot(A, G))
                return pen, pen - pairing, op.adjoint(A), pairing - 0.5 * mu_s * float(np.vdot(A, A))

            return grad, m.lam_max + norm2 / mu_s, dual_terms

    else:
        mu, D, prox, smooth_penalty, stages = 0.0, 0.0, penalty.prox, penalty_exact, [0.0]

        def dual_terms(B: np.ndarray, g_loss: np.ndarray):
            A = penalty.dual_point(-g_loss)
            pen = penalty_exact(B)
            return pen, pen - float(np.vdot(A, B)), A, pen

        def stage(mu_s: float):
            return (lambda W: gram(W) - XtY), m.lam_max, dual_terms

    tol, max_iters, lower = config.rel_obj_tol, config.max_iters, -np.inf

    def evaluate(B: np.ndarray, dual_terms) -> tuple[float, float, float | None]:
        # F(B), the stage objective and F(B) minus the best lower bound so far, one Gram product
        nonlocal lower
        g_loss = gram(B) - XtY
        f_loss = 0.5 * (m.ynorm2 - float(np.vdot(B, XtY)) + float(np.vdot(B, g_loss)))
        pen, slack, dual_grad, stage_pen = dual_terms(B, g_loss)
        f = f_loss + pen
        if not np.isfinite(f):
            raise NumericError("objective became non-finite")
        if m.inv_factor is None:
            return f, f_loss + stage_pen, None
        R = g_loss + dual_grad
        P = R @ m.inv_factor if m.rows else m.inv_factor.T @ R
        lower = max(lower, f - slack - 0.5 * float(np.vdot(P, P)))
        return f, f_loss + stage_pen, max(f - lower, 0.0)

    trace: list[tuple[float, float, float]] = []

    def trace_row(B: np.ndarray, g: np.ndarray) -> None:
        # the exact objective every iteration, for the trace only: checks alone decide
        f_loss = loss(B)
        trace.append((f_loss + penalty_exact(B), f_loss + smooth_penalty(B), float(np.linalg.norm(g))))

    t_loop = time.perf_counter()
    B, iters, fallback_stop = np.zeros(XtY.shape), 0, False
    for mu_s in stages:
        grad, L, dual_terms = stage(mu_s)
        f_prev = last = None

        def check(B: np.ndarray) -> tuple[float, bool]:
            nonlocal f_prev, last
            last = B, *evaluate(B, dual_terms)
            _, f, f_stage, gap = last
            if gap is not None:
                return f_stage, gap <= max(tol * abs(f), mu_s * D)
            # uncertified fallback: relative change of F between consecutive checks
            done = f_prev is not None and abs(f - f_prev) < tol * max(abs(f_prev), _REL_DENOM_FLOOR)
            f_prev = f
            return f_stage, done

        B, n, done = three_sequence_minimize(
            grad, check, B, L, max_iters - iters, prox, trace_row if config.record_trace else None
        )
        iters += n
        # the cap can return an earlier, better iterate than the one checked last
        _, f, _, gap = last if last[0] is B else (B, *evaluate(B, dual_terms))
        if iters == max_iters or (done and (gap is None or gap <= max(tol * abs(f), mu * D))):
            fallback_stop = done and gap is None
            break
    t_end = time.perf_counter()

    converged = gap is not None and gap <= max(tol * abs(f), mu * D)
    coef = B[0] if m.rows else B
    resid = Y - X @ coef
    half_rss = 0.5 * float(np.vdot(resid, resid))
    return Solution(
        B_hat=coef.reshape(X.shape[1], -1),
        objective_exact=half_rss + penalty_exact(B),
        objective_smooth=half_rss + smooth_penalty(B),
        iterations=iters,
        converged=converged,
        gap=gap,
        stop_reason="gap" if converged else "uncertified" if fallback_stop else "iteration_cap",
        lipschitz_used=stage(stages[-1])[1],
        mu_used=mu,
        trace=tuple(trace) if config.record_trace else None,
        runtime_total_s=t_end - t_start,
        runtime_periter_s=(t_end - t_loop) / max(iters, 1),
    )


def subgradient_fit(X: np.ndarray, Y: np.ndarray, config: SolverConfig, op: FusionOperator) -> Solution:
    """Subgradient baseline on the exact objective, tracking the best iterate.

    The step is c / sqrt(t+1) with c = 1 / lam_max(X^T X); the
    subgradient of the penalty is Gamma*(sign(Gamma(B))) with sign(0) = 0.
    There is no stopping test: the method always runs ``config.max_iters``
    steps and reports ``converged=False``, since nothing certifies the best
    iterate. Of ``config`` it reads only ``max_iters`` and ``record_trace``.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    t_start = time.perf_counter()
    m = Moments.from_data(X, Y)
    gram, XtY, loss = m.gram, m.XtY, m.loss_fn()
    c = 1.0 / m.lam_max if m.lam_max > 0 else 1.0
    B = best_B = np.zeros((op.n_inputs, op.n_tasks))
    best_f = loss(B) + op.penalty_exact(B)
    trace: list[tuple[float, float, float]] | None = [] if config.record_trace else None
    t_loop = time.perf_counter()
    for t in range(config.max_iters):
        g = gram(B) - XtY + op.adjoint(np.sign(op.apply(B)))
        B = B - c / np.sqrt(t + 1.0) * g
        f_t = loss(B) + op.penalty_exact(B)
        if not np.isfinite(f_t):
            raise NumericError(f"objective became non-finite at iteration {t}")
        if f_t < best_f:
            best_f, best_B = f_t, B
        if trace is not None:
            trace.append((best_f, best_f, float(np.linalg.norm(g))))
    t_end = time.perf_counter()

    resid = Y - X @ best_B
    exact = 0.5 * float(np.vdot(resid, resid)) + op.penalty_exact(best_B)
    return Solution(
        B_hat=best_B,
        objective_exact=exact,
        objective_smooth=exact,
        iterations=config.max_iters,
        converged=False,
        gap=None,
        stop_reason="iteration_cap",
        lipschitz_used=m.lam_max,
        mu_used=0.0,
        trace=tuple(trace) if trace is not None else None,
        runtime_total_s=t_end - t_start,
        runtime_periter_s=(t_end - t_loop) / config.max_iters,
    )


def trace_csv_text(solution: Solution) -> str:
    """The per-iteration trace as CSV with columns iter,f_exact,f_smooth,grad_norm."""
    if solution.trace is None:
        raise ValueError("solution was computed without record_trace")
    rows = (f"{i},{fe:.17g},{fs:.17g},{gn:.17g}\n" for i, (fe, fs, gn) in enumerate(solution.trace))
    return "iter,f_exact,f_smooth,grad_norm\n" + "".join(rows)
