"""The accelerated solver core behind every model, and a subgradient baseline.

:func:`solve` minimizes (1/2) ||Y - X B||_F^2 plus a penalty through the
moments X^T X and X^T Y (:class:`Moments`), so the per-iteration cost is
independent of the sample count. Its loop is the three-sequence accelerated
scheme: a gradient point W, a descent iterate B, and a weighted running
gradient aggregate Z. Per iteration t:

    1. g_t = grad(W^t)
    2. B^t = W^t - g_t / L
    3. Z^t = -(1/L) * sum_{i<=t} ((i+1)/2) * g_i    (kept as one running sum)
    4. W^{t+1} = ((t+1) B^t + 2 Z^t) / (t+3)

The fusion penalty ||B C||_1 enters the gradient through its smooth
surrogate f_mu. A penalty with an exact proximal map (the row-grouped l1/l2
norm) enters steps 2 and 3 through that map instead: the composite form of
the scheme (Nesterov 2013, "Gradient methods for minimizing composite
functions"). The stopping rule watches the relative change of the EXACT
objective at B^t, so the reported optimum certifies the original problem.

A plain subgradient method with step c / sqrt(t+1) is included as the
baseline with the slower O(1/eps^2) rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .smoothing import FusionOperator

_REL_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    Exactly one smoothing mode is active: the fixed ``mu`` (default 1e-4), or
    the accuracy-driven rule mu = accuracy / (2 D) when ``accuracy`` is set.
    """

    mu: float = 1e-4
    accuracy: float | None = None
    rel_obj_tol: float = 1e-6
    max_iters: int = 50000
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.accuracy is None and not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.accuracy is not None and not self.accuracy > 0:
            raise ValueError(f"accuracy must be positive, got {self.accuracy}")
        if not self.rel_obj_tol > 0:
            raise ValueError("rel_obj_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def resolve_mu(self, gap_const: float) -> float:
        """The smoothing parameter actually used for a problem with gap constant D."""
        if self.accuracy is not None:
            if gap_const <= 0:
                raise ValueError("accuracy-driven mu needs a positive gap constant")
            return self.accuracy / (2.0 * gap_const)
        return self.mu


@dataclass(frozen=True)
class Solution:
    """Result of one solver run.

    ``trace`` rows are (exact objective, smoothed objective, gradient norm)
    per iteration when tracing was requested.  ``objective_smooth`` is a
    lower bound on ``objective_exact`` with gap at most mu * D.
    """

    B_hat: np.ndarray
    objective_exact: float
    objective_smooth: float
    iterations: int
    converged: bool
    lipschitz_used: float
    mu_used: float
    trace: tuple[tuple[float, float, float], ...] | None = None
    runtime_total_s: float = 0.0
    runtime_periter_s: float = 0.0


def largest_eigenvalue(M: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix, exact to rounding (LAPACK eigvalsh)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericError("matrix contains non-finite entries")
    return float(np.linalg.eigvalsh(M)[-1])


@dataclass(frozen=True)
class Moments:
    """The sample moments of one centered data split, built once per fit.

    Holds X^T X, X^T Y, ||Y||_F^2 and lam_max(X^T X); every later loss and
    gradient evaluation reads these, so its cost is free of the sample count.
    A 1-d response gives the row layout of the univariate fused model: the
    coefficients are one 1 x J row W, X^T Y is stored as that row, and the
    Gram product is W X^T X instead of X^T X B.
    """

    XtX: np.ndarray
    XtY: np.ndarray
    ynorm2: float
    lam_max: float
    rows: bool = False

    @classmethod
    def from_data(cls, X: np.ndarray, Y: np.ndarray) -> "Moments":
        """Moments of float arrays X (N x J) and Y (N x K, or N for the row layout)."""
        if X.ndim != 2 or Y.ndim not in (1, 2) or X.shape[0] != Y.shape[0]:
            raise ValueError(f"incompatible shapes X {X.shape}, Y {Y.shape}")
        XtX = X.T @ X
        rows = Y.ndim == 1
        XtY = (X.T @ Y)[None, :] if rows else X.T @ Y
        return cls(XtX, XtY, float(np.vdot(Y, Y)), largest_eigenvalue(XtX), rows)

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


def lipschitz_upper(op: FusionOperator, mu: float, lam_max: float) -> float:
    """Upper bound lam_max(X^T X) + (lam^2 + 2 gamma^2 max_k d_k) / mu on the gradient Lipschitz constant."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return float(lam_max) + op.norm_bound() ** 2 / mu


def three_sequence_minimize(
    grad: Callable[[np.ndarray], np.ndarray],
    f_exact: Callable[[np.ndarray], float],
    f_smooth: Callable[[np.ndarray], float],
    shape: tuple[int, int],
    lipschitz: float,
    rel_obj_tol: float,
    max_iters: int,
    record_trace: bool = False,
    prox: Callable[[np.ndarray, float], np.ndarray] | None = None,
):
    """Run the three-sequence accelerated loop from W^0 = 0.

    Returns (B, iterations, converged, trace). ``trace`` is None unless
    requested. The running aggregate keeps Z in O(J K) memory instead of
    storing per-iteration gradients. With ``prox(V, s)``, the proximal map
    of s times a non-smooth penalty, the loop runs in its composite form:
    B and Z become prox(W - g/L, 1/L) and prox(-S/L, A_t/L), where S is the
    weighted gradient sum and A_t = (t+1)(t+2)/4 the sum of its weights.
    """
    if lipschitz <= 0:
        raise ValueError(f"Lipschitz bound must be positive, got {lipschitz}")
    W = np.zeros(shape)
    weighted_grad_sum = np.zeros(shape)
    trace: list[tuple[float, float, float]] | None = [] if record_trace else None
    B = W
    f_prev: float | None = None
    for t in range(max_iters):
        g = grad(W)
        B = W - g / lipschitz
        weighted_grad_sum += (0.5 * (t + 1)) * g
        Z = -weighted_grad_sum / lipschitz
        if prox is not None:
            B = prox(B, 1.0 / lipschitz)
            Z = prox(Z, (t + 1.0) * (t + 2.0) / (4.0 * lipschitz))
        W = ((t + 1.0) * B + 2.0 * Z) / (t + 3.0)
        f_t = f_exact(B)
        if not np.isfinite(f_t):
            raise NumericError(f"objective became non-finite at iteration {t}")
        if trace is not None:
            trace.append((f_t, f_smooth(B), float(np.linalg.norm(g))))
        if f_prev is not None and abs(f_t - f_prev) < rel_obj_tol * max(abs(f_prev), _REL_DENOM_FLOOR):
            return B, t + 1, True, trace
        f_prev = f_t
    return B, max_iters, False, trace


def solve(
    X: np.ndarray,
    Y: np.ndarray,
    config: SolverConfig,
    op: FusionOperator | None = None,
    prox: Callable[[np.ndarray, float], np.ndarray] | None = None,
    penalty: Callable[[np.ndarray], float] | None = None,
) -> Solution:
    """Minimize (1/2) ||Y - X B||_F^2 plus a penalty; the core behind every model.

    With ``op`` the penalty is ||B C||_1, replaced in the loop by its smooth
    surrogate with mu from ``config``. Without it, ``penalty`` is handled
    exactly through its proximal map ``prox`` and no smoothing is involved.
    ``X`` and ``Y`` are expected column-centered; a 1-d ``Y`` selects the
    row layout (see :class:`Moments`) and still returns B_hat as a J x 1 column.
    """
    t_start = time.perf_counter()
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m = Moments.from_data(X, Y)
    gram, XtY, loss = m.gram, m.XtY, m.loss_fn()
    if op is None:
        mu, L, smooth_penalty = 0.0, m.lam_max, penalty

        def grad(W: np.ndarray) -> np.ndarray:
            return gram(W) - XtY

    else:
        mu = config.resolve_mu(op.gap_constant())
        L = lipschitz_upper(op, mu, m.lam_max)
        penalty = op.penalty_exact

        def smooth_penalty(B: np.ndarray) -> float:
            return op.smoothed_penalty(B, mu)

        def grad(W: np.ndarray) -> np.ndarray:
            g = gram(W)
            g -= XtY
            g += op.smoothed_penalty_gradient(W, mu)
            return g

    def f_exact(B: np.ndarray) -> float:
        return loss(B) + penalty(B)

    def f_smooth(B: np.ndarray) -> float:
        return loss(B) + smooth_penalty(B)

    t_loop = time.perf_counter()
    B, iters, converged, trace = three_sequence_minimize(
        grad, f_exact, f_smooth, XtY.shape, L, config.rel_obj_tol, config.max_iters, config.record_trace, prox
    )
    t_end = time.perf_counter()

    coef = B[0] if m.rows else B
    resid = Y - X @ coef
    half_rss = 0.5 * float(np.vdot(resid, resid))
    return Solution(
        B_hat=coef.reshape(X.shape[1], -1),
        objective_exact=half_rss + penalty(B),
        objective_smooth=half_rss + smooth_penalty(B),
        iterations=iters,
        converged=converged,
        lipschitz_used=L,
        mu_used=mu,
        trace=tuple(trace) if trace is not None else None,
        runtime_total_s=t_end - t_start,
        runtime_periter_s=(t_end - t_loop) / max(iters, 1),
    )


def prox_grad_fit(X: np.ndarray, Y: np.ndarray, op: FusionOperator, config: SolverConfig | None = None) -> Solution:
    """Minimize the graph-fused objective with the smoothed accelerated scheme.

    ``X`` and ``Y`` are expected column-centered. Reaching ``max_iters`` is
    reported through ``Solution.converged`` rather than raised: long runs at
    tight tolerances still produce usable iterates.
    """
    return solve(X, Y, config or SolverConfig(), op=op)


def subgradient_fit(
    X: np.ndarray,
    Y: np.ndarray,
    op: FusionOperator,
    max_iters: int = 100000,
    record_trace: bool = False,
) -> Solution:
    """Subgradient baseline on the exact objective, tracking the best iterate.

    The step is c / sqrt(t+1) with c = 1 / lam_max(X^T X); the
    subgradient of the penalty is Gamma*(sign(Gamma(B))) with sign(0) = 0.
    There is no stopping test: the method always runs ``max_iters`` steps and
    reports ``converged=False``, since nothing certifies the best iterate.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    t_start = time.perf_counter()
    m = Moments.from_data(X, Y)
    gram, XtY, loss = m.gram, m.XtY, m.loss_fn()
    c = 1.0 / m.lam_max if m.lam_max > 0 else 1.0
    B = np.zeros((op.n_inputs, op.n_tasks))
    best_B = B.copy()
    best_f = loss(B) + op.penalty_exact(B)
    trace: list[tuple[float, float, float]] | None = [] if record_trace else None
    t_loop = time.perf_counter()
    for t in range(max_iters):
        g = gram(B) - XtY + op.adjoint(np.sign(op.apply(B)))
        B = B - c / np.sqrt(t + 1.0) * g
        f_t = loss(B) + op.penalty_exact(B)
        if not np.isfinite(f_t):
            raise NumericError(f"objective became non-finite at iteration {t}")
        if f_t < best_f:
            best_f = f_t
            best_B = B.copy()
        if trace is not None:
            trace.append((best_f, best_f, float(np.linalg.norm(g))))
    t_end = time.perf_counter()

    resid = Y - X @ best_B
    exact = 0.5 * float(np.vdot(resid, resid)) + op.penalty_exact(best_B)
    return Solution(
        B_hat=best_B,
        objective_exact=exact,
        objective_smooth=exact,
        iterations=max_iters,
        converged=False,
        lipschitz_used=m.lam_max,
        mu_used=0.0,
        trace=tuple(trace) if trace is not None else None,
        runtime_total_s=t_end - t_start,
        runtime_periter_s=(t_end - t_loop) / max(max_iters, 1),
    )


def iteration_bound(norm_B_star: float, eps: float, D: float, gamma_norm_U: float, lam_max_XtX: float) -> float:
    """Worst-case iteration count sqrt((4 ||B*||_F^2 / eps) (lam_max + 2 D ||Gamma||_U^2 / eps)).

    Diagnostic only; callers usually estimate ||B*||_F from the returned iterate.
    """
    if min(norm_B_star, eps, D, gamma_norm_U, lam_max_XtX) < 0 or eps == 0:
        raise ValueError("all arguments must be positive (eps strictly)")
    return float(np.sqrt((4.0 * norm_B_star**2 / eps) * (lam_max_XtX + 2.0 * D * gamma_norm_U**2 / eps)))


def write_trace_csv(solution: Solution, path) -> None:
    """Dump the per-iteration trace as CSV with columns iter,f_exact,f_smooth,grad_norm."""
    if solution.trace is None:
        raise ValueError("solution was computed without record_trace")
    with open(path, "w") as fh:
        fh.write("iter,f_exact,f_smooth,grad_norm\n")
        for i, (fe, fs, gn) in enumerate(solution.trace):
            fh.write(f"{i},{fe:.17g},{fs:.17g},{gn:.17g}\n")
