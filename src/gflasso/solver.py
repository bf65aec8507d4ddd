"""The accelerated solver core behind every model, and a subgradient baseline.

:func:`solve` minimizes F(B) = (1/2) ||Y - X B||_F^2 + P(B) on centered data
that it sees only as the moments X^T X and X^T Y (:class:`Moments`, built once
per data split), so the per-iteration cost is independent of the sample count.
Its main loop is the accelerated step of smoothing proximal gradient (SPG; Chen, Lin, Kim,
Carbonell & Xing 2012, "Smoothing proximal gradient method for general structured sparse
regression", Algorithm 1), a FISTA step (Beck & Teboulle 2009) with theta_t = 2/(t+2):
search points W, iterates B and those weights. Per iteration t, counted from the anchor
(the start point, or the iterate of the last restart), with W^0 = B^{-1} = anchor:

    1. B^t = prox_{1/L}(W^t - grad(W^t) / L)
    2. W^{t+1} = B^t + min(t/(t+3), beta) (B^t - B^{t-1})

The cap beta = (1 - sqrt(q)) / (1 + sqrt(q)), q = modulus / L, is the constant momentum of V-FISTA
(Beck 2017, "First-Order Methods in Optimization", 10.7.7, Thm 10.42) for a loss that is
modulus-strongly convex: the rate improves from O(1/t^2) to (1 - sqrt(q))^t. A smoothed stage's L
overstates the curvature by up to 1 + rho, so it takes modulus 0, where beta = 1 and the step is SPG's.

An unsmoothed fit (lasso, l1/l2, and a fusion operator at gamma = 0 or without edges) takes one step per
row of B instead, in the Jacobi metric D = diag(d), d = diag(X^T X) (``Moments.jacobi``):

    1. B^t = prox_D(W^t - D^-1 grad(W^t) / L_s),  row j stepping by 1 / (L_s d_j)

with L_s = (1 + 1e-6) lam_max(S) for the scaled Gram S = D^-1/2 X^T X D^-1/2, so L_s D >= X^T X, and
its momentum capped at q = lam_min(S) / L_s, 0 on a singular X^T X: in the norm ||B||_D the loss is
L_s-smooth and lam_min(S)-strongly convex, and a row-separable norm's prox in that metric is its prox
at each row's step. The simulated genotypes' column variances differ by up to 5x, so S is better
conditioned than X^T X: median condition number 17.3 against 30.2 on the 70-row training splits of report
seeds 0-23.

Every penalty is an exact group norm plus at most one fusion term, SPG's split. The norm
(lam ||B||_1, or l1/l2's row norms) enters step 1 through its exact prox; the fusion term
||B C||_1, C = gam H, enters grad through its smooth surrogate f_mu, whose gradient the
operator's ``gradient_map`` builds once per mu stage.

Smoothing raises the step bound to L = lam_max + ||C||^2 / mu, SPG's L, by the factor 1 + rho,
rho = ||C||^2 / (mu lam_max). The smoothed stages step by the operator's ``squared_norm``, an upper
bound on sigma_max(C)^2 never above the degree bound ``norm_bound``^2: one eigvalsh of the K x K
Gram C C^T per fit when K <= J (the bound is 1.85 times it on the 300-edge graphs of the
fit_fusion_heavy benchmark), else the bound itself, so a fused fit over J covariates computes no
spectrum. rho and the loop choice read the degree bound, which costs no spectrum, so a fit on the
primal-dual loop computes none. When rho exceeds
PRIMAL_DUAL_RHO and X^T X is nonsingular, ``solve`` runs the fusion term unsmoothed instead,
through a Condat-Vu primal-dual loop (Condat 2013; Vu 2013; Chambolle & Pock 2011) that
takes ||B C||_1 through the exact prox of its conjugate, a clamp onto ||A||_inf <= 1:

    1. A = clamp(A + B_bar C diag(sigma))
    2. B^+ = prox(B - tau (grad loss(B) + A C^T), tau)
    3. B_bar = 2 B^+ - B

from B = B_bar = B^0, the start point (0 by default), and A = clamp(B^0 C / mu), with diagonal
steps (Pock & Chambolle 2011, "Diagonal preconditioning for first order primal-dual algorithms"):
sigma_e = STEP_RATIO / sum_k |C_ke| per column of C, and tau_k = 0.99 / (lam_max / 2 + STEP_RATIO
sum_e |C_ke|) per task, which scales column k of B's step (row k of the fused model's J x 1 column)
and its soft threshold. Then diag(1/tau) - C diag(sigma) C^T >= lam_max / (2 * 0.99) I, Condat's
condition in the metric of the steps (``primal_dual_steps``). Where the loss dominates, this
unaccelerated step ties with the smoothed FISTA loop or loses to it (2x
the iterations at gamma = 0.01 on J < N data, 4-35x at gamma <= 0.3 on J > N data), so fits
with rho <= PRIMAL_DUAL_RHO, and every fit on a singular X^T X, keep the smoothed loop.

Every fit stops on a duality-gap certificate. With P(B) = max <A, B C> + <U, B> over
||A||_inf <= 1 and the groups of U in the lam-ball, R = grad loss(B) + A C^T + U,
eigh(X^T X) = (N, V) diag(0, s) (N, V)^T and P(B) >= c ||B||_1 (so ||B*||_1 <= F(B) / c),
each such (A, U) shows min F >= F(B) - gap, gap = P(B) - <A, B C> - <U, B>
+ (1/2) ||(V s^-1/2)^T R||^2 + ||N N^T R||_inf (F(B) / c + ||B||_1); N is empty unless
X^T X is singular (J >= N, collinear columns). A is clamp(B C / mu) (Nesterov 2005) in the
smoothed loop and the dual iterate A in the primal-dual one, U the groupwise projection of
-(grad loss(B) + A C^T), with lam * sign(B) on the support in a fit with a fusion term; each
part's ``dual_terms`` returns its terms. F and the gap run only at checks, and always at the cap;
``converged`` means gap <= max(rel_obj_tol * |F(B)|, mu * D) there (mu = 0 without a fusion term),
the target a check must reach to stop a fit. So mu sets the floor mu * D in both loops but
smooths only in one. The primal-dual loop checks every CHECK_EVERY iterations. The FISTA loop checks
first at CHECK_EVERY; then, while the gap fell between its last two checks, it checks next where
the gap would reach the target at their log-linear rate, 1 to 2 CHECK_EVERY iterations on, else
CHECK_EVERY on (``next_check``). A check placed where a fit cannot stop is wasted, and one placed
late leaves a fit running past its stop. In the smoothed loop a check that did not improve restarts it
from the current iterate (O'Donoghue & Candes 2015), and a fusion term runs through the stages
MU_STAGES * mu, each ending at gap <= mu_s * D (Becker, Bobin & Candes 2011, "NESTA"). Either
loop returns the iterate that stopped it, else the best checked one.

A plain subgradient method with step c / sqrt(t+1) is included as the
baseline with the slower O(1/eps^2) rate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, NumericError
from .smoothing import FusionOperator, GroupNorm

CHECK_EVERY = 10
MU_STAGES = (30.0, 1.0)
# The primal-dual loop's step ratio r: sigma_e = r / sum_k |C_ke|. The report grid took fewest iterations at
# r = 10-12, the long chain at r = 20-30; of r = 10, 12, 15, 20, 30 only 12 moved no report selection (BENCH_26.json).
STEP_RATIO = 12.0
# A fusion fit on a nonsingular X^T X runs the primal-dual loop when rho = ||C||^2 / (mu lam_max) exceeds this
PRIMAL_DUAL_RHO = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``mu`` (default 1e-4), or mu = accuracy / (2 D), D = J |E| / 2, is read only by fits with a
    fusion term. It sets their gap floor mu * D in both loops, and smooths the fusion term in
    the FISTA loop, the one a fit takes unless X^T X is nonsingular and rho = ||C||^2 / (mu lam_max)
    > PRIMAL_DUAL_RHO; then the primal-dual loop runs it unsmoothed, with per-edge steps
    sigma_e = r / sum_k |C_ke| and per-task steps tau_k at step ratio r = STEP_RATIO.
    lam is never smoothed. ``rel_obj_tol`` is the relative duality gap to stop at, floored at mu * D
    in a fit with a fusion term. A fit stops only at a check that certifies that gap; the FISTA loop
    places its checks by the gap's rate (``next_check``), the primal-dual loop every CHECK_EVERY
    iterations, and both check at ``max_iters``.
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

    ``trace`` rows are (exact objective, gradient norm) per iteration when
    tracing was requested. ``gap`` is F(B_hat) minus the best certified lower
    bound on the optimum, so ``objective_exact - gap`` is that bound (inf for
    the subgradient baseline); ``stop_reason`` is ``gap`` (``converged``) or ``iteration_cap``, and
    ``checks`` the number of certificate checks the run made (0 for the subgradient baseline).
    ``mu_used`` is the configured mu of a fusion fit (0 without a fusion term), and ``lipschitz_used``
    the final stage's L; for a fit without a fusion term, max_j L_s d_j, the inverse of the shortest
    per-row step (``Moments.jacobi``); and for a fit on the primal-dual loop, max_k 1/tau_k, the inverse
    of the shortest per-task step.
    """

    B_hat: np.ndarray
    objective_exact: float
    iterations: int
    checks: int
    gap: float
    stop_reason: str
    lipschitz_used: float
    mu_used: float
    trace: tuple[tuple[float, float], ...] | None
    runtime_total_s: float
    runtime_periter_s: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gap"

    def certificate(self) -> dict:
        """How the run stopped, as the artifacts record it: iterations, checks, converged, stop_reason and gap."""
        return {k: getattr(self, k) for k in ("iterations", "checks", "converged", "stop_reason", "gap")}


@dataclass(frozen=True)
class Moments:
    """The sample moments of one data split, built once and shared by every fit on it.

    Holds the column means of X and Y and, of the centered data, X^T X,
    X^T Y, ||Y||_F^2, lam_max(X^T X) and, from the same eigh(X^T X), two
    views: the null basis N (eigenvalues <= J eps lam_max; J x 0 when
    nonsingular) and V s^-1/2 over the rest; every later evaluation reads
    these, free of the sample count. ``jacobi``, the
    metric of the unsmoothed fits' per-row steps, costs one more eigvalsh and
    is computed on first use, so fits with a fusion term never pay for it.
    """

    XtX: np.ndarray
    XtY: np.ndarray
    ynorm2: float
    lam_max: float
    null_basis: np.ndarray
    inv_factor: np.ndarray
    x_mean: np.ndarray
    y_mean: np.ndarray

    @classmethod
    def from_data(cls, X: np.ndarray, Y: np.ndarray) -> "Moments":
        """Center the raw X (N x J) and Y (N x K) and take their moments."""
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValueError(f"incompatible shapes X {X.shape}, Y {Y.shape}")
        if not np.ptp(X, axis=0).any():
            raise DegenerateInputError("every column of X is constant: centered, X is zero and there is nothing to fit")
        x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
        X, Y = X - x_mean, Y - y_mean
        XtX = X.T @ X
        if not np.all(np.isfinite(XtX)):
            raise NumericError("X^T X contains non-finite entries")
        s, V = np.linalg.eigh(XtX)
        r = int(np.count_nonzero(s <= s.size * np.finfo(float).eps * s[-1]))  # s ascends: the null ones first
        V[:, r:] *= s[r:] ** -0.5  # in place: the one J x J array kept besides X^T X
        return cls(XtX, X.T @ Y, float(np.vdot(Y, Y)), float(s[-1]), V[:, :r], V[:, r:], x_mean, y_mean)

    @cached_property
    def jacobi(self) -> tuple[np.ndarray, float, float]:
        """The diagonal metric of the unsmoothed loop's per-row steps: (d, L_s, modulus), from one eigvalsh on first use.

        d is diag(X^T X), floored at J eps lam_max (the null test of ``from_data``) so that a zero-variance
        column gets a finite step. L_s = (1 + 1e-6) lam_max(S) and modulus = lam_min(S), 0 when X^T X is
        singular, for the scaled Gram S = D^-1/2 X^T X D^-1/2; so L_s D >= X^T X >= modulus D, with D = diag(d).
        """
        d = np.maximum(np.diag(self.XtX), self.XtX.shape[0] * np.finfo(float).eps * self.lam_max)
        r = d**-0.5
        s = np.linalg.eigvalsh(r[:, None] * self.XtX * r)
        return d, float(s[-1]) * (1.0 + 1e-6), (0.0 if self.null_basis.shape[1] else max(float(s[0]), 0.0))

    def loss(self, B: np.ndarray, g_loss: np.ndarray) -> float:
        """(1/2) ||Y - X B||_F^2 through the moments, given the loss gradient g_loss = X^T X B - X^T Y at B."""
        return 0.5 * (self.ynorm2 - float(np.vdot(B, self.XtY)) + float(np.vdot(B, g_loss)))


def next_check(t: int, record: tuple, last: tuple[int, tuple] | None) -> int:
    """The iteration of the check after the one at t that returned ``record``; ``last`` is (t, record) of the one before.

    ``record[2:4]``, when present, are a check's gap and stop target. While the gap fell between the last two
    checks, the next one comes where it would reach the target at their log-linear rate, r = log(gap / gap_prev)
    / (t - t_prev): ceil(log(target / gap) / r) iterations on, held to [1, 2 CHECK_EVERY]. Otherwise, and for
    records without a gap, it comes CHECK_EVERY iterations on.
    """
    if last is not None and len(record) > 2:
        (t_prev, prev), (gap, target) = last, record[2:4]
        if 0 < target < gap < prev[2] < math.inf:
            rate = math.log(gap / prev[2]) / (t - t_prev)
            return t + min(max(math.ceil(math.log(target / gap) / rate), 1), 2 * CHECK_EVERY)
    return t + CHECK_EVERY


def three_sequence_minimize(
    grad: Callable[[np.ndarray], np.ndarray],
    check: Callable[[np.ndarray], tuple[tuple, bool]],
    B0: np.ndarray, lipschitz: float, max_iters: int,
    prox: Callable[[np.ndarray], np.ndarray] | None,
    trace: Callable[[np.ndarray, np.ndarray], None] | None,
    modulus: float = 0.0,
    step: float | np.ndarray | None = None,
) -> tuple[np.ndarray, int, tuple]:
    """Run the accelerated loop from W^0 = ``B0`` for at most ``max_iters`` iterations.

    The name is older than the step: the loop once kept three sequences and now runs the
    module docstring's two-sequence FISTA step, the iterates B and the search points W
    with theta_t = 2/(t+2). It keeps the name because tests/test_acceptance.py imports
    it. B = prox(W - g * step), then W = B + min(k/(k+3), beta) (B - B_prev). ``step`` is
    1/``lipschitz`` by default, or per-entry steps of B's shape, 1 / (L d) for a diagonal metric
    D = diag(d) with X^T X <= L D. ``prox`` is the proximal map of the non-smooth penalty at
    those steps, built once by the caller (``GroupNorm.prox_map``), or None for the identity.
    That is one prox per iteration and, with the soft threshold, seven array operations besides
    ``grad``: two for W - g * step, the threshold's two and three for the extrapolation.
    ``modulus`` is a strong convexity modulus of the smooth part in the same metric, or 0: with
    q = modulus / ``lipschitz``, beta = (1 - sqrt(q)) / (1 + sqrt(q)) is V-FISTA's constant
    momentum (Beck 2017, Thm 10.42), and at 0, beta = 1 leaves the k/(k+3) step as it was, bit
    for bit. ``check(B)`` runs first at iteration CHECK_EVERY, then where ``next_check`` puts the
    next one, and always at the cap; it returns (record, whether B ends the run), ``record[0]`` the
    value of the objective the loop minimizes and ``record[2:4]``, if any, the gap and its stop target.
    At a check whose value is not below the best checked one, the loop
    restarts from the current iterate with no momentum: W = B, k = 0.
    ``trace(B, g)`` gets the unscaled gradient g every iteration and decides nothing.

    Returns (B, iterations, record of B): the iterate ``check`` accepted, else the best checked one.
    """
    if lipschitz <= 0:
        raise ValueError(f"Lipschitz bound must be positive, got {lipschitz}")
    if not 0 <= modulus <= lipschitz:
        raise ValueError(f"strong convexity modulus must lie in [0, {lipschitz}], got {modulus}")
    root_q = (modulus / lipschitz) ** 0.5
    beta = (1.0 - root_q) / (1.0 + root_q)
    step = 1.0 / lipschitz if step is None else step
    prox = (lambda V: V) if prox is None else prox
    W = best_B = B = B0
    best, k, due, last = (np.inf,), 0, CHECK_EVERY, None
    for t in range(1, max_iters + 1):
        g = grad(W)
        B_prev, B = B, prox(W - g * step)
        W = B - B_prev
        W *= min(k / (k + 3.0), beta)
        W += B
        k += 1
        if trace is not None:
            trace(B, g)
        if t < due and t < max_iters:
            continue
        record, done = check(B)
        if done:
            return B, t, record
        if record[0] < best[0]:
            best_B, best = B, record
        else:
            W, k = B, 0
        due, last = next_check(t, record, last), (t, record)
    return best_B, max_iters, best


def primal_dual_steps(lam_max: float, fusion: FusionOperator) -> tuple[np.ndarray, np.ndarray]:
    """The primal-dual loop's diagonal steps on ``fusion``'s C: (sigma per column of C, tau per task in ``task_shape``).

    sigma_e = STEP_RATIO / sum_k |C_ke|, 0 on a zero column, and tau_k = 0.99 / (lam_max / 2 + STEP_RATIO
    sum_e |C_ke|), both from ``abs_sums``. By Pock & Chambolle 2011, Lemma 2 at alpha = 1, C diag(sigma) C^T
    <= STEP_RATIO diag(sum_e |C_ke|), so diag(1/tau) - C diag(sigma) C^T >= lam_max / (2 * 0.99) I: Condat's
    condition in the metric of the steps, for a loss whose gradient is lam_max-Lipschitz.
    """
    columns, tasks = fusion.abs_sums()
    sigma = np.divide(STEP_RATIO, columns, out=np.zeros_like(columns), where=columns > 0)
    return sigma, 0.99 / (0.5 * lam_max + STEP_RATIO * tasks)


def primal_dual_minimize(
    grad: Callable[[np.ndarray], np.ndarray],
    check: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[tuple, bool]],
    dual_step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    B0: np.ndarray, A0: np.ndarray, tau: float | np.ndarray, max_iters: int,
    prox: Callable[[np.ndarray], np.ndarray],
    trace: Callable[[np.ndarray, np.ndarray], None] | None,
) -> tuple[np.ndarray, int, tuple]:
    """Run the Condat-Vu primal-dual loop from B = B_bar = ``B0`` and the dual iterate ``A0`` (updated in place).

    Per iteration the dual step comes first, so that the extrapolation is on the iterate B:
    ``dual_step(A, B_bar)`` sets A = clamp(A + B_bar C diag(sigma)) and returns A C^T; then
    B = prox(B - tau (grad(B) + A C^T)) and B_bar = 2 B - B_prev, with ``tau`` a step, or steps that
    broadcast over B, and ``prox`` the penalty's proximal map at those steps. That is Condat's
    iteration with the dual index shifted by one. ``check(B, A, A C^T)`` runs every CHECK_EVERY
    iterations and at the cap and returns (record, whether B ends the run), ``record[0]``
    the exact objective; there is no restart. ``trace(B, g)`` gets the step's gradient g.

    Returns (B, iterations, record of B): the iterate ``check`` accepted, else the best checked one.
    """
    B = B_bar = B0
    A, best_B, best = A0, B0, (np.inf,)
    for t in range(1, max_iters + 1):
        g = grad(B)
        dual_grad = dual_step(A, B_bar)
        g += dual_grad
        B_prev, B = B, prox(B - tau * g)
        B_bar = B - B_prev
        B_bar += B
        if trace is not None:
            trace(B, g)
        if t % CHECK_EVERY and t < max_iters:
            continue
        record, done = check(B, A, dual_grad)
        if done:
            return B, t, record
        if record[0] < best[0]:
            best_B, best = B, record
    return best_B, max_iters, best


def solve(m: Moments, config: SolverConfig, penalty: FusionOperator | GroupNorm,
          start: np.ndarray | None = None) -> Solution:
    """Minimize (1/2) ||Y - X B||_F^2 plus ``penalty``; the core behind every model.

    ``penalty`` is a :class:`GroupNorm`, run through its exact prox, or a :class:`FusionOperator`
    ||B C||_1, read as GroupNorm(lam, 1) plus its fusion term, the operator at lam = 0, when there
    is one (gamma > 0 and an edge). mu (``config.mu``, or accuracy / (2 D), D = J |E| / 2) and the
    smoothed loop's step 1/L, L = lam_max(X^T X) + squared_norm / mu, are derived here alone, once
    per mu stage; a degree-bound L, lam_max + norm_bound()^2 / mu, past the float range is refused.
    The loop is chosen here once per fit from the degree bound: the primal-dual loop, with the steps
    of ``primal_dual_steps`` from lam_max and the absolute sums of C, if X^T X is nonsingular and
    norm_bound()^2 > PRIMAL_DUAL_RHO * mu * lam_max, else the smoothed one. Without a fusion term
    mu = 0, and the loop steps row j by 1 / (L_s d_j) and caps its momentum in that metric, all from
    ``m.jacobi`` (module docstring).
    c is the norm's ``l1_factor``; lam = 0, so c = 0, with a singular X^T X is refused. The data
    enter only through ``m``. ``objective_exact`` is the F of the check
    that accepted B_hat, so ``objective_exact - gap`` is the certified lower bound itself.

    Both loops begin at ``start``, a coefficient matrix of X^T Y's shape with finite entries
    (copied, never changed), or at zeros when it is None, so a cold fit is a fit started at
    zeros. The primal-dual loop's dual iterate begins at aux_optimum(start, mu) = clamp(start C / mu),
    all zeros at a zero start; the smoothed loop enters its mu ladder at the first stage either way.
    Only the iterate carries over: every certificate is computed afresh from this fit's checks.
    """
    t_start = time.perf_counter()
    XtX, XtY = m.XtX, m.XtY
    B = np.zeros(XtY.shape) if start is None else np.array(start, dtype=float, order="C")
    if B.shape != XtY.shape:
        raise ValueError(f"the start point must have the coefficient shape {XtY.shape}, got {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("the start point has non-finite entries")
    norm, fusion, mu, D, bound2 = penalty, None, 0.0, 0.0, 0.0
    if isinstance(penalty, FusionOperator):
        if penalty.coef_shape != XtY.shape:
            raise ValueError(f"the penalty operator has coefficient shape {penalty.coef_shape}, the data {XtY.shape}")
        norm = GroupNorm(penalty.lam, 1)
        if penalty.gamma > 0 and penalty.n_edges:
            fusion = replace(penalty, lam=0.0)
    if fusion is not None:
        D = fusion.gap_constant()
        mu = config.mu if config.accuracy is None else config.accuracy / (2.0 * D)
        if not mu > 0:
            raise ValueError(f"accuracy {config.accuracy} is too small: mu = accuracy / (2 D) underflows to {mu}")
        with np.errstate(over="ignore"):  # inf past the float range, refused below
            bound2 = float(np.float64(fusion.norm_bound()) ** 2)
        if not m.lam_max + bound2 / mu < np.inf:
            raise ValueError(f"the step bound L = lam_max + ||C||^2 / mu overflows at gamma={fusion.gamma}, mu={mu}"
                             + ("" if config.accuracy is None else f", accuracy={config.accuracy}"))
        stages = [k * mu for k in MU_STAGES]
    c, tol, max_iters, lower, N = float(norm.l1_factor), config.rel_obj_tol, config.max_iters, -np.inf, m.null_basis
    if N.shape[1] and not c > 0:
        raise DegenerateInputError("lambda = 0 on a singular X^T X (J >= N or collinear columns) cannot be certified")
    # rho = ||C||^2 / (mu lam_max): smoothing would raise the step bound L by the factor 1 + rho
    primal_dual = fusion is not None and not N.shape[1] and bound2 > PRIMAL_DUAL_RHO * mu * m.lam_max

    # check reads mu_s, the mu of the stage the loop below runs, and grad that stage's penalty_grad
    def grad(W: np.ndarray) -> np.ndarray:
        g = XtX @ W
        g -= XtY
        if penalty_grad is not None:
            g += penalty_grad(W)
        return g

    def gap_target(f: float, mu_s: float) -> tuple[float, float]:
        # F(B) minus the best lower bound so far, and the target max(tol |F|, mu_s D) that stops a fit within it
        return max(f - lower, 0.0), max(tol * abs(f), mu_s * D)

    def stops(f: float, mu_s: float) -> bool:
        gap, target = gap_target(f, mu_s)
        return gap <= target

    def check(B: np.ndarray, A: np.ndarray | None, dual_grad: np.ndarray | None) -> tuple[tuple, bool]:
        # ((objective the loop minimizes, F(B), gap, target), whether B ends the stage); the fusion term's dual point
        # is the primal-dual loop's iterate A, whose A C^T its dual step returned, else clamp(B C / mu_s); the
        # norm's terms at g = grad loss(B) + A C^T
        nonlocal lower, checks
        checks += 1
        g = XtX @ B - XtY
        f_loss = m.loss(B, g)
        pen = slack = stage_pen = 0.0
        if fusion is not None:
            pen, slack, dual_grad, stage_pen = fusion.dual_terms(B, g, mu_s, A, dual_grad)
            g += dual_grad
        norm_pen, norm_slack, U, _ = norm.dual_terms(B, g, mu_s)
        f = f_loss + pen + norm_pen
        if not np.isfinite(f):
            raise NumericError("objective became non-finite")
        R = g + U
        P = m.inv_factor.T @ R
        bound = f - slack - norm_slack - 0.5 * float(np.vdot(P, P))
        if N.shape[1]:
            # Hoelder on the null-space part of R, with ||B* - B||_1 <= F(B) / c + ||B||_1
            bound -= float(np.abs(N @ (N.T @ R)).max()) * (f / c + float(np.abs(B).sum()))
        lower = max(lower, bound)
        gap, target = gap_target(f, mu_s)
        return (f if A is not None else f_loss + stage_pen + norm_pen, f, gap, target), gap <= target

    trace: list[tuple[float, float]] = []

    def trace_row(B: np.ndarray, g: np.ndarray) -> None:
        # the exact objective every iteration, for the trace only: checks alone decide
        trace.append((m.loss(B, XtX @ B - XtY) + penalty.penalty_exact(B), float(np.linalg.norm(g))))

    t_loop = time.perf_counter()
    iters, checks, trace_fn, mu_s, penalty_grad = 0, 0, trace_row if config.record_trace else None, mu, None
    if primal_dual:
        sigma, tau = primal_dual_steps(m.lam_max, fusion)
        tau = np.broadcast_to(tau, B.shape).copy()  # B's shape: tau * g and the threshold then broadcast nothing
        A = fusion.aux_optimum(B, mu)
        B, iters, (_, f, *_) = primal_dual_minimize(grad, check, fusion.dual_step(sigma), B, A, tau, max_iters,
                                                    norm.prox_map(tau), trace_fn)
        step_bound = float(1.0 / tau.min())
    elif fusion is None:
        # unsmoothed: row j steps by 1 / (L_s d_j), the momentum capped in the same metric (module docstring)
        d, L_s, modulus = m.jacobi
        step = np.repeat((1.0 / (L_s * d))[:, None], B.shape[1], axis=1)
        B, iters, (_, f, *_) = three_sequence_minimize(grad, lambda B: check(B, None, None), B, L_s, max_iters,
                                                       norm.prox_map(step), trace_fn, modulus, step)
        step_bound = L_s * float(d.max())
    else:
        # the step of squared_norm, not of the degree bound that rho and the loop choice read
        for mu_s in stages:
            penalty_grad = fusion.gradient_map(mu_s)
            L = m.lam_max + fusion.squared_norm / mu_s
            B, n, (_, f, *_) = three_sequence_minimize(grad, lambda B: check(B, None, None), B, L, max_iters - iters,
                                                       norm.prox_map(1.0 / L), trace_fn)
            iters += n
            if stops(f, mu) or iters == max_iters:
                break
        step_bound = m.lam_max + fusion.squared_norm / stages[-1]
    converged = stops(f, mu)
    t_end = time.perf_counter()

    return Solution(
        B_hat=B,
        objective_exact=f,
        iterations=iters,
        checks=checks,
        gap=gap_target(f, mu)[0],
        stop_reason="gap" if converged else "iteration_cap",
        lipschitz_used=step_bound,
        mu_used=mu,
        trace=tuple(trace) if config.record_trace else None,
        runtime_total_s=t_end - t_start,
        runtime_periter_s=(t_end - t_loop) / max(iters, 1),
    )


def subgradient_fit(m: Moments, config: SolverConfig, op: FusionOperator) -> Solution:
    """Subgradient baseline on the exact objective, tracking the best iterate.

    The step is c / sqrt(t+1) with c = 1 / lam_max(X^T X); the
    subgradient of the penalty is Gamma*(sign(Gamma(B))) with sign(0) = 0.
    Each iterate costs one Gram product and one ``apply``, shared by its
    objective and the next step. There is no stopping test: the method always
    runs ``config.max_iters`` steps and reports ``converged=False``, since
    nothing certifies the best iterate; its objective is the best F tracked.
    Of ``config`` it reads only ``max_iters`` and ``record_trace``.
    """
    t_start = time.perf_counter()
    XtX, XtY = m.XtX, m.XtY
    c = 1.0 / m.lam_max if m.lam_max > 0 else 1.0
    B = best_B = np.zeros(XtY.shape)
    g_loss, G = XtX @ B - XtY, op.apply(B)
    best_f = m.loss(B, g_loss) + float(np.abs(G).sum())
    trace: list[tuple[float, float]] | None = [] if config.record_trace else None
    t_loop = time.perf_counter()
    for t in range(config.max_iters):
        g = g_loss + op.adjoint(np.sign(G))
        B = B - c / np.sqrt(t + 1.0) * g
        g_loss, G = XtX @ B - XtY, op.apply(B)
        f_t = m.loss(B, g_loss) + float(np.abs(G).sum())
        if not np.isfinite(f_t):
            raise NumericError(f"objective became non-finite at iteration {t}")
        if f_t < best_f:
            best_f, best_B = f_t, B
        if trace is not None:
            trace.append((best_f, float(np.linalg.norm(g))))
    t_end = time.perf_counter()

    return Solution(
        B_hat=best_B,
        objective_exact=best_f,
        iterations=config.max_iters,
        checks=0,
        gap=np.inf,
        stop_reason="iteration_cap",
        lipschitz_used=m.lam_max,
        mu_used=0.0,
        trace=tuple(trace) if trace is not None else None,
        runtime_total_s=t_end - t_start,
        runtime_periter_s=(t_end - t_loop) / config.max_iters,
    )


def trace_csv_text(solution: Solution) -> str:
    """The per-iteration trace as CSV with columns iter,f_exact,grad_norm."""
    if solution.trace is None:
        raise ValueError("solution was computed without record_trace")
    rows = (f"{i},{fe:.17g},{gn:.17g}\n" for i, (fe, gn) in enumerate(solution.trace))
    return "iter,f_exact,grad_norm\n" + "".join(rows)
