"""The fit's penalties: an exact group norm, and a smooth approximation of the graph fusion.

The penalty lam * ||B||_1 + gam * sum_e |r_e| * sum_j |b_jm - sign(r_e) b_jl|
equals ||B C||_1 for C = (lam * I, gam * H), H the signed incidence matrix of
the task graph, the paper's :class:`FusionOperator`. ``solver.solve`` reads it
as :class:`GroupNorm` (lam, 1), whose exact prox ``prox_map(step)`` is built once per step, plus the operator at
lam = 0, the fusion term alone, and smooths only that: ||B C||_1 is a max over
||A||_inf <= 1, and subtracting (mu/2) ||A||_F^2 gives a smooth lower bound
within mu * D, D = J * width / 2 (J |E| / 2 at lam = 0), maximized at
A = clamp(B C / mu). ``gradient_map(mu)`` builds its gradient A C^T once per mu
for the solver's smoothed loop, and the same A is the dual point of the duality-gap
certificate (``dual_terms``). The solver's primal-dual loop leaves the term
unsmoothed and keeps A as an iterate, advanced by ``dual_step(sigma)``; its
certificate passes that A to ``dual_terms``. D, two bounds on the norm of B -> B C and the
absolute sums of C are defined here alone (``gap_constant``; ``norm_bound``, the degree bound,
and ``squared_norm``, from the spectrum of the K x K Gram C C^T when K <= J, else the degree
bound's square, never above it; ``abs_sums``, its task sums spread over ``coef_shape``, the one
statement of where a task sits in B). ``solver.solve`` derives mu from D, rho and the loop choice
from the degree bound, the smoothed stages' L from ``squared_norm`` and the primal-dual steps,
already in B's shape, from the sums.

The first use of an operator picks the form of C once, by its shape, and one builder makes every map
from it: B -> B C diag(sigma) / mu and A -> A C^T, at sigma = mu = 1 for ``apply`` and ``adjoint`` (after
a shape check), at sigma = 1 for ``gradient_map`` and at mu = 1 for ``dual_step``. When K <= J they are
BLAS products on the dense K x width C, no larger than the J x width auxiliary matrix. When K > J (mostly
the 1 x J :class:`CovariateFusionOperator`) each is one gather and one ``np.bincount`` over flat entries,
O(J*K + J*|E|), with sigma / mu folded into the gathered weights: a row-major J x 1 column has the flat
entries of a 1 x J row, so neither coefficient layout is transposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .graph import TaskGraph


def shrink(x):
    """Entrywise clamp to [-1, 1]; boundary inputs map to the boundary value. A float array is clamped in place."""
    x = np.asarray(x, dtype=float)
    return x.clip(-1.0, 1.0, out=x)


def _check_mu(mu: float) -> float:
    if not mu > 0:
        raise ValueError(f"smoothness parameter mu must be positive, got {mu}")
    return float(mu)


@dataclass(frozen=True)
class GroupNorm:
    """lam * sum_g ||B_g||_2 over the runs B_g of ``width`` entries of row-major B: rows at width K, entries at 1."""

    lam: float
    width: int

    def __post_init__(self) -> None:
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and non-negative, got lam={self.lam}")

    @property
    def l1_factor(self) -> float:
        """The c of penalty(B) >= c ||B||_1: lam / sqrt(width), by Cauchy-Schwarz on each group."""
        return self.lam / self.width**0.5

    def _norms(self, V: np.ndarray) -> np.ndarray:
        # the groups' 2-norms as a column, the sum of squares taken directly: np.linalg.norm adds microseconds per call
        G = V.reshape(-1, self.width)
        return np.sqrt(np.add.reduce(G * G, axis=1, keepdims=True))

    def penalty_exact(self, B: np.ndarray) -> float:
        norms = np.abs(B) if self.width == 1 else self._norms(B)
        return self.lam * float(norms.sum())

    def prox_map(self, step: float | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The proximal map of step * penalty at fixed steps: each group g <- (1 - t / max(||g||, t)) g, t = lam * step.

        ``step`` is one step or steps of V's shape, read off each group's first entry; at width 1, the soft
        threshold V -> V - clip(V, -t, t), it may have any shape that broadcasts over V. The thresholds are
        built here once, and at lam = 0 the map is the identity, where the shrink factor would be 0 / 0.
        """
        step = np.asarray(step, dtype=float)  # t per group is sliced before the product: a strided t slows each call
        t = self.lam * (step.reshape(-1, self.width)[:, :1] if step.ndim and self.width > 1 else step)
        if not t.any():
            return lambda V: V
        if self.width == 1:
            lo = -t
            return lambda V: V - V.clip(lo, t)
        return lambda V: (V.reshape(-1, self.width) * (1.0 - t / np.maximum(self._norms(V), t))).reshape(V.shape)

    def dual_terms(self, B: np.ndarray, g: np.ndarray, mu: float) -> tuple[float, float, np.ndarray, float]:
        """(penalty, penalty - <A, B>, A, penalty), the layout of ``FusionOperator.dual_terms``, at A in the lam-ball.

        A is each group of -g, the rest of the objective's gradient at B, projected onto the ball; with a
        fusion term (mu > 0) at width 1 the support takes lam * sign(B) instead, which leaves no slack.
        """
        pen = self.penalty_exact(B)
        if self.width == 1:
            A = -g.clip(-self.lam, self.lam)
            if mu > 0:
                return pen, 0.0, np.where(B, np.copysign(self.lam, B), A), pen
        elif self.lam:
            A = (g.reshape(-1, self.width) * (-self.lam / np.maximum(self._norms(g), self.lam))).reshape(B.shape)
        else:  # the ball is {0}
            A = np.zeros_like(g)
        return pen, pen - float(np.vdot(A, B)), A, pen


@dataclass(frozen=True)
class FusionOperator:
    """The linear map B -> B C with C = (lam * I, gam * H), plus its adjoint.

    Maps (J, K) coefficient matrices to (J, width): K columns lam * B (none at
    lam = 0), then gam * |r_e| * (B[:, m_e] - sign(r_e) * B[:, l_e]) per edge e.
    Edges are stored as flat arrays; the nonzeros of C, its form (``_C``: the dense C, or None for
    the edge arrays) and the maps of ``apply`` and ``adjoint`` are cached on first use, and ``_maps``
    alone builds maps from them.
    """

    lam: float
    gamma: float
    n_inputs: int
    n_tasks: int
    edge_m: np.ndarray
    edge_l: np.ndarray
    edge_weight: np.ndarray
    edge_sign: np.ndarray

    def __post_init__(self) -> None:
        if not (0 <= self.lam < np.inf and 0 <= self.gamma < np.inf):
            raise ValueError(f"lam and gamma must be finite and non-negative, got lam={self.lam}, gamma={self.gamma}")
        if self.n_inputs < 1 or self.n_tasks < 1:
            raise ValueError("n_inputs and n_tasks must be >= 1")

    @cached_property
    def _triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the nonzeros of C, entry i at (rows[i], cols[i]): lam on the diagonal, then each edge at its m and its l end
        n_diag = self.width - self.n_edges
        node, edge, coef = np.arange(n_diag), np.arange(n_diag, self.width), self.gamma * self.edge_weight
        return (np.concatenate((node, self.edge_m, self.edge_l)), np.concatenate((node, edge, edge)),
                np.concatenate((np.full(n_diag, self.lam), coef, -self.edge_sign * coef)))

    @cached_property
    def _C(self) -> np.ndarray | None:
        # the form of C, picked on first use by shape: the dense K x width C when K <= J, else None, the edge arrays
        if self.n_tasks > self.n_inputs:
            return None
        rows, cols, weight = self._triplets
        C = np.zeros((self.n_tasks, self.width))
        C[rows, cols] = weight
        return C

    def _maps(self, sigma: float | np.ndarray, mu: float) -> tuple[Callable[[np.ndarray], np.ndarray],
                                                                    Callable[[np.ndarray], np.ndarray]]:
        # (B -> B C diag(sigma) / mu, A -> A C^T), sigma one step or one per column of C; the only reader of _C. Dividing
        # by mu forms C / mu and C sigma as they are written, with no inf * 0 at a subnormal mu. The maps capture
        # arrays and shapes, not self, so an operator holds no reference cycle, and check no shapes
        C = self._C
        if C is not None:
            C_scaled, C_T = C * sigma / mu, C.T
            return (lambda B: B @ C_scaled), (lambda A: A @ C_T)
        # flat entry (j, rows[i]) of the coefficients times weight[i] adds to (j, cols[i]) of B C, and back
        rows, cols, weight = self._triplets
        rank = np.arange(self.n_inputs)[:, None]
        at_coef, at_aux = self.n_tasks * rank + rows, self.width * rank + cols

        def edge_map(gather, scatter, w, shape):
            size = shape[0] * shape[1]
            return lambda M: np.bincount(scatter, (np.take(M, gather) * w).ravel(), size).reshape(shape)

        scaled = weight * np.broadcast_to(sigma, self.width)[cols] / mu
        return (edge_map(at_coef, at_aux.ravel(), scaled, (self.n_inputs, self.width)),
                edge_map(at_aux, at_coef.ravel(), weight, self.coef_shape))

    _unit_maps = cached_property(lambda self: self._maps(1.0, 1.0))

    @classmethod
    def from_graph(cls, graph: TaskGraph, lam: float, gamma: float, n_inputs: int) -> "FusionOperator":
        """Operator of ``graph``: edge weight |r| and sign -1 if r < 0 else +1."""
        edges = np.array(graph.edges, dtype=float).reshape(-1, 3)
        r = edges[:, 2]
        return cls(
            lam=float(lam),
            gamma=float(gamma),
            n_inputs=int(n_inputs),
            n_tasks=graph.node_count,
            edge_m=edges[:, 0].astype(np.intp) - 1,
            edge_l=edges[:, 1].astype(np.intp) - 1,
            edge_weight=np.abs(r),
            edge_sign=np.where(r < 0, -1.0, 1.0),
        )

    @property
    def n_edges(self) -> int:
        return self.edge_m.shape[0]

    @property
    def width(self) -> int:
        """Number of columns of C: K + |E|, or |E| at lam = 0, where C holds no lam columns."""
        return (self.n_tasks if self.lam > 0 else 0) + self.n_edges

    @property
    def coef_shape(self) -> tuple[int, int]:
        """The shape of the coefficient matrices B the operator maps."""
        return self.n_inputs, self.n_tasks

    def apply(self, B: np.ndarray) -> np.ndarray:
        """Gamma(B) = B C, shape (J, width)."""
        B = np.asarray(B, dtype=float)
        if B.shape != self.coef_shape:
            raise ValueError(f"coefficient matrix must have shape {self.coef_shape}, got {B.shape}")
        return self._unit_maps[0](B)

    def adjoint(self, A: np.ndarray) -> np.ndarray:
        """Gamma*(A) = A C^T, mapping (J, width) back to ``coef_shape``."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.n_inputs, self.width):
            raise ValueError(f"auxiliary matrix must have shape {(self.n_inputs, self.width)}, got {A.shape}")
        return self._unit_maps[1](A)

    def aux_optimum(self, B: np.ndarray, mu: float) -> np.ndarray:
        """Maximizer A* = clamp(B C / mu) of <A, B C> - (mu/2) ||A||_F^2 over ||A||_inf <= 1."""
        return shrink(self.apply(B) / _check_mu(mu))

    def gradient_map(self, mu: float) -> Callable[[np.ndarray], np.ndarray]:
        """The gradient of f_mu for one fixed mu: the map B -> adjoint(aux_optimum(B, mu)) = clamp(B C / mu) C^T.

        The maps B -> B C / mu and A -> A C^T are built here once, and a call is the two of them around one
        in-place clamp. It does not check B's shape: the caller owns it.
        """
        forward, backward = self._maps(1.0, _check_mu(mu))

        def smoothed_gradient(B: np.ndarray) -> np.ndarray:
            G = forward(B)
            return backward(G.clip(-1.0, 1.0, out=G))

        return smoothed_gradient

    def dual_step(self, sigma: float | np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The primal-dual loop's step on the fusion term for fixed steps sigma: (A, B) -> A C^T after A = clamp(A + B C sigma).

        ``sigma`` is one step or one per column of C (shape (width,)), read as diag(sigma). The maps
        B -> B C diag(sigma) and A -> A C^T are built here once, and a call is the two of them around one
        in-place clamp; A is updated in place. Like ``gradient_map``, it does not check shapes: the caller owns A and B.
        """
        forward, backward = self._maps(sigma, 1.0)

        def step(A: np.ndarray, B: np.ndarray) -> np.ndarray:
            A += forward(B)
            return backward(A.clip(-1.0, 1.0, out=A))

        return step

    def penalty_exact(self, B: np.ndarray) -> float:
        """The non-smooth penalty value ||B C||_1."""
        G = self.apply(B)
        return float(np.abs(G, out=G).sum())

    def dual_terms(self, B: np.ndarray, g_loss: np.ndarray, mu: float, A: np.ndarray | None = None,
                   dual_grad: np.ndarray | None = None) -> tuple[float, float, np.ndarray, float]:
        """What the duality-gap certificate needs at a dual point A in the box, by default clamp(B C / mu), from one ``apply``.

        Returns (||B C||_1, the slack ||B C||_1 - <A, B C>, the dual gradient A C^T,
        <A, B C> - (mu/2) ||A||_F^2, which is f_mu(B) at the default A). The primal-dual loop
        passes its dual iterate as A and, as ``dual_grad``, the A C^T its dual step returned, so
        that no ``adjoint`` runs. ``g_loss`` is unused: the default A depends on B alone.
        """
        mu = _check_mu(mu)
        G = self.apply(B)
        if A is None:
            A = shrink(G / mu)
        pen, pairing = float(np.abs(G).sum()), float(np.vdot(A, G))
        if dual_grad is None:
            dual_grad = self.adjoint(A)
        return pen, pen - pairing, dual_grad, pairing - 0.5 * mu * float(np.vdot(A, A))

    def abs_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The absolute sums of C: (sum_k |C_ke| per column, sum_e |C_ke| per task), from the edge arrays.

        An edge column holds gam w_e at both ends, so its sum is 2 gam w_e (0 at a zero weight); a task's
        sum is gam times its summed edge weight, plus lam with the lam columns. The task sums come spread
        over ``coef_shape``, each entry holding its task's sum, so a step built from them has B's shape.
        """
        coef = np.abs(self.gamma * self.edge_weight)
        columns = np.concatenate((np.full(self.width - self.n_edges, self.lam), 2.0 * coef))
        tasks = np.bincount(np.concatenate((self.edge_m, self.edge_l)), np.concatenate((coef, coef)), self.n_tasks)
        return columns, np.tile(tasks + self.lam, self.n_inputs).reshape(self.coef_shape)

    def degrees(self) -> np.ndarray:
        """Weighted degree vector d_k = sum of squared edge weights incident on k."""
        w2 = self.edge_weight**2
        return np.bincount(np.concatenate((self.edge_m, self.edge_l)), np.concatenate((w2, w2)), self.n_tasks)

    def norm_bound(self) -> float:
        """sqrt(lam^2 + 2 gamma^2 max_k d_k), an upper bound on sigma_max(C); lam when there are no edges.

        inf, not an OverflowError, past the float range.
        """
        max_d = float(self.degrees().max())
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.float64(self.lam) ** 2 + 2.0 * np.float64(self.gamma) ** 2 * max_d))

    @cached_property
    def squared_norm(self) -> float:
        """An upper bound on sigma_max(C)^2: min(norm_bound()^2, (1 + 1e-6) lam_max(C C^T)) when K <= J, on first use.

        The K x K Gram C C^T, lam^2 I plus gam^2 w_e^2 (e_m - s_e e_l)(e_m - s_e e_l)^T per edge, is
        scattered from the edge arrays, so no dense C is built, and it is taken only when it is no
        larger than the J x K coefficients; its largest eigenvalue the factor 1 + 1e-6 lifts past the
        eigensolver's rounding, the margin of ``Moments.jacobi``. When K > J, as on every
        :class:`CovariateFusionOperator` with an edge, the value is the degree bound's square. It is
        never above that square, and inf past the float range, like ``norm_bound``.
        """
        with np.errstate(over="ignore"):
            bound2 = np.float64(self.norm_bound()) ** 2
            K = self.n_tasks
            if not (self.n_edges and bound2 < np.inf and K <= self.n_inputs):
                return float(bound2)
            coef = self.gamma * self.edge_weight
            c2 = coef * coef
            cross = -self.edge_sign * c2
            m, l = self.edge_m, self.edge_l
            G = np.bincount(np.concatenate((m * (K + 1), l * (K + 1), m * K + l, l * K + m)),
                            np.concatenate((c2, c2, cross, cross)), K * K).reshape(K, K)
            G.flat[:: K + 1] += np.float64(self.lam) ** 2
            return float(min(bound2, np.linalg.eigvalsh(G)[-1] * (1.0 + 1e-6)))

    def gap_constant(self) -> float:
        """Smoothing gap constant D = J * width / 2: J (K + |E|) / 2, or J |E| / 2 at lam = 0.

        This is the maximum of (1/2) ||A||_F^2 over ||A||_inf <= 1, attained by
        the all-ones J x width matrix.
        """
        return 0.5 * self.n_inputs * self.width


class CovariateFusionOperator(FusionOperator):
    """The fused model's penalty on a J x 1 column b: the 1 x J operator (n_inputs=1, n_tasks=J), read on b as it is."""

    @property
    def coef_shape(self) -> tuple[int, int]:
        return self.n_tasks, self.n_inputs
