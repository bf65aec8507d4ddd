"""Smooth approximation of the combined l1 + graph-fusion penalty.

The penalty lam * ||B||_1 + gam * sum_e |r_e| * sum_j |b_jm - sign(r_e) b_jl|
equals ||B C||_1 for C = (lam * I, gam * H), H the signed incidence matrix of
the task graph. The models build it only for a fusion term (gam > 0 and an
edge): lam * ||B||_1 alone has an exact prox. Through the dual of the l1 norm,
||B C||_1 is a max over ||A||_inf <= 1; subtracting (mu/2) ||A||_F^2 gives a
smooth lower bound within mu * D, D = J (K + |E|) / 2, maximized at
A = clamp(B C / mu). ``gradient_map(mu)`` builds its gradient A C^T once per mu
for the solver's loop, and the same A is the dual point of the duality-gap
certificate (``dual_terms``). D and the norm bound of B -> B C are defined here
alone (``gap_constant``, ``norm_bound``); ``solver.solve`` derives mu and L from them.

The operator holds C in one of two forms, chosen by its own shape alone. When
K <= J it builds the dense K x (K + |E|) C once, no larger than the J x (K + |E|)
auxiliary matrix, so apply, adjoint and the exact penalty are BLAS products.
When K > J (mostly the 1 x J operator of :class:`CovariateFusionOperator`) it
works on the edge arrays: column gathers for B C and one ``np.bincount``
scatter for A C^T, at O(J*K + J*|E|) per application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import TaskGraph


def shrink(x):
    """Entrywise clamp to [-1, 1]; boundary inputs map to the boundary value."""
    return np.clip(x, -1.0, 1.0)


def _check_mu(mu: float) -> float:
    if not mu > 0:
        raise ValueError(f"smoothness parameter mu must be positive, got {mu}")
    return float(mu)


@dataclass(frozen=True)
class FusionOperator:
    """The linear map B -> B C with C = (lam * I, gam * H), plus its adjoint.

    Maps (J, K) coefficient matrices to (J, K + |E|); the first K columns are
    lam * B and column K + e is gam * |r_e| * (B[:, m_e] - sign(r_e) * B[:, l_e]).
    Edge structure is stored as flat arrays. On construction the operator
    builds what its representation needs (see the module docstring): the
    dense C when K <= J, else the gather and scatter indices of the adjoint.
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
        k, n_edges = self.n_tasks, self.n_edges
        node = np.arange(k)
        edge = np.arange(k, k + n_edges)
        coef = self.gamma * self.edge_weight
        if k <= self.n_inputs:
            C = np.zeros((k, k + n_edges))
            C[node, node] = self.lam
            C[self.edge_m, edge] = coef
            C[self.edge_l, edge] = -self.edge_sign * coef
            object.__setattr__(self, "_C", C)
            return
        # A C^T as one bincount over a J x (K + 2|E|) array: column i of A,
        # times weight i, is added to node i of the same row, for i over the
        # K diagonal columns, then each edge at its m end, then at its l end.
        object.__setattr__(self, "_C", None)
        object.__setattr__(self, "_gather", np.concatenate((node, edge, edge)))
        object.__setattr__(self, "_weight", np.concatenate((np.full(k, self.lam), coef, -self.edge_sign * coef)))
        nodes = np.concatenate((node, self.edge_m, self.edge_l))
        object.__setattr__(self, "_scatter", (k * np.arange(self.n_inputs)[:, None] + nodes).ravel())

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
        """Number of columns of C, i.e. K + |E|."""
        return self.n_tasks + self.n_edges

    @property
    def l1_factor(self) -> float:
        """The c of ||B C||_1 >= c ||B||_1: lam, from the first K columns of C."""
        return self.lam

    def _check_coef(self, B: np.ndarray) -> np.ndarray:
        B = np.asarray(B, dtype=float)
        if B.shape != (self.n_inputs, self.n_tasks):
            raise ValueError(f"coefficient matrix must have shape {(self.n_inputs, self.n_tasks)}, got {B.shape}")
        return B

    def apply(self, B: np.ndarray) -> np.ndarray:
        """Gamma(B) = B C, shape (J, K + |E|)."""
        B = self._check_coef(B)
        if self._C is not None:
            return B @ self._C
        out = np.empty((B.shape[0], self.width))
        out[:, : self.n_tasks] = self.lam * B
        coef = self.gamma * self.edge_weight
        out[:, self.n_tasks :] = (B[:, self.edge_m] - self.edge_sign * B[:, self.edge_l]) * coef
        return out

    def adjoint(self, A: np.ndarray) -> np.ndarray:
        """Gamma*(A) = A C^T, mapping (J, K + |E|) back to (J, K)."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.n_inputs, self.width):
            raise ValueError(f"auxiliary matrix must have shape {(self.n_inputs, self.width)}, got {A.shape}")
        if self._C is not None:
            return A @ self._C.T
        weights = (A[:, self._gather] * self._weight).ravel()
        return np.bincount(self._scatter, weights, self.n_inputs * self.n_tasks).reshape(self.n_inputs, self.n_tasks)

    def aux_optimum(self, B: np.ndarray, mu: float) -> np.ndarray:
        """Maximizer A* = clamp(B C / mu) of <A, B C> - (mu/2) ||A||_F^2 over ||A||_inf <= 1."""
        mu = _check_mu(mu)
        G = self.apply(B)
        np.divide(G, mu, out=G)
        return np.clip(G, -1.0, 1.0, out=G)

    def gradient_map(self, mu: float) -> Callable[[np.ndarray], np.ndarray]:
        """The gradient of f_mu for one fixed mu: the map B -> adjoint(aux_optimum(B, mu)) = clamp(B C / mu) C^T.

        With the dense C the map is two BLAS products around one in-place clamp,
        with C / mu built here once, and it does not check B's shape: the caller
        owns it. Otherwise the map runs through ``aux_optimum`` and ``adjoint``.
        """
        mu = _check_mu(mu)
        if self._C is None:
            return lambda B: self.adjoint(self.aux_optimum(B, mu))
        # CovariateFusionOperator is dense only at J = 1, where its transposes are identities on the 1 x 1 B
        C_mu, C_T = self._C / mu, self._C.T

        def smoothed_gradient(B: np.ndarray) -> np.ndarray:
            G = B @ C_mu
            G.clip(-1.0, 1.0, out=G)
            return G @ C_T

        return smoothed_gradient

    def penalty_exact(self, B: np.ndarray) -> float:
        """The non-smooth penalty value ||B C||_1."""
        G = self.apply(B)
        return float(np.abs(G, out=G).sum())

    def dual_terms(self, B: np.ndarray, g_loss: np.ndarray, mu: float) -> tuple[float, float, np.ndarray, float]:
        """What the duality-gap certificate needs at the dual point A = clamp(B C / mu), from one ``apply``.

        Returns (||B C||_1, the slack ||B C||_1 - <A, B C>, the dual gradient A C^T,
        f_mu(B) = <A, B C> - (mu/2) ||A||_F^2). ``g_loss`` is unused: A depends on B alone.
        """
        mu = _check_mu(mu)
        G = self.apply(B)
        A = shrink(G / mu)
        pen, pairing = float(np.abs(G).sum()), float(np.vdot(A, G))
        return pen, pen - pairing, self.adjoint(A), pairing - 0.5 * mu * float(np.vdot(A, A))

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

    def gap_constant(self) -> float:
        """Smoothing gap constant D = J (K + |E|) / 2.

        This is the maximum of (1/2) ||A||_F^2 over ||A||_inf <= 1, attained by
        the all-ones J x (K + |E|) matrix.
        """
        return 0.5 * self.n_inputs * (self.n_tasks + self.n_edges)


class CovariateFusionOperator(FusionOperator):
    """The univariate fused model's penalty on a J x 1 column b: the 1 x J operator (n_inputs=1, n_tasks=J) on b^T."""

    def apply(self, B: np.ndarray) -> np.ndarray:
        return super().apply(B.T)

    def adjoint(self, A: np.ndarray) -> np.ndarray:
        return super().adjoint(A).T
