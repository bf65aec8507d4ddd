"""Smooth approximation of the combined l1 + graph-fusion penalty.

The penalty lam * ||B||_1 + gam * sum_e |r_e| * sum_j |b_jm - sign(r_e) b_jl|
equals ||B C||_1 for the block operator C = (lam * I, gam * H), with H the
signed incidence matrix of the task graph. Writing the l1 norm through its
dual gives a max over auxiliary matrices A with ||A||_inf <= 1; subtracting
(mu/2) * ||A||_F^2 from the max yields a smooth lower bound whose gap is at
most mu * D with D = J * (K + |E|) / 2. The maximizing A has the closed form
clamp(B C / mu), which makes both the smoothed value and its gradient
adjoint(A*) cheap; the same A is the dual point of the solver's duality-gap
certificate (``dual_terms``). D and the norm bound of B -> B C are defined
here alone (``gap_constant``, ``norm_bound``); ``solver.solve`` derives mu
and L from them.

The operator holds C in one of two forms, chosen by its own shape alone.
When K <= J it builds the dense K x (K + |E|) matrix C once, so apply, adjoint
and the exact penalty are single BLAS products (B C, A C^T). The rule keeps C
no larger than the J x (K + |E|) auxiliary matrix every iteration already
holds. When K > J (the 1 x J row layout of the univariate fused model is the
common case) a dense C would outweigh the products it replaces, so the
operator works on the edge arrays instead: column gathers for B C and one
``np.bincount`` scatter for A C^T, at O(J*K + J*|E|) per application.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.n_edges:
            out[:, self.n_tasks :] = (B[:, self.edge_m] - self.edge_sign * B[:, self.edge_l]) * (
                self.gamma * self.edge_weight
            )
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
        """sqrt(lam^2 + 2 gamma^2 max_k d_k), an upper bound on sigma_max(C); lam when there are no edges."""
        max_d = float(self.degrees().max())
        return float(np.sqrt(self.lam**2 + 2.0 * self.gamma**2 * max_d))

    def gap_constant(self) -> float:
        """Smoothing gap constant D = J (K + |E|) / 2.

        This is the maximum of (1/2) ||A||_F^2 over ||A||_inf <= 1, attained by
        the all-ones J x (K + |E|) matrix.
        """
        return 0.5 * self.n_inputs * (self.n_tasks + self.n_edges)
