"""Estimator front-ends: graph-fused, lasso, row-group l1/l2, univariate fused.

Each model is a thin front-end to :func:`solver.solve` that builds its own
penalty object: the graph-fused, lasso (an edgeless graph) and univariate
fused (a graph over the covariates, solved as one row) models pass a fusion
operator for the smoothed penalty, and the l1/l2 model passes a
:class:`RowGroupNorm`, whose exact rowwise proximal map the solver uses.
Both penalty objects give the solver's certificate its terms (``dual_terms``).

Every fit entry point centers X and Y internally (column means removed) and
stores the means on the result, so predictions for new data can be formed as
(X_new - x_mean) @ B_hat + y_mean. Models carry no intercept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import TaskGraph, sign
from .smoothing import FusionOperator
from .solver import Solution, SolverConfig, solve


@dataclass(frozen=True)
class PenaltySpec:
    """Regularization weights; gamma is ignored by the lasso and l1/l2 models."""

    lam: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.lam < np.inf and 0 <= self.gamma < np.inf):
            raise ValueError(f"lam and gamma must be finite and non-negative, got lam={self.lam}, gamma={self.gamma}")


@dataclass(frozen=True)
class RowGroupNorm:
    """The row-grouped l1/l2 penalty lam * sum_j ||B_j||_2 over the rows B_j of B."""

    lam: float

    def __post_init__(self) -> None:
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam and gamma must be finite and non-negative, got lam={self.lam}")

    def penalty_exact(self, B: np.ndarray) -> float:
        return self.lam * float(np.linalg.norm(B, axis=1).sum())

    def prox(self, V: np.ndarray, step: float) -> np.ndarray:
        """Proximal map of step * penalty, a rowwise shrink: row <- max(0, 1 - lam * step / ||row||) * row."""
        norms = np.linalg.norm(V, axis=1)
        scale = np.zeros_like(norms)
        nz = norms > 0
        scale[nz] = np.maximum(0.0, 1.0 - self.lam * step / norms[nz])
        return V * scale[:, None]

    def dual_terms(self, B: np.ndarray, g_loss: np.ndarray, mu: float) -> tuple[float, float, np.ndarray, float]:
        """The certificate's terms at the dual point A: the rows of -g_loss projected onto the lam-ball.

        Returns (penalty, penalty - <A, B>, A, penalty), the layout of
        ``FusionOperator.dual_terms``; the penalty runs unsmoothed, so ``mu`` is unused.
        """
        norms = np.linalg.norm(g_loss, axis=1, keepdims=True)
        A = -g_loss * np.divide(self.lam, norms, out=np.ones_like(norms), where=norms > self.lam)
        pen = self.penalty_exact(B)
        return pen, pen - float(np.vdot(A, B)), A, pen


@dataclass(frozen=True)
class FitResult:
    solution: Solution
    model_kind: str
    penalty: PenaltySpec
    graph_summary: tuple[int, int, float | None]  # (nodes, edges, construction threshold)
    x_mean: np.ndarray
    y_mean: np.ndarray
    runtime_s: float

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        X_new = np.asarray(X_new, dtype=float)
        if X_new.ndim != 2 or X_new.shape[1] != self.x_mean.shape[0]:
            raise ValueError(f"X_new must have {self.x_mean.shape[0]} columns, got shape {X_new.shape}")
        return (X_new - self.x_mean) @ self.solution.B_hat + self.y_mean

    def to_json_dict(self) -> dict:
        """Metadata for serialization. Wall-clock fields are deliberately
        excluded so artifacts are byte-identical across reruns."""
        s = self.solution
        nodes, edges, rho = self.graph_summary
        return {
            "model": self.model_kind,
            "lambda": self.penalty.lam,
            "gamma": self.penalty.gamma,
            "rho": rho,
            "graph_nodes": nodes,
            "graph_edges": edges,
            "iterations": s.iterations,
            "converged": s.converged,
            "stop_reason": s.stop_reason,
            "gap": s.gap,
            "objective": s.objective_exact,
            "mu": s.mu_used,
            "lipschitz_bound": s.lipschitz_used,
        }


def center_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (column-centered copy, column means)."""
    M = np.asarray(M, dtype=float)
    mean = M.mean(axis=0)
    return M - mean, mean


def objective_gflasso(X: np.ndarray, Y: np.ndarray, B: np.ndarray, graph: TaskGraph, spec: PenaltySpec) -> float:
    """Exact objective value, summed straight from the edge list.

    This path is independent of the fusion-operator machinery and exists so
    the two can be cross-checked.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    B = np.asarray(B, dtype=float)
    if X.shape[0] != Y.shape[0] or B.shape != (X.shape[1], Y.shape[1]):
        raise ValueError(f"incompatible shapes X {X.shape}, Y {Y.shape}, B {B.shape}")
    resid = Y - X @ B
    total = 0.5 * float(np.vdot(resid, resid)) + spec.lam * float(np.abs(B).sum())
    for m, l, r in graph.edges:
        total += spec.gamma * abs(r) * float(np.abs(B[:, m - 1] - sign(r) * B[:, l - 1]).sum())
    return total


def _fit(
    kind: str, X: np.ndarray, Y: np.ndarray, graph: TaskGraph, spec: PenaltySpec, config: SolverConfig,
    penalty: FusionOperator | RowGroupNorm,
) -> FitResult:
    # Centers, checks that ``graph`` has a node per task (per covariate when a
    # 1-d Y lays the model out as one row), solves and records the means.
    t0 = time.perf_counter()
    Xc, x_mean = center_columns(X)
    Yc, y_mean = center_columns(Y)
    n_nodes = Xc.shape[1] if Yc.ndim == 1 else Yc.shape[1]
    if graph.node_count != n_nodes:
        raise ValueError(f"graph has {graph.node_count} nodes but the model needs {n_nodes}")
    solution = solve(Xc, Yc, config, penalty)
    return FitResult(
        solution=solution,
        model_kind=kind,
        penalty=spec,
        graph_summary=(graph.node_count, graph.n_edges, graph.threshold),
        x_mean=x_mean,
        y_mean=np.atleast_1d(y_mean),
        runtime_s=time.perf_counter() - t0,
    )


def _fusion_operator(graph: TaskGraph, lam: float, gamma: float, n_inputs: int) -> FusionOperator:
    # at gamma = 0 the edge columns of C are zero: left out, they cost no work and do not widen the gap floor mu * D
    return FusionOperator.from_graph(graph if gamma > 0 else TaskGraph(graph.node_count), lam, gamma, n_inputs)


def fit_gflasso(X: np.ndarray, Y: np.ndarray, graph: TaskGraph, spec: PenaltySpec, config: SolverConfig) -> FitResult:
    """Fit the graph-fused multi-task model over the given task graph."""
    op = _fusion_operator(graph, spec.lam, spec.gamma, np.shape(X)[1])
    return _fit("gflasso", X, Y, graph, spec, config, op)


def fit_lasso(X: np.ndarray, Y: np.ndarray, spec: PenaltySpec, config: SolverConfig) -> FitResult:
    """Entrywise-l1 multi-task fit; the edgeless special case of the fused model."""
    empty = TaskGraph(node_count=np.shape(Y)[1])
    op = FusionOperator.from_graph(empty, lam=spec.lam, gamma=0.0, n_inputs=np.shape(X)[1])
    return _fit("lasso", X, Y, empty, PenaltySpec(lam=spec.lam), config, op)


def fit_group_l1l2(X: np.ndarray, Y: np.ndarray, lam: float, config: SolverConfig) -> FitResult:
    """Row-grouped l1/l2 multi-task fit.

    The penalty lam * sum_j ||beta_row_j||_2 has an exact proximal step (a
    rowwise shrink), so it runs unsmoothed in the composite form of the
    shared accelerated loop.
    """
    spec = PenaltySpec(lam=lam, gamma=0.0)
    return _fit("group_l1l2", X, Y, TaskGraph(node_count=np.shape(Y)[1]), spec, config, RowGroupNorm(lam))


def fit_fused_univariate(
    X: np.ndarray, y: np.ndarray, input_graph: TaskGraph, lam: float, gamma: float, config: SolverConfig
) -> FitResult:
    """Univariate-response fused fit with the fusion graph over the covariates.

    The coefficient vector is handled as a single-row matrix so the same
    operator and loop drive this model; a chain graph with unit weights
    reproduces the classic adjacent-difference fused penalty.
    """
    y = np.asarray(y, dtype=float).ravel()
    op = _fusion_operator(input_graph, lam, gamma, 1)
    return _fit("fused_univariate", X, y, input_graph, PenaltySpec(lam=lam, gamma=gamma), config, op)
