"""Estimator front-ends: graph-fused, lasso, row-group l1/l2, univariate fused.

Each model is a thin front-end to :func:`solver.solve` that builds its own
penalty object. The graph-fused and univariate fused (a graph over the
covariates of a J x 1 column) models pass the paper's fusion operator, which
``solve`` splits into lam * ||B||_1, run through its exact prox, and the fusion
term, the one part it may smooth. Lasso (width 1) and l1/l2 (width K) pass a
:class:`GroupNorm`.

Every fit entry point takes the data as one :class:`solver.Moments`, whose
``from_data`` centers the raw arrays and keeps their column means, and an
optional ``start`` point that it passes to ``solve`` (model selection
warm-starts its fits with it). The result carries the means, so predictions
for new data are (X_new - x_mean) @ B_hat + y_mean. Models carry no intercept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import TaskGraph, sign
from .smoothing import CovariateFusionOperator, FusionOperator, GroupNorm
from .solver import Moments, Solution, SolverConfig, solve


@dataclass(frozen=True)
class PenaltySpec:
    """Regularization weights; gamma is ignored by the lasso and l1/l2 models."""

    lam: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.lam < np.inf and 0 <= self.gamma < np.inf):
            raise ValueError(f"lam and gamma must be finite and non-negative, got lam={self.lam}, gamma={self.gamma}")


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
            **s.certificate(),
            "objective": s.objective_exact,
            "mu": s.mu_used,
            "lipschitz_bound": s.lipschitz_used,
        }


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


def _fit(kind: str, data: Moments, graph: TaskGraph | None, spec: PenaltySpec, config: SolverConfig,
         penalty: FusionOperator | GroupNorm, start: np.ndarray | None) -> FitResult:
    # Solves from start and records the means and graph, (K, 0, None) without one; solve refuses a graph of the
    # wrong size and a start of the wrong shape.
    t0 = time.perf_counter()
    solution = solve(data, config, penalty, start)
    summary = (data.XtY.shape[1], 0, None) if graph is None else (graph.node_count, graph.n_edges, graph.threshold)
    return FitResult(
        solution=solution,
        model_kind=kind,
        penalty=spec,
        graph_summary=summary,
        x_mean=data.x_mean,
        y_mean=data.y_mean,
        runtime_s=time.perf_counter() - t0,
    )


def fit_gflasso(data: Moments, graph: TaskGraph, spec: PenaltySpec, config: SolverConfig,
                start: np.ndarray | None = None) -> FitResult:
    """Fit the graph-fused multi-task model over the given task graph."""
    penalty = FusionOperator.from_graph(graph, spec.lam, spec.gamma, data.XtY.shape[0])
    return _fit("gflasso", data, graph, spec, config, penalty, start)


def fit_lasso(data: Moments, spec: PenaltySpec, config: SolverConfig, start: np.ndarray | None = None) -> FitResult:
    """Entrywise-l1 multi-task fit: the width-1 group norm, run unsmoothed through its soft threshold."""
    return _fit("lasso", data, None, PenaltySpec(lam=spec.lam), config, GroupNorm(spec.lam, 1), start)


def fit_group_l1l2(data: Moments, lam: float, config: SolverConfig, start: np.ndarray | None = None) -> FitResult:
    """Row-grouped l1/l2 multi-task fit: the width-K group norm, run unsmoothed through its rowwise shrink."""
    return _fit("group_l1l2", data, None, PenaltySpec(lam=lam), config, GroupNorm(lam, data.XtY.shape[1]), start)


def fit_fused_univariate(data: Moments, graph: TaskGraph, lam: float, gamma: float, config: SolverConfig,
                         start: np.ndarray | None = None) -> FitResult:
    """Univariate-response fused fit with the fusion graph over the covariates.

    ``data`` has a single response column, and :class:`smoothing.CovariateFusionOperator`
    puts the graph on the rows of the J x 1 coefficients; a chain graph with unit
    weights reproduces the classic adjacent-difference fused penalty.
    """
    if data.XtY.shape[1] != 1:
        raise ValueError(f"the univariate fused model needs a single-column response, got {data.XtY.shape[1]} columns")
    penalty = CovariateFusionOperator.from_graph(graph, lam, gamma, 1)
    spec = PenaltySpec(lam=lam, gamma=gamma)
    return _fit("fused_univariate", data, graph, spec, config, penalty, start)
