"""Structured sparse multi-task regression with graph-guided coefficient fusion.

The estimator couples an entrywise l1 penalty with a fusion penalty along the
edges of a task-correlation graph, and is solved by an accelerated
proximal-gradient method: the l1 penalty through its exact proximal map, the
fusion penalty through a smooth surrogate, or, where smoothing would shrink
the step most, through a primal-dual loop that keeps it exact.
Companion baselines (lasso, row-grouped l1/l2, univariate fused regression),
a synthetic-data benchmark harness, and a CLI round out the package.
"""

__version__ = "0.1.0"

from .errors import DegenerateInputError, NumericError
from .graph import TaskGraph, build_correlation_graph, chain_graph
from .models import (
    FitResult,
    PenaltySpec,
    fit_fused_univariate,
    fit_gflasso,
    fit_group_l1l2,
    fit_lasso,
    objective_gflasso,
)
from .simulate import Dataset, SimulationSpec, simulate_dataset
from .smoothing import FusionOperator, shrink
from .solver import Moments, Solution, SolverConfig, subgradient_fit

__all__ = [
    "DegenerateInputError",
    "NumericError",
    "TaskGraph",
    "build_correlation_graph",
    "chain_graph",
    "FitResult",
    "PenaltySpec",
    "fit_fused_univariate",
    "fit_gflasso",
    "fit_group_l1l2",
    "fit_lasso",
    "objective_gflasso",
    "Dataset",
    "SimulationSpec",
    "simulate_dataset",
    "FusionOperator",
    "shrink",
    "Moments",
    "Solution",
    "SolverConfig",
    "subgradient_fit",
]
