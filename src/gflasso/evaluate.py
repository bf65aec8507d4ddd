"""Support-recovery ROC, prediction error, model selection, and experiments.

The experiment harness regenerates the simulation study at desk scale: for
each replicate it draws a fresh dataset, builds the output-correlation graph,
selects regularization on a train/validation split per method, refits on the
full training data, and scores support recovery (AUC) against the true
coefficients plus prediction error on an independent test set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegenerateInputError
from .graph import TaskGraph, build_correlation_graph
from .models import FitResult, PenaltySpec, center_columns, fit_gflasso, fit_group_l1l2, fit_lasso
from .simulate import SimulationSpec, replicate_seed, simulate_dataset, simulate_test_set
from .smoothing import FusionOperator
from .solver import SolverConfig, subgradient_fit

METHODS = ("gflasso", "lasso", "l1l2")
DEFAULT_GRID: tuple[float, ...] = tuple(float(v) for v in np.logspace(-3.0, 1.0, 10))


@dataclass(frozen=True)
class RocCurve:
    """ROC points sorted by false-positive rate, plus the trapezoidal AUC."""

    points: tuple[tuple[float, float], ...]
    auc: float


def roc_curve(B_hat: np.ndarray, B_true: np.ndarray) -> RocCurve:
    """Sweep a magnitude threshold over |B_hat| against the true support.

    An entry is called relevant when its magnitude strictly exceeds the
    threshold; the sweep visits every distinct magnitude, so the curve
    depends only on the ranking of |B_hat|.
    """
    B_hat = np.asarray(B_hat, dtype=float)
    B_true = np.asarray(B_true, dtype=float)
    if B_hat.shape != B_true.shape:
        raise ValueError(f"shape mismatch: {B_hat.shape} vs {B_true.shape}")
    scores = np.abs(B_hat).ravel()
    truth = B_true.ravel() != 0
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0:
        raise DegenerateInputError("true support is empty; ROC is undefined")
    if n_neg == 0:
        raise DegenerateInputError("true support covers everything; ROC is undefined")

    # One descending sort; the curve takes the cumulative counts at the end
    # of each tie block, i.e. at every threshold just below a distinct score.
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(truth[order])
    fp = np.arange(1, tp.size + 1) - tp
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    xs = np.append(0, fp[ends]) / n_neg
    ys = np.append(0, tp[ends]) / n_pos
    points = tuple(zip(xs.tolist(), ys.tolist()))
    auc = float(np.trapezoid(ys, xs))
    return RocCurve(points=points, auc=auc)


def prediction_error(fit: FitResult, X_test: np.ndarray, Y_test: np.ndarray) -> float:
    """Mean squared error over all test entries, using the centered-model prediction."""
    X_test = np.asarray(X_test, dtype=float)
    Y_test = np.asarray(Y_test, dtype=float)
    if X_test.shape[0] == 0:
        raise ValueError("test set is empty")
    pred = fit.predict(X_test)
    if pred.shape != Y_test.shape:
        raise ValueError(f"prediction shape {pred.shape} does not match Y_test {Y_test.shape}")
    return float(np.mean((Y_test - pred) ** 2))


def fit_method(
    method: str,
    X: np.ndarray,
    Y: np.ndarray,
    graph: TaskGraph | None,
    lam: float,
    gamma: float,
    config: SolverConfig,
) -> FitResult:
    """Fit one of :data:`METHODS` at (lam, gamma); lasso and l1/l2 ignore gamma and the graph.

    Both weights are validated for every method, so a bad gamma is refused even where it is unused.
    """
    spec = PenaltySpec(lam=lam, gamma=gamma)
    if method == "gflasso":
        if graph is None:
            raise ValueError("gflasso needs a task graph")
        return fit_gflasso(X, Y, graph, spec, config)
    if method == "lasso":
        return fit_lasso(X, Y, spec, config)
    if method == "l1l2":
        return fit_group_l1l2(X, Y, spec.lam, config)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def method_grid(method: str, lambdas: tuple[float, ...], gammas: tuple[float, ...]) -> list[tuple[float, float]]:
    """The (lam, gamma) points a method is selected over: gflasso crosses both axes, the others take gamma = 0."""
    if method == "gflasso":
        return list(product(lambdas, gammas))
    return [(lam, 0.0) for lam in lambdas]


def _check_grid_values(values) -> None:
    bad = [v for v in values if not 0 <= v < np.inf]
    if bad:
        raise ValueError(f"grid values must be finite and non-negative, got {bad[0]}")


@dataclass(frozen=True)
class SelectionResult:
    lam: float
    gamma: float
    table: tuple[dict, ...]
    fit: FitResult


def select_regularization(
    X: np.ndarray,
    Y: np.ndarray,
    graph: TaskGraph | None,
    method: str,
    grid: list[tuple[float, float]],
    holdout: int,
    config: SolverConfig,
) -> SelectionResult:
    """Pick (lam, gamma) by validation MSE on a deterministic tail holdout.

    The last ``holdout`` rows form the validation set. Ties in validation
    MSE break toward larger lam, then larger gamma. The returned fit is
    re-estimated on all samples at the selected values.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if not 0 < holdout < n:
        raise ValueError(f"holdout must be in (0, {n}), got {holdout}")
    if not grid:
        raise ValueError("grid is empty")
    _check_grid_values([v for point in grid for v in point])
    X_tr, X_val = X[: n - holdout], X[n - holdout :]
    Y_tr, Y_val = Y[: n - holdout], Y[n - holdout :]

    table: list[dict] = []
    for lam, gamma in grid:
        row: dict = {"lambda": float(lam), "gamma": float(gamma)}
        try:
            fit = fit_method(method, X_tr, Y_tr, graph, lam, gamma, config)
            row["val_mse"] = prediction_error(fit, X_val, Y_val)
            row["iterations"] = fit.solution.iterations
            row["converged"] = fit.solution.converged
        except (ValueError, ArithmeticError) as exc:
            row["error"] = str(exc)
        table.append(row)

    ok = [row for row in table if "val_mse" in row]
    if not ok:
        raise ValueError("every grid point failed during selection")
    best = min(ok, key=lambda row: (row["val_mse"], -row["lambda"], -row["gamma"]))
    final = fit_method(method, X, Y, graph, best["lambda"], best["gamma"], config)
    return SelectionResult(lam=best["lambda"], gamma=best["gamma"], table=tuple(table), fit=final)


@dataclass(frozen=True)
class ExperimentConfig:
    sim: SimulationSpec = field(default_factory=SimulationSpec)
    rho: float = 0.1
    methods: tuple[str, ...] = METHODS
    n_replicates: int = 10
    test_n: int = 50
    holdout: int = 30
    lambda_grid: tuple[float, ...] = DEFAULT_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GRID
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        unknown = [m for m in self.methods if m not in METHODS]
        if not self.methods or unknown:
            raise ValueError(f"methods must be a non-empty subset of {METHODS}, got {','.join(self.methods)!r}")
        if not 0 < self.holdout < self.sim.n_samples:
            raise ValueError(f"holdout must be in (0, {self.sim.n_samples}), got {self.holdout}")
        if self.test_n < 1:
            raise ValueError(f"test_n must be >= 1, got {self.test_n}")
        if self.n_replicates < 1:
            raise ValueError(f"n_replicates must be >= 1, got {self.n_replicates}")
        if not self.lambda_grid or ("gflasso" in self.methods and not self.gamma_grid):
            raise ValueError("the lambda grid, and the gamma grid when gflasso is selected, must be non-empty")
        _check_grid_values((*self.lambda_grid, *self.gamma_grid))

    def to_json_dict(self) -> dict:
        return {
            "sim": self.sim.to_json_dict(),
            "rho": self.rho,
            "methods": list(self.methods),
            "n_replicates": self.n_replicates,
            "test_n": self.test_n,
            "holdout": self.holdout,
            "lambda_grid": list(self.lambda_grid),
            "gamma_grid": list(self.gamma_grid),
            "solver": {
                "mu": self.solver.mu,
                "accuracy": self.solver.accuracy,
                "rel_obj_tol": self.solver.rel_obj_tol,
                "max_iters": self.solver.max_iters,
            },
        }


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    replicates: tuple[dict, ...]
    failures: tuple[dict, ...]

    def method_values(self, method: str, key: str) -> list[float]:
        return [rep["methods"][method][key] for rep in self.replicates if method in rep["methods"]]

    def _stats(self, values: list[float]) -> dict:
        if not values:
            return {"mean": None, "sd": None, "n": 0}
        arr = np.asarray(values, dtype=float)
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return {"mean": float(arr.mean()), "sd": sd, "n": int(arr.size)}

    def wins_vs_lasso(self, method: str) -> int:
        wins = 0
        for rep in self.replicates:
            if method in rep["methods"] and "lasso" in rep["methods"]:
                if rep["methods"][method]["auc"] >= rep["methods"]["lasso"]["auc"]:
                    wins += 1
        return wins

    def to_json_dict(self) -> dict:
        methods_summary = {}
        for m in self.config.methods:
            methods_summary[m] = {
                "auc": self._stats(self.method_values(m, "auc")),
                "test_mse": self._stats(self.method_values(m, "test_mse")),
            }
        return {
            "config": self.config.to_json_dict(),
            "methods": methods_summary,
            "wins_vs_lasso": {m: self.wins_vs_lasso(m) for m in self.config.methods if m != "lasso"},
            "replicates": list(self.replicates),
            "failures": list(self.failures),
        }


def _run_one_replicate(config: ExperimentConfig, r: int) -> tuple[dict, list[dict]]:
    seed_r = replicate_seed(config.sim.seed, r)
    spec_r = dataclasses.replace(config.sim, seed=seed_r)
    ds = simulate_dataset(spec_r)
    X_test, Y_test = simulate_test_set(spec_r, ds.B_true, config.test_n)
    graph = build_correlation_graph(ds.Y, config.rho)
    rep: dict = {"replicate": r, "seed": seed_r, "n_edges": graph.n_edges, "methods": {}}
    failures: list[dict] = []
    for method in config.methods:
        grid = method_grid(method, config.lambda_grid, config.gamma_grid)
        try:
            sel = select_regularization(ds.X, ds.Y, graph, method, grid, config.holdout, config.solver)
            rep["methods"][method] = {
                "lambda": sel.lam,
                "gamma": sel.gamma,
                "auc": roc_curve(sel.fit.solution.B_hat, ds.B_true).auc,
                "test_mse": prediction_error(sel.fit, X_test, Y_test),
                "iterations": sel.fit.solution.iterations,
                "converged": sel.fit.solution.converged,
            }
        except (ValueError, ArithmeticError) as exc:
            failures.append({"replicate": r, "method": method, "error": str(exc)})
    return rep, failures


def run_replicates(config: ExperimentConfig) -> ExperimentReport:
    """Run the multi-replicate experiment serially; deterministic given the config."""
    results = [_run_one_replicate(config, r) for r in range(config.n_replicates)]
    replicates = tuple(rep for rep, _ in results)
    failures = tuple(f for _, fs in results for f in fs)
    return ExperimentReport(config=config, replicates=replicates, failures=failures)


BENCH_CSV_HEADER = "axis,value,method,n_edges,iterations,converged,total_s,periter_s"
BENCH_AXES = ("J", "N", "K", "rho")


def _bench_spec(n_samples: int, n_inputs: int, n_outputs: int, seed: int) -> SimulationSpec:
    # near-equal output blocks; trims the support pattern for small K
    n_groups = min(3, n_outputs)
    base, extra = divmod(n_outputs, n_groups)
    sizes = tuple(base + (1 if i < extra else 0) for i in range(n_groups))
    inputs_per_group = (3, 4, 4)[:n_groups]
    return SimulationSpec(
        n_samples=n_samples,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        signal=0.8,
        noise_sd=1.0,
        seed=seed,
        group_sizes=sizes,
        inputs_per_group=inputs_per_group,
    )


def run_benchmark(
    axis: str,
    values: list[float],
    n_samples: int,
    n_inputs: int,
    n_outputs: int,
    rho: float,
    lam: float,
    gamma: float,
    methods: tuple[str, ...],
    config: SolverConfig,
    seed: int,
) -> list[dict]:
    """Wall-time scaling sweep along one of the axes J, N, K, rho.

    Timing runs are kept sequential so measurements do not contend.
    """
    if axis not in BENCH_AXES:
        raise ValueError(f"axis must be one of {BENCH_AXES}, got {axis!r}")
    if not values:
        raise ValueError("the sweep needs at least one axis value")
    unknown = [m for m in methods if m not in ("proxgrad", "subgrad")]
    if not methods or unknown:
        raise ValueError(f"bench methods must be a non-empty subset of proxgrad,subgrad, got {','.join(methods)!r}")
    rows: list[dict] = []
    for value in values:
        n, j, k, r = n_samples, n_inputs, n_outputs, rho
        if axis == "J":
            j = int(value)
        elif axis == "N":
            n = int(value)
        elif axis == "K":
            k = int(value)
        else:
            r = float(value)
        ds = simulate_dataset(_bench_spec(n, j, k, seed))
        graph = build_correlation_graph(ds.Y, r)
        for method in methods:
            if method == "proxgrad":
                fit = fit_gflasso(ds.X, ds.Y, graph, PenaltySpec(lam=lam, gamma=gamma), config)
                sol = fit.solution
            else:
                Xc, _ = center_columns(ds.X)
                Yc, _ = center_columns(ds.Y)
                op = FusionOperator.from_graph(graph, lam=lam, gamma=gamma, n_inputs=j)
                sol = subgradient_fit(Xc, Yc, config, op)
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "method": method,
                    "n_edges": graph.n_edges,
                    "iterations": sol.iterations,
                    "converged": sol.converged,
                    "total_s": sol.runtime_total_s,
                    "periter_s": sol.runtime_periter_s,
                }
            )
    return rows


def benchmark_csv_text(rows: list[dict]) -> str:
    lines = [BENCH_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row['axis']},{format(float(row['value']), '.17g')},{row['method']},{row['n_edges']},"
            f"{row['iterations']},{row['converged']},{row['total_s']:.6g},{row['periter_s']:.6g}"
        )
    return "\n".join(lines) + "\n"
