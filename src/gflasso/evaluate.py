"""Support-recovery ROC, prediction error, model selection, and experiments.

The experiment harness regenerates the simulation study at desk scale: for
each replicate it draws a fresh dataset, builds the output-correlation graph,
selects regularization on a train/validation split per method, refits on the
full training data, and scores support recovery (AUC) against the true
coefficients plus prediction error on an independent test set.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegenerateInputError
from .graph import EdgeWeightFn, TaskGraph, build_correlation_graph
from .models import FitResult, PenaltySpec, fit_gflasso, fit_group_l1l2, fit_lasso
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

    points: list[tuple[float, float]] = [(0.0, 0.0)]
    for theta in np.unique(scores)[::-1]:
        pred = scores > theta
        tpr = float((pred & truth).sum()) / n_pos
        fpr = float((pred & ~truth).sum()) / n_neg
        if (fpr, tpr) != points[-1]:
            points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    auc = float(np.trapezoid(ys, xs))
    return RocCurve(points=tuple(points), auc=auc)


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


def _fit_method(
    method: str,
    X: np.ndarray,
    Y: np.ndarray,
    graph: TaskGraph | None,
    lam: float,
    gamma: float,
    config: SolverConfig,
    tau: EdgeWeightFn = abs,
) -> FitResult:
    if method == "gflasso":
        if graph is None:
            raise ValueError("gflasso needs a task graph")
        return fit_gflasso(X, Y, graph, PenaltySpec(lam=lam, gamma=gamma, tau=tau), config)
    if method == "lasso":
        return fit_lasso(X, Y, PenaltySpec(lam=lam), config)
    if method == "l1l2":
        return fit_group_l1l2(X, Y, lam, config)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


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
    config: SolverConfig | None = None,
    tau: EdgeWeightFn = abs,
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
    config = config or SolverConfig()
    X_tr, X_val = X[: n - holdout], X[n - holdout :]
    Y_tr, Y_val = Y[: n - holdout], Y[n - holdout :]

    table: list[dict] = []
    for lam, gamma in grid:
        row: dict = {"lambda": float(lam), "gamma": float(gamma)}
        try:
            fit = _fit_method(method, X_tr, Y_tr, graph, lam, gamma, config, tau)
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
    final = _fit_method(method, X, Y, graph, best["lambda"], best["gamma"], config, tau)
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
    include_timing: bool = False

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
            if self.config.include_timing:
                methods_summary[m]["timing"] = {
                    "fit_s": self._stats(self.method_values(m, "fit_s")),
                    "periter_s": self._stats(self.method_values(m, "periter_s")),
                }
        replicates = []
        for rep in self.replicates:
            entry = {
                "replicate": rep["replicate"],
                "seed": rep["seed"],
                "n_edges": rep["n_edges"],
                "methods": {},
            }
            for m, vals in rep["methods"].items():
                keep = {"lambda", "gamma", "auc", "test_mse", "iterations", "converged"}
                if self.config.include_timing:
                    keep |= {"fit_s", "periter_s"}
                entry["methods"][m] = {k: vals[k] for k in sorted(keep) if k in vals}
            replicates.append(entry)
        return {
            "config": self.config.to_json_dict(),
            "methods": methods_summary,
            "wins_vs_lasso": {m: self.wins_vs_lasso(m) for m in self.config.methods if m != "lasso"},
            "replicates": replicates,
            "failures": list(self.failures),
        }


def _run_one_replicate(config: ExperimentConfig, r: int) -> tuple[dict, list[dict]]:
    seed_r = replicate_seed(config.sim.seed, r)
    spec_r = dataclasses.replace(config.sim, seed=seed_r)
    ds = simulate_dataset(spec_r)
    X_test, Y_test = simulate_test_set(spec_r, ds.truth, config.test_n)
    graph = build_correlation_graph(ds.Y, config.rho)
    rep: dict = {"replicate": r, "seed": seed_r, "n_edges": graph.n_edges, "methods": {}}
    failures: list[dict] = []
    for method in config.methods:
        if method == "gflasso":
            grid = [(l, g) for l, g in product(config.lambda_grid, config.gamma_grid)]
        else:
            grid = [(l, 0.0) for l in config.lambda_grid]
        try:
            sel = select_regularization(ds.X, ds.Y, graph, method, grid, config.holdout, config.solver)
            rep["methods"][method] = {
                "lambda": sel.lam,
                "gamma": sel.gamma,
                "auc": roc_curve(sel.fit.solution.B_hat, ds.truth.B_true).auc,
                "test_mse": prediction_error(sel.fit, X_test, Y_test),
                "iterations": sel.fit.solution.iterations,
                "converged": sel.fit.solution.converged,
                "fit_s": sel.fit.runtime_s,
                "periter_s": sel.fit.solution.runtime_periter_s,
            }
        except (ValueError, ArithmeticError) as exc:
            failures.append({"replicate": r, "method": method, "error": str(exc)})
    return rep, failures


def run_replicates(config: ExperimentConfig, max_workers: int = 1) -> ExperimentReport:
    """Run the multi-replicate experiment; deterministic given the config.

    Replicates are independent (each derives its own seed), so they may run
    on a small thread pool; results are aggregated in replicate order.
    """
    if config.n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    results: list[tuple[dict, list[dict]]]
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(lambda r: _run_one_replicate(config, r), range(config.n_replicates)))
    else:
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
    n_samples: int = 200,
    n_inputs: int = 100,
    n_outputs: int = 20,
    rho: float = 0.5,
    lam: float = 0.1,
    gamma: float = 0.1,
    methods: tuple[str, ...] = ("proxgrad",),
    config: SolverConfig | None = None,
    seed: int = 0,
) -> list[dict]:
    """Wall-time scaling sweep along one of the axes J, N, K, rho.

    Timing runs are kept sequential so measurements do not contend.
    """
    if axis not in BENCH_AXES:
        raise ValueError(f"axis must be one of {BENCH_AXES}, got {axis!r}")
    config = config or SolverConfig()
    for m in methods:
        if m not in ("proxgrad", "subgrad"):
            raise ValueError(f"unknown bench method {m!r}")
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
                Xc = ds.X - ds.X.mean(axis=0)
                Yc = ds.Y - ds.Y.mean(axis=0)
                op = FusionOperator.from_graph(graph, lam=lam, gamma=gamma, n_inputs=j)
                sol = subgradient_fit(Xc, Yc, op, max_iters=config.max_iters)
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
