"""Command-line interface binding the library to CSV/JSON files.

Commands: simulate, fit, cv, bench, report. Exit codes: 0 success,
2 usage or input error, 3 fit stopped at the iteration cap without
converging, 4 internal numeric error. Every command writes a manifest.json
recording the resolved arguments, input digests, and artifact paths; all
files are written atomically so failures leave no partial outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import DegenerateInputError, NumericError
from .evaluate import (
    BENCH_AXES,
    DEFAULT_GRID,
    ExperimentConfig,
    benchmark_csv_text,
    run_benchmark,
    run_replicates,
    select_regularization,
)
from .fileio import (
    atomic_write_text,
    default_headers,
    read_matrix_csv,
    sha256_file,
    write_json,
    write_matrix_csv,
)
from .graph import build_correlation_graph, chain_graph, load_edge_list, save_edge_list
from .models import PenaltySpec, fit_fused_univariate, fit_gflasso, fit_group_l1l2, fit_lasso
from .simulate import SimulationSpec, save_dataset, simulate_dataset
from .solver import SolverConfig, write_trace_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERIC = 4


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _require_out_dir(path: str) -> None:
    if not os.path.isdir(path):
        raise ValueError(f"output directory does not exist: {path}")


def _config_digest(args: dict) -> str:
    return hashlib.sha256(json.dumps(args, sort_keys=True).encode()).hexdigest()


def _write_manifest(out_dir: str, command: str, args: dict, inputs: list[str], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "args": args,
        "config_digest": _config_digest(args),
        "inputs": {os.path.basename(p): sha256_file(p) for p in inputs},
        "outputs": sorted(outputs),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _solver_config(ns: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        mu=ns.mu,
        accuracy=getattr(ns, "accuracy", None),
        rel_obj_tol=ns.tol,
        max_iters=ns.max_iters,
        record_trace=getattr(ns, "trace", False),
    )


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=1e-4, help="smoothing parameter (default 1e-4)")
    p.add_argument(
        "--accuracy",
        type=float,
        default=None,
        help="target accuracy eps; when set, mu = eps / (2 D) overrides --mu",
    )
    p.add_argument("--tol", type=float, default=1e-6, help="relative objective-change stopping tolerance")
    p.add_argument("--max-iters", type=int, default=50000)


def cmd_simulate(ns: argparse.Namespace) -> int:
    _require_out_dir(ns.out_dir)
    spec = SimulationSpec(
        n_samples=ns.n_samples,
        n_inputs=ns.n_inputs,
        n_outputs=ns.n_outputs,
        signal=ns.signal,
        noise_sd=ns.noise_sd,
        seed=ns.seed,
        group_sizes=ns.group_sizes,
        inputs_per_group=ns.inputs_per_group,
    )
    ds = simulate_dataset(spec)
    save_dataset(ns.out_dir, ds)
    _write_manifest(
        ns.out_dir,
        "simulate",
        spec.to_json_dict(),
        inputs=[],
        outputs=["X.csv", "Y.csv", "B_true.csv", "spec.json"],
    )
    return EXIT_OK


def _load_xy(ns: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    X, _ = read_matrix_csv(ns.x)
    Y, _ = read_matrix_csv(ns.y)
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"{ns.x} has {X.shape[0]} rows but {ns.y} has {Y.shape[0]}")
    return X, Y


def cmd_fit(ns: argparse.Namespace) -> int:
    _require_out_dir(ns.out_dir)
    X, Y = _load_xy(ns)
    config = _solver_config(ns)
    outputs = ["B_hat.csv", "fit.json"]
    graph = None
    if ns.method == "gflasso":
        graph = build_correlation_graph(Y, ns.rho)
        fit = fit_gflasso(X, Y, graph, PenaltySpec(lam=ns.lam, gamma=ns.gamma), config)
    elif ns.method == "lasso":
        fit = fit_lasso(X, Y, PenaltySpec(lam=ns.lam), config)
    elif ns.method == "l1l2":
        fit = fit_group_l1l2(X, Y, ns.lam, config)
    else:  # fused
        if Y.shape[1] != 1:
            raise ValueError(f"method=fused needs a single-column response, got {Y.shape[1]} columns")
        if ns.input_graph is not None:
            input_graph = load_edge_list(ns.input_graph, node_count=X.shape[1])
        else:
            input_graph = chain_graph(X.shape[1])
        fit = fit_fused_univariate(X, Y[:, 0], input_graph, ns.lam, ns.gamma, config)

    write_matrix_csv(
        os.path.join(ns.out_dir, "B_hat.csv"),
        fit.solution.B_hat,
        default_headers("y", fit.solution.B_hat.shape[1]),
    )
    write_json(os.path.join(ns.out_dir, "fit.json"), fit.to_json_dict())
    if graph is not None:
        save_edge_list(graph, os.path.join(ns.out_dir, "graph.csv"))
        outputs.append("graph.csv")
    if ns.trace:
        write_trace_csv(fit.solution, os.path.join(ns.out_dir, "trace.csv"))
        outputs.append("trace.csv")
    args = {
        "method": ns.method,
        "x": os.path.abspath(ns.x),
        "y": os.path.abspath(ns.y),
        "rho": ns.rho,
        "lambda": ns.lam,
        "gamma": ns.gamma,
        "mu": ns.mu,
        "accuracy": ns.accuracy,
        "tol": ns.tol,
        "max_iters": ns.max_iters,
        "input_graph": os.path.abspath(ns.input_graph) if ns.input_graph else None,
        "trace": ns.trace,
    }
    inputs = [ns.x, ns.y] + ([ns.input_graph] if ns.input_graph else [])
    _write_manifest(ns.out_dir, "fit", args, inputs=inputs, outputs=outputs)
    return EXIT_OK if fit.solution.converged else EXIT_NOT_CONVERGED


def cmd_cv(ns: argparse.Namespace) -> int:
    _require_out_dir(ns.out_dir)
    X, Y = _load_xy(ns)
    if ns.holdout >= X.shape[0]:
        raise ValueError(f"holdout {ns.holdout} must be smaller than the sample count {X.shape[0]}")
    config = _solver_config(ns)
    graph = build_correlation_graph(Y, ns.rho) if ns.method == "gflasso" else None
    if ns.method == "gflasso":
        grid = [(l, g) for l in ns.lambdas for g in ns.gammas]
    else:
        grid = [(l, 0.0) for l in ns.lambdas]
    sel = select_regularization(X, Y, graph, ns.method, grid, ns.holdout, config)
    cv_doc = {
        "method": ns.method,
        "selected": {"lambda": sel.lam, "gamma": sel.gamma},
        "holdout": ns.holdout,
        "table": list(sel.table),
        "final_fit": sel.fit.to_json_dict(),
    }
    write_json(os.path.join(ns.out_dir, "cv.json"), cv_doc)
    write_matrix_csv(
        os.path.join(ns.out_dir, "B_hat.csv"),
        sel.fit.solution.B_hat,
        default_headers("y", sel.fit.solution.B_hat.shape[1]),
    )
    args = {
        "method": ns.method,
        "x": os.path.abspath(ns.x),
        "y": os.path.abspath(ns.y),
        "rho": ns.rho,
        "lambdas": list(ns.lambdas),
        "gammas": list(ns.gammas),
        "holdout": ns.holdout,
        "mu": ns.mu,
        "accuracy": ns.accuracy,
        "tol": ns.tol,
        "max_iters": ns.max_iters,
    }
    _write_manifest(ns.out_dir, "cv", args, inputs=[ns.x, ns.y], outputs=["cv.json", "B_hat.csv"])
    return EXIT_OK if sel.fit.solution.converged else EXIT_NOT_CONVERGED


def cmd_bench(ns: argparse.Namespace) -> int:
    _require_out_dir(ns.out_dir)
    methods = tuple(m.strip() for m in ns.methods.split(",") if m.strip())
    config = SolverConfig(mu=ns.mu, rel_obj_tol=ns.tol, max_iters=ns.max_iters)
    rows = run_benchmark(
        ns.axis,
        list(ns.values),
        n_samples=ns.n_samples,
        n_inputs=ns.n_inputs,
        n_outputs=ns.n_outputs,
        rho=ns.rho,
        lam=ns.lam,
        gamma=ns.gamma,
        methods=methods,
        config=config,
        seed=ns.seed,
    )
    atomic_write_text(os.path.join(ns.out_dir, "bench.csv"), benchmark_csv_text(rows))
    args = {
        "axis": ns.axis,
        "values": list(ns.values),
        "n_samples": ns.n_samples,
        "n_inputs": ns.n_inputs,
        "n_outputs": ns.n_outputs,
        "rho": ns.rho,
        "lambda": ns.lam,
        "gamma": ns.gamma,
        "methods": list(methods),
        "mu": ns.mu,
        "tol": ns.tol,
        "max_iters": ns.max_iters,
        "seed": ns.seed,
    }
    _write_manifest(ns.out_dir, "bench", args, inputs=[], outputs=["bench.csv"])
    return EXIT_OK


def cmd_report(ns: argparse.Namespace) -> int:
    _require_out_dir(ns.out_dir)
    sim = SimulationSpec(
        n_samples=ns.n_samples,
        n_inputs=ns.n_inputs,
        n_outputs=ns.n_outputs,
        signal=ns.signal,
        noise_sd=ns.noise_sd,
        seed=ns.seed,
        group_sizes=ns.group_sizes,
        inputs_per_group=ns.inputs_per_group,
    )
    config = ExperimentConfig(
        sim=sim,
        rho=ns.rho,
        methods=tuple(m.strip() for m in ns.methods.split(",") if m.strip()),
        n_replicates=ns.replicates,
        test_n=ns.test_n,
        holdout=ns.holdout,
        lambda_grid=ns.lambdas,
        gamma_grid=ns.gammas,
        solver=SolverConfig(mu=ns.mu, rel_obj_tol=ns.tol, max_iters=ns.max_iters),
    )
    report = run_replicates(config)
    write_json(os.path.join(ns.out_dir, "report.json"), report.to_json_dict())
    _write_manifest(ns.out_dir, "report", config.to_json_dict(), inputs=[], outputs=["report.json"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gflasso", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset (X.csv, Y.csv, B_true.csv, spec.json)")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--n-samples", type=int, default=100)
    p_sim.add_argument("--n-inputs", type=int, default=30)
    p_sim.add_argument("--n-outputs", type=int, default=10)
    p_sim.add_argument("--signal", type=float, default=0.8, help="value of every non-zero true coefficient")
    p_sim.add_argument("--noise-sd", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--group-sizes", type=_int_list, default=(3, 3, 4))
    p_sim.add_argument("--inputs-per-group", type=_int_list, default=(3, 4, 4))
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one model to X.csv/Y.csv and write B_hat.csv + fit.json")
    p_fit.add_argument("--method", choices=("gflasso", "lasso", "l1l2", "fused"), required=True)
    p_fit.add_argument("--x", required=True, help="input matrix CSV")
    p_fit.add_argument("--y", required=True, help="output matrix CSV (single column for method=fused)")
    p_fit.add_argument("--out-dir", required=True)
    p_fit.add_argument(
        "--rho",
        type=float,
        default=0.1,
        help="graph threshold on |correlation|, strict; edges at exactly rho are excluded "
        "(studied values: 0.1, 0.3, 0.5, 0.7)",
    )
    p_fit.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p_fit.add_argument("--gamma", type=float, default=0.1)
    p_fit.add_argument(
        "--input-graph",
        default=None,
        help="edge-list CSV (m,l,r) over the covariates for method=fused; default is a chain",
    )
    p_fit.add_argument("--trace", action="store_true", help="also write per-iteration trace.csv")
    _add_solver_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_cv = sub.add_parser("cv", help="select lambda/gamma on a tail holdout and refit on all samples")
    p_cv.add_argument("--method", choices=("gflasso", "lasso", "l1l2"), required=True)
    p_cv.add_argument("--x", required=True)
    p_cv.add_argument("--y", required=True)
    p_cv.add_argument("--out-dir", required=True)
    p_cv.add_argument("--rho", type=float, default=0.1)
    p_cv.add_argument("--lambdas", type=_float_list, default=DEFAULT_GRID)
    p_cv.add_argument("--gammas", type=_float_list, default=DEFAULT_GRID)
    p_cv.add_argument("--holdout", type=int, default=30, help="validation rows taken from the end")
    p_cv.set_defaults(trace=False)
    _add_solver_flags(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_bench = sub.add_parser("bench", help="wall-time scaling sweep along one axis; writes bench.csv")
    p_bench.add_argument("--axis", choices=BENCH_AXES, required=True)
    p_bench.add_argument("--values", type=_float_list, required=True, help="comma-separated axis values")
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--n-samples", type=int, default=200)
    p_bench.add_argument("--n-inputs", type=int, default=100)
    p_bench.add_argument("--n-outputs", type=int, default=20)
    p_bench.add_argument("--rho", type=float, default=0.5)
    p_bench.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p_bench.add_argument("--gamma", type=float, default=0.1)
    p_bench.add_argument("--methods", default="proxgrad", help="comma-separated: proxgrad,subgrad")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--mu", type=float, default=1e-4)
    p_bench.add_argument("--tol", type=float, default=1e-6)
    p_bench.add_argument("--max-iters", type=int, default=2000)
    p_bench.set_defaults(func=cmd_bench)

    p_rep = sub.add_parser("report", help="multi-replicate simulate/select/fit/score experiment; writes report.json")
    p_rep.add_argument("--out-dir", required=True)
    p_rep.add_argument("--n-samples", type=int, default=100)
    p_rep.add_argument("--n-inputs", type=int, default=30)
    p_rep.add_argument("--n-outputs", type=int, default=10)
    p_rep.add_argument("--signal", type=float, default=0.8)
    p_rep.add_argument("--noise-sd", type=float, default=1.0)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--group-sizes", type=_int_list, default=(3, 3, 4))
    p_rep.add_argument("--inputs-per-group", type=_int_list, default=(3, 4, 4))
    p_rep.add_argument("--rho", type=float, default=0.1)
    p_rep.add_argument("--methods", default="gflasso,lasso,l1l2")
    p_rep.add_argument("--replicates", type=int, default=10)
    p_rep.add_argument("--test-n", type=int, default=50)
    p_rep.add_argument("--holdout", type=int, default=30)
    p_rep.add_argument("--lambdas", type=_float_list, default=DEFAULT_GRID)
    p_rep.add_argument("--gammas", type=_float_list, default=DEFAULT_GRID)
    # Ignored: replicates run serially. Kept parseable only because the
    # perfbench report_paper workload still passes --threads 1.
    p_rep.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    p_rep.add_argument("--mu", type=float, default=1e-4)
    p_rep.add_argument("--tol", type=float, default=1e-6)
    p_rep.add_argument("--max-iters", type=int, default=50000)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return ns.func(ns)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DegenerateInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
