"""Command-line interface binding the library to CSV/JSON files.

Commands: simulate, fit, cv, bench, report. Every model fit goes through
evaluate.fit_method, and a graph is read or built only for a model that has one.
Exit codes: 0 success, 2 usage or input error (lambda = 0 on a singular X^T X
among them), 3 the fit hit the iteration cap before its duality gap certified it,
4 internal numeric error. Every command renders all of its files first, then
writes each one atomically, and writes manifest.json (the resolved arguments,
input digests and artifact names) last. The arguments of fit, cv and bench are
every parsed flag but --out-dir, under its long name; simulate records its
SimulationSpec and report its ExperimentConfig. A command that fails, also on a
non-finite value in a flag its method ignores, writes nothing; only an OS error
during the writes can leave earlier files behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DegenerateInputError, NumericError
from .evaluate import (
    BENCH_AXES,
    FIT_METHODS,
    METHODS,
    ExperimentConfig,
    HoldoutSplit,
    benchmark_csv_text,
    fit_method,
    method_grid,
    run_benchmark,
    run_replicates,
    select_regularization,
)
from .fileio import atomic_write_text, default_headers, json_text, matrix_csv_text, read_matrix_csv, sha256_file
from .graph import TaskGraph, build_correlation_graph, chain_graph, edge_list_text, load_edge_list
from .models import FitResult
from .simulate import SimulationSpec, simulate_dataset
from .solver import PRIMAL_DUAL_RHO, STEP_RATIO, Moments, SolverConfig, trace_csv_text

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERIC = 4


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip() != "")


def _require_out_dir(path: str) -> None:
    if not os.path.isdir(path):
        raise ValueError(f"output directory does not exist: {path}")


def _config_digest(args: dict) -> str:
    return hashlib.sha256(json.dumps(args, sort_keys=True).encode()).hexdigest()


def _flag_args(ns: argparse.Namespace) -> dict:
    """The manifest args of fit, cv and bench: every parsed flag but --out-dir, input paths made absolute."""
    args = {("lambda" if k == "lam" else k): v for k, v in vars(ns).items() if k not in ("command", "func", "out_dir")}
    return {k: os.path.abspath(v) if k in ("x", "y", "input_graph") and v is not None else v for k, v in args.items()}


def _check_finite(args: dict) -> None:
    """Name the flag of a non-finite float; json_text would refuse it without saying which."""
    for key, value in args.items():
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"--{key.replace('_', '-')} must be finite, got {v}")


def _write_outputs(out_dir: str, command: str, args: dict, inputs: list[str], artifacts: dict[str, str]) -> None:
    """Render the manifest over ``{file name: text}``, then write every file atomically, the manifest last."""
    _check_finite(args)
    manifest = {
        "command": command,
        "version": __version__,
        "args": args,
        "config_digest": _config_digest(args),
        "inputs": {os.path.basename(p): sha256_file(p) for p in inputs},
        "outputs": sorted(artifacts),
    }
    for name, text in {**artifacts, "manifest.json": json_text(manifest)}.items():
        atomic_write_text(os.path.join(out_dir, name), text)


def _solver_config(ns: argparse.Namespace) -> SolverConfig:
    # bench and report have no --accuracy or --trace
    return SolverConfig(
        mu=ns.mu,
        accuracy=getattr(ns, "accuracy", None),
        rel_obj_tol=ns.tol,
        max_iters=ns.max_iters,
        record_trace=getattr(ns, "trace", False),
    )


def _add_solver_flags(p: argparse.ArgumentParser, max_iters: int, accuracy: bool) -> None:
    p.add_argument("--mu", type=float, default=SolverConfig.mu,
                   help="fits with a fusion term stop at the gap floor mu * D, D = J |E| / 2, and smooth the term "
                   "with mu unless they take the primal-dual loop (nonsingular X^T X and rho = 2 gamma^2 max_k d_k / "
                   f"(mu lam_max(X^T X)) > {PRIMAL_DUAL_RHO:g}, the degree bound on ||gamma H||^2, with per-edge steps "
                   f"sigma_e = r / sum_k |C_ke| and step ratio r = {STEP_RATIO:g}); lambda is never smoothed "
                   "(default %(default)s)")
    if accuracy:
        p.add_argument("--accuracy", type=float, default=None,
                       help="target accuracy eps of fits with a fusion term: mu = eps / (2 D), D = J |E| / 2 over "
                       "the fusion columns alone, overrides --mu, so the gap floor mu * D is eps / 2 in either loop")
    p.add_argument("--tol", type=float, default=SolverConfig.rel_obj_tol,
                   help="stop at duality gap <= max(tol * |objective|, mu * D), with the floor mu * D, D = J |E| / 2, "
                   "only in fits with a fusion term, smoothed or primal-dual; the gap is checked at iteration 10, "
                   "then where its rate says it reaches that target (every 10 on the primal-dual loop), "
                   "and at --max-iters")
    p.add_argument("--max-iters", type=int, default=max_iters)


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    # one flag per SimulationSpec field, its dest and default taken from the field; _sim_spec reads them back
    helps = {"signal": "value of every non-zero true coefficient"}
    for f in dataclasses.fields(SimulationSpec):
        parse = _int_list if isinstance(f.default, tuple) else type(f.default)
        p.add_argument(f"--{f.name.replace('_', '-')}", type=parse, default=f.default, help=helps.get(f.name))


def _add_data_flags(p: argparse.ArgumentParser, methods: tuple[str, ...]) -> None:
    p.add_argument("--method", choices=methods, required=True)
    p.add_argument("--x", required=True, help="input matrix CSV")
    p.add_argument("--y", required=True, help="output matrix CSV, one column per response")
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--rho",
        type=float,
        default=ExperimentConfig.rho,
        help="gflasso graph threshold on |correlation|, strict; edges at exactly rho are excluded "
        "(studied values: 0.1, 0.3, 0.5, 0.7)",
    )


def _sim_spec(ns: argparse.Namespace) -> SimulationSpec:
    return SimulationSpec(**{f.name: getattr(ns, f.name) for f in dataclasses.fields(SimulationSpec)})


def _b_hat_text(fit: FitResult) -> str:
    B = fit.solution.B_hat
    return matrix_csv_text(B, default_headers("y", B.shape[1]))


def cmd_simulate(ns: argparse.Namespace) -> int:
    spec = _sim_spec(ns)
    ds = simulate_dataset(spec)
    artifacts = {
        "X.csv": matrix_csv_text(ds.X, default_headers("x", spec.n_inputs)),
        "Y.csv": matrix_csv_text(ds.Y, default_headers("y", spec.n_outputs)),
        "B_true.csv": matrix_csv_text(ds.B_true, default_headers("y", spec.n_outputs)),
        "spec.json": json_text(spec.to_json_dict()),
    }
    _write_outputs(ns.out_dir, "simulate", spec.to_json_dict(), [], artifacts)
    return EXIT_OK


def _load_xy(ns: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    X, _ = read_matrix_csv(ns.x)
    Y, _ = read_matrix_csv(ns.y)
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"{ns.x} has {X.shape[0]} rows but {ns.y} has {Y.shape[0]}")
    return X, Y


def _method_graph(ns: argparse.Namespace, X: np.ndarray, Y: np.ndarray) -> TaskGraph | None:
    """The graph ``ns.method`` reads: Y's correlation graph (gflasso), --input-graph or a chain (fused), else None."""
    if ns.method == "gflasso":
        return build_correlation_graph(Y, ns.rho)
    if ns.method == "fused":
        return chain_graph(X.shape[1]) if ns.input_graph is None else load_edge_list(ns.input_graph, X.shape[1])
    return None


def cmd_fit(ns: argparse.Namespace) -> int:
    if ns.input_graph is not None and ns.method != "fused":
        raise ValueError(f"--input-graph applies to method=fused only, got method={ns.method}")
    X, Y = _load_xy(ns)
    config = _solver_config(ns)
    graph = _method_graph(ns, X, Y)
    fit = fit_method(ns.method, Moments.from_data(X, Y), graph, ns.lam, ns.gamma, config)

    artifacts = {"B_hat.csv": _b_hat_text(fit), "fit.json": json_text(fit.to_json_dict())}
    if ns.method == "gflasso":
        artifacts["graph.csv"] = edge_list_text(graph)
    if ns.trace:
        artifacts["trace.csv"] = trace_csv_text(fit.solution)
    inputs = [ns.x, ns.y] + ([ns.input_graph] if ns.input_graph else [])
    _write_outputs(ns.out_dir, "fit", _flag_args(ns), inputs, artifacts)
    return EXIT_OK if fit.solution.converged else EXIT_NOT_CONVERGED


def cmd_cv(ns: argparse.Namespace) -> int:
    X, Y = _load_xy(ns)
    config = _solver_config(ns)
    graph = _method_graph(ns, X, Y)
    grid = method_grid(ns.method, ns.lambdas, ns.gammas)
    sel = select_regularization(HoldoutSplit.from_data(X, Y, ns.holdout), graph, ns.method, grid, config)
    cv_doc = {
        "method": ns.method,
        "selected": {"lambda": sel.lam, "gamma": sel.gamma},
        "holdout": ns.holdout,
        "table": list(sel.table),
        "final_fit": sel.fit.to_json_dict(),
    }
    artifacts = {"cv.json": json_text(cv_doc), "B_hat.csv": _b_hat_text(sel.fit)}
    _write_outputs(ns.out_dir, "cv", _flag_args(ns), [ns.x, ns.y], artifacts)
    return EXIT_OK if sel.fit.solution.converged else EXIT_NOT_CONVERGED


def cmd_bench(ns: argparse.Namespace) -> int:
    # the problem settings the sweep holds fixed, by their run_benchmark name
    fixed = {name: getattr(ns, name) for name in ("n_samples", "n_inputs", "n_outputs", "rho", "gamma", "seed")}
    rows = run_benchmark(ns.axis, list(ns.values), lam=ns.lam, methods=ns.methods, config=_solver_config(ns), **fixed)
    _write_outputs(ns.out_dir, "bench", _flag_args(ns), [], {"bench.csv": benchmark_csv_text(rows)})
    return EXIT_OK


def cmd_report(ns: argparse.Namespace) -> int:
    config = ExperimentConfig(
        sim=_sim_spec(ns),
        rho=ns.rho,
        methods=ns.methods,
        n_replicates=ns.replicates,
        test_n=ns.test_n,
        holdout=ns.holdout,
        lambda_grid=ns.lambdas,
        gamma_grid=ns.gammas,
        solver=_solver_config(ns),
    )
    report = run_replicates(config)
    _write_outputs(ns.out_dir, "report", config.to_json_dict(), [], {"report.json": json_text(report.to_json_dict())})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gflasso", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset (X.csv, Y.csv, B_true.csv, spec.json)")
    p_sim.add_argument("--out-dir", required=True)
    _add_sim_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one model to X.csv/Y.csv and write B_hat.csv + fit.json")
    _add_data_flags(p_fit, FIT_METHODS)
    p_fit.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p_fit.add_argument("--gamma", type=float, default=0.1)
    p_fit.add_argument(
        "--input-graph",
        default=None,
        help="edge-list CSV (m,l,r) over the covariates for method=fused, whose --y has a single column; "
        "default is a chain",
    )
    p_fit.add_argument("--trace", action="store_true", help="also write per-iteration trace.csv")
    _add_solver_flags(p_fit, max_iters=SolverConfig.max_iters, accuracy=True)
    p_fit.set_defaults(func=cmd_fit)

    p_cv = sub.add_parser("cv", help="select lambda/gamma on a tail holdout and refit on all samples")
    _add_data_flags(p_cv, METHODS)
    p_cv.add_argument("--lambdas", type=_float_list, default=ExperimentConfig.lambda_grid)
    p_cv.add_argument("--gammas", type=_float_list, default=ExperimentConfig.gamma_grid)
    p_cv.add_argument("--holdout", type=int, default=ExperimentConfig.holdout, help="validation rows from the end")
    _add_solver_flags(p_cv, max_iters=SolverConfig.max_iters, accuracy=True)
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
    p_bench.add_argument("--methods", type=_str_list, default="proxgrad", help="comma-separated: proxgrad,subgrad")
    p_bench.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p_bench, max_iters=2000, accuracy=False)
    p_bench.set_defaults(func=cmd_bench)

    p_rep = sub.add_parser("report", help="multi-replicate simulate/select/fit/score experiment; writes report.json")
    p_rep.add_argument("--out-dir", required=True)
    _add_sim_flags(p_rep)
    p_rep.add_argument("--rho", type=float, default=ExperimentConfig.rho)
    p_rep.add_argument("--methods", type=_str_list, default=",".join(ExperimentConfig.methods))
    p_rep.add_argument("--replicates", type=int, default=ExperimentConfig.n_replicates)
    p_rep.add_argument("--test-n", type=int, default=ExperimentConfig.test_n)
    p_rep.add_argument("--holdout", type=int, default=ExperimentConfig.holdout)
    p_rep.add_argument("--lambdas", type=_float_list, default=ExperimentConfig.lambda_grid)
    p_rep.add_argument("--gammas", type=_float_list, default=ExperimentConfig.gamma_grid)
    # Ignored: replicates run serially. Kept parseable only because the
    # perfbench report_paper workload still passes --threads 1.
    p_rep.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    _add_solver_flags(p_rep, max_iters=SolverConfig.max_iters, accuracy=False)
    p_rep.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was, and every default is immutable
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        _require_out_dir(ns.out_dir)
        return ns.func(ns)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DegenerateInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
