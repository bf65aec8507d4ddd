"""The benchmark's workloads: inputs made from a seed, one CLI command, and its output check.

Each workload builds a few datasets per run from ``(run seed, dataset
index)``, runs one ``gflasso`` command on each of them in turn, and checks the
files every command wrote. The checks recompute what they can without the
package (edge sets, objectives, shapes); only the support-recovery AUC goes
through the package's own scorer, so that it matches the AUC ``gflasso report``
writes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from gflasso import cli, evaluate, fileio, models, simulate
from gflasso.graph import TaskGraph

OBJECTIVE_RTOL = 1e-9
# Every fourth point of the default 10-point grid: 1e-3, 0.0599, 3.59. At the full
# grid a report took 5-8 s, too long to repeat often within one run.
REPORT_GRID = ",".join(repr(v) for v in evaluate.DEFAULT_GRID[::4])


@dataclass
class Case:
    """One dataset of a workload and the command that runs on it."""

    seed: int
    data_dir: str
    out_dir: str
    argv: list[str]
    warmup_argv: list[str]
    ref: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Result of checking one command's outputs."""

    problems: list[str]
    auc: float | None = None
    objective: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def case_seed(run_seed: int, index: int) -> int:
    """Seed of the index-th dataset of a run; distinct for distinct (run seed, index < 1000)."""
    return run_seed * 1000 + index


def read_matrix(path: str) -> np.ndarray:
    """Parse a matrix CSV with a header row, independently of ``gflasso.fileio``."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def pair_correlations(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle (m, l, r) of the output correlation matrix, 0-based m < l."""
    R = np.corrcoef(Y, rowvar=False)
    m, l = np.triu_indices(Y.shape[1], 1)
    return m, l, R[m, l]


def correlation_edges(Y: np.ndarray, rho: float) -> tuple[tuple[int, int, float], ...]:
    """Edges (m, l, r), 1-based, of output pairs with |r| > rho."""
    m, l, r = pair_correlations(Y)
    keep = np.abs(r) > rho
    return tuple((int(a) + 1, int(b) + 1, float(c)) for a, b, c in zip(m[keep], l[keep], r[keep]))


def rho_for_edge_count(Y: np.ndarray, n_edges: int) -> float:
    """Threshold halfway between the n-th and (n+1)-th largest |r|, so the graph has n edges."""
    s = np.sort(np.abs(pair_correlations(Y)[2]))[::-1]
    if not 0 < n_edges < s.size:
        raise ValueError(f"cannot pick {n_edges} edges out of {s.size} pairs")
    return float(0.5 * (s[n_edges - 1] + s[n_edges]))


def relative_difference(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_coefficients(path: str, shape: tuple[int, int], problems: list[str]) -> np.ndarray | None:
    try:
        B = read_matrix(path)
    except (OSError, ValueError) as exc:
        problems.append(f"B_hat.csv unreadable: {exc}")
        return None
    if B.shape != shape:
        problems.append(f"B_hat.csv has shape {B.shape}, expected {shape}")
        return None
    if not np.all(np.isfinite(B)):
        problems.append("B_hat.csv has non-finite entries")
        return None
    return B


def _exit_problems(rc: int | None) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


class Workload:
    """Interface: make_inputs is timed as set-up, the rest is not."""

    name = ""
    n_inputs = 0
    datasets = 1  # datasets per run; their commands take turns

    def make_inputs(self, data_dir: str, seed: int) -> dict:
        raise NotImplementedError

    def case(self, data_dir: str, out_dir: str, seed: int, made: dict) -> Case:
        raise NotImplementedError

    def check(self, case: Case, rc: int | None) -> Outcome:
        raise NotImplementedError


@dataclass
class ReportPaper(Workload):
    """``gflasso report`` with one replicate: a 3x3 gflasso grid, lasso and l1/l2 paths, 3 refits."""

    size_args: tuple[str, ...] = ()  # simulation flags shared by `simulate` and `report`
    grid_args: tuple[str, ...] = ("--lambdas", REPORT_GRID, "--gammas", REPORT_GRID)
    rho: float = 0.1
    name: str = "report_paper"
    n_inputs: int = 30
    datasets: int = 6  # total iterations differ by ~8% between datasets

    def make_inputs(self, data_dir, seed):
        # `report` draws replicate 0 from substream_seed(seed, 1000); simulating that seed
        # gives the check the same data the report fitted.
        rep_seed = int(np.random.SeedSequence((seed, 1000)).generate_state(1)[0])
        rc = cli.main(["simulate", "--out-dir", data_dir, "--seed", str(rep_seed), *self.size_args])
        if rc != 0:
            raise RuntimeError(f"gflasso simulate exited {rc}")
        return {"rep_seed": rep_seed}

    def case(self, data_dir, out_dir, seed, made):
        argv = [
            "report", "--out-dir", out_dir, "--replicates", "1", "--threads", "1",
            "--seed", str(seed), "--rho", repr(self.rho), *self.size_args,
        ]
        ref = {"rep_seed": made["rep_seed"], "Y": read_matrix(os.path.join(data_dir, "Y.csv"))}
        warmup = argv + ["--lambdas", "0.1", "--gammas", "0.1"]
        return Case(seed, data_dir, out_dir, argv + list(self.grid_args), warmup, ref)

    def check(self, case, rc):
        problems = _exit_problems(rc)
        if problems:
            return Outcome(problems)
        doc = fileio.read_json(os.path.join(case.out_dir, "report.json"))
        if doc["failures"]:
            problems.append(f"report failures: {doc['failures']}")
        rep = doc["replicates"][0]
        if rep["seed"] != case.ref["rep_seed"]:
            problems.append(f"replicate seed {rep['seed']} != {case.ref['rep_seed']}")
        expected_edges = len(correlation_edges(case.ref["Y"], self.rho))
        if rep["n_edges"] != expected_edges:
            problems.append(f"n_edges {rep['n_edges']} != {expected_edges} recomputed from Y.csv")
        for method in ("gflasso", "lasso", "l1l2"):
            if method not in rep["methods"]:
                problems.append(f"method {method} missing from replicate 0")
                continue
            aucs = (rep["methods"][method]["auc"], doc["methods"][method]["auc"]["mean"])
            if not all(0.0 <= a <= 1.0 for a in aucs):
                problems.append(f"{method} AUC outside [0, 1]: {aucs}")
        auc = doc["methods"]["gflasso"]["auc"]["mean"] if not problems else None
        return Outcome(problems, auc=auc)


@dataclass
class FitFusionHeavy(Workload):
    """``gflasso fit --method gflasso`` on a graph dense enough that the fusion operator dominates."""

    n_samples: int = 200
    n_inputs: int = 100
    group_sizes: tuple[int, ...] = (15, 15, 15)
    n_edges: int = 300
    lam: float = 0.1
    gamma: float = 0.1
    name: str = "fit_fusion_heavy"
    datasets: int = 16  # iteration counts differ by ~12% between datasets

    @property
    def n_outputs(self) -> int:
        return sum(self.group_sizes)

    def make_inputs(self, data_dir, seed):
        rc = cli.main([
            "simulate", "--out-dir", data_dir, "--seed", str(seed),
            "--n-samples", str(self.n_samples), "--n-inputs", str(self.n_inputs),
            "--n-outputs", str(self.n_outputs),
            "--group-sizes", ",".join(map(str, self.group_sizes)),
        ])
        if rc != 0:
            raise RuntimeError(f"gflasso simulate exited {rc}")
        return {}

    def case(self, data_dir, out_dir, seed, made):
        X = read_matrix(os.path.join(data_dir, "X.csv"))
        Y = read_matrix(os.path.join(data_dir, "Y.csv"))
        # The operator's cost grows with |E|, and at a fixed rho |E| varied by ~45% across
        # seeds; choosing rho per dataset keeps |E|, and so the work per iteration, fixed.
        rho = rho_for_edge_count(Y, self.n_edges)
        argv = [
            "fit", "--method", "gflasso", "--x", os.path.join(data_dir, "X.csv"),
            "--y", os.path.join(data_dir, "Y.csv"), "--rho", repr(rho),
            "--lambda", repr(self.lam), "--gamma", repr(self.gamma), "--out-dir", out_dir,
        ]
        ref = {
            "X": X,
            "Y": Y,
            "B_true": read_matrix(os.path.join(data_dir, "B_true.csv")),
            "edges": correlation_edges(Y, rho),
        }
        return Case(seed, data_dir, out_dir, argv, argv + ["--tol", "1e-2"], ref)

    def check(self, case, rc):
        problems = _exit_problems(rc)
        if problems:
            return Outcome(problems)
        X, Y = case.ref["X"], case.ref["Y"]
        B = _check_coefficients(os.path.join(case.out_dir, "B_hat.csv"), (X.shape[1], Y.shape[1]), problems)
        fit = fileio.read_json(os.path.join(case.out_dir, "fit.json"))
        if fit["graph_edges"] != self.n_edges:
            problems.append(f"graph has {fit['graph_edges']} edges, expected {self.n_edges}")
        if B is None or problems:
            return Outcome(problems)
        graph = TaskGraph(node_count=Y.shape[1], edges=case.ref["edges"])
        spec = models.PenaltySpec(lam=self.lam, gamma=self.gamma)
        recomputed = models.objective_gflasso(X - X.mean(axis=0), Y - Y.mean(axis=0), B, graph, spec)
        if relative_difference(fit["objective"], recomputed) > OBJECTIVE_RTOL:
            problems.append(f"fit.json objective {fit['objective']!r} != recomputed {recomputed!r}")
        auc = evaluate.roc_curve(B, case.ref["B_true"]).auc
        return Outcome(problems, auc=auc, objective=fit["objective"])


@dataclass
class FusedChainLong(Workload):
    """``gflasso fit --method fused`` over the default chain on Gaussian covariates."""

    n_samples: int = 500
    n_inputs: int = 400
    segment: int = 40
    lam: float = 0.5
    gamma: float = 5.0
    name: str = "fused_chain_long"
    datasets: int = 20  # iteration counts differ by up to 2x between datasets

    def true_beta(self) -> np.ndarray:
        levels = (0.0, 1.0, 0.0, -1.0)
        return np.array([levels[(j // self.segment) % len(levels)] for j in range(self.n_inputs)])

    def make_inputs(self, data_dir, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((self.n_samples, self.n_inputs))
        beta = self.true_beta()
        Y = simulate.gen_outputs(X, beta[:, None], 1.0, seed + 1)
        fileio.write_matrix_csv(os.path.join(data_dir, "X.csv"), X, fileio.default_headers("x", self.n_inputs))
        fileio.write_matrix_csv(os.path.join(data_dir, "Y.csv"), Y, ["y1"])
        return {"X": X, "y": Y[:, 0], "beta": beta}

    def case(self, data_dir, out_dir, seed, made):
        argv = [
            "fit", "--method", "fused", "--x", os.path.join(data_dir, "X.csv"),
            "--y", os.path.join(data_dir, "Y.csv"), "--lambda", repr(self.lam),
            "--gamma", repr(self.gamma), "--out-dir", out_dir,
        ]
        return Case(seed, data_dir, out_dir, argv, argv + ["--tol", "1e-2"], dict(made))

    def chain_objective(self, b: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """0.5 ||yc - Xc b||^2 + lam |b|_1 + gamma sum_j |b_j - b_{j+1}|, summed directly."""
        resid = (y - y.mean()) - (X - X.mean(axis=0)) @ b
        return float(
            0.5 * resid @ resid + self.lam * np.abs(b).sum() + self.gamma * np.abs(np.diff(b)).sum()
        )

    def check(self, case, rc):
        problems = _exit_problems(rc)
        if problems:
            return Outcome(problems)
        X, y, beta = case.ref["X"], case.ref["y"], case.ref["beta"]
        B = _check_coefficients(os.path.join(case.out_dir, "B_hat.csv"), (X.shape[1], 1), problems)
        fit = fileio.read_json(os.path.join(case.out_dir, "fit.json"))
        if fit["graph_edges"] != self.n_inputs - 1:
            problems.append(f"chain has {fit['graph_edges']} edges, expected {self.n_inputs - 1}")
        if B is None or problems:
            return Outcome(problems)
        recomputed = self.chain_objective(B[:, 0], X, y)
        if relative_difference(fit["objective"], recomputed) > OBJECTIVE_RTOL:
            problems.append(f"fit.json objective {fit['objective']!r} != recomputed {recomputed!r}")
        auc = evaluate.roc_curve(B, beta[:, None]).auc
        return Outcome(problems, auc=auc, objective=fit["objective"])


WORKLOADS: dict[str, Workload] = {w.name: w for w in (ReportPaper(), FitFusionHeavy(), FusedChainLong())}
