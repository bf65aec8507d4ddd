"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The tiny-instance optimum references were produced once by the
independent brute-force oracles in tests/oracles.py (1e7-step subgradient
runs and an exhaustive 1e-3-resolution grid search) and frozen below;
``python tests/oracles.py`` regenerates them.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import gflasso
from gflasso.cli import main
from gflasso.evaluate import ExperimentConfig, roc_curve, run_replicates
from gflasso.graph import TaskGraph, build_correlation_graph
from gflasso.models import PenaltySpec, fit_fused_univariate, fit_gflasso, fit_lasso
from gflasso.simulate import SimulationSpec, gen_coefficients, gen_genotypes, gen_outputs, simulate_dataset, substream_seed
from gflasso.smoothing import FusionOperator
from gflasso.solver import Moments, SolverConfig, solve, subgradient_fit, three_sequence_minimize

from oracles import dense_fusion_matrix, ista_lasso, iteration_bound, largest_eigenvalue, tiny_instances

# frozen oracle values (tests/oracles.py, 1e7 subgradient steps per instance)
SUBGRAD_OBJ = (
    1.648728379577014,
    3.88500860532174,
    1.2461325733202564,
    0.7694213721781655,
    0.8258713085475933,
)
BSTAR_NORM = (
    1.2195192631080003,
    2.754902413004621,
    0.8227636154692138,
    0.9447265622948547,
    0.7838193094731404,
)
# exhaustive grid search at final resolution 1e-3 (univariate instances only)
GRID_OBJ = {3: 0.7694217486623298, 4: 0.8258718599709121}


def _report(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS  {detail}")


def _random_operator(rng):
    n_nodes = int(rng.integers(2, 7))
    edges = []
    for m in range(1, n_nodes):
        for l in range(m + 1, n_nodes + 1):
            if rng.random() < 0.5:
                edges.append((m, l, float(rng.uniform(-1, 1))))
    g = TaskGraph(n_nodes, tuple(edges))
    lam = float(rng.uniform(0.0, 2.0))
    gamma = float(rng.uniform(0.0, 2.0))
    n_inputs = int(rng.integers(1, 9))
    return FusionOperator.from_graph(g, lam=lam, gamma=gamma, n_inputs=n_inputs), g


def test_c01_smoothing_gap_bound():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        op, _ = _random_operator(rng)
        B = float(rng.uniform(0.2, 5.0)) * rng.standard_normal((op.n_inputs, op.n_tasks))
        mu = float(10.0 ** rng.uniform(-5, 0))
        gap = op.penalty_exact(B) - op.dual_terms(B, None, mu)[3]
        assert gap >= -1e-9
        assert gap <= mu * op.gap_constant() + 1e-9
        worst = max(worst, gap - mu * op.gap_constant())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"200 random tuples, 0 <= f0 - f_mu <= mu*D within 1e-9 ({elapsed:.1f}s)")


def test_c02_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    h = 1e-6
    mu = 1e-2
    worst = 0.0
    for _ in range(50):
        n_tasks = int(rng.integers(2, 11))
        edges = []
        for m in range(1, n_tasks):
            for l in range(m + 1, n_tasks + 1):
                if rng.random() < 0.4:
                    edges.append((m, l, float(rng.uniform(-1, 1))))
        g = TaskGraph(n_tasks, tuple(edges))
        n_inputs = int(rng.integers(2, 11))
        op = FusionOperator.from_graph(g, lam=float(rng.uniform(0.1, 1.5)), gamma=float(rng.uniform(0.1, 1.5)),
                                       n_inputs=n_inputs)
        n = 15
        X = rng.standard_normal((n, n_inputs))
        Y = rng.standard_normal((n, n_tasks))
        X -= X.mean(axis=0)
        Y -= Y.mean(axis=0)
        XtX, XtY = X.T @ X, X.T @ Y
        B = rng.standard_normal((n_inputs, n_tasks))

        def f_tilde(Bx):
            resid = Y - X @ Bx
            return 0.5 * float(np.vdot(resid, resid)) + op.dual_terms(Bx, None, mu)[3]

        G = XtX @ B - XtY + op.adjoint(op.aux_optimum(B, mu))
        G_fd = np.zeros_like(B)
        for idx in np.ndindex(B.shape):
            E = np.zeros_like(B)
            E[idx] = h
            G_fd[idx] = (f_tilde(B + E) - f_tilde(B - E)) / (2 * h)
        rel = float(np.linalg.norm(G - G_fd) / max(np.linalg.norm(G_fd), 1e-12))
        worst = max(worst, rel)
        assert rel <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"50 random points, worst relative gradient error {worst:.2e} <= 1e-5 ({elapsed:.1f}s)")


def test_c03_operator_norm_bound():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    for _ in range(100):
        op, g = _random_operator(rng)
        C = dense_fusion_matrix(g.node_count, g.edges, op.lam, op.gamma)
        sigma_max = float(np.linalg.svd(C, compute_uv=False)[0])
        bound = op.norm_bound()
        assert sigma_max <= bound + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"sigma_max(C) <= sqrt(lam^2 + 2 gamma^2 max d) on 100 random graphs ({elapsed:.1f}s)")


def _solve_tiny(spec):
    config = SolverConfig(accuracy=5e-5, rel_obj_tol=1e-12, max_iters=500000)
    if spec["kind"] == "multitask":
        g = TaskGraph(spec["Y"].shape[1], spec["edges"])
        op = FusionOperator.from_graph(g, lam=spec["lam"], gamma=spec["gamma"], n_inputs=spec["X"].shape[1])
        return solve(spec["X"], spec["Y"], config, op).objective_exact
    g = TaskGraph(spec["X"].shape[1], spec["edges"])
    fit = fit_fused_univariate(spec["X"], spec["y"], g, spec["lam"], spec["gamma"], config)
    return fit.solution.objective_exact


def test_c04_tiny_instance_oracle_equivalence():
    t0 = time.perf_counter()
    details = []
    for i, spec in enumerate(tiny_instances()):
        f_pg = _solve_tiny(spec)
        ref = SUBGRAD_OBJ[i]
        rel = abs(f_pg - ref) / ref
        assert rel <= 1e-4, f"instance {i}: {f_pg} vs subgradient oracle {ref} (rel {rel:.2e})"
        if i in GRID_OBJ:
            rel_grid = abs(f_pg - GRID_OBJ[i]) / GRID_OBJ[i]
            assert rel_grid <= 1e-4, f"instance {i}: {f_pg} vs grid oracle {GRID_OBJ[i]}"
        details.append(f"{rel:.1e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(4, f"5 tiny instances within 1e-4 relative of frozen oracles (rel errs {', '.join(details)}; {elapsed:.0f}s)")


def _plain_scheme_objectives(X, Y, op, eps, max_iters):
    # F(B^t) along the scheme of the paper's theorem: one mu = eps / (2 D), no
    # restart and no stop. ``solve`` adds restarts and mu stages, which beat the
    # O(1/eps) rate this criterion measures. The check reports a falling value
    # and never ends the run, so the loop neither restarts nor stops.
    m = Moments.from_data(X, Y)
    mu = eps / (2 * op.gap_constant())
    fs = []

    def grad(W):
        return m.gram(W) - m.XtY + op.adjoint(op.aux_optimum(W, mu))

    falling = itertools.count(0, -1)
    three_sequence_minimize(
        grad, lambda B: ((next(falling),), False), np.zeros(m.XtY.shape), m.lam_max + op.norm_bound() ** 2 / mu,
        max_iters, None, lambda B, g: fs.append(m.loss(B, m.gram(B) - m.XtY) + op.penalty_exact(B)),
    )
    return np.array(fs)


def test_c04b_observed_iterations_within_theorem_bound():
    # companion check: iterations of the theorem's scheme (fixed mu, no
    # restart) to reach f(B^t) - f* <= eps never exceed the worst-case bound
    # evaluated with the oracle's ||B*||_F
    spec = tiny_instances()[0]
    eps = 1e-2
    g = TaskGraph(spec["Y"].shape[1], spec["edges"])
    op = FusionOperator.from_graph(g, lam=spec["lam"], gamma=spec["gamma"], n_inputs=spec["X"].shape[1])
    lam_max = largest_eigenvalue(spec["X"].T @ spec["X"])
    bound = iteration_bound(BSTAR_NORM[0], eps, op.gap_constant(), op.norm_bound(), lam_max)
    fs = _plain_scheme_objectives(spec["X"], spec["Y"], op, eps, int(bound) + 1)
    hits = np.nonzero(fs - SUBGRAD_OBJ[0] <= eps)[0]
    assert hits.size, "never reached the eps ball"
    observed = int(hits[0]) + 1
    assert observed <= bound
    _report(4, f"(adjunct) observed {observed} iterations <= theorem bound {bound:.0f} at eps={eps}")


def test_c05_degeneracy_lattice():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    X = rng.standard_normal((40, 6))
    B_true = rng.standard_normal((6, 3)) * (rng.random((6, 3)) < 0.5)
    Y = X @ B_true + 0.3 * rng.standard_normal((40, 3))
    config = SolverConfig(rel_obj_tol=1e-8)
    graph = build_correlation_graph(Y, 0.2)

    gamma_zero = fit_gflasso(X, Y, graph, PenaltySpec(lam=0.3, gamma=0.0), config)
    lasso = fit_lasso(X, Y, PenaltySpec(lam=0.3), config)
    d1 = float(np.linalg.norm(gamma_zero.solution.B_hat - lasso.solution.B_hat))
    assert d1 < 1e-5

    empty = build_correlation_graph(Y, 0.99)
    assert empty.n_edges == 0
    no_edges = fit_gflasso(X, Y, empty, PenaltySpec(lam=0.3, gamma=0.8), config)
    d2 = float(np.linalg.norm(no_edges.solution.B_hat - lasso.solution.B_hat))
    assert d2 < 1e-5

    # two-task fusion limit: huge gamma forces the columns together
    X2 = rng.standard_normal((12, 3))
    Y2 = np.column_stack([X2 @ np.array([1.0, 0.0, -0.5]), X2 @ np.array([0.9, 0.1, -0.4])])
    Y2 += 0.1 * rng.standard_normal(Y2.shape)
    X2 -= X2.mean(axis=0)
    Y2 -= Y2.mean(axis=0)
    g2 = TaskGraph(2, ((1, 2, 1.0),))
    op2 = FusionOperator.from_graph(g2, lam=0.3, gamma=1000.0, n_inputs=3)
    fused = solve(X2, Y2, SolverConfig(mu=1e-4, rel_obj_tol=1e-6, max_iters=20000), op2)
    d3 = float(np.abs(fused.B_hat[:, 0] - fused.B_hat[:, 1]).max())
    assert d3 <= 1e-3

    # and at dominant-but-tractable gamma the fit approaches the pooled lasso;
    # the fit stops at gap <= mu * D, and this mu makes that finer than the 1e-3 comparison
    lam = 0.4
    op3 = FusionOperator.from_graph(g2, lam=lam, gamma=10.0, n_inputs=3)
    sol3 = solve(X2, Y2, SolverConfig(mu=2e-7, rel_obj_tol=1e-13, max_iters=400000), op3)
    pooled = ista_lasso(np.vstack([X2, X2]), np.concatenate([Y2[:, 0], Y2[:, 1]])[:, None], 2.0 * lam)[:, 0]
    d4 = float(np.abs(sol3.B_hat[:, 0] - pooled).max())
    assert d4 <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, f"gamma=0 diff {d1:.1e}, empty-graph diff {d2:.1e}, fusion gap {d3:.1e}, pooled-lasso diff {d4:.1e} ({elapsed:.0f}s)")


def _medium_instance():
    rng = np.random.default_rng(606)
    n, j, k = 200, 100, 20
    X = rng.standard_normal((n, j)) / np.sqrt(n)
    B_true = np.zeros((j, k))
    idx = rng.choice(j * k, size=40, replace=False)
    B_true.flat[idx] = 0.25
    Y = X @ B_true + 0.05 * rng.standard_normal((n, k))
    X -= X.mean(axis=0)
    Y -= Y.mean(axis=0)
    edges = []
    for m in range(1, k + 1):
        for l in range(m + 1, k + 1):
            if rng.random() < 0.12:
                edges.append((m, l, float(rng.choice([-0.8, 0.8]))))
    op = FusionOperator.from_graph(TaskGraph(k, tuple(edges)), lam=0.02, gamma=0.02, n_inputs=j)
    return X, Y, op


def test_c06_convergence_rate_regimes():
    t0 = time.perf_counter()
    X, Y, op = _medium_instance()
    eps_values = (1e-1, 1e-2, 1e-3)

    ref = solve(X, Y, SolverConfig(accuracy=2e-4, rel_obj_tol=1e-16, max_iters=80000), op)
    assert ref.converged  # certified within 1e-4 of the optimum
    f_ref = ref.objective_exact

    prox_hits = []
    for eps in eps_values:
        fs = _plain_scheme_objectives(X, Y, op, eps, 60000)
        hits = np.nonzero(fs - f_ref <= eps)[0]
        assert hits.size, f"prox-grad never reached eps={eps}"
        prox_hits.append(int(hits[0]) + 1)

    sg = subgradient_fit(X, Y, SolverConfig(max_iters=80000, record_trace=True), op)
    sg_best = np.array([row[0] for row in sg.trace])
    sub_hits = []
    for eps in eps_values:
        hits = np.nonzero(sg_best - f_ref <= eps)[0]
        assert hits.size, f"subgradient never reached eps={eps}"
        sub_hits.append(int(hits[0]) + 1)

    log_inv_eps = np.log10(1.0 / np.asarray(eps_values))
    prox_slope = float(np.polyfit(log_inv_eps, np.log10(prox_hits), 1)[0])
    sub_slope = float(np.polyfit(log_inv_eps, np.log10(sub_hits), 1)[0])
    assert 0.7 <= prox_slope <= 1.3, f"prox slope {prox_slope} with hits {prox_hits}"
    assert sub_slope >= 1.6, f"subgradient slope {sub_slope} with hits {sub_hits}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(6, f"iters-to-eps prox {prox_hits} (slope {prox_slope:.2f}), subgradient {sub_hits} (slope {sub_slope:.2f}) ({elapsed:.0f}s)")


_TIMING_SCRIPT = r"""
import numpy as np
from gflasso.graph import build_correlation_graph
from gflasso.models import PenaltySpec, fit_gflasso
from gflasso.simulate import SimulationSpec, gen_coefficients, gen_genotypes, gen_outputs, substream_seed
from gflasso.solver import SolverConfig

spec = SimulationSpec(n_samples=500, n_inputs=100, n_outputs=20, signal=0.8, seed=99,
                      group_sizes=(7, 7, 6), inputs_per_group=(3, 4, 4))
B_true = gen_coefficients(spec)
X1 = gen_genotypes(500, 100, substream_seed(99, 0))
Y1 = gen_outputs(X1, B_true, 1.0, substream_seed(99, 2))
X2 = gen_genotypes(5000, 100, substream_seed(99, 3))
Y2 = gen_outputs(X2, B_true, 1.0, substream_seed(99, 4))
graph = build_correlation_graph(Y1, 0.3)
# mu this small puts the gap floor mu * D out of reach: every fit runs all 1500 iterations
config = SolverConfig(mu=1e-11, rel_obj_tol=1e-16, max_iters=1500)
pen = PenaltySpec(lam=0.1, gamma=0.1)
small, large = [], []
for _ in range(5):
    small.append(fit_gflasso(X1, Y1, graph, pen, config).solution.runtime_periter_s)
    large.append(fit_gflasso(X2, Y2, graph, pen, config).solution.runtime_periter_s)
print(float(np.median(small)), float(np.median(large)))
"""


def test_c07_per_iteration_cost_independent_of_sample_count():
    # timing in an isolated single-threaded subprocess: BLAS pool handoff on
    # shared runners otherwise swamps the comparison
    t0 = time.perf_counter()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # the child imports the package from where this process did, installed or not
    src = os.path.dirname(os.path.dirname(gflasso.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TIMING_SCRIPT], capture_output=True, text=True, env=env, timeout=280)
    assert proc.returncode == 0, proc.stderr
    small, large = (float(v) for v in proc.stdout.split())
    rel = abs(large - small) / small
    assert rel < 0.25, f"per-iteration medians {small*1e6:.0f}us (N=500) vs {large*1e6:.0f}us (N=5000)"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, f"per-iteration {small*1e6:.0f}us at N=500 vs {large*1e6:.0f}us at N=5000 (rel {rel:.2f} < 0.25; {elapsed:.0f}s)")


def _figure_experiment(rho, methods):
    return ExperimentConfig(
        sim=SimulationSpec(n_samples=100, n_inputs=30, n_outputs=10, signal=0.8, noise_sd=1.0, seed=20240801),
        rho=rho,
        methods=methods,
        n_replicates=10,
        test_n=50,
        holdout=30,
        lambda_grid=(0.05, 0.15, 0.5, 1.5),
        gamma_grid=(0.3, 1.0, 3.0),
        solver=SolverConfig(mu=1e-3, rel_obj_tol=1e-5, max_iters=4000),
    )


def test_c08_sparse_graph_recovery_beats_baselines():
    t0 = time.perf_counter()
    report = run_replicates(_figure_experiment(0.1, ("gflasso", "lasso", "l1l2")))
    doc = report.to_json_dict()
    wins = doc["wins_vs_lasso"]["gflasso"]
    gf = doc["methods"]["gflasso"]["auc"]["mean"]
    la = doc["methods"]["lasso"]["auc"]["mean"]
    l12 = doc["methods"]["l1l2"]["auc"]["mean"]
    assert wins >= 8, f"gflasso won only {wins}/10 replicates"
    assert gf > l12
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _report(8, f"AUC gflasso {gf:.3f} (wins {wins}/10) vs lasso {la:.3f}, l1/l2 {l12:.3f} ({elapsed:.0f}s)")


def test_c09_high_threshold_collapses_to_lasso():
    t0 = time.perf_counter()
    report = run_replicates(_figure_experiment(0.7, ("gflasso", "lasso")))
    doc = report.to_json_dict()
    gf = doc["methods"]["gflasso"]["auc"]["mean"]
    la = doc["methods"]["lasso"]["auc"]["mean"]
    assert abs(gf - la) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _report(9, f"mean AUC gap |{gf:.4f} - {la:.4f}| = {abs(gf-la):.1e} < 0.02 at rho=0.7 ({elapsed:.0f}s)")


def test_c10_command_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_twice(args, outputs):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{args[0]}_{tag}"
            out.mkdir()
            code = main(args + ["--out-dir", str(out)])
            assert code == 0
            dirs.append(out)
        for name in outputs:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"{args[0]}: {name} differs between reruns"
        return dirs

    sim_dirs = run_twice(
        ["simulate", "--seed", "11", "--n-samples", "50", "--n-inputs", "18", "--n-outputs", "6",
         "--group-sizes", "3,3", "--inputs-per-group", "3,3"],
        ["X.csv", "Y.csv", "B_true.csv", "spec.json", "manifest.json"],
    )
    x, y = str(sim_dirs[0] / "X.csv"), str(sim_dirs[0] / "Y.csv")
    run_twice(
        ["fit", "--method", "gflasso", "--x", x, "--y", y, "--rho", "0.3", "--lambda", "0.2",
         "--gamma", "0.3", "--mu", "1e-3", "--tol", "1e-6", "--max-iters", "3000"],
        ["B_hat.csv", "fit.json", "graph.csv", "manifest.json"],
    )
    run_twice(
        ["cv", "--method", "lasso", "--x", x, "--y", y, "--lambdas", "0.1,0.5", "--holdout", "15",
         "--mu", "1e-3", "--tol", "1e-5", "--max-iters", "2000"],
        ["cv.json", "B_hat.csv", "manifest.json"],
    )
    run_twice(
        ["report", "--n-samples", "40", "--n-inputs", "15", "--n-outputs", "6", "--group-sizes", "3,3",
         "--inputs-per-group", "3,3", "--replicates", "1", "--test-n", "15", "--holdout", "10",
         "--lambdas", "0.1,1", "--gammas", "0.5", "--methods", "gflasso,lasso",
         "--mu", "1e-3", "--tol", "1e-5", "--max-iters", "2000"],
        ["report.json", "manifest.json"],
    )
    # bench wall-clock columns vary; its deterministic columns must not
    bench_dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"bench_{tag}"
        out.mkdir()
        code = main(["bench", "--axis", "rho", "--values", "0.3,0.6", "--n-samples", "40", "--n-inputs", "15",
                     "--n-outputs", "6", "--max-iters", "40", "--tol", "1e-3", "--out-dir", str(out)])
        assert code == 0
        bench_dirs.append(out)
    for a_line, b_line in zip(*((d / "bench.csv").read_text().strip().split("\n") for d in bench_dirs)):
        assert a_line.split(",")[:6] == b_line.split(",")[:6]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(10, f"simulate/fit/cv/report byte-identical on rerun; bench deterministic columns stable ({elapsed:.0f}s)")


@pytest.mark.skipif(
    os.environ.get("GFLASSO_RUN_OPTIONAL") != "1",
    reason="optional non-gating probe; set GFLASSO_RUN_OPTIONAL=1 to run",
)
def test_c11_optional_shrink_to_truth_probe():
    # with lam_N = gamma_N = c sqrt(N), the estimation error should shrink
    # as N grows in most seeds; reported, not load-bearing
    t0 = time.perf_counter()
    c = 0.02
    wins = 0
    config = SolverConfig(mu=1e-3, rel_obj_tol=1e-5, max_iters=4000)
    for seed in range(10):
        errs = []
        for n in (100, 400, 1600):
            spec = SimulationSpec(n_samples=n, n_inputs=30, n_outputs=10, signal=0.8, seed=substream_seed(seed, 7))
            ds = simulate_dataset(spec)
            graph = build_correlation_graph(ds.Y, 0.1)
            lam = c * np.sqrt(n)
            fit = fit_gflasso(ds.X, ds.Y, graph, PenaltySpec(lam=lam, gamma=lam), config)
            errs.append(float(np.linalg.norm(fit.solution.B_hat - ds.B_true)))
        wins += errs[0] > errs[1] > errs[2]
    assert wins >= 8, f"error decreased monotonically in only {wins}/10 seeds"
    _report(11, f"(optional) error shrank monotonically over N in {wins}/10 seeds ({time.perf_counter()-t0:.0f}s)")
