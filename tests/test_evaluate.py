import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from gflasso import evaluate
from gflasso.cli import build_parser, main
from gflasso.errors import DegenerateInputError
from gflasso.evaluate import (
    BENCH_CSV_HEADER,
    DEFAULT_GRID,
    FIT_METHODS,
    ExperimentConfig,
    HoldoutSplit,
    benchmark_csv_text,
    fit_method,
    prediction_error,
    roc_curve,
    run_benchmark,
    run_replicates,
    select_regularization,
)
from gflasso.graph import TaskGraph, build_correlation_graph, chain_graph
from gflasso.models import PenaltySpec, fit_lasso
from gflasso.simulate import SimulationSpec, simulate_dataset
from gflasso.solver import Moments, SolverConfig

from oracles import concordance_auc, roc_points_threshold_loop

FAST_SOLVER = SolverConfig(mu=1e-3, rel_obj_tol=1e-5, max_iters=3000)


class TestRocCurve:
    def test_perfect_recovery(self):
        B = np.array([[1.0, 0.0], [0.0, -2.0], [0.0, 0.0]])
        assert roc_curve(B, B).auc == 1.0

    def test_random_scores_near_half(self):
        aucs = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            B_true = (rng.random((30, 20)) < 0.2).astype(float)
            B_hat = rng.standard_normal((30, 20))
            aucs.append(roc_curve(B_hat, B_true).auc)
        assert abs(np.mean(aucs) - 0.5) < 0.05

    def test_matches_concordance_probability(self):
        rng = np.random.default_rng(3)
        B_true = (rng.random((8, 5)) < 0.3).astype(float)
        B_hat = np.round(rng.standard_normal((8, 5)), 1)  # force ties
        curve = roc_curve(B_hat, B_true)
        ref = concordance_auc(np.abs(B_hat).ravel(), B_true.ravel() != 0)
        assert curve.auc == pytest.approx(ref, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        B_true = (rng.random((6, 4)) < 0.4).astype(float)
        B_hat = rng.standard_normal((6, 4))
        a = roc_curve(B_hat, B_true)
        b = roc_curve(17.3 * B_hat, B_true)
        assert a.auc == b.auc
        assert a.points == b.points

    def test_curve_shape_invariants(self):
        rng = np.random.default_rng(5)
        B_true = (rng.random((10, 10)) < 0.3).astype(float)
        curve = roc_curve(rng.standard_normal((10, 10)), B_true)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        tprs = [p[1] for p in curve.points]
        fprs = [p[0] for p in curve.points]
        assert all(a <= b + 1e-15 for a, b in zip(tprs, tprs[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(fprs, fprs[1:]))
        assert curve.auc == pytest.approx(np.trapezoid(tprs, fprs))

    def test_matches_threshold_loop_with_ties(self):
        # rounding and zeroed entries make many tie blocks, including at zero
        for seed in range(60):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(1, 12)), int(rng.integers(2, 12)))
            truth = rng.random(shape) < rng.uniform(0.05, 0.6)
            truth.flat[0], truth.flat[-1] = True, False
            B_hat = np.round(rng.standard_normal(shape), int(rng.integers(0, 3)))
            B_hat[rng.random(shape) < 0.3] = 0.0
            curve = roc_curve(B_hat, truth.astype(float))
            points, auc = roc_points_threshold_loop(np.abs(B_hat).ravel(), truth.ravel())
            assert curve.points == points, seed
            assert curve.auc == auc, seed

    def test_a_perfect_ranking_scores_exactly_one(self):
        # the trapezoid over these 8 steps of 1/18 summed to 1.0000000000000002
        B_true = np.array([1.0] + [0.0] * 18)[:, None]
        B_hat = np.array([2.0] + [1.0 / (i + 1) for i in range(6)] + [0.0] * 12)[:, None]
        assert roc_curve(B_hat, B_true).auc == 1.0

    def test_degenerate_supports_rejected(self):
        with pytest.raises(DegenerateInputError):
            roc_curve(np.ones((3, 3)), np.zeros((3, 3)))
        with pytest.raises(DegenerateInputError):
            roc_curve(np.ones((3, 3)), np.ones((3, 3)))


class TestPredictionError:
    def _fit(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 5))
        Y = X @ rng.standard_normal((5, 2)) + 0.1 * rng.standard_normal((30, 2))
        return fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.01), FAST_SOLVER), X, Y

    def test_exact_prediction_gives_zero(self):
        fit, X, _ = self._fit()
        Y_pred = fit.predict(X)
        assert prediction_error(fit, X, Y_pred) == 0.0

    def test_zero_coefficients_on_centered_data(self):
        fit, X, Y = self._fit()
        zero_solution = dataclasses.replace(fit.solution, B_hat=np.zeros_like(fit.solution.B_hat))
        zero_fit = dataclasses.replace(fit, solution=zero_solution, x_mean=np.zeros(5), y_mean=np.zeros(2))
        Y_test = np.random.default_rng(1).standard_normal((10, 2))
        assert prediction_error(zero_fit, np.zeros((10, 5)), Y_test) == pytest.approx(np.mean(Y_test**2))

    def test_matches_entry_loop(self):
        fit, X, Y = self._fit(2)
        pred = fit.predict(X)
        total = 0.0
        for i in range(X.shape[0]):
            for k in range(Y.shape[1]):
                total += (Y[i, k] - pred[i, k]) ** 2
        assert prediction_error(fit, X, Y) == pytest.approx(total / Y.size, abs=1e-12)

    def test_empty_test_set_rejected(self):
        fit, X, Y = self._fit(3)
        with pytest.raises(ValueError):
            prediction_error(fit, X[:0], Y[:0])


class TestFitMethod:
    """fit_method is the one map from a method name to a model: the names the fit command offers, a graph for the
    two models that read one, and a graph of the models' size."""

    @staticmethod
    def data(k=1):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 4))
        return Moments.from_data(X, X[:, :k] + 0.1 * rng.standard_normal((20, k)))

    def test_accepts_every_method_the_fit_command_offers(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["fit"]
        choices = next(a for a in sub._actions if a.dest == "method").choices
        assert tuple(choices) == FIT_METHODS
        graphs = {"gflasso": TaskGraph(1), "fused": chain_graph(4)}
        kinds = {m: fit_method(m, self.data(), graphs.get(m), 0.1, 0.1, FAST_SOLVER).model_kind for m in choices}
        assert kinds == {"gflasso": "gflasso", "lasso": "lasso", "l1l2": "group_l1l2", "fused": "fused_univariate"}

    @pytest.mark.parametrize("method", ["gflasso", "fused"])
    def test_a_model_with_a_graph_refuses_none(self, method):
        with pytest.raises(ValueError, match=f"^{method} needs a graph$"):
            fit_method(method, self.data(), None, 0.1, 0.1, FAST_SOLVER)

    def test_unknown_method_lists_every_fit_method(self):
        with pytest.raises(ValueError, match=re.escape(f"unknown method 'ridge'; expected one of {FIT_METHODS}")):
            fit_method("ridge", self.data(), None, 0.1, 0.1, FAST_SOLVER)

    @pytest.mark.parametrize("method, k, graph, shapes", [
        ("gflasso", 2, TaskGraph(3, ((1, 2, 0.5),)), r"\(4, 3\), the data \(4, 2\)"),
        ("fused", 1, chain_graph(3), r"\(3, 1\), the data \(4, 1\)"),
    ], ids=["gflasso", "fused"])
    def test_a_graph_of_the_wrong_size_is_refused(self, method, k, graph, shapes):
        with pytest.raises(ValueError, match=f"coefficient shape {shapes}$"):
            fit_method(method, self.data(k), graph, 0.1, 0.1, FAST_SOLVER)


class TestSelectRegularization:
    def _data(self, seed=0, pure_noise=False):
        spec = SimulationSpec(seed=seed, signal=0.8)
        ds = simulate_dataset(spec)
        if pure_noise:
            rng = np.random.default_rng(seed + 1000)
            Y = rng.standard_normal(ds.Y.shape)
            return ds.X, Y
        return ds.X, ds.Y

    def test_single_point_grid(self):
        X, Y = self._data()
        sel = select_regularization(HoldoutSplit.from_data(X, Y, 30), None, "lasso", [(0.3, 0.0)], FAST_SOLVER)
        assert (sel.lam, sel.gamma) == (0.3, 0.0)

    def test_pure_noise_prefers_largest_lambda(self):
        hits = 0
        grid = [(l, 0.0) for l in (0.01, 0.1, 1.0, 10.0)]
        for seed in range(5):
            X, Y = self._data(seed, pure_noise=True)
            sel = select_regularization(HoldoutSplit.from_data(X, Y, 30), None, "lasso", grid, FAST_SOLVER)
            hits += sel.lam == 10.0
        assert hits >= 3

    def test_dominated_points_do_not_change_selection(self):
        X, Y = self._data(3)
        grid = [(0.05, 0.0), (0.5, 0.0)]
        base = select_regularization(HoldoutSplit.from_data(X, Y, 30), None, "lasso", grid, FAST_SOLVER)
        mses = {row["lambda"]: row["val_mse"] for row in base.table}
        # add a point with clearly worse validation error than the winner
        worse = 1e6
        assert all(m < worse for m in mses.values())
        bigger = select_regularization(
            HoldoutSplit.from_data(X, Y, 30), None, "lasso", grid + [(1e6, 0.0)], FAST_SOLVER
        )
        assert (bigger.lam, bigger.gamma) == (base.lam, base.gamma) or mses[bigger.lam] <= min(mses.values())

    def test_tie_breaks_toward_larger_penalty(self):
        X, Y = self._data(4)
        # duplicate grid point forces an exact tie; larger lambda wins
        grid = [(0.2, 0.0), (0.2, 0.0)]
        sel = select_regularization(HoldoutSplit.from_data(X, Y, 30), None, "lasso", grid, FAST_SOLVER)
        assert sel.lam == 0.2

    def test_builds_the_moments_once_per_split(self, monkeypatch):
        # one build for the training rows, shared by all six grid points, and one for the refit on all rows
        X, Y = self._data(6)
        builds = []
        build = Moments.from_data
        monkeypatch.setattr(Moments, "from_data", lambda X, Y: builds.append(X.shape[0]) or build(X, Y))
        grid = [(lam, gamma) for lam in (0.1, 1.0) for gamma in (0.1, 1.0, 10.0)]
        graph = build_correlation_graph(Y, 0.3)
        sel = select_regularization(HoldoutSplit.from_data(X, Y, 30), graph, "gflasso", grid, FAST_SOLVER)
        assert len(sel.table) == 6
        assert builds == [70, 100]

    def test_holdout_bounds(self):
        X, Y = self._data(5)
        with pytest.raises(ValueError, match=r"holdout must be in \(0, 100\), got 100"):
            HoldoutSplit.from_data(X, Y, X.shape[0])


class TestWarmStartedPaths:
    """Each gamma's lambda path runs from the largest lambda down, every fit from the B_hat of the last fit on the
    path that succeeded; the refit starts from the selected point's training-split B_hat."""

    @staticmethod
    def recorded(monkeypatch, fail_at=()):
        # every fit_method call as (lam, gamma, rows of the data, start, B_hat), raising at the lam in fail_at
        calls, fit = [], evaluate.fit_method

        def recording(method, data, graph, lam, gamma, config, start=None):
            if lam in fail_at:
                calls.append((lam, gamma, data, start, None))
                raise ValueError(f"refused at {lam}")
            result = fit(method, data, graph, lam, gamma, config, start)
            calls.append((lam, gamma, data, start, result.solution.B_hat))
            return result

        monkeypatch.setattr(evaluate, "fit_method", recording)
        return calls

    def test_each_gamma_runs_its_lambdas_from_the_largest_down(self, monkeypatch):
        X, Y = TestSelectRegularization()._data(6)
        split, graph = HoldoutSplit.from_data(X, Y, 30), build_correlation_graph(Y, 0.3)
        grid = [(lam, gamma) for lam in (0.1, 3.0, 1.0) for gamma in (1.0, 0.1)]
        calls = self.recorded(monkeypatch)
        sel = select_regularization(split, graph, "gflasso", grid, FAST_SOLVER)
        *path, refit = calls
        assert [(lam, gamma) for lam, gamma, *_ in path] == [(3.0, 0.1), (1.0, 0.1), (0.1, 0.1),
                                                           (3.0, 1.0), (1.0, 1.0), (0.1, 1.0)]
        for i, (lam, gamma, data, start, _) in enumerate(path):
            assert data is split.train
            if lam == 3.0:
                assert start is None
            else:
                assert start is path[i - 1][4]
        assert [(row["lambda"], row["gamma"]) for row in sel.table] == grid
        chosen = next(call for call in path if call[:2] == (sel.lam, sel.gamma))
        assert refit[:3] == (sel.lam, sel.gamma, split.full) and refit[3] is chosen[4]

    def test_a_failed_fit_leaves_its_path_to_the_last_success(self, monkeypatch):
        X, Y = TestSelectRegularization()._data(7)
        split = HoldoutSplit.from_data(X, Y, 30)
        calls = self.recorded(monkeypatch, fail_at=(1.0,))
        sel = select_regularization(split, None, "lasso", [(0.1, 0.0), (1.0, 0.0), (3.0, 0.0)], FAST_SOLVER)
        assert [call[0] for call in calls[:3]] == [3.0, 1.0, 0.1]
        assert calls[1][3] is calls[0][4] and calls[2][3] is calls[0][4]
        assert [row.get("error") for row in sel.table] == [None, "refused at 1.0", None]

    @pytest.mark.parametrize("method, gammas", [("lasso", (0.0,)), ("gflasso", (0.3, 3.0))])
    def test_lambda_zero_on_a_singular_gram_leaves_the_rest_of_its_path_as_it_was(self, method, gammas):
        # 15 training rows of 30 inputs: lambda = 0, last on each path, is an error row, and the other rows are
        # the ones of the grid without it
        ds = simulate_dataset(SimulationSpec(n_samples=20, seed=4))
        split, graph = HoldoutSplit.from_data(ds.X, ds.Y, 5), build_correlation_graph(ds.Y, 0.3)
        assert split.train.null_basis.shape[1]
        grid = [(lam, gamma) for lam in (0.3, 0.0, 3.0) for gamma in gammas]
        with_zero = select_regularization(split, graph, method, grid, SolverConfig())
        without = select_regularization(split, graph, method, [p for p in grid if p[0]], SolverConfig())
        errors = [row for row in with_zero.table if "error" in row]
        assert len(errors) == len(gammas) and all("lambda = 0" in row["error"] for row in errors)
        assert [row for row in with_zero.table if "error" not in row] == list(without.table)
        assert all(row["converged"] for row in without.table)
        assert (with_zero.lam, with_zero.gamma) == (without.lam, without.gamma)

    def test_the_cv_table_keeps_the_grid_order(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "cv"
        data.mkdir()
        out.mkdir()
        assert main(["simulate", "--out-dir", str(data), "--seed", "5", "--n-samples", "60"]) == 0
        assert main(["cv", "--method", "gflasso", "--x", str(data / "X.csv"), "--y", str(data / "Y.csv"),
                     "--out-dir", str(out), "--lambdas", "0.1,3,0.01,1", "--gammas", "1,0.1", "--holdout", "20"]) == 0
        doc = json.loads((out / "cv.json").read_text())
        assert [(row["lambda"], row["gamma"]) for row in doc["table"]] == [
            (lam, gamma) for lam in (0.1, 3.0, 0.01, 1.0) for gamma in (1.0, 0.1)]
        assert all(row["converged"] for row in doc["table"])

    def test_warm_paths_take_fewer_iterations_than_cold_fits(self, tmp_path, monkeypatch):
        # the report_paper workload's command on the 6 datasets of its run seed 2; solver iterations are
        # deterministic, so warm starts must take strictly fewer in total and select the same points
        counted, fit = [], evaluate.fit_method

        def counting(*args, cold=False):
            result = fit(*args[:6], None if cold else args[6])
            counted.append(result.solution.iterations)
            return result

        totals, selections = {}, {}
        for cold in (False, True):
            monkeypatch.setattr(evaluate, "fit_method", lambda *args, cold=cold: counting(*args, cold=cold))
            counted.clear()
            for seed in range(2000, 2006):
                doc = run_report(tmp_path / f"{cold}{seed}", seed, "--threads", "1")
                selections.setdefault(seed, []).append(
                    {m: (v["lambda"], v["gamma"]) for m, v in doc["replicates"][0]["methods"].items()})
            totals[cold] = sum(counted)
        assert len(counted) == 6 * 18
        assert totals[False] < totals[True]
        assert all(warm == cold for warm, cold in selections.values())


def tiny_experiment(seed=0, rho=0.3, replicates=1, methods=("gflasso", "lasso")):
    return ExperimentConfig(
        sim=SimulationSpec(n_samples=40, n_inputs=15, n_outputs=6, signal=0.8, seed=seed, group_sizes=(3, 3),
                           inputs_per_group=(3, 3)),
        rho=rho,
        methods=methods,
        n_replicates=replicates,
        test_n=20,
        holdout=10,
        lambda_grid=(0.1, 1.0),
        gamma_grid=(0.1, 1.0),
        solver=FAST_SOLVER,
    )


class TestRunReplicates:
    def test_deterministic_report(self):
        config = tiny_experiment()
        a = run_replicates(config).to_json_dict()
        b = run_replicates(config).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_empty_graph_makes_methods_agree(self):
        config = tiny_experiment(seed=1, rho=0.99, replicates=2)
        report = run_replicates(config)
        for rep in report.replicates:
            assert rep["n_edges"] == 0
            diff = abs(rep["methods"]["gflasso"]["auc"] - rep["methods"]["lasso"]["auc"])
            assert diff < 0.01

    def test_one_replicate_builds_the_moments_once_per_split(self, monkeypatch):
        # the three methods share one build for the 30 training rows and one for all 40 rows
        builds = []
        build = Moments.from_data
        monkeypatch.setattr(Moments, "from_data", lambda X, Y: builds.append(X.shape[0]) or build(X, Y))
        report = run_replicates(tiny_experiment(methods=("gflasso", "lasso", "l1l2")))
        assert list(report.replicates[0]["methods"]) == ["gflasso", "lasso", "l1l2"]
        assert builds == [30, 40]

    def test_timing_excluded_by_default(self):
        report = run_replicates(tiny_experiment(seed=2))
        doc = report.to_json_dict()
        assert "timing" not in doc["methods"]["lasso"]
        assert not {"fit_s", "periter_s"} & set(doc["replicates"][0]["methods"]["lasso"])


REPORT_GRID = ",".join(repr(v) for v in DEFAULT_GRID[::4])  # 1e-3, 0.0599, 3.59


def run_report(out_dir, seed, *extra):
    """One replicate of ``gflasso report`` on the 3x3 grid of every fourth default value; returns report.json."""
    out_dir.mkdir()
    argv = ["report", "--out-dir", str(out_dir), "--replicates", "1", "--seed", str(seed), "--rho", "0.1", *extra,
            "--lambdas", REPORT_GRID, "--gammas", REPORT_GRID]
    assert main(argv) == 0, argv
    return json.loads((out_dir / "report.json").read_text())


class TestReportOnTheBenchmarkGrid:
    @pytest.mark.parametrize("seed, expected", [
        (4, (DEFAULT_GRID[8], DEFAULT_GRID[8])),
        (4005, (DEFAULT_GRID[4], DEFAULT_GRID[8])),
    ])
    def test_selection_matches_tight_solves(self, tmp_path, seed, expected):
        # the (lambda, gamma) that runs at mu = 1e-12 and tol 1e-12 select on this split; a fit stopped at the
        # smoothed loop's floor mu * D selected the other point of the same gamma
        doc = run_report(tmp_path / "out", seed, "--methods", "gflasso")
        chosen = doc["replicates"][0]["methods"]["gflasso"]
        assert (chosen["lambda"], chosen["gamma"]) == expected

    def test_benchmark_datasets_report_certified_fits_and_aucs_in_range(self, tmp_path, monkeypatch):
        # the report_paper workload's command on the datasets of its run seeds 0-2 (seed 1000 s + i, 6 per run):
        # it exits 0 with no failures, every gflasso grid point and refit is certified, and every AUC is in [0, 1]
        tables = []
        select = evaluate.select_regularization

        def recording_select(split, graph, method, grid, config):
            result = select(split, graph, method, grid, config)
            tables.append((method, result.table))
            return result

        monkeypatch.setattr(evaluate, "select_regularization", recording_select)
        # plus dataset 2 of run seed 10, whose gflasso fit ranks the support perfectly: its AUC summed past 1
        for seed in [*(1000 * s + i for s in range(3) for i in range(6)), 10002]:
            tables.clear()
            doc = run_report(tmp_path / str(seed), seed, "--threads", "1")
            assert doc["failures"] == [], seed
            rep = doc["replicates"][0]["methods"]
            assert rep["gflasso"]["converged"], seed
            gflasso_rows = [row for method, table in tables if method == "gflasso" for row in table]
            assert len(gflasso_rows) == 9 and all(row["converged"] for row in gflasso_rows), (seed, gflasso_rows)
            for method in ("gflasso", "lasso", "l1l2"):
                aucs = (rep[method]["auc"], doc["methods"][method]["auc"]["mean"])
                assert all(0.0 <= a <= 1.0 for a in aucs), (seed, method, aucs)


class TestBenchmark:
    def test_rho_sweep_edge_counts_non_increasing(self):
        rows = run_benchmark(
            "rho",
            [0.1, 0.3, 0.5, 0.7],
            n_samples=60,
            n_inputs=20,
            n_outputs=8,
            rho=0.5,
            lam=0.1,
            gamma=0.1,
            methods=("proxgrad",),
            config=SolverConfig(mu=1e-3, rel_obj_tol=1e-4, max_iters=200),
            seed=0,
        )
        edges = [r["n_edges"] for r in rows]
        assert edges == sorted(edges, reverse=True)

    def test_csv_header_golden(self):
        assert BENCH_CSV_HEADER == "axis,value,method,n_edges,iterations,converged,total_s,periter_s"
        rows = run_benchmark(
            "K",
            [4, 6],
            n_samples=40,
            n_inputs=15,
            n_outputs=6,
            rho=0.5,
            lam=0.1,
            gamma=0.1,
            methods=("proxgrad", "subgrad"),
            config=SolverConfig(mu=1e-3, rel_obj_tol=1e-4, max_iters=50),
            seed=0,
        )
        text = benchmark_csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        assert rows[0]["axis"] == "K" and rows[1]["method"] == "subgrad"

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark("Q", [1.0], 40, 15, 6, 0.5, 0.1, 0.1, ("proxgrad",), SolverConfig(), 0)


def test_roc_csv_text():
    from oracles import roc_csv_text

    rng = np.random.default_rng(8)
    B_true = (rng.random((6, 4)) < 0.4).astype(float)
    curve = roc_curve(rng.standard_normal((6, 4)), B_true)
    text = roc_csv_text({"gflasso": curve})
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,series"
    assert lines[1] == "0,0,gflasso"
    assert lines[-1] == "1,1,gflasso"
    assert len(lines) == 1 + len(curve.points)
