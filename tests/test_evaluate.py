import dataclasses
import json

import numpy as np
import pytest

from gflasso.errors import DegenerateInputError
from gflasso.evaluate import (
    BENCH_CSV_HEADER,
    ExperimentConfig,
    benchmark_csv_text,
    prediction_error,
    roc_curve,
    run_benchmark,
    run_replicates,
    select_regularization,
)
from gflasso.models import PenaltySpec, fit_lasso
from gflasso.simulate import SimulationSpec, simulate_dataset
from gflasso.solver import SolverConfig

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
        return fit_lasso(X, Y, PenaltySpec(lam=0.01), FAST_SOLVER), X, Y

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
        sel = select_regularization(X, Y, None, "lasso", [(0.3, 0.0)], holdout=30, config=FAST_SOLVER)
        assert (sel.lam, sel.gamma) == (0.3, 0.0)

    def test_pure_noise_prefers_largest_lambda(self):
        hits = 0
        grid = [(l, 0.0) for l in (0.01, 0.1, 1.0, 10.0)]
        for seed in range(5):
            X, Y = self._data(seed, pure_noise=True)
            sel = select_regularization(X, Y, None, "lasso", grid, holdout=30, config=FAST_SOLVER)
            hits += sel.lam == 10.0
        assert hits >= 3

    def test_dominated_points_do_not_change_selection(self):
        X, Y = self._data(3)
        grid = [(0.05, 0.0), (0.5, 0.0)]
        base = select_regularization(X, Y, None, "lasso", grid, holdout=30, config=FAST_SOLVER)
        mses = {row["lambda"]: row["val_mse"] for row in base.table}
        # add a point with clearly worse validation error than the winner
        worse = 1e6
        assert all(m < worse for m in mses.values())
        bigger = select_regularization(
            X, Y, None, "lasso", grid + [(1e6, 0.0)], holdout=30, config=FAST_SOLVER
        )
        assert (bigger.lam, bigger.gamma) == (base.lam, base.gamma) or mses[bigger.lam] <= min(mses.values())

    def test_tie_breaks_toward_larger_penalty(self):
        X, Y = self._data(4)
        # duplicate grid point forces an exact tie; larger lambda wins
        sel = select_regularization(X, Y, None, "lasso", [(0.2, 0.0), (0.2, 0.0)], holdout=30, config=FAST_SOLVER)
        assert sel.lam == 0.2

    def test_holdout_bounds(self):
        X, Y = self._data(5)
        with pytest.raises(ValueError):
            select_regularization(X, Y, None, "lasso", [(0.1, 0.0)], holdout=X.shape[0], config=FAST_SOLVER)


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

    def test_timing_excluded_by_default(self):
        report = run_replicates(tiny_experiment(seed=2))
        doc = report.to_json_dict()
        assert "timing" not in doc["methods"]["lasso"]
        assert not {"fit_s", "periter_s"} & set(doc["replicates"][0]["methods"]["lasso"])


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
