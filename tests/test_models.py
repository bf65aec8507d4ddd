import numpy as np
import pytest

from gflasso.graph import TaskGraph, build_correlation_graph, chain_graph
from gflasso.models import (
    PenaltySpec,
    RowGroupNorm,
    center_columns,
    fit_fused_univariate,
    fit_gflasso,
    fit_group_l1l2,
    fit_lasso,
    objective_gflasso,
)
from gflasso.solver import CHECK_EVERY, SolverConfig, solve

from oracles import largest_eigenvalue


def make_problem(seed, n=40, j=6, k=3, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, j)) + rng.uniform(-1, 1, size=j)
    B_true = rng.standard_normal((j, k)) * (rng.random((j, k)) < 0.5)
    Y = X @ B_true + noise * rng.standard_normal((n, k))
    return X, Y


class TestObjective:
    def test_zero_coefficients(self):
        X, Y = make_problem(0)
        g = build_correlation_graph(Y, 0.3)
        spec = PenaltySpec(lam=0.5, gamma=0.5)
        assert objective_gflasso(X, Y, np.zeros((6, 3)), g, spec) == pytest.approx(0.5 * np.vdot(Y, Y))

    def test_no_penalty_is_half_squared_residual(self):
        X, Y = make_problem(1)
        g = TaskGraph(3)
        B = np.random.default_rng(2).standard_normal((6, 3))
        resid = Y - X @ B
        assert objective_gflasso(X, Y, B, g, PenaltySpec(0.0, 0.0)) == pytest.approx(0.5 * np.vdot(resid, resid))

    def test_matches_operator_codepath(self):
        from gflasso.smoothing import FusionOperator

        X, Y = make_problem(3)
        g = build_correlation_graph(Y, 0.2)
        spec = PenaltySpec(lam=0.4, gamma=0.7)
        op = FusionOperator.from_graph(g, lam=spec.lam, gamma=spec.gamma, n_inputs=6)
        B = np.random.default_rng(4).standard_normal((6, 3))
        resid = Y - X @ B
        via_op = 0.5 * float(np.vdot(resid, resid)) + op.penalty_exact(B)
        assert objective_gflasso(X, Y, B, g, spec) == pytest.approx(via_op, abs=1e-10)


class TestDegeneracyLattice:
    def test_gamma_zero_matches_lasso(self):
        X, Y = make_problem(5)
        g = build_correlation_graph(Y, 0.2)
        config = SolverConfig(rel_obj_tol=1e-8)
        a = fit_gflasso(X, Y, g, PenaltySpec(lam=0.3, gamma=0.0), config)
        b = fit_lasso(X, Y, PenaltySpec(lam=0.3), config)
        assert np.linalg.norm(a.solution.B_hat - b.solution.B_hat) < 1e-5

    def test_empty_graph_matches_lasso(self):
        X, Y = make_problem(6)
        g = build_correlation_graph(Y, 0.99)
        assert g.n_edges == 0
        config = SolverConfig(rel_obj_tol=1e-8)
        a = fit_gflasso(X, Y, g, PenaltySpec(lam=0.3, gamma=0.8), config)
        b = fit_lasso(X, Y, PenaltySpec(lam=0.3), config)
        assert np.linalg.norm(a.solution.B_hat - b.solution.B_hat) < 1e-5

    def test_fused_univariate_gamma_zero_matches_lasso(self):
        X, Y = make_problem(7, k=1)
        config = SolverConfig(rel_obj_tol=1e-16, max_iters=4000)
        a = fit_fused_univariate(X, Y[:, 0], chain_graph(6), lam=0.3, gamma=0.0, config=config)
        b = fit_lasso(X, Y, PenaltySpec(lam=0.3), config)
        assert np.linalg.norm(a.solution.B_hat - b.solution.B_hat) < 1e-5


class TestFitLasso:
    def test_no_penalty_is_least_squares(self):
        X, Y = make_problem(8)
        # with lam = 0, mu only sets the gap floor mu * D; a tiny mu lets the fit reach rel_obj_tol
        fit = fit_lasso(X, Y, PenaltySpec(lam=0.0), SolverConfig(mu=1e-12, rel_obj_tol=1e-12))
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        B_ls = np.linalg.solve(Xc.T @ Xc, Xc.T @ Yc)
        assert np.linalg.norm(fit.solution.B_hat - B_ls) < 1e-5

    def test_orthonormal_design_soft_threshold(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        Y = rng.standard_normal((40, 2))
        # center without destroying orthonormality: columns of Q already ~centered
        Q = Q - Q.mean(axis=0)
        ortho, _ = np.linalg.qr(Q)
        Y = Y - Y.mean(axis=0)
        lam = 0.5
        # certified to gap <= mu * D with D = 5 on a 1-strongly convex F: within sqrt(2 mu D) = 2e-3 of ref
        fit = fit_lasso(ortho, Y, PenaltySpec(lam=lam), SolverConfig(mu=4e-7, rel_obj_tol=1e-13, max_iters=200000))
        ref = np.sign(ortho.T @ Y) * np.maximum(np.abs(ortho.T @ Y) - lam, 0.0)
        assert np.abs(fit.solution.B_hat - ref).max() < 2e-3

    def test_zero_above_kkt_threshold(self):
        X, Y = make_problem(10)
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        lam = 1.5 * float(np.abs(Xc.T @ Yc).max())
        fit = fit_lasso(X, Y, PenaltySpec(lam=lam), SolverConfig(rel_obj_tol=1e-10))
        assert np.abs(fit.solution.B_hat).max() < 1e-5


class TestFitGroupL1L2:
    def _problem(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((12, 4))
        B_true = np.array([[1.0, -0.5], [0.0, 0.0], [0.6, 0.6], [0.0, 0.0]])
        Y = X @ B_true + 0.1 * rng.standard_normal((12, 2))
        return X, Y

    def test_no_penalty_is_least_squares(self):
        X, Y = self._problem()
        fit = fit_group_l1l2(X, Y, 0.0, SolverConfig(rel_obj_tol=1e-14, max_iters=100000))
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        B_ls = np.linalg.solve(Xc.T @ Xc, Xc.T @ Yc)
        assert np.linalg.norm(fit.solution.B_hat - B_ls) < 1e-6

    def test_huge_penalty_zeroes_everything(self):
        X, Y = self._problem()
        fit = fit_group_l1l2(X, Y, 1e4, SolverConfig(rel_obj_tol=1e-12))
        assert np.abs(fit.solution.B_hat).max() == 0.0

    def test_against_long_run_subgradient_oracle(self):
        # frozen reference from tests/oracles.subgradient_group_rows with 1e7
        # steps on this exact instance; regenerate with: python tests/oracles.py
        GROUP_L1L2_OBJ = 1.5571420417290924
        X, Y = self._problem()
        fit = fit_group_l1l2(X, Y, 0.8, SolverConfig(rel_obj_tol=1e-14, max_iters=200000))
        assert fit.solution.objective_exact == pytest.approx(GROUP_L1L2_OBJ, rel=1e-4)
        assert fit.solution.objective_exact <= GROUP_L1L2_OBJ + 1e-9

    def test_rows_die_jointly(self):
        X, Y = self._problem()
        fit = fit_group_l1l2(X, Y, 2.0, SolverConfig(rel_obj_tol=1e-12))
        row_norms = np.linalg.norm(fit.solution.B_hat, axis=1)
        # a row is either fully zero or fully active
        for j, nrm in enumerate(row_norms):
            if nrm == 0.0:
                assert np.all(fit.solution.B_hat[j] == 0.0)


class TestRowGroupNorm:
    def test_prox_zero_row_stays_zero(self):
        out = RowGroupNorm(0.5).prox(np.array([[0.0, 0.0], [3.0, 4.0]]), 1.0)
        assert np.array_equal(out[0], [0.0, 0.0])

    def test_prox_row_inside_the_ball_maps_to_zero(self):
        # ||v|| = 5 <= lam * step = 2 * 2.5
        out = RowGroupNorm(2.0).prox(np.array([[3.0, 4.0], [-3.0, 4.0]]), 2.5)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_prox_shrinks_other_rows_toward_zero(self):
        V = np.random.default_rng(5).standard_normal((6, 3)) * 3.0
        lam, step = 0.7, 0.4
        out = RowGroupNorm(lam).prox(V, step)
        for v, o in zip(V, out):
            nrm = np.linalg.norm(v)
            assert nrm > lam * step
            assert o == pytest.approx((1.0 - lam * step / nrm) * v, rel=1e-14, abs=1e-15)

    def test_penalty_exact_sums_row_norms(self):
        B = np.random.default_rng(6).standard_normal((5, 3))
        expected = 1.3 * sum(np.linalg.norm(B[j]) for j in range(5))
        assert RowGroupNorm(1.3).penalty_exact(B) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_rejects_bad_lam(self, lam):
        with pytest.raises(ValueError, match="lam and gamma must be finite and non-negative"):
            RowGroupNorm(lam)

    def test_dual_terms_point_lies_in_the_lam_ball(self):
        rng = np.random.default_rng(7)
        B, g_loss = rng.standard_normal((6, 3)), 2.0 * rng.standard_normal((6, 3))
        pen, slack, A, stage_pen = RowGroupNorm(1.1).dual_terms(B, g_loss, 0.0)
        assert np.linalg.norm(A, axis=1).max() <= 1.1 * (1 + 1e-15)
        assert pen == stage_pen == RowGroupNorm(1.1).penalty_exact(B)
        assert slack >= 0.0

    def test_solve_runs_it_unsmoothed_and_matches_the_model(self):
        X, Y = make_problem(11)
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        config = SolverConfig(rel_obj_tol=1e-10)
        sol = solve(Xc, Yc, config, RowGroupNorm(0.8))
        assert sol.mu_used == 0.0
        assert sol.lipschitz_used == largest_eigenvalue(Xc.T @ Xc)
        assert np.array_equal(sol.B_hat, fit_group_l1l2(X, Y, 0.8, config).solution.B_hat)


class TestFitFusedUnivariate:
    def test_constant_fit_limit_on_chain(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 4))
        beta = np.array([0.5, 0.9, 0.2, -0.3])
        y = X @ beta + 0.2 * rng.standard_normal(15)
        fit = fit_fused_univariate(
            X, y, chain_graph(4), lam=0.0, gamma=10.0, config=SolverConfig(mu=2e-7, rel_obj_tol=1e-14, max_iters=400000)
        )  # the fit stops at gap <= mu * D; this mu makes that finer than the 1e-3 comparison
        b = fit.solution.B_hat[:, 0]
        Xc, _ = center_columns(X)
        yc = y - y.mean()
        z = Xc.sum(axis=1)
        c_star = float(z @ yc / (z @ z))
        assert np.abs(b - c_star).max() <= 1e-3

    def test_rows_of_orthonormal_gflasso_fit(self):
        # With centered orthonormal designs both objectives separate: a
        # gflasso fit over K tasks (K <= J: dense C) is J univariate fused
        # fits over K covariates (1 x K rows: edge arrays), one per row of
        # Z = X^T Y, up to the constant (1/2) ||Y - X Z||^2. Both see the
        # same Lipschitz bound, so over a fixed iteration count the joint
        # iterates are the stacked row iterates up to rounding. The count is
        # one check interval: its one check falls at the cap, so no stop or
        # restart decision (each reads its own fit's objective) can differ.
        rng = np.random.default_rng(23)
        n, j, k = 30, 6, 4
        X = np.linalg.qr(center_columns(rng.standard_normal((n, j)))[0])[0]
        Xf = np.linalg.qr(center_columns(rng.standard_normal((n, k)))[0])[0]
        Y = X @ (rng.standard_normal((j, k)) * (rng.random((j, k)) < 0.6)) + 0.2 * rng.standard_normal((n, k))
        Yc = center_columns(Y)[0]
        Z = X.T @ Yc
        g = TaskGraph(k, ((1, 2, 0.8), (1, 3, -0.6), (2, 4, 0.5)))
        config = SolverConfig(rel_obj_tol=1e-300, max_iters=CHECK_EVERY)
        joint = fit_gflasso(X, Y, g, PenaltySpec(lam=0.2, gamma=0.3), config).solution
        rows = [fit_fused_univariate(Xf, Xf @ z, g, lam=0.2, gamma=0.3, config=config).solution for z in Z]
        assert [joint.iterations] + [r.iterations for r in rows] == [CHECK_EVERY] * (j + 1)
        assert np.abs(joint.B_hat - np.vstack([r.B_hat[:, 0] for r in rows])).max() <= 1e-10
        offset = 0.5 * float(np.vdot(Yc - X @ Z, Yc - X @ Z))
        assert joint.objective_exact == pytest.approx(offset + sum(r.objective_exact for r in rows), rel=1e-12)

    def test_rejects_mismatched_graph(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        with pytest.raises(ValueError):
            fit_fused_univariate(X, X[:, 0], chain_graph(3), 0.1, 0.1, SolverConfig())


class TestSignSemantics:
    def test_negative_correlation_fuses_with_opposite_signs(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 4))
        beta = np.array([1.0, 0.0, -0.6, 0.0])
        y1 = X @ beta + 0.1 * rng.standard_normal(30)
        Y = np.column_stack([y1, -y1 + 0.1 * rng.standard_normal(30)])
        g = build_correlation_graph(Y, 0.5)
        assert g.edges[0][2] < 0  # anti-correlated pair
        fit = fit_gflasso(X, Y, g, PenaltySpec(lam=0.1, gamma=1000.0), SolverConfig(max_iters=20000))
        B = fit.solution.B_hat
        assert np.abs(B[:, 0] + B[:, 1]).max() <= 1e-3


class TestFitResult:
    def test_objective_recompute_matches(self):
        X, Y = make_problem(12)
        g = build_correlation_graph(Y, 0.2)
        spec = PenaltySpec(lam=0.3, gamma=0.4)
        fit = fit_gflasso(X, Y, g, spec, SolverConfig(max_iters=2000, rel_obj_tol=1e-8))
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        recomputed = objective_gflasso(Xc, Yc, fit.solution.B_hat, g, spec)
        assert recomputed == pytest.approx(fit.solution.objective_exact, abs=1e-10)

    def test_solution_never_worse_than_zero(self):
        X, Y = make_problem(13)
        g = build_correlation_graph(Y, 0.2)
        fit = fit_gflasso(X, Y, g, PenaltySpec(lam=0.5, gamma=0.5), SolverConfig(max_iters=5000, rel_obj_tol=1e-8))
        _, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        assert fit.solution.objective_exact <= 0.5 * float(np.vdot(Yc, Yc)) + 1e-9

    def test_predict_uses_stored_centering(self):
        X, Y = make_problem(14)
        fit = fit_lasso(X, Y, PenaltySpec(lam=0.2), SolverConfig(max_iters=2000, rel_obj_tol=1e-8))
        pred = fit.predict(X)
        expected = (X - fit.x_mean) @ fit.solution.B_hat + fit.y_mean
        assert np.allclose(pred, expected)
        with pytest.raises(ValueError):
            fit.predict(X[:, :3])

    def test_json_dict_has_no_wall_clock(self):
        X, Y = make_problem(15)
        fit = fit_lasso(X, Y, PenaltySpec(lam=0.2), SolverConfig(max_iters=500, rel_obj_tol=1e-8))
        doc = fit.to_json_dict()
        assert doc["model"] == "lasso"
        assert "runtime" not in " ".join(doc.keys())

    def test_penalty_spec_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(lam=-0.1)
