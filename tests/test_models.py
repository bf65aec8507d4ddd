import numpy as np
import pytest

from gflasso.graph import TaskGraph, build_correlation_graph, chain_graph
from gflasso.models import (
    GroupNorm,
    PenaltySpec,
    fit_fused_univariate,
    fit_gflasso,
    fit_group_l1l2,
    fit_lasso,
    objective_gflasso,
)
from gflasso.simulate import SimulationSpec, simulate_dataset
from gflasso.solver import CHECK_EVERY, Moments, SolverConfig, solve

from oracles import center_columns, ista_lasso, largest_eigenvalue


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
        a = fit_gflasso(Moments.from_data(X, Y), g, PenaltySpec(lam=0.3, gamma=0.0), config)
        b = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.3), config)
        assert np.linalg.norm(a.solution.B_hat - b.solution.B_hat) < 1e-5

    def test_empty_graph_matches_lasso(self):
        X, Y = make_problem(6)
        g = build_correlation_graph(Y, 0.99)
        assert g.n_edges == 0
        config = SolverConfig(rel_obj_tol=1e-8)
        a = fit_gflasso(Moments.from_data(X, Y), g, PenaltySpec(lam=0.3, gamma=0.8), config)
        b = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.3), config)
        assert np.linalg.norm(a.solution.B_hat - b.solution.B_hat) < 1e-5

    def test_fused_univariate_gamma_zero_matches_lasso(self):
        X, Y = make_problem(7, k=1)
        config = SolverConfig(rel_obj_tol=1e-16, max_iters=4000)
        a = fit_fused_univariate(Moments.from_data(X, Y), chain_graph(6), lam=0.3, gamma=0.0, config=config)
        b = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.3), config)
        assert np.linalg.norm(a.solution.B_hat - b.solution.B_hat) < 1e-5


def fits_without_fusion_term(X, Y, lam, config):
    """(name, fit) of each fit whose penalty is lam * ||B||_1 alone: lasso, gflasso at gamma = 0, fused at gamma = 0."""
    data = Moments.from_data(X, Y)
    yield "lasso", fit_lasso(data, PenaltySpec(lam=lam), config)
    yield "gflasso", fit_gflasso(data, build_correlation_graph(Y, 0.1), PenaltySpec(lam=lam, gamma=0.0), config)
    fused_data = Moments.from_data(X, Y[:, :1])
    yield "fused", fit_fused_univariate(fused_data, chain_graph(X.shape[1]), lam=lam, gamma=0.0, config=config)


class TestFitsWithoutFusionTerm:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("lam", [0.3, 3.0])
    def test_run_unsmoothed_and_certify_the_lasso_optimum(self, seed, lam):
        # smoothed, the mu * D floor stopped these fits 17-37x above tol * |F| and 1.5e-2-5.8e-2 from the optimum
        ds = simulate_dataset(SimulationSpec(seed=seed))
        config = SolverConfig()
        Xc, Yc = center_columns(ds.X)[0], center_columns(ds.Y)[0]
        ref = ista_lasso(Xc, Yc, lam)
        for name, fit in fits_without_fusion_term(ds.X, ds.Y, lam, config):
            sol = fit.solution
            assert sol.mu_used == 0.0, name
            assert sol.stop_reason == "gap" and sol.gap <= config.rel_obj_tol * abs(sol.objective_exact), name
            expected = ref[:, :1] if name == "fused" else ref
            assert np.abs(sol.B_hat - expected).max() <= 1e-3, name

    def test_edgeless_gflasso_runs_the_lasso(self):
        X, Y = make_problem(6)
        g = build_correlation_graph(Y, 0.99)
        assert g.n_edges == 0
        config = SolverConfig(rel_obj_tol=1e-8)
        a = fit_gflasso(Moments.from_data(X, Y), g, PenaltySpec(lam=0.3, gamma=0.8), config).solution
        b = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.3), config).solution
        assert a.mu_used == 0.0 and np.array_equal(a.B_hat, b.B_hat)


class TestFitsWithFusionTerm:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_lam_past_the_kkt_threshold_certifies_an_exact_zero(self, seed):
        # lam goes through the soft threshold, never the smoothing: past max |X^T Y| the iterates stay
        # exactly 0, the certificate closes, and L = lam_max + ||gamma H||^2 / mu does not see lam
        ds = simulate_dataset(SimulationSpec(seed=seed))
        data, graph, config = Moments.from_data(ds.X, ds.Y), build_correlation_graph(ds.Y, 0.1), SolverConfig()
        lam = 1.01 * float(np.abs(data.XtY).max())
        sol = fit_gflasso(data, graph, PenaltySpec(lam=lam, gamma=1.0), config).solution
        ref = fit_gflasso(data, graph, PenaltySpec(lam=0.1, gamma=1.0), config).solution
        assert graph.n_edges and sol.mu_used > 0
        assert not sol.B_hat.any()
        assert (sol.gap, sol.stop_reason) == (0.0, "gap")
        assert sol.lipschitz_used == ref.lipschitz_used


class TestFitLasso:
    def test_no_penalty_is_least_squares(self):
        X, Y = make_problem(8)
        # the lasso runs unsmoothed, so rel_obj_tol alone sets how close the fit gets
        fit = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.0), SolverConfig(rel_obj_tol=1e-12))
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        B_ls = np.linalg.solve(Xc.T @ Xc, Xc.T @ Yc)
        assert np.linalg.norm(fit.solution.B_hat - B_ls) < 1e-6

    def test_orthonormal_design_soft_threshold(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        Y = rng.standard_normal((40, 2))
        # center without destroying orthonormality: columns of Q already ~centered
        Q = Q - Q.mean(axis=0)
        ortho, _ = np.linalg.qr(Q)
        Y = Y - Y.mean(axis=0)
        lam = 0.5
        # certified to gap <= 1e-13 |F|, |F| < 50, on a 1-strongly convex F: within sqrt(2 gap) < 1e-5 of ref
        config = SolverConfig(rel_obj_tol=1e-13, max_iters=200000)
        fit = fit_lasso(Moments.from_data(ortho, Y), PenaltySpec(lam=lam), config)
        ref = np.sign(ortho.T @ Y) * np.maximum(np.abs(ortho.T @ Y) - lam, 0.0)
        assert fit.solution.converged and abs(fit.solution.objective_exact) < 50
        assert np.abs(fit.solution.B_hat - ref).max() < 1e-5

    def test_zero_above_kkt_threshold(self):
        X, Y = make_problem(10)
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        lam = 1.5 * float(np.abs(Xc.T @ Yc).max())
        fit = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=lam), SolverConfig(rel_obj_tol=1e-10))
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
        fit = fit_group_l1l2(Moments.from_data(X, Y), 0.0, SolverConfig(rel_obj_tol=1e-14, max_iters=100000))
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        B_ls = np.linalg.solve(Xc.T @ Xc, Xc.T @ Yc)
        assert np.linalg.norm(fit.solution.B_hat - B_ls) < 1e-6

    def test_huge_penalty_zeroes_everything(self):
        X, Y = self._problem()
        fit = fit_group_l1l2(Moments.from_data(X, Y), 1e4, SolverConfig(rel_obj_tol=1e-12))
        assert np.abs(fit.solution.B_hat).max() == 0.0

    def test_against_long_run_subgradient_oracle(self):
        # frozen reference from tests/oracles.subgradient_group_rows with 1e7
        # steps on this exact instance; regenerate with: python tests/oracles.py
        GROUP_L1L2_OBJ = 1.5571420417290924
        X, Y = self._problem()
        fit = fit_group_l1l2(Moments.from_data(X, Y), 0.8, SolverConfig(rel_obj_tol=1e-14, max_iters=200000))
        assert fit.solution.objective_exact == pytest.approx(GROUP_L1L2_OBJ, rel=1e-4)
        assert fit.solution.objective_exact <= GROUP_L1L2_OBJ + 1e-9

    def test_rows_die_jointly(self):
        X, Y = self._problem()
        fit = fit_group_l1l2(Moments.from_data(X, Y), 2.0, SolverConfig(rel_obj_tol=1e-12))
        row_norms = np.linalg.norm(fit.solution.B_hat, axis=1)
        # a row is either fully zero or fully active
        for j, nrm in enumerate(row_norms):
            if nrm == 0.0:
                assert np.all(fit.solution.B_hat[j] == 0.0)


class TestGroupNorm:
    def test_prox_zero_row_stays_zero(self):
        out = GroupNorm(0.5, 2).prox_map(1.0)(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])

    def test_prox_row_inside_the_ball_maps_to_zero(self):
        # ||v|| = 5 <= lam * step = 2 * 2.5
        out = GroupNorm(2.0, 2).prox_map(2.5)(np.array([[3.0, 4.0], [-3.0, 4.0]]))
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_prox_shrinks_other_rows_toward_zero(self):
        V = np.random.default_rng(5).standard_normal((6, 3)) * 3.0
        lam, step = 0.7, 0.4
        out = GroupNorm(lam, 3).prox_map(step)(V)
        assert np.array_equal(out, GroupNorm(lam, 3).prox_map(np.full(V.shape, step))(V))
        for v, o in zip(V, out):
            nrm = np.linalg.norm(v)
            assert nrm > lam * step
            assert o == pytest.approx((1.0 - lam * step / nrm) * v, rel=1e-14, abs=1e-15)

    def test_width_one_prox_is_the_soft_threshold(self):
        V = np.random.default_rng(8).standard_normal((7, 4))
        out = GroupNorm(0.6, 1).prox_map(0.5)(V)
        assert np.array_equal(out == 0.0, np.abs(V) <= 0.3)
        assert out == pytest.approx(np.sign(V) * np.maximum(np.abs(V) - 0.3, 0.0), rel=1e-15, abs=1e-16)

    @pytest.mark.parametrize("shape", [(1, 4), (7, 1)], ids=["per column", "per row"])
    def test_soft_threshold_takes_one_step_per_column_or_row(self, shape):
        # each column (row) of V is thresholded as the scalar-step map does at its own step
        V = np.random.default_rng(11).standard_normal((7, 4))
        step = np.linspace(0.2, 0.8, max(shape)).reshape(shape)
        out = GroupNorm(0.6, 1).prox_map(step)(V)
        expected = np.broadcast_to(step, V.shape)
        for idx in np.ndindex(V.shape):
            assert out[idx] == GroupNorm(0.6, 1).prox_map(expected[idx])(V[idx])
        assert GroupNorm(0.0, 1).prox_map(step)(V) is V

    @pytest.mark.parametrize("width", [1, 3])
    def test_prox_map_takes_one_step_per_group(self, width):
        # each group of V is shrunk at its row's threshold t_j = lam step_j; the steps come at V's full shape
        V = np.random.default_rng(13).standard_normal((7, 3))
        V[2] = 0.0
        step = np.repeat(np.linspace(0.2, 3.0, 7)[:, None], 3, axis=1)
        out = GroupNorm(0.6, width).prox_map(step)(V)
        for j in range(7):
            for g in range(0, 3, width):
                v, t = V[j, g:g + width], 0.6 * step[j, 0]
                nrm = float(np.sqrt(np.sum(v * v)))
                expected = v * max(0.0, 1.0 - t / nrm) if nrm > 0 else v
                assert out[j, g:g + width] == pytest.approx(expected, rel=1e-14, abs=1e-15)
        assert np.array_equal(out[2], np.zeros(3)) and np.isfinite(out).all()
        assert 0 < np.count_nonzero(out.reshape(-1, width).any(axis=1)) < 7 * 3 // width
        assert GroupNorm(0.0, width).prox_map(step)(V) is V

    @pytest.mark.parametrize("width", [1, 3])
    def test_dual_terms_at_lam_zero_take_the_zero_point(self, width):
        # the lam-ball is {0}: A = 0 even on a zero row of g, where lam / ||g|| would be 0 / 0
        g = np.random.default_rng(14).standard_normal((4, 3))
        g[1] = 0.0
        pen, slack, A, _ = GroupNorm(0.0, width).dual_terms(np.ones((4, 3)), g, 0.0)
        assert np.array_equal(A, np.zeros((4, 3))) and (pen, slack) == (0.0, 0.0)

    @pytest.mark.parametrize("width", [1, 3])
    def test_prox_at_lam_zero_is_the_identity(self, width):
        V = np.random.default_rng(9).standard_normal((5, 3))
        V[1] = 0.0
        assert GroupNorm(0.0, width).prox_map(0.5)(V) is V

    def test_penalty_exact_sums_row_norms(self):
        B = np.random.default_rng(6).standard_normal((5, 3))
        expected = 1.3 * sum(np.linalg.norm(B[j]) for j in range(5))
        assert GroupNorm(1.3, 3).penalty_exact(B) == pytest.approx(expected, rel=1e-14)
        assert GroupNorm(1.3, 1).penalty_exact(B) == pytest.approx(1.3 * np.abs(B).sum(), rel=1e-14)

    def test_l1_factor_bounds_the_penalty_by_the_l1_norm(self):
        B = np.random.default_rng(10).standard_normal((5, 4))
        assert GroupNorm(1.3, 1).l1_factor == 1.3
        for width in (1, 2, 4):
            norm = GroupNorm(1.3, width)
            assert norm.penalty_exact(B) >= norm.l1_factor * np.abs(B).sum()

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_rejects_bad_lam(self, lam):
        with pytest.raises(ValueError, match=f"^lam must be finite and non-negative, got lam={lam}$"):
            GroupNorm(lam, 2)

    @pytest.mark.parametrize("width", [1, 3])
    def test_dual_terms_point_lies_in_the_lam_ball(self, width):
        rng = np.random.default_rng(7)
        B, g_loss = rng.standard_normal((6, 3)), 2.0 * rng.standard_normal((6, 3))
        pen, slack, A, stage_pen = GroupNorm(1.1, width).dual_terms(B, g_loss, 0.0)
        assert A.shape == B.shape
        assert np.linalg.norm(A.reshape(-1, width), axis=1).max() <= 1.1 * (1 + 1e-15)
        assert pen == stage_pen == GroupNorm(1.1, width).penalty_exact(B)
        assert slack >= 0.0

    def test_dual_terms_with_a_fusion_term_take_the_sign_on_the_support(self):
        # mu > 0: lam * sign(B) on the support, the projection of -g elsewhere; the slack is exactly 0
        rng = np.random.default_rng(12)
        B, g = rng.standard_normal((6, 3)) * (rng.random((6, 3)) < 0.5), 2.0 * rng.standard_normal((6, 3))
        pen, slack, A, stage_pen = GroupNorm(1.1, 1).dual_terms(B, g, 1e-3)
        assert np.array_equal(A, np.where(B != 0, 1.1 * np.sign(B), -np.clip(g, -1.1, 1.1)))
        assert (pen, slack, stage_pen) == (GroupNorm(1.1, 1).penalty_exact(B), 0.0, pen)

    def test_solve_runs_it_unsmoothed_and_matches_the_model(self):
        # unsmoothed, row j steps by 1 / (L_s d_j): lipschitz_used is max_j L_s d_j, d = diag(X^T X) and
        # L_s = (1 + 1e-6) lam_max(D^-1/2 X^T X D^-1/2)
        X, Y = make_problem(11)
        Xc, _ = center_columns(X)
        config = SolverConfig(rel_obj_tol=1e-10)
        sol = solve(Moments.from_data(X, Y), config, GroupNorm(0.8, 3))
        assert sol.mu_used == 0.0
        d = np.diag(Xc.T @ Xc)
        L_s = (1.0 + 1e-6) * largest_eigenvalue(Xc.T @ Xc / np.sqrt(np.outer(d, d)))
        assert sol.lipschitz_used == pytest.approx(L_s * d.max(), rel=1e-12)
        assert np.array_equal(sol.B_hat, fit_group_l1l2(Moments.from_data(X, Y), 0.8, config).solution.B_hat)


class TestFitFusedUnivariate:
    def test_constant_fit_limit_on_chain(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 4))
        beta = np.array([0.5, 0.9, 0.2, -0.3])
        y = X @ beta + 0.2 * rng.standard_normal(15)
        # the fit stops at gap <= mu * D; this mu makes that finer than the 1e-3 comparison
        config = SolverConfig(mu=2e-7, rel_obj_tol=1e-14, max_iters=400000)
        fit = fit_fused_univariate(Moments.from_data(X, y[:, None]), chain_graph(4), lam=0.0, gamma=10.0, config=config)
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
        joint = fit_gflasso(Moments.from_data(X, Y), g, PenaltySpec(lam=0.2, gamma=0.3), config).solution
        rows = [fit_fused_univariate(Moments.from_data(Xf, Xf @ z[:, None]), g, 0.2, 0.3, config).solution for z in Z]
        assert [joint.iterations] + [r.iterations for r in rows] == [CHECK_EVERY] * (j + 1)
        assert np.abs(joint.B_hat - np.vstack([r.B_hat[:, 0] for r in rows])).max() <= 1e-10
        offset = 0.5 * float(np.vdot(Yc - X @ Z, Yc - X @ Z))
        assert joint.objective_exact == pytest.approx(offset + sum(r.objective_exact for r in rows), rel=1e-12)

    def test_rejects_mismatched_graph(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        with pytest.raises(ValueError):
            fit_fused_univariate(Moments.from_data(X, X[:, :1]), chain_graph(3), 0.1, 0.1, SolverConfig())

    def test_rejects_more_than_one_response(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        with pytest.raises(ValueError, match="single-column response, got 2 columns"):
            fit_fused_univariate(Moments.from_data(X, X[:, :2]), chain_graph(4), 0.1, 0.1, SolverConfig())


class TestSignSemantics:
    def test_negative_correlation_fuses_with_opposite_signs(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 4))
        beta = np.array([1.0, 0.0, -0.6, 0.0])
        y1 = X @ beta + 0.1 * rng.standard_normal(30)
        Y = np.column_stack([y1, -y1 + 0.1 * rng.standard_normal(30)])
        g = build_correlation_graph(Y, 0.5)
        assert g.edges[0][2] < 0  # anti-correlated pair
        config = SolverConfig(max_iters=20000)
        fit = fit_gflasso(Moments.from_data(X, Y), g, PenaltySpec(lam=0.1, gamma=1000.0), config)
        B = fit.solution.B_hat
        assert np.abs(B[:, 0] + B[:, 1]).max() <= 1e-3


class TestFitResult:
    def test_objective_recompute_matches(self):
        X, Y = make_problem(12)
        g = build_correlation_graph(Y, 0.2)
        spec = PenaltySpec(lam=0.3, gamma=0.4)
        fit = fit_gflasso(Moments.from_data(X, Y), g, spec, SolverConfig(max_iters=2000, rel_obj_tol=1e-8))
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        recomputed = objective_gflasso(Xc, Yc, fit.solution.B_hat, g, spec)
        assert recomputed == pytest.approx(fit.solution.objective_exact, abs=1e-10)

    def test_solution_never_worse_than_zero(self):
        X, Y = make_problem(13)
        g = build_correlation_graph(Y, 0.2)
        config = SolverConfig(max_iters=5000, rel_obj_tol=1e-8)
        fit = fit_gflasso(Moments.from_data(X, Y), g, PenaltySpec(lam=0.5, gamma=0.5), config)
        _, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        assert fit.solution.objective_exact <= 0.5 * float(np.vdot(Yc, Yc)) + 1e-9

    def test_predict_uses_stored_centering(self):
        X, Y = make_problem(14)
        fit = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.2), SolverConfig(max_iters=2000, rel_obj_tol=1e-8))
        pred = fit.predict(X)
        expected = (X - fit.x_mean) @ fit.solution.B_hat + fit.y_mean
        assert np.allclose(pred, expected)
        with pytest.raises(ValueError):
            fit.predict(X[:, :3])

    def test_json_dict_has_no_wall_clock(self):
        X, Y = make_problem(15)
        fit = fit_lasso(Moments.from_data(X, Y), PenaltySpec(lam=0.2), SolverConfig(max_iters=500, rel_obj_tol=1e-8))
        doc = fit.to_json_dict()
        assert doc["model"] == "lasso"
        assert "runtime" not in " ".join(doc.keys())

    def test_penalty_spec_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(lam=-0.1)
