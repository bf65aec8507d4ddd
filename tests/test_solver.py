import numpy as np
import pytest

from gflasso.errors import NumericError
from gflasso.graph import TaskGraph, build_correlation_graph, chain_graph
from gflasso.models import PenaltySpec, RowGroupNorm, fit_gflasso
from gflasso.simulate import SimulationSpec, replicate_seed, simulate_dataset
from gflasso.smoothing import FusionOperator
from gflasso.solver import (
    CHECK_EVERY,
    SolverConfig,
    solve,
    subgradient_fit,
    trace_csv_text,
)

from oracles import (
    dense_fusion_matrix,
    ista_lasso,
    iteration_bound,
    largest_eigenvalue,
    objective_dense,
    smooth_objective_gradient,
    subgradient_dense,
)


def centered_problem(seed, n=20, j=4, k=2, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, j))
    B_true = rng.standard_normal((j, k))
    Y = X @ B_true + noise * rng.standard_normal((n, k))
    return X - X.mean(axis=0), Y - Y.mean(axis=0)


def empty_operator(j, k, lam=0.0):
    return FusionOperator.from_graph(TaskGraph(k), lam=lam, gamma=0.0, n_inputs=j)


class TestLargestEigenvalue:
    def test_identity(self):
        assert largest_eigenvalue(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert largest_eigenvalue(np.diag([1.0, 2.0, 5.0])) == pytest.approx(5.0, rel=1e-8)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 8))
        M = X.T @ X
        assert largest_eigenvalue(M) == pytest.approx(float(np.linalg.eigvalsh(M).max()), rel=1e-7)
        # planted: the all-ones vector spans the eigenspace of the smaller eigenvalue 1, not of 36
        assert largest_eigenvalue(np.array([[18.5, -17.5], [-17.5, 18.5]])) == pytest.approx(36.0, rel=1e-12)

    def test_zero_matrix(self):
        assert largest_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_non_finite_rejected(self):
        M = np.eye(3)
        M[0, 0] = np.nan
        with pytest.raises(NumericError):
            largest_eigenvalue(M)


class TestLipschitzUpper:
    # solve derives L = lam_max(X^T X) + norm_bound^2 / mu; one iteration is enough to read it back

    def test_no_penalty_reduces_to_eigenvalue(self):
        X, Y = centered_problem(1)
        op = empty_operator(4, 2)
        lm = largest_eigenvalue(X.T @ X)
        assert solve(X, Y, SolverConfig(mu=0.5, max_iters=1), op).lipschitz_used == pytest.approx(lm, rel=1e-8)

    def test_arithmetic(self):
        # lam=1, gamma=2, max degree 0.5, mu=0.1, lam_max=3 -> 3 + 5/0.1 = 53
        g = TaskGraph(3, ((1, 2, 0.5), (2, 3, -0.5)))
        op = FusionOperator.from_graph(g, lam=1.0, gamma=2.0, n_inputs=2)
        X = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]])  # X^T X = diag(3, 2)
        sol = solve(X, np.ones((3, 3)), SolverConfig(mu=0.1, max_iters=1), op)
        assert sol.lipschitz_used == pytest.approx(53.0)

    def test_gradient_lipschitz_inequality(self):
        rng = np.random.default_rng(2)
        X, Y = centered_problem(3, n=15, j=5, k=3)
        g = TaskGraph(3, ((1, 2, 0.8), (2, 3, -0.5)))
        op = FusionOperator.from_graph(g, lam=0.4, gamma=0.7, n_inputs=5)
        mu = 0.05
        XtX, XtY = X.T @ X, X.T @ Y
        L = solve(X, Y, SolverConfig(mu=mu, max_iters=1), op).lipschitz_used
        for _ in range(100):
            B1 = rng.standard_normal((5, 3))
            B2 = rng.standard_normal((5, 3))
            g1 = smooth_objective_gradient(X, Y, op, B1, mu, XtX, XtY)
            g2 = smooth_objective_gradient(X, Y, op, B2, mu, XtX, XtY)
            assert np.linalg.norm(g1 - g2) <= L * np.linalg.norm(B1 - B2) + 1e-9

    def test_accuracy_mode_derives_mu_and_step_from_the_operator(self):
        X, Y = centered_problem(8, n=15, j=5, k=3)
        g = TaskGraph(3, ((1, 2, 0.8), (2, 3, -0.5)))
        op = FusionOperator.from_graph(g, lam=0.4, gamma=0.7, n_inputs=5)
        eps = 0.05
        sol = solve(X, Y, SolverConfig(accuracy=eps, max_iters=1), op)
        assert sol.mu_used == eps / (2 * op.gap_constant())
        assert sol.lipschitz_used == largest_eigenvalue(X.T @ X) + op.norm_bound() ** 2 / sol.mu_used


class TestSmoothObjectiveGradient:
    def test_stationary_at_least_squares(self):
        X, Y = centered_problem(4)
        B_ls = np.linalg.solve(X.T @ X, X.T @ Y)
        op = empty_operator(4, 2)
        G = smooth_objective_gradient(X, Y, op, B_ls, mu=0.1)
        assert np.abs(G).max() < 1e-10

    def test_zero_point_no_penalty(self):
        X, Y = centered_problem(5)
        op = empty_operator(4, 2)
        G = smooth_objective_gradient(X, Y, op, np.zeros((4, 2)), mu=0.1)
        assert np.allclose(G, -X.T @ Y, atol=1e-12)

    def test_finite_differences_on_full_objective(self):
        rng = np.random.default_rng(6)
        X, Y = centered_problem(7, n=12, j=3, k=2)
        g = TaskGraph(2, ((1, 2, 0.9),))
        op = FusionOperator.from_graph(g, lam=0.3, gamma=0.5, n_inputs=3)
        mu = 0.01
        B = rng.standard_normal((3, 2))
        G = smooth_objective_gradient(X, Y, op, B, mu)

        def f_tilde(Bx):
            resid = Y - X @ Bx
            return 0.5 * float(np.vdot(resid, resid)) + op.dual_terms(Bx, None, mu)[3]

        h = 1e-5
        for idx in np.ndindex(B.shape):
            E = np.zeros_like(B)
            E[idx] = h
            fd = (f_tilde(B + E) - f_tilde(B - E)) / (2 * h)
            assert G[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestProxGradFit:
    def test_unpenalized_matches_normal_equations(self):
        X, Y = centered_problem(8)
        op = empty_operator(4, 2)
        # without a penalty mu changes neither the steps nor the objective, only the
        # gap floor mu * D; a tiny mu lets the fit run down to rel_obj_tol
        sol = solve(X, Y, SolverConfig(mu=1e-12, rel_obj_tol=1e-12, max_iters=50000), op)
        B_ls = np.linalg.solve(X.T @ X, X.T @ Y)
        assert np.linalg.norm(sol.B_hat - B_ls) < 1e-5

    def test_agrees_with_dense_subgradient_reference(self):
        X, Y = centered_problem(9, n=10, j=3, k=2)
        g = TaskGraph(2, ((1, 2, 0.9),))
        op = FusionOperator.from_graph(g, lam=0.5, gamma=0.5, n_inputs=3)
        sol = solve(X, Y, SolverConfig(mu=1e-5, rel_obj_tol=1e-11, max_iters=300000), op)
        C = dense_fusion_matrix(2, g.edges, 0.5, 0.5)
        ref, _ = subgradient_dense(X, Y, C, 200000)
        assert sol.objective_exact == pytest.approx(ref, rel=5e-3)
        # never worse than the reference by more than the smoothing gap
        assert sol.objective_exact <= ref + sol.mu_used * op.gap_constant() + 1e-6

    def test_fusion_limit_two_tasks(self):
        X, Y = centered_problem(10, n=12, j=3, k=2, noise=0.2)
        g = TaskGraph(2, ((1, 2, 0.9),))
        op = FusionOperator.from_graph(g, lam=0.3, gamma=1000.0, n_inputs=3)
        sol = solve(X, Y, SolverConfig(mu=1e-4, rel_obj_tol=1e-6, max_iters=20000), op)
        assert np.abs(sol.B_hat[:, 0] - sol.B_hat[:, 1]).max() <= 1e-3

    def test_fusion_limit_matches_pooled_lasso(self):
        # dominant (but tractable) gamma: both columns approach the lasso fit
        # on the stacked responses with doubled l1 weight
        X, Y = centered_problem(11, n=12, j=3, k=2, noise=0.2)
        g = TaskGraph(2, ((1, 2, 1.0),))
        lam = 0.4
        op = FusionOperator.from_graph(g, lam=lam, gamma=10.0, n_inputs=3)
        # a fit stops once its gap is within mu * D; mu is small enough for that
        # certified accuracy to resolve the 1e-3 comparison
        sol = solve(X, Y, SolverConfig(mu=2e-7, rel_obj_tol=1e-13, max_iters=400000), op)
        X_stack = np.vstack([X, X])
        y_stack = np.concatenate([Y[:, 0], Y[:, 1]])[:, None]
        pooled = ista_lasso(X_stack, y_stack, 2.0 * lam)[:, 0]
        assert np.abs(sol.B_hat[:, 0] - sol.B_hat[:, 1]).max() <= 1e-3
        assert np.abs(sol.B_hat[:, 0] - pooled).max() <= 1e-3

    def test_sandwich_along_trace(self):
        X, Y = centered_problem(12, n=15, j=4, k=3)
        g = TaskGraph(3, ((1, 2, 0.7), (1, 3, -0.6)))
        op = FusionOperator.from_graph(g, lam=0.2, gamma=0.4, n_inputs=4)
        config = SolverConfig(mu=1e-3, rel_obj_tol=1e-8, max_iters=2000, record_trace=True)
        sol = solve(X, Y, config, op)
        # the pointwise sandwich f_mu <= f <= f_mu + mu D is checked in test_smoothing; the traced
        # fit ends within its certified gap
        mu_d = sol.mu_used * op.gap_constant()
        assert len(sol.trace) == sol.iterations
        assert sol.converged and 0 <= sol.gap <= max(config.rel_obj_tol * abs(sol.objective_exact), mu_d)

    def test_bitwise_determinism(self):
        X, Y = centered_problem(13, n=18, j=5, k=3)
        g = TaskGraph(3, ((1, 2, 0.5), (2, 3, 0.5)))
        op = FusionOperator.from_graph(g, lam=0.3, gamma=0.3, n_inputs=5)
        config = SolverConfig(mu=1e-3, rel_obj_tol=1e-8, max_iters=3000)
        a = solve(X, Y, config, op)
        b = solve(X, Y, config, op)
        assert np.array_equal(a.B_hat, b.B_hat)
        assert a.objective_exact == b.objective_exact
        assert a.iterations == b.iterations

    def test_max_iters_flags_not_converged(self):
        X, Y = centered_problem(14)
        op = empty_operator(4, 2, lam=0.1)
        sol = solve(X, Y, SolverConfig(rel_obj_tol=1e-14, max_iters=5), op)
        assert not sol.converged
        assert sol.iterations == 5

    def test_column_separable_when_no_edges(self):
        # with an empty graph the updates decouple per task: stacking
        # single-task runs over the same iteration budget reproduces the
        # joint trajectory. The budget is one check interval, so the one
        # check falls at the cap: the stop and restart decisions, which read
        # the joint objective, cannot differ between the joint and single runs
        X, Y = centered_problem(15, n=25, j=6, k=3)
        op = empty_operator(6, 3, lam=0.3)
        config = SolverConfig(mu=1e-4, rel_obj_tol=1e-16, max_iters=CHECK_EVERY)
        joint = solve(X, Y, config, op)
        cols = []
        for k in range(3):
            opk = empty_operator(6, 1, lam=0.3)
            cols.append(solve(X, Y[:, [k]], config, opk).B_hat[:, 0])
        assert joint.iterations == CHECK_EVERY
        assert np.linalg.norm(joint.B_hat - np.column_stack(cols)) < 1e-12

    def test_matches_soft_threshold_closed_form_on_orthonormal_design(self):
        # with X^T X = I the exact solution is the entrywise soft threshold
        # of X^T Y, and F is 1-strongly convex: a fit certified to gap <= mu * D
        # lies within sqrt(2 mu D) = 2e-3 of it at mu = 4e-7, D = 5
        rng = np.random.default_rng(16)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        X = Q  # orthonormal columns
        Y = rng.standard_normal((30, 2))
        Y = Y - Y.mean(axis=0)
        lam = 0.6
        op = empty_operator(5, 2, lam=lam)
        sol = solve(X, Y, SolverConfig(mu=4e-7, rel_obj_tol=1e-13, max_iters=200000), op)
        assert sol.converged
        XtY = X.T @ Y
        ref = np.sign(XtY) * np.maximum(np.abs(XtY) - lam, 0.0)
        assert np.abs(sol.B_hat - ref).max() < 2e-3
        # and the exact objective is within the smoothing gap of the optimum
        def f(B):
            r = Y - X @ B
            return 0.5 * float(np.vdot(r, r)) + lam * float(np.abs(B).sum())

        assert f(sol.B_hat) <= f(ref) + sol.mu_used * op.gap_constant() + 1e-8

    def test_zero_solution_above_kkt_threshold(self):
        X, Y = centered_problem(23, n=25, j=4, k=2, noise=0.5)
        c = float(np.abs(X.T @ Y).max())
        lam = c * 1.5
        op = empty_operator(4, 2, lam=lam)
        sol = solve(X, Y, SolverConfig(mu=1e-6, rel_obj_tol=1e-10, max_iters=50000), op)
        # B = 0 is the optimum, and F(B) - F(0) >= (lam - ||X^T Y||_max) ||B||_1,
        # so the certified gap pins the fit to zero; at mu = 1e-6 this bound
        # (about 2e-7) is below the old one for the smoothed optimum at mu = 1e-4
        assert sol.converged
        assert np.abs(sol.B_hat).sum() <= sol.gap / (lam - c)

    def test_shape_validation(self):
        X, Y = centered_problem(17)
        op = empty_operator(3, 2)
        with pytest.raises(ValueError):
            solve(X, Y, SolverConfig(), op)


def certificate_problems(seed):
    """(name, X, Y, penalty) on one seeded random problem: gflasso, lasso, 1 x J fused and l1/l2."""
    rng = np.random.default_rng(seed)
    j, k = int(rng.integers(3, 8)), int(rng.integers(2, 5))
    X, Y = centered_problem(seed, n=30, j=j, k=k, noise=0.5)
    pairs = [(m, l) for m in range(1, k + 1) for l in range(m + 1, k + 1)]
    edges = tuple((m, l, float(rng.choice([-1, 1]) * rng.uniform(0.2, 1.0))) for m, l in pairs if rng.random() < 0.6)
    lam, gamma = 10.0 ** rng.uniform(-2, 1, size=2)
    yield "gflasso", X, Y, FusionOperator.from_graph(TaskGraph(k, edges), lam=lam, gamma=gamma, n_inputs=j)
    yield "lasso", X, Y, empty_operator(j, k, lam=lam)
    yield "fused", X, Y[:, 0], FusionOperator.from_graph(chain_graph(j), lam=lam, gamma=gamma, n_inputs=1)
    yield "l1l2", X, Y, RowGroupNorm(lam)


class TestCertificate:
    @pytest.mark.parametrize("seed", range(6))
    def test_gap_bounds_the_excess_and_converged_means_within_target(self, seed):
        config = SolverConfig()
        for name, X, Y, penalty in certificate_problems(seed):
            sol = solve(X, Y, config, penalty)
            tight = solve(X, Y, SolverConfig(mu=1e-6, rel_obj_tol=1e-9, max_iters=100000), penalty)
            assert tight.converged, name
            excess = sol.objective_exact - tight.objective_exact
            assert sol.gap >= excess - 1e-12 * abs(sol.objective_exact), name
            # every certified lower bound lies below every objective value
            assert tight.objective_exact - tight.gap <= sol.objective_exact + 1e-12, name
            floor = sol.mu_used * (penalty.gap_constant() if sol.mu_used else 0.0)
            assert sol.converged and sol.stop_reason == "gap", name
            assert sol.gap <= max(config.rel_obj_tol * abs(sol.objective_exact), floor), name
            assert excess <= max(config.rel_obj_tol * abs(sol.objective_exact), floor), name

    def test_report_fit_that_stalled_under_the_relative_change_rule(self):
        # report seed 0, replicate 0, 70-row training split, lam = gamma = 10: the
        # relative-change rule stopped after 2 iterations at F = 706.62 and called it
        # converged; the optimum is about 657.80
        spec = SimulationSpec(seed=replicate_seed(0, 0))
        ds = simulate_dataset(spec)
        graph = build_correlation_graph(ds.Y, 0.1)
        sol = fit_gflasso(ds.X[:70], ds.Y[:70], graph, PenaltySpec(lam=10.0, gamma=10.0), SolverConfig()).solution
        assert sol.converged and sol.stop_reason == "gap"
        assert sol.iterations > 1000
        assert sol.objective_exact < 657.85
        assert sol.objective_exact - sol.gap <= 657.81

    def test_capped_fit_is_not_converged_and_keeps_its_gap(self):
        X, Y = centered_problem(30, n=30, j=5, k=3)
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.9), (2, 3, -0.7))), lam=1.0, gamma=5.0, n_inputs=5)
        sol = solve(X, Y, SolverConfig(mu=1e-6, max_iters=25), op)
        assert (sol.iterations, sol.converged, sol.stop_reason) == (25, False, "iteration_cap")
        assert sol.gap > 0

    def test_tracing_changes_nothing(self):
        X, Y = centered_problem(31, n=30, j=6, k=3)
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8), (1, 3, -0.5))), lam=0.5, gamma=2.0, n_inputs=6)
        plain = solve(X, Y, SolverConfig(), op)
        traced = solve(X, Y, SolverConfig(record_trace=True), op)
        assert plain.iterations == traced.iterations == len(traced.trace)
        assert np.array_equal(plain.B_hat, traced.B_hat)
        assert (plain.gap, plain.stop_reason) == (traced.gap, traced.stop_reason)

    def test_singular_gram_is_uncertified(self):
        # J > N: X^T X is singular, so no gap exists and the relative-change fallback stops the fit
        X, Y = centered_problem(32, n=20, j=30, k=3)
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8),)), lam=0.5, gamma=0.5, n_inputs=30)
        sol = solve(X, Y, SolverConfig(), op)
        assert (sol.converged, sol.stop_reason, sol.gap) == (False, "uncertified", None)
        assert sol.iterations < SolverConfig().max_iters


class TestSubgradientFit:
    def test_quadratic_best_so_far_montone_toward_least_squares(self):
        X, Y = centered_problem(18)
        op = empty_operator(4, 2)
        sol = subgradient_fit(X, Y, SolverConfig(max_iters=3000, record_trace=True), op)
        best = [row[0] for row in sol.trace]
        assert all(a >= b - 1e-12 for a, b in zip(best, best[1:]))
        B_ls = np.linalg.solve(X.T @ X, X.T @ Y)
        resid = Y - X @ B_ls
        f_star = 0.5 * float(np.vdot(resid, resid))
        assert sol.objective_exact <= f_star * 1.001 + 1e-3

    def test_cross_solver_agreement(self):
        X, Y = centered_problem(19, n=10, j=3, k=2)
        g = TaskGraph(2, ((1, 2, 0.9),))
        op = FusionOperator.from_graph(g, lam=0.5, gamma=0.5, n_inputs=3)
        pg = solve(X, Y, SolverConfig(mu=1e-5, rel_obj_tol=1e-11, max_iters=300000), op)
        sg = subgradient_fit(X, Y, SolverConfig(max_iters=1000000), op)
        assert sg.objective_exact == pytest.approx(pg.objective_exact, rel=1e-3)

    def test_never_claims_convergence(self):
        # no stopping test: a capped run is not a certified optimum
        X, Y = centered_problem(21)
        g = TaskGraph(2, ((1, 2, 0.7),))
        op = FusionOperator.from_graph(g, lam=0.3, gamma=0.3, n_inputs=4)
        sol = subgradient_fit(X, Y, SolverConfig(max_iters=3), op)
        assert sol.iterations == 3
        assert sol.converged is False

    def test_one_apply_per_iterate(self, monkeypatch):
        # one apply per iterate, shared by its objective and the next step, plus the start point and the result
        X, Y = centered_problem(23, n=12, j=3, k=2)
        op = FusionOperator.from_graph(TaskGraph(2, ((1, 2, 0.6),)), lam=0.2, gamma=0.3, n_inputs=3)
        calls = []
        apply = FusionOperator.apply
        monkeypatch.setattr(FusionOperator, "apply", lambda self, B: calls.append(1) or apply(self, B))
        subgradient_fit(X, Y, SolverConfig(max_iters=7), op)
        assert len(calls) == 7 + 2

    def test_solution_is_best_iterate_on_exact_objective(self):
        X, Y = centered_problem(20, n=10, j=3, k=2)
        g = TaskGraph(2, ((1, 2, -0.8),))
        op = FusionOperator.from_graph(g, lam=0.2, gamma=0.3, n_inputs=3)
        sol = subgradient_fit(X, Y, SolverConfig(max_iters=2000, record_trace=True), op)
        assert sol.objective_exact == pytest.approx(sol.trace[-1][0], abs=1e-12)
        C = dense_fusion_matrix(2, g.edges, 0.2, 0.3)
        assert sol.objective_exact == pytest.approx(objective_dense(X, Y, sol.B_hat, C), abs=1e-10)


class TestIterationBound:
    def test_doubling_gap_constant(self):
        lo = iteration_bound(1.0, 0.1, 10.0, 0.5, 3.0)
        hi = iteration_bound(1.0, 0.1, 20.0, 0.5, 3.0)
        # doubling D doubles the second addend inside the sqrt
        assert hi**2 - lo**2 == pytest.approx((4.0 / 0.1) * (2 * 20.0 - 2 * 10.0) * 0.25 / 0.1)

    def test_one_over_eps_regime(self):
        # when the D term dominates, shrinking eps by 4 scales the bound ~4x
        b1 = iteration_bound(1.0, 1e-3, 100.0, 1.0, 1e-6)
        b2 = iteration_bound(1.0, 2.5e-4, 100.0, 1.0, 1e-6)
        assert b2 / b1 == pytest.approx(4.0, rel=1e-3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            iteration_bound(1.0, 0.0, 1.0, 1.0, 1.0)


def test_trace_csv_dump():
    X, Y = centered_problem(21, n=10, j=3, k=2)
    op = empty_operator(3, 2, lam=0.2)
    sol = solve(X, Y, SolverConfig(mu=1e-3, rel_obj_tol=1e-8, max_iters=50, record_trace=True), op)
    lines = trace_csv_text(sol).splitlines()
    assert lines[0] == "iter,f_exact,grad_norm"
    assert len(lines) == 1 + sol.iterations
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == sol.trace[0][0]


def test_trace_requires_recording():
    X, Y = centered_problem(22, n=10, j=3, k=2)
    op = empty_operator(3, 2)
    sol = solve(X, Y, SolverConfig(max_iters=5, rel_obj_tol=1e-8), op)
    with pytest.raises(ValueError):
        trace_csv_text(sol)
