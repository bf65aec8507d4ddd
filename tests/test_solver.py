import inspect
import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gflasso.errors import DegenerateInputError, NumericError
from gflasso.graph import TaskGraph, build_correlation_graph, chain_graph
from gflasso.models import GroupNorm, PenaltySpec, fit_gflasso
from gflasso.simulate import SimulationSpec, replicate_seed, simulate_dataset
from gflasso.smoothing import CovariateFusionOperator, FusionOperator
from gflasso.solver import (
    CHECK_EVERY,
    PRIMAL_DUAL_RHO,
    STEP_RATIO,
    Moments,
    SolverConfig,
    next_check,
    primal_dual_steps,
    solve,
    subgradient_fit,
    three_sequence_minimize,
    trace_csv_text,
)

from oracles import (
    center_columns,
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


def fusion_gap_constant(op):
    # D = J |E| / 2 of the fusion term alone, the part of the operator that solve smooths
    return 0.5 * op.n_inputs * op.n_edges


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


def jacobi_bound(XtX):
    """(d, L_s): d = diag(X^T X) and L_s = (1 + 1e-6) lam_max(D^-1/2 X^T X D^-1/2), the unsmoothed loop's metric."""
    d = np.diag(XtX)
    return d, (1.0 + 1e-6) * largest_eigenvalue(XtX / np.sqrt(np.outer(d, d)))


class TestLipschitzUpper:
    # solve derives L = lam_max(X^T X) + ||C||^2 / mu from the fusion term's squared_norm on the smoothed loop; one
    # iteration is enough to read it back

    def test_no_penalty_reduces_to_the_jacobi_bound(self):
        # without a fusion term row j steps by 1 / (L_s d_j), and lipschitz_used is the largest L_s d_j
        X, Y = centered_problem(1)
        op = empty_operator(4, 2)
        d, L_s = jacobi_bound(X.T @ X)
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=0.5, max_iters=1), op)
        assert sol.lipschitz_used == pytest.approx(L_s * d.max(), rel=1e-12)

    def test_arithmetic(self):
        # lam=1, gamma=2, mu=0.1, lam_max=4; lam is not smoothed. The fusion term's C C^T = [[1, -1, 0], [-1, 2, 1],
        # [0, 1, 1]] has sigma_max^2 = 3 against the degree bound 2 * 4 * 0.5 = 4: at J = 3 >= K the step takes it,
        # L = 4 + 3 (1 + 1e-6) / 0.1; at J = 2 < K it takes the bound, L = 4 + 4 / 0.1 = 44
        g = TaskGraph(3, ((1, 2, 0.5), (2, 3, -0.5)))
        X = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]])  # X^T X = diag(4, 2, 2)
        for j, expected in ((3, 4.0 + 3.0 * (1.0 + 1e-6) / 0.1), (2, 44.0)):
            op = FusionOperator.from_graph(g, lam=1.0, gamma=2.0, n_inputs=j)
            sol = solve(Moments.from_data(X[:, :j], np.ones((4, 3))), SolverConfig(mu=0.1, max_iters=1), op)
            assert sol.lipschitz_used == pytest.approx(expected, rel=1e-12)

    def test_gradient_lipschitz_inequality(self):
        rng = np.random.default_rng(2)
        X, Y = centered_problem(3, n=15, j=5, k=3)
        g = TaskGraph(3, ((1, 2, 0.8), (2, 3, -0.5)))
        op = FusionOperator.from_graph(g, lam=0.4, gamma=0.7, n_inputs=5)
        fusion = FusionOperator.from_graph(g, lam=0.0, gamma=0.7, n_inputs=5)  # the smoothed part of op
        mu = 0.05
        XtX, XtY = X.T @ X, X.T @ Y
        L = solve(Moments.from_data(X, Y), SolverConfig(mu=mu, max_iters=1), op).lipschitz_used
        for _ in range(100):
            B1 = rng.standard_normal((5, 3))
            B2 = rng.standard_normal((5, 3))
            g1 = smooth_objective_gradient(X, Y, fusion, B1, mu, XtX, XtY)
            g2 = smooth_objective_gradient(X, Y, fusion, B2, mu, XtX, XtY)
            assert np.linalg.norm(g1 - g2) <= L * np.linalg.norm(B1 - B2) + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("form", ["dense", "edge arrays", "covariate"])
    def test_step_comes_from_a_true_lipschitz_bound(self, form, seed):
        # in every form of C: L >= lam_max(X^T X) + sigma_max(gamma H)^2 / mu, and grad F_mu is L-Lipschitz
        rng = np.random.default_rng(seed)
        j = int(rng.integers(3, 8))
        k = {"dense": int(rng.integers(2, j + 1)), "edge arrays": j + int(rng.integers(1, 5)), "covariate": j}[form]
        edges = [(m, l, float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.0)))
                 for m in range(1, k + 1) for l in range(m + 1, k + 1) if (m, l) == (1, 2) or rng.random() < 0.5]
        graph = TaskGraph(k, tuple(edges))
        lam, gamma, mu = 10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-3, 0)
        X, Y = centered_problem(seed, n=20, j=j, k=1 if form == "covariate" else k)
        cls, n_inputs = (CovariateFusionOperator, 1) if form == "covariate" else (FusionOperator, j)
        op = cls.from_graph(graph, lam=lam, gamma=gamma, n_inputs=n_inputs)
        fusion = cls.from_graph(graph, lam=0.0, gamma=gamma, n_inputs=n_inputs)  # the smoothed part of op
        assert (fusion._C is None) == (form != "dense")
        # keep the fit on the smoothed loop: rho = ||C||^2 / (mu lam_max) <= PRIMAL_DUAL_RHO / 2
        m = Moments.from_data(X, Y)
        mu = max(mu, 2.0 * fusion.norm_bound() ** 2 / (PRIMAL_DUAL_RHO * m.lam_max))

        L = solve(m, SolverConfig(mu=mu, max_iters=1), op).lipschitz_used
        sigma_max = np.linalg.norm(dense_fusion_matrix(k, graph.edges, 0.0, gamma), 2)
        XtX, XtY = X.T @ X, X.T @ Y
        assert L >= (np.linalg.eigvalsh(XtX).max() + sigma_max**2 / mu) * (1 - 1e-12)
        for scale in (mu / 10, mu, 1.0):
            for _ in range(30):
                B1 = scale * rng.standard_normal(XtY.shape)
                B2 = B1 + scale * rng.standard_normal(XtY.shape)
                g1 = smooth_objective_gradient(X, Y, fusion, B1, mu, XtX, XtY)
                g2 = smooth_objective_gradient(X, Y, fusion, B2, mu, XtX, XtY)
                assert np.linalg.norm(g1 - g2) <= L * np.linalg.norm(B1 - B2) * (1 + 1e-12) + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("form", ["dense", "edge arrays", "covariate"])
    def test_primal_dual_step_meets_condats_condition(self, form, seed):
        # in every form of C, against the dense C: sigma_e = r / sum_k |C_ke|, tau_k = 0.99 / (lam_max / 2 + r sum_e
        # |C_ke|), lipschitz_used = max_k 1/tau_k, and lam_min(diag(1/tau) - C diag(sigma) C^T) > lam_max(X^T X) / 2
        rng = np.random.default_rng(100 + seed)
        j = int(rng.integers(3, 8))
        k = {"dense": int(rng.integers(2, j + 1)), "edge arrays": j + int(rng.integers(1, 5)), "covariate": j}[form]
        edges = [(m, l, float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.0)))
                 for m in range(1, k + 1) for l in range(m + 1, k + 1) if (m, l) == (1, 2) or rng.random() < 0.5]
        graph = TaskGraph(k, tuple(edges))
        lam, gamma = 10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-1, 1)
        X, Y = centered_problem(seed, n=20, j=j, k=1 if form == "covariate" else k)
        cls, n_inputs = (CovariateFusionOperator, 1) if form == "covariate" else (FusionOperator, j)
        op = cls.from_graph(graph, lam=lam, gamma=gamma, n_inputs=n_inputs)
        fusion = cls.from_graph(graph, lam=0.0, gamma=gamma, n_inputs=n_inputs)
        assert (fusion._C is None) == (form != "dense")
        m = Moments.from_data(X, Y)
        norm2 = fusion.norm_bound() ** 2
        mu = 10.0 ** rng.uniform(-2, 0) * norm2 / (PRIMAL_DUAL_RHO * m.lam_max)  # rho in (10, 1000)

        inv_tau = solve(m, SolverConfig(mu=mu, max_iters=1), op).lipschitz_used
        C = dense_fusion_matrix(k, graph.edges, 0.0, gamma)[:, k:]  # the edge columns: the lam columns are 0
        task_sums = np.abs(C).sum(axis=1)
        assert inv_tau == pytest.approx((m.lam_max / 2 + STEP_RATIO * task_sums.max()) / 0.99, rel=1e-12)
        sigma, tau = primal_dual_steps(m.lam_max, fusion)
        assert tau.shape == ((k, 1) if form == "covariate" else (1, k))
        assert np.allclose(sigma, STEP_RATIO / np.abs(C).sum(axis=0), rtol=1e-14, atol=0)
        assert np.allclose(tau.ravel(), 0.99 / (m.lam_max / 2 + STEP_RATIO * task_sums), rtol=1e-14, atol=0)
        condat = np.diag(1.0 / tau.ravel()) - C @ np.diag(sigma) @ C.T
        assert np.linalg.eigvalsh(condat).min() > np.linalg.eigvalsh(X.T @ X).max() / 2

    def test_accuracy_mode_derives_mu_and_step_from_the_operator(self):
        X, Y = centered_problem(8, n=15, j=5, k=3)
        g = TaskGraph(3, ((1, 2, 0.8), (2, 3, -0.5)))
        op = FusionOperator.from_graph(g, lam=0.4, gamma=0.7, n_inputs=5)
        fusion = FusionOperator.from_graph(g, lam=0.0, gamma=0.7, n_inputs=5)  # D = J |E| / 2 = 5
        eps = 0.05
        sol = solve(Moments.from_data(X, Y), SolverConfig(accuracy=eps, max_iters=1), op)
        assert fusion.gap_constant() == fusion_gap_constant(op) == 5.0
        assert sol.mu_used == eps / (2 * fusion.gap_constant())
        assert sol.lipschitz_used == largest_eigenvalue(X.T @ X) + fusion.squared_norm / sol.mu_used


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
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=1e-12, rel_obj_tol=1e-12, max_iters=50000), op)
        B_ls = np.linalg.solve(X.T @ X, X.T @ Y)
        assert np.linalg.norm(sol.B_hat - B_ls) < 1e-5

    def test_agrees_with_dense_subgradient_reference(self):
        X, Y = centered_problem(9, n=10, j=3, k=2)
        g = TaskGraph(2, ((1, 2, 0.9),))
        op = FusionOperator.from_graph(g, lam=0.5, gamma=0.5, n_inputs=3)
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=1e-5, rel_obj_tol=1e-11, max_iters=300000), op)
        C = dense_fusion_matrix(2, g.edges, 0.5, 0.5)
        ref, _ = subgradient_dense(X, Y, C, 200000)
        assert sol.objective_exact == pytest.approx(ref, rel=5e-3)
        # never worse than the reference by more than the smoothing gap
        assert sol.objective_exact <= ref + sol.mu_used * fusion_gap_constant(op) + 1e-6

    def test_fusion_limit_two_tasks(self):
        X, Y = centered_problem(10, n=12, j=3, k=2, noise=0.2)
        g = TaskGraph(2, ((1, 2, 0.9),))
        op = FusionOperator.from_graph(g, lam=0.3, gamma=1000.0, n_inputs=3)
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=1e-4, rel_obj_tol=1e-6, max_iters=20000), op)
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
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=2e-7, rel_obj_tol=1e-13, max_iters=400000), op)
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
        sol = solve(Moments.from_data(X, Y), config, op)
        # the pointwise sandwich f_mu <= f <= f_mu + mu D is checked in test_smoothing; the traced
        # fit ends within its certified gap
        mu_d = sol.mu_used * fusion_gap_constant(op)
        assert len(sol.trace) == sol.iterations
        assert sol.converged and 0 <= sol.gap <= max(config.rel_obj_tol * abs(sol.objective_exact), mu_d)

    def test_bitwise_determinism(self):
        X, Y = centered_problem(13, n=18, j=5, k=3)
        g = TaskGraph(3, ((1, 2, 0.5), (2, 3, 0.5)))
        op = FusionOperator.from_graph(g, lam=0.3, gamma=0.3, n_inputs=5)
        config = SolverConfig(mu=1e-3, rel_obj_tol=1e-8, max_iters=3000)
        a = solve(Moments.from_data(X, Y), config, op)
        b = solve(Moments.from_data(X, Y), config, op)
        assert np.array_equal(a.B_hat, b.B_hat)
        assert a.objective_exact == b.objective_exact
        assert a.iterations == b.iterations

    def test_max_iters_flags_not_converged(self):
        X, Y = centered_problem(14)
        op = empty_operator(4, 2, lam=0.1)
        sol = solve(Moments.from_data(X, Y), SolverConfig(rel_obj_tol=1e-14, max_iters=5), op)
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
        joint = solve(Moments.from_data(X, Y), config, op)
        cols = []
        for k in range(3):
            opk = empty_operator(6, 1, lam=0.3)
            cols.append(solve(Moments.from_data(X, Y[:, [k]]), config, opk).B_hat[:, 0])
        assert joint.iterations == CHECK_EVERY
        assert np.linalg.norm(joint.B_hat - np.column_stack(cols)) < 1e-12

    def test_matches_soft_threshold_closed_form_on_orthonormal_design(self):
        # with X^T X = I the exact solution is the entrywise soft threshold
        # of X^T Y, and F is 1-strongly convex: a fit certified to gap <= mu * D
        # lies within sqrt(2 mu D) = 2e-3 of it at mu = 4e-7, D = 5
        rng = np.random.default_rng(16)
        G = rng.standard_normal((30, 5))
        X, _ = np.linalg.qr(G - G.mean(axis=0))  # orthonormal columns, centered as spans of centered columns
        Y = rng.standard_normal((30, 2))
        Y = Y - Y.mean(axis=0)
        lam = 0.6
        op = empty_operator(5, 2, lam=lam)
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=4e-7, rel_obj_tol=1e-13, max_iters=200000), op)
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
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=1e-6, rel_obj_tol=1e-10, max_iters=50000), op)
        # B = 0 is the optimum, and F(B) - F(0) >= (lam - ||X^T Y||_max) ||B||_1,
        # so the certified gap pins the fit to zero; at mu = 1e-6 this bound
        # (about 2e-7) is below the old one for the smoothed optimum at mu = 1e-4
        assert sol.converged
        assert np.abs(sol.B_hat).sum() <= sol.gap / (lam - c)

    def test_shape_validation(self):
        X, Y = centered_problem(17)
        # no fusion term reaches apply here, so solve itself compares the shapes
        for op in (empty_operator(3, 2), FusionOperator.from_graph(TaskGraph(2, ((1, 2, 0.5),)), 0.1, 0.0, n_inputs=3)):
            with pytest.raises(ValueError, match=r"coefficient shape \(3, 2\), the data \(4, 2\)$"):
                solve(Moments.from_data(X, Y), SolverConfig(), op)


def certificate_problems(seed, wide=False):
    """(name, X, Y, penalty) on one seeded random problem: gflasso, lasso, univariate fused and l1/l2, plus,
    unless ``wide``, gflasso on more tasks than covariates (K > J), where the operator keeps edge arrays.

    ``wide`` takes N = 6 rows and J in [8, 14) covariates, so X^T X is singular; there the tight reference run
    of a K > J fit ends at its 100,000-iteration cap, which would double the test's time.
    """
    rng = np.random.default_rng(seed)
    j, k = int(rng.integers(8, 14) if wide else rng.integers(3, 8)), int(rng.integers(2, 5))
    X, Y = centered_problem(seed, n=6 if wide else 30, j=j, k=k, noise=0.5)

    def random_graph(k, p):
        pairs = [(m, l) for m in range(1, k + 1) for l in range(m + 1, k + 1)]
        return TaskGraph(k, tuple((m, l, float(rng.choice([-1, 1]) * rng.uniform(0.2, 1.0)))
                                  for m, l in pairs if rng.random() < p))

    graph = random_graph(k, 0.6)
    lam, gamma = 10.0 ** rng.uniform(-2, 1, size=2)
    yield "gflasso", X, Y, FusionOperator.from_graph(graph, lam=lam, gamma=gamma, n_inputs=j)
    yield "lasso", X, Y, GroupNorm(lam, 1)
    yield "fused", X, Y[:, :1], CovariateFusionOperator.from_graph(chain_graph(j), lam=lam, gamma=gamma, n_inputs=1)
    yield "l1l2", X, Y, GroupNorm(lam, k)
    if wide:
        return
    many = j + int(rng.integers(1, 4))
    _, Y_many = centered_problem(seed, n=30, j=j, k=many, noise=0.5)  # the same X
    op = FusionOperator.from_graph(random_graph(many, 0.3), lam=lam, gamma=gamma, n_inputs=j)
    assert op._C is None
    yield "gflasso K > J", X, Y_many, op


class TestCertificate:
    @pytest.mark.parametrize(
        "seed, wide", [(s, False) for s in range(6)] + [(s, True) for s in range(6)],
        ids=[*map(str, range(6)), *(f"wide{s}" for s in range(6))],
    )
    def test_gap_bounds_the_excess_and_converged_means_within_target(self, seed, wide):
        config = SolverConfig()
        for name, X, Y, penalty in certificate_problems(seed, wide):
            m = Moments.from_data(X, Y)
            # centered, 6 rows span 5 dimensions
            assert m.null_basis.shape[1] == (X.shape[1] - 5 if wide else 0), name
            sol = solve(m, config, penalty)
            tight = solve(m, SolverConfig(mu=1e-6, rel_obj_tol=1e-9, max_iters=100000), penalty)
            # a wide tight run may hit its cap; its objective still bounds the optimum from above
            assert wide or tight.converged, name
            excess = sol.objective_exact - tight.objective_exact
            # every certified lower bound lies below every objective value
            assert sol.gap >= excess - 1e-12 * abs(sol.objective_exact), name
            assert tight.objective_exact - tight.gap <= sol.objective_exact + 1e-12, name
            floor = sol.mu_used * (fusion_gap_constant(penalty) if sol.mu_used else 0.0)
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
        data = Moments.from_data(ds.X[:70], ds.Y[:70])
        sol = fit_gflasso(data, graph, PenaltySpec(lam=10.0, gamma=10.0), SolverConfig()).solution
        assert sol.converged and sol.stop_reason == "gap"
        assert sol.objective_exact < 657.85
        # a run to gap 5e-10 (mu = 1e-12, tol 1e-12) ends at F = 657.8036624
        assert sol.objective_exact - sol.gap <= 657.80367

    def test_capped_fit_is_not_converged_and_keeps_its_gap(self):
        X, Y = centered_problem(30, n=30, j=5, k=3)
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.9), (2, 3, -0.7))), lam=1.0, gamma=5.0, n_inputs=5)
        sol = solve(Moments.from_data(X, Y), SolverConfig(mu=1e-6, max_iters=25), op)
        assert (sol.iterations, sol.converged, sol.stop_reason) == (25, False, "iteration_cap")
        assert sol.gap > 0

    def test_tracing_changes_nothing(self):
        X, Y = centered_problem(31, n=30, j=6, k=3)
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8), (1, 3, -0.5))), lam=0.5, gamma=2.0, n_inputs=6)
        plain = solve(Moments.from_data(X, Y), SolverConfig(), op)
        traced = solve(Moments.from_data(X, Y), SolverConfig(record_trace=True), op)
        assert plain.iterations == traced.iterations == len(traced.trace)
        assert np.array_equal(plain.B_hat, traced.B_hat)
        assert (plain.gap, plain.stop_reason) == (traced.gap, traced.stop_reason)

    @pytest.mark.parametrize("method", ["gflasso", "l1l2"])
    def test_first_trace_row_holds_the_unscaled_gradient(self, method):
        # W^0 = 0, where the penalty's gradient vanishes: g_0 = -X^T Y of the centered data, not g_0 / L
        rng = np.random.default_rng(33)
        X, Y = rng.standard_normal((30, 6)) + 2.0, rng.standard_normal((30, 3)) - 1.0
        if method == "gflasso":
            penalty = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8), (2, 3, -0.5))), 0.5, 2.0, n_inputs=6)
        else:
            penalty = GroupNorm(0.8, 3)
        sol = solve(Moments.from_data(X, Y), SolverConfig(record_trace=True, max_iters=3), penalty)
        Xc, Yc = center_columns(X)[0], center_columns(Y)[0]
        assert sol.trace[0][1] == pytest.approx(float(np.linalg.norm(Xc.T @ Yc)), rel=1e-12)

    def test_l1l2_restart_from_the_current_iterate_certifies(self):
        # restarting from the best iterate replayed the same CHECK_EVERY steps: this fit hit 100,000 iterations
        name, X, Y, penalty = list(certificate_problems(1))[3]
        sol = solve(Moments.from_data(X, Y), SolverConfig(rel_obj_tol=1e-10, max_iters=100000), penalty)
        assert name == "l1l2"
        assert sol.converged and sol.stop_reason == "gap"
        assert sol.iterations <= 5000

    def test_singular_gram_is_certified_through_its_null_space(self):
        # J > N: the null-space part of the certificate's residual is bounded through ||B*||_1 <= F / lam
        X, Y = centered_problem(32, n=20, j=30, k=3)
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8),)), lam=0.5, gamma=0.5, n_inputs=30)
        m = Moments.from_data(X, Y)
        sol = solve(m, SolverConfig(), op)
        tight = solve(m, SolverConfig(mu=1e-6, rel_obj_tol=1e-9, max_iters=100000), op)
        assert (sol.converged, sol.stop_reason) == (True, "gap")
        assert sol.gap <= max(SolverConfig().rel_obj_tol * abs(sol.objective_exact), sol.mu_used * fusion_gap_constant(op))
        assert sol.gap >= sol.objective_exact - tight.objective_exact - 1e-12 * abs(sol.objective_exact)

    @pytest.mark.parametrize("penalty", [
        FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8),)), lam=0.0, gamma=0.5, n_inputs=30), GroupNorm(0.0, 3),
        GroupNorm(0.0, 1),
    ], ids=["fusion", "l1l2", "lasso"])
    def test_lam_zero_with_a_singular_gram_is_refused(self, penalty):
        # nothing bounds ||B*||_1 when lam = 0, so no certificate exists on a singular X^T X
        X, Y = centered_problem(32, n=20, j=30, k=3)
        with pytest.raises(DegenerateInputError, match="lambda = 0"):
            solve(Moments.from_data(X, Y), SolverConfig(), penalty)


def report_split(seed):
    """The moments of report seed ``seed``'s replicate 0 on its 70-row training split, and its rho = 0.1 graph."""
    ds = simulate_dataset(SimulationSpec(seed=replicate_seed(seed, 0)))
    return Moments.from_data(ds.X[:70], ds.Y[:70]), build_correlation_graph(ds.Y, 0.1)


def long_chain(seed, n=500, j=400, segment=40):
    """A 400-covariate chain on Gaussian covariates, with the fused_chain_long workload's shape and lam, gamma."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, j))
    beta = np.array([(0.0, 1.0, 0.0, -1.0)[(i // segment) % 4] for i in range(j)])
    y = X @ beta + rng.standard_normal(n)
    return Moments.from_data(X, y[:, None]), CovariateFusionOperator.from_graph(chain_graph(j), 0.5, 5.0, n_inputs=1)


def two_task_fusion():
    """c05's two-task problem at gamma = 10, drawn from the same stream as the acceptance test."""
    rng = np.random.default_rng(505)
    rng.standard_normal((40, 6))
    rng.standard_normal((6, 3)) * (rng.random((6, 3)) < 0.5)
    rng.standard_normal((40, 3))
    X2 = rng.standard_normal((12, 3))
    Y2 = np.column_stack([X2 @ np.array([1.0, 0.0, -0.5]), X2 @ np.array([0.9, 0.1, -0.4])])
    Y2 += 0.1 * rng.standard_normal(Y2.shape)
    return Moments.from_data(X2, Y2), FusionOperator.from_graph(TaskGraph(2, ((1, 2, 1.0),)), 0.4, 10.0, n_inputs=3)


def fusion_heavy():
    """The fit_fusion_heavy shape: N = 200, J = 100, K = 45 in three groups, exactly 300 edges, lam = gamma = 0.1."""
    ds = simulate_dataset(SimulationSpec(n_samples=200, n_inputs=100, n_outputs=45, group_sizes=(15, 15, 15)))
    r = np.abs(np.corrcoef(ds.Y, rowvar=False)[np.triu_indices(45, 1)])
    s = np.sort(r)[::-1]
    graph = build_correlation_graph(ds.Y, 0.5 * (s[299] + s[300]))
    return Moments.from_data(ds.X, ds.Y), FusionOperator.from_graph(graph, 0.1, 0.1, n_inputs=100)


def operator_edges(op):
    """The (m, l, r) edges, 1-based, that ``op`` was built from."""
    return [(int(a) + 1, int(b) + 1, float(s * w)) for a, b, w, s in zip(op.edge_m, op.edge_l, op.edge_weight,
                                                                          op.edge_sign)]


def primal_dual_step_bound(m, op):
    """max_k 1/tau_k of the primal-dual loop on ``op``'s fusion term: (lam_max / 2 + r max_k sum_e |C_ke|) / 0.99."""
    C = dense_fusion_matrix(op.n_tasks, operator_edges(op), 0.0, op.gamma)
    return (m.lam_max / 2 + STEP_RATIO * np.abs(C).sum(axis=1).max()) / 0.99


def smoothed_step_bound(m, op, mu):
    """The smoothed loop's last-stage L on ``op``'s fusion term: lam_max + ||C||^2 / mu, the norm from its spectrum."""
    return m.lam_max + replace(op, lam=0.0).squared_norm / mu


class TestLoopChoice:
    # solve runs the primal-dual loop only on a nonsingular X^T X at rho = ||C||^2 / (mu lam_max) > PRIMAL_DUAL_RHO;
    # the loop reads the degree bound's rho, and lipschitz_used tells the loops apart: lam_max + ||C||^2 / mu with the
    # spectral norm on the smoothed loop, 1/tau on the primal-dual one

    @staticmethod
    def step_bound(m, op, config=SolverConfig()):
        return solve(m, replace(config, max_iters=1), op).lipschitz_used

    def test_a_fusion_heavy_fit_stays_smoothed(self):
        m, op = fusion_heavy()
        assert op.n_edges == 300 and not m.null_basis.shape[1]
        assert self.step_bound(m, op) == smoothed_step_bound(m, op, SolverConfig().mu)
        # the degree bound 2 gamma^2 max_k d_k is 1.85 sigma_max(C)^2 here: its step took 40 iterations, the
        # spectral norm's takes 30
        sol = solve(m, SolverConfig(), op)
        assert sol.converged and sol.iterations <= 35

    def test_a_singular_gram_stays_smoothed(self):
        X, Y = centered_problem(32, n=20, j=30, k=3)
        m = Moments.from_data(X, Y)
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8),)), lam=0.5, gamma=5.0, n_inputs=30)
        assert m.null_basis.shape[1] and replace(op, lam=0.0).norm_bound() ** 2 > 1e3 * 1e-4 * m.lam_max
        assert self.step_bound(m, op) == smoothed_step_bound(m, op, 1e-4)

    def test_a_wide_fused_chain_steps_by_the_degree_bound_and_builds_no_dense_c(self):
        # J >> N keeps a fused fit on the smoothed loop. Its 1 x J operator has K = J > 1, so squared_norm is the degree
        # bound's square, about tight on a chain, and the fit forms neither the J x |E| dense C nor the J x J Gram
        # C C^T: its traced peak stays far below either one
        rng = np.random.default_rng(33)
        n, j = 30, 600
        X = rng.standard_normal((n, j))
        m = Moments.from_data(X, (X[:, :40].sum(axis=1) + rng.standard_normal(n))[:, None])
        op = CovariateFusionOperator.from_graph(chain_graph(j), 0.5, 5.0, n_inputs=1)
        assert m.null_basis.shape[1] and m.inv_factor.size  # both computed before the trace starts
        tracemalloc.start()
        try:
            sol = solve(m, SolverConfig(max_iters=50), op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fusion = replace(op, lam=0.0)
        assert fusion.squared_norm == fusion.norm_bound() ** 2
        assert sol.lipschitz_used == smoothed_step_bound(m, op, SolverConfig().mu)
        assert peak < 8 * j * (j - 1) / 4  # a quarter of the dense C alone

    def test_a_small_gamma_stays_smoothed(self):
        m, graph = report_split(0)
        op = FusionOperator.from_graph(graph, 0.0599, 0.01, n_inputs=30)
        assert self.step_bound(m, op) == smoothed_step_bound(m, op, 1e-4)

    def test_a_large_gamma_report_point_takes_the_primal_dual_loop(self):
        m, graph = report_split(0)
        op = FusionOperator.from_graph(graph, 0.0599, 3.59, n_inputs=30)
        assert self.step_bound(m, op) == pytest.approx(primal_dual_step_bound(m, op), rel=1e-12)

    def test_a_long_chain_takes_the_primal_dual_loop(self):
        m, op = long_chain(0)
        assert self.step_bound(m, op) == pytest.approx(primal_dual_step_bound(m, op), rel=1e-12)

    def test_only_the_smoothed_loop_reads_the_spectral_norm(self, monkeypatch):
        # the primal-dual and unsmoothed fits step without ||C||, so they never pay its eigvalsh
        def refuse(op):
            raise AssertionError("squared_norm read")

        m, graph = report_split(0)
        fits = [(m, FusionOperator.from_graph(graph, 0.0599, 3.59, n_inputs=30)), long_chain(0),
                (m, FusionOperator.from_graph(graph, 0.0599, 0.0, n_inputs=30)), (m, GroupNorm(0.0599, 1))]
        with monkeypatch.context() as patch:
            patch.setattr(FusionOperator, "squared_norm", property(refuse))
            for moments, penalty in fits:
                assert solve(moments, SolverConfig(), penalty).converged
            with pytest.raises(AssertionError, match="squared_norm read"):
                solve(m, SolverConfig(), FusionOperator.from_graph(graph, 0.0599, 0.0599, n_inputs=30))

    def test_the_loop_switches_where_rho_passes_the_threshold(self):
        # rho just below PRIMAL_DUAL_RHO stays smoothed, just above it switches
        m, graph = report_split(0)
        op = FusionOperator.from_graph(graph, 0.0599, 1.0, n_inputs=30)
        at = replace(op, lam=0.0).norm_bound() ** 2 / (PRIMAL_DUAL_RHO * m.lam_max)
        assert self.step_bound(m, op, SolverConfig(mu=at * 1.001)) == smoothed_step_bound(m, op, at * 1.001)
        assert self.step_bound(m, op, SolverConfig(mu=at * 0.999)) == pytest.approx(primal_dual_step_bound(m, op),
                                                                                    rel=1e-12)


class TestPrimalDualCertificate:
    # validity on the primal-dual side: every certified lower bound F - gap lies at or below the
    # objective of a tight run, also at capped runs, whose bound comes from fewer checks

    @staticmethod
    def assert_valid(m, op, configs):
        tight = solve(m, SolverConfig(mu=1e-12, rel_obj_tol=1e-12, max_iters=200000), op)
        assert tight.converged
        for config in configs:
            sol = solve(m, config, op)
            assert sol.lipschitz_used == pytest.approx(primal_dual_step_bound(m, op), rel=1e-12)
            assert sol.objective_exact - sol.gap <= tight.objective_exact + 1e-12 * abs(tight.objective_exact)
            assert sol.objective_exact >= tight.objective_exact - tight.gap - 1e-12 * abs(tight.objective_exact)
            if sol.converged:
                floor = config.mu * replace(op, lam=0.0).gap_constant()
                assert sol.gap <= max(config.rel_obj_tol * abs(sol.objective_exact), floor)

    CONFIGS = [SolverConfig(), SolverConfig(max_iters=CHECK_EVERY), SolverConfig(max_iters=5 * CHECK_EVERY),
               SolverConfig(mu=1e-8, rel_obj_tol=1e-9)]

    @pytest.mark.parametrize("seed", range(3))
    def test_report_points_at_the_largest_gamma(self, seed):
        m, graph = report_split(seed)
        for lam in (1e-3, 0.0599, 3.59):
            self.assert_valid(m, FusionOperator.from_graph(graph, lam, 3.59, n_inputs=30), self.CONFIGS)

    def test_a_long_chain(self):
        self.assert_valid(*long_chain(1), self.CONFIGS)

    def test_the_two_task_fusion_limit(self):
        m, op = two_task_fusion()
        self.assert_valid(m, op, [*self.CONFIGS, SolverConfig(mu=2e-7, rel_obj_tol=1e-13, max_iters=400000)])


class TestPrimalDualSteps:
    # the primal-dual loop's per-edge steps sigma_e and per-task steps tau_k come from the absolute sums of C alone

    @pytest.mark.parametrize("j", [8, 3], ids=["dense", "edge arrays"])
    def test_both_forms_of_one_graph_get_the_same_steps(self, j):
        # the gflasso operator over K tasks and the fused operator over K covariates: one sigma, one tau up to layout
        graph = TaskGraph(5, ((1, 2, 0.8), (1, 3, -0.6), (2, 4, 0.5), (4, 5, 0.9)))
        tasks = FusionOperator.from_graph(graph, lam=0.0, gamma=0.7, n_inputs=j)
        covariates = CovariateFusionOperator.from_graph(graph, lam=0.0, gamma=0.7, n_inputs=1)
        assert (tasks._C is None) == (j < 5) and covariates._C is None
        (sigma_t, tau_t), (sigma_c, tau_c) = primal_dual_steps(3.0, tasks), primal_dual_steps(3.0, covariates)
        assert (tau_t.shape, tau_c.shape) == ((1, 5), (5, 1))
        assert np.array_equal(sigma_t, sigma_c) and np.array_equal(tau_t.ravel(), tau_c.ravel())

    def test_a_zero_weight_edge_gets_no_dual_step(self):
        op = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.0), (2, 3, -0.5))), lam=0.0, gamma=2.0, n_inputs=4)
        sigma, tau = primal_dual_steps(3.0, op)
        assert sigma.tolist() == [0.0, STEP_RATIO / 2.0]
        assert tau.tolist() == [[0.99 / 1.5, 0.99 / (1.5 + STEP_RATIO), 0.99 / (1.5 + STEP_RATIO)]]

    @pytest.mark.parametrize("model", ["gflasso", "fused"])
    def test_fits_over_a_zero_weight_edge_stay_finite_and_certified(self, model):
        # one edge with r = 0 is a zero column of C: the primal-dual fit over it is finite, certified, and its
        # F - gap lies at or below a tight run's F
        if model == "gflasso":
            m, graph = report_split(0)
            edges = ((graph.edges[0][0], graph.edges[0][1], 0.0), *graph.edges[1:])
            op = FusionOperator.from_graph(TaskGraph(graph.node_count, edges), 0.0599, 3.59, n_inputs=30)
        else:
            m, _ = long_chain(2)
            edges = tuple((a, b, 0.0 if a == 200 else r) for a, b, r in chain_graph(400).edges)
            op = CovariateFusionOperator.from_graph(TaskGraph(400, edges), 0.5, 5.0, n_inputs=1)
        sol = solve(m, SolverConfig(), op)
        assert sol.lipschitz_used == pytest.approx(primal_dual_step_bound(m, op), rel=1e-12)
        assert np.all(np.isfinite(sol.B_hat)) and np.isfinite(sol.objective_exact) and sol.converged
        tight = solve(m, SolverConfig(mu=1e-12, rel_obj_tol=1e-12, max_iters=200000), op)
        assert sol.objective_exact - sol.gap <= tight.objective_exact + 1e-12 * abs(tight.objective_exact)

    def test_the_largest_gamma_report_points_keep_their_iteration_count(self):
        # the 9 primal-dual fits of report splits 0-2 at gamma = 3.59 took 1,200 iterations with the scalar steps
        # sigma = r / ||C||, tau = 0.99 / (lam_max / 2 + r ||C||) at r = 30, and take 740 with the diagonal steps
        iterations = 0
        for seed in range(3):
            m, graph = report_split(seed)
            for lam in (1e-3, 0.0599, 3.59):
                op = FusionOperator.from_graph(graph, lam, 3.59, n_inputs=30)
                sol = solve(m, SolverConfig(), op)
                assert sol.lipschitz_used == pytest.approx(primal_dual_step_bound(m, op), rel=1e-12)
                assert sol.converged
                iterations += sol.iterations
        assert iterations <= 740


def start_problem(kind):
    """(moments, penalty, name of the loop solve runs) for one fit of each loop and norm a start point can enter."""
    if kind in ("lasso", "l1l2"):
        m, _ = report_split(0)
        return m, GroupNorm(0.0599, 1 if kind == "lasso" else 10), "accelerated"
    if kind == "smoothed":
        return (*fusion_heavy(), "smoothed")
    if kind == "report point":
        m, graph = report_split(0)
        return m, FusionOperator.from_graph(graph, 0.0599, 3.59, n_inputs=30), "primal-dual"
    return (*long_chain(0), "primal-dual")


class TestStartPoint:
    # solve(start=None) begins at zeros, both loops begin at a given start, and the primal-dual dual iterate at
    # aux_optimum(start, mu); only the iterate carries over, so every certificate stays valid from any start

    KINDS = ["lasso", "l1l2", "smoothed", "report point", "chain"]

    @staticmethod
    def loop_of(m, penalty, sol):
        if isinstance(penalty, GroupNorm):
            return "accelerated"
        smoothed = sol.lipschitz_used == smoothed_step_bound(m, penalty, SolverConfig().mu)
        return "smoothed" if smoothed else "primal-dual"

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_zero_start_is_the_cold_fit_bit_for_bit(self, kind):
        m, penalty, loop = start_problem(kind)
        cold = solve(m, SolverConfig(), penalty)
        zero = solve(m, SolverConfig(), penalty, np.zeros(m.XtY.shape))
        assert self.loop_of(m, penalty, cold) == loop
        assert np.array_equal(cold.B_hat, zero.B_hat)
        assert (cold.objective_exact, cold.lipschitz_used) == (zero.objective_exact, zero.lipschitz_used)
        assert cold.certificate() == zero.certificate() and cold.converged

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_start_of_the_wrong_shape_is_refused(self, kind):
        m, penalty, _ = start_problem(kind)
        J, K = m.XtY.shape
        with pytest.raises(ValueError, match=re.escape(f"coefficient shape {(J, K)}, got {(J, K + 1)}")):
            solve(m, SolverConfig(), penalty, np.zeros((J, K + 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_start_is_refused(self, bad):
        m, penalty, _ = start_problem("report point")
        start = np.zeros(m.XtY.shape)
        start[3, 1] = bad
        with pytest.raises(ValueError, match="start point has non-finite entries"):
            solve(m, SolverConfig(), penalty, start)

    def test_the_start_is_not_changed(self):
        m, penalty, _ = start_problem("report point")
        start = np.random.default_rng(50).standard_normal(m.XtY.shape)
        kept = start.copy()
        solve(m, SolverConfig(), penalty, start)
        assert np.array_equal(start, kept)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("gamma, loop", [(0.0599, "smoothed"), (3.59, "primal-dual")])
    def test_far_starts_certify_below_a_tight_run(self, seed, gamma, loop):
        # the lam = 1e-3 solution as the start of the lam = 3.59 fit, and a random start: every F - gap lies at or
        # below a tight cold run's F, and a converged fit is within its target
        m, graph = report_split(seed)
        op = FusionOperator.from_graph(graph, 3.59, gamma, n_inputs=30)
        tight = solve(m, SolverConfig(mu=1e-12, rel_obj_tol=1e-12, max_iters=200000), op)
        assert tight.converged
        far = solve(m, SolverConfig(), FusionOperator.from_graph(graph, 1e-3, gamma, n_inputs=30)).B_hat
        noise = 10.0 * np.random.default_rng(seed).standard_normal(m.XtY.shape)
        config, eps = SolverConfig(), 1e-12 * abs(tight.objective_exact)
        floor = config.mu * replace(op, lam=0.0).gap_constant()
        for start in (far, noise):
            for run in (config, replace(config, max_iters=CHECK_EVERY)):
                sol = solve(m, run, op, start)
                assert self.loop_of(m, op, sol) == loop
                assert sol.objective_exact - sol.gap <= tight.objective_exact + eps
                assert sol.objective_exact >= tight.objective_exact - tight.gap - eps
                if run is config:
                    assert sol.converged and sol.gap <= max(config.rel_obj_tol * abs(sol.objective_exact), floor)

    @pytest.mark.parametrize("kind", ["lasso", "l1l2"])
    def test_a_start_at_the_optimum_stops_at_the_first_check(self, kind):
        # a proximal gradient step leaves the optimum where it is, so the first check certifies it
        m, norm, _ = start_problem(kind)
        tight = solve(m, SolverConfig(rel_obj_tol=1e-13, max_iters=100000), norm)
        sol = solve(m, SolverConfig(), norm, tight.B_hat)
        assert sol.converged and sol.iterations == CHECK_EVERY
        assert sol.objective_exact - sol.gap <= tight.objective_exact + 1e-12 * abs(tight.objective_exact)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_start_near_the_optimum_saves_iterations(self, kind):
        m, penalty, _ = start_problem(kind)
        cold = solve(m, SolverConfig(), penalty)
        warm = solve(m, SolverConfig(), penalty, cold.B_hat)
        assert warm.converged and warm.iterations < cold.iterations


class TestAcceleratedLoop:
    @staticmethod
    def lasso_parts(seed, width):
        # the moments, the norm, the loss gradient and F of one lasso (width 1) or l1/l2 (width K) problem
        X, Y = centered_problem(seed, n=30, j=6, k=3)
        m, norm = Moments.from_data(X, Y), GroupNorm(0.5, width)

        def grad(W):
            return m.XtX @ W - m.XtY

        return m, norm, grad, lambda B: m.loss(B, grad(B)) + norm.penalty_exact(B)

    @pytest.mark.parametrize("width", [1, 3])
    def test_one_prox_per_iteration_at_step_one_over_l(self, width):
        # the step defaults to 1/L: the first prox gets W^0 - g(W^0) / L from W^0 = 0
        m, norm, grad, F = self.lasso_parts(40, width)
        inputs, prox_at = [], norm.prox_map(1.0 / m.lam_max)

        def prox(V):
            inputs.append(V.copy())
            return prox_at(V)

        B0 = np.zeros(m.XtY.shape)
        _, iters, _ = three_sequence_minimize(grad, lambda B: ((F(B),), False), B0, m.lam_max, 37, prox, None)
        assert iters == len(inputs) == 37
        assert np.array_equal(inputs[0], B0 - grad(B0) * (1.0 / m.lam_max))

    def test_a_check_that_does_not_improve_restarts_from_the_checked_iterate(self):
        # the first check sets the best value; the second equals it, so the loop restarts from B^20 with no momentum
        m, norm, grad, _ = self.lasso_parts(41, 1)
        points, iterates = [], []

        def grad_at(W):
            points.append(W.copy())
            return grad(W)

        three_sequence_minimize(grad_at, lambda B: ((1.0,), False), np.zeros(m.XtY.shape), m.lam_max,
                                2 * CHECK_EVERY + 2, norm.prox_map(1.0 / m.lam_max),
                                lambda B, g: iterates.append(B.copy()))
        first, second = CHECK_EVERY, 2 * CHECK_EVERY  # 1-based iterations of the two checks
        assert not np.array_equal(points[first], iterates[first - 1])  # improved: the momentum carries on
        assert np.array_equal(points[second], iterates[second - 1])
        assert np.array_equal(points[second + 1], iterates[second])

    @pytest.mark.parametrize("name", ["lasso", "l1l2"])
    def test_rate_without_restart(self, name):
        # F(B^t) - F* <= 2 L ||B0 - B*||^2 / (t+1)^2 from B0 = 0 on 20 random problems, F* the certified lower bound
        worst = 0.0
        for seed in range(20):
            _, X, Y, norm = next(p for p in certificate_problems(seed) if p[0] == name)
            m = Moments.from_data(X, Y)
            star = solve(m, SolverConfig(rel_obj_tol=1e-13, max_iters=100000), norm)
            assert star.converged
            f_star, falling, fs = star.objective_exact - star.gap, itertools.count(0, -1), []
            three_sequence_minimize(
                lambda W: m.XtX @ W - m.XtY, lambda B: ((next(falling),), False), np.zeros(m.XtY.shape), m.lam_max,
                300, norm.prox_map(1.0 / m.lam_max),
                lambda B, g: fs.append(m.loss(B, m.XtX @ B - m.XtY) + norm.penalty_exact(B)),
            )
            t = np.arange(1, len(fs) + 1)
            bound = 2.0 * m.lam_max * float(np.vdot(star.B_hat, star.B_hat)) / (t + 1.0) ** 2
            worst = max(worst, float(np.max((np.array(fs) - f_star) / bound)))
        assert worst <= 1.0

    @pytest.mark.parametrize("name", ["lasso", "l1l2"])
    def test_linear_rate_with_the_strong_convexity_modulus(self, name):
        # V-FISTA's rate (Beck 2017, Thm 10.42) for the capped momentum, no restart, from B0 = 0 on 20 random J < N
        # problems: F(B^t) - F* <= (1 - sqrt(q))^t (F(0) - F* + (lam_min / 2) ||B*||^2), q = lam_min / lam_max; F* is
        # certified only to the reference's gap, and F(B^t) through the moments only to rounding
        worst = 0.0
        for seed in range(20):
            _, X, Y, norm = next(p for p in certificate_problems(seed) if p[0] == name)
            m = Moments.from_data(X, Y)
            lam_min = float(np.linalg.eigvalsh(m.XtX)[0])
            assert lam_min > 0
            star = solve(m, SolverConfig(rel_obj_tol=1e-13, max_iters=100000), norm)
            assert star.converged
            f_star, falling, fs = star.objective_exact - star.gap, itertools.count(0, -1), []
            three_sequence_minimize(
                lambda W: m.XtX @ W - m.XtY, lambda B: ((next(falling),), False), np.zeros(m.XtY.shape), m.lam_max,
                300, norm.prox_map(1.0 / m.lam_max),
                lambda B, g: fs.append(m.loss(B, m.XtX @ B - m.XtY) + norm.penalty_exact(B)), lam_min,
            )
            t = np.arange(1, len(fs) + 1)
            start = 0.5 * m.ynorm2 - f_star + 0.5 * lam_min * float(np.vdot(star.B_hat, star.B_hat))
            bound = (1.0 - (lam_min / m.lam_max) ** 0.5) ** t * start
            excess = np.array(fs) - f_star - star.gap
            worst = max(worst, float(np.max(excess / (bound + 1e-13 * abs(f_star)))))
        assert worst <= 1.0

    def test_a_modulus_outside_zero_to_l_is_refused(self):
        m, norm, grad, F = self.lasso_parts(42, 1)
        for modulus in (-1e-3, 1.001 * m.lam_max):
            with pytest.raises(ValueError, match="modulus"):
                three_sequence_minimize(grad, lambda B: ((F(B),), False), np.zeros(m.XtY.shape), m.lam_max, 1,
                                        norm.prox_map(1.0 / m.lam_max), None, modulus)


def wide_candidate():
    """J > N: 50 rows of a J = 200, K = 20 simulation, its rho = 0.3 graph taken on all 80 rows (72 edges)."""
    ds = simulate_dataset(SimulationSpec(n_samples=80, n_inputs=200, n_outputs=20, group_sizes=(7, 7, 6)))
    return Moments.from_data(ds.X[:50], ds.Y[:50]), build_correlation_graph(ds.Y, 0.3)


def schedule_problem(kind):
    """(moments, penalty, name of the loop solve runs) of one fit: on a report split, the chain or the wide candidate."""
    if kind == "wide":
        m, graph = wide_candidate()
        return m, FusionOperator.from_graph(graph, 1.0, 1.29, n_inputs=200), "smoothed"
    if kind == "chain":
        return (*long_chain(3), "primal-dual")
    m, graph = report_split(int(kind[-1]))
    if kind.startswith("lasso"):
        return m, GroupNorm(0.0599, 1), "accelerated"
    if kind.startswith("l1l2"):
        return m, GroupNorm(0.0599, 10), "accelerated"
    gamma, loop = (3.59, "primal-dual") if kind.startswith("primal-dual") else (0.0599, "smoothed")
    return m, FusionOperator.from_graph(graph, 0.0599, gamma, n_inputs=30), loop


class TestCheckSchedule:
    # the FISTA loop checks at CHECK_EVERY, then where next_check puts the next check: where the gap would reach its
    # target at its rate over the last two checks, 1 to 2 CHECK_EVERY iterations on, else CHECK_EVERY on; the
    # primal-dual loop checks every CHECK_EVERY iterations; both check at the cap, and only a certifying check stops

    @staticmethod
    def checked_at(records, max_iters):
        # the iterations at which three_sequence_minimize ran its check, given the records the check returns in turn
        m, norm, grad, _ = TestAcceleratedLoop.lasso_parts(46, 1)
        iteration, seen, records = [0], [], iter(records)

        def count(B, g):
            iteration[0] += 1

        def check(B):
            seen.append(iteration[0])
            return next(records), False

        three_sequence_minimize(grad, check, np.zeros(m.XtY.shape), m.lam_max, max_iters,
                                norm.prox_map(1.0 / m.lam_max), count)
        return seen

    def test_a_record_without_a_gap_keeps_the_fixed_cadence(self):
        assert self.checked_at(((-v,) for v in itertools.count()), 57) == [10, 20, 30, 40, 50, 57]
        assert next_check(20, (-1.0,), (10, (0.0,))) == 20 + CHECK_EVERY

    def test_a_falling_gap_sets_the_next_check_and_the_cap_is_always_checked(self):
        # gap 1 at 10, 0.1 at 20: a decade per 10 iterations, so the target 2e-3 is due ceil(16.99) = 17 on; the gap
        # rises at 37, so the next check is 10 on; it falls too slowly at 47 and 67, so 20 on, cut at the cap 70
        gaps = [1.0, 0.1, 0.5, 0.4, 0.39, 0.38]
        records = [(-float(i), -float(i), gap, 2e-3) for i, gap in enumerate(gaps)]
        assert self.checked_at(records, 70) == [10, 20, 37, 47, 67, 70]
        assert self.checked_at(records, 5) == [5]
        # a gap just above its target is checked again at the next iteration
        assert next_check(20, (0.0, 0.0, 0.1, 0.099), (10, (0.0, 0.0, 1.0, 0.099))) == 21

    @pytest.mark.parametrize("kind", ["smoothed 0", "lasso 0", "primal-dual 0"])
    def test_one_iteration_is_one_check(self, kind):
        m, penalty, _ = schedule_problem(kind)
        sol = solve(m, SolverConfig(max_iters=1), penalty)
        assert sol.certificate() == {"iterations": 1, "checks": 1, "converged": sol.converged,
                                     "stop_reason": sol.stop_reason, "gap": sol.gap}

    @pytest.mark.parametrize("kind", ["smoothed 0", "smoothed 1", "primal-dual 2", "lasso 1", "l1l2 2", "chain",
                                      "wide"])
    def test_a_fit_stops_early_only_on_a_certifying_check(self, kind):
        # at the default and at capped settings: a fit that ends before its cap is converged, a converged fit's gap
        # is within its target, and every F - gap lies at or below a long run's F
        m, penalty, loop = schedule_problem(kind)
        long = solve(m, SolverConfig(mu=1e-10, rel_obj_tol=1e-12, max_iters=20000 if kind == "wide" else 200000),
                     penalty)
        assert long.converged or kind == "wide"
        eps = 1e-12 * abs(long.objective_exact)
        for config in (SolverConfig(), SolverConfig(max_iters=13), SolverConfig(max_iters=57),
                       SolverConfig(mu=1e-6, rel_obj_tol=1e-9, max_iters=5000)):
            sol = solve(m, config, penalty)
            assert sol.converged or sol.iterations == config.max_iters, (kind, config)
            assert 1 <= sol.checks <= sol.iterations
            if loop == "primal-dual":
                assert sol.checks == -(-sol.iterations // CHECK_EVERY)
            if sol.converged:
                floor = config.mu * replace(penalty, lam=0.0).gap_constant() if loop != "accelerated" else 0.0
                assert sol.gap <= max(config.rel_obj_tol * abs(sol.objective_exact), floor), (kind, config)
            assert sol.objective_exact - sol.gap <= long.objective_exact + eps, (kind, config)

    def test_the_warm_lam_paths_of_report_splits_keep_their_counts(self):
        # the warm-started lam paths 3.59, 0.0599, 1e-3 of report splits 0-2, per model and gflasso gamma:
        # (iterations, checks) with a check every CHECK_EVERY iterations and the mu ladder (100, 10, 1), before; with
        # next_check and the ladder (30, 1), after. The gamma = 3.59 paths run the primal-dual loop, whose fixed
        # cadence is unchanged. With the scalar step 1 / lam_max(X^T X) the lasso and l1/l2 paths took 500 and 450.
        before = {"lasso": (400, 40), "l1l2": (360, 36), 3.59: (520, 52), 0.0599: (220, 22), 0.001: (260, 26)}
        after = {"lasso": (363, 34), "l1l2": (345, 33), 3.59: (520, 52), 0.0599: (210, 21), 0.001: (210, 21)}
        counts = dict.fromkeys(before, (0, 0))
        for seed in range(3):
            m, graph = report_split(seed)
            for key in counts:
                start = None
                for lam in (3.59, 0.0599, 1e-3):
                    if key in ("lasso", "l1l2"):
                        penalty = GroupNorm(lam, 1 if key == "lasso" else 10)
                    else:
                        penalty = FusionOperator.from_graph(graph, lam, key, n_inputs=30)
                    sol = solve(m, SolverConfig(), penalty, start)
                    assert sol.converged
                    counts[key] = (counts[key][0] + sol.iterations, counts[key][1] + sol.checks)
                    start = sol.B_hat
        for key, (iterations, checks) in counts.items():
            assert iterations <= after[key][0] <= before[key][0] and checks <= after[key][1] <= before[key][1], key


class TestStrongConvexity:
    # solve passes a modulus to the loop only at mu_s = 0 (lasso, l1/l2, and gflasso at gamma = 0 or without edges),
    # with per-row steps: lam_min of the scaled Gram D^-1/2 X^T X D^-1/2 and L_s; every smoothed stage runs the
    # scalar step and the k/(k+3) momentum it ran before

    @staticmethod
    def loop_calls(monkeypatch, m, penalty, force_zero=False):
        # the (lipschitz, modulus, step) of each call solve makes to the loop; force_zero runs each at modulus 0
        seen, loop = [], three_sequence_minimize
        signature = inspect.signature(loop)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((bound.arguments["lipschitz"], bound.arguments["modulus"], bound.arguments["step"]))
            if force_zero:
                bound.arguments["modulus"] = 0.0
            return loop(*bound.args, **bound.kwargs)

        monkeypatch.setattr("gflasso.solver.three_sequence_minimize", recording)
        return solve(m, SolverConfig(), penalty), seen

    @pytest.mark.parametrize("kind", ["lasso", "l1l2", "gamma zero", "edgeless"])
    def test_unsmoothed_fits_get_the_scaled_modulus_and_per_row_steps(self, monkeypatch, kind):
        X, Y = centered_problem(43, n=30, j=6, k=3)
        m = Moments.from_data(X, Y)
        penalty = {"lasso": GroupNorm(0.5, 1), "l1l2": GroupNorm(0.5, 3),
                   "gamma zero": FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.8),)), 0.5, 0.0, n_inputs=6),
                   "edgeless": FusionOperator.from_graph(TaskGraph(3), 0.5, 2.0, n_inputs=6)}[kind]
        sol, seen = self.loop_calls(monkeypatch, m, penalty)
        d, L_s = jacobi_bound(m.XtX)
        modulus = float(np.linalg.eigvalsh(m.XtX / np.sqrt(np.outer(d, d)))[0])
        [(lipschitz, seen_modulus, step)] = seen
        assert sol.converged and np.linalg.eigvalsh(m.XtX)[0] > 0
        assert lipschitz == pytest.approx(L_s, rel=1e-12) and seen_modulus == pytest.approx(modulus, rel=1e-10)
        assert step.shape == m.XtY.shape and np.allclose(step, 1.0 / (L_s * d[:, None]), rtol=1e-12, atol=0)

    def test_a_smoothed_fit_keeps_its_momentum_bit_for_bit(self, monkeypatch):
        m, graph = report_split(1)
        op = FusionOperator.from_graph(graph, 0.0599, 0.0599, n_inputs=30)
        sol, seen = self.loop_calls(monkeypatch, m, op)
        zero, _ = self.loop_calls(monkeypatch, m, op, force_zero=True)
        assert sol.lipschitz_used == smoothed_step_bound(m, op, SolverConfig().mu)
        assert [(modulus, step) for _, modulus, step in seen] == [(0.0, None)] * len(seen) and len(seen) >= 2
        assert np.array_equal(sol.B_hat, zero.B_hat) and sol.certificate() == zero.certificate()


class TestJacobiMetric:
    # unsmoothed stages step row j by 1 / (L_s d_j) and cap the momentum at q = modulus / L_s, all from Moments.jacobi

    @staticmethod
    def moments(kind):
        if kind == "report split":
            return report_split(2)[0]
        X, Y = centered_problem(45, n=8 if kind == "singular" else 30, j=12 if kind == "singular" else 6, k=3)
        if kind == "zero variance":
            X[:, 2] = 0.1  # centered, rounding noise of order 1e-17
        return Moments.from_data(X, Y)

    @pytest.mark.parametrize("kind", ["random", "report split", "singular", "zero variance"])
    def test_the_metric_bounds_the_gram_and_every_step_is_finite(self, kind):
        # modulus D <= X^T X <= L_s D; d floored where a column has no variance, so no threshold is infinite
        m = self.moments(kind)
        d, L_s, modulus = m.jacobi
        slack = 1e-12 * m.lam_max if kind == "zero variance" else 0.0
        assert np.linalg.eigvalsh(L_s * np.diag(d) - m.XtX)[0] > -slack
        assert np.linalg.eigvalsh(m.XtX - modulus * np.diag(d))[0] >= -1e-12 * m.lam_max
        assert (modulus > 0) == (kind in ("random", "report split")) and modulus < L_s
        assert np.all(np.isfinite(1.0 / (L_s * d))) and d.min() > 0
        for width in (1, m.XtY.shape[1]):
            sol = solve(m, SolverConfig(), GroupNorm(0.5, width))
            assert sol.converged and np.all(np.isfinite(sol.B_hat))
            assert sol.lipschitz_used == L_s * d.max()

    @pytest.mark.parametrize("name", ["lasso", "l1l2"])
    def test_linear_rate_in_the_jacobi_metric(self, name):
        # V-FISTA's rate (Beck 2017, Thm 10.42) in the norm ||B||_D^2 = sum_j d_j ||B_j||^2, where the loss is
        # L_s-smooth and modulus-strongly convex: F(B^t) - F* <= (1 - sqrt(q))^t (F(0) - F* + (modulus / 2)
        # ||B*||_D^2), q = modulus / L_s, for solve's steps, no restart, from B0 = 0 on 20 random J < N problems
        worst = 0.0
        for seed in range(20):
            _, X, Y, norm = next(p for p in certificate_problems(seed) if p[0] == name)
            m = Moments.from_data(X, Y)
            d, L_s, modulus = m.jacobi
            assert modulus > 0
            star = solve(m, SolverConfig(rel_obj_tol=1e-13, max_iters=100000), norm)
            assert star.converged
            step = np.repeat(1.0 / (L_s * d)[:, None], m.XtY.shape[1], axis=1)
            f_star, falling, fs = star.objective_exact - star.gap, itertools.count(0, -1), []
            three_sequence_minimize(
                lambda W: m.XtX @ W - m.XtY, lambda B: ((next(falling),), False), np.zeros(m.XtY.shape), L_s,
                300, norm.prox_map(step), lambda B, g: fs.append(m.loss(B, m.XtX @ B - m.XtY) + norm.penalty_exact(B)),
                modulus, step,
            )
            t = np.arange(1, len(fs) + 1)
            start = 0.5 * m.ynorm2 - f_star + 0.5 * modulus * float(np.vdot(d[:, None] * star.B_hat, star.B_hat))
            bound = (1.0 - (modulus / L_s) ** 0.5) ** t * start
            excess = np.array(fs) - f_star - star.gap
            worst = max(worst, float(np.max(excess / (bound + 1e-13 * abs(f_star)))))
        assert worst <= 1.0

    @pytest.mark.parametrize("gamma", [0.0599, 3.59], ids=["smoothed", "primal-dual"])
    def test_a_fusion_fit_never_computes_the_scaled_spectrum(self, gamma):
        # nor builds the maps of the operator it is given: it applies only that operator's lam = 0 copy
        m, graph = report_split(1)
        op = FusionOperator.from_graph(graph, 0.0599, gamma, n_inputs=30)
        sol = solve(m, SolverConfig(), op)
        assert sol.converged and (sol.lipschitz_used == smoothed_step_bound(m, op, SolverConfig().mu)) == (gamma < 1)
        assert "jacobi" not in vars(m) and not {"_triplets", "_C", "_unit_maps"} & vars(op).keys()
        solve(m, SolverConfig(), FusionOperator.from_graph(graph, 0.0599, 0.0, n_inputs=30))
        assert "jacobi" in vars(m)


class TestMoments:
    def test_centers_and_keeps_the_means(self):
        rng = np.random.default_rng(40)
        X, Y = rng.standard_normal((12, 3)) + 5.0, rng.standard_normal((12, 2)) - 2.0
        m = Moments.from_data(X, Y)
        Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
        assert np.array_equal(m.x_mean, X.mean(axis=0)) and np.array_equal(m.y_mean, Y.mean(axis=0))
        assert np.array_equal(m.XtX, Xc.T @ Xc) and np.array_equal(m.XtY, Xc.T @ Yc)

    def test_all_constant_x_is_refused(self):
        # centering 0.1-valued columns leaves rounding noise, so lam_max(X^T X) alone would not see this
        X = np.full((10, 3), 0.1)
        assert np.any(X - X.mean(axis=0))
        with pytest.raises(DegenerateInputError, match="every column of X"):
            Moments.from_data(X, np.arange(10.0)[:, None])

    @pytest.mark.parametrize("Y", [np.arange(10.0), np.ones((9, 1))], ids=["1-d y", "row mismatch"])
    def test_incompatible_shapes_are_refused(self, Y):
        X = np.random.default_rng(42).standard_normal((10, 3))
        with pytest.raises(ValueError, match="incompatible shapes"):
            Moments.from_data(X, Y)

    def test_a_nonsingular_gram_has_no_null_basis_and_a_positive_modulus(self):
        X, Y = centered_problem(44, n=30, j=6, k=2)
        m = Moments.from_data(X, Y)
        lam_min = float(np.linalg.eigvalsh(m.XtX)[0])
        assert not m.null_basis.shape[1] and m.inv_factor.shape == (6, 6)
        assert 0 < lam_min < m.lam_max and m.jacobi[2] > 0

    def test_one_constant_column_leaves_the_gram_singular(self):
        X, Y = centered_problem(41)
        X[:, 0] = 0.1
        m = Moments.from_data(X, Y)
        assert m.null_basis.shape == (4, 1) and m.inv_factor.shape == (4, 3)
        assert np.linalg.eigvalsh(m.XtX)[0] <= 4 * np.finfo(float).eps * m.lam_max and m.jacobi[2] == 0.0
        assert solve(m, SolverConfig(), empty_operator(4, 2, lam=0.1)).stop_reason == "gap"


class TestSubgradientFit:
    def test_quadratic_best_so_far_montone_toward_least_squares(self):
        X, Y = centered_problem(18)
        op = empty_operator(4, 2)
        sol = subgradient_fit(Moments.from_data(X, Y), SolverConfig(max_iters=3000, record_trace=True), op)
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
        pg = solve(Moments.from_data(X, Y), SolverConfig(mu=1e-5, rel_obj_tol=1e-11, max_iters=300000), op)
        sg = subgradient_fit(Moments.from_data(X, Y), SolverConfig(max_iters=1000000), op)
        assert sg.objective_exact == pytest.approx(pg.objective_exact, rel=1e-3)

    def test_never_claims_convergence(self):
        # no stopping test: a capped run is not a certified optimum
        X, Y = centered_problem(21)
        g = TaskGraph(2, ((1, 2, 0.7),))
        op = FusionOperator.from_graph(g, lam=0.3, gamma=0.3, n_inputs=4)
        sol = subgradient_fit(Moments.from_data(X, Y), SolverConfig(max_iters=3), op)
        assert sol.iterations == 3
        assert sol.converged is False

    def test_one_apply_per_iterate(self, monkeypatch):
        # one apply per iterate, shared by its objective and the next step, plus the start point
        X, Y = centered_problem(23, n=12, j=3, k=2)
        op = FusionOperator.from_graph(TaskGraph(2, ((1, 2, 0.6),)), lam=0.2, gamma=0.3, n_inputs=3)
        calls = []
        apply = FusionOperator.apply
        monkeypatch.setattr(FusionOperator, "apply", lambda self, B: calls.append(1) or apply(self, B))
        subgradient_fit(Moments.from_data(X, Y), SolverConfig(max_iters=7), op)
        assert len(calls) == 7 + 1

    def test_solution_is_best_iterate_on_exact_objective(self):
        X, Y = centered_problem(20, n=10, j=3, k=2)
        g = TaskGraph(2, ((1, 2, -0.8),))
        op = FusionOperator.from_graph(g, lam=0.2, gamma=0.3, n_inputs=3)
        sol = subgradient_fit(Moments.from_data(X, Y), SolverConfig(max_iters=2000, record_trace=True), op)
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
    config = SolverConfig(mu=1e-3, rel_obj_tol=1e-8, max_iters=50, record_trace=True)
    sol = solve(Moments.from_data(X, Y), config, op)
    lines = trace_csv_text(sol).splitlines()
    assert lines[0] == "iter,f_exact,grad_norm"
    assert len(lines) == 1 + sol.iterations
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == sol.trace[0][0]


def test_trace_requires_recording():
    X, Y = centered_problem(22, n=10, j=3, k=2)
    op = empty_operator(3, 2)
    sol = solve(Moments.from_data(X, Y), SolverConfig(max_iters=5, rel_obj_tol=1e-8), op)
    with pytest.raises(ValueError):
        trace_csv_text(sol)
