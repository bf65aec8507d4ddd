import numpy as np
import pytest

from gflasso.graph import TaskGraph
from gflasso.smoothing import CovariateFusionOperator, FusionOperator, shrink

from oracles import dense_fusion_matrix


def random_graph(rng, n_nodes, edge_prob=0.5):
    edges = []
    for m in range(1, n_nodes):
        for l in range(m + 1, n_nodes + 1):
            if rng.random() < edge_prob:
                edges.append((m, l, float(rng.uniform(-1, 1))))
    return TaskGraph(n_nodes, tuple(edges))


def random_operator(rng, n_inputs=5, n_nodes=4, lam=None, gamma=None):
    g = random_graph(rng, n_nodes)
    lam = float(rng.uniform(0.1, 2.0)) if lam is None else lam
    gamma = float(rng.uniform(0.1, 2.0)) if gamma is None else gamma
    return FusionOperator.from_graph(g, lam=lam, gamma=gamma, n_inputs=n_inputs), g


class TestApply:
    def test_pure_scaling(self):
        op = FusionOperator.from_graph(TaskGraph(1), lam=2.0, gamma=0.0, n_inputs=1)
        assert np.array_equal(op.apply(np.array([[3.0]])), np.array([[6.0]]))

    def test_zero_matrix(self):
        op, _ = random_operator(np.random.default_rng(0))
        assert np.array_equal(op.apply(np.zeros((5, 4))), np.zeros((5, op.width)))

    def test_matches_dense_assembly(self):
        rng = np.random.default_rng(1)
        g = TaskGraph(3, ((1, 2, 0.6), (2, 3, -0.4)))
        op = FusionOperator.from_graph(g, lam=0.7, gamma=1.1, n_inputs=4)
        C = dense_fusion_matrix(3, g.edges, 0.7, 1.1)
        B = rng.standard_normal((4, 3))
        assert np.allclose(op.apply(B), B @ C, atol=1e-12)


LAYOUT = {"_triplets", "_C", "_unit_maps"}  # what an operator caches on first use


class TestMapsOnFirstUse:
    @pytest.mark.parametrize("n_inputs", [5, 2], ids=["dense", "edge arrays"])
    def test_an_operator_builds_its_maps_when_first_applied(self, n_inputs):
        op, g = random_operator(np.random.default_rng(2), n_inputs=n_inputs)
        assert not LAYOUT & vars(op).keys()
        rng = np.random.default_rng(3)
        B, A = rng.standard_normal((n_inputs, 4)), rng.standard_normal((n_inputs, op.width))
        C = dense_fusion_matrix(4, g.edges, op.lam, op.gamma)
        assert np.allclose(op.apply(B), B @ C, rtol=0.0, atol=1e-12)
        assert LAYOUT <= vars(op).keys() and (op._C is None) == (n_inputs < 4)
        # the one builder: B -> B C diag(sigma) / mu and A -> A C^T
        sigma = np.linspace(0.0, 2.0, op.width)
        forward, backward = op._maps(sigma, 0.3)
        assert np.allclose(forward(B), B @ C * sigma / 0.3, rtol=0.0, atol=1e-12)
        assert np.allclose(backward(A), A @ C.T, rtol=0.0, atol=1e-12)
        if op._C is not None:  # it divides by mu: C / mu and C sigma as they would be formed directly
            assert np.array_equal(op._maps(1.0, 0.3)[0](B), B @ (op._C / 0.3))
            assert np.array_equal(op._maps(sigma, 1.0)[0](B), B @ (op._C * sigma))


class TestStoredMaps:
    # once built, the smoothed gradient and the dual step run on the stored arrays: no operator method per call
    @pytest.mark.parametrize("form", ["K > J", "covariate"])
    def test_a_map_call_makes_no_operator_call(self, form, monkeypatch):
        rng = np.random.default_rng(21)
        graph = random_graph(rng, 7)
        if form == "K > J":
            op = FusionOperator.from_graph(graph, lam=0.0, gamma=1.3, n_inputs=3)
        else:
            op = CovariateFusionOperator.from_graph(graph, lam=0.0, gamma=1.3, n_inputs=1)
        assert op._C is None and op.n_edges > 0
        smoothed_gradient, dual_step = op.gradient_map(0.05), op.dual_step(np.linspace(0.0, 1.0, op.width))
        calls = []
        for name in ("apply", "adjoint", "aux_optimum"):
            def counted(self, *args, method=getattr(FusionOperator, name), name=name):
                calls.append(name)
                return method(self, *args)

            monkeypatch.setattr(FusionOperator, name, counted)
        B = rng.standard_normal(op.coef_shape)
        smoothed_gradient(B)
        dual_step(np.zeros((op.n_inputs, op.width)), B)
        assert calls == []
        op.aux_optimum(B, 0.05)  # the counters see the calls of the method form
        assert calls == ["aux_optimum", "apply"]


class TestAdjoint:
    def test_zero(self):
        op, _ = random_operator(np.random.default_rng(2))
        assert np.array_equal(op.adjoint(np.zeros((5, op.width))), np.zeros((5, 4)))

    def test_adjoint_identity_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            op, _ = random_operator(rng)
            A = rng.standard_normal((5, op.width))
            B = rng.standard_normal((5, 4))
            assert abs(np.vdot(A, op.apply(B)) - np.vdot(op.adjoint(A), B)) < 1e-10
            # the univariate fused operator: J x 1 coefficients, a 1 x (J + |E|) auxiliary matrix
            cov = CovariateFusionOperator.from_graph(random_graph(rng, 6), lam=0.7, gamma=1.3, n_inputs=1)
            A, b = rng.standard_normal((1, cov.width)), rng.standard_normal((6, 1))
            assert cov.apply(b).shape == A.shape and cov.adjoint(A).shape == b.shape
            assert abs(np.vdot(A, cov.apply(b)) - np.vdot(cov.adjoint(A), b)) < 1e-10

    def test_matches_dense_transpose(self):
        rng = np.random.default_rng(4)
        op, g = random_operator(rng)
        C = dense_fusion_matrix(4, g.edges, op.lam, op.gamma)
        A = rng.standard_normal((5, op.width))
        assert np.allclose(op.adjoint(A), A @ C.T, atol=1e-12)


class TestShrink:
    def test_interior(self):
        assert shrink(0.3) == 0.3

    def test_clamps(self):
        assert shrink(5.0) == 1.0
        assert shrink(-1.2) == -1.0

    def test_a_float_array_is_clamped_in_place(self):
        M = np.array([[-3.0, 0.5], [1.0, 2.5]])
        assert shrink(M) is M and M.tolist() == [[-1.0, 0.5], [1.0, 1.0]]

    def test_entrywise_equals_scalar_loop(self):
        rng = np.random.default_rng(5)
        M = 3.0 * rng.standard_normal((6, 7))
        S = shrink(M.copy())
        for i in range(6):
            for j in range(7):
                v = M[i, j]
                expected = v if -1 < v < 1 else (1.0 if v >= 1 else -1.0)
                assert S[i, j] == expected


class TestAuxOptimum:
    def test_zero_coefficients(self):
        op, _ = random_operator(np.random.default_rng(6))
        assert np.array_equal(op.aux_optimum(np.zeros((5, 4)), 0.1), np.zeros((5, op.width)))

    def test_saturation_at_tiny_mu(self):
        rng = np.random.default_rng(7)
        op, _ = random_operator(rng)
        B = 10.0 * rng.standard_normal((5, 4))
        G = op.apply(B)
        A = op.aux_optimum(B, 1e-12)
        nz = G != 0
        assert np.all(np.isin(A[nz], (-1.0, 1.0)))
        assert np.abs(A).max() <= 1.0

    def test_entrywise_maximization_oracle(self):
        # maximize a*z - (mu/2)*a^2 over a in [-1, 1], per entry
        rng = np.random.default_rng(8)
        op, _ = random_operator(rng)
        B = rng.standard_normal((5, 4))
        mu = 0.3
        G = op.apply(B)
        A = op.aux_optimum(B, mu)
        for z, a in zip(G.ravel(), A.ravel()):
            candidates = [-1.0, 1.0]
            stationary = z / mu
            if -1 < stationary < 1:
                candidates.append(stationary)
            best = max(candidates, key=lambda c: c * z - 0.5 * mu * c * c)
            assert a == pytest.approx(best, abs=1e-12)

    def test_mu_must_be_positive(self):
        op, _ = random_operator(np.random.default_rng(9))
        with pytest.raises(ValueError):
            op.aux_optimum(np.zeros((5, 4)), 0.0)


class TestPenaltyExact:
    def test_scalar_case(self):
        op = FusionOperator.from_graph(TaskGraph(1), lam=2.0, gamma=0.0, n_inputs=1)
        assert op.penalty_exact(np.array([[3.0]])) == 6.0

    def test_fused_pair_vanishes(self):
        g = TaskGraph(2, ((1, 2, 1.0),))
        op = FusionOperator.from_graph(g, lam=0.0, gamma=1.0, n_inputs=1)
        assert op.penalty_exact(np.array([[0.7, 0.7]])) == 0.0

    def test_two_codepaths_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            op, _ = random_operator(rng)
            B = rng.standard_normal((5, 4))
            assert op.penalty_exact(B) == pytest.approx(np.abs(op.apply(B)).sum(), abs=1e-10)


class TestSmoothedPenalty:
    def test_zero(self):
        op, _ = random_operator(np.random.default_rng(11))
        assert op.dual_terms(np.zeros((5, 4)), None, 0.2)[3] == 0.0

    def test_gap_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            op, _ = random_operator(rng)
            B = 2.0 * rng.standard_normal((5, 4))
            mu = float(rng.uniform(1e-4, 1.0))
            gap = op.penalty_exact(B) - op.dual_terms(B, None, mu)[3]
            assert -1e-12 <= gap <= mu * op.gap_constant() + 1e-12

    def test_small_mu_gap(self):
        rng = np.random.default_rng(13)
        op, _ = random_operator(rng)
        B = rng.standard_normal((5, 4))
        mu = 1e-8
        assert abs(op.dual_terms(B, None, mu)[3] - op.penalty_exact(B)) <= mu * op.gap_constant()

    def test_monotone_in_mu(self):
        rng = np.random.default_rng(14)
        op, _ = random_operator(rng)
        B = rng.standard_normal((5, 4))
        values = [op.dual_terms(B, None, mu)[3] for mu in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def penalty_gradient(op, B, mu):
    """Gradient Gamma*(A*) of f_mu at B, as the solver forms it."""
    return op.adjoint(op.aux_optimum(B, mu))


class TestPenaltyGradient:
    def test_zero_point(self):
        op, _ = random_operator(np.random.default_rng(15))
        assert np.array_equal(penalty_gradient(op, np.zeros((5, 4)), 0.1), np.zeros((5, 4)))

    def test_finite_differences(self):
        rng = np.random.default_rng(16)
        op, _ = random_operator(rng)
        B = rng.standard_normal((5, 4))
        mu = 0.01
        G = penalty_gradient(op, B, mu)
        h = 1e-5
        for idx in np.ndindex(B.shape):
            E = np.zeros_like(B)
            E[idx] = h
            fd = (op.dual_terms(B + E, None, mu)[3] - op.dual_terms(B - E, None, mu)[3]) / (2 * h)
            assert G[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("n_covariates", [6, 1])
    def test_covariate_gradient_map_matches_adjoint_of_aux_optimum(self, n_covariates):
        # the 1 x J operator works on the edge arrays, but on the dense C when J = 1
        rng = np.random.default_rng(18)
        op = CovariateFusionOperator.from_graph(random_graph(rng, n_covariates), lam=0.7, gamma=1.3, n_inputs=1)
        assert (op._C is not None) == (n_covariates == 1)
        b = rng.standard_normal((n_covariates, 1))
        for mu in (0.05, 5.0):
            ref = penalty_gradient(op, b, mu)
            assert np.linalg.norm(op.gradient_map(mu)(b) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_gradient_lipschitz_constant(self):
        rng = np.random.default_rng(17)
        op, _ = random_operator(rng)
        mu = 0.05
        L = op.norm_bound() ** 2 / mu
        for _ in range(100):
            B1 = rng.standard_normal((5, 4))
            B2 = rng.standard_normal((5, 4))
            dG = np.linalg.norm(penalty_gradient(op, B1, mu) - penalty_gradient(op, B2, mu))
            assert dG <= L * np.linalg.norm(B1 - B2) + 1e-9


def operator_with_edges(J, K, E):
    """An operator of shape J x (K + E): the first E node pairs (m, l), m < l, in order, as edges."""
    pairs = [(m, l, 1.0) for m in range(1, K + 1) for l in range(m + 1, K + 1)][:E]
    return FusionOperator.from_graph(TaskGraph(K, tuple(pairs)), lam=1.0, gamma=1.0, n_inputs=J)


class TestConstants:
    def test_gap_constant_values(self):
        assert operator_with_edges(30, 10, 11).gap_constant() == 315.0
        assert operator_with_edges(1, 1, 0).gap_constant() == 0.5

    def test_gap_constant_is_max_of_prox_term(self):
        # the maximizer over ||A||_inf <= 1 of 0.5 ||A||_F^2 is the all-ones matrix
        J, K, E = 4, 3, 2
        A = np.ones((J, K + E))
        assert operator_with_edges(J, K, E).gap_constant() == 0.5 * np.vdot(A, A)

    def test_norm_bound_arithmetic(self):
        # degrees (0.5, 0.25, 0.25): sqrt(1 + 2 * 4 * 0.5) = sqrt(5)
        star = FusionOperator.from_graph(TaskGraph(3, ((1, 2, 0.5), (1, 3, -0.5))), lam=1.0, gamma=2.0, n_inputs=2)
        assert np.array_equal(star.degrees(), [0.5, 0.25, 0.25])
        assert star.norm_bound() == pytest.approx(np.sqrt(5.0))
        # no edges: the bound is lam, whatever gamma
        assert FusionOperator.from_graph(TaskGraph(4), lam=3.0, gamma=0.0, n_inputs=2).norm_bound() == 3.0
        assert FusionOperator.from_graph(TaskGraph(1), lam=3.0, gamma=2.0, n_inputs=2).norm_bound() == 3.0

    def test_lam_zero_holds_the_edge_columns_alone(self):
        # the fusion term that solve smooths: width |E|, D = J |E| / 2, bound sqrt(2 gamma^2 max d)
        g = TaskGraph(3, ((1, 2, 0.5), (1, 3, -0.5)))
        op = FusionOperator.from_graph(g, lam=0.0, gamma=2.0, n_inputs=4)
        assert (op.width, op.gap_constant()) == (2, 4.0)
        assert op.norm_bound() == pytest.approx(np.sqrt(2.0 * 4.0 * 0.5))
        assert op.apply(np.eye(4, 3)).shape == (4, 2)

    def test_singular_value_never_exceeds_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            n_nodes = int(rng.integers(2, 7))
            g = random_graph(rng, n_nodes, edge_prob=0.6)
            lam = float(rng.uniform(0.0, 2.0))
            gamma = float(rng.uniform(0.0, 2.0))
            op = FusionOperator.from_graph(g, lam=lam, gamma=gamma, n_inputs=3)
            C = dense_fusion_matrix(n_nodes, g.edges, lam, gamma)
            sigma_max = float(np.linalg.svd(C, compute_uv=False)[0]) if C.size else 0.0
            assert sigma_max <= op.norm_bound() + 1e-9

    def test_bound_tightness_probe(self):
        # the bound is usually close but equality need not be attained on
        # arbitrary graphs; record the worst observed ratio stays sane
        rng = np.random.default_rng(19)
        ratios = []
        for _ in range(50):
            g = random_graph(rng, 5, edge_prob=0.7)
            if g.n_edges == 0:
                continue
            op = FusionOperator.from_graph(g, lam=0.5, gamma=1.0, n_inputs=3)
            C = dense_fusion_matrix(5, g.edges, 0.5, 1.0)
            ratios.append(float(np.linalg.svd(C, compute_uv=False)[0]) / op.norm_bound())
        assert ratios and max(ratios) <= 1.0 + 1e-12 and min(ratios) > 0.5


# (label, J, K, edge probability, lam, gamma): the operator keeps a dense C
# exactly when K <= J and works on the edge arrays otherwise.
REPRESENTATION_CASES = [
    ("dense", 6, 4, 0.6, 0.7, 1.3),
    ("dense_square", 5, 5, 0.5, 0.4, 0.9),
    ("edges", 3, 7, 0.5, 0.7, 1.3),
    ("edges_row_layout", 1, 8, 0.4, 0.5, 2.0),
    ("dense_edgeless", 5, 3, 0.0, 0.8, 1.1),
    ("edges_edgeless", 2, 5, 0.0, 0.8, 1.1),
    ("dense_lam_zero", 6, 4, 0.6, 0.0, 1.3),
    ("edges_lam_zero", 2, 6, 0.6, 0.0, 1.3),
    ("dense_gamma_zero", 6, 4, 0.6, 0.7, 0.0),
    ("edges_gamma_zero", 1, 6, 0.6, 0.7, 0.0),
]


@pytest.mark.parametrize("label,J,K,edge_prob,lam,gamma", REPRESENTATION_CASES, ids=[c[0] for c in REPRESENTATION_CASES])
class TestBothRepresentations:
    def _setup(self, label, J, K, edge_prob, lam, gamma):
        rng = np.random.default_rng(sum(map(ord, label)))
        g = random_graph(rng, K, edge_prob)
        if label == "edges_row_layout":
            # a random graph, not a chain: some node must touch an edge that skips a neighbour
            assert any(l - m > 1 for m, l, _ in g.edges)
        op = FusionOperator.from_graph(g, lam=lam, gamma=gamma, n_inputs=J)
        assert (op._C is not None) == label.startswith("dense")
        C = dense_fusion_matrix(K, g.edges, lam, gamma)
        # at lam = 0 the operator holds no lam columns, only the |E| edge columns of C
        return rng, g, op, C if lam > 0 else C[:, K:]

    def test_apply_matches_oracle(self, label, J, K, edge_prob, lam, gamma):
        rng, _, op, C = self._setup(label, J, K, edge_prob, lam, gamma)
        B = rng.standard_normal((J, K))
        assert op.apply(B).shape == (J, C.shape[1])
        assert np.allclose(op.apply(B), B @ C, rtol=0.0, atol=1e-12)

    def test_adjoint_matches_oracle(self, label, J, K, edge_prob, lam, gamma):
        rng, _, op, C = self._setup(label, J, K, edge_prob, lam, gamma)
        A = rng.standard_normal((J, C.shape[1]))
        B = rng.standard_normal((J, K))
        assert np.allclose(op.adjoint(A), A @ C.T, rtol=0.0, atol=1e-12)
        # <B C, A> = <B, A C^T>
        assert np.vdot(op.apply(B), A) == pytest.approx(np.vdot(B, op.adjoint(A)), rel=1e-12, abs=1e-12)

    def test_penalty_exact_matches_oracle(self, label, J, K, edge_prob, lam, gamma):
        rng, _, op, C = self._setup(label, J, K, edge_prob, lam, gamma)
        B = rng.standard_normal((J, K))
        assert op.penalty_exact(B) == pytest.approx(float(np.abs(B @ C).sum()), rel=1e-12, abs=1e-12)

    def test_degrees_match_oracle(self, label, J, K, edge_prob, lam, gamma):
        _, g, op, _ = self._setup(label, J, K, edge_prob, lam, gamma)
        H = dense_fusion_matrix(K, g.edges, 0.0, 1.0)[:, K:]
        assert np.allclose(op.degrees(), (H**2).sum(axis=1), rtol=1e-12, atol=0.0)

    def test_gradient_map_matches_adjoint_of_aux_optimum(self, label, J, K, edge_prob, lam, gamma):
        rng, _, op, _ = self._setup(label, J, K, edge_prob, lam, gamma)
        B = rng.standard_normal((J, K))
        for mu in (0.05, 5.0):  # most entries of B C / mu clamped, then most inside [-1, 1]
            ref = penalty_gradient(op, B, mu)
            assert np.linalg.norm(op.gradient_map(mu)(B) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_dual_step_matches_oracle(self, label, J, K, edge_prob, lam, gamma):
        # A <- clamp(A + B C diag(sigma)) in place, and A C^T returned, for steps that clamp some entries: one sigma,
        # and one per column of C with 0 on the first, as solve gives a zero-weight edge
        rng, _, op, C = self._setup(label, J, K, edge_prob, lam, gamma)
        B = rng.standard_normal((J, K))
        for sigma in (0.7, np.linspace(0.0, 1.4, C.shape[1])):
            A = rng.uniform(-1.0, 1.0, (J, C.shape[1]))
            A0, expected = A.copy(), np.clip(A + (B @ C) * sigma, -1.0, 1.0)
            AC = op.dual_step(sigma)(A, B)
            assert np.allclose(A, expected, rtol=0.0, atol=1e-12)
            assert np.allclose(AC, expected @ C.T, rtol=0.0, atol=1e-12)
        assert np.array_equal(A[:, :1], A0[:, :1])

    def test_dual_terms_at_a_given_dual_point(self, label, J, K, edge_prob, lam, gamma):
        rng, _, op, C = self._setup(label, J, K, edge_prob, lam, gamma)
        A = rng.uniform(-1.0, 1.0, (J, C.shape[1]))
        B = rng.standard_normal((J, K))
        pen, slack, dual_grad, value = op.dual_terms(B, None, 0.3, A)
        G = B @ C
        assert pen == pytest.approx(np.abs(G).sum(), rel=1e-12)
        assert slack == pytest.approx(pen - np.vdot(A, G), rel=1e-12)
        assert np.allclose(dual_grad, A @ C.T, rtol=0.0, atol=1e-12)
        assert value == pytest.approx(np.vdot(A, G) - 0.15 * np.vdot(A, A), rel=1e-12)
        assert slack >= 0.0  # any A in the box pairs to at most ||B C||_1

    def test_shape_is_checked(self, label, J, K, edge_prob, lam, gamma):
        _, _, op, C = self._setup(label, J, K, edge_prob, lam, gamma)
        with pytest.raises(ValueError):
            op.apply(np.zeros((J + 1, K)))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros((J + 1, C.shape[1])))
