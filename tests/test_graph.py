import numpy as np
import pytest

from gflasso.errors import DegenerateInputError
from gflasso.graph import (
    TaskGraph,
    build_correlation_graph,
    chain_graph,
    edge_list_text,
    load_edge_list,
)
from gflasso.simulate import SimulationSpec, simulate_dataset
from gflasso.smoothing import FusionOperator

from oracles import pearson, pearson_two_pass


class TestPearson:
    def test_self_correlation(self):
        x = np.array([1.0, 2.0, 5.0, -1.0])
        assert pearson(x, x) == 1.0

    def test_sign_symmetry(self):
        x = np.array([1.0, 2.0, 5.0, -1.0])
        assert pearson(x, -x) == -1.0

    def test_matches_two_pass_formula(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        assert abs(pearson(x, y) - pearson_two_pass(list(x), list(y))) < 1e-12

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson(np.ones(5), np.arange(5.0))

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            pearson(np.array([1.0]), np.array([2.0]))


class TestBuildCorrelationGraph:
    def test_single_output_has_no_edges(self):
        Y = np.random.default_rng(0).standard_normal((20, 1))
        assert build_correlation_graph(Y, 0.5).n_edges == 0

    def test_exact_collinearity(self):
        rng = np.random.default_rng(1)
        y1 = rng.standard_normal(40)
        Y = np.column_stack([y1, 2.0 * y1, rng.standard_normal(40)])
        g = build_correlation_graph(Y, 0.9)
        assert g.edges == ((1, 2, 1.0),)

    def test_matches_exhaustive_pairwise_check(self):
        ds = simulate_dataset(SimulationSpec(seed=11))
        rho = 0.7
        g = build_correlation_graph(ds.Y, rho)
        expected = set()
        k = ds.Y.shape[1]
        for m in range(k):
            for l in range(m + 1, k):
                r = pearson_two_pass(list(ds.Y[:, m]), list(ds.Y[:, l]))
                if abs(r) > rho:
                    expected.add((m + 1, l + 1))
        assert {(m, l) for m, l, _ in g.edges} == expected

    def test_weights_match_pairwise_pearson(self):
        # every pair of a 45-output Y clears rho = 0, so every weight is checked
        spec = SimulationSpec(n_samples=200, n_inputs=100, n_outputs=45, seed=5, group_sizes=(15, 15, 15))
        Y = simulate_dataset(spec).Y
        g = build_correlation_graph(Y, 0.0)
        pairs = [(m, l) for m in range(1, 46) for l in range(m + 1, 46)]
        assert [(m, l) for m, l, _ in g.edges] == [p for p in pairs if pearson(Y[:, p[0] - 1], Y[:, p[1] - 1]) != 0.0]
        for m, l, r in g.edges:
            assert abs(r - pearson(Y[:, m - 1], Y[:, l - 1])) <= 1e-12

    def test_constant_column_rejected(self):
        Y = np.ones((10, 2))
        Y[:, 0] = np.arange(10.0)
        with pytest.raises(DegenerateInputError):
            build_correlation_graph(Y, 0.1)

    def test_raising_rho_never_adds_edges(self):
        ds = simulate_dataset(SimulationSpec(seed=3))
        previous = None
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            edges = {(m, l) for m, l, _ in build_correlation_graph(ds.Y, rho).edges}
            if previous is not None:
                assert edges <= previous
            previous = edges

    def test_rho_out_of_range(self):
        Y = np.random.default_rng(2).standard_normal((10, 3))
        with pytest.raises(ValueError):
            build_correlation_graph(Y, 1.0)


class TestTaskGraphValidation:
    def test_self_loop(self):
        with pytest.raises(ValueError):
            TaskGraph(3, ((1, 1, 0.5),))

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            TaskGraph(3, ((1, 2, 0.5), (1, 2, 0.6)))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            TaskGraph(3, ((2, 4, 0.5),))

    def test_unordered_edge(self):
        with pytest.raises(ValueError):
            TaskGraph(3, ((3, 2, 0.5),))

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            TaskGraph(3, ((1, 2, 1.5),))

    def test_threshold_invariant(self):
        with pytest.raises(ValueError):
            TaskGraph(3, ((1, 2, 0.5),), threshold=0.6)


def incidence_matrix(g):
    # with lam = 0 and gamma = 1 the operator holds the edge columns alone and maps the identity to H
    k = g.node_count
    return FusionOperator.from_graph(g, lam=0.0, gamma=1.0, n_inputs=k).apply(np.eye(k))


def weighted_degrees(g):
    return FusionOperator.from_graph(g, lam=0.0, gamma=0.0, n_inputs=1).degrees()


class TestIncidenceMatrix:
    def test_worked_three_node_chain(self):
        g = TaskGraph(3, ((1, 2, 0.5), (2, 3, -0.5)))
        H = incidence_matrix(g)
        assert np.array_equal(H, np.array([[0.5, 0.0], [-0.5, 0.5], [0.0, 0.5]]))

    def test_empty_edge_set(self):
        H = incidence_matrix(TaskGraph(4))
        assert H.shape == (4, 0)

    def _random_graph(self, seed, n_nodes=6):
        rng = np.random.default_rng(seed)
        edges = []
        for m in range(1, n_nodes):
            for l in range(m + 1, n_nodes + 1):
                if rng.random() < 0.5:
                    edges.append((m, l, float(rng.uniform(-1, 1))))
        return TaskGraph(n_nodes, tuple(edges))

    def test_column_sums_per_edge(self):
        g = self._random_graph(5)
        H = incidence_matrix(g)
        for e, (m, l, r) in enumerate(g.edges):
            sgn = -1.0 if r < 0 else 1.0
            assert H[:, e].sum() == pytest.approx(abs(r) * (1.0 - sgn), abs=1e-15)

    def test_column_norms(self):
        g = self._random_graph(9)
        H = incidence_matrix(g)
        for e, (_, _, r) in enumerate(g.edges):
            assert np.dot(H[:, e], H[:, e]) == pytest.approx(2.0 * abs(r) ** 2, rel=1e-12)


class TestWeightedDegrees:
    def test_three_node_chain(self):
        g = TaskGraph(3, ((1, 2, 0.5), (2, 3, -0.5)))
        assert np.allclose(weighted_degrees(g), [0.25, 0.5, 0.25])

    def test_empty(self):
        assert np.array_equal(weighted_degrees(TaskGraph(5)), np.zeros(5))

    def test_matches_edge_scan(self):
        g = TestIncidenceMatrix()._random_graph(13)
        d = weighted_degrees(g)
        for k in range(1, g.node_count + 1):
            expected = sum(abs(r) ** 2 for m, l, r in g.edges if k in (m, l))
            assert d[k - 1] == pytest.approx(expected, rel=1e-12)

    def test_total_degree_identity(self):
        g = TestIncidenceMatrix()._random_graph(21)
        assert weighted_degrees(g).sum() == pytest.approx(2.0 * sum(abs(r) ** 2 for *_, r in g.edges), rel=1e-12)


def test_chain_graph_layout():
    g = chain_graph(4)
    assert g.edges == ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))


def test_edge_list_roundtrip(tmp_path):
    g = TaskGraph(5, ((1, 3, 0.25), (2, 5, -0.75)))
    text = edge_list_text(g)
    # the line ends csv.writer gives, kept so graph.csv stays byte-identical
    assert text == "m,l,r\r\n1,3,0.25\r\n2,5,-0.75\r\n"
    path = tmp_path / "graph.csv"
    path.write_bytes(text.encode())
    loaded = load_edge_list(path, node_count=5)
    assert loaded.edges == g.edges


def edges_file(tmp_path, text):
    path = tmp_path / "edges.csv"
    path.write_text(text)
    return path


def refusal(tmp_path, text) -> str:
    """What ``load_edge_list`` says after the file's path when it refuses ``text`` over 5 nodes."""
    path = edges_file(tmp_path, text)
    with pytest.raises(ValueError) as exc:
        load_edge_list(path, 5)
    prefix = f"{path}: "
    assert str(exc.value).startswith(prefix), exc.value
    return str(exc.value)[len(prefix):]


class TestLoadEdgeList:
    """Edge lists are read in the matrices' dialect: blank and whitespace-only lines are skipped but counted, and
    every refusal names the file line."""

    def test_blank_line_before_the_header(self, tmp_path):
        assert load_edge_list(edges_file(tmp_path, "\nm,l,r\n1,2,0.5\n"), 5).edges == ((1, 2, 0.5),)

    def test_byte_order_mark_before_the_header_is_ignored(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"\xef\xbb\xbfm,l,r\r\n1,2,0.5\r\n")
        assert load_edge_list(path, 5).edges == ((1, 2, 0.5),)

    def test_whitespace_only_line_between_edges(self, tmp_path):
        path = edges_file(tmp_path, "m,l,r\n1,2,0.5\n  \n2,3,-0.25\n")
        assert load_edge_list(path, 5).edges == ((1, 2, 0.5), (2, 3, -0.25))

    def test_quoted_newline_is_refused_at_its_file_line(self, tmp_path):
        message = refusal(tmp_path, 'm,l,r\n"1\n",2,0.5\n3,999,0.5\n')
        assert message == "line 2: expected 3 cells m,l,r, got 1: ['\"1']", message

    def test_quoted_cells_are_refused(self, tmp_path):
        message = refusal(tmp_path, 'm,l,r\n"1","2","0.5"\n')
        assert message.startswith("malformed edge at line 2: "), message

    def test_header_after_blank_lines_is_named_by_its_file_line(self, tmp_path):
        message = refusal(tmp_path, "\n\nm,l\n1,2,0.5\n")
        assert message == "line 3: expected the header m,l,r, got ['m', 'l']", message
