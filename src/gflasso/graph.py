"""Correlation graphs over output tasks.

A task graph connects pairs of output variables whose sample correlation is
strong; edge weights keep the signed correlation. The fused model reads the
same kind of graph over its covariates (:func:`chain_graph`, :func:`load_edge_list`).
:class:`smoothing.FusionOperator` reads either one's signed, weighted incidence
matrix, dense or as edge arrays, chosen once by its shape. An edge list is read
through :func:`fileio.read_csv_lines`, like a matrix; this module opens no file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .fileio import read_csv_lines


def sign(r: float) -> float:
    """Sign of a correlation with the convention sign(0) = +1."""
    return -1.0 if r < 0 else 1.0


@dataclass(frozen=True)
class TaskGraph:
    """Undirected graph over task indices 1..node_count with signed weights.

    Edges are (m, l, r) with 1-based node indices, m < l, and correlation
    weight r in [-1, 1]. ``threshold`` records the construction threshold
    rho when the graph came from :func:`build_correlation_graph`.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if (problem := _edge_problem(enumerate(self.edges), self.node_count, self.threshold)) is not None:
            raise ValueError(problem[1])

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _edge_problem(keyed_edges, node_count: int, threshold: float | None) -> tuple[int, str] | None:
    """(key, reason) of the first of the (key, edge) pairs that breaks the invariants of :class:`TaskGraph`, or None."""
    seen: set[tuple[int, int]] = set()
    for i, (m, l, r) in keyed_edges:
        if m == l:
            return i, f"self-loop at node {m}"
        if not (1 <= m < l <= node_count):
            return i, f"edge ({m}, {l}) out of range for {node_count} nodes (need 1 <= m < l <= {node_count})"
        if (m, l) in seen:
            return i, f"duplicate edge ({m}, {l})"
        if not -1.0 <= r <= 1.0:
            return i, f"edge ({m}, {l}) weight {r} outside [-1, 1]"
        if threshold is not None and abs(r) <= threshold:
            return i, f"edge ({m}, {l}) weight {r} does not exceed threshold {threshold}"
        seen.add((m, l))
    return None


_UNIT_SNAP = 4 * np.finfo(float).eps


def build_correlation_graph(Y: np.ndarray, rho: float) -> TaskGraph:
    """Connect output pairs whose absolute correlation strictly exceeds rho.

    Parameters
    ----------
    Y : (N, K) array
        Output matrix, one column per task. Columns must be non-constant.
    rho : float in [0, 1)
        Threshold on |r|; ties at exactly rho are excluded.

    Returns
    -------
    TaskGraph
        Edges in lexicographic (m, l) order with the signed correlation as
        the edge weight.

    All K (K - 1) / 2 correlations come from one product of the centered Y
    with itself. Values within a few ulp of +-1 are snapped to exactly +-1,
    so exactly collinear outputs report 1.0 rather than 1 minus rounding noise.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"Y must be 2-d, got shape {Y.shape}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    n, k = Y.shape
    for col in range(k):
        if n >= 2 and np.ptp(Y[:, col]) == 0.0:
            raise DegenerateInputError(f"output column {col + 1} is constant")
    if k < 2:
        return TaskGraph(node_count=k, threshold=rho)
    if n < 2:
        raise DegenerateInputError("need at least 2 observations for a correlation")
    Yc = Y - Y.mean(axis=0)
    S = Yc.T @ Yc
    R = S / np.sqrt(np.outer(np.diag(S), np.diag(S)))
    R = np.where(np.abs(R) >= 1.0 - _UNIT_SNAP, np.sign(R), R)
    m, l = np.triu_indices(k, 1)
    r = R[m, l]
    keep = np.abs(r) > rho
    edges = zip((m[keep] + 1).tolist(), (l[keep] + 1).tolist(), r[keep].tolist())
    return TaskGraph(node_count=k, edges=tuple(edges), threshold=rho)


def chain_graph(n_nodes: int) -> TaskGraph:
    """Chain 1-2-3-...-n with unit edge weights (classic fused-lasso layout)."""
    edges = tuple((j, j + 1, 1.0) for j in range(1, n_nodes))
    return TaskGraph(node_count=n_nodes, edges=edges)


def edge_list_text(graph: TaskGraph) -> str:
    """The graph as CSV with header m,l,r, 1-based node indices and ``csv.writer``'s CRLF line ends."""
    rows = ["m,l,r", *(f"{m},{l},{format(r, '.17g')}" for m, l, r in graph.edges)]
    return "\r\n".join(rows) + "\r\n"


def load_edge_list(path, node_count: int) -> TaskGraph:
    """Read an edge list in the :func:`edge_list_text` format over ``node_count`` nodes; errors name the file line.

    Lines come from :func:`fileio.read_csv_lines`, in the matrices' dialect: the header m,l,r is the first
    non-blank line, and the header and every edge hold exactly three cells: an extra cell is refused, never dropped.
    """
    (first, header), *rows = [(i, line.split(",")) for i, line in read_csv_lines(path)]
    if [h.strip().lower() for h in header] != ["m", "l", "r"]:
        raise ValueError(f"{path}: line {first}: expected the header m,l,r, got {header}")
    edges: list[tuple[int, tuple[int, int, float]]] = []  # (file line, edge)
    for i, row in rows:
        if len(row) != 3:
            raise ValueError(f"{path}: line {i}: expected 3 cells m,l,r, got {len(row)}: {row}")
        try:
            edges.append((i, (int(row[0]), int(row[1]), float(row[2]))))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed edge at line {i}: {row}") from exc
    if (problem := _edge_problem(edges, node_count, None)) is not None:
        raise ValueError(f"{path}: line {problem[0]}: {problem[1]}")
    return TaskGraph(node_count=node_count, edges=tuple(edge for _, edge in edges))
