"""Correlation graphs over output tasks.

A task graph connects pairs of output variables whose sample correlation is
strong; edge weights keep the signed correlation. The fusion penalty reads
the graph through :class:`smoothing.FusionOperator`, which holds its signed,
weighted vertex-edge incidence structure as edge arrays.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError


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
        seen: set[tuple[int, int]] = set()
        for m, l, r in self.edges:
            if m == l:
                raise ValueError(f"self-loop at node {m}")
            if not (1 <= m < l <= self.node_count):
                raise ValueError(f"edge ({m}, {l}) out of range for {self.node_count} nodes (need 1 <= m < l <= K)")
            if (m, l) in seen:
                raise ValueError(f"duplicate edge ({m}, {l})")
            if not -1.0 <= r <= 1.0:
                raise ValueError(f"edge weight {r} outside [-1, 1]")
            if self.threshold is not None and abs(r) <= self.threshold:
                raise ValueError(f"edge ({m}, {l}) weight {r} does not exceed threshold {self.threshold}")
            seen.add((m, l))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


_UNIT_SNAP = 4 * np.finfo(float).eps


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation between two vectors.

    Values within a few ulp of +-1 are snapped to exactly +-1, so exactly
    collinear inputs report 1.0 rather than 1 minus rounding noise.

    Raises
    ------
    DegenerateInputError
        If either vector is constant (zero variance) or shorter than 2.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise DegenerateInputError("need at least 2 observations for a correlation")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("constant vector has no defined correlation")
    r = float(np.dot(xc, yc)) / float(np.sqrt(sxx * syy))
    if abs(r) >= 1.0 - _UNIT_SNAP:
        return 1.0 if r > 0 else -1.0
    return r


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
    with itself; each agrees with :func:`pearson` to rounding, including
    its snap to +-1.
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


def save_edge_list(graph: TaskGraph, path) -> None:
    """Write the graph as CSV with header m,l,r and 1-based node indices."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "l", "r"])
        for m, l, r in graph.edges:
            writer.writerow([m, l, format(r, ".17g")])


def load_edge_list(path, node_count: int) -> TaskGraph:
    """Read a graph written by :func:`save_edge_list` over ``node_count`` nodes."""
    edges: list[tuple[int, int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["m", "l", "r"]:
            raise ValueError(f"{path}: expected header m,l,r")
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                m, l, r = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed edge at line {i}: {row}") from exc
            edges.append((m, l, r))
    return TaskGraph(node_count=node_count, edges=tuple(edges))
