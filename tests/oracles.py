"""Independent reference implementations used to check the package.

Everything here is deliberately written from the mathematical definitions
(dense matrices, scalar loops, exhaustive search) and shares no code with
the library paths it validates. The long-running oracles are executed once
and their outputs frozen into the test modules; run this file as a script
to regenerate those constants.
"""

from __future__ import annotations

import os

import numpy as np


def pearson_two_pass(x, y) -> float:
    """Textbook two-pass sample correlation with explicit loops."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sxx = syy = 0.0
    for i in range(n):
        sxy += (x[i] - mx) * (y[i] - my)
        sxx += (x[i] - mx) ** 2
        syy += (y[i] - my) ** 2
    return sxy / np.sqrt(sxx * syy)


_UNIT_SNAP = 4 * np.finfo(float).eps


def pearson(x, y) -> float:
    """Sample Pearson correlation between two vectors, from numpy dot products.

    Values within a few ulp of +-1 are snapped to exactly +-1, as in
    ``graph.build_correlation_graph``, so exactly collinear inputs report
    1.0 rather than 1 minus rounding noise. A constant vector or one shorter
    than 2 raises ``DegenerateInputError``.
    """
    from gflasso.errors import DegenerateInputError

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


def center_columns(M) -> tuple[np.ndarray, np.ndarray]:
    """Return (column-centered copy, column means)."""
    M = np.asarray(M, dtype=float)
    mean = M.mean(axis=0)
    return M - mean, mean


def largest_eigenvalue(M: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix, exact to rounding.

    It comes from LAPACK's eigh, the routine ``solver.Moments`` factors
    X^T X with, so it equals the solver's lam_max to the bit (eigvalsh can
    differ from it in the last place).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        from gflasso.errors import NumericError

        raise NumericError("matrix contains non-finite entries")
    return float(np.linalg.eigh(M)[0][-1])


def dense_fusion_matrix(n_tasks: int, edges, lam: float, gamma: float) -> np.ndarray:
    """Assemble C = (lam I, gamma H) entry by entry from the edge definition."""
    k = n_tasks
    C = np.zeros((k, k + len(edges)))
    for i in range(k):
        C[i, i] = lam
    for e, (m, l, r) in enumerate(edges):
        tau = abs(r)
        sgn = -1.0 if r < 0 else 1.0
        C[m - 1, k + e] = gamma * tau
        C[l - 1, k + e] = -sgn * gamma * tau
    return C


def smooth_objective_gradient(X, Y, op, B, mu, XtX=None, XtY=None) -> np.ndarray:
    """Gradient X^T X B - X^T Y + Gamma*(A*) of the smoothed objective.

    Unlike the rest of this module it calls the library's operator for the
    penalty part: the tests use it to check that gradient end to end.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    XtX = X.T @ X if XtX is None else XtX
    XtY = X.T @ Y if XtY is None else XtY
    return XtX @ B - XtY + op.adjoint(op.aux_optimum(B, mu))


def roc_csv_text(curves) -> str:
    """Plot-ready CSV of one or more labeled ROC curves: columns x,y,series."""
    lines = ["x,y,series"]
    for label, curve in curves.items():
        for fpr, tpr in curve.points:
            lines.append(f"{fpr:.17g},{tpr:.17g},{label}")
    return "\n".join(lines) + "\n"


def matrix_csv_text_per_cell(M, header) -> str:
    """Matrix CSV as ``fileio.matrix_csv_text`` writes it, one ``format(v, ".17g")`` per cell."""
    lines = [",".join(header)]
    for row in np.asarray(M, dtype=float):
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def spec_from_json_dict(d: dict):
    """Rebuild a ``SimulationSpec`` from its ``to_json_dict`` form (spec.json)."""
    from gflasso.simulate import SimulationSpec

    return SimulationSpec(
        n_samples=int(d["n_samples"]),
        n_inputs=int(d["n_inputs"]),
        n_outputs=int(d["n_outputs"]),
        signal=float(d["signal"]),
        noise_sd=float(d["noise_sd"]),
        seed=int(d["seed"]),
        group_sizes=tuple(int(g) for g in d["group_sizes"]),
        inputs_per_group=tuple(int(g) for g in d["inputs_per_group"]),
    )


def support(B) -> set[tuple[int, int]]:
    """The (row, column) positions of the non-zero entries of B, 0-based."""
    rows, cols = np.nonzero(B)
    return set(zip(rows.tolist(), cols.tolist()))


def load_dataset(directory):
    """Read back a dataset written by ``gflasso simulate``, through the library's CSV reader."""
    from gflasso.fileio import read_json, read_matrix_csv
    from gflasso.simulate import Dataset

    spec = spec_from_json_dict(read_json(os.path.join(directory, "spec.json")))
    X, _ = read_matrix_csv(os.path.join(directory, "X.csv"))
    Y, _ = read_matrix_csv(os.path.join(directory, "Y.csv"))
    B, _ = read_matrix_csv(os.path.join(directory, "B_true.csv"))
    return Dataset(X=X, Y=Y, B_true=B, spec=spec)


def objective_dense(X, Y, B, C) -> float:
    resid = Y - X @ B
    return 0.5 * float(np.vdot(resid, resid)) + float(np.abs(B @ C).sum())


def subgradient_dense(
    X: np.ndarray,
    Y: np.ndarray,
    C: np.ndarray,
    n_iters: int,
    step_c: float | None = None,
    check_every: int = 1,
) -> tuple[float, np.ndarray]:
    """Plain subgradient descent on the dense-C objective, best value kept.

    Returns (best objective, best iterate). Used as the slow-but-sure
    optimum reference for tiny instances.
    """
    XtX = X.T @ X
    XtY = X.T @ Y
    ynorm2 = float(np.vdot(Y, Y))
    if step_c is None:
        step_c = 1.0 / float(np.linalg.eigvalsh(XtX).max())
    B = np.zeros((X.shape[1], Y.shape[1]))
    best = objective_dense(X, Y, B, C)
    best_B = B.copy()
    for t in range(n_iters):
        G = XtX @ B - XtY + np.sign(B @ C) @ C.T
        B = B - (step_c / np.sqrt(t + 1.0)) * G
        if t % check_every == 0:
            f = 0.5 * (ynorm2 - 2.0 * float(np.vdot(B, XtY)) + float(np.vdot(B, XtX @ B))) + float(np.abs(B @ C).sum())
            if f < best:
                best = f
                best_B = B.copy()
    best = objective_dense(X, Y, best_B, C)
    return best, best_B


def subgradient_group_rows(X: np.ndarray, Y: np.ndarray, lam: float, n_iters: int) -> float:
    """Subgradient reference for the row-grouped l1/l2 objective."""
    XtX = X.T @ X
    XtY = X.T @ Y
    step_c = 1.0 / float(np.linalg.eigvalsh(XtX).max())

    def objective(B):
        resid = Y - X @ B
        return 0.5 * float(np.vdot(resid, resid)) + lam * float(np.linalg.norm(B, axis=1).sum())

    B = np.zeros((X.shape[1], Y.shape[1]))
    best = objective(B)
    for t in range(n_iters):
        norms = np.linalg.norm(B, axis=1)
        direction = np.zeros_like(B)
        nz = norms > 0
        direction[nz] = B[nz] / norms[nz, None]
        G = XtX @ B - XtY + lam * direction
        B = B - (step_c / np.sqrt(t + 1.0)) * G
        f = objective(B)
        if f < best:
            best = f
    return best


def grid_search_univariate(
    X: np.ndarray,
    y: np.ndarray,
    edges,
    lam: float,
    gamma: float,
    box: float = 2.0,
    coarse: float = 1e-2,
    fine: float = 1e-3,
) -> tuple[float, np.ndarray]:
    """Exhaustive grid search for the 3-covariate univariate fused objective.

    Scans the full [-box, box]^3 cube at the coarse resolution, then scans an
    exhaustive fine grid in a window around the coarse argmin (the objective
    is convex, so the refinement window of +-4 coarse steps covers the
    optimum). Final resolution is ``fine``.
    """
    assert X.shape[1] == 3
    XtX = X.T @ X
    Xty = X.T @ y
    ynorm2 = float(np.vdot(y, y))

    def batch_objective(grid: np.ndarray) -> np.ndarray:
        quad = 0.5 * (np.einsum("ij,jk,ik->i", grid, XtX, grid) - 2.0 * grid @ Xty + ynorm2)
        pen = lam * np.abs(grid).sum(axis=1)
        for m, l, r in edges:
            tau = abs(r)
            sgn = -1.0 if r < 0 else 1.0
            pen = pen + gamma * tau * np.abs(grid[:, m - 1] - sgn * grid[:, l - 1])
        return quad + pen

    def scan(axes: list[np.ndarray]) -> tuple[float, np.ndarray]:
        best_val = np.inf
        best_pt = None
        # chunk over the first axis to bound memory
        g2, g3 = np.meshgrid(axes[1], axes[2], indexing="ij")
        tail = np.column_stack([g2.ravel(), g3.ravel()])
        for v1 in axes[0]:
            grid = np.column_stack([np.full(tail.shape[0], v1), tail])
            vals = batch_objective(grid)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_pt = grid[i].copy()
        return best_val, best_pt

    n_coarse = int(round(2 * box / coarse)) + 1
    coarse_axis = np.linspace(-box, box, n_coarse)
    _, pt = scan([coarse_axis] * 3)
    window = 4 * coarse
    fine_axes = []
    for c in pt:
        lo, hi = max(-box, c - window), min(box, c + window)
        fine_axes.append(np.arange(lo, hi + fine / 2, fine))
    return scan(fine_axes)[0], pt


def ista_lasso(X: np.ndarray, Y: np.ndarray, lam: float, n_iters: int = 20000, tol: float = 1e-12) -> np.ndarray:
    """Plain proximal iteration with the exact entrywise soft-threshold step."""
    XtX = X.T @ X
    XtY = X.T @ Y
    L = float(np.linalg.eigvalsh(XtX).max())
    B = np.zeros((X.shape[1], Y.shape[1]))
    for _ in range(n_iters):
        V = B - (XtX @ B - XtY) / L
        B_new = np.sign(V) * np.maximum(np.abs(V) - lam / L, 0.0)
        if np.abs(B_new - B).max() < tol:
            return B_new
        B = B_new
    return B


def concordance_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Probability a random positive outranks a random negative, ties counted half."""
    pos = scores[truth]
    neg = scores[~truth]
    wins = 0.0
    for p in pos:
        wins += float((p > neg).sum()) + 0.5 * float((p == neg).sum())
    return wins / (len(pos) * len(neg))


def roc_points_threshold_loop(scores: np.ndarray, truth: np.ndarray):
    """ROC points and trapezoidal AUC by one full threshold pass per distinct score.

    An entry is called relevant when its score strictly exceeds the
    threshold; points start at (0, 0), skip repeats and end at (1, 1).
    """
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    points = [(0.0, 0.0)]
    for theta in np.unique(scores)[::-1]:
        pred = scores > theta
        tpr = float((pred & truth).sum()) / n_pos
        fpr = float((pred & ~truth).sum()) / n_neg
        if (fpr, tpr) != points[-1]:
            points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    return tuple(points), float(np.trapezoid(ys, xs))


def iteration_bound(norm_B_star: float, eps: float, D: float, gamma_norm_U: float, lam_max_XtX: float) -> float:
    """Worst-case iteration count sqrt((4 ||B*||_F^2 / eps) (lam_max + 2 D ||Gamma||_U^2 / eps)).

    The paper's convergence theorem, evaluated with an oracle's ||B*||_F.
    """
    if min(norm_B_star, eps, D, gamma_norm_U, lam_max_XtX) < 0 or eps == 0:
        raise ValueError("all arguments must be positive (eps strictly)")
    return float(np.sqrt((4.0 * norm_B_star**2 / eps) * (lam_max_XtX + 2.0 * D * gamma_norm_U**2 / eps)))


# ---------------------------------------------------------------------------
# Frozen-value generation for the tiny-instance optimum oracles.
# ---------------------------------------------------------------------------

def tiny_instances():
    """The seeded tiny problems used for solver-vs-oracle equivalence.

    Three multi-task fused problems plus two univariate fused (3-covariate
    chain) problems, all small enough for brute-force references.
    """
    specs = []
    rng = np.random.default_rng(20240501)
    # multitask: (J, K, N, edges, lam, gamma)
    mt = [
        (3, 2, 10, ((1, 2, 0.9),), 0.5, 0.5),
        (4, 3, 12, ((1, 2, 0.8), (2, 3, -0.6)), 0.3, 0.4),
        (2, 2, 8, ((1, 2, -1.0),), 0.2, 0.8),
    ]
    for j, k, n, edges, lam, gamma in mt:
        X = rng.standard_normal((n, j))
        B_true = rng.standard_normal((j, k)) * (rng.random((j, k)) < 0.6)
        Y = X @ B_true + 0.1 * rng.standard_normal((n, k))
        X = X - X.mean(axis=0)
        Y = Y - Y.mean(axis=0)
        specs.append({"kind": "multitask", "X": X, "Y": Y, "edges": edges, "lam": lam, "gamma": gamma})
    # univariate fused on a 3-chain
    for lam, gamma in [(0.2, 0.5), (0.1, 1.0)]:
        X = rng.standard_normal((8, 3))
        beta = np.array([0.8, 0.7, -0.2])
        y = X @ beta + 0.1 * rng.standard_normal(8)
        X = X - X.mean(axis=0)
        y = y - y.mean()
        specs.append(
            {"kind": "univariate", "X": X, "y": y, "edges": ((1, 2, 1.0), (2, 3, 1.0)), "lam": lam, "gamma": gamma}
        )
    return specs


def _univariate_as_dense(spec):
    # the univariate fused penalty on beta equals ||C beta||_1 with C stacking
    # lam * I on gamma * H^T; dense_fusion_matrix gives its transpose
    j = spec["X"].shape[1]
    return dense_fusion_matrix(j, spec["edges"], spec["lam"], spec["gamma"])


def group_l1l2_instance():
    """Fixed tiny problem for the row-grouped l1/l2 oracle (lam = 0.8)."""
    rng = np.random.default_rng(42)
    X = rng.standard_normal((12, 4))
    B_true = np.array([[1.0, -0.5], [0.0, 0.0], [0.6, 0.6], [0.0, 0.0]])
    Y = X @ B_true + 0.1 * rng.standard_normal((12, 2))
    return X - X.mean(axis=0), Y - Y.mean(axis=0)


def regenerate(n_iters: int = 10_000_000) -> None:
    print("# frozen oracle values, regenerate with: python tests/oracles.py [n_iters]")
    for i, spec in enumerate(tiny_instances()):
        if spec["kind"] == "multitask":
            C = dense_fusion_matrix(spec["Y"].shape[1], spec["edges"], spec["lam"], spec["gamma"])
            best, best_B = subgradient_dense(spec["X"], spec["Y"], C, n_iters)
            print(f"SUBGRAD_OBJ[{i}] = {best!r}")
            print(f"BSTAR_NORM[{i}] = {float(np.linalg.norm(best_B))!r}")
        else:
            C = _univariate_as_dense(spec)
            X, y = spec["X"], spec["y"]
            best, best_b = _subgradient_univariate(X, y, C, n_iters)
            gbest, _ = grid_search_univariate(X, y, spec["edges"], spec["lam"], spec["gamma"])
            print(f"SUBGRAD_OBJ[{i}] = {best!r}")
            print(f"BSTAR_NORM[{i}] = {float(np.linalg.norm(best_b))!r}")
            print(f"GRID_OBJ[{i}] = {gbest!r}")
    Xg, Yg = group_l1l2_instance()
    print(f"GROUP_L1L2_OBJ = {subgradient_group_rows(Xg, Yg, 0.8, n_iters)!r}")


def _subgradient_univariate(X, y, C, n_iters):
    """Subgradient reference for the univariate fused objective via the row form."""
    XtX = X.T @ X
    Xty = X.T @ y
    step_c = 1.0 / float(np.linalg.eigvalsh(XtX).max())

    def objective(b):
        resid = y - X @ b
        return 0.5 * float(np.vdot(resid, resid)) + float(np.abs(b @ C).sum())

    b = np.zeros(X.shape[1])
    best = objective(b)
    best_b = b.copy()
    for t in range(n_iters):
        G = XtX @ b - Xty + np.sign(b @ C) @ C.T
        b = b - (step_c / np.sqrt(t + 1.0)) * G
        f = objective(b)
        if f < best:
            best = f
            best_b = b.copy()
    return best, best_b


if __name__ == "__main__":
    import sys

    iters = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    regenerate(iters)
