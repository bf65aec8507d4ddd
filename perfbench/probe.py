"""Operator probe: median-of-k microseconds for each part of one solver iteration at fixed shapes.

The shapes are the three of the per-layer table in ROADMAP.md (N=200,
lambda = gamma = 0.1, mu = 1e-4). Each op runs on the same iterate W:

    gram           X^T X @ W
    apply          B C            (FusionOperator.apply)
    clamp          clip(B C / mu, -1, 1)
    adjoint        A C^T          (FusionOperator.adjoint)
    penalty_exact  ||B C||_1      (FusionOperator.penalty_exact)

``aux_bytes`` is computed, not measured: the size of one J x (K + |E|)
float64 array, which apply writes and adjoint reads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from gflasso.graph import build_correlation_graph
from gflasso.simulate import SimulationSpec, simulate_dataset
from gflasso.smoothing import FusionOperator, shrink

# (label, J, K, rho)
SHAPES = (("J100_K20", 100, 20, 0.5), ("J1000_K100", 1000, 100, 0.1), ("J2000_K200", 2000, 200, 0.3))
OPS = ("gram", "apply", "clamp", "adjoint", "penalty_exact")
N_SAMPLES = 200
LAM = GAMMA = 0.1
MU = 1e-4
BIG_ELEMENTS = 2_000_000  # at or above this many aux entries a call takes ~0.1 s or more


def _spec(j: int, k: int, seed: int) -> SimulationSpec:
    # three near-equal output blocks, as `gflasso bench` builds them
    n_groups = min(3, k)
    base, extra = divmod(k, n_groups)
    sizes = tuple(base + (1 if i < extra else 0) for i in range(n_groups))
    return SimulationSpec(
        n_samples=N_SAMPLES, n_inputs=j, n_outputs=k, seed=seed,
        group_sizes=sizes, inputs_per_group=(3, 4, 4)[:n_groups],
    )


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def run_probe(seed: int, shapes=SHAPES) -> dict[str, tuple[float, str]]:
    """Probe metrics as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for label, j, k, rho in shapes:
        ds = simulate_dataset(_spec(j, k, seed))
        graph = build_correlation_graph(ds.Y, rho)
        op = FusionOperator.from_graph(graph, lam=LAM, gamma=GAMMA, n_inputs=j)
        Xc = ds.X - ds.X.mean(axis=0)
        XtX = Xc.T @ Xc
        W = 0.01 * np.random.default_rng(seed).standard_normal((j, k))
        reps = 3 if j * op.width >= BIG_ELEMENTS else 7
        # At most one J x (K + |E|) array is kept alive at a time; the largest is 133 MB.
        us = {
            "gram": _median_us(lambda: XtX @ W, reps),
            "apply": _median_us(lambda: op.apply(W), reps),
        }
        G = op.apply(W)
        us["clamp"] = _median_us(lambda: shrink(G / MU), reps)
        A = shrink(G / MU)
        del G
        us["adjoint"] = _median_us(lambda: op.adjoint(A), reps)
        del A
        us["penalty_exact"] = _median_us(lambda: op.penalty_exact(W), reps)
        for name in OPS:
            out[f"probe.{label}.{name}_us"] = (us[name], "us")
        out[f"probe.{label}.edges"] = (graph.n_edges, "count")
        out[f"probe.{label}.aux_bytes"] = (8 * j * op.width, "B_computed")
    return out
