"""Span tracing of the gflasso package from outside it, and the per-layer metrics drawn from the spans.

:class:`Tracer` replaces every public function of the package's modules, and
every public ``FusionOperator`` method, with a wrapper that records a span
(id, parent id, name, start, end) in memory. References that other modules
imported by name are replaced too, so calls between modules are seen. On exit
it puts every original back. Nothing in the package is edited.

A layer is one module of the package; a span is named ``<layer>.<function>``.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import time

PACKAGE = "gflasso"
LAYERS = ("cli", "fileio", "simulate", "graph", "smoothing", "solver", "models", "evaluate")
OPERATOR_CLASS = ("smoothing", "FusionOperator")

FILEIO_READ = {"fileio.read_matrix_csv", "fileio.read_json", "fileio.sha256_file"}
FILEIO_WRITE = {
    "fileio.atomic_write_text", "fileio.write_matrix_csv", "fileio.write_json",
    "fileio.matrix_csv_text", "fileio.json_text",
}
SIMULATE_GEN = {
    "simulate.simulate_dataset", "simulate.simulate_test_set", "simulate.gen_genotypes",
    "simulate.gen_coefficients", "simulate.gen_outputs", "simulate.substream_seed",
    "simulate.replicate_seed",
}
GRAPH_BUILD = {"graph.build_correlation_graph", "graph.chain_graph", "graph.load_edge_list", "graph.pearson"}
MODEL_FITS = {"models.fit_gflasso", "models.fit_lasso", "models.fit_group_l1l2", "models.fit_fused_univariate"}
# Each of these operator calls streams one J x (K + |E|) float64 array; the clamp reads and writes one.
AUX_PASSES = {
    "smoothing.FusionOperator.apply": 1,
    "smoothing.FusionOperator.adjoint": 1,
    "smoothing.FusionOperator.penalty_exact": 1,
    "smoothing.FusionOperator.aux_optimum": 2,
}


def _observe_bytes_read(counters, args, kwargs, result):
    counters["read_bytes"] = counters.get("read_bytes", 0) + os.path.getsize(args[0])


def _observe_graph(counters, args, kwargs, result):
    counters["graph_edges"] = counters.get("graph_edges", 0) + result.n_edges


def _observe_fit(counters, args, kwargs, result):
    s = result.solution
    counters.setdefault("fits", []).append(
        (s.iterations, s.converged, result.runtime_s - s.runtime_total_s, result.x_mean.shape[0], s.B_hat.shape[1])
    )


def _observe_loop(counters, args, kwargs, result):
    counters["loop_iterations"] = counters.get("loop_iterations", 0) + result[1]


def _observe_selection(counters, args, kwargs, result):
    counters["grid_points"] = counters.get("grid_points", 0) + len(result.table)
    counters["grid_failed"] = counters.get("grid_failed", 0) + sum("error" in row for row in result.table)


def _aux_observer(passes):
    def observe(counters, args, kwargs, result):
        op = args[0]
        counters["aux_bytes"] = counters.get("aux_bytes", 0) + passes * 8 * op.n_inputs * op.width

    return observe


OBSERVERS = {
    **{name: _observe_bytes_read for name in FILEIO_READ},
    "graph.build_correlation_graph": _observe_graph,
    "graph.chain_graph": _observe_graph,
    "graph.load_edge_list": _observe_graph,
    **{name: _observe_fit for name in MODEL_FITS},
    "solver.three_sequence_minimize": _observe_loop,
    "evaluate.select_regularization": _observe_selection,
    **{name: _aux_observer(p) for name, p in AUX_PASSES.items()},
}


class Tracer:
    """Context manager that wraps the package while active and keeps spans in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: dict = {}
        self._stack = [0]
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, observer, counters = self.spans, self._stack, OBSERVERS.get(name), self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if observer is not None:
                observer(counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        cls = getattr(modules[OPERATOR_CLASS[0]], OPERATOR_CLASS[1])
        prefix = ".".join(OPERATOR_CLASS)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._set(cls, attr, obj, self._wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, obj, classmethod(self._wrap(f"{prefix}.{attr}", obj.__func__)))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, obj, wrappers[id(obj)])
        return self

    def _set(self, owner, attr, original, replacement):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write_spans(self, path: str) -> None:
        """Write the spans as gzip CSV: id,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        name_of = {0: ""}
        duration: dict[int, int] = {}
        child_ns: dict[int, int] = {}
        for sid, parent, name, t0, t1 in self.spans:
            name_of[sid] = name
            duration[sid] = t1 - t0
            child_ns[parent] = child_ns.get(parent, 0) + t1 - t0

        def inclusive_s(names):
            # outermost spans of the group only, so nested calls are not counted twice
            return sum(duration[s] for s, p, n, _, _ in self.spans if n in names and name_of[p] not in names) / 1e9

        def self_s(match):
            return sum(duration[s] - child_ns.get(s, 0) for s, _, n, _, _ in self.spans if match(n)) / 1e9

        def calls(name):
            return sum(1 for _, _, n, _, _ in self.spans if n == name)

        c = self.counters
        fits = c.get("fits", [])
        n_fits = len(fits)
        iterations = sum(f[0] for f in fits)
        loop_s = inclusive_s({"solver.three_sequence_minimize"})
        fit_ms = sorted(duration[s] / 1e6 for s, _, n, _, _ in self.spans if n in MODEL_FITS)
        op = "smoothing.FusionOperator."
        per_iter = max(iterations, 1)
        return {
            "cli.self_s": (self_s(lambda n: n.startswith("cli.")), "s"),
            "fileio.read_s": (inclusive_s(FILEIO_READ), "s"),
            "fileio.read_bytes": (c.get("read_bytes", 0), "B"),
            "fileio.write_s": (inclusive_s(FILEIO_WRITE), "s"),
            "simulate.gen_s": (inclusive_s(SIMULATE_GEN), "s"),
            "graph.build_s": (inclusive_s(GRAPH_BUILD), "s"),
            "graph.edges": (c.get("graph_edges", 0), "count"),
            "smoothing.apply_calls": (calls(op + "apply"), "count"),
            "smoothing.adjoint_calls": (calls(op + "adjoint"), "count"),
            "smoothing.apply_s": (self_s(lambda n: n == op + "apply"), "s"),
            "smoothing.adjoint_s": (self_s(lambda n: n == op + "adjoint"), "s"),
            "smoothing.clamp_s": (self_s(lambda n: n in (op + "aux_optimum", "smoothing.shrink")), "s"),
            "smoothing.penalty_exact_s": (self_s(lambda n: n == op + "penalty_exact"), "s"),
            "smoothing.smoothed_penalty_s": (self_s(lambda n: n == op + "smoothed_penalty"), "s"),
            "smoothing.bytes_per_iter": (c.get("aux_bytes", 0) / per_iter, "B_computed"),
            "solver.fits": (n_fits, "count"),
            "solver.iterations": (iterations, "count"),
            "solver.converged_ratio": (sum(f[1] for f in fits) / max(n_fits, 1), "ratio"),
            "solver.capped": (sum(not f[1] for f in fits), "count"),
            "solver.lam_max_s": (inclusive_s({"solver.largest_eigenvalue"}), "s"),
            "solver.loop_s": (loop_s, "s"),
            "solver.loop_self_s": (self_s(lambda n: n == "solver.three_sequence_minimize"), "s"),
            "solver.iter_us": (1e6 * loop_s / max(c.get("loop_iterations", 0), 1), "us"),
            # two Gram products per iteration (gradient and loss), each reading X^T X and two J x K blocks
            "solver.gram_bytes_per_iter": (
                sum(f[0] * 2 * 8 * (f[3] ** 2 + 2 * f[3] * f[4]) for f in fits) / per_iter, "B_computed",
            ),
            "models.fit_s": (inclusive_s(MODEL_FITS), "s"),
            "models.overhead_s": (sum(f[2] for f in fits), "s"),
            "evaluate.grid_points": (c.get("grid_points", 0), "count"),
            "evaluate.grid_failed": (c.get("grid_failed", 0), "count"),
            "evaluate.fit_p50_ms": (percentile(fit_ms, 50), "ms"),
            "evaluate.fit_p90_ms": (percentile(fit_ms, 90), "ms"),
            "evaluate.self_s": (self_s(lambda n: n.startswith("evaluate.")), "s"),
            "evaluate.roc_s": (inclusive_s({"evaluate.roc_curve"}), "s"),
        }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
