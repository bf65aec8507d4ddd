"""Benchmark of the gflasso CLI: three workloads, end-to-end metrics, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory and driven
in-process through ``gflasso.cli.main``, one command at a time (a closed loop
with one client). A run makes a few datasets from ``(seed, index)``. After one
warm-up command, the datasets' commands take turns until ``S`` seconds have
passed (each dataset at least MIN_REPEATS times), and each command's outputs
are checked. Datasets are made again between commands, within SETUP_SHARE of
the run, to time their set-up repeatedly.

Every command and set-up is followed by the reference kernel of
``reference.py``, and its time is corrected for the machine's speed with the
kernel times around it. ``wall_s`` is the mean over datasets of each dataset's
median command, ``setup_s`` the median of all set-ups, both corrected. The
uncorrected times are printed next to them.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics. With ``--trace 1`` the same loop runs, then one more command is run
with every package function wrapped in spans (set-up and check included),
then the operator probe; the JSON then holds the per-layer metrics. Spans and
the machine record are written to ``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_REPEATS = 3  # commands per dataset in a run, however long they take
# After a command, its dataset is made again (timed, into a scratch directory) while
# set-ups have taken less than this share of the run, so set-ups too are spread over it.
SETUP_SHARE = 0.1
# One BLAS thread: on a shared two-core machine, two OpenBLAS threads made the
# fusion-heavy fit 1.7x slower and its run-to-run spread several times wider.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> dict[str, str | None]:
    """Set the BLAS thread variables to 1 (before numpy loads) and return their ambient values."""
    ambient = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return ambient


def _blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _last_level_cache_bytes() -> int | None:
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        value = done.stdout.strip()
        if done.returncode == 0 and value.isdigit() and int(value) > 0:
            return int(value)
    return None


def machine_record(ambient: dict[str, str | None], n_inputs: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "llc_bytes": _last_level_cache_bytes(),
        "xtx_bytes_computed": 8 * n_inputs * n_inputs,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS_ambient": ambient.get("OPENBLAS_NUM_THREADS"),
        "GFLASSO_THREADS": os.environ.get("GFLASSO_THREADS"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass
class Session:
    """One run of one workload: makes cases, runs and checks commands, and tallies the results."""

    workload: object
    seed: int
    work: str
    log: object
    # dataset index -> (seconds, position in kernel_s of the kernel run that followed)
    # of each set-up and of each command
    setups: dict[int, list[tuple[float, int]]] = field(default_factory=dict)
    walls: dict[int, list[tuple[float, int]]] = field(default_factory=dict)
    kernel_s: list[float] = field(default_factory=list)
    aucs: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        from reference import ReferenceKernel

        self.kernel = ReferenceKernel()
        self.kernel_s.append(self.kernel())

    def run_kernel(self) -> int:
        """Run the reference kernel right after a timed step; return the position of its time."""
        self.kernel_s.append(self.kernel())
        return len(self.kernel_s) - 1

    def make(self, index: int, name: str) -> tuple[str, int, dict]:
        """Make the inputs of dataset ``index`` in a fresh directory and record the set-up time."""
        from workloads import case_seed

        seed = case_seed(self.seed, index)
        data_dir = _fresh_dir(os.path.join(self.work, name))
        t0 = time.perf_counter()
        made = self.workload.make_inputs(data_dir, seed)
        elapsed = time.perf_counter() - t0
        self.setups.setdefault(index, []).append((elapsed, self.run_kernel()))
        return data_dir, seed, made

    def new_case(self, index: int, name: str):
        data_dir, seed, made = self.make(index, name)
        return self.workload.case(data_dir, _fresh_dir(os.path.join(data_dir, "out")), seed, made)

    def run_command(self, argv: list[str]) -> tuple[int | None, float]:
        """Run one CLI command; an exception that escapes ``main`` is reported and gives rc None."""
        from gflasso import cli

        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        return rc, time.perf_counter() - t0

    def run_case(self, case) -> tuple[float, int]:
        """Time the case's command, check its outputs, and count it; return (seconds, kernel position)."""
        from workloads import Outcome

        _fresh_dir(case.out_dir)
        rc, wall = self.run_command(case.argv)
        position = self.run_kernel()
        try:
            outcome = self.workload.check(case, rc)
        except Exception as exc:
            traceback.print_exc()
            outcome = Outcome([f"check raised {exc!r}"])
        self.attempted += 1
        if outcome.ok:
            self.aucs.append(outcome.auc)
            if outcome.objective is not None:
                self.objectives.append(outcome.objective)
        else:
            self.failed += 1
            self.log(f"FAILED command on seed {case.seed}: {'; '.join(outcome.problems)}")
        return wall, position

    def measure(self, seconds: float) -> None:
        """Set up the datasets, warm up, then let their commands take turns for ``seconds``."""
        cases = {}
        for index in range(self.workload.datasets):
            try:
                cases[index] = self.new_case(index, f"case{index}")
            except Exception:
                traceback.print_exc()
                self.attempted += 1
                self.failed += 1
        if not cases:
            return
        self.run_command(next(iter(cases.values())).warmup_argv)
        self.walls = {index: [] for index in cases}
        start = time.perf_counter()
        turn = 0
        while (min(map(len, self.walls.values())) < MIN_REPEATS
               or time.perf_counter() - start < seconds):
            index = list(cases)[turn % len(cases)]
            self.walls[index].append(self.run_case(cases[index]))
            turn += 1
            remade = sum(took for times in self.setups.values() for took, _ in times[1:])
            if remade < SETUP_SHARE * (time.perf_counter() - start):
                try:
                    self.make(index, "remake")
                except Exception:
                    traceback.print_exc()
                    self.attempted += 1
                    self.failed += 1
        for case in cases.values():
            shutil.rmtree(case.data_dir, ignore_errors=True)

    def end_to_end(self, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        from reference import REFERENCE_KERNEL_S, corrected_s

        def per_dataset_median(steps, correct):
            return [statistics.median(corrected_s(t, p, self.kernel_s) if correct else t for t, p in runs)
                    for runs in steps.values()]

        every_setup = [step for runs in self.setups.values() for step in runs]
        wall_s = statistics.mean(per_dataset_median(self.walls, True))
        setup_s = statistics.median(corrected_s(t, p, self.kernel_s) for t, p in every_setup)
        every = [seconds for runs in self.walls.values() for seconds, _ in runs]
        p90 = statistics.quantiles(every, n=10)[-1] if len(every) > 1 else every[0]
        auc = statistics.median(self.aucs) if self.aucs else 0.0
        self.log(f"metric wall_s {wall_s:.6g} s (mean over {len(self.walls)} datasets of the median command, "
                 f"speed-corrected; uncorrected {statistics.mean(per_dataset_median(self.walls, False)):.4g} s; "
                 f"all {len(every)} commands uncorrected: median {statistics.median(every):.4g}, "
                 f"p90 {p90:.4g}, fastest {min(every):.4g})")
        self.log(f"metric setup_s {setup_s:.6g} s (median of {len(every_setup)} set-ups, speed-corrected; "
                 f"uncorrected {statistics.median(t for t, _ in every_setup):.4g} s)")
        self.log(f"kernel median {statistics.median(self.kernel_s):.4g} s, fastest {min(self.kernel_s):.4g} s, "
                 f"reference {REFERENCE_KERNEL_S} s ({len(self.kernel_s)} runs)")
        self.log(f"metric peak_rss_mb {peak_rss_mb:.6g} MB")
        self.log(f"metric auc {auc:.6g} 1 (median of {len(self.aucs)})")
        if self.objectives:
            self.log(f"metric objective {statistics.median(self.objectives):.10g} 1 "
                     f"(median of {len(self.objectives)} fits)")
        self.log(f"metric fail_ratio {self.failed / self.attempted:.6g} ratio ({self.failed} of {self.attempted})")
        return {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "auc": (auc, "1"),
        }

    def traced(self, untraced_wall: float, probe_shapes, out_dir, machine) -> dict[str, tuple[float, str]]:
        """Run set-up, command and check of dataset 0 under the tracer, then the probe."""
        import probe
        from tracer import Tracer

        tracer = Tracer()
        traced_wall = 0.0
        with tracer:
            try:
                case = self.new_case(0, "traced")
                traced_wall = self.run_case(case)[0]
            except Exception:
                traceback.print_exc()
                self.attempted += 1
                self.failed += 1
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        layer.update(probe.run_probe(self.seed, probe.SHAPES if probe_shapes is None else probe_shapes))
        stem = os.path.join(out_dir, f"{self.workload.name}-seed{self.seed}")
        tracer.write_spans(stem + "-spans.csv.gz")
        with open(stem + "-trace.json", "w") as fh:
            json.dump({"machine": machine, "metrics": layer, "spans": len(tracer.spans)}, fh, indent=1)
        for name, (value, unit) in layer.items():
            self.log(f"layer {name} {value:.6g} {unit}")
        self.log(f"trace peak_rss_mb {_peak_rss_mb():.6g} MB, {len(tracer.spans)} spans")
        return layer


def run_benchmark(workload, seed: int, seconds: float, trace: bool, probe_shapes=None,
                  out_dir: Path = OUT_DIR, ambient=None, log=print) -> dict:
    """Run one workload and return the result object (without printing it)."""
    os.makedirs(out_dir, exist_ok=True)
    machine = machine_record(ambient or {}, workload.n_inputs)
    log(f"workload {workload.name} seed {seed} seconds {seconds} trace {int(trace)}")
    log("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    session = Session(workload, seed, tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir), log)
    try:
        session.measure(seconds)
        peak_rss_mb = _peak_rss_mb()
        if not session.walls:
            raise RuntimeError("no command could be set up; nothing was measured")
        metrics = session.end_to_end(peak_rss_mb)
        if trace:
            # the traced command runs on dataset 0; compare it with that dataset's fastest untraced run
            untraced = min((seconds for seconds, _ in session.walls.get(0, [])), default=metrics["wall_s"][0])
            metrics = session.traced(untraced, probe_shapes, out_dir, machine)
    finally:
        shutil.rmtree(session.work, ignore_errors=True)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ambient = pin_blas_threads()
    if not (SRC / "gflasso" / "cli.py").is_file():
        print(f"error: package source not found at {SRC}/gflasso; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        result = run_benchmark(WORKLOADS[ns.workload], ns.seed, ns.seconds, bool(ns.trace), ambient=ambient)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
