"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root: python3 -m pytest perfbench -q
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "report_paper": workloads.ReportPaper(
        size_args=("--n-samples", "60", "--n-inputs", "15", "--n-outputs", "6",
                   "--group-sizes", "2,2,2", "--inputs-per-group", "2,2,2"),
        grid_args=("--lambdas", "0.1,1", "--gammas", "0.1,1"),
        n_inputs=15,
        datasets=2,
    ),
    "fit_fusion_heavy": workloads.FitFusionHeavy(
        n_samples=50, n_inputs=20, group_sizes=(4, 4, 4), n_edges=20, datasets=2
    ),
    "fused_chain_long": workloads.FusedChainLong(n_samples=40, n_inputs=30, segment=5, datasets=2),
}
# Same labels as the real probe, so metric names match BENCHMARK.json.
TINY_SHAPES = (("J100_K20", 20, 6, 0.3), ("J1000_K100", 30, 9, 0.3), ("J2000_K200", 40, 12, 0.3))
EXACT_COUNTS = (
    "solver.fits", "solver.iterations", "graph.edges", "smoothing.apply_calls",
    "smoothing.adjoint_calls", "evaluate.grid_points",
) + tuple(f"probe.{label}.edges" for label, *_ in TINY_SHAPES)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, tmp_path, trace, seed=2):
    return run.run_benchmark(workload, seed, 0, trace, probe_shapes=TINY_SHAPES, out_dir=tmp_path, log=lambda s: None)


def package_state():
    modules = [importlib.import_module("gflasso")]
    modules += [importlib.import_module(f"gflasso.{layer}") for layer in tracer.LAYERS]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    operator = importlib.import_module("gflasso.smoothing").FusionOperator
    state.update({("FusionOperator", k): v for k, v in vars(operator).items()})
    return state


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_package_is_restored(name, tmp_path):
    before = package_state()
    first = bench(TINY[name], tmp_path, trace=True)
    second = bench(TINY[name], tmp_path, trace=True)
    after = package_state()
    assert first["correct"] and second["correct"]
    assert first["metrics"]["smoothing.apply_calls"]["value"] > 0
    assert (tmp_path / f"{name}-seed2-spans.csv.gz").stat().st_size > 0
    for key in EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_benchmark_metric_is_reported_with_its_unit(name, tmp_path):
    for trace, listed in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        result = bench(TINY[name], tmp_path, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= run.MIN_REPEATS
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in listed}


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_failed_check_is_counted_without_stopping_the_run(tmp_path):
    class WrongLambda(workloads.FitFusionHeavy):
        # the command fits lambda=0.2 while the check recomputes the objective at lambda=0.1
        def case(self, *args):
            case = super().case(*args)
            case.argv[case.argv.index("--lambda") + 1] = "0.2"
            return case

    workload = WrongLambda(n_samples=50, n_inputs=20, group_sizes=(4, 4, 4), n_edges=20, datasets=2)
    result = bench(workload, tmp_path, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_REPEATS
