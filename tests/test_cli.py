import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gflasso
from gflasso.cli import main
from gflasso.fileio import read_matrix_csv, sha256_file, write_matrix_csv
from gflasso.graph import build_correlation_graph
from gflasso.models import PenaltySpec, center_columns, objective_gflasso

FAST = ["--mu", "1e-3", "--tol", "1e-6", "--max-iters", "4000"]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_simulate(out_dir, seed=7, extra=()):
    return main(["simulate", "--out-dir", str(out_dir), "--seed", str(seed), *extra])


class TestSimulateCommand:
    def test_default_shapes(self, tmp_path):
        assert run_simulate(tmp_path) == 0
        X, xh = read_matrix_csv(tmp_path / "X.csv")
        Y, yh = read_matrix_csv(tmp_path / "Y.csv")
        B, _ = read_matrix_csv(tmp_path / "B_true.csv")
        assert X.shape == (100, 30) and xh[0] == "x1"
        assert Y.shape == (100, 10) and yh[-1] == "y10"
        assert B.shape == (30, 10)
        spec = json.loads((tmp_path / "spec.json").read_text())
        assert spec["seed"] == 7

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        run_simulate(a)
        run_simulate(b)
        for name in ("X.csv", "Y.csv", "B_true.csv", "spec.json", "manifest.json"):
            assert read_bytes(a / name) == read_bytes(b / name)

    def test_missing_out_dir(self, tmp_path):
        missing = tmp_path / "nope"
        assert run_simulate(missing) == 2
        assert not missing.exists()

    def test_csv_roundtrip_precision(self, tmp_path):
        run_simulate(tmp_path)
        Y, _ = read_matrix_csv(tmp_path / "Y.csv")
        from gflasso.simulate import SimulationSpec, simulate_dataset

        ds = simulate_dataset(SimulationSpec(seed=7))
        assert np.array_equal(Y, ds.Y)


class TestFitCommand:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        run_simulate(tmp_path, seed=3)
        return tmp_path

    def test_gflasso_gamma_zero_equals_lasso(self, data_dir, tmp_path):
        out_a = tmp_path / "gf"
        out_b = tmp_path / "la"
        out_a.mkdir()
        out_b.mkdir()
        common = ["--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"), *FAST]
        assert main(["fit", "--method", "gflasso", "--gamma", "0", "--lambda", "0.3",
                     "--out-dir", str(out_a), *common]) == 0
        assert main(["fit", "--method", "lasso", "--lambda", "0.3", "--out-dir", str(out_b), *common]) == 0
        Ba, _ = read_matrix_csv(out_a / "B_hat.csv")
        Bb, _ = read_matrix_csv(out_b / "B_hat.csv")
        assert np.linalg.norm(Ba - Bb) < 1e-5
        assert (out_a / "graph.csv").exists()

    def test_fit_json_objective_recomputes(self, data_dir, tmp_path):
        out = tmp_path / "fit"
        out.mkdir()
        rho, lam, gamma = 0.3, 0.2, 0.4
        code = main(["fit", "--method", "gflasso", "--rho", str(rho), "--lambda", str(lam),
                     "--gamma", str(gamma), "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), *FAST])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        B, _ = read_matrix_csv(out / "B_hat.csv")
        X, _ = read_matrix_csv(data_dir / "X.csv")
        Y, _ = read_matrix_csv(data_dir / "Y.csv")
        graph = build_correlation_graph(Y, rho)
        Xc, _ = center_columns(X)
        Yc, _ = center_columns(Y)
        recomputed = objective_gflasso(Xc, Yc, B, graph, PenaltySpec(lam=lam, gamma=gamma))
        assert recomputed == pytest.approx(doc["objective"], abs=1e-8)

    def test_non_numeric_cell_reports_position(self, tmp_path, capsys):
        y = tmp_path / "Y.csv"
        y.write_text("y1\n0.5\n-0.5\n")
        for i, cell in enumerate(("oops", "nan", "inf", "-inf")):
            x = tmp_path / f"X{i}.csv"
            x.write_text(f"x1,x2\n1.0,2.0\n3.0,{cell}\n")
            out = tmp_path / f"out{i}"
            out.mkdir()
            code = main(["fit", "--method", "lasso", "--x", str(x), "--y", str(y), "--out-dir", str(out)])
            assert code == 2, cell
            err = capsys.readouterr().err
            assert "row 3" in err and "column 2" in err and str(x) in err, err
            assert not (out / "B_hat.csv").exists()

    def test_max_iters_exit_code(self, data_dir, tmp_path):
        out = tmp_path / "slow"
        out.mkdir()
        code = main(["fit", "--method", "gflasso", "--lambda", "0.3", "--gamma", "0.5",
                     "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--mu", "1e-4", "--tol", "1e-14", "--max-iters", "5"])
        assert code == 3
        assert json.loads((out / "fit.json").read_text())["converged"] is False
        assert (out / "B_hat.csv").exists()

    def test_fused_requires_single_column(self, data_dir, tmp_path):
        out = tmp_path / "fused"
        out.mkdir()
        code = main(["fit", "--method", "fused", "--x", str(data_dir / "X.csv"),
                     "--y", str(data_dir / "Y.csv"), "--out-dir", str(out)])
        assert code == 2

    def test_fused_chain_runs(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 5))
        y = X @ np.array([1.0, 1.0, 0.0, 0.0, -0.5]) + 0.1 * rng.standard_normal(20)
        from gflasso.fileio import default_headers, write_matrix_csv

        write_matrix_csv(tmp_path / "X.csv", X, default_headers("x", 5))
        write_matrix_csv(tmp_path / "Y.csv", y[:, None], ["y1"])
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", "fused", "--x", str(tmp_path / "X.csv"),
                     "--y", str(tmp_path / "Y.csv"), "--out-dir", str(out), *FAST])
        assert code == 0
        B, _ = read_matrix_csv(out / "B_hat.csv")
        assert B.shape == (5, 1)

    def test_manifest_digests_and_replay(self, data_dir, tmp_path):
        out = tmp_path / "m1"
        out.mkdir()
        args = ["fit", "--method", "lasso", "--lambda", "0.2", "--x", str(data_dir / "X.csv"),
                "--y", str(data_dir / "Y.csv"), "--out-dir", str(out), *FAST]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["X.csv"] == sha256_file(data_dir / "X.csv")
        # replaying the manifest's arguments reproduces identical artifacts
        out2 = tmp_path / "m2"
        out2.mkdir()
        a = manifest["args"]
        replay = ["fit", "--method", a["method"], "--lambda", str(a["lambda"]), "--gamma", str(a["gamma"]),
                  "--rho", str(a["rho"]), "--x", a["x"], "--y", a["y"], "--out-dir", str(out2),
                  "--mu", str(a["mu"]), "--tol", str(a["tol"]), "--max-iters", str(a["max_iters"])]
        assert main(replay) == 0
        assert read_bytes(out / "B_hat.csv") == read_bytes(out2 / "B_hat.csv")
        assert read_bytes(out / "fit.json") == read_bytes(out2 / "fit.json")


class TestCvCommand:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        run_simulate(tmp_path, seed=5, extra=["--n-samples", "60", "--n-inputs", "20", "--n-outputs", "6",
                                              "--group-sizes", "3,3", "--inputs-per-group", "3,3"])
        return tmp_path

    def test_single_point_grid(self, data_dir, tmp_path):
        out = tmp_path / "cv"
        out.mkdir()
        code = main(["cv", "--method", "lasso", "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--lambdas", "0.4", "--holdout", "20", *FAST])
        assert code == 0
        doc = json.loads((out / "cv.json").read_text())
        assert doc["selected"]["lambda"] == 0.4
        assert len(doc["table"]) == 1

    def test_holdout_too_large(self, data_dir, tmp_path):
        out = tmp_path / "cv"
        out.mkdir()
        code = main(["cv", "--method", "lasso", "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--holdout", "60", *FAST])
        assert code == 2

    def test_rerun_identical(self, data_dir, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            out.mkdir()
            code = main(["cv", "--method", "gflasso", "--x", str(data_dir / "X.csv"),
                         "--y", str(data_dir / "Y.csv"), "--out-dir", str(out), "--rho", "0.3",
                         "--lambdas", "0.1,1", "--gammas", "0.1,1", "--holdout", "20", *FAST])
            assert code == 0
            outs.append(out)
        assert read_bytes(outs[0] / "cv.json") == read_bytes(outs[1] / "cv.json")


class TestBenchCommand:
    def test_rho_axis_and_header(self, tmp_path):
        out = tmp_path / "bench"
        out.mkdir()
        code = main(["bench", "--axis", "rho", "--values", "0.2,0.5,0.8", "--out-dir", str(out),
                     "--n-samples", "50", "--n-inputs", "15", "--n-outputs", "6",
                     "--max-iters", "30", "--tol", "1e-3"])
        assert code == 0
        lines = (out / "bench.csv").read_text().strip().split("\n")
        assert lines[0] == "axis,value,method,n_edges,iterations,converged,total_s,periter_s"
        edges = [int(line.split(",")[3]) for line in lines[1:]]
        assert edges == sorted(edges, reverse=True)


class TestReportCommand:
    def test_tiny_report_deterministic_and_valid(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            out.mkdir()
            code = main(["report", "--out-dir", str(out), "--n-samples", "40", "--n-inputs", "15",
                         "--n-outputs", "6", "--group-sizes", "3,3", "--inputs-per-group", "3,3",
                         "--replicates", "1", "--test-n", "15", "--holdout", "10",
                         "--lambdas", "0.1,1", "--gammas", "0.5", "--methods", "gflasso,lasso",
                         "--mu", "1e-3", "--tol", "1e-5", "--max-iters", "2000"])
            assert code == 0
            outs.append(out)
        assert read_bytes(outs[0] / "report.json") == read_bytes(outs[1] / "report.json")
        doc = json.loads((outs[0] / "report.json").read_text())
        assert set(doc["methods"]) == {"gflasso", "lasso"}
        assert doc["replicates"][0]["methods"]["lasso"]["auc"] > 0


TINY_REPORT = ["--n-samples", "40", "--n-inputs", "15", "--n-outputs", "6", "--group-sizes", "3,3",
               "--inputs-per-group", "3,3", "--replicates", "2", "--test-n", "15", "--holdout", "10",
               "--lambdas", "0.1,1", "--gammas", "0.5", "--methods", "gflasso,lasso",
               "--mu", "1e-3", "--tol", "1e-5", "--max-iters", "2000"]


class TestReportArguments:
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--methods", "lassoo", "'lassoo'"),
            ("--methods", ",", "got ''"),
            ("--holdout", "100", "holdout must be in (0, 100), got 100"),
            ("--holdout", "0", "holdout must be in (0, 100), got 0"),
            ("--test-n", "0", "test_n must be >= 1, got 0"),
            ("--replicates", "0", "n_replicates must be >= 1, got 0"),
        ],
    )
    def test_bad_value_exits_2_without_report(self, tmp_path, capsys, flag, value, message):
        assert main(["report", "--out-dir", str(tmp_path), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_threads_flag_is_accepted_and_changes_nothing(self, tmp_path):
        # perfbench's report_paper workload passes --threads 1
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            assert main(["report", "--out-dir", str(out), "--threads", threads, *TINY_REPORT]) == 0
        for name in ("report.json", "manifest.json"):
            assert read_bytes(tmp_path / "t1" / name) == read_bytes(tmp_path / "t2" / name)


class TestSchemas:
    def test_artifacts_validate(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        referencing = pytest.importorskip("referencing")
        from referencing.jsonschema import DRAFT7

        schema_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "schemas")
        schemas = {}
        for name in ("fit", "cv", "report"):
            with open(os.path.join(schema_dir, f"{name}.schema.json")) as fh:
                schemas[name] = json.load(fh)
        # cv.schema.json refers to fit.schema.json by relative name; resolve it locally
        registry = referencing.Registry().with_resources(
            (f"{name}.schema.json", DRAFT7.create_resource(doc)) for name, doc in schemas.items()
        )

        def check(kind, path):
            jsonschema.Draft7Validator(schemas[kind], registry=registry).validate(json.loads(path.read_text()))

        run_simulate(tmp_path, seed=5, extra=["--n-samples", "40", "--n-inputs", "12", "--n-outputs", "4",
                                              "--group-sizes", "2,2", "--inputs-per-group", "3,3"])
        X, Y = str(tmp_path / "X.csv"), str(tmp_path / "Y.csv")
        y1 = str(tmp_path / "y1.csv")
        write_matrix_csv(y1, read_matrix_csv(Y)[0][:, :1], ["y1"])
        for method, y in (("gflasso", Y), ("l1l2", Y), ("fused", y1)):
            out = tmp_path / f"fit_{method}"
            out.mkdir()
            assert main(["fit", "--method", method, "--x", X, "--y", y, "--out-dir", str(out), *FAST]) == 0
            check("fit", out / "fit.json")
        out = tmp_path / "cv"
        out.mkdir()
        assert main(["cv", "--method", "gflasso", "--x", X, "--y", Y, "--out-dir", str(out),
                     "--lambdas", "0.1,1", "--gammas", "0.5", "--holdout", "10", *FAST]) == 0
        check("cv", out / "cv.json")
        out = tmp_path / "report"
        out.mkdir()
        assert main(["report", "--out-dir", str(out), *TINY_REPORT]) == 0
        check("report", out / "report.json")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sim"
        out.mkdir()
        # the child imports the package from where this process did, installed or not
        src = os.path.dirname(os.path.dirname(gflasso.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "gflasso.cli", "simulate", "--out-dir", str(out), "--seed", "1"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert (out / "X.csv").exists()

    def test_usage_error_exit_code(self):
        assert main(["fit", "--method", "bogus", "--x", "a", "--y", "b", "--out-dir", "c"]) == 2
