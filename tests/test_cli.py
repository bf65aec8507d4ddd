import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gflasso
from gflasso import cli
from gflasso.cli import build_parser, main
from gflasso.fileio import default_headers, json_text, read_matrix_csv, sha256_file, write_matrix_csv
from gflasso.graph import build_correlation_graph
from gflasso.models import PenaltySpec, fit_lasso, objective_gflasso
from gflasso.solver import STEP_RATIO, Moments, SolverConfig

from oracles import center_columns

FAST = ["--mu", "1e-3", "--tol", "1e-6", "--max-iters", "4000"]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_simulate(out_dir, seed=7, extra=()):
    return main(["simulate", "--out-dir", str(out_dir), "--seed", str(seed), *extra])


def replay_argv(manifest, out_dir):
    """The command line of a manifest's args: each as ``--name value``, a list comma-joined, True as a bare
    flag; None and False, the values of an option left unset, are left out."""
    argv = [manifest["command"], "--out-dir", str(out_dir)]
    for key, value in manifest["args"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return argv


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


@pytest.fixture()
def wide_dir(tmp_path):
    # N = 20 samples of J = 30 inputs: X^T X is singular
    data = tmp_path / "wide"
    data.mkdir()
    assert run_simulate(data, seed=4, extra=["--n-samples", "20"]) == 0
    return data


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
            assert "line 3, column 2" in err and str(x) in err, err
            assert not (out / "B_hat.csv").exists()

    def test_header_that_is_not_utf8_names_its_file_and_line(self, tmp_path, capsys):
        y = tmp_path / "Y.csv"
        y.write_text("y1\n0.5\n-0.5\n")
        x = tmp_path / "X.csv"
        x.write_bytes(b"x1,x\xe9\n1,2\n3,5\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["fit", "--method", "lasso", "--x", str(x), "--y", str(y), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{x}: line 1 is not UTF-8" in err and "byte 0xe9" in err, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "last, expected", [("3,oops", "line 5, column 2"), ("3,inf", "line 5, column 2"), ("3", "line 5 has 1 cells")]
    )
    def test_blank_lines_count_in_the_reported_row(self, tmp_path, capsys, last, expected):
        # the line named is the line of the file, blank lines included
        y = tmp_path / "Y.csv"
        y.write_text("y1\n\n0.5\n\n-0.5\n")
        x = tmp_path / "X.csv"
        x.write_text(f"x1,x2\n\n1,2\n\n{last}\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["fit", "--method", "lasso", "--x", str(x), "--y", str(y), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{x}: " in err and expected in err, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "edge, reason",
        [
            ("3,999,0.5", "edge (3, 999) out of range for 5 nodes (need 1 <= m < l <= 5)"),
            ("1,2,-0.25", "duplicate edge (1, 2)"),
            ("2,3,1.5", "edge (2, 3) weight 1.5 outside [-1, 1]"),
            ("2,3,0.5,9", "expected 3 cells m,l,r, got 4: ['2', '3', '0.5', '9']"),
            ("2,3", "expected 3 cells m,l,r, got 2: ['2', '3']"),
        ],
    )
    def test_refused_input_graph_names_its_file_and_line(self, tmp_path, capsys, edge, reason):
        rng = np.random.default_rng(1)
        write_matrix_csv(tmp_path / "X.csv", rng.standard_normal((12, 5)), default_headers("x", 5))
        write_matrix_csv(tmp_path / "Y.csv", rng.standard_normal((12, 1)), ["y1"])
        graph = tmp_path / "edges.csv"
        graph.write_text(f"m,l,r\n1,2,0.5\n\n{edge}\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", "fused", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
                     "--input-graph", str(graph), "--out-dir", str(out)])
        assert code == 2
        assert f"{graph}: line 4: {reason}" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("header", ["m,l,r,w", "m,l"])
    def test_input_graph_header_of_other_than_three_cells_is_refused(self, tmp_path, capsys, header):
        rng = np.random.default_rng(1)
        write_matrix_csv(tmp_path / "X.csv", rng.standard_normal((12, 5)), default_headers("x", 5))
        write_matrix_csv(tmp_path / "Y.csv", rng.standard_normal((12, 1)), ["y1"])
        graph = tmp_path / "edges.csv"
        graph.write_text(f"{header}\n1,2,0.5\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", "fused", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
                     "--input-graph", str(graph), "--out-dir", str(out)])
        assert code == 2
        assert f"{graph}: line 1: expected the header m,l,r" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_max_iters_exit_code(self, data_dir, tmp_path):
        out = tmp_path / "slow"
        out.mkdir()
        code = main(["fit", "--method", "gflasso", "--lambda", "0.3", "--gamma", "0.5",
                     "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--mu", "1e-4", "--tol", "1e-14", "--max-iters", "5"])
        assert code == 3
        assert json.loads((out / "fit.json").read_text())["converged"] is False
        assert (out / "B_hat.csv").exists()

    def test_singular_gram_exits_0_with_a_numeric_gap(self, wide_dir, tmp_path):
        # N = 20 rows, J = 30 columns: X^T X is singular, and the certificate bounds its null-space part
        out = tmp_path / "fit"
        out.mkdir()
        code = main(["fit", "--method", "gflasso", "--x", str(wide_dir / "X.csv"), "--y", str(wide_dir / "Y.csv"),
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert (doc["converged"], doc["stop_reason"]) == (True, "gap")
        gap_floor = doc["mu"] * 30 * doc["graph_edges"] / 2  # mu * D, D = J |E| / 2 of the smoothed fusion term
        assert isinstance(doc["gap"], float) and 0 <= doc["gap"] <= max(1e-6 * doc["objective"], gap_floor)

    @pytest.mark.parametrize("method", ["gflasso", "lasso", "l1l2"])
    def test_lambda_zero_on_a_singular_gram_exits_2_without_outputs(self, wide_dir, tmp_path, capsys, method):
        out = tmp_path / "fit"
        out.mkdir()
        code = main(["fit", "--method", method, "--lambda", "0", "--x", str(wide_dir / "X.csv"),
                     "--y", str(wide_dir / "Y.csv"), "--out-dir", str(out)])
        assert code == 2
        assert "lambda = 0" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "flag,value", [("--lambda", "1e+200"), ("--gamma", "1e+200"), ("--mu", "1e-320"), ("--accuracy", "1e-320")]
    )
    def test_overflowing_step_bound_exits_2_without_outputs(self, data_dir, tmp_path, capsys, flag, value):
        # L = lam_max + ||C||^2 / mu is past the float range: a zero step, so the fit is refused before it
        # iterates. lambda is not smoothed and stays out of L: at lambda = 1e200 the fit certifies B = 0
        out = tmp_path / "fit"
        out.mkdir()
        code = main(["fit", "--method", "gflasso", "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), flag, value])
        if flag == "--lambda":
            assert code == 0
            assert not read_matrix_csv(out / "B_hat.csv")[0].any()
            assert json.loads((out / "fit.json").read_text())["stop_reason"] == "gap"
            return
        assert code == 2
        err = capsys.readouterr().err
        assert "step bound" in err and f"{flag[2:]}={value}" in err, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("method", ["gflasso", "lasso", "l1l2", "fused"])
    def test_all_constant_x_exits_2_without_outputs(self, tmp_path, capsys, method):
        k = 1 if method == "fused" else 3
        write_matrix_csv(tmp_path / "X.csv", np.full((12, 4), 0.1), default_headers("x", 4))
        write_matrix_csv(tmp_path / "Y.csv", np.random.default_rng(2).standard_normal((12, k)), default_headers("y", k))
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", method, "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
                     "--out-dir", str(out)])
        assert code == 2
        assert "every column of X" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("method", ["gflasso", "lasso", "l1l2"])
    def test_input_graph_without_fused_exits_2_without_outputs(self, data_dir, tmp_path, capsys, method):
        # only the fused model reads a covariate graph; any other method would ignore the file
        (tmp_path / "edges.csv").write_text("m,l,r\n1,2,0.5\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", method, "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--input-graph", str(tmp_path / "edges.csv")])
        assert code == 2
        assert "--input-graph" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("method", ["lasso", "l1l2"])
    def test_fit_json_of_a_model_without_a_graph(self, data_dir, tmp_path, method):
        # no graph is built: fit.json records the K = 10 tasks, no edge and no threshold, and no graph.csv is written
        out = tmp_path / "out"
        out.mkdir()
        assert main(["fit", "--method", method, "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), *FAST]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert (doc["graph_nodes"], doc["graph_edges"], doc["rho"]) == (10, 0, None)
        assert sorted(os.listdir(out)) == ["B_hat.csv", "fit.json", "manifest.json"]

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
        write_matrix_csv(tmp_path / "X.csv", X, default_headers("x", 5))
        write_matrix_csv(tmp_path / "Y.csv", y[:, None], ["y1"])
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", "fused", "--x", str(tmp_path / "X.csv"),
                     "--y", str(tmp_path / "Y.csv"), "--out-dir", str(out), *FAST])
        assert code == 0
        B, _ = read_matrix_csv(out / "B_hat.csv")
        assert B.shape == (5, 1)

    def test_fused_input_graph_with_a_zero_weight_edge_is_certified(self, tmp_path):
        # an --input-graph edge with r = 0 is a zero column of C; at gamma = 5 the fit runs the primal-dual loop,
        # whose 1/tau bound fit.json records, and it stays finite and certified
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 6))
        y = X @ np.array([1.0, 1.0, 1.0, 0.0, -0.5, -0.5]) + 0.1 * rng.standard_normal(40)
        write_matrix_csv(tmp_path / "X.csv", X, default_headers("x", 6))
        write_matrix_csv(tmp_path / "Y.csv", y[:, None], ["y1"])
        (tmp_path / "edges.csv").write_text("m,l,r\n1,2,0.9\n2,3,0\n3,4,0.5\n4,5,-0.2\n5,6,1\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", "fused", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
                     "--input-graph", str(tmp_path / "edges.csv"), "--lambda", "0.1", "--gamma", "5",
                     "--out-dir", str(out)])
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        Xc = X - X.mean(axis=0)
        # the largest task sum of |C| is node 5's: gamma (0.2 + 1)
        bound = (np.linalg.eigvalsh(Xc.T @ Xc).max() / 2 + STEP_RATIO * 5.0 * 1.2) / 0.99
        assert fit["lipschitz_bound"] == pytest.approx(bound, rel=1e-10)
        assert fit["converged"] and fit["stop_reason"] == "gap"
        B, _ = read_matrix_csv(out / "B_hat.csv")
        assert np.all(np.isfinite(B))

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
        assert main(replay_argv(manifest, out2)) == 0
        for name in [*manifest["outputs"], "manifest.json"]:
            assert read_bytes(out / name) == read_bytes(out2 / name), name


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

    def test_builds_the_moments_once_per_split(self, data_dir, tmp_path, monkeypatch):
        builds = []
        build = Moments.from_data
        monkeypatch.setattr(Moments, "from_data", lambda X, Y: builds.append(X.shape[0]) or build(X, Y))
        out = tmp_path / "cv"
        out.mkdir()
        code = main(["cv", "--method", "gflasso", "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--lambdas", "0.1,1", "--gammas", "0.1,1", "--holdout", "20", *FAST])
        assert code == 0
        assert builds == [40, 60]

    def test_holdout_too_large(self, data_dir, tmp_path):
        out = tmp_path / "cv"
        out.mkdir()
        code = main(["cv", "--method", "lasso", "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--holdout", "60", *FAST])
        assert code == 2

    def test_lambda_zero_on_a_singular_gram_is_an_error_row(self, wide_dir, tmp_path):
        # the 15 training rows leave X^T X singular: lambda = 0 is refused, and selection goes on over the rest
        out = tmp_path / "cv"
        out.mkdir()
        code = main(["cv", "--method", "lasso", "--x", str(wide_dir / "X.csv"), "--y", str(wide_dir / "Y.csv"),
                     "--out-dir", str(out), "--lambdas", "0,0.3,3", "--holdout", "5"])
        assert code == 0
        doc = json.loads((out / "cv.json").read_text())
        errors = [row for row in doc["table"] if "error" in row]
        assert [row["lambda"] for row in errors] == [0.0] and "lambda = 0" in errors[0]["error"]
        assert doc["selected"]["lambda"] in (0.3, 3.0)
        assert doc["final_fit"]["stop_reason"] == "gap"

    def test_overflowing_step_bound_is_an_error_row(self, data_dir, tmp_path):
        # only the fusion term has the ||C||^2 / mu term, C = gamma H; lambda never enters L
        out = tmp_path / "cv"
        out.mkdir()
        code = main(["cv", "--method", "gflasso", "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), "--lambdas", "0.4", "--gammas", "0.1,1e200", "--holdout", "20", *FAST])
        assert code == 0
        doc = json.loads((out / "cv.json").read_text())
        assert [row.get("error") for row in doc["table"]] == [
            None, "the step bound L = lam_max + ||C||^2 / mu overflows at gamma=1e+200, mu=0.001",
        ]
        assert doc["selected"]["gamma"] == 0.1

    def test_l1l2_on_a_singular_gram_writes_json(self, wide_dir, tmp_path):
        # a NumPy scalar c = lam / sqrt(K) would make ``converged`` a numpy.bool_, which json_text refuses
        out = tmp_path / "cv"
        out.mkdir()
        code = main(["cv", "--method", "l1l2", "--x", str(wide_dir / "X.csv"), "--y", str(wide_dir / "Y.csv"),
                     "--out-dir", str(out), "--lambdas", "0.3,3", "--holdout", "5"])
        assert code == 0
        doc = json.loads((out / "cv.json").read_text())
        assert [row["stop_reason"] for row in doc["table"]] == ["gap", "gap"]
        assert doc["final_fit"]["converged"] is True

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
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--values", "", "at least one axis value"),
            ("--methods", ",", "got ''"),
            ("--values", "30.7", "axis J takes integer values, got 30.7"),
            ("--values", "0", "n_samples, n_inputs, n_outputs must be >= 1, got 200, 0, 20"),
        ],
    )
    def test_empty_sweep_exits_2_without_csv(self, tmp_path, capsys, flag, value, message):
        args = ["bench", "--axis", "J", "--values", "30", "--out-dir", str(tmp_path), "--max-iters", "5"]
        assert main([*args, flag, value]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flags", [["--axis", "K", "--values", "0"],
                                       ["--n-outputs", "0", "--axis", "J", "--values", "30"]], ids=["K axis", "fixed K"])
    def test_no_outputs_exits_2_naming_the_value(self, tmp_path, capsys, flags):
        assert main(["bench", *flags, "--out-dir", str(tmp_path), "--max-iters", "5"]) == 2
        assert "the number of outputs K must be >= 1, got 0" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

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


class TestNonFiniteArguments:
    """A NaN, infinite, negative or empty numeric argument exits 2, names the value and writes nothing."""

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("data")
        run_simulate(path, seed=3)
        return path

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--lambda", "nan"], "got lam=nan, gamma=0.1"),
            (["--lambda", "inf"], "got lam=inf, gamma=0.1"),
            (["--gamma", "nan"], "got lam=0.1, gamma=nan"),
            (["--method", "lasso", "--gamma", "inf"], "got lam=0.1, gamma=inf"),
            (["--mu", "inf"], "mu must be positive and finite, got inf"),
            (["--mu", "nan", "--accuracy", "1e-3"], "mu must be positive and finite, got nan"),
            (["--accuracy", "inf"], "accuracy must be positive and finite, got inf"),
            (["--tol", "nan"], "rel_obj_tol must be positive and finite, got nan"),
            (["--accuracy", "5e-324"], "accuracy 5e-324 is too small: mu = accuracy / (2 D) underflows to 0.0"),
            (["--mu=-1", "--accuracy", "0.1"], "mu must be positive and finite, got -1.0"),
            (["--mu", "0", "--accuracy", "0.1"], "mu must be positive and finite, got 0.0"),
        ],
    )
    def test_fit(self, data_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        out.mkdir()
        code = main(["fit", "--method", "gflasso", "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(out), *FAST, *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--lambdas", ""], "the lambda grid"),
            (["--lambdas=-1"], "got -1.0"),
            (["--lambdas", "0.1,inf"], "got inf"),
            (["--gammas", ""], "the gamma grid when gflasso is selected"),
            (["--gammas", "nan"], "got nan"),
            (["--noise-sd", "nan"], "noise_sd must be finite and non-negative, got nan"),
        ],
    )
    def test_report(self, tmp_path, capsys, flags, message):
        assert main(["report", "--out-dir", str(tmp_path), *TINY_REPORT, *flags]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "method,flags,value",
        [
            ("lasso", ["--lambdas=-1,0.1"], "-1.0"),
            ("gflasso", ["--lambdas=-1", "--gammas", "0.1"], "-1.0"),
            ("gflasso", ["--lambdas", "nan", "--gammas", "0.1"], "nan"),
            ("gflasso", ["--lambdas", "0.1", "--gammas=-1"], "-1.0"),
        ],
    )
    def test_cv_grid(self, data_dir, tmp_path, capsys, method, flags, value):
        code = main(["cv", "--method", method, "--x", str(data_dir / "X.csv"), "--y", str(data_dir / "Y.csv"),
                     "--out-dir", str(tmp_path), *FAST, *flags])
        assert code == 2
        assert f"grid values must be finite and non-negative, got {value}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("method", ["proxgrad", "subgrad"])
    def test_bench(self, tmp_path, capsys, method):
        code = main(["bench", "--axis", "rho", "--values", "0.5", "--methods", method, "--lambda", "nan",
                     "--n-samples", "30", "--n-inputs", "15", "--n-outputs", "6", "--max-iters", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "got lam=nan, gamma=0.1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command,method,flags",
        [
            ("fit", "lasso", ["--rho", "nan"]),
            ("fit", "l1l2", ["--rho", "nan"]),
            ("fit", "fused", ["--rho", "nan"]),
            ("cv", "lasso", ["--rho", "nan"]),
            ("cv", "l1l2", ["--rho", "nan"]),
            ("cv", "lasso", ["--gammas", "nan"]),
            ("cv", "l1l2", ["--gammas", "0.1,nan"]),
        ],
    )
    def test_flag_the_method_ignores(self, data_dir, tmp_path, capsys, command, method, flags):
        y = str(data_dir / "Y.csv")
        if method == "fused":
            y = str(tmp_path / "y1.csv")
            write_matrix_csv(y, read_matrix_csv(data_dir / "Y.csv")[0][:, :1], ["y1"])
        out = tmp_path / "out"
        out.mkdir()
        grid = ["--lambdas", "0.1"] if command == "cv" else []
        code = main([command, "--method", method, "--x", str(data_dir / "X.csv"), "--y", y, "--out-dir", str(out),
                     *FAST, *grid, *flags])
        assert code == 2
        assert f"{flags[0]} must be finite, got nan" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_simulate(self, tmp_path, capsys):
        assert run_simulate(tmp_path, extra=["--signal", "inf"]) == 2
        assert "signal must be positive and finite, got inf" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_text_refuses_non_finite(self, value):
        with pytest.raises(ValueError):
            json_text({"x": [1.0, value]})


SMALL_SIM = ["--n-samples", "40", "--n-inputs", "12", "--n-outputs", "4", "--group-sizes", "2,2",
             "--inputs-per-group", "3,3"]


class TestManifestOutputs:
    """Each command's out-dir holds exactly the files its manifest lists, plus the manifest."""

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("data")
        run_simulate(path, seed=5, extra=SMALL_SIM)
        write_matrix_csv(path / "y1.csv", read_matrix_csv(path / "Y.csv")[0][:, :1], ["y1"])
        (path / "edges.csv").write_text("m,l,r\n1,2,0.5\n3,7,-0.25\n")
        return path

    @staticmethod
    def argv(data_dir, case):
        X, Y, y1 = (str(data_dir / name) for name in ("X.csv", "Y.csv", "y1.csv"))
        return {
            "simulate": ["simulate", *SMALL_SIM],
            "fit_gflasso": ["fit", "--method", "gflasso", "--x", X, "--y", Y, "--trace", *FAST],
            "fit_fused_input_graph": ["fit", "--method", "fused", "--x", X, "--y", y1, "--trace",
                                      "--input-graph", str(data_dir / "edges.csv"), *FAST],
            "cv": ["cv", "--method", "gflasso", "--x", X, "--y", Y, "--lambdas", "0.1,1", "--gammas", "0.5",
                   "--holdout", "10", *FAST],
            "bench": ["bench", "--axis", "rho", "--values", "0.5", "--n-samples", "30", "--n-inputs", "15",
                      "--n-outputs", "6", "--max-iters", "5"],
            "report": ["report", *TINY_REPORT],
        }[case]

    @pytest.mark.parametrize(
        "case,outputs",
        [
            ("simulate", ["B_true.csv", "X.csv", "Y.csv", "spec.json"]),
            ("fit_gflasso", ["B_hat.csv", "fit.json", "graph.csv", "trace.csv"]),
            ("fit_fused_input_graph", ["B_hat.csv", "fit.json", "trace.csv"]),
            ("cv", ["B_hat.csv", "cv.json"]),
            ("bench", ["bench.csv"]),
            ("report", ["report.json"]),
        ],
    )
    def test_directory_matches_manifest(self, data_dir, tmp_path, case, outputs):
        assert main([*self.argv(data_dir, case), "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == outputs
        assert set(os.listdir(tmp_path)) == set(manifest["outputs"]) | {"manifest.json"}

    @pytest.mark.parametrize("case", ["fit_gflasso", "fit_fused_input_graph", "cv", "bench"])
    def test_replay_from_manifest_args_is_byte_identical(self, data_dir, tmp_path, case):
        first, again = tmp_path / "first", tmp_path / "again"
        first.mkdir()
        again.mkdir()
        assert main([*self.argv(data_dir, case), "--out-dir", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert main(replay_argv(manifest, again)) == 0
        for name in [*manifest["outputs"], "manifest.json"]:
            a, b = read_bytes(first / name), read_bytes(again / name)
            if name == "bench.csv":  # total_s and periter_s, the last two columns, are wall times
                a, b = ([line.rsplit(b",", 2)[0] for line in text.splitlines()] for text in (a, b))
            assert a == b, name


SCHEMA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "schemas")


class TestSchemas:
    def test_stop_reason_enum_is_what_fits_produce(self):
        # the enum lists exactly the stops of a certified and of a capped fit, so a dead value fails here
        with open(os.path.join(SCHEMA_DIR, "fit.schema.json")) as fh:
            enum = json.load(fh)["properties"]["stop_reason"]["enum"]
        rng = np.random.default_rng(6)
        data = Moments.from_data(rng.standard_normal((20, 4)), rng.standard_normal((20, 2)))
        fits = [fit_lasso(data, PenaltySpec(lam=0.5), SolverConfig(max_iters=n)).solution for n in (50000, 1)]
        assert [(s.converged, s.stop_reason) for s in fits] == [(True, "gap"), (False, "iteration_cap")]
        assert sorted(enum) == sorted(s.stop_reason for s in fits)

    def test_artifacts_validate(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        referencing = pytest.importorskip("referencing")
        from referencing.jsonschema import DRAFT7

        schemas = {}
        for name in ("fit", "cv", "report"):
            with open(os.path.join(SCHEMA_DIR, f"{name}.schema.json")) as fh:
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


GRID = (0.001, 0.0027825594022071257, 0.007742636826811269, 0.021544346900318832, 0.059948425031894084,
        0.1668100537200059, 0.46415888336127775, 1.2915496650148828, 3.593813663804626, 10.0)
SIM_FLAGS = [
    ("--n-samples", 100, "int", None, False),
    ("--n-inputs", 30, "int", None, False),
    ("--n-outputs", 10, "int", None, False),
    ("--signal", 0.8, "float", None, False),
    ("--noise-sd", 1.0, "float", None, False),
    ("--seed", 0, "int", None, False),
    ("--group-sizes", (3, 3, 4), "_int_list", None, False),
    ("--inputs-per-group", (3, 4, 4), "_int_list", None, False),
]
# (option strings, default, type name, choices, required) per subcommand in declaration order, as at the
# last change to the flag set; the shared flag groups must add or drop nothing
FLAG_INVENTORY = {
    "simulate": [("--out-dir", None, None, None, True), *SIM_FLAGS],
    "fit": [
        ("--method", None, None, ("gflasso", "lasso", "l1l2", "fused"), True),
        ("--x", None, None, None, True),
        ("--y", None, None, None, True),
        ("--out-dir", None, None, None, True),
        ("--rho", 0.1, "float", None, False),
        ("--lambda", 0.1, "float", None, False),
        ("--gamma", 0.1, "float", None, False),
        ("--input-graph", None, None, None, False),
        ("--trace", False, None, None, False),
        ("--mu", 0.0001, "float", None, False),
        ("--accuracy", None, "float", None, False),
        ("--tol", 1e-06, "float", None, False),
        ("--max-iters", 50000, "int", None, False),
    ],
    "cv": [
        ("--method", None, None, ("gflasso", "lasso", "l1l2"), True),
        ("--x", None, None, None, True),
        ("--y", None, None, None, True),
        ("--out-dir", None, None, None, True),
        ("--rho", 0.1, "float", None, False),
        ("--lambdas", GRID, "_float_list", None, False),
        ("--gammas", GRID, "_float_list", None, False),
        ("--holdout", 30, "int", None, False),
        ("--mu", 0.0001, "float", None, False),
        ("--accuracy", None, "float", None, False),
        ("--tol", 1e-06, "float", None, False),
        ("--max-iters", 50000, "int", None, False),
    ],
    "bench": [
        ("--axis", None, None, ("J", "N", "K", "rho"), True),
        ("--values", None, "_float_list", None, True),
        ("--out-dir", None, None, None, True),
        ("--n-samples", 200, "int", None, False),
        ("--n-inputs", 100, "int", None, False),
        ("--n-outputs", 20, "int", None, False),
        ("--rho", 0.5, "float", None, False),
        ("--lambda", 0.1, "float", None, False),
        ("--gamma", 0.1, "float", None, False),
        ("--methods", "proxgrad", "_str_list", None, False),
        ("--seed", 0, "int", None, False),
        ("--mu", 0.0001, "float", None, False),
        ("--tol", 1e-06, "float", None, False),
        ("--max-iters", 2000, "int", None, False),
    ],
    "report": [
        ("--out-dir", None, None, None, True),
        *SIM_FLAGS,
        ("--rho", 0.1, "float", None, False),
        ("--methods", "gflasso,lasso,l1l2", "_str_list", None, False),
        ("--replicates", 10, "int", None, False),
        ("--test-n", 50, "int", None, False),
        ("--holdout", 30, "int", None, False),
        ("--lambdas", GRID, "_float_list", None, False),
        ("--gammas", GRID, "_float_list", None, False),
        ("--threads", None, "int", None, False),
        ("--mu", 0.0001, "float", None, False),
        ("--tol", 1e-06, "float", None, False),
        ("--max-iters", 50000, "int", None, False),
    ],
}


class TestFlagInventory:
    @staticmethod
    def subcommands():
        parser = build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_subcommand_keeps_its_flags(self):
        seen = {}
        for name, sub in self.subcommands().items():
            seen[name] = [
                ("/".join(a.option_strings), a.default, a.type and a.type.__name__, a.choices, a.required)
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
            ]
        assert seen == FLAG_INVENTORY

    def test_threads_stays_hidden(self):
        threads = [a for a in self.subcommands()["report"]._actions if "--threads" in a.option_strings]
        assert threads[0].help == argparse.SUPPRESS

    def test_every_default_is_immutable(self):
        # main parses every command with one parser, so a default one command mutated would leak into the next
        def immutable(value):
            if isinstance(value, tuple):
                return all(map(immutable, value))
            return value is None or isinstance(value, (bool, int, float, str))

        mutable = [
            (name, a.dest, a.default)
            for name, sub in self.subcommands().items()
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction) and not immutable(a.default)
        ]
        assert mutable == []


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

    def test_main_builds_the_parser_once(self, monkeypatch, tmp_path):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            assert run_simulate(tmp_path, seed=1) == 0
            assert main(["fit", "--method", "bogus", "--x", "a", "--y", "b", "--out-dir", "c"]) == 2
        finally:
            cli._parser.cache_clear()
        assert builds == [1]
