import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rankqp
from rankqp import kernel, svm
from rankqp.cli import build_parser, cli_run, dump_model
from rankqp.libsvm_io import Dataset, emit_libsvm

from conftest import wall_instance


@pytest.fixture
def two_point_data(tmp_path):
    path = tmp_path / "two_point.svm"
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    emit_libsvm(Dataset.from_dense(X, y), path)
    return str(path)


@pytest.fixture
def qp_instance_file(tmp_path):
    inst = {
        "c": [-1.0, -1.0],
        "A": [[1.0, -1.0]],
        "b": [0.0],
        "blocks": [{"lo": 0.0, "hi": 20.0}, {"lo": 0.0, "hi": 20.0}],
        "U": [[1.0], [1.0]],
        "V": [[1.0], [1.0]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    return str(path)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_unknown_flag_exits_64(capsys):
    assert cli_run(["solve-qp", "x.json", "--bogus"]) == 64
    assert cli_run(["frobnicate"]) == 64


@pytest.mark.parametrize("command, flag", [
    ("train-svm", ["--mode", "practical"]),
    ("train-svm", ["--backend", "auto"]),
    ("train-svm", ["--seed", "0"]),
    ("train-svm", ["--oracle"]),
    ("factor-kernel", ["--mode", "practical"]),
    ("factor-kernel", ["--seed", "0"]),
    ("predict", ["--seed", "0"]),
    ("solve-qp", ["--mode", "theory"]),
])
def test_removed_flag_exits_64(two_point_data, command, flag):
    # No abbreviation matching either: --mode would otherwise be read as
    # train-svm's --model-out.
    assert cli_run([command, two_point_data, *flag]) == 64


@pytest.mark.parametrize("variant", ["hard-margin", "csvc"])
def test_removed_variant_alias_exits_2(two_point_data, variant, capsys):
    assert cli_run(["train-svm", two_point_data, "--variant", variant]) == 2
    assert f"unknown variant {variant!r}" in capsys.readouterr().err


def _run_recording_reads(argv):
    """Run one command with a namespace that records every attribute the
    handler reads; returns (the parsed namespace, the names read)."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=Recording())
    reads.clear()  # only the handler's reads count
    assert args.func(args) == 0
    return args, reads


def test_every_flag_is_read(two_point_data, qp_instance_file, tmp_path):
    out = {name: str(tmp_path / name) for name in ("solve.json", "model.txt")}
    runs = [["solve-qp", qp_instance_file, "--report", out["solve.json"]],
            ["verify", out["solve.json"], qp_instance_file,
             "--report", str(tmp_path / "verify.json")],
            ["train-svm", two_point_data, "--model-out", out["model.txt"],
             "--report", str(tmp_path / "train.json")],
            ["predict", two_point_data, "--model", out["model.txt"],
             "--report", str(tmp_path / "predict.json")],
            ["factor-kernel", two_point_data, "--report", str(tmp_path / "factor.json")]]
    for argv in runs:
        args, reads = _run_recording_reads(argv)
        unread = set(vars(args)) - {"func", "command"} - reads
        assert not unread, f"{argv[0]} never reads {sorted(unread)}"


def test_oversized_sketch_exits_2(qp_instance_file, monkeypatch, capsys):
    # The augmented instance has n = 3 and 5 columns: an exact 3-row sketch
    # over 4 heap leaves needs 8 * 2 * 4 * 3 * 5 = 960 bytes.
    monkeypatch.setattr(kernel, "_FACTOR_BYTES_CAP", 512)
    assert cli_run(["solve-qp", qp_instance_file, "--backend", "lowrank"]) == 2
    assert "needs 960 bytes" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert cli_run(["solve-qp", str(tmp_path / "nope.json")]) == 2


def test_train_svm_two_point(two_point_data, tmp_path):
    report = tmp_path / "report.json"
    model = tmp_path / "model.txt"
    code = cli_run(["train-svm", two_point_data, "--variant", "hard",
                    "--kernel", "linear", "--epsilon", "1e-3",
                    "--report", str(report), "--model-out", str(model)])
    assert code == 0
    rep = _load(report)
    assert rep["schema"] == 3
    assert rep["objective"] == pytest.approx(0.5, abs=1e-3)
    assert rep["n_support"] == 2
    # Training draws nothing and has one solver path: no seed, no mode.
    assert not {"seed", "mode"} & _keys(rep)


def _keys(obj):
    """Every key of a JSON object and of the objects nested in it."""
    if isinstance(obj, dict):
        return set(obj).union(*(_keys(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_keys(v) for v in obj))
    return set()


@pytest.mark.parametrize("backend, seed_in_report", [("auto", False), ("lowrank", True)])
def test_solve_qp_reports_seed_only_for_lowrank(qp_instance_file, tmp_path, backend,
                                                 seed_in_report):
    report = tmp_path / "solve.json"
    assert cli_run(["solve-qp", qp_instance_file, "--backend", backend,
                    "--seed", "5", "--report", str(report)]) == 0
    rep = _load(report)
    assert rep["schema"] == 3
    assert "mode" not in _keys(rep)
    assert ("seed" in _keys(rep)) == seed_in_report
    if seed_in_report:
        assert rep["solve"]["seed"] == 5


def test_predict_round_trip(two_point_data, tmp_path):
    model = tmp_path / "model.txt"
    assert cli_run(["train-svm", two_point_data, "--variant", "hard",
                    "--model-out", str(model)]) == 0
    report = tmp_path / "pred.json"
    assert cli_run(["predict", two_point_data, "--model", str(model),
                    "--report", str(report)]) == 0
    rep = _load(report)
    assert rep["labels"] == [1.0, -1.0]
    assert rep["accuracy"] == 1.0


def test_solve_qp_and_verify(qp_instance_file, tmp_path):
    report = tmp_path / "solve.json"
    code = cli_run(["solve-qp", qp_instance_file, "--epsilon", "1e-4",
                    "--report", str(report), "--oracle"])
    assert code == 0
    rep = _load(report)
    assert abs(rep["oracle"]["gap_vs_oracle"]) <= rep["oracle"]["budget"]
    verify_out = tmp_path / "verify.json"
    code = cli_run(["verify", str(report), qp_instance_file,
                    "--report", str(verify_out)])
    assert code == 0
    ver = _load(verify_out)
    assert ver["match"] is True
    assert ver["max_relative_difference"] <= 1e-12


def test_factor_kernel_report(two_point_data, tmp_path):
    report = tmp_path / "factor.json"
    code = cli_run(["factor-kernel", two_point_data, "--epsilon", "1e-6",
                    "--report", str(report)])
    assert code == 0
    rep = _load(report)
    assert rep["certified_sup_error"] <= 0.5e-6
    assert rep["rank"] <= rep["rank_bound"]


def test_report_determinism(two_point_data, tmp_path):
    reports = []
    for run in range(2):
        path = tmp_path / f"rep{run}.json"
        assert cli_run(["train-svm", two_point_data, "--variant", "hard",
                        "--report", str(path)]) == 0
        rep = _load(path)
        rep.pop("timing")
        rep["solve"].pop("timing", None)
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_invalid_variant_exits_2(two_point_data):
    assert cli_run(["train-svm", two_point_data, "--variant", "nope"]) == 2


def test_verify_mismatch_exits_3(qp_instance_file, tmp_path):
    report = tmp_path / "solve.json"
    assert cli_run(["solve-qp", qp_instance_file, "--epsilon", "1e-4",
                    "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    data["kkt"]["objective"] += 1.0  # corrupt the stored measurement
    report.write_text(json.dumps(data))
    assert cli_run(["verify", str(report), qp_instance_file]) == 3


def test_solve_qp_wall_hit_exits_3(tmp_path, capsys):
    # An iterate on a box wall makes the Newton matrix non-finite: a solver
    # failure (exit 3), not a traceback.
    inst, eps = wall_instance(53)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "c": inst.c.tolist(), "A": inst.A.tolist(), "b": inst.b.tolist(),
        "blocks": [{"lo": a, "hi": b} for a, b in zip(inst.lo.tolist(), inst.hi.tolist())],
        "U": inst.U.tolist(), "V": inst.V.tolist()}))
    assert cli_run(["solve-qp", str(path), "--epsilon", repr(eps),
                    "--report", str(tmp_path / "out.json")]) == 3
    assert "not finite" in capsys.readouterr().err


def test_verify_report_without_solution_exits_2(two_point_data, qp_instance_file,
                                               tmp_path, capsys):
    train = tmp_path / "train.json"
    assert cli_run(["train-svm", two_point_data, "--report", str(train)]) == 0
    assert cli_run(["verify", str(train), qp_instance_file]) == 2
    assert "'solution'" in capsys.readouterr().err
    solve = tmp_path / "solve.json"
    assert cli_run(["solve-qp", qp_instance_file, "--report", str(solve)]) == 0
    data = json.loads(solve.read_text())
    del data["kkt"]
    solve.write_text(json.dumps(data))
    assert cli_run(["verify", str(solve), qp_instance_file]) == 2
    assert "'kkt'" in capsys.readouterr().err


def test_verify_report_not_an_object_exits_2(qp_instance_file, tmp_path, capsys):
    report = tmp_path / "list.json"
    report.write_text(json.dumps([1, 2, 3]))
    assert cli_run(["verify", str(report), qp_instance_file]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    report.write_text(json.dumps({"solution": [1.0, 2.0], "kkt": {}}))
    assert cli_run(["verify", str(report), qp_instance_file]) == 2
    assert "must be JSON objects" in capsys.readouterr().err


def test_verify_solution_of_wrong_length_exits_2(qp_instance_file, tmp_path, capsys):
    report = tmp_path / "solve.json"
    assert cli_run(["solve-qp", qp_instance_file, "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    data["solution"]["x"].append(1.0)
    report.write_text(json.dumps(data))
    assert cli_run(["verify", str(report), qp_instance_file]) == 2
    assert "solution x has shape (3,)" in capsys.readouterr().err


def test_hard_margin_zero_cap_exits_2(two_point_data, capsys):
    assert cli_run(["train-svm", two_point_data, "--variant", "hard",
                    "--radius-R", "0"]) == 2
    assert "box_cap must be positive" in capsys.readouterr().err


def test_rhs_without_rows_exits_2(qp_instance_file, capsys):
    data = json.loads(open(qp_instance_file).read())
    data.update(A=[], b=[5.0])
    with open(qp_instance_file, "w") as fh:
        json.dump(data, fh)
    assert cli_run(["solve-qp", qp_instance_file]) == 2
    assert "A has no rows" in capsys.readouterr().err


def test_infeasible_nu_exits_2(tmp_path):
    path = tmp_path / "unbalanced.svm"
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([1.0, 1.0, 1.0, -1.0])
    emit_libsvm(Dataset.from_dense(X, y), path)
    assert cli_run(["train-svm", str(path), "--variant", "nu-svc",
                    "--nu", "0.9"]) == 2


def test_non_finite_data_exits_2(tmp_path):
    path = tmp_path / "nan.svm"
    path.write_text("1 1:nan\n-1 1:1\n")
    assert cli_run(["train-svm", str(path)]) == 2


def test_cli_predict_matches_library(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 2))
    sign = np.where(X[:, 0] >= 0, 1.0, -1.0)
    X[:, 0] += 0.5 * sign
    specs = [svm.SvmSpec(X=X, y=sign, variant="hard"),
             svm.SvmSpec(X=X, y=sign, variant="c-svc", kernel="gaussian", C=2.0),
             svm.SvmSpec(X=X, y=X @ [0.5, -0.2], variant="eps-svr", C=5.0),
             svm.SvmSpec(X=X, variant="one-class", kernel="gaussian", nu=0.3)]
    Xq = rng.normal(size=(7, 2))
    data = tmp_path / "query.svm"
    emit_libsvm(Dataset.from_dense(Xq, np.ones(7)), data)
    for i, spec in enumerate(specs):
        mdl = svm.train(spec, eps_solve=1e-3)
        model = tmp_path / f"model{i}.txt"
        dump_model(mdl, model)
        report = tmp_path / f"pred{i}.json"
        assert cli_run(["predict", str(data), "--model", str(model),
                        "--report", str(report)]) == 0
        dec, labels = svm.predict(mdl, Xq)
        rep = _load(report)
        assert np.array_equal(rep["decision_values"], dec), spec.variant
        assert np.array_equal(rep["labels"], labels), spec.variant


@pytest.fixture
def gaussian_model(two_point_data, tmp_path):
    model = tmp_path / "model.txt"
    assert cli_run(["train-svm", two_point_data, "--kernel", "gaussian",
                    "--C", "5", "--model-out", str(model)]) == 0
    return model


def test_predict_feature_width(gaussian_model, tmp_path):
    wide = tmp_path / "wide.svm"
    wide.write_text("1 1:1 3:5\n")
    assert cli_run(["predict", str(wide), "--model", str(gaussian_model)]) == 2
    narrow = tmp_path / "narrow.svm"
    narrow.write_text("1 1:1\n-1 1:-1\n")  # trailing zero feature omitted
    report = tmp_path / "pred.json"
    assert cli_run(["predict", str(narrow), "--model", str(gaussian_model),
                    "--report", str(report)]) == 0
    assert _load(report)["labels"] == [1.0, -1.0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_predict_non_finite_query_exits_2(gaussian_model, tmp_path, capsys, value):
    data = tmp_path / "bad.svm"
    data.write_text(f"-1 1:0.5\n+1 1:{value}\n")
    assert cli_run(["predict", str(data), "--model", str(gaussian_model)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "train-svm", "factor-kernel"])
def test_huge_feature_index_exits_2(gaussian_model, tmp_path, capsys, command):
    # Index 10^12 would make a dense 1 x 10^12 matrix (7.28 TiB); it is
    # refused before anything that size is allocated.
    data = tmp_path / "huge.svm"
    data.write_text("+1 1:1 1000000000000:2\n")
    argv = [command, str(data)]
    if command == "predict":
        argv += ["--model", str(gaussian_model)]
    assert cli_run(argv) == 2
    assert "1000000000000" in capsys.readouterr().err


def test_cli_start_defers_scipy_linalg(gaussian_model, two_point_data):
    # scipy.linalg loads on first use: importing the CLI and running predict,
    # which solves nothing, never import it.
    code = ("import sys, rankqp.cli\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "rc = rankqp.cli.cli_run(['predict', sys.argv[1], '--model', sys.argv[2]])\n"
            "assert rc == 0 and 'scipy.linalg' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rankqp.__file__)))
    subprocess.run([sys.executable, "-c", code, two_point_data, str(gaussian_model)],
                   check=True, env=env, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("header", ["rankqp-svm-model 1", "garbage"])
def test_model_header_rejected(gaussian_model, two_point_data, header):
    lines = gaussian_model.read_text().splitlines()
    gaussian_model.write_text("\n".join([header] + lines[1:]) + "\n")
    assert cli_run(["predict", two_point_data, "--model", str(gaussian_model)]) == 2


def test_factor_kernel_non_finite_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.svm"
    path.write_text("1 1:nan\n-1 1:1\n")
    assert cli_run(["factor-kernel", str(path)]) == 2
    assert "X has non-finite entries" in capsys.readouterr().err


def test_non_numeric_bound_exits_2(qp_instance_file, capsys):
    with open(qp_instance_file) as fh:
        inst = json.load(fh)
    inst["blocks"][1]["hi"] = "1"
    with open(qp_instance_file, "w") as fh:
        json.dump(inst, fh)
    assert cli_run(["solve-qp", qp_instance_file]) == 2
    assert "block 1 bound hi" in capsys.readouterr().err


def test_infinite_box_bound_exits_2(qp_instance_file, capsys):
    with open(qp_instance_file) as fh:
        inst = json.load(fh)
    inst["blocks"][0]["hi"] = math.inf  # written as the JSON token Infinity
    with open(qp_instance_file, "w") as fh:
        json.dump(inst, fh)
    assert cli_run(["solve-qp", qp_instance_file]) == 2
    assert "box bound hi must be finite" in capsys.readouterr().err
