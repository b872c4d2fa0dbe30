"""Command-line interface: artifacts, exit codes, config merging."""

import argparse
import json
import os
import struct

import numpy as np
import pytest

from manifold_recon import cli, harness, storage
from manifold_recon.geometry import ManifoldSpec
from manifold_recon.kmeans import MeansModel


def run(*argv):
    return cli.main(list(argv))


# the subcommands, as the parser knows them
COMMANDS = list(next(a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices)


def test_no_command_is_usage_error(capsys):
    assert run() == cli.EXIT_USAGE
    assert run("frobnicate") == cli.EXIT_USAGE


def test_sample_writes_container(tmp_path):
    out = tmp_path / "o"
    assert run("sample", "--kind", "sphere", "--d", "2", "--D", "3",
               "--n", "50", "--seed", "3", "--out", str(out)) == 0
    ds = storage.read_dataset(out / "dataset.mrc1")
    assert ds.points.shape == (50, 3)
    assert np.max(np.abs(np.linalg.norm(ds.points, axis=1) - 1.0)) < 1e-12


def test_sample_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("sample", "--kind", "circle", "--d", "1", "--D", "2",
                   "--n", "20", "--seed", "9", "--out", str(out)) == 0
    assert (a / "dataset.mrc1").read_bytes() == (b / "dataset.mrc1").read_bytes()


def test_fit_kmeans_end_to_end(tmp_path):
    out = tmp_path / "o"
    assert run("sample", "--kind", "circle", "--d", "1", "--D", "2",
               "--n", "100", "--out", str(out)) == 0
    assert run("fit-kmeans", "--data", str(out / "dataset.mrc1"),
               "--k", "4", "--out", str(out)) == 0
    model = MeansModel.from_json_dict(
        json.loads((out / "kmeans_model.json").read_text()))
    assert model.k == 4 and model.ambient_dim == 2
    assert model.objective < 0.2  # 4 centers on the circle


def test_fit_kflats_on_csv(tmp_path):
    csv_path = tmp_path / "line.csv"
    t = np.linspace(-0.5, 0.5, 30)
    csv_path.write_text("".join(f"{x},{2 * x}\n" for x in t))
    out = tmp_path / "o"
    assert run("fit-kflats", "--data", str(csv_path), "--k", "1", "--d", "1",
               "--out", str(out)) == 0
    obj = json.loads((out / "kflats_model.json").read_text())["objective"]
    assert obj < 1e-12


def test_missing_data_file_is_data_error(tmp_path):
    assert run("fit-kmeans", "--data", str(tmp_path / "nope.mrc1"),
               "--k", "2", "--out", str(tmp_path)) == cli.EXIT_DATA


def test_bad_k_is_compute_error(tmp_path):
    out = tmp_path / "o"
    assert run("sample", "--kind", "circle", "--d", "1", "--D", "2",
               "--n", "5", "--out", str(out)) == 0
    assert run("fit-kmeans", "--data", str(out / "dataset.mrc1"),
               "--k", "10", "--out", str(out)) == cli.EXIT_COMPUTE


def _mrc1(n, D, values, extra=b""):
    return (storage.MAGIC + struct.pack("<II", n, D)
            + np.asarray(values, dtype="<f8").tobytes() + extra)


BAD_FILES = {
    "empty.mrc1": _mrc1(0, 2, []),
    "nan.mrc1": _mrc1(2, 2, [0.0, 1.0, float("nan"), 0.5]),
    "trailing.mrc1": _mrc1(2, 2, [0.0, 1.0, 0.5, 0.5], extra=b"\0"),
    "empty.csv": b"",
    "nan.csv": b"0.1,0.2\nnan,0.3\n",
    "huge.csv": b"1e200,0\n-1e200,0\n",
}


@pytest.mark.parametrize("name", BAD_FILES)
def test_bad_input_file_is_data_error(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(BAD_FILES[name])
    assert run("fit-kmeans", "--data", str(path), "--k", "1",
               "--out", str(tmp_path / "o")) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and name in err
    assert "Warning" not in err


@pytest.mark.parametrize("command", ["tradeoff", "rates"])
def test_empty_train_sizes_is_usage_error(tmp_path, capsys, command):
    assert run(command, "--train-sizes", ",", "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "argument --train-sizes:" in capsys.readouterr().err


def test_empty_k_range_is_usage_error(tmp_path, capsys):
    assert run("tradeoff", "--k-grid", "5:2", "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "empty k grid" in capsys.readouterr().err


def test_config_empty_k_range_is_usage_error(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"k_grid": "5:2"}))
    assert run("--config", str(conf), "tradeoff",
               "--out", str(tmp_path)) == cli.EXIT_USAGE


def test_bounds_report(tmp_path):
    out = tmp_path / "o"
    assert run("bounds", "--preset", "sphere", "--d", "2", "--n", "2000",
               "--k", "8", "--out", str(out)) == 0
    rep = json.loads((out / "bound_report.json").read_text())
    assert rep["family"] == "kmeans"
    assert abs(rep["total"] - (2 * rep["statistical"] + rep["approximation"])) < 1e-12
    assert rep["inputs"]["n"] == 2000
    from manifold_recon import bounds
    assert rep["statistical"] == bounds.stat_kmeans(2000, 8, 0.05)
    # the presets are ManifoldSpec's uniform-density values
    for preset, D in (("sphere", 3), ("disk", 2)):
        assert run("bounds", "--preset", preset, "--d", "2", "--n", "2000",
                   "--k", "8", "--out", str(out)) == 0
        rep = json.loads((out / "bound_report.json").read_text())
        spec = ManifoldSpec(preset, 2, D)
        want = bounds.decompose(0.0, 0.0, bounds.BoundInputs(
            n=2000, k=8, d=2, delta=0.05,
            density_norm=spec.effective_density_norm(),
            curvature=spec.effective_curvature())).to_json_dict()
        for key in ("statistical", "approximation", "k_n", "inputs"):
            assert rep[key] == want[key]


def test_bounds_preset_rejects_zero_density_norm(tmp_path):
    assert run("bounds", "--preset", "sphere", "--d", "2", "--n", "100",
               "--k", "2", "--density-norm", "0",
               "--out", str(tmp_path)) == cli.EXIT_COMPUTE


def test_bounds_bad_delta_is_compute_error(tmp_path):
    assert run("bounds", "--preset", "sphere", "--d", "2", "--n", "100",
               "--k", "2", "--delta", "1.5",
               "--out", str(tmp_path)) == cli.EXIT_COMPUTE


def test_example1_artifact(tmp_path):
    out = tmp_path / "o"
    assert run("example1", "--seed", "7", "--holdout-size", "2000",
               "--out", str(out)) == 0
    payload = json.loads((out / "example1.json").read_text())
    assert payload["seed"] == 7
    assert payload["single_mean_wins"] is True
    assert payload["e_k1"] == 1.4553039238250938


def test_tradeoff_artifacts(tmp_path):
    out = tmp_path / "o"
    assert run("tradeoff", "--kind", "circle", "--d", "1", "--D", "2",
               "--train-sizes", "40", "--k-grid", "1:3", "--repeats", "2",
               "--holdout-size", "1000", "--restarts", "3",
               "--out", str(out)) == 0
    assert (out / "report.csv").exists()
    assert (out / "curves.tsv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["rows"]) == 6
    assert summary["descent_violations"] == 0
    assert len(summary["bound_rows"]) == 3


def test_select_k_artifact(tmp_path):
    out = tmp_path / "o"
    assert run("select-k", "--kind", "circle", "--d", "1", "--D", "2",
               "--n", "60", "--k-grid", "1,3,50", "--repeats", "2",
               "--holdout-size", "1000", "--restarts", "3",
               "--out", str(out)) == 0
    payload = json.loads((out / "selected_k.json").read_text())
    # on a circle even k=50 centers generalize, so the largest k wins
    assert payload["k_star"] == 50
    assert payload["k_grid"] == [1, 3, 50]
    assert payload["descent_violations"] == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["rows"]) == 6
    assert [b["inputs"]["k"] for b in summary["bound_rows"]] == [1, 3, 50]
    assert (out / "report.csv").exists()
    assert (out / "curves.tsv").exists()


def test_select_k_auto_lists_the_k_it_ran(tmp_path):
    out = tmp_path / "o"
    assert run("select-k", "--kind", "circle", "--d", "1", "--D", "2",
               "--n", "60", "--k-grid", "auto", "--repeats", "1",
               "--holdout-size", "1000", "--restarts", "2",
               "--out", str(out)) == 0
    payload = json.loads((out / "selected_k.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert payload["k_grid"] == [summary["rows"][0]["k"]]
    assert payload["k_star"] == summary["rows"][0]["k"]


def test_rates_artifacts(tmp_path):
    out = tmp_path / "o"
    assert run("rates", "--train-sizes", "50,200,1000,5000", "--repeats", "1",
               "--holdout-size", "1000", "--restarts", "3",
               "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["rows"]) == 4
    assert summary["rate_fit"]["slope"] < 0.0
    assert [b["inputs"]["n"] for b in summary["bound_rows"]] == [50, 200, 1000, 5000]
    assert len((out / "loglog.tsv").read_text().splitlines()) == 4


def test_oracle_check_artifact(tmp_path):
    out = tmp_path / "o"
    assert run("oracle-check", "--n", "6", "--k", "2", "--trials", "10",
               "--out", str(out)) == 0
    payload = json.loads((out / "oracle_check.json").read_text())
    assert payload["trials"] == 10
    assert payload["matches"] >= 9
    assert payload["mean_ratio"] >= 1.0 - 1e-12


def test_config_merges_under_flags(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 25, "seed": 4, "kind": "circle",
                                "d": 1, "D": 2}))
    out = tmp_path / "o"
    # --n on the command line wins; kind/d/D/seed come from the config
    assert run("--config", str(conf), "sample", "--kind", "sphere",
               "--d", "2", "--D", "3", "--n", "30", "--out", str(out)) == 0
    ds = storage.read_dataset(out / "dataset.mrc1")
    assert ds.points.shape == (30, 3)


def test_config_unknown_key_is_usage_error(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"banana": 1}))
    assert run("--config", str(conf), "sample", "--kind", "circle",
               "--d", "1", "--D", "2", "--n", "5",
               "--out", str(tmp_path)) == cli.EXIT_USAGE


def test_config_invalid_json_is_usage_error(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text("{not json")
    assert run("--config", str(conf), "sample", "--kind", "circle",
               "--d", "1", "--D", "2", "--n", "5",
               "--out", str(tmp_path)) == cli.EXIT_USAGE


def test_config_not_utf8_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_bytes(b'{"n": "\xff"}')
    assert run("--config", str(conf), "sample", "--kind", "circle",
               "--d", "1", "--D", "2", "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "not valid JSON" in capsys.readouterr().err


def test_config_missing_file_is_data_error(tmp_path):
    assert run("--config", str(tmp_path / "none.json"), "sample",
               "--kind", "circle", "--d", "1", "--D", "2", "--n", "5",
               "--out", str(tmp_path)) == cli.EXIT_DATA


SAMPLE = ["sample", "--kind", "circle", "--d", "1", "--D", "2", "--n", "20"]
FIT = ["fit-kmeans", "--data", "{data}", "--k", "3"]
TRADEOFF = ["tradeoff", "--kind", "circle", "--d", "1", "--D", "2",
            "--k-grid", "1:2", "--repeats", "1", "--holdout-size", "1000",
            "--restarts", "2"]

# config, the command run under it, the same run with flags only, and
# the artifact that must come out identical
CONFIG_RUNS = {
    "supplies-required-flag": ({"k": 3}, FIT[:-2], FIT, "kmeans_model.json"),
    "string-is-typed": ({"restarts": "3"}, FIT, FIT + ["--restarts", "3"],
                        "kmeans_model.json"),
    "list-fills-comma-flag": ({"train_sizes": [40, 80]}, TRADEOFF,
                              TRADEOFF + ["--train-sizes", "40,80"], "summary.json"),
    "comma-string": ({"train_sizes": "40,80"}, TRADEOFF,
                     TRADEOFF + ["--train-sizes", "40,80"], "summary.json"),
    "abbreviated-flag-wins": ({"holdout_size": 2000}, ["example1", "--holdout", "1000"],
                              ["example1", "--holdout-size", "1000"], "example1.json"),
    "dashed-key": ({"max-iters": 5}, FIT, FIT + ["--max-iters", "5"],
                   "kmeans_model.json"),
}


def _artifact(path):
    payload = json.loads(path.read_text())
    for row in payload.get("rows", []):
        row.pop("seconds")  # wall time, the one field that may differ
    return payload


@pytest.mark.parametrize("case", CONFIG_RUNS)
def test_config_equals_flags(tmp_path, case):
    conf_values, argv, flags, artifact = CONFIG_RUNS[case]
    data = tmp_path / "data"
    assert run(*SAMPLE, "--n", "60", "--out", str(data)) == 0
    fill = {"{data}": str(data / "dataset.mrc1")}
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(conf_values))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("--config", str(conf), *[fill.get(x, x) for x in argv],
               "--out", str(a)) == 0
    assert run(*[fill.get(x, x) for x in flags], "--out", str(b)) == 0
    assert _artifact(a / artifact) == _artifact(b / artifact)


CONFIG_USAGE_ERRORS = {
    "untyped-value": ({"n": "abc"}, SAMPLE[:-2], "argument --n:"),
    "null-value": ({"n": None}, SAMPLE[:-2], "argument --n:"),
    "bad-choice": ({"kind": "torus"}, SAMPLE, "argument --kind:"),
    "empty-list": ({"train_sizes": []}, TRADEOFF, "argument --train-sizes:"),
    "flag-of-another-command": ({"threads": 2}, SAMPLE, "--threads=2"),
}


@pytest.mark.parametrize("case", CONFIG_USAGE_ERRORS)
def test_config_value_is_checked_by_its_flag(tmp_path, capsys, case):
    conf_values, argv, flag = CONFIG_USAGE_ERRORS[case]
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(conf_values))
    assert run("--config", str(conf), *argv,
               "--out", str(tmp_path / "o")) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_config_named_like_a_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so that the config's path is the bare name
    (tmp_path / "tradeoff").write_text(json.dumps({"train_sizes": [40]}))
    assert run("--config", "tradeoff", *TRADEOFF, "--out", "a") == 0
    assert run(*TRADEOFF, "--train-sizes", "40", "--out", "b") == 0
    assert (_artifact(tmp_path / "a" / "summary.json")
            == _artifact(tmp_path / "b" / "summary.json"))


def test_config_after_the_command_is_usage_error(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 5}))
    assert run(*SAMPLE, "--config", str(conf),
               "--out", str(tmp_path)) == cli.EXIT_USAGE


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_zero(tmp_path, capsys, command):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": 1}))
    argv = [] if command is None else [command]
    assert run(*argv, "-h") == 0
    assert run("--config", str(conf), *argv, "-h") == 0
    assert "usage:" in capsys.readouterr().out


def test_import_mnist(tmp_path):
    imgs = np.zeros((4, 28, 28), dtype=np.uint8)
    imgs[:, 0, 0] = 200
    idx = tmp_path / "images.idx3-ubyte"
    idx.write_bytes(struct.pack(">iiii", 2051, 4, 28, 28) + imgs.tobytes())
    out = tmp_path / "o"
    assert run("import-mnist", "--images", str(idx), "--limit", "2",
               "--out", str(out)) == 0
    ds = storage.read_dataset(out / "dataset.mrc1")
    assert ds.points.shape == (2, 784)
    assert run("import-mnist", "--images", str(tmp_path / "absent"),
               "--out", str(out)) == cli.EXIT_DATA
    idx.write_bytes(struct.pack(">iiii", 2051, 0, 28, 28))
    assert run("import-mnist", "--images", str(idx),
               "--out", str(out)) == cli.EXIT_DATA


TREND = ["--train-sizes", "50,200,1000,5000", "--repeats", "1",
         "--holdout-size", "1000", "--restarts", "2"]
SELECT_K = ["select-k", "--kind", "circle", "--d", "1", "--D", "2",
            "--n", "30", "--k-grid", "1,2", *TREND[2:]]


@pytest.mark.parametrize("argv", [
    ["bounds", "--d", "2", "--n", "100", "--k", "4", "--density-norm", "nan"],
    ["bounds", "--d", "2", "--n", "100", "--k", "4", "--density-norm", "inf"],
    ["bounds", "--d", "2", "--n", "100", "--k", "4", "--curvature", "inf"],
    ["bounds", "--d", "2", "--n", "100", "--k", "4", "--c-d", "nan"],
    ["bounds", "--preset", "sphere", "--d", "2", "--n", "100", "--k", "4",
     "--curvature", "nan"],
    ["fit-kmeans", "--data", "{data}", "--k", "2", "--rel-tol", "nan"],
    ["fit-kflats", "--data", "{data}", "--k", "2", "--d", "-1"],
    ["fit-kflats", "--data", "{data}", "--k", "2", "--d", "4"],
    ["oracle-check", "--trials", "0"],
    TRADEOFF + ["--threads", "0"],
    ["rates", *TREND, "--threads", "0"],
    [*SELECT_K, "--threads", "0"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_non_finite_or_count_below_one_is_compute_error(tmp_path, capsys, argv):
    data = tmp_path / "data"  # in R^3, so flat dims -1 and 4 are out of range
    assert run("sample", "--kind", "sphere", "--d", "2", "--D", "3", "--n", "20",
               "--out", str(data)) == 0
    out = tmp_path / "o"
    argv = [str(data / "dataset.mrc1") if a == "{data}" else a for a in argv]
    assert run(*argv, "--out", str(out)) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err.startswith("compute error:")
    assert list(out.iterdir()) == []


def test_dead_worker_is_compute_error(tmp_path, capsys, monkeypatch):
    # forked workers inherit the patch, so each dies in its first cell
    monkeypatch.setattr(harness, "_run_cell", lambda *cell: os._exit(7))
    assert run(*TRADEOFF, "--threads", "2", "--out", str(tmp_path)) == cli.EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("compute error: a worker process exited with code 7 ")
    assert err.count("\n") == 1 and "Traceback" not in err
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["sample", "fit-kmeans", "tradeoff"])
@pytest.mark.parametrize("where", ["file", "under-file", "unwritable"])
def test_unusable_out_is_data_error_before_the_work(tmp_path, capsys, monkeypatch,
                                                    command, where):
    data = tmp_path / "data"
    assert run(*SAMPLE, "--out", str(data)) == 0
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = {"file": blocker, "under-file": blocker / "o", "unwritable": tmp_path}[where]
    if where == "unwritable":  # a superuser writes anywhere: fake a refusal
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)

    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli.ManifoldSpec, "sample", never)
    monkeypatch.setattr(cli.kmeans, "fit", never)
    monkeypatch.setattr(cli.harness, "tradeoff_experiment", never)
    argv = {"sample": SAMPLE, "tradeoff": TRADEOFF,
            "fit-kmeans": [str(data / "dataset.mrc1") if a == "{data}" else a
                           for a in FIT]}[command]
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


CURVES = ["curves.tsv", "report.csv", "summary.json"]

# each command with small inputs, and the files it leaves in --out
COMMAND_FILES = {
    "sample": (SAMPLE, ["dataset.mrc1"]),
    "import-mnist": (["import-mnist", "--images", "{idx}"], ["dataset.mrc1"]),
    "fit-kmeans": (FIT, ["kmeans_model.json"]),
    "fit-kflats": (["fit-kflats", "--data", "{data}", "--k", "2", "--d", "1"],
                   ["kflats_model.json"]),
    "bounds": (["bounds", "--preset", "sphere", "--d", "2", "--n", "100", "--k", "4"],
               ["bound_report.json"]),
    "example1": (["example1", "--holdout-size", "1000"], ["example1.json"]),
    "tradeoff": (TRADEOFF + ["--train-sizes", "40"], CURVES),
    "rates": (["rates", *TREND], CURVES + ["loglog.tsv"]),
    "select-k": (SELECT_K, CURVES + ["selected_k.json"]),
    "oracle-check": (["oracle-check", "--n", "6", "--trials", "3"], ["oracle_check.json"]),
}


def test_command_files_cover_every_command():
    assert sorted(COMMAND_FILES) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_status_line_and_out_files(tmp_path, capsys, command):
    argv, files = COMMAND_FILES[command]
    inputs = tmp_path / "in"
    assert run(*SAMPLE, "--out", str(inputs)) == 0
    (inputs / "images.idx").write_bytes(struct.pack(">iiii", 2051, 2, 28, 28)
                                        + bytes(2 * 28 * 28))
    fill = {"{data}": str(inputs / "dataset.mrc1"), "{idx}": str(inputs / "images.idx")}
    out = tmp_path / "o"
    capsys.readouterr()
    assert run(*[fill.get(a, a) for a in argv], "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{command}: ") and lines[0].endswith(f" -> {out}")
    assert sorted(p.name for p in out.iterdir()) == sorted(files)


def test_rerun_into_the_same_out_leaves_no_stale_curves(tmp_path):
    out = tmp_path / "o"
    for n in ("40", "80"):
        assert run(*TRADEOFF, "--train-sizes", n, "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(CURVES)
    lines = (out / "curves.tsv").read_text().splitlines()
    assert lines and all(line.startswith("80\t") for line in lines)
