"""Command-line interface: artifacts, exit codes, config merging."""

import json

import numpy as np
import pytest

from manifold_recon import cli, storage
from manifold_recon.kmeans import MeansModel


def run(*argv):
    return cli.main(list(argv))


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
    assert (out / "curve_n40.tsv").exists()
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
    assert (out / "curve_n60.tsv").exists()


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


def test_config_missing_file_is_data_error(tmp_path):
    assert run("--config", str(tmp_path / "none.json"), "sample",
               "--kind", "circle", "--d", "1", "--D", "2", "--n", "5",
               "--out", str(tmp_path)) == cli.EXIT_DATA


def test_import_mnist(tmp_path):
    import struct
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
