"""scripts/bench_record.py: what it records about each side's checkout and
about the pairs."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def test_bytecode_caches_found_per_top_directory(tmp_path):
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    (tmp_path / "src" / "manifold_recon" / "__pycache__").mkdir(parents=True)
    paths = [results / "rates-circle-seed1-trace0.json"]
    assert bench_record.bytecode_caches(paths) == {"src": True, "perfbench": False}
    (tmp_path / "perfbench" / "__pycache__").mkdir()
    assert bench_record.bytecode_caches(paths) == {"src": True, "perfbench": True}


def test_bytecode_caches_absent_in_a_clean_checkout(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench" / "results").mkdir(parents=True)
    paths = [tmp_path / "perfbench" / "results" / "small-fits-seed2-trace0.json"]
    assert bench_record.bytecode_caches(paths) == {"src": False, "perfbench": False}


def _runs(values):
    return {seed: {"metrics": {"run_s": {"unit": "s", "value": v}}}
            for seed, v in enumerate(values)}


@pytest.mark.parametrize("change, wins, p", [
    ([1.0] * 10, 10, 2 / 1024),
    ([1.0] * 5 + [3.0] * 5, 5, 1.0),
    ([1.0] * 9 + [2.0], 9, 2 / 512),  # the tied pair is dropped
])
def test_sign_test_p_over_the_pairs(change, wins, p):
    metric = bench_record.compare(_runs([2.0] * 10), _runs(change), list(range(10)))["run_s"]
    assert metric["change_wins"] == wins
    assert metric["sign_test_p"] == p


@pytest.mark.parametrize("change, exceeds", [
    ([1.0] * 10, False),  # the median moved by 2.0, no more than the spread
    ([0.5] * 10, True),   # by 2.5, a gain beyond it
    ([5.5] * 10, True),   # by 2.5, a loss beyond it
])
def test_median_gap_against_the_parents_spread(change, exceeds):
    # the parent's median is 3.0 between quartiles 2.0 and 4.0
    parent = [0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0]
    metric = bench_record.compare(_runs(parent), _runs(change), list(range(10)))["run_s"]
    assert metric["parent_iqr"] == 2.0
    assert metric["median_gap_exceeds_iqr"] is exceeds


def test_quick_results_are_refused(tmp_path):
    full = tmp_path / "kflats-s2-seed1-trace0.json"
    full.write_text(json.dumps({"setup_s": [0.2] * 5, "metrics": {}}))
    assert list(bench_record.load([full])) == [("kflats-s2", 0)]
    quick = tmp_path / "kflats-s2-seed3-trace1.json"
    quick.write_text(json.dumps({"setup_s": [0.2], "metrics": {}}))
    message = f"^error: {re.escape(str(quick))} holds one set-up time"
    with pytest.raises(SystemExit, match=message):
        bench_record.load([full, quick])


def test_fingerprint_match_recorded_per_pair():
    parent = {1: {"fingerprint": "aa"}, 2: {"fingerprint": "bb"}, 3: {"fingerprint": "cc"}}
    change = {1: {"fingerprint": "aa"}, 2: {"fingerprint": "b0"}, 3: {"fingerprint": "cc"}}
    assert bench_record.same_fingerprints(parent, change, [1, 2, 3]) == [True, False, True]
    assert bench_record.same_fingerprints(parent, change, [3, 1]) == [True, True]


def test_record_names_the_cpus_of_the_affinity_mask(tmp_path, monkeypatch, capsys):
    # fit times depend on the CPUs a fit may fork its restarts over, which
    # `taskset` can set below nproc
    result = {"setup_s": [0.2] * 5, "fingerprint": "aa", "failed": 0, "attempted": 1,
              "metrics": {"run_s": {"unit": "s", "value": 1.0}}}
    paths = {}
    for side in ("parent", "change"):
        paths[side] = tmp_path / side / "small-fits-seed1-trace0.json"
        paths[side].parent.mkdir()
        paths[side].write_text(json.dumps(result))
    monkeypatch.setattr(bench_record, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_record.os, "sched_getaffinity", lambda pid: {1},
                        raising=False)
    assert bench_record.main(["--parent-rev", "HEAD", "--parent", str(paths["parent"]),
                              "--change", str(paths["change"])]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cpus"] == 1
    assert record["nproc"] == bench_record.os.cpu_count()
    assert record["end_to_end"]["small-fits"]["pairs"] == 1
