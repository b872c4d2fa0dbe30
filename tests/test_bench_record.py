"""scripts/bench_record.py: what it records about each side's checkout and
about the pairs."""

import importlib.util
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
