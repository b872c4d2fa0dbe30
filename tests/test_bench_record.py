"""scripts/bench_record.py: what it records about each side's checkout."""

import importlib.util
from pathlib import Path

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
