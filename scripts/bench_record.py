"""Build a BENCH_*.json record from paired ``perfbench/run.py`` results.

    python3 scripts/bench_record.py --parent-rev REV \\
        --parent parent/perfbench/results/*.json \\
        --change change/perfbench/results/*.json > BENCH_10.json

Each result file is one run, named by ``run.py`` as
``<workload>-seed<seed>-trace<0|1>.json``. A run of the parent and a run of
the change on the same workload and seed form a pair. For every workload
the record holds, side by side, each metric's median and quartiles over the
paired runs, how many pairs the change won on it with the exact two-sided
sign-test p-value of those wins (ties dropped), the parent's
interquartile distance with whether the two medians lie further apart than
it, the failed share of operations, the seeds and, per pair, whether the two
runs printed the same fingerprint (the hash of the workload's fit objectives
and hold-out errors), which shows the workloads whose numbers a change moved. ``--trace 1`` runs give
the per-layer metrics the same way. The parent is named by the commit ``--parent-rev`` and its
``src/`` tree sha, the change by the sha of the ``src/`` tree staged in
git (``HEAD:src`` once it is committed). The numpy and
OpenBLAS versions, ``nproc`` and ``cpus`` (the CPUs of this process's
affinity mask, over which a large fit forks its restarts) are this
interpreter's and machine's, so run the script where the runs ran. BLAS runs on one thread in every run
(``run.py`` pins it); the harness threads (the number of worker processes
the harness forks for the grid) are read from each workload's make-up in
``perfbench/workloads.py``. For each side the record also says whether its
checkout (three levels above each result file) holds ``__pycache__`` under
``src/`` or ``perfbench/``: a side without them compiles the package in
every timed set-up, which moves ``setup_s`` by about 15 %.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def load(paths):
    """{(workload, trace): {seed: result}} from run.py result files. A file
    with one set-up time is a ``--quick`` run (the perfbench tests write
    them under full-run names); full runs time five."""
    runs = {}
    for path in paths:
        m = NAME.search(Path(path).name)
        if not m:
            sys.exit(f"error: {path} is not named <workload>-seed<n>-trace<t>.json")
        with open(path) as fh:
            result = json.load(fh)
        if len(result["setup_s"]) == 1:
            sys.exit(f"error: {path} holds one set-up time, so it is a --quick run")
        runs.setdefault((m["workload"], int(m["trace"])), {})[int(m["seed"])] = result
    return runs


def spread(values):
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value of `wins` against `losses`: the
    chance that a fair coin splits wins + losses pairs at least this
    unevenly."""
    tail = sum(math.comb(wins + losses, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** (wins + losses))


def compare(parent, change, seeds):
    """Per-metric medians and quartiles of both sides over the paired seeds,
    the pairs the change won (strictly lower, since every metric is
    lower-is-better), the sign-test p-value of its wins against its losses,
    tied pairs dropped, and the spread rule: the parent's interquartile
    distance and whether the medians lie further apart than that."""
    out = {}
    for name, metric in parent[seeds[0]]["metrics"].items():
        p = [parent[s]["metrics"][name]["value"] for s in seeds]
        c = [change[s]["metrics"][name]["value"] for s in seeds]
        wins = sum(b < a for a, b in zip(p, c))
        ps, cs = spread(p), spread(c)
        iqr = ps["q3"] - ps["q1"]
        out[name] = {"unit": metric["unit"], "parent": ps, "change": cs,
                     "change_wins": wins,
                     "sign_test_p": sign_test_p(wins, sum(b > a for a, b in zip(p, c))),
                     "parent_iqr": iqr,
                     "median_gap_exceeds_iqr": abs(cs["median"] - ps["median"]) > iqr}
    return out


def same_fingerprints(parent, change, seeds):
    """Per paired seed, whether the change's run printed the parent's
    fingerprint: False marks a workload whose numbers the change moved."""
    return [parent[s]["fingerprint"] == change[s]["fingerprint"] for s in seeds]


def failed_share(runs, seeds):
    failed = sum(runs[s]["failed"] for s in seeds)
    attempted = sum(runs[s]["attempted"] for s in seeds)
    return {"failed": failed, "attempted": attempted}


def bytecode_caches(paths):
    """Whether the checkouts that wrote these result files, found at
    ``<root>/perfbench/results/``, hold ``__pycache__`` under each of
    ``src/`` and ``perfbench/``."""
    roots = {Path(p).resolve().parents[2] for p in paths}
    return {top: any(next((root / top).rglob("__pycache__"), None) is not None
                     for root in roots)
            for top in ("src", "perfbench")}


def harness_threads():
    """Harness `threads` per workload, from its full-size make-up line;
    None where the workload runs no harness grid."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    found = {}
    for name, wl in workloads.WORKLOADS.items():
        m = re.search(r"harness threads=(\d+)", wl.makeup(wl.FULL))
        found[name] = int(m[1]) if m else None
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--parent", nargs="+", required=True, metavar="JSON")
    ap.add_argument("--change", nargs="+", required=True, metavar="JSON")
    args = ap.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    threads = harness_threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds 27 --trace T",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "parent": {"commit": git("rev-parse", f"{args.parent_rev}^{{commit}}"),
                   "src_tree": git("rev-parse", f"{args.parent_rev}:src"),
                   "bytecode_caches": bytecode_caches(args.parent)},
        "change": {"src_tree": git("write-tree", "--prefix=src/"),
                   "bytecode_caches": bytecode_caches(args.change)},
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "cpus": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "end_to_end": {},
        "per_layer": {},
    }
    for (workload, trace), runs in sorted(parent.items()):
        seeds = sorted(set(runs) & set(change.get((workload, trace), {})))
        if not seeds:
            continue
        other = change[(workload, trace)]
        entry = {"pairs": len(seeds), "seeds": seeds,
                 "same_fingerprint": same_fingerprints(runs, other, seeds),
                 "harness_threads": threads[workload],
                 "metrics": compare(runs, other, seeds)}
        if not trace:
            entry["operations"] = {"parent": failed_share(runs, seeds),
                                   "change": failed_share(other, seeds)}
        record["per_layer" if trace else "end_to_end"][workload] = entry
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
