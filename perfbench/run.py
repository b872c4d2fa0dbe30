"""Benchmark of manifold-recon's fit pipeline, end to end and per layer.

    python3 perfbench/run.py --workload tradeoff-s19 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (setup_s, run_s, fit_s_p50, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of ``layers.py`` instead, taken
from the traced pass of median wall time.
A run times five set-ups, each in a child process with its own imports
(setup_s is the median), sets up once more for itself, then repeats
passes over the workload while the next one is expected to end within
``--seconds`` (at least one pass), then checks the first pass's outputs.
``--quick`` shrinks every workload and runs one pass, for the tests.
Result files go to ``perfbench/results/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("tradeoff-s19", "rates-circle", "kflats-s2", "small-fits")


def prepare():
    """Import the package from the checkout's ``src/`` and pin BLAS to one
    thread. Returns False, with a message, when there is no package."""
    if not (SRC / "manifold_recon" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/manifold_recon; run from the root "
              "of a manifold-recon checkout", file=sys.stderr)
        return False
    # set before numpy loads: the harness thread pool is the only
    # parallelism the benchmark measures
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def time_setup(name, seed, workdir, quick):
    """Import numpy and the package, set the workload up in ``workdir`` and
    return the seconds taken. Called in a fresh process (``--setup-in``),
    so that every sample of setup_s pays for its own imports."""
    t = time.perf_counter()
    import workloads
    workloads.WORKLOADS[name].setup(seed, workdir, quick)
    return time.perf_counter() - t


def sample_setup(name, seed, workdir, quick):
    """One set-up timed by ``time_setup`` in a child interpreter running
    this script with ``--setup-in``. ``subprocess.run`` waits for the
    child to end (and kills it first on a timeout), so no process
    outlives the call."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--setup-in", str(workdir)]
    try:
        proc = subprocess.run(argv + (["--quick"] if quick else []),
                              capture_output=True, text=True, timeout=60,
                              check=True)
        return float(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmark(name, seed, seconds, trace, quick=False, log=print):
    """Run one workload; returns the result object the last line prints."""
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    setup_times = [sample_setup(name, seed, workdir.with_name(f"{workdir.name}-s{i}"),
                                quick)
                   for i in range(1 if quick else SETUP_REPEATS)]

    import checks
    import layers
    import workloads

    wl = workloads.WORKLOADS[name]
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        state = wl.setup(seed, workdir, quick)

        tracer = layers.Tracer() if trace else None
        passes, pass_s, layer_passes = [], [], []
        start = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            while True:
                t = time.perf_counter()
                res = wl.run_pass(state)
                dt = time.perf_counter() - t
                if tracer:
                    layer_passes.append(tracer.take_pass(dt))
                if passes:
                    res.data = {}
                passes.append(res)
                pass_s.append(dt)
                elapsed = time.perf_counter() - start
                if quick or elapsed + statistics.median(pass_s) > seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = passes[0]
        found = wl.check(state, first)
        found.append(checks.repeatable([p.fingerprint() for p in passes]))
        if tracer:
            found.append(checks.counts_repeat(
                [{k: v for k, v in lp.items() if not k.endswith("_s")}
                 for lp in layer_passes]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fit_seconds = [s for p in passes for s in p.fit_seconds]
    if trace:
        # every per-layer value from one pass, the one of median traced wall
        # time, so that its self times add up to its trace.run_s
        walls = [lp["trace.run_s"] for lp in layer_passes]
        median_pass = layer_passes[walls.index(statistics.median_low(walls))]
        metrics = {key: {"value": median_pass[key], "unit": unit}
                   for key, unit in layers.metric_names()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(pass_s), "unit": "s"},
            "fit_s_p50": {"value": statistics.median(fit_seconds) if fit_seconds
                          else float("nan"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    p = wl.QUICK if quick else wl.FULL
    log(f"workload {name} seed={seed}{' quick' if quick else ''}: {wl.makeup(p)}")
    log(f"setup: {len(setup_times)} x in fresh processes, "
        + ", ".join(f"{s:.3f}" for s in setup_times) + " s")
    log(f"passes: {len(pass_s)}, " + ", ".join(f"{s:.3f}" for s in pass_s)
        + f" s; fits per pass {len(first.fit_seconds)}")
    for c in found:
        log(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    for line in getattr(wl, "info", lambda r: [])(first):
        log(line)
    log(f"fingerprint {name} seed={seed} {first.fingerprint()}")

    result = {
        "correct": all(c.ok for c in found),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(bool(trace))}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(dict(result, pass_s=pass_s, setup_s=setup_times,
                       fit_seconds=fit_seconds, fingerprint=first.fingerprint(),
                       checks=[c.__dict__ for c in found]), fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-in", type=Path,
                    help="only time one set-up in this directory and print "
                         "its seconds (the child of sample_setup)")
    args = ap.parse_args(argv)
    if not prepare():
        return 2
    if args.setup_in:
        print(time_setup(args.workload, args.seed, args.setup_in, args.quick))
        return 0
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), quick=args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
