"""Print each workload's fingerprint anew and compare it with the one
recorded in ``fingerprints.json``, to show whether a change moved the
workload's numbers bit for bit.

    python3 perfbench/fingerprint.py

A fingerprint hashes the fit objectives and hold-out errors of one pass of
a workload (full size) at the recorded seed. Exits 1 when any of them moved.
"""

import json
import shutil
import sys

import run


def main():
    if not run.prepare():
        return 2
    import workloads

    with open(run.HERE / "fingerprints.json") as fh:
        recorded = json.load(fh)
    seed = recorded["seed"]
    moved = False
    for name in run.WORKLOAD_NAMES:
        workdir = run.WORK / f"fingerprint-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            wl = workloads.WORKLOADS[name]
            fp = wl.run_pass(wl.setup(seed, workdir, False)).fingerprint()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ref = recorded["fingerprints"][name]
        moved |= fp != ref
        print(f"{name} seed={seed} {fp}"
              + ("  same" if fp == ref else f"  MOVED (recorded {ref})"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
