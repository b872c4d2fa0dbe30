"""The four benchmark workloads.

Each workload draws its inputs from the seed in ``setup``, runs one pass of
operations through the package's public entry points in ``run_pass`` (the
timed part), and checks the first pass's outputs in ``check``. Every pass
of a run repeats the same operations on the same inputs, so its outputs and
its fingerprint repeat bit for bit.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from manifold_recon import cli, harness, kflats, kmeans, oracle, storage
from manifold_recon.geometry import Dataset, ManifoldSpec
from manifold_recon.kmeans import FitConfig
from manifold_recon.util import mix_seed

import checks

S19 = ManifoldSpec(kind="sphere", intrinsic_dim=19, ambient_dim=20)
S2 = ManifoldSpec(kind="sphere", intrinsic_dim=2, ambient_dim=3)
CIRCLE = ManifoldSpec(kind="circle", intrinsic_dim=1, ambient_dim=2)
DISK = ManifoldSpec(kind="disk", intrinsic_dim=2, ambient_dim=5)


@dataclass
class PassResult:
    """What one pass did: operations attempted and failed, the wall time
    of each fit, the numbers the fingerprint hashes, and the outputs the
    checks read."""

    attempted: int = 0
    failed: int = 0
    fit_seconds: list = field(default_factory=list)
    values: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def attempt(self, count, fn, *args, **kwargs):
        """Run one operation that stands for ``count`` fits or comparisons;
        an exception counts them all as failed and returns None."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += count
            return None

    def fingerprint(self):
        h = hashlib.sha256()
        for v in self.values:
            h.update(float(v).hex().encode())
            h.update(b";")
        return h.hexdigest()[:16]


def _rows_values(rows):
    return [v for r in rows for v in (r["empirical"], r["holdout"])]


class TradeoffS19:
    """k-means hold-out tradeoff grid on S^19 in R^20 through the harness
    thread pool: assignment at large k*D dominates."""

    name = "tradeoff-s19"
    # restarts=2 keeps a pass near 5 s, so a run has four or more passes and
    # its median pass time shrugs off one slowed by other load on the host
    FULL = dict(n=2000, ks=list(range(2, 41)), holdout=20_000, restarts=2,
                threads=2, refits=3)
    QUICK = dict(n=200, ks=[2, 3, 4, 5], holdout=1000, restarts=2,
                 threads=2, refits=2)

    def setup(self, seed, workdir, quick):
        p = self.QUICK if quick else self.FULL
        spec = harness.ExperimentSpec(
            manifold=S19, train_sizes=[p["n"]], k_grid=p["ks"],
            holdout_size=p["holdout"], algorithm="kmeans", repeats=1,
            base_seed=seed, fit_config=FitConfig(restarts=p["restarts"]),
            threads=p["threads"])
        harness.tradeoff_experiment(replace(
            spec, train_sizes=[100], k_grid=[2, 3], holdout_size=1000,
            fit_config=FitConfig(restarts=1)))
        return dict(p=p, spec=spec, seed=seed)

    def run_pass(self, state):
        res = PassResult()
        spec = state["spec"]
        report = res.attempt(len(spec.k_grid), harness.tradeoff_experiment, spec)
        if report is not None:
            res.fit_seconds = [r["seconds"] for r in report.rows]
            res.values = _rows_values(report.rows)
            res.data["report"] = report
        return res

    def check(self, state, res):
        report = res.data.get("report")
        if report is None:
            return []
        p, spec, seed = state["p"], state["spec"], state["seed"]
        n = p["n"]
        out = [checks.no_descent_violations(report.descent_violations),
               checks.curve_non_increasing(report.curve(n))]
        # re-fit a few cells from their cell seeds: both ends of the grid
        # and one cell drawn from the seed
        ks = p["ks"]
        middle = ks[1:-1] or ks
        picked = sorted({ks[0], ks[-1],
                         middle[int(np.random.default_rng(seed).integers(len(middle)))]})
        picked = picked[:p["refits"]]
        holdout = S19.sample(p["holdout"], mix_seed(seed, harness.HOLDOUT_TAG)).points
        rows = {r["k"]: r for r in report.rows}
        for k in picked:
            cell_seed = mix_seed(seed, n, k, 0)
            train = S19.sample(n, mix_seed(cell_seed, harness.TRAIN_TAG))
            model = kmeans.fit(train, k, spec.fit_config, seed=cell_seed)
            out.append(checks.refit_objective(k, rows[k]["empirical"], model.objective))
            out.append(checks.centres_are_cell_means(k, train.points, model.centers))
            d2, _ = checks.kmeans_sqdist(holdout, model.centers)
            out.append(checks.holdout_matches(f"holdout-k{k}", rows[k]["holdout"],
                                              checks.mean_exact(d2)))
        return out

    def makeup(self, p):
        return (f"S^19 in R^20, n={p['n']}, k={p['ks'][0]}..{p['ks'][-1]} "
                f"({len(p['ks'])} cells, 1 repeat), restarts={p['restarts']}, "
                f"hold-out {p['holdout']}, harness threads={p['threads']}")


class RatesCircle:
    """Balanced-schedule rate fits on the circle, k-means and k-flats:
    large n, tiny k*D, per-pass cost on long arrays."""

    name = "rates-circle"
    # max_iters=10: Lloyd's pass count on the circle ranges from 9 to 200
    # across seeds (its rotational symmetry leaves the objective nearly flat),
    # which would set the run-to-run spread; with the cap, restarts at
    # n >= 10^4 nearly always run exactly 10 passes. Three of the four sizes
    # are >= 10^4, so the median fit is one of these capped fits.
    FULL = dict(sizes=[100, 10_000, 30_000, 100_000], holdout=100_000,
                restarts=10, max_iters=10)
    QUICK = dict(sizes=[100, 300, 1000, 10_000], holdout=5000,
                 restarts=2, max_iters=10)

    def setup(self, seed, workdir, quick):
        p = self.QUICK if quick else self.FULL
        km = harness.ExperimentSpec(
            manifold=CIRCLE, train_sizes=p["sizes"], k_grid="auto",
            holdout_size=p["holdout"], algorithm="kmeans", repeats=1,
            base_seed=seed,
            fit_config=FitConfig(max_iters=p["max_iters"], restarts=p["restarts"]))
        kf = replace(km, algorithm="kflats", flat_dim=1)
        for spec in (km, kf):
            harness.rate_experiment(replace(
                spec, train_sizes=[100, 200, 1000, 10_000], holdout_size=1000,
                fit_config=FitConfig(max_iters=2, restarts=1)))
        return dict(p=p, specs=(km, kf))

    def run_pass(self, state):
        res = PassResult()
        reports = []
        for spec, schedule in zip(state["specs"], ("kmeans", "kflats")):
            rep = res.attempt(len(spec.train_sizes) * spec.repeats,
                              harness.rate_experiment, spec, schedule=schedule)
            reports.append(rep)
            if rep is not None:
                res.fit_seconds += [r["seconds"] for r in rep.rows]
                res.values += _rows_values(rep.rows) + [rep.rate_fit.slope]
        res.data["reports"] = reports
        return res

    def check(self, state, res):
        km, kf = res.data["reports"]
        if km is None or kf is None:
            return []
        m = state["p"]["holdout"]
        return [checks.no_descent_violations(km.descent_violations + kf.descent_violations),
                checks.circle_not_below_optimum(km.rows, m),
                checks.circle_largest_n(km.rows, kf.rows, m),
                checks.slopes(km.rate_fit.slope, kf.rate_fit.slope)]

    def makeup(self, p):
        return (f"circle in R^2, n={p['sizes']}, balanced k (k-means and "
                f"k-flats d=1 schedules), 1 repeat, restarts={p['restarts']}, "
                f"max_iters={p['max_iters']}, hold-out {p['holdout']}, "
                "harness threads=1")


class KflatsS2:
    """A CLI user's path: fit-kflats and fit-kmeans on .mrc1 files on S^2,
    the model JSON read back and scored on a hold-out, and flat-disk k=1
    fits.

    Four training files at 10 restarts each, not one or two at the CLI's
    default 20, average the Lloyd pass count over more data sets: for one
    file it varies by up to 17 % from seed to seed. There are as many disk
    fits (fast) as k-flats fits (slow), so the median fit lies in the middle
    of the k-means fits, not at the edge of a group."""

    name = "kflats-s2"
    FULL = dict(trains=4, n=2000, k=20, d=2, restarts=10, holdout=20_000,
                disk_n=500)
    QUICK = dict(trains=2, n=300, k=5, d=2, restarts=3, holdout=2000,
                 disk_n=100)

    def setup(self, seed, workdir, quick):
        p = self.QUICK if quick else self.FULL
        trains = [workdir / f"train{i}.mrc1" for i in range(p["trains"])]
        for i, path in enumerate(trains):
            storage.write_dataset(path, S2.sample(p["n"], mix_seed(seed, 1, i)))
        disks = [workdir / f"disk{i}.mrc1" for i in range(p["trains"])]
        for i, path in enumerate(disks):
            storage.write_dataset(path, DISK.sample(p["disk_n"], mix_seed(seed, 3, i)))
        warm = workdir / "warm.mrc1"
        storage.write_dataset(warm, S2.sample(100, mix_seed(seed, 4)))
        holdout = S2.sample(p["holdout"], mix_seed(seed, 2))
        state = dict(p=p, trains=trains, disks=disks, holdout=holdout, seed=seed,
                     workdir=workdir)
        self._cli(state, ["fit-kflats", "--data", warm, "--k", 2, "--d", 2,
                          "--restarts", 1], "warm")
        return state

    @staticmethod
    def _cli(state, argv, out):
        argv = [str(a) for a in argv] + ["--seed", str(state["seed"]),
                                         "--out", str(state["workdir"] / out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run_pass(self, state):
        res = PassResult()
        p = state["p"]
        calls = []
        for i, path in enumerate(state["trains"]):
            calls.append((f"kflats{i}", ["fit-kflats", "--data", path, "--k", p["k"],
                                         "--d", p["d"], "--restarts", p["restarts"]]))
            calls.append((f"kmeans{i}", ["fit-kmeans", "--data", path, "--k", p["k"],
                                         "--restarts", p["restarts"]]))
        for i, path in enumerate(state["disks"]):
            calls.append((f"disk{i}", ["fit-kflats", "--data", path, "--k", 1,
                                       "--d", 2, "--restarts", p["restarts"]]))
        codes = []
        for out, argv in calls:
            t = time.perf_counter()
            code = res.attempt(1, self._cli, state, argv, out)
            res.fit_seconds.append(time.perf_counter() - t)
            codes.append(code)
            if code not in (None, 0):
                res.failed += 1
        res.data["codes"] = codes
        if any(c != 0 for c in codes):
            return res
        objs, models, errs = {}, {}, {}
        for out, _ in calls:
            fname = "kmeans_model.json" if out.startswith("kmeans") else "kflats_model.json"
            with open(state["workdir"] / out / fname) as fh:
                objs[out] = json.load(fh)
            res.values.append(objs[out]["objective"])
            if not out.startswith("disk"):
                cls = kmeans.MeansModel if out.startswith("kmeans") else kflats.FlatsModel
                models[out] = cls.from_json_dict(objs[out])
                errs[out] = harness.holdout_error(models[out], state["holdout"])
                res.values.append(errs[out])
        res.data.update(objs=objs, models=models, errs=errs)
        return res

    def check(self, state, res):
        out = [checks.cli_exit_codes(res.data["codes"])]
        if "objs" not in res.data:
            return out
        objs, models, errs = res.data["objs"], res.data["models"], res.data["errs"]
        H = state["holdout"].points
        for i in range(state["p"]["trains"]):
            kf, km = models[f"kflats{i}"], models[f"kmeans{i}"]
            e_kf, e_km = errs[f"kflats{i}"], errs[f"kmeans{i}"]
            out += [
                checks.json_round_trip(f"kflats{i}", objs[f"kflats{i}"], kflats.FlatsModel),
                checks.json_round_trip(f"kmeans{i}", objs[f"kmeans{i}"], kmeans.MeansModel),
                checks.bases_orthonormal([(f.basis, f.degenerate) for f in kf.flats]),
                checks.holdout_matches(
                    f"holdout-kflats{i}", e_kf,
                    checks.mean_exact(checks.kflats_sqdist(
                        H, [(f.offset, f.basis) for f in kf.flats]))),
                checks.holdout_matches(
                    f"holdout-kmeans{i}", e_km,
                    checks.mean_exact(checks.kmeans_sqdist(H, km.centers)[0])),
                checks.kflats_beats_kmeans(e_kf, e_km),
            ]
        out.append(checks.flat_disk_exact(
            max(objs[f"disk{i}"]["objective"] for i in range(state["p"]["trains"]))))
        return out

    def makeup(self, p):
        return (f"S^2 in R^3, {p['trains']} .mrc1 files of n={p['n']}, CLI "
                f"fit-kflats k={p['k']} d={p['d']} and fit-kmeans k={p['k']} on "
                f"each, restarts={p['restarts']}, hold-out {p['holdout']}; "
                f"{p['trains']} flat disks d=2 in R^5, n={p['disk_n']}, k=1")


class SmallFits:
    """Many small fits, where the fixed cost of a call dominates: tiny
    instances against the brute-force oracles, k-flats on S^2 at n=200,
    and the S^19 grid at n=50.

    A tiny k-flats fit that misses the brute-force optimum counts as a
    failed operation: kflats.fit reaches it on only 13 of the 20 here.
    Those instances are drawn from ``KFLATS_TINY_SEED``, not from
    the run's seed, so every run fails on the same ones and the failed share
    is the same in every run; a fix to kflats.fit shows as fewer failures."""

    name = "small-fits"
    KFLATS_TINY_SEED = 11
    # Two repeats of the grid (78 cells) outnumber the 60 k-means oracle
    # fits, which take a few ms each, so the median fit lies inside the
    # grid and k-flats fits, whose times spread evenly, not in the gap
    # between the two groups.
    FULL = dict(kmeans_instances=60, kflats_instances=20, s2_fits=10,
                s2_n=200, s2_k=5, grid_n=50, grid_ks=list(range(2, 41)),
                grid_repeats=2, grid_holdout=1000, enumerate_every=4)
    QUICK = dict(kmeans_instances=8, kflats_instances=4, s2_fits=2,
                 s2_n=100, s2_k=3, grid_n=50, grid_ks=[2, 3, 4],
                 grid_repeats=1, grid_holdout=1000, enumerate_every=2)

    def setup(self, seed, workdir, quick):
        p = self.QUICK if quick else self.FULL
        rng = np.random.default_rng(mix_seed(seed, 11))
        km_inst, kf_inst = [], []
        for _ in range(p["kmeans_instances"]):
            n, k = int(rng.integers(4, 9)), int(rng.integers(1, 4))
            km_inst.append((Dataset(rng.uniform(-0.5, 0.5, size=(n, 2))), k,
                            int(rng.integers(0, 2 ** 31))))
        kf_rng = np.random.default_rng(self.KFLATS_TINY_SEED)
        for _ in range(p["kflats_instances"]):
            n = int(kf_rng.integers(5, 9))
            kf_inst.append((Dataset(kf_rng.uniform(-0.5, 0.5, size=(n, 3))), 2,
                            int(kf_rng.integers(0, 2 ** 31))))
        s2 = [S2.sample(p["s2_n"], mix_seed(seed, 12, i)) for i in range(p["s2_fits"])]
        grid = harness.ExperimentSpec(
            manifold=S19, train_sizes=[p["grid_n"]], k_grid=p["grid_ks"],
            holdout_size=p["grid_holdout"], algorithm="kmeans",
            repeats=p["grid_repeats"], base_seed=seed, threads=1)
        state = dict(p=p, km=km_inst, kf=kf_inst, s2=s2, grid=grid)
        # warm-up: one call of every kind
        ds, k, s = km_inst[0]
        kmeans.fit(ds, k, seed=s)
        oracle.global_kmeans(ds, k)
        ds, k, s = kf_inst[0]
        kflats.fit(ds, k, 1, seed=s)
        oracle.global_kflats(ds, k, 1)
        kflats.fit(s2[0], 2, 2, FitConfig(restarts=1))
        harness.tradeoff_experiment(replace(grid, k_grid=[2], fit_config=FitConfig(restarts=1)))
        return state

    def run_pass(self, state):
        res = PassResult()
        p = state["p"]
        traces = []

        def compare(fit, global_opt, ds, shape, s):
            t = time.perf_counter()
            model = fit(ds, *shape, seed=s, trace_sink=traces)
            res.fit_seconds.append(time.perf_counter() - t)
            opt, _ = global_opt(ds, *shape)
            return model.objective, opt

        km_pairs = [res.attempt(1, compare, kmeans.fit, oracle.global_kmeans, ds, (k,), s)
                    for ds, k, s in state["km"]]
        kf_pairs = [res.attempt(1, compare, kflats.fit, oracle.global_kflats, ds, (k, 1), s)
                    for ds, k, s in state["kf"]]
        res.failed += sum(not checks.at_optimum(*pair) for pair in kf_pairs
                          if pair is not None)

        def s2_fit(ds, i):
            t = time.perf_counter()
            model = kflats.fit(ds, p["s2_k"], 2, seed=i, trace_sink=traces)
            res.fit_seconds.append(time.perf_counter() - t)
            return model

        s2_models = [res.attempt(1, s2_fit, ds, i) for i, ds in enumerate(state["s2"])]
        grid = res.attempt(len(p["grid_ks"]) * p["grid_repeats"],
                           harness.tradeoff_experiment, state["grid"])

        for pair in km_pairs + kf_pairs:
            res.values += list(pair) if pair is not None else []
        res.values += [m.objective for m in s2_models if m is not None]
        if grid is not None:
            res.fit_seconds += [r["seconds"] for r in grid.rows]
            res.values += _rows_values(grid.rows)
        res.data.update(km_pairs=km_pairs, kf_pairs=kf_pairs, traces=traces,
                        s2_models=s2_models, grid=grid)
        return res

    def check(self, state, res):
        d, p = res.data, state["p"]
        km_pairs = [x for x in d["km_pairs"] if x is not None]
        kf_pairs = [x for x in d["kf_pairs"] if x is not None]
        sample = [(ds.points, k, 0, pair[1]) for i, ((ds, k, _), pair)
                  in enumerate(zip(state["km"], d["km_pairs"]))
                  if pair is not None and i % p["enumerate_every"] == 0]
        sample += [(ds.points, k, 1, pair[1]) for i, ((ds, k, _), pair)
                   in enumerate(zip(state["kf"], d["kf_pairs"]))
                   if pair is not None and i % p["enumerate_every"] == 0]
        violations = sum(m.descent_violations for m in d["s2_models"] if m is not None)
        if d["grid"] is not None:
            violations += d["grid"].descent_violations
        return [checks.not_below_optimum(km_pairs + kf_pairs),
                checks.optimum_confirmed(sample),
                checks.optimum_hit_rate(km_pairs),
                checks.traces_non_increasing(d["traces"]),
                checks.no_descent_violations(violations)]

    def info(self, res):
        pairs = [x for x in res.data["km_pairs"] + res.data["kf_pairs"] if x is not None]
        hits = sum(checks.at_optimum(*pair) for pair in pairs)
        return [f"tiny fits at the optimum: {hits} of {len(pairs)} "
                f"({hits / max(len(pairs), 1):.1%}; at least 95% is the aim); "
                "each k-flats miss is a failed operation"]

    def makeup(self, p):
        return (f"{p['kmeans_instances']} k-means instances n=4..8 k=1..3 in R^2 "
                f"and {p['kflats_instances']} k-flats instances n=5..8 k=2 d=1 "
                f"in R^3 (drawn from seed {self.KFLATS_TINY_SEED}) against the "
                f"oracle (restarts=20); {p['s2_fits']} k-flats "
                f"fits on S^2 n={p['s2_n']} k={p['s2_k']} d=2; S^19 grid n="
                f"{p['grid_n']} k={p['grid_ks'][0]}..{p['grid_ks'][-1]} x{p['grid_repeats']}, hold-out "
                f"{p['grid_holdout']}, restarts=20, harness threads=1")


WORKLOADS = {w.name: w for w in (TradeoffS19(), RatesCircle(), KflatsS2(), SmallFits())}
