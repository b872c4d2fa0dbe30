"""Command-line entry point.

Thin adapter over the library: every result is byte-identical to calling
the corresponding function with the same parameters and seed. Randomized
commands default to seed 0, never wall-clock seeding. Exit codes: 0 ok,
2 usage, 3 data/file, 4 computation.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds, harness, kflats, kmeans, oracle, storage
from .errors import DataFormatError, ParameterError
from .geometry import Dataset, ManifoldSpec, load_mnist
from .kmeans import FitConfig
from .util import mix_seed

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4
_FIT = FitConfig()  # the fit flags' defaults


class UsageError(Exception):
    pass


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _k_grid(text: str):
    if text == "auto":
        return "auto"
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return _int_list(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="manifold-recon",
        description="Piecewise-constant / piecewise-linear manifold "
                    "reconstruction: fits, bounds, and experiments.")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    sub = p.add_subparsers(dest="command", metavar="command")

    def cmd(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=1)
        return sp

    def experiment(name, help, kind, d, D, repeats):
        sp = cmd(name, help=help)
        sp.add_argument("--kind", choices=["sphere", "circle", "disk"], default=kind)
        sp.add_argument("--d", type=int, default=d)
        sp.add_argument("--D", type=int, default=D)
        sp.add_argument("--repeats", type=int, default=repeats)
        sp.add_argument("--holdout-size", type=int, default=100_000)
        sp.add_argument("--restarts", type=int, default=_FIT.restarts)
        return sp

    sp = cmd("sample", help="draw a synthetic dataset and write the container")
    sp.add_argument("--kind", choices=["sphere", "circle", "disk"], required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--D", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = cmd("import-mnist", help="convert an IDX3 image file to the container")
    sp.add_argument("--images", required=True)
    sp.add_argument("--limit", type=int, default=None)

    for name in ("fit-kmeans", "fit-kflats"):
        sp = cmd(name, help=f"{name.split('-')[1]} fit on a dataset file")
        sp.add_argument("--data", required=True, help=".mrc1 container or .csv")
        sp.add_argument("--k", type=int, required=True)
        if name == "fit-kflats":
            sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--restarts", type=int, default=_FIT.restarts)
        sp.add_argument("--max-iters", type=int, default=_FIT.max_iters)
        sp.add_argument("--rel-tol", type=float, default=_FIT.rel_tol)

    sp = cmd("bounds", help="closed-form bound decomposition for one (n, k)")
    sp.add_argument("--family", choices=["kmeans", "kflats"], default="kmeans")
    sp.add_argument("--preset", choices=["sphere", "disk"], default=None,
                    help="fill density_norm/curvature for a uniform manifold")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--density-norm", type=float, default=None)
    sp.add_argument("--curvature", type=float, default=None)
    sp.add_argument("--c-d", type=float, default=None)
    sp.add_argument("--empirical", type=float, default=0.0)
    sp.add_argument("--holdout", type=float, default=0.0)

    sp = cmd("example1", help="two-sample 100-sphere tradeoff example")
    sp.add_argument("--holdout-size", type=int, default=100_000)

    sp = experiment("tradeoff", "hold-out error curves over a (n, k) grid",
                    "sphere", 19, 20, 5)
    sp.add_argument("--algorithm", choices=list(harness.ALGORITHMS), default="kmeans")
    sp.add_argument("--train-sizes", type=_int_list, default=[50, 200, 1000, 5000])
    sp.add_argument("--k-grid", type=_k_grid, default=list(range(2, 41)),
                    help="comma list, lo:hi range, or 'auto'")

    sp = experiment("rates", "log-log convergence-rate fit along the balanced-k schedule",
                    "circle", 1, 2, 3)
    sp.add_argument("--schedule", choices=["kmeans", "kflats"], default="kmeans")
    sp.add_argument("--train-sizes", type=_int_list, default=[100, 1000, 10000, 100000])

    sp = experiment("select-k", "hold-out model selection of k", "sphere", 2, 3, 5)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k-grid", type=_k_grid, required=True)

    sp = cmd("oracle-check", help="best-of-restarts fit vs brute-force optimum")
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--restarts", type=int, default=_FIT.restarts)
    return p


def _apply_config(parser, argv, args):
    """Merge a JSON config under the explicit flags (flags win)."""
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except FileNotFoundError as exc:
        raise DataFormatError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError("config must be a JSON object")
    known = set(vars(args))
    for key, value in conf.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise UsageError(f"unknown config key: {key!r}")
        explicit = any(
            a == f"--{key}" or a.startswith(f"--{key}=") or
            a == f"--{dest}" or a.startswith(f"--{dest}=")
            for a in argv)
        if not explicit:
            if dest == "k_grid" and isinstance(value, str):
                value = _k_grid(value)
            setattr(args, dest, value)
    return args


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def _manifold(args) -> ManifoldSpec:
    return ManifoldSpec(kind=args.kind, intrinsic_dim=args.d, ambient_dim=args.D)


def _fit_config(args) -> FitConfig:
    return FitConfig(max_iters=getattr(args, "max_iters", _FIT.max_iters),
                     rel_tol=getattr(args, "rel_tol", _FIT.rel_tol),
                     restarts=args.restarts)


def _cmd_sample(args):
    ds = _manifold(args).sample(args.n, args.seed)
    out = _outdir(args)
    path = out / "dataset.mrc1"
    storage.write_dataset(path, ds)
    print(f"sample: wrote {ds.size} x {ds.ambient_dim} points to {path}")


def _cmd_import_mnist(args):
    ds = load_mnist(args.images, limit=args.limit)
    out = _outdir(args)
    path = out / "dataset.mrc1"
    storage.write_dataset(path, ds)
    print(f"import-mnist: wrote {ds.size} x {ds.ambient_dim} points to {path}")


def _cmd_fit_kmeans(args):
    data = storage.load_any(args.data)
    model = kmeans.fit(data, args.k, _fit_config(args), seed=args.seed)
    out = _outdir(args)
    path = out / "kmeans_model.json"
    _write_json(path, model.to_json_dict())
    print(f"fit-kmeans: k={args.k} objective={model.objective!r} -> {path}")


def _cmd_fit_kflats(args):
    data = storage.load_any(args.data)
    model = kflats.fit(data, args.k, args.d, _fit_config(args), seed=args.seed)
    out = _outdir(args)
    path = out / "kflats_model.json"
    _write_json(path, model.to_json_dict())
    print(f"fit-kflats: k={args.k} d={args.d} objective={model.objective!r} -> {path}")


def _cmd_bounds(args):
    density_norm, curvature = args.density_norm, args.curvature
    if args.preset == "sphere":
        spec = ManifoldSpec("circle" if args.d == 1 else "sphere",
                            args.d, args.d + 1)
        density_norm = density_norm or spec.effective_density_norm()
        curvature = curvature if curvature is not None else spec.effective_curvature()
    elif args.preset == "disk":
        spec = ManifoldSpec("disk", args.d, args.d)
        density_norm = density_norm or spec.effective_density_norm()
        curvature = curvature if curvature is not None else 0.0
    if density_norm is None:
        density_norm = bounds.holder_density_bound(args.d)
    inputs = bounds.BoundInputs(n=args.n, k=args.k, d=args.d, delta=args.delta,
                                density_norm=density_norm,
                                curvature=curvature or 0.0, C_d=args.c_d)
    report = bounds.decompose(args.empirical, args.holdout, inputs, args.family)
    out = _outdir(args)
    path = out / "bound_report.json"
    _write_json(path, report.to_json_dict())
    print(f"bounds: statistical={report.statistical!r} "
          f"approximation={report.approximation!r} k_n={report.k_n!r} -> {path}")


def _cmd_example1(args):
    e1, e2 = harness.example1(args.seed, holdout_size=args.holdout_size)
    out = _outdir(args)
    path = out / "example1.json"
    _write_json(path, {"e_k1": e1, "e_k2": e2,
                       "single_mean_wins": e1 < e2, "seed": args.seed})
    print(f"example1: e_k1={e1!r} e_k2={e2!r} single_mean_wins={e1 < e2}")


def _experiment_spec(args, k_grid) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(
        manifold=_manifold(args),
        train_sizes=args.train_sizes if hasattr(args, "train_sizes") else [args.n],
        k_grid=k_grid,
        holdout_size=args.holdout_size,
        algorithm=getattr(args, "algorithm", "kmeans"),
        repeats=args.repeats,
        base_seed=args.seed,
        fit_config=_fit_config(args),
        threads=args.threads)


def _write_report(report: harness.ExperimentReport, out: Path) -> None:
    report.write_csv(out / "report.csv")
    report.write_json(out / "summary.json")
    report.write_plot_files(out)


def _cmd_tradeoff(args):
    spec = _experiment_spec(args, args.k_grid)
    report = harness.tradeoff_experiment(spec)
    out = _outdir(args)
    _write_report(report, out)
    print(f"tradeoff: {len(report.rows)} cells, "
          f"descent_violations={report.descent_violations} -> {out}")


def _cmd_rates(args):
    spec = _experiment_spec(args, "auto")
    report = harness.rate_experiment(spec, schedule=args.schedule)
    out = _outdir(args)
    _write_report(report, out)
    rf = report.rate_fit
    print(f"rates[{args.schedule}]: slope={rf.slope!r} residual={rf.residual!r} -> {out}")


def _cmd_select_k(args):
    spec = _experiment_spec(args, args.k_grid)
    k_star, report = harness.select_k(spec, n=args.n)
    out = _outdir(args)
    _write_report(report, out)
    _write_json(out / "selected_k.json",
                {"k_star": k_star, "n": args.n, "k_grid": list(args.k_grid),
                 "descent_violations": report.descent_violations})
    print(f"select-k: k*={k_star} "
          f"descent_violations={report.descent_violations} -> {out}")


def _cmd_oracle_check(args):
    rng_matches = 0
    ratios = []
    cfg = FitConfig(restarts=args.restarts)
    for t in range(args.trials):
        rs = mix_seed(args.seed, t)
        rng = np.random.default_rng(rs)
        pts = rng.uniform(-0.5, 0.5, size=(args.n, 2))
        data = Dataset(pts)
        opt, _ = oracle.global_kmeans(data, args.k)
        model = kmeans.fit(data, args.k, cfg, seed=rs)
        if abs(model.objective - opt) <= 1e-9:
            rng_matches += 1
        ratios.append(model.objective / opt if opt > 0 else 1.0)
    out = _outdir(args)
    payload = {"trials": args.trials, "n": args.n, "k": args.k,
               "matches": rng_matches, "mean_ratio": float(np.mean(ratios))}
    _write_json(out / "oracle_check.json", payload)
    print(f"oracle-check: {rng_matches}/{args.trials} global, "
          f"mean_ratio={payload['mean_ratio']!r}")


_HANDLERS = {
    "sample": _cmd_sample,
    "import-mnist": _cmd_import_mnist,
    "fit-kmeans": _cmd_fit_kmeans,
    "fit-kflats": _cmd_fit_kflats,
    "bounds": _cmd_bounds,
    "example1": _cmd_example1,
    "tradeoff": _cmd_tradeoff,
    "rates": _cmd_rates,
    "select-k": _cmd_select_k,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args = _apply_config(parser, argv, args)
        _HANDLERS[args.command](args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParameterError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
