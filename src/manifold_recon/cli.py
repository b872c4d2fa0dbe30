"""Command-line entry point.

Thin adapter over the library: every result is byte-identical to calling
the corresponding function with the same parameters and seed. Randomized
commands default to seed 0, never wall-clock seeding. The keys of a
`--config` JSON file become `--key=value` flags right after the command
name, so argparse types them and the flags typed after them win. A command
returns its artifacts and a summary line; `main` creates `--out` before the
command runs and writes them. Exit codes: 0 ok, 2 usage, 3 data/file, 4 compute.
"""

import argparse
import json
import os
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


def _int_list(text: str):
    values = [int(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def _k_grid(text: str):
    if text == "auto":
        return "auto"
    if ":" in text:
        lo, hi = text.split(":")
        grid = list(range(int(lo), int(hi) + 1))
    else:
        grid = _int_list(text)
    if not grid:
        raise argparse.ArgumentTypeError(f"empty k grid {text!r}")
    return grid


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="manifold-recon",
        description="Piecewise-constant / piecewise-linear manifold "
                    "reconstruction: fits, bounds, and experiments.")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    sub = p.add_subparsers(dest="command", metavar="command", required=True)

    def cmd(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        return sp

    def experiment(name, help, kind, d, D, repeats):
        sp = cmd(name, help=help)
        sp.add_argument("--kind", choices=["sphere", "circle", "disk"], default=kind)
        sp.add_argument("--d", type=int, default=d)
        sp.add_argument("--D", type=int, default=D)
        sp.add_argument("--repeats", type=int, default=repeats)
        sp.add_argument("--holdout-size", type=int, default=100_000)
        sp.add_argument("--restarts", type=int, default=_FIT.restarts)
        sp.add_argument("--threads", type=int, default=1)
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


def _fit_config(args) -> FitConfig:
    return FitConfig(max_iters=getattr(args, "max_iters", _FIT.max_iters),
                     rel_tol=getattr(args, "rel_tol", _FIT.rel_tol),
                     restarts=args.restarts)


def _cmd_sample(args):
    ds = ManifoldSpec(args.kind, args.d, args.D).sample(args.n, args.seed)
    return {"dataset.mrc1": ds}, f"{ds.size} x {ds.ambient_dim} points"


def _cmd_import_mnist(args):
    ds = load_mnist(args.images, limit=args.limit)
    return {"dataset.mrc1": ds}, f"{ds.size} x {ds.ambient_dim} points"


def _cmd_fit_kmeans(args):
    data = storage.load_any(args.data)
    model = kmeans.fit(data, args.k, _fit_config(args), seed=args.seed)
    return ({"kmeans_model.json": model.to_json_dict()},
            f"k={args.k} objective={model.objective!r}")


def _cmd_fit_kflats(args):
    data = storage.load_any(args.data)
    model = kflats.fit(data, args.k, args.d, _fit_config(args), seed=args.seed)
    return ({"kflats_model.json": model.to_json_dict()},
            f"k={args.k} d={args.d} objective={model.objective!r}")


def _cmd_bounds(args):
    density_norm, curvature = args.density_norm, args.curvature or 0.0
    if args.preset:
        D = args.d + 1 if args.preset == "sphere" else args.d
        spec = ManifoldSpec(args.preset, args.d, D, args.density_norm, args.curvature)
        density_norm, curvature = spec.effective_density_norm(), spec.effective_curvature()
    elif density_norm is None:
        density_norm = bounds.holder_density_bound(args.d)
    inputs = bounds.BoundInputs(n=args.n, k=args.k, d=args.d, delta=args.delta,
                                density_norm=density_norm,
                                curvature=curvature, C_d=args.c_d)
    report = bounds.decompose(args.empirical, args.holdout, inputs, args.family)
    return ({"bound_report.json": report.to_json_dict()},
            f"statistical={report.statistical!r} "
            f"approximation={report.approximation!r} k_n={report.k_n!r}")


def _cmd_example1(args):
    e1, e2 = harness.example1(args.seed, holdout_size=args.holdout_size)
    return ({"example1.json": {"e_k1": e1, "e_k2": e2,
                               "single_mean_wins": e1 < e2, "seed": args.seed}},
            f"e_k1={e1!r} e_k2={e2!r} single_mean_wins={e1 < e2}")


def _experiment_spec(args, k_grid) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(
        manifold=ManifoldSpec(args.kind, args.d, args.D),
        train_sizes=args.train_sizes if hasattr(args, "train_sizes") else [args.n],
        k_grid=k_grid,
        holdout_size=args.holdout_size,
        algorithm=getattr(args, "algorithm", "kmeans"),
        repeats=args.repeats,
        base_seed=args.seed,
        fit_config=_fit_config(args),
        threads=args.threads)


def _cmd_tradeoff(args):
    report = harness.tradeoff_experiment(_experiment_spec(args, args.k_grid))
    return (report.files(),
            f"{len(report.rows)} cells, descent_violations={report.descent_violations}")


def _cmd_rates(args):
    spec = _experiment_spec(args, "auto")
    report = harness.rate_experiment(spec, schedule=args.schedule)
    rf = report.rate_fit
    return (report.files(), f"schedule={args.schedule} "
            f"slope={rf.slope!r} residual={rf.residual!r}")


def _cmd_select_k(args):
    k_star, report = harness.select_k(_experiment_spec(args, args.k_grid))
    selected = {"k_star": k_star, "n": args.n,
                "k_grid": sorted({r["k"] for r in report.rows}),
                "descent_violations": report.descent_violations}
    return ({**report.files(), "selected_k.json": selected},
            f"k*={k_star} descent_violations={report.descent_violations}")


def _cmd_oracle_check(args):
    if args.trials < 1:
        raise ParameterError("trials must be >= 1")
    rng_matches = 0
    ratios = []
    cfg = FitConfig(restarts=args.restarts)
    for t in range(args.trials):
        rs = mix_seed(args.seed, t)
        data = Dataset(np.random.default_rng(rs).uniform(-0.5, 0.5, size=(args.n, 2)))
        opt, _ = oracle.global_kmeans(data, args.k)
        model = kmeans.fit(data, args.k, cfg, seed=rs)
        if abs(model.objective - opt) <= 1e-9:
            rng_matches += 1
        ratios.append(model.objective / opt if opt > 0 else 1.0)
    payload = {"trials": args.trials, "n": args.n, "k": args.k,
               "matches": rng_matches, "mean_ratio": float(np.mean(ratios))}
    return ({"oracle_check.json": payload}, f"{rng_matches}/{args.trials} global, "
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


def _write(path: Path, artifact) -> None:
    """Write a Dataset as a container, a str as given, anything else as JSON."""
    if isinstance(artifact, Dataset):
        storage.write_dataset(path, artifact)
    else:
        path.write_text(artifact if isinstance(artifact, str)
                        else json.dumps(artifact, indent=2), newline="")


def _config_flags(parser, path):
    """The JSON object in `path` as `--key=value` flags: `_` in a key becomes
    `-`, a list joins with commas, any other value goes through `str`."""
    try:
        with open(path, encoding="utf-8") as fh:
            conf = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        parser.error(f"config is not valid JSON: {exc}")
    if not isinstance(conf, dict):
        parser.error("config must be a JSON object")
    return [f"--{key.replace('_', '-')}="
            + (",".join(map(str, v)) if isinstance(v, list) else str(v))
            for key, v in conf.items()]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # --config is read only before the command; its flags go right after
    # the command name, so the flags typed after them win
    at = next((i for i, a in enumerate(argv) if a in _HANDLERS), len(argv))
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv[:at])[0].config
        argv[at + 1:at + 1] = _config_flags(parser, config) if config else []
        args = parser.parse_args(argv)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the work
        if not os.access(out, os.W_OK | os.X_OK):
            raise PermissionError(f"cannot write to {out}")
        artifacts, summary = _HANDLERS[args.command](args)
        for name, artifact in artifacts.items():
            _write(out / name, artifact)
        print(f"{args.command}: {summary} -> {out}")
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParameterError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
