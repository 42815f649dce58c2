"""Command-line interface.

Subcommands: generate, fit, predict, eigvecs, bench-error, plot.  Per-layer
timing of the fit comes from the benchmark driver (``perfbench/run.py --trace 1``).
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure, 4 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import get_args, get_origin

import numpy as np

from . import bench as bench_mod
from .bench import FIELD_TYPES, ExperimentConfig, preset, run_error_curve, write_records_csv
from .errors import EXIT_INVALID_ARGUMENT, EXIT_OK, InvalidArgumentError, KerlapError
from .estimator import decode_sign, model_from_json, model_to_json, predict
from .filters import FILTER_KINDS
from .kernel import GaussianKernel
from .operators import DEFAULT_DENSE_CAP, load_dataset_csv, save_dataset_csv
from .svgplot import plot_svg


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--family", choices=["circles", "gauss2"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-labeled", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--num-circles", type=int, default=4)
    p.add_argument("--inner-radius", type=float, default=1.0)
    p.add_argument("--radius-step", type=float, default=None)
    p.add_argument("--angles", choices=["uniform", "equispaced"], default="uniform")
    p.add_argument("--allocation", choices=["equal", "proportional"], default="equal")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--separation", type=float, default=3.0)


def _add_fit(sub):
    p = sub.add_parser("fit", help="fit a model on a dataset CSV and write model JSON")
    p.set_defaults(run=_cmd_fit)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["kernel_laplacian", "krr", "exact"],
                   default="kernel_laplacian")
    p.add_argument("--sigma", type=float, required=True, help="Gaussian kernel bandwidth")
    p.add_argument("--p", type=int, default=50, help="number of landmarks")
    p.add_argument("--mu", type=float, default=1e-3)
    p.add_argument("--filter", choices=list(FILTER_KINDS), default="tikhonov")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--ridge", type=float, default=1e-3, help="krr ridge strength")
    p.add_argument("--dense-cap", type=int, default=DEFAULT_DENSE_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-over-labeled", action="store_true",
                   help="average the covariance over labeled points only")
    p.add_argument("--clip", action="store_true", help="clip predictions to max |label|")


def _add_predict(sub):
    p = sub.add_parser("predict", help="evaluate a model JSON on query points")
    p.set_defaults(run=_cmd_predict)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="dataset CSV; all rows are queried")
    p.add_argument("--out", required=True, help="output CSV with score and sign columns")


def _add_eigvecs(sub):
    p = sub.add_parser("eigvecs", help="export top generalized eigenvectors on a grid")
    p.set_defaults(run=_cmd_eigvecs)
    p.add_argument("--data", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--grid", default=None,
                   help="CSV of grid points (dataset format); defaults to the data points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


_ALIASES = {"filter_kind": ("--filter",), "lam": ("--lambda",), "method": ("--baseline",)}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _flag_type(hint):
    """argparse type for a config field: a union with str keeps text that is no number."""
    if get_origin(hint) is list:
        return _int_list
    number, *rest = [t for t in get_args(hint) if t is not type(None)] or [hint]
    if str not in rest:
        return number

    def number_or_text(text: str):
        try:
            return number(text)
        except ValueError:
            return text
    return number_or_text


def _add_bench(sub):
    p = sub.add_parser("bench-error", help="error-vs-n sweep, records CSV output")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--config", default=None, help="ExperimentConfig JSON file")
    p.add_argument("--preset", choices=sorted(bench_mod.PRESETS), default=None)
    p.add_argument("--out", required=True, help="records CSV path")
    for f in fields(ExperimentConfig):
        flags = (f"--{f.name.replace('_', '-')}", *_ALIASES.get(f.name, ()))
        if FIELD_TYPES[f.name] is bool:
            p.add_argument(*flags, action=argparse.BooleanOptionalAction, help=f.type)
        else:
            p.add_argument(*flags, type=_flag_type(FIELD_TYPES[f.name]), help=f.type)


def _add_plot(sub):
    p = sub.add_parser("plot", help="render a records CSV as a deterministic SVG")
    p.set_defaults(run=_cmd_plot)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)


def _bench_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise InvalidArgumentError("--config and --preset are mutually exclusive")
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    else:
        cfg = preset(args.preset) if args.preset else ExperimentConfig()
    flags = {f.name: getattr(args, f.name) for f in fields(cfg)}
    return replace(cfg, **{name: v for name, v in flags.items() if v is not None})


def _cmd_generate(args) -> int:
    cfg = ExperimentConfig(
        family=args.family, n_labeled=args.n_labeled, num_circles=args.num_circles,
        inner_radius=args.inner_radius, radius_step=args.radius_step, angles=args.angles,
        allocation=args.allocation, d=args.d, separation=args.separation,
    )
    ds, _ = bench_mod.generate_instance(cfg, args.n, args.seed)
    save_dataset_csv(ds, args.out)
    print(f"wrote {ds.n} points (d={ds.d}, {ds.n_labeled} labeled) to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    ds = load_dataset_csv(args.data)
    if args.method == "kernel_laplacian" and args.p > ds.n:  # only sweeps cap p at n
        raise InvalidArgumentError(f"p must satisfy 1 <= p <= n={ds.n}, got {args.p}")
    cfg = ExperimentConfig(
        method=args.method, n_grid=[ds.n], kernel_sigma=args.sigma, p=args.p, mu=args.mu,
        filter_kind=args.filter, lam=args.lam, ridge=args.ridge, dense_cap=args.dense_cap,
        sigma_over_labeled=args.sigma_over_labeled, clip=args.clip, seed=args.seed,
    )
    model = bench_mod.fit_model(cfg, ds, args.seed)
    with open(args.out, "w") as fh:
        fh.write(model_to_json(model))
    print(f"wrote {args.method} model ({model.coefficients.size} coefficients) to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    with open(args.model) as fh:
        model = model_from_json(fh.read())
    ds = load_dataset_csv(args.data)
    scores = predict(model, ds.inputs)
    signs = decode_sign(scores)
    with open(args.out, "w", newline="") as fh:
        fh.write("score,label\n")
        for s, l in zip(scores, signs):
            fh.write(f"{float(s)!r},{int(l)}\n")
    print(f"wrote {scores.size} predictions to {args.out}")
    return EXIT_OK


def _cmd_eigvecs(args) -> int:
    ds = load_dataset_csv(args.data)
    grid = load_dataset_csv(args.grid).inputs if args.grid else ds.inputs
    bench_mod.export_eigenvectors(
        ds, GaussianKernel(args.sigma), args.p, args.mu, args.count,
        grid, seed=args.seed, path=args.out,
    )
    print(f"wrote {args.count} eigenvector columns over {grid.shape[0]} grid points to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _bench_config(args)
    records = run_error_curve(cfg)
    write_records_csv(records, args.out)
    failed = sum(1 for r in records if np.isnan(r.error))
    print(f"wrote {len(records)} records to {args.out}" +
          (f" ({failed} failed)" if failed else ""))
    return EXIT_OK


def _cmd_plot(args) -> int:
    plot_svg(args.records, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerlap",
        description="Laplacian-regularized kernel regression benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_generate, _add_fit, _add_predict, _add_eigvecs, _add_bench, _add_plot):
        add(sub)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except KerlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
