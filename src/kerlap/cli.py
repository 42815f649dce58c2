"""Command-line interface.

Subcommands: generate, fit, predict, eigvecs, bench-error, plot.  Each
``ExperimentConfig`` field a command reads is one flag, declared from the
field, with the same spelling, type, words and aliases in every command; no
flag may be abbreviated.  Per-layer timing of the fit comes from the
benchmark driver (``perfbench/run.py --trace 1``).  Exit codes: 0 success,
2 invalid arguments, 3 numerical failure, 4 resource cap exceeded.
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
from .kernel import GaussianKernel
from .operators import load_dataset_csv, read_points, save_dataset_csv, write_csv
from .svgplot import render_svg

_ALIASES = {"kernel_sigma": ("--sigma",), "filter_kind": ("--filter",), "lam": ("--lambda",),
            "method": ("--baseline",)}
_HELP = {
    "kernel_sigma": "Gaussian kernel bandwidth", "p": "number of landmarks",
    "ridge": "krr ridge strength", "clip": "clip predictions to max |label|",
    "sigma_over_labeled": "average the covariance over labeled points only",
}


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


def _add_config_flags(p, names, required=()):
    """A flag for each ``ExperimentConfig`` field in ``names``; none has a
    default, so ``_config`` sees which were given."""
    for f in fields(ExperimentConfig):
        if f.name not in names:
            continue
        hint = FIELD_TYPES[f.name]
        flags = (f"--{f.name.replace('_', '-')}", *_ALIASES.get(f.name, ()))
        if hint is bool:
            kind = {"action": argparse.BooleanOptionalAction}
        elif hint is str:
            kind = {"choices": bench_mod._WORDS[f.name]}
        else:
            kind = {"type": _flag_type(hint)}
        p.add_argument(*flags, required=f.name in required, help=_HELP.get(f.name, f.type), **kind)


def _config(args, base: ExperimentConfig) -> ExperimentConfig:
    """``base`` with the config fields given on the command line."""
    given = {f.name: getattr(args, f.name, None) for f in fields(base)}
    return replace(base, **{name: v for name, v in given.items() if v is not None})


def _add_generate(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    spec_fields = {f.name for spec, _ in bench_mod.DATASETS.values() for f in fields(spec)}
    _add_config_flags(p, {"family", *spec_fields}, required=("family", "n_labeled"))


def _add_fit(p):
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("method", "kernel_sigma", "p", "mu", "filter_kind", "lam", "ridge",
                          "dense_cap", "seed", "sigma_over_labeled", "clip"),
                      required=("kernel_sigma",))


def _add_predict(p):
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="dataset CSV; all rows are queried")
    p.add_argument("--out", required=True, help="output CSV with score and sign columns")


def _add_eigvecs(p):
    p.add_argument("--data", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--grid", default=None,
                   help="CSV of grid points (dataset format); defaults to the data points")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("kernel_sigma", "p", "mu", "seed"), required=("kernel_sigma", "p", "mu"))


def _add_bench(p):
    p.add_argument("--config", default=None, help="ExperimentConfig JSON file")
    p.add_argument("--preset", choices=sorted(bench_mod.PRESETS), default=None)
    p.add_argument("--out", required=True, help="records CSV path")
    _add_config_flags(p, FIELD_TYPES)


def _add_plot(p):
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
    return _config(args, cfg)


def _single_fit_p(cfg: ExperimentConfig, n: int) -> int:
    """p for one fit: a word resolves against n, an integer stays as given (sweeps cap it)."""
    return cfg.resolve_p(n) if isinstance(cfg.p, str) else cfg.p


def _cmd_generate(args) -> int:
    cfg = _config(args, ExperimentConfig())
    ds, _ = bench_mod.generate_instance(cfg, args.n, cfg.seed)
    save_dataset_csv(ds, args.out)
    print(f"wrote {ds.n} points (d={ds.d}, {ds.n_labeled} labeled) to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    ds = load_dataset_csv(args.data)
    cfg = _config(args, ExperimentConfig(n_grid=[ds.n], mu=1e-3))
    if cfg.method == "kernel_laplacian" and _single_fit_p(cfg, ds.n) > ds.n:
        raise InvalidArgumentError(f"p must satisfy 1 <= p <= n={ds.n}, got {cfg.p}")
    model = bench_mod.fit_model(cfg, ds, cfg.seed)
    with open(args.out, "w") as fh:
        fh.write(model_to_json(model))
    print(f"wrote {cfg.method} model ({model.coefficients.size} coefficients) to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    with open(args.model) as fh:
        model = model_from_json(fh.read())
    queries = read_points(args.data)[0]
    try:
        scores = predict(model, queries)
    except InvalidArgumentError as exc:  # the queries are the file's rows
        raise InvalidArgumentError(f"{args.data}: {exc}") from None
    write_csv(args.out, ["score", "label"], zip(scores.tolist(), decode_sign(scores).tolist()))
    print(f"wrote {scores.size} predictions to {args.out}")
    return EXIT_OK


def _cmd_eigvecs(args) -> int:
    ds = load_dataset_csv(args.data)
    grid = read_points(args.grid)[0] if args.grid else ds.inputs
    cfg = _config(args, ExperimentConfig(n_grid=[ds.n]))
    values = bench_mod.export_eigenvectors(
        ds, GaussianKernel(cfg.kernel_sigma), _single_fit_p(cfg, ds.n), cfg.resolve_mu(ds.n),
        args.count, grid, seed=cfg.seed,
    )
    header = [f"x{j}" for j in range(ds.d)] + [f"e{j + 1}" for j in range(args.count)]
    # with no eigenvector columns the file is the header alone
    write_csv(args.out, header, np.hstack([grid, values]).tolist() if args.count else ())
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
    svg = render_svg(bench_mod.load_records_csv(args.records))
    with open(args.out, "w", newline="") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = (  # name, help, flags, run
    ("generate", "write a synthetic dataset CSV", _add_generate, _cmd_generate),
    ("fit", "fit a model on a dataset CSV and write model JSON", _add_fit, _cmd_fit),
    ("predict", "evaluate a model JSON on query points", _add_predict, _cmd_predict),
    ("eigvecs", "export top generalized eigenvectors on a grid", _add_eigvecs, _cmd_eigvecs),
    ("bench-error", "error-vs-n sweep, records CSV output", _add_bench, _cmd_bench),
    ("plot", "render a records CSV as a deterministic SVG", _add_plot, _cmd_plot),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerlap",
        description="Laplacian-regularized kernel regression benchmarks",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, add, run in _COMMANDS:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(run=run)
        add(p)
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
