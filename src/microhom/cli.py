"""Command line interface.

Subcommands: validate (coefficient checks), cells (build or inspect cell
tables), effective (emit the effective matrix as CSV), sweep (full
convergence experiment).  Exit codes: 0 success, 2 validation failure,
3 solver failure.
"""

import argparse
import sys
from dataclasses import replace

from .cell import load_cell_table, save_cell_table
from .coefficients import validate_coefficient
from .config import load_config
from .effective import effective_matrix
from .errors import ConfigError, SolveError
from .sweep import config_cell_table, emit_report, output_dir, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _add_common(sub):
    sub.add_argument("--config", default=None, help="experiment config file")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for norm-estimation start vectors (overrides config)")


def _load(args):
    if args.config is None:
        raise ConfigError("--config is required")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def cmd_validate(args):
    cfg = _load(args)
    field = cfg.make_field()
    report = validate_coefficient(field, n_samples=10_000, seed=cfg.seed)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_cells(args):
    if args.inspect:
        cells = load_cell_table(args.inspect)
        print(f"cell table: family={cells.family} dim={cells.dim} "
              f"n_x={cells.slow_grid.n} n_y={cells.cell_grid.n} method={cells.method}")
        print(f"  residual_max={cells.residual_max:.3e} "
              f"lipschitz_quotient={cells.lipschitz_quotient:.6g}")
        return EXIT_OK
    cfg = _load(args)
    out = output_dir(cfg.out_dir)
    _, cells = config_cell_table(cfg)
    path = out / "cells.bin"
    save_cell_table(path, cells)
    print(f"cell table written to {path} "
          f"(residual_max={cells.residual_max:.3e}, "
          f"lipschitz_quotient={cells.lipschitz_quotient:.6g})")
    return EXIT_OK


def cmd_effective(args):
    cfg = _load(args)
    out = output_dir(cfg.out_dir)
    field, cells = config_cell_table(cfg)
    hom = effective_matrix(cells, field)
    path = out / "effective.csv"
    path.write_text(hom.to_csv())
    print(f"effective matrix written to {path} "
          f"(ellipticity >= {hom.ellipticity:.6g}, "
          f"Lipschitz quotient {hom.lipschitz_quotient:.6g})")
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load(args)
    output_dir(cfg.out_dir)  # a bad --out fails before the sweep, not after it
    report = run_sweep(cfg, progress=lambda m: print(f"  {m}"))
    paths = emit_report(report, cfg.out_dir)
    print(report.summary())
    print("files: " + ", ".join(str(p) for p in paths.values()))
    if any(f.startswith("aborted") for f in report.flags):
        return EXIT_SOLVER
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(prog="microhom",
                                     description="two-scale homogenization toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a coefficient family's metadata")
    _add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = subs.add_parser("cells", help="build or inspect cell solution tables")
    _add_common(p)
    p.add_argument("--inspect", default=None, help="print the header of a table file")
    p.set_defaults(fn=cmd_cells)

    p = subs.add_parser("effective", help="emit the effective matrix as CSV")
    _add_common(p)
    p.set_defaults(fn=cmd_effective)

    p = subs.add_parser("sweep", help="run the convergence experiment")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
