"""Command-line entry point.

Subcommands: ``capacity`` (exact and optionally numerical ball
capacity), ``construct`` (emit hole CSVs for a config), ``check``
(assumption quantities, optionally from previously emitted CSVs),
``solve`` (one perforated/limit pair at the first epsilon), ``study``
(the full sweep).

Exit codes: 0 success, 1 validation, configuration or file error, or an
array too large to allocate, 2 numerical failure, 3 failed trend check
under ``study --assert``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .capacity import capacity_ball, capacity_extrapolate, capacity_variational, check_truncations
from .diagnostics import assumption_quantities
from .errors import (
    ConstructionError,
    EvaluationError,
    ExtrapolationError,
    GeometryError,
    InvalidParameterError,
    PerfhomError,
    ResolutionError,
    SolverError,
    StudyError,
)
from .harness import construct_study_holes, load_config, run_study
from .holes import SeparationParams, read_holes_csv
from .inverse import C1
from .solver import Grid, lump_measure, rhs_spectrum, solve_limit
from .solver import solve_perforated, write_field
from .tiling import TilingSpec, cells_intersecting, unit_box

VALIDATION_ERRORS = (InvalidParameterError, ConstructionError, GeometryError, MemoryError)
NUMERICAL_ERRORS = (SolverError, ResolutionError, ExtrapolationError, EvaluationError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfhom",
        description="Poisson problems on perforated domains: construction, "
        "diagnostics and convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="exact (and optionally numerical) ball capacity")
    p_cap.add_argument("dim", type=int)
    p_cap.add_argument("radius", type=float)
    p_cap.add_argument(
        "--numeric",
        nargs=2,
        type=float,
        metavar=("L", "H"),
        help="also run the truncated variational solve at box half-width L, spacing H",
    )
    p_cap.add_argument(
        "--extrapolate",
        type=float,
        metavar="L2",
        help="extrapolate using a second truncation L2 (requires --numeric)",
    )

    for name, help_text in (
        ("construct", "emit hole CSVs for each epsilon in the config"),
        ("check", "emit assumption quantities for each epsilon"),
        ("solve", "solve one perforated/limit pair at the first epsilon"),
        ("study", "run the full epsilon sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        if name == "check":
            p.add_argument(
                "--holes-dir",
                type=Path,
                default=None,
                help="re-read hole CSVs emitted by 'construct' instead of constructing",
            )
        if name == "study":
            p.add_argument(
                "--assert",
                dest="assert_trends",
                action="store_true",
                help="exit 3 when a registered trend check fails",
            )
    return parser


def _load(args):
    """Load the config and resolve its output directory into ``cfg.out_dir``:
    ``--out``, else the config's ``out``, else the working directory."""
    cfg = load_config(args.config)
    out = args.out or Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return replace(cfg, out_dir=str(out)), out


def _variational(d, a, L, h):
    """Print one variational capacity and its solve's record."""
    result = capacity_variational(d, a, L, h)
    stats = result.stats
    print(f"variational L={L:g} h={h:g}: {result.value!r}")
    print(
        f"  solve: {stats.iterations} iterations, residual {stats.residual:.3e}, "
        f"{stats.seconds:.3f} s"
    )
    return result


def _cmd_capacity(args) -> int:
    exact = capacity_ball(args.dim, args.radius)
    print(repr(exact.value))
    if args.numeric:
        L, h = args.numeric
        if args.extrapolate is not None:
            check_truncations(L, args.extrapolate)
        first = _variational(args.dim, args.radius, L, h)
        if args.extrapolate is not None:
            second = _variational(args.dim, args.radius, args.extrapolate, h)
            extrapolated = capacity_extrapolate(first, second)
            print(f"extrapolated: {extrapolated.value!r}")
    elif args.extrapolate is not None:
        raise InvalidParameterError("--extrapolate requires --numeric")
    return 0


def _cmd_construct(args) -> int:
    cfg, out = _load(args)
    for k, eps in enumerate(cfg.epsilons):
        construction = construct_study_holes(cfg, eps)
        construction.write(out / f"holes_{k:02d}.csv", out / f"holes_{k:02d}.json")
        print(f"epsilon={eps:g}: {len(construction.holes.nonempty)} holes -> holes_{k:02d}.csv")
    return 0


def _assumption_rows(cfg, args):
    for k, eps in enumerate(cfg.epsilons):
        if getattr(args, "holes_dir", None):
            holes = read_holes_csv(args.holes_dir / f"holes_{k:02d}.csv")
            seps = SeparationParams(c1=C1, epsilon=eps)
            cells = cells_intersecting(TilingSpec(cfg.dim, eps), unit_box(cfg.dim))
        else:
            construction = construct_study_holes(cfg, eps)
            holes, seps, cells = construction.holes, construction.separation, construction.cells
        yield assumption_quantities(holes, seps, cells)


def _cmd_check(args) -> int:
    cfg, out = _load(args)
    rows = [report.as_row() for report in _assumption_rows(cfg, args)]
    path = out / "assumptions.csv"
    with open(path, "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row.values()) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_solve(args) -> int:
    cfg, out = _load(args)
    eps = cfg.epsilons[0]
    n = cfg.grids[0]
    grid = Grid(cfg.dim, n)
    construction = construct_study_holes(cfg, eps)
    # both solves read the 1-D spectra of f's factors
    rhs = rhs_spectrum(cfg.rhs, grid)
    u_eps, stats_eps = solve_perforated(rhs, construction.holes, grid, cfg.tol)
    # written and dropped before the limit problem's arrays exist
    write_field(out / "u_perforated.bin", grid, u_eps)
    del u_eps
    weights = lump_measure(cfg.potential, grid)
    u_lim, stats_lim = solve_limit(rhs, weights, grid, cfg.tol)
    write_field(out / "u_limit.bin", grid, u_lim)
    stats = {
        "epsilon": eps,
        "n": n,
        "perforated": stats_eps.__dict__,
        "limit": stats_lim.__dict__,
    }
    (out / "solve_stats.json").write_text(json.dumps(stats, indent=2) + "\n")
    print(f"wrote fields and stats to {out}")
    return 0


def _cmd_study(args) -> int:
    cfg, _ = _load(args)
    report = run_study(cfg)
    results = report.trend_results
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"trend {res.spec.name} [{res.spec.column} {res.spec.mode}]: {status}")
    print(f"wrote study report to {cfg.out_dir}")
    if args.assert_trends and any(not r.passed for r in results):
        print("trend assertions failed", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "capacity": _cmd_capacity,
        "construct": _cmd_construct,
        "check": _cmd_check,
        "solve": _cmd_solve,
        "study": _cmd_study,
    }
    try:
        return handlers[args.command](args)
    except (*VALIDATION_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except StudyError as exc:
        cause = exc.cause if isinstance(exc.cause, Exception) else None
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(cause, VALIDATION_ERRORS):
            return 1
        return 2
    except PerfhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
