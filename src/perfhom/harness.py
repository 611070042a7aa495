"""Epsilon-sweep studies: construction, diagnostics, solves, trends.

A study runs a strictly decreasing list of epsilons.  The limit problem
is solved once on the finest grid and injected onto each row's grid, so
row errors compare against one fixed limit field.  Rows are computed
sequentially with fixed-order reductions, which makes reports
reproducible bit for bit for a given configuration.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .diagnostics import assumption_quantities, ldc_deviation
from .errors import ConfigError, InvalidParameterError, StudyError
from .inverse import ConstructionReport, construct_holes
from .potential import (
    DEFAULT_QUADRATURE,
    Potential,
    QuadratureSpec,
    parse_potential,
    parse_spec,
)
from .solver import (
    CUTOFF_NAME,
    Grid,
    corrector_field,
    field_from_callable,
    l2_distance,
    l2_norm,
    lump_measure,
    restrict,
    solve_limit,
    solve_perforated,
    weak_witness,
)
from .holes import disjointness_check
from .tiling import TilingSpec, cells_intersecting, unit_box

Array = np.ndarray

DEFAULT_WITNESS_MODES = ((1, 1, 1), (3, 1, 1), (1, 3, 3))


def sine_mode(mode: Sequence[int]) -> Callable[[Array], Array]:
    """Zero-trace test function ``prod_k sin(pi m_k x_k)``."""
    m = np.asarray(mode, dtype=float)

    def g(x):
        return np.prod(np.sin(np.pi * m * x), axis=1)

    return g


def sine_mode_field(grid: Grid, mode: Sequence[int]) -> Array:
    """:func:`sine_mode` on the nodes as a broadcast product of 1-D sine
    vectors, bit for bit equal to ``field_from_callable(grid, sine_mode(mode))``."""
    factors = [np.sin(k * grid.axis()) for k in np.pi * np.asarray(mode, dtype=float)]
    return math.prod(np.ix_(*factors))


def _rhs_constant(dim: int, c: float) -> Callable[[Array], Array]:
    value = float(c)
    return lambda x: np.full(x.shape[0], value)


def _rhs_sine(dim: int, *m: float) -> Callable[[Array], Array]:
    mode = [int(v) for v in (m or (1,) * dim)]
    if len(mode) != dim:
        raise InvalidParameterError(f"sine needs {dim} modes, got {len(mode)}")
    return sine_mode(mode)


RHS_CONSTRUCTORS = {"constant": _rhs_constant, "sine": _rhs_sine}


def parse_rhs(text: str, dim: int) -> Callable[[Array], Array]:
    """Parse a right-hand-side spec such as ``constant(1)`` or ``sine(1,1,1)``."""
    try:
        rhs = parse_spec(text, RHS_CONSTRUCTORS, dim, "rhs")
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if not callable(rhs):
        raise ConfigError(f"rhs spec {text!r} is not a right-hand side")
    return rhs


@dataclass(frozen=True)
class TrendSpec:
    """A registered trend assertion on one report column."""

    name: str
    column: str
    mode: str  # strict_decrease | min_ratio | slope | max_abs
    param: Optional[float] = None
    param2: Optional[float] = None


@dataclass
class StudyConfig:
    """Everything a study needs; see :func:`load_config` for the file format."""

    dim: int
    epsilons: tuple[float, ...]
    grids: tuple[int, ...]
    potential: Potential
    potential_spec: str
    rhs: Callable[[Array], Array]
    rhs_spec: str
    tol: float = 1e-8
    witness_modes: tuple[tuple[int, ...], ...] = DEFAULT_WITNESS_MODES
    quad: QuadratureSpec = DEFAULT_QUADRATURE
    out_dir: Optional[str] = None
    allow_oversized_holes: bool = False
    override_tiny_holes: bool = False
    trends: tuple[TrendSpec, ...] = ()

    def __post_init__(self):
        if len(self.epsilons) != len(self.grids):
            raise ConfigError("epsilons and grids must have the same length")
        if not self.epsilons:
            raise ConfigError("study needs at least one epsilon")
        if any(e2 >= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("epsilon list must be strictly decreasing")
        if any(e <= 0 for e in self.epsilons):
            raise ConfigError("epsilons must be positive")
        if any(n < 1 for n in self.grids):
            raise ConfigError("grid sizes must be positive")
        finest = max(self.grids) + 1
        for n in self.grids:
            if finest % (n + 1) != 0:
                raise ConfigError(
                    f"grids are not nested: {n + 1} does not divide {finest}"
                )
        if not (self.tol > 0):
            raise ConfigError("tolerance must be positive")
        for mode in self.witness_modes:
            if len(mode) != self.dim or any(int(m) < 1 for m in mode):
                raise ConfigError(f"bad witness mode {mode}")


def _parse_number(text: str) -> float:
    """Accept plain floats and exact fractions like ``1/8``."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def load_config(path) -> StudyConfig:
    """Read a study configuration from a flat key = value file.

    Sections: ``[study]`` with keys ``dim``, ``epsilons``, ``grids``,
    ``potential``, ``f``, and optional ``tol``, ``witness_modes``,
    ``quad_volume_order``, ``quad_surface_refine``, ``out``,
    ``allow_oversized_holes``, ``override_tiny_holes``;
    optional ``[trends]`` with lines ``name = column mode [param]``.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "study" not in parser:
        raise ConfigError("config file needs a [study] section")
    section = parser["study"]
    try:
        dim = section.getint("dim", 3)
        epsilons = tuple(_parse_number(tok) for tok in section.get("epsilons", "").split())
        grids = tuple(int(tok) for tok in section.get("grids", "").split())
        potential_spec = section.get("potential", "zero()")
        rhs_spec = section.get("f", "constant(1)")
        tol = float(section.get("tol", "1e-8"))
        out_dir = section.get("out", fallback=None)
        allow_oversized = section.getboolean("allow_oversized_holes", fallback=False)
        override_tiny = section.getboolean("override_tiny_holes", fallback=False)
        quad = QuadratureSpec(
            volume_order=section.getint("quad_volume_order", DEFAULT_QUADRATURE.volume_order),
            surface_refine=section.getint(
                "quad_surface_refine", DEFAULT_QUADRATURE.surface_refine
            ),
        )
        modes_raw = section.get("witness_modes", fallback=None)
        if modes_raw:
            witness_modes = tuple(
                tuple(int(v) for v in grp.split(","))
                for grp in modes_raw.replace("(", " ").replace(")", " ").split()
                if grp.strip(",")
            )
        else:
            witness_modes = tuple(m[:dim] for m in DEFAULT_WITNESS_MODES) if dim <= 3 else (
                tuple([1] * dim),
            )
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid value in [study]: {exc}") from exc

    trends = []
    if "trends" in parser:
        for name, value in parser["trends"].items():
            tokens = value.split()
            if len(tokens) < 2:
                raise ConfigError(f"trend {name!r} needs 'column mode [param]'")
            column, mode = tokens[0], tokens[1]
            param = float(tokens[2]) if len(tokens) > 2 else None
            param2 = float(tokens[3]) if len(tokens) > 3 else None
            trends.append(TrendSpec(name, column, mode, param, param2))

    try:
        potential = parse_potential(potential_spec, dim)
        rhs = parse_rhs(rhs_spec, dim)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc

    return StudyConfig(
        dim=dim,
        epsilons=epsilons,
        grids=grids,
        potential=potential,
        potential_spec=potential_spec,
        rhs=rhs,
        rhs_spec=rhs_spec,
        tol=tol,
        witness_modes=witness_modes,
        quad=quad,
        out_dir=out_dir,
        allow_oversized_holes=allow_oversized,
        override_tiny_holes=override_tiny,
        trends=tuple(trends),
    )


def _witness_column(mode: Sequence[int]) -> str:
    return "witness_" + "_".join(str(int(m)) for m in mode)


@dataclass
class StudyRow:
    epsilon: float
    n: int
    h: float
    cell_count: int
    hole_count: int
    min_radius: float
    max_radius: float
    max_radius_ratio: float
    sup_a_over_R: float
    sum_A2: float
    sup_A3: float
    sum_A4: float
    sum_A6: float
    ldc_deviation: float
    v_l2: float
    l2_error: float
    rel_l2_error: float
    witnesses: dict[str, float]
    solver_iterations: int
    solver_residual: float
    solver_seconds: float

    def as_dict(self) -> dict:
        """Columns in field order, with the witnesses flattened in place."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "witnesses":
                out.update(value)
            else:
                out[f.name] = value
        return out


@dataclass
class TrendResult:
    spec: TrendSpec
    passed: bool
    values: tuple[float, ...]
    ratios: tuple[float, ...]
    detail: str = ""


@dataclass
class StudyReport:
    rows: list[StudyRow]
    metadata: dict
    trend_results: list[TrendResult] = field(default_factory=list)

    def columns(self) -> list[str]:
        return list(self.rows[0].as_dict().keys()) if self.rows else []

    def column(self, name: str) -> list[float]:
        if not self.rows:
            raise InvalidParameterError("report has no rows")
        if name not in self.rows[0].as_dict():
            raise InvalidParameterError(f"unknown report column {name!r}")
        return [row.as_dict()[name] for row in self.rows]

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns())
        for row in self.rows:
            writer.writerow(
                [
                    format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in row.as_dict().values()
                ]
            )
        return buffer.getvalue()

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "study.csv").write_text(self.to_csv_text())
        summary = {
            "metadata": self.metadata,
            "trends": [
                {
                    "name": t.spec.name,
                    "column": t.spec.column,
                    "mode": t.spec.mode,
                    "passed": t.passed,
                    "values": list(t.values),
                    "ratios": list(t.ratios),
                    "detail": t.detail,
                }
                for t in self.trend_results
            ],
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def trend_check(
    report: StudyReport,
    column: str,
    mode: str,
    *,
    min_ratio: Optional[float] = None,
    slope_target: Optional[float] = None,
    slope_tol: Optional[float] = None,
    bound: Optional[float] = None,
) -> TrendResult:
    """Evaluate a trend assertion on one report column.

    Modes: ``strict_decrease``; ``abs_decrease`` (strict decrease of
    magnitudes, for signed witness columns); ``min_ratio`` (consecutive
    ratios at least ``min_ratio``); ``slope`` (log-log fit against
    epsilon within ``slope_tol`` of ``slope_target``); ``max_abs`` (all
    values bounded by ``bound``).
    """
    values = report.column(column)
    if len(values) < 2:
        raise InvalidParameterError("trend check needs at least 2 rows")
    ratios = tuple(
        a / b if b != 0.0 else math.inf for a, b in zip(values, values[1:])
    )
    spec = TrendSpec("adhoc", column, mode, min_ratio or slope_target or bound)
    if mode == "strict_decrease":
        passed = all(a > b for a, b in zip(values, values[1:]))
        return TrendResult(spec, passed, tuple(values), ratios)
    if mode == "abs_decrease":
        passed = all(abs(a) > abs(b) for a, b in zip(values, values[1:]))
        return TrendResult(spec, passed, tuple(values), ratios)
    if mode == "min_ratio":
        if min_ratio is None:
            raise InvalidParameterError("min_ratio mode needs a ratio")
        passed = all(r >= min_ratio for r in ratios)
        return TrendResult(spec, passed, tuple(values), ratios)
    if mode == "slope":
        if slope_target is None or slope_tol is None:
            raise InvalidParameterError("slope mode needs target and tolerance")
        eps = report.column("epsilon")
        if any(v <= 0 for v in values):
            return TrendResult(spec, False, tuple(values), ratios, "nonpositive values")
        slope = float(np.polyfit(np.log(eps), np.log(values), 1)[0])
        passed = abs(slope - slope_target) <= slope_tol
        return TrendResult(spec, passed, tuple(values), ratios, f"slope={slope:.4f}")
    if mode == "max_abs":
        if bound is None:
            raise InvalidParameterError("max_abs mode needs a bound")
        passed = all(abs(v) <= bound for v in values)
        return TrendResult(spec, passed, tuple(values), ratios)
    raise InvalidParameterError(f"unknown trend mode {mode!r}")


def _run_trend(report: StudyReport, spec: TrendSpec) -> TrendResult:
    kwargs = {}
    if spec.mode == "min_ratio":
        kwargs["min_ratio"] = spec.param
    elif spec.mode == "slope":
        kwargs["slope_target"] = spec.param
        kwargs["slope_tol"] = spec.param2 if spec.param2 is not None else 0.1
    elif spec.mode == "max_abs":
        kwargs["bound"] = spec.param
    result = trend_check(report, spec.column, spec.mode, **kwargs)
    result.spec = spec
    return result


def run_trends(report: StudyReport, trends: Sequence[TrendSpec]) -> list[TrendResult]:
    return [_run_trend(report, spec) for spec in trends]


def construct_study_holes(cfg: StudyConfig, eps: float) -> ConstructionReport:
    """Capacity-matched holes for ``cfg`` at pitch ``eps`` on the unit cube."""
    return construct_holes(
        cfg.potential,
        TilingSpec(cfg.dim, eps),
        unit_box(cfg.dim),
        cfg.quad,
        strict=not cfg.allow_oversized_holes,
    )


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the full sweep; deterministic for a fixed configuration.

    Stages per epsilon: construct holes, geometry and assumption checks,
    capacity-density deviation, corrector, perforated solve, errors
    against the injected limit field.  Any stage failure raises
    :class:`StudyError` carrying the rows finished so far.
    """
    domain = unit_box(cfg.dim)
    rows: list[StudyRow] = []
    metadata = {
        "dim": cfg.dim,
        "potential": cfg.potential_spec,
        "f": cfg.rhs_spec,
        "epsilons": list(cfg.epsilons),
        "grids": list(cfg.grids),
        "tol": cfg.tol,
        "cutoff": CUTOFF_NAME,
        "witness_modes": [list(m) for m in cfg.witness_modes],
        "numpy_version": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    report = StudyReport(rows, metadata)

    try:
        return _run_study_body(cfg, domain, report)
    except StudyError:
        # emit the rows finished before the failure
        if cfg.out_dir and report.rows:
            report.write(cfg.out_dir)
        raise


def _run_study_body(cfg: StudyConfig, domain, report: StudyReport) -> StudyReport:
    rows = report.rows
    metadata = report.metadata

    finest_n = max(cfg.grids)
    fine_grid = Grid(cfg.dim, finest_n)

    def stage(name, eps, fn):
        try:
            return fn()
        except StudyError:
            raise
        except Exception as exc:
            raise StudyError(name, eps, exc, partial=report) from exc

    start = time.perf_counter()
    weights = stage("lump_measure", None, lambda: lump_measure(cfg.potential, fine_grid, cfg.quad))
    f_fine = stage("rhs", None, lambda: field_from_callable(fine_grid, cfg.rhs))
    u_limit, limit_stats = stage(
        "solve_limit", None, lambda: solve_limit(f_fine, weights, fine_grid, cfg.tol)
    )
    # fields that depend only on the grid, built once per grid size
    lumped = {finest_n: weights}
    rhs_fields = {finest_n: f_fine}
    metadata["limit_solver"] = {
        "n": finest_n,
        "iterations": limit_stats.iterations,
        "residual": limit_stats.residual,
        "seconds": limit_stats.seconds,
    }

    for eps, n in zip(cfg.epsilons, cfg.grids):
        grid = Grid(cfg.dim, n)
        spec = TilingSpec(cfg.dim, eps)
        construction = stage("construct", eps, lambda: construct_study_holes(cfg, eps))
        holes = construction.holes
        seps = construction.separation
        geometry = stage("disjointness", eps, lambda: disjointness_check(holes, seps))
        if not geometry.ok:
            raise StudyError(
                "disjointness", eps, "separation balls overlap or escape cells", report
            )
        cells = cells_intersecting(spec, domain)
        assumptions = stage(
            "assumptions", eps, lambda: assumption_quantities(holes, seps, cells)
        )
        if n not in lumped:
            lumped[n] = stage(
                "lump_measure", eps, lambda: lump_measure(cfg.potential, grid, cfg.quad)
            )
        ldc = stage("ldc", eps, lambda: ldc_deviation(holes, lumped[n], spec, grid))
        radii = holes.nonempty.radii
        if radii.size and radii.max() < seps.R:
            _, v_l2 = stage(
                "corrector", eps, lambda: corrector_field(holes, seps, grid)
            )
        elif not radii.size:
            v_l2 = 0.0
        else:
            # oversized holes leave no cutoff annulus; metric undefined
            v_l2 = math.nan
        if n not in rhs_fields:
            rhs_fields[n] = stage("rhs", eps, lambda: field_from_callable(grid, cfg.rhs))
        u_eps, stats = stage(
            "solve_perforated",
            eps,
            lambda: solve_perforated(
                rhs_fields[n], holes, grid, cfg.tol, override_tiny=cfg.override_tiny_holes
            ),
        )
        u_ref = stage("restrict", eps, lambda: restrict(u_limit, fine_grid, grid))
        error = l2_distance(u_eps, u_ref, grid)
        ref_norm = l2_norm(u_ref, grid)
        # a separable witness field costs one product per node; holding
        # them for later rows would keep one grid array per mode alive
        witnesses = {
            _witness_column(mode): weak_witness(u_eps, u_ref, sine_mode_field(grid, mode), grid)
            for mode in cfg.witness_modes
        }
        rows.append(
            StudyRow(
                epsilon=eps,
                n=n,
                h=grid.h,
                cell_count=len(cells),
                hole_count=radii.size,
                min_radius=float(radii.min()) if radii.size else 0.0,
                max_radius=float(radii.max()) if radii.size else 0.0,
                max_radius_ratio=construction.max_radius_ratio,
                sup_a_over_R=assumptions.sup_a_over_R,
                sum_A2=assumptions.sum_A2,
                sup_A3=assumptions.sup_A3,
                sum_A4=assumptions.sum_A4,
                sum_A6=assumptions.sum_A6,
                ldc_deviation=ldc,
                v_l2=v_l2,
                l2_error=error,
                rel_l2_error=error / ref_norm if ref_norm > 0.0 else 0.0,
                witnesses=witnesses,
                solver_iterations=stats.iterations,
                solver_residual=stats.residual,
                solver_seconds=stats.seconds,
            )
        )
        # the next row's solves must not run beside this row's fields
        del u_eps, u_ref
    metadata["total_seconds"] = time.perf_counter() - start

    report.trend_results = run_trends(report, cfg.trends)
    if cfg.out_dir:
        report.write(cfg.out_dir)
    return report
