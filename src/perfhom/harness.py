"""Epsilon-sweep studies: construction, diagnostics, solves, trends.

A study runs a strictly decreasing list of epsilons.  The limit problem
is solved once on the finest grid and injected onto each row's grid, so
row errors compare against one fixed limit field.  A right-hand side
is ``d`` signed 1-D factors, ``f(x) = prod_k f_k(x_k)``, so each grid
holds it as the 1-D spectra ``Q f_k`` that all its solves read
(:func:`~perfhom.solver.rhs_spectrum`), never as a grid array.  Only
the limit field outlives its row: the limit phase and each row lump
their own measure and build their own spectra, and a row's ldc builds
the capacity-density deviation in its measure, its one read.  A row on
the finest grid compares against the limit field itself, not a copy,
and the last row, if it is on the finest grid, builds its error field
in the limit field's array (``solve_perforated``'s ``minus``), so no
second finest-grid field is made.
Rows are computed sequentially with fixed-order reductions, which makes
reports reproducible bit for bit for a given configuration.
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
from typing import Optional, Sequence

import numpy as np

from .diagnostics import assumption_quantities, ldc_deviation
from .errors import ConfigError, InvalidParameterError, StudyError
from .inverse import ConstructionReport, construct_holes
from .potential import Factor, Potential, lump_measure, parse_potential, parse_spec
from .solver import (
    CUTOFF_NAME,
    Grid,
    corrector_field,
    field_from_callable,  # noqa: F401  (perfbench/tracing.py wraps harness.field_from_callable)
    is_sine_mode,
    l2_distance,  # noqa: F401  (perfbench/tracing.py wraps harness.l2_distance)
    l2_norm,
    restrict,
    rhs_spectrum,
    solve_limit,
    solve_perforated,
    weak_witness,
)
from .holes import disjointness_check
from . import tiling
from .tiling import TilingSpec, unit_box
from .tiling import cells_intersecting  # noqa: F401  (perfbench/tracing.py wraps harness.cells_intersecting)

Array = np.ndarray

DEFAULT_WITNESS_MODES = ((1, 1, 1), (3, 1, 1), (1, 3, 3))


def _constant_rhs(dim: int, c: float) -> tuple[Factor, ...]:
    """``constant(c)``: the factors ``c, 1, ..., 1``."""
    value = float(c)
    return (lambda t: np.full(t.shape, value),) + (lambda t: np.ones(t.shape),) * (dim - 1)


def _sine_rhs(dim: int, *m: float) -> tuple[Factor, ...]:
    """``sine(m_1, ..., m_d)``: the factors ``sin(pi m_k t)``, every
    ``m_k`` 1 when none is given."""
    mode = m or (1,) * dim
    if len(mode) != dim:
        raise InvalidParameterError(f"sine needs {dim} modes, got {len(mode)}")
    if not is_sine_mode(mode):
        raise InvalidParameterError(f"sine modes must be positive integers, got {mode}")
    frequencies = (np.pi * np.asarray(mode, dtype=float)).tolist()
    return tuple((lambda t, k=k: np.sin(k * t)) for k in frequencies)


RHS_CONSTRUCTORS = {"constant": _constant_rhs, "sine": _sine_rhs}


def parse_rhs(text: str, dim: int) -> tuple[Factor, ...]:
    """Parse a right-hand-side spec such as ``constant(1)`` or
    ``sine(1,1,1)`` into its ``dim`` factors."""
    rhs = parse_spec(text, RHS_CONSTRUCTORS, dim, "rhs")
    if not isinstance(rhs, tuple):
        raise InvalidParameterError(f"rhs spec {text!r} is not a right-hand side")
    return rhs


@dataclass(frozen=True)
class TrendSpec:
    """A registered trend assertion on one report column.  ``MODES`` maps
    each mode to the parameters it reads: ``param`` for the last three,
    and ``param2``, the slope tolerance, for ``slope``."""

    MODES = {"strict_decrease": 0, "abs_decrease": 0, "min_ratio": 1, "slope": 2, "max_abs": 1}

    name: str
    column: str
    mode: str
    param: Optional[float] = None
    param2: Optional[float] = None

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise InvalidParameterError(f"trend {self.name!r}: unknown mode {self.mode!r}")
        reads, given = self.MODES[self.mode], (self.param is not None) + (self.param2 is not None)
        if not min(reads, 1) <= given <= reads:
            raise InvalidParameterError(
                f"trend {self.name!r}: {self.mode} takes {('no', '1', '1 or 2')[reads]} "
                f"parameter(s), got {given}"
            )
        finite = all(math.isfinite(p) for p in (self.param, self.param2) if p is not None)
        if not finite or (self.param2 or 0.0) < 0.0:
            raise InvalidParameterError(
                f"trend {self.name!r}: parameters must be finite, the slope tolerance >= 0"
            )


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs, as a config file states it (see
    :func:`load_config`), with the defaults of an absent key.

    ``potential`` and ``rhs`` are parsed from ``potential_spec`` and
    ``rhs_spec``; a spec that does not parse is a :class:`ConfigError`.
    It is frozen, so they always match the specs: :func:`dataclasses.replace`
    parses and checks a changed config again.
    Empty ``witness_modes`` are :data:`DEFAULT_WITNESS_MODES` for
    ``dim`` 3 and the all-ones mode above.
    """

    dim: int = 3
    epsilons: tuple[float, ...] = ()
    grids: tuple[int, ...] = ()
    potential_spec: str = "zero()"
    rhs_spec: str = "constant(1)"
    tol: float = 1e-8
    witness_modes: tuple[tuple[int, ...], ...] = ()
    out_dir: Optional[str] = None
    allow_oversized_holes: bool = False
    trends: tuple[TrendSpec, ...] = ()
    # the specs say all there is to compare or show of these
    potential: Potential = field(init=False, compare=False, repr=False)
    rhs: tuple[Factor, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "potential", parse_potential(self.potential_spec, self.dim))
            object.__setattr__(self, "rhs", parse_rhs(self.rhs_spec, self.dim))
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.witness_modes:
            default = DEFAULT_WITNESS_MODES if self.dim == 3 else ((1,) * self.dim,)
            object.__setattr__(self, "witness_modes", default)
        if len(self.epsilons) != len(self.grids):
            raise ConfigError("epsilons and grids must have the same length")
        if not self.epsilons:
            raise ConfigError("study needs at least one epsilon")
        if any(e2 >= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("epsilon list must be strictly decreasing")
        if not all(0.0 < e < math.inf for e in self.epsilons):
            raise ConfigError("epsilons must be positive and finite")
        for eps in self.epsilons:
            # the enumeration every row's construction runs, checked before
            # any stage; not a study stage, so not the name the study calls
            try:
                tiling.cells_intersecting(TilingSpec(self.dim, eps), unit_box(self.dim))
            except InvalidParameterError as exc:
                raise ConfigError(str(exc)) from exc
        if any(n < 1 for n in self.grids):
            raise ConfigError("grid sizes must be positive")
        finest = max(self.grids) + 1
        for n in self.grids:
            if finest % (n + 1) != 0:
                raise ConfigError(
                    f"grids are not nested: {n + 1} does not divide {finest}"
                )
        if not 0.0 < self.tol < 1.0:
            raise ConfigError(f"tolerance must lie in (0, 1), got {self.tol}")
        for mode in self.witness_modes:
            if len(mode) != self.dim or not is_sine_mode(mode):
                raise ConfigError(f"bad witness mode {mode}")
        columns = _columns(self.witness_modes)
        for trend in self.trends:
            if trend.column not in columns:
                raise ConfigError(f"trend {trend.name!r} names unknown column {trend.column!r}")
        if self.trends and len(self.epsilons) < 2:
            raise ConfigError("trends need at least 2 epsilons")


def _read_modes(text: str) -> tuple[tuple[int, ...], ...]:
    """``(1,1,1) (3,1,1)``, parentheses optional, as integer tuples."""
    groups = text.replace("(", " ").replace(")", " ").split()
    return tuple(tuple(int(v) for v in grp.split(",")) for grp in groups if grp.strip(","))


def _read_boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# each [study] key: the StudyConfig field it sets and the reader of its text
STUDY_KEYS = {
    "dim": ("dim", int),
    "epsilons": (
        "epsilons",
        lambda text: tuple(float(Fraction(t) if "/" in t else t) for t in text.split()),
    ),
    "grids": ("grids", lambda text: tuple(int(tok) for tok in text.split())),
    "potential": ("potential_spec", str),
    "f": ("rhs_spec", str),
    "tol": ("tol", float),
    "witness_modes": ("witness_modes", _read_modes),
    "out": ("out_dir", str),
    "allow_oversized_holes": ("allow_oversized_holes", _read_boolean),
}


def load_config(path) -> StudyConfig:
    """Read a study configuration from a flat key = value file.

    Sections: ``[study]``, whose keys are those of :data:`STUDY_KEYS`
    (any other key is a :class:`ConfigError`; an absent key takes the
    :class:`StudyConfig` default); optional ``[trends]`` with lines
    ``name = column mode [param [param2]]``, each mode taking the
    parameters :attr:`TrendSpec.MODES` gives it.  Values are read
    literally; ``%`` is not special.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        # configparser's text names the file again ("While reading from
        # 'x' [line  3]: ..."): keep its line number and the reason after it
        line = getattr(exc, "lineno", None)
        reason = str(exc).splitlines()[0].rpartition("]: ")[2]
        if getattr(exc, "errors", None):
            line, reason = exc.errors[0][0], "not a section header or a key = value line"
        where = f" line {line}" if line else ""
        raise ConfigError(f"cannot parse config file {path}{where}: {reason}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "study" not in parser:
        raise ConfigError("config file needs a [study] section")
    section = parser["study"]
    unknown = [key for key in section if key not in STUDY_KEYS]
    if unknown:
        raise ConfigError(f"unknown [study] key {unknown[0]!r} in {path}")
    try:
        values = {
            name: read(section[key]) for key, (name, read) in STUDY_KEYS.items() if key in section
        }
        trends = []
        for name, value in parser["trends"].items() if "trends" in parser else ():
            tokens = value.split()
            if not 2 <= len(tokens) <= 4:
                raise ConfigError(f"trend {name!r} needs 'column mode [param [param2]]'")
            trends.append(TrendSpec(name, *tokens[:2], *(float(t) for t in tokens[2:])))
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid value in {path}: {exc}") from exc
    return StudyConfig(**values, trends=tuple(trends))


def _witness_column(mode: Sequence[int]) -> str:
    return "witness_" + "_".join(str(int(m)) for m in mode)


def _columns(modes: Sequence[Sequence[int]]) -> list[str]:
    """Report columns: :class:`StudyRow`'s fields, ``witnesses`` one per mode."""
    witness = list(map(_witness_column, modes))
    return [c for f in fields(StudyRow) for c in (witness if f.name == "witnesses" else [f.name])]


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
    """Rows, metadata and trend results of a study.

    ``stage_seconds`` holds the wall seconds of each harness stage: a
    ``limit`` dict for the limit phase and one dict per row in ``rows``.
    ``failure`` names the stage, epsilon and error of a failed study.
    Both go to ``summary.json``, not to the CSV report.
    """

    rows: list[StudyRow]
    metadata: dict
    trend_results: list[TrendResult] = field(default_factory=list)
    stage_seconds: dict = field(default_factory=lambda: {"limit": {}, "rows": []})
    failure: Optional[dict] = field(default=None, init=False)

    def columns(self) -> list[str]:
        return _columns(self.metadata["witness_modes"])

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
            "stage_seconds": self.stage_seconds,
            "trends": [
                {
                    "name": t.spec.name,
                    "column": t.spec.column,
                    "mode": t.spec.mode,
                    "passed": t.passed,
                    # strict JSON: a non-finite value or ratio is null
                    "values": [v if math.isfinite(v) else None for v in t.values],
                    "ratios": [r if math.isfinite(r) else None for r in t.ratios],
                    "detail": t.detail,
                }
                for t in self.trend_results
            ],
        }
        if self.failure is not None:
            summary["failure"] = self.failure
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def trend_check(report: StudyReport, spec: TrendSpec) -> TrendResult:
    """Evaluate a trend assertion on one report column.

    Modes: ``strict_decrease``; ``abs_decrease`` (strict decrease of
    magnitudes, for signed witness columns); ``min_ratio`` (consecutive
    ratios at least ``param``); ``slope`` (log-log fit against epsilon
    within ``param2``, default 0.1, of ``param``); ``max_abs`` (all
    values bounded by ``param``).
    """
    values = report.column(spec.column)
    if len(values) < 2:
        raise InvalidParameterError("trend check needs at least 2 rows")
    # a zero after a zero has no ratio (NaN), so no ``min_ratio`` passes on it
    ratios = tuple(a / b if b else math.inf if a else math.nan for a, b in zip(values, values[1:]))
    mode, param = spec.mode, spec.param
    if mode == "strict_decrease":
        passed = all(a > b for a, b in zip(values, values[1:]))
        return TrendResult(spec, passed, tuple(values), ratios)
    if mode == "abs_decrease":
        passed = all(abs(a) > abs(b) for a, b in zip(values, values[1:]))
        return TrendResult(spec, passed, tuple(values), ratios)
    if mode == "min_ratio":
        passed = all(r >= param for r in ratios)
        return TrendResult(spec, passed, tuple(values), ratios)
    if mode == "slope":
        eps = report.column("epsilon")
        if any(v <= 0 for v in values):
            return TrendResult(spec, False, tuple(values), ratios, "nonpositive values")
        slope = float(np.polyfit(np.log(eps), np.log(values), 1)[0])
        slope_tol = 0.1 if spec.param2 is None else spec.param2
        passed = abs(slope - param) <= slope_tol
        return TrendResult(spec, passed, tuple(values), ratios, f"slope={slope:.4f}")
    passed = all(abs(v) <= param for v in values)  # max_abs, the one mode left
    return TrendResult(spec, passed, tuple(values), ratios)


def construct_study_holes(cfg: StudyConfig, eps: float) -> ConstructionReport:
    """Capacity-matched holes for ``cfg`` at pitch ``eps`` on the unit cube."""
    return construct_holes(
        cfg.potential,
        TilingSpec(cfg.dim, eps),
        unit_box(cfg.dim),
        strict=not cfg.allow_oversized_holes,
    )


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the full sweep; deterministic for a fixed configuration.

    Stages per epsilon: construct holes, geometry and assumption checks,
    capacity-density deviation, corrector, perforated solve, errors
    against the injected limit field.  Any stage failure raises
    :class:`StudyError` carrying the rows finished so far, and writes this
    run's report to ``out_dir``, rows or none, with the failure.
    """
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
    report = StudyReport([], metadata)

    try:
        return _run_study_body(cfg, report)
    except StudyError as exc:
        # the rows finished, or the header alone: no earlier report survives
        if cfg.out_dir:
            report.failure = {"stage": exc.stage, "epsilon": exc.epsilon, "error": str(exc.cause)}
            report.write(cfg.out_dir)
        raise


def _run_study_body(cfg: StudyConfig, report: StudyReport) -> StudyReport:
    rows, metadata, seconds = report.rows, report.metadata, report.stage_seconds
    finest_n = max(cfg.grids)
    fine_grid = Grid(cfg.dim, finest_n)

    def stage(name, eps, fn):
        # the one instrumentation point: wall seconds per stage
        phase = seconds["limit"] if eps is None else seconds["rows"][-1]
        start = time.perf_counter()
        try:
            return fn()
        except StudyError:
            raise
        except Exception as exc:
            raise StudyError(name, eps, exc, partial=report) from exc
        finally:
            phase[name] = time.perf_counter() - start

    start = time.perf_counter()
    lumped = stage("lump_measure", None, lambda: lump_measure(cfg.potential, fine_grid))
    rhs = stage("rhs", None, lambda: rhs_spectrum(cfg.rhs, fine_grid))
    limit = stage("solve_limit", None, lambda: solve_limit(rhs, lumped, fine_grid, cfg.tol))
    # the limit field is the one grid array the rows share
    del lumped
    u_limit, limit_stats = limit
    metadata["limit_solver"] = {"n": finest_n, **limit_stats.__dict__}
    # the last row on the finest grid builds its error field in the limit
    # field's array, from the limit's final step; no other row reads it
    if cfg.grids[-1] != finest_n:
        limit = None
    last = len(cfg.epsilons) - 1

    for row, (eps, n) in enumerate(zip(cfg.epsilons, cfg.grids)):
        seconds["rows"].append({})
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
        assumptions = stage(
            "assumptions", eps, lambda: assumption_quantities(holes, seps, construction.cells)
        )
        # the ldc builds its deviation in the row's own measure, its one read
        lumped = stage("lump_measure", eps, lambda: lump_measure(cfg.potential, grid))
        ldc = stage("ldc", eps, lambda: ldc_deviation(holes, lumped, spec, grid))
        del lumped
        radii = holes.nonempty.radii
        if radii.size and radii.max() < seps.R:
            # only the norm is reported; the field is not kept
            v_l2 = stage("corrector", eps, lambda: corrector_field(holes, seps, grid)[1])
        elif not radii.size:
            v_l2 = 0.0
        else:
            # oversized holes leave no cutoff annulus; metric undefined
            v_l2 = math.nan
        rhs = stage("rhs", eps, lambda: rhs_spectrum(cfg.rhs, grid))
        # one error field serves the L2 error and every witness: the last
        # row's is built in the limit field's array, any other's in the
        # row's solution
        minus = limit if row == last else None
        if minus is not None:
            ref_norm = l2_norm(u_limit, grid)
        diff, stats = stage(
            "solve_perforated",
            eps,
            lambda: solve_perforated(rhs, holes, grid, cfg.tol, minus=minus),
        )
        if minus is None:
            if n == finest_n:
                u_ref = u_limit  # the limit field itself, not a copy
            else:
                u_ref = stage("restrict", eps, lambda: restrict(u_limit, fine_grid, grid))
            ref_norm = l2_norm(u_ref, grid)
            diff -= u_ref
            del u_ref
        else:
            del limit, minus, u_limit  # the limit field's array holds the error field
        error = stage("l2_error", eps, lambda: l2_norm(diff, grid))
        witnesses = stage(
            "witnesses",
            eps,
            lambda: {
                _witness_column(mode): weak_witness(diff, mode, grid)
                for mode in cfg.witness_modes
            },
        )
        rows.append(
            StudyRow(
                epsilon=eps,
                n=n,
                h=grid.h,
                cell_count=len(holes),
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
        del diff
    metadata["total_seconds"] = time.perf_counter() - start

    report.trend_results = [trend_check(report, spec) for spec in cfg.trends]
    if cfg.out_dir:
        report.write(cfg.out_dir)
    return report
