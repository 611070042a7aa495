"""Golden regression: two studies against their checked-in reports.

``golden/readme_study.csv`` holds the report of the README config (a
density, ``constant(40)``), ``golden/plane_study.csv`` that of the
benchmark's surface study (``plane(0.5, 20)`` on grids 47 and 95).
Every column except the wall-clock ``solver_seconds`` is compared:

* columns computed without a linear solve (geometry, assumption sums,
  corrector norm) within 4096 ulps;
* solution columns within ``3 kappa tol max|column|``, where
  ``kappa = 4 (n+1)^2 / pi^2`` is the condition number of the grid
  Laplacian on the finest grid and ``tol`` the relative CG residual.
  ``ldc_deviation`` uses the fixed tolerance of its own solve plus a
  rounding floor of 4096 ulps of the total hole capacity, since it is
  zero in exact arithmetic for a constant density;
* ``solver_iterations`` and ``solver_residual`` describe the solver, not
  the answer: the residual must reach ``tol``, and each row's count, like
  the limit solve's, must be positive and at most the count the
  capacitance solve takes today (the golden files' counts are older).

Each study also counts its whole-grid sine transforms (through the
``transforms`` fixture).  ``f`` is a product, held as the 1-D spectra of
its factors, so it takes none: one transform is made for the residual
check of an exact solve, and one for a row whose holes fill more than
half the grid, which builds ``f`` from its factors and transforms it
zeroed on the holes.  No full sine solve (``dirichlet_solve``) runs.
"""

import csv
import math
from pathlib import Path

from perfhom import harness
from perfhom.harness import load_config, run_study

GOLDEN_DIR = Path(__file__).parent / "golden"
EPS64 = 2.0**-52
LDC_TOL = 1e-10

README_CONFIG = """
[study]
dim = 3
epsilons = 1/4 1/8
grids = 63 63
potential = constant(40)
f = constant(1)
tol = 1e-9
allow_oversized_holes = true
witness_modes = (1,1,1) (3,1,1) (1,3,3)
out = {out}

[trends]
error_drop = rel_l2_error min_ratio 1.2
witness_drop = witness_1_1_1 abs_decrease
"""

PLANE_CONFIG = """
[study]
dim = 3
epsilons = 1/8 1/16
grids = 47 95
potential = plane(0.5, 20)
f = constant(1.0)
tol = 1e-09
allow_oversized_holes = true
witness_modes = (1,1,1) (3,1,1) (1,3,3)
out = {out}

[trends]
error_drop = rel_l2_error min_ratio 1.2
witness_drop = witness_1_1_1 abs_decrease
"""

SOLUTION_COLUMNS = ("l2_error", "rel_l2_error")


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_readme_study_matches_golden_report(tmp_path, transforms, monkeypatch):
    # a constant measure: the limit is one exact solve at shift 40 from
    # the grid's spectrum, checked by one transform; the eps 1/4 holes
    # fill more than half the grid, so that row transforms its hole-zeroed
    # f, and the eps 1/8 row only reads the 1-D spectra.  Before f was
    # held as factors, a spectrum of f on 63^3 and the recovery of f in
    # the eps 1/4 row took two transforms more
    solve = harness.solve_perforated

    def spied(*args, **kwargs):
        transforms.append("solve_perforated")
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_perforated", spied)
    assert_study_matches_golden(
        tmp_path, README_CONFIG, GOLDEN_DIR / "readme_study.csv", (8, 16), 1
    )
    forward = ("sine_transform", 63)
    assert transforms == [forward, "solve_perforated", forward, "solve_perforated"]


def test_plane_study_matches_golden_report(tmp_path, transforms):
    # every solve reads the 1-D spectra of f, and nothing is transformed
    # on a whole grid.  There were eight full solves when each
    # capacitance solve made two and the H^-1 norm one, two when solves
    # shared A^-1 f and ended by a half solve of the charge, and two
    # transforms (95^3 and 47^3) when each grid held the spectrum of f
    assert_study_matches_golden(
        tmp_path, PLANE_CONFIG, GOLDEN_DIR / "plane_study.csv", (19, 18), 10
    )
    assert transforms == []


def assert_study_matches_golden(tmp_path, config_text, golden_path, iterations, limit_iterations):
    config = tmp_path / "study.ini"
    config.write_text(config_text.format(out=tmp_path / "report"))
    cfg = load_config(config)
    report = run_study(cfg)
    assert all(t.passed for t in report.trend_results)
    assert 0 < report.metadata["limit_solver"]["iterations"] <= limit_iterations

    columns, rows = read_rows(tmp_path / "report" / "study.csv")
    golden_columns, golden = read_rows(golden_path)
    assert columns == golden_columns
    assert len(rows) == len(golden)

    kappa = 4.0 * (max(cfg.grids) + 1) ** 2 / math.pi**2
    capacity = max(float(r["sum_A6"]) for r in golden)
    for col in columns:
        if col == "solver_seconds":
            continue
        if col in ("solver_iterations", "solver_residual"):
            for row, ceiling in zip(rows, iterations, strict=True):
                assert 0 < int(row["solver_iterations"]) <= ceiling
                assert float(row["solver_residual"]) <= cfg.tol
            continue
        want = [float(r[col]) for r in golden]
        magnitude = max(abs(v) for v in want if not math.isnan(v))
        if col == "ldc_deviation":
            rtol, atol = 0.0, 3 * kappa * LDC_TOL * magnitude + 4096 * EPS64 * capacity
        elif col in SOLUTION_COLUMNS or col.startswith("witness_"):
            rtol, atol = 0.0, 3 * kappa * cfg.tol * magnitude
        else:
            rtol, atol = 4096 * EPS64, 0.0
        for row, expected in zip(rows, want):
            got = float(row[col])
            if math.isnan(expected):
                assert math.isnan(got), col
            else:
                assert abs(got - expected) <= rtol * abs(expected) + atol, (col, got, expected)
