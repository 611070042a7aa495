"""The three workloads: inputs made from a seed, one repetition each,
and the checks on what the program wrote.

``study-density`` and ``study-plane`` run ``perfhom study`` through
``perfhom.cli.main`` on a generated config file, so parsing, the sweep
and report writing are all inside one repetition.  ``lattice`` calls the
construction and geometry layers directly, with no linear solve.

Seed 0 is the canonical input that the reference reports were made
from.  Other seeds vary inputs without changing the amount of work:
the right-hand side constant of both studies (the solutions scale with
it, so the reference still applies after scaling), the plane height of
``study-plane`` within a band that keeps every hole and the mask
resolution unchanged, and the graph height of ``lattice``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import shutil
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Float64 unit roundoff; bounds rounding of sums of nonnegative terms.
EPS64 = 2.0**-52

STUDY_TREND_LINES = (
    "error_drop = rel_l2_error min_ratio 1.2",
    "witness_drop = witness_1_1_1 abs_decrease",
)

# Columns that depend only on the tiling, the construction and the grid.
GEOMETRY_COLUMNS = (
    "epsilon", "n", "h", "cell_count", "hole_count", "min_radius",
    "max_radius", "max_radius_ratio", "sup_a_over_R", "sum_A2", "sup_A3",
    "sum_A4", "sum_A6", "v_l2",
)
# Iteration counts and seconds describe the solver, not the answer.
UNCHECKED_COLUMNS = ("solver_iterations", "solver_residual", "solver_seconds")
LDC_TOL = 1e-10  # the fixed solve tolerance of diagnostics.ldc_deviation


class Failure(Exception):
    """An output check failed; the repetition counts as failed."""


def study_inputs(name, seed, size):
    """Config values of one study workload for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    canonical = seed == 0
    rhs = 1.0 if canonical else round(rng.uniform(0.5, 2.0), 6)
    if name == "study-density":
        values = {
            "epsilons": "1/4 1/8",
            "grids": "63 63",
            "potential": "constant(40)",
            "tol": 1e-9,
        }
        if size == "tiny":
            values.update(grids="31 63", tol=1e-6)
    else:
        # The band keeps z0 inside the middle cell layer at both pitches
        # ((3/8, 5/8] and (7/16, 9/16]), so the holes do not move.
        z0 = 0.5 if canonical else round(0.5 + rng.uniform(-0.02, 0.02), 6)
        values = {
            "epsilons": "1/8 1/16",
            "grids": "47 95",
            "potential": f"plane({z0!r}, 20)",
            "tol": 1e-9,
        }
        if size == "tiny":
            values.update(epsilons="1/4 1/8", grids="23 47", tol=1e-6)
    values.update(rhs=rhs, canonical=canonical and size == "full")
    return values


def study_config_text(values, out_dir):
    return "\n".join(
        [
            "[study]",
            "dim = 3",
            f"epsilons = {values['epsilons']}",
            f"grids = {values['grids']}",
            f"potential = {values['potential']}",
            f"f = constant({values['rhs']!r})",
            f"tol = {values['tol']!r}",
            "allow_oversized_holes = true",
            "witness_modes = (1,1,1) (3,1,1) (1,3,3)",
            f"out = {out_dir}",
            "",
            "[trends]",
            *STUDY_TREND_LINES,
            "",
        ]
    )


def lattice_inputs(seed, size):
    rng = random.Random(f"lattice:{seed}")
    z0 = 0.5 if seed == 0 else round(0.5 + rng.uniform(-0.05, 0.05), 6)
    if size == "tiny":
        epsilons = (Fraction(1, 12), Fraction(1, 16))
    else:
        epsilons = (Fraction(1, 16), Fraction(1, 24), Fraction(1, 32), Fraction(1, 40))
    return {
        "potential": f"sum([sine_density(2), graph({z0!r}, 0.1, 2, 20)])",
        "epsilons": epsilons,
        # grid of the capacity-density field; fixed across pitches
        "grid": 63 if size == "full" else 31,
    }


# ---------------------------------------------------------------------------
# studies


class Study:
    """One study workload: a config file in ``work`` and its checks.

    A repetition is one operation.
    """

    def __init__(self, name, seed, size, work):
        self.name = name
        self.values = study_inputs(name, seed, size)
        self.work = Path(work)
        self.out = self.work / "report"
        self.config = self.work / "study.ini"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(study_config_text(self.values, self.out))
        self.operations = 1
        # the reference holds for full-size inputs: every column for
        # study-density (after rhs scaling) and for the canonical plane,
        # and the geometry columns for any other plane height
        if size != "full":
            self.reference = None
        elif name == "study-density" or self.values["canonical"]:
            self.reference = "all"
        else:
            self.reference = "geometry"

    def setup(self, perfhom):
        """What a user's process does before the sweep starts: read the
        config, which parses the potential and the right-hand side."""
        return perfhom.load_config(str(self.config))

    def run(self, perfhom, state):
        shutil.rmtree(self.out, ignore_errors=True)
        with redirect_stdout(io.StringIO()) as text:
            code = perfhom.cli.main(["study", str(self.config), "--assert"])
        return code, text.getvalue()

    def check(self, perfhom, result, tracer=None):
        """Raise :class:`Failure` unless every output check passes."""
        code, text = result
        if code != 0:
            raise Failure(f"perfhom study exited with {code}: {text.strip()}")
        rows = _read_csv(self.out / "study.csv")
        summary = json.loads((self.out / "summary.json").read_text())
        tol = self.values["tol"]
        limit = summary["metadata"]["limit_solver"]
        if not limit["residual"] <= tol:
            raise Failure(f"limit solve residual {limit['residual']} > tol {tol}")
        for row in rows:
            if not float(row["solver_residual"]) <= tol:
                raise Failure(f"perforated solve residual {row['solver_residual']} > tol")
        trends = {t["name"]: t["passed"] for t in summary["trends"]}
        expected = {line.split("=")[0].strip() for line in STUDY_TREND_LINES}
        if set(trends) != expected or not all(trends.values()):
            raise Failure(f"registered trends did not pass: {trends}")
        if self.reference:
            self.compare(rows, _read_csv(REFERENCE_DIR / f"{self.name}.csv"), limit["n"])
        return 0

    def compare(self, rows, ref, finest_n):
        """Non-timing columns against the seed-0 reference.

        A CG relative residual ``tol`` bounds the relative solution error
        by the condition number of the grid Laplacian on the finest grid,
        ``kappa = 4 (n+1)^2 / pi^2``.  Each solve column (errors and
        witnesses, two solves each) may therefore move by ``3 kappa tol``
        times the column's largest reference magnitude, scaled with the
        right-hand side.  The H^-1 column gets the same rule with the
        fixed tolerance of its own solve, plus a rounding floor of 4096
        ulps of the total hole capacity, since it is exactly zero in
        exact arithmetic for a constant density.  Columns with no solve
        are sums of at most a few thousand nonnegative terms and get a
        rounding tolerance of 4096 ulps.
        """
        if [r["epsilon"] for r in rows] != [r["epsilon"] for r in ref]:
            raise Failure("report rows differ from the reference rows")
        kappa = 4.0 * (finest_n + 1) ** 2 / math.pi**2
        scale = self.values["rhs"]
        if self.reference == "all":
            columns = [c for c in ref[0] if c not in UNCHECKED_COLUMNS]
        else:
            columns = list(GEOMETRY_COLUMNS)
        capacity = max(float(r["sum_A6"]) for r in ref)
        for col in columns:
            ref_vals = [float(r[col]) for r in ref]
            magnitude = max(abs(v) for v in ref_vals)
            if col in GEOMETRY_COLUMNS:
                factor, rtol, atol = 1.0, 4096 * EPS64, 0.0
            elif col == "ldc_deviation":
                factor, rtol = 1.0, 0.0
                atol = 3 * kappa * LDC_TOL * magnitude + 4096 * EPS64 * capacity
            elif col == "rel_l2_error":
                factor, rtol, atol = 1.0, 0.0, 3 * kappa * self.values["tol"] * magnitude
            elif col == "l2_error" or col.startswith("witness_"):
                factor, rtol = scale, 0.0
                atol = 3 * kappa * self.values["tol"] * scale * magnitude
            else:
                factor, rtol, atol = 1.0, 0.0, 0.0
            for row, want in zip(rows, ref_vals):
                got = float(row[col])
                if not _close(got, factor * want, rtol, atol):
                    raise Failure(
                        f"column {col} at epsilon {row['epsilon']}: {got!r} vs "
                        f"reference {want!r} (rhs scale {scale})"
                    )


def _close(got, want, rtol, atol):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= rtol * abs(want) + atol


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# lattice


class Lattice:
    """Construction and geometry at four pitches, two of them not dyadic.

    Each pitch is one operation.  ``disjointness_check`` compares floats
    so that touching separation balls count as overlapping, and it
    rejects every pitch that is not a power of two; the lattice is
    disjoint by construction (centered balls, ``c1 = 1``), so such a
    rejection is a false reject and the pitch counts as failed.
    """

    def __init__(self, seed, size, work):
        self.values = lattice_inputs(seed, size)
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.operations = len(self.values["epsilons"])

    def setup(self, perfhom):
        return perfhom.parse_potential(self.values["potential"], 3)

    def run(self, perfhom, mu):
        domain = perfhom.unit_box(3)
        grid = perfhom.Grid(3, self.values["grid"])
        out = []
        for k, eps in enumerate(self.values["epsilons"]):
            spec = perfhom.TilingSpec(3, float(eps))
            construction = perfhom.construct_holes(mu, spec, domain)
            path = self.work / f"holes_{k:02d}.csv"
            perfhom.write_holes_csv(construction.holes, path)
            back = perfhom.read_holes_csv(path)
            geometry = perfhom.disjointness_check(construction.holes, construction.separation)
            cells = perfhom.cells_intersecting(spec, domain)
            report = perfhom.assumption_quantities(construction.holes, construction.separation, cells)
            field = perfhom.capacity_density_field(construction.holes, spec, grid)
            out.append((eps, construction, back, geometry, cells, report, field))
        return out

    def check(self, perfhom, result, tracer=None):
        """Return the number of falsely rejected pitches; raise on a wrong output."""
        failed = 0
        for eps, construction, back, geometry, cells, report, field in result:
            holes = construction.holes
            if len(holes) != len(cells) or report.n_cells != len(cells):
                raise Failure(f"epsilon {eps}: holes and cells are not aligned")
            if construction.c1 != 1.0:
                raise Failure(f"epsilon {eps}: separation constant is not 1")
            for hole, cell in zip(holes, cells):
                if hole.cell_index != cell.index or hole.center != cell.center:
                    raise Failure(f"epsilon {eps}: hole {hole.cell_index} is not centered")
            caps = math.fsum(perfhom.capacity_ball(3, h.radius).value for h in holes)
            total = construction.total_mass
            if abs(caps - total) > 4 * len(holes) * EPS64 * total:
                raise Failure(f"epsilon {eps}: capacities sum to {caps!r}, mass {total!r}")
            if [(h.center, h.radius, h.cell_index) for h in back] != [
                (h.center, h.radius, h.cell_index) for h in holes
            ]:
                raise Failure(f"epsilon {eps}: hole CSV round trip is not bit-exact")
            if not (field.min() >= 0.0 and field.shape == (self.values["grid"],) * 3):
                raise Failure(f"epsilon {eps}: capacity density field is malformed")
            if not geometry.ok:
                failed += 1
                if tracer is not None:
                    tracer.count("holes.false_rejects")
                    tracer.count("holes.false_overlap_pairs", len(geometry.overlapping_pairs))
                    tracer.count(
                        "holes.false_inclusion_violations", len(geometry.inclusion_violations)
                    )
        return failed


NAMES = ("study-density", "study-plane", "lattice")


def make(name, seed, size, work):
    if name == "lattice":
        return Lattice(seed, size, work)
    return Study(name, seed, size, work)
