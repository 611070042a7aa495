import math
import tracemalloc

import numpy as np
import pytest

from perfhom.diagnostics import (
    assumption_quantities,
    capacity_density_field,
    dprime_pairing,
    hminus1_norm,
    ldc_deviation,
)
from perfhom.errors import InvalidParameterError
from perfhom.holes import Hole, HoleFamily, SeparationParams
from perfhom.inverse import construct_holes
from perfhom.potential import cell_average_field, lump_measure, make_box, make_constant, make_plane
from perfhom.solver import Grid, field_from_callable
from perfhom.tiling import TilingSpec, cell_axis_indices, cells_intersecting, unit_box
from pointwise import sine_mode


def build(mu, eps):
    spec = TilingSpec(3, eps)
    report = construct_holes(mu, spec, unit_box(3))
    cells = cells_intersecting(spec, unit_box(3))
    return spec, report, cells


def test_sum_a6_equals_total_mass_over_4pi_and_is_stable():
    mu = make_box(3, 1.0)
    values = []
    for eps in (0.25, 0.125, 0.0625):
        _, report, cells = build(mu, eps)
        quantities = assumption_quantities(report.holes, report.separation, cells)
        assert quantities.sum_A6 == pytest.approx(
            report.total_mass / (4.0 * math.pi), rel=1e-12
        )
        values.append(quantities.sum_A6)
    target = 1.0 / (4.0 * math.pi)
    for v in values:
        assert v == pytest.approx(target, rel=1e-12)


def test_sup_ratio_tracks_interior_radius():
    mu = make_box(3, 1.0)
    for eps in (0.25, 0.125):
        _, report, cells = build(mu, eps)
        quantities = assumption_quantities(report.holes, report.separation, cells)
        interior = (2.0 * eps) ** 3 / (4.0 * math.pi)
        assert quantities.sup_a_over_R == pytest.approx(interior / eps, rel=1e-12)


def test_assumption_trends_decrease_under_halving():
    mu = make_box(3, 1.0)
    rows = []
    for eps in (0.25, 0.125, 0.0625, 0.03125):
        _, report, cells = build(mu, eps)
        rows.append(assumption_quantities(report.holes, report.separation, cells))
    for name in ("sup_a_over_R", "sum_A2", "sum_A4"):
        series = [getattr(r, name) for r in rows]
        assert all(a > b for a, b in zip(series, series[1:])), name


def test_all_empty_holes_give_zero_quantities():
    eps = 0.25
    spec = TilingSpec(3, eps)
    cells = cells_intersecting(spec, unit_box(3))
    holes = HoleFamily.from_holes([Hole(c.center, 0.0, c.index) for c in cells], 3)
    quantities = assumption_quantities(holes, SeparationParams(1.0, eps), cells)
    assert quantities.sup_a_over_R == 0.0
    assert quantities.sum_A2 == 0.0
    assert quantities.sum_A4 == 0.0
    assert quantities.sum_A6 == 0.0
    assert quantities.sup_A3 == 2.0**3
    assert quantities.diam_over_R == pytest.approx(2.0 * math.sqrt(3.0))
    assert quantities.max_R == eps


def test_misaligned_holes_and_cells_rejected():
    _, report, cells = build(make_box(3, 1.0), 0.25)
    holes = list(report.holes)
    shuffled = HoleFamily.from_holes(holes[1:] + [holes[0]], 3)
    with pytest.raises(InvalidParameterError):
        assumption_quantities(shuffled, report.separation, cells)
    with pytest.raises(InvalidParameterError):
        assumption_quantities(HoleFamily.from_holes(holes[:-1], 3), report.separation, cells)


def test_hminus1_zero_and_exact_linearity():
    grid = Grid(3, 15)
    assert hminus1_norm(np.zeros(grid.shape), grid) == 0.0
    rng = np.random.default_rng(2)
    nu = rng.standard_normal(grid.shape)
    # doubling scales every CG operation by an exact power of two
    assert hminus1_norm(2.0 * nu, grid) == 2.0 * hminus1_norm(nu, grid)


def test_hminus1_eigenfunction_oracle():
    # prod sin(pi x) is an eigenfunction: exact norm ||nu|| / (sqrt(3) pi)
    grid = Grid(3, 63)
    nu = field_from_callable(grid, sine_mode((1, 1, 1)))
    exact = math.sqrt(1.0 / 8.0) / (math.sqrt(3.0) * math.pi)
    value = hminus1_norm(nu, grid)
    assert value == pytest.approx(exact, rel=0.01)


def test_hminus1_triangle_inequality():
    grid = Grid(3, 9)
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.standard_normal(grid.shape)
        b = rng.standard_normal(grid.shape)
        lhs = hminus1_norm(a + b, grid)
        rhs = hminus1_norm(a, grid) + hminus1_norm(b, grid)
        assert lhs <= rhs + 1e-10


def test_capacity_density_field_matches_cell_averages():
    mu = make_box(3, 1.0)
    eps = 0.25
    spec, report, _ = build(mu, eps)
    grid = Grid(3, 15)
    field = capacity_density_field(report.holes, spec, grid)
    averages = cell_average_field(mu, spec, unit_box(3)).by_index()
    xs = grid.axis()
    for i in (0, 7, 14):
        for j in (0, 7, 14):
            for k in (0, 7, 14):
                index = tuple(cell_axis_indices(spec.epsilon, xs[[i, j, k]]).tolist())
                assert field[i, j, k] == pytest.approx(averages[index], rel=1e-12)


def test_ldc_deviation_zero_for_empty_problem():
    spec = TilingSpec(3, 0.25)
    grid = Grid(3, 15)
    holes = HoleFamily.from_holes([Hole(c.center, 0.0, c.index) for c in cells_intersecting(spec, unit_box(3))], 3)
    assert ldc_deviation(holes, lump_measure(make_constant(3, 0.0), grid), spec, grid) == 0.0


@pytest.mark.parametrize("d, n", [(3, 63), (4, 7)])
def test_ldc_deviation_builds_the_deviation_in_the_lumped_measure(d, n):
    mu = make_box(d, 1.0)
    spec = TilingSpec(d, 0.25)
    holes = construct_holes(mu, spec, unit_box(d)).holes
    grid = Grid(d, n)
    lumped = lump_measure(mu, grid)
    expected = hminus1_norm(capacity_density_field(holes, spec, grid) - lumped, grid)
    target = lumped.copy()
    tracemalloc.start()
    try:
        assert ldc_deviation(holes, target, spec, grid) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the target is used up, and no second grid array was made
    assert not np.array_equal(target, lumped)
    if d == 3:
        assert peak < 0.5 * 8 * grid.size


def test_ldc_deviation_small_for_constant_density():
    # capacity density equals the cell averages exactly; the deviation is
    # only the averaging and boundary-cell error, and shrinks with eps
    mu = make_box(3, 1.0)
    grid = Grid(3, 31)
    deviations = []
    for eps in (0.25, 0.125):
        spec, report, _ = build(mu, eps)
        deviations.append(ldc_deviation(report.holes, lump_measure(mu, grid), spec, grid))
    assert deviations[1] < deviations[0]
    assert deviations[0] < 0.2


def test_ldc_deviation_plane_decreases():
    mu = make_plane(3, 0.5, 4.0)
    grid = Grid(3, 31)
    deviations = []
    for eps in (0.25, 0.125):
        spec, report, _ = build(mu, eps)
        deviations.append(ldc_deviation(report.holes, lump_measure(mu, grid), spec, grid))
    assert deviations[1] < deviations[0]


def test_dprime_rejects_nonvanishing_test_function():
    grid = Grid(3, 15)
    with pytest.raises(InvalidParameterError):
        dprime_pairing(HoleFamily.from_holes([], 3), lambda x: np.ones(x.shape[0]), grid)


def test_hole_capacity_pairing_approaches_target():
    # the hole-ball capacity density pairs like the target potential, with
    # the gap controlled by Lip(g) * sum(cap * cell diameter) plus the
    # cell-averaging error, both linear in epsilon
    mu = make_box(3, 1.0)
    g = sine_mode((1, 1, 1))
    exact = (2.0 / math.pi) ** 3  # integral of g over the unit cube
    lip = math.pi * math.sqrt(3.0)
    gaps = []
    bounds = []
    for eps in (0.25, 0.125, 0.0625):
        spec, report, cells = build(mu, eps)
        grid = Grid(3, 31)
        value = dprime_pairing(report.holes, g, grid)
        quantities = assumption_quantities(report.holes, report.separation, cells)
        # paper-style bound: cap-to-cell smearing plus cell averaging
        bound = 2.0 * lip * 4.0 * math.pi * quantities.sum_A4
        gaps.append(abs(value - exact))
        bounds.append(bound)
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    for gap, bound in zip(gaps, bounds):
        assert gap <= bound
