import json
import math

import numpy as np
import pytest

from perfhom.capacity import capacity_ball
from perfhom.errors import ConstructionError
from perfhom.inverse import construct_holes
from perfhom.potential import (
    cell_average_field,
    make_box,
    make_constant,
    make_plane,
    make_sine_density,
    make_sum,
)
from perfhom.tiling import TilingSpec, unit_box


def test_radius_formula_hand_value():
    # mu = 1, eps = 0.1: cell mass (0.2)^3 = 8e-3, radius = 8e-3 / (4 pi)
    report = construct_holes(make_constant(3, 1.0), TilingSpec(3, 0.1), unit_box(3))
    expected = 0.008 / (4.0 * math.pi)  # = 6.3662e-4
    assert expected == pytest.approx(6.3662e-4, rel=1e-4)
    for hole in report.holes:
        assert hole.radius == pytest.approx(expected, rel=1e-12)


def test_zero_mass_cells_keep_empty_holes():
    report = construct_holes(make_plane(3, 0.5, 1.0), TilingSpec(3, 0.125), unit_box(3))
    empties = [h for h in report.holes if h.is_empty]
    assert empties
    # indexing stays total: one hole per intersecting cell
    from perfhom.tiling import cells_intersecting

    cells = cells_intersecting(TilingSpec(3, 0.125), unit_box(3))
    assert len(report.holes) == len(cells)
    assert [h.cell_index for h in report.holes] == [c.index for c in cells]


def test_critical_scaling_slope_is_three():
    eps_list = [0.25, 0.125, 0.0625, 0.03125]
    radii = []
    for eps in eps_list:
        report = construct_holes(make_constant(3, 1.0), TilingSpec(3, eps), unit_box(3))
        radii.append(max(h.radius for h in report.holes))
    slope = np.polyfit(np.log(eps_list), np.log(radii), 1)[0]
    assert slope == pytest.approx(3.0, abs=1e-9)


def test_capacity_realization_is_exact(quad_rel=1e-12):
    potentials = [
        make_constant(3, 7.0),
        make_box(3, 3.0),
        make_plane(3, 0.5, 5.0),
        make_sine_density(3, 4.0),
        make_sum(3, [make_box(3, 1.0), make_plane(3, 0.5, 2.0)]),
    ]
    spec = TilingSpec(3, 0.125)
    for mu in potentials:
        field = cell_average_field(mu, spec, unit_box(3))
        report = construct_holes(mu, spec, unit_box(3))
        for hole, mass, value in zip(report.holes, field.masses, field.values):
            realized = capacity_ball(3, hole.radius).value
            if mass == 0.0:
                assert realized == 0.0
            else:
                assert abs(realized - mass) <= quad_rel * mass
                density = realized / (2 * spec.epsilon) ** 3
                assert abs(density - value) <= quad_rel * value


def test_radius_monotone_in_potential():
    spec = TilingSpec(3, 0.125)
    small = construct_holes(make_box(3, 1.0), spec, unit_box(3))
    large = construct_holes(make_box(3, 2.0), spec, unit_box(3))
    for a, b in zip(small.holes, large.holes):
        if a.radius > 0:
            assert b.radius > a.radius


def test_oversized_hole_raises_and_names_cell():
    mu = make_constant(3, 40.0)
    spec = TilingSpec(3, 0.25)  # radius 5/(4 pi) = 0.398 >= 0.25
    with pytest.raises(ConstructionError) as err:
        construct_holes(mu, spec, unit_box(3))
    assert "cell" in str(err.value)
    report = construct_holes(mu, spec, unit_box(3), strict=False)
    assert report.max_radius_ratio > 1.0
    assert max(h.radius for h in report.holes) == pytest.approx(5.0 / (4 * math.pi), rel=1e-12)


def test_empty_potential_builds_empty_family():
    report = construct_holes(make_constant(3, 0.0), TilingSpec(3, 0.25), unit_box(3))
    assert all(h.is_empty for h in report.holes)
    assert report.total_mass == 0.0
    assert report.max_radius_ratio == 0.0


def test_report_serialization(tmp_path):
    report = construct_holes(make_box(3, 1.0), TilingSpec(3, 0.25), unit_box(3))
    csv_path = tmp_path / "holes.csv"
    json_path = tmp_path / "holes.json"
    report.write(csv_path, json_path)
    header = json.loads(json_path.read_text())
    assert header["epsilon"] == 0.25
    assert header["c1"] == 1.0
    assert header["total_mass"] == pytest.approx(1.0, rel=1e-12)
    assert csv_path.exists()
