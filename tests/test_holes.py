import math

import numpy as np
import pytest

from perfhom.errors import InvalidParameterError
from perfhom.holes import (
    Hole,
    SeparationParams,
    disjointness_check,
    read_holes_csv,
    write_holes_csv,
)
from perfhom.inverse import construct_holes
from perfhom.potential import make_constant
from perfhom.tiling import TilingSpec, unit_box


def test_hole_basics():
    hole = Hole((0.5, 0.5, 0.5), 0.1, (2, 2, 2))
    assert not hole.is_empty
    assert hole.diameter == 0.2
    empty = Hole((0.0, 0.0, 0.0), 0.0, (0, 0, 0))
    assert empty.is_empty
    with pytest.raises(InvalidParameterError):
        Hole((0.0, 0.0, 0.0), -0.5, (0, 0, 0))


def test_separation_params():
    seps = SeparationParams(c1=1.0, epsilon=0.25)
    assert seps.R == 0.25
    assert seps.margin(0.1) == pytest.approx(0.15)
    with pytest.raises(InvalidParameterError):
        SeparationParams(c1=0.0, epsilon=0.25)


def test_disjointness_distance_gap():
    # centers 2.1 apart with R = 1 each: disjoint
    seps = SeparationParams(c1=1.0, epsilon=1.0)
    a = Hole((0.0, 0.0, 0.0), 0.2, (0, 0, 0))
    b = Hole((2.1, 0.0, 0.0), 0.2, (2, 0, 0))
    report = disjointness_check([a, b], seps)
    assert report.disjoint
    # centers 1.9 apart: overlap reported as a pair
    c = Hole((1.9, 0.0, 0.0), 0.2, (2, 0, 0))
    report = disjointness_check([a, c], seps)
    assert not report.disjoint
    assert report.overlapping_pairs == ((0, 1),)


def test_tangent_separation_balls_count_as_disjoint():
    seps = SeparationParams(c1=1.0, epsilon=0.25)
    a = Hole((0.0, 0.0, 0.0), 0.1, (0, 0, 0))
    b = Hole((0.5, 0.0, 0.0), 0.1, (2, 0, 0))
    assert disjointness_check([a, b], seps).disjoint


def test_inclusion_requires_c1_at_most_one():
    # ball of radius c1*eps inside a box of half-width eps needs c1 <= 1
    hole = Hole((0.0, 0.0, 0.0), 0.05, (0, 0, 0))
    ok = disjointness_check([hole], SeparationParams(c1=1.0, epsilon=0.25))
    assert ok.inclusion_ok
    bad = disjointness_check([hole], SeparationParams(c1=1.2, epsilon=0.25))
    assert not bad.inclusion_ok
    assert bad.inclusion_violations == ((0, 0, 0),)


def test_csv_round_trip_is_exact(tmp_path):
    holes = [
        Hole((0.125, 0.25, 0.375), 1.2345678901234567e-3, (0, 2, 2)),
        Hole((1.0 / 3.0, math.pi / 10.0, 0.5), 0.0, (2, 0, 0)),
    ]
    path = tmp_path / "holes.csv"
    write_holes_csv(holes, path)
    back = read_holes_csv(path)
    assert len(back) == len(holes)
    for orig, reread in zip(holes, back):
        assert reread.cell_index == orig.cell_index
        assert reread.center == orig.center
        assert reread.radius == orig.radius


def test_csv_rejects_empty_list(tmp_path):
    with pytest.raises(InvalidParameterError):
        write_holes_csv([], tmp_path / "holes.csv")


@pytest.mark.parametrize("denominator", [6, 10, 12])
def test_centered_lattice_passes_at_non_dyadic_pitches(denominator):
    # centers eps * index round differently from the cell faces, but the
    # balls are disjoint and inside their cells by construction
    report = construct_holes(
        make_constant(3, 1.0), TilingSpec(3, 1.0 / denominator), unit_box(3)
    )
    geometry = disjointness_check(report.holes, report.separation)
    assert geometry.ok
    assert geometry.overlapping_pairs == ()
    assert geometry.inclusion_violations == ()


def test_pairs_match_all_pairs_scan():
    # jittered holes, some sharing an index, some odd: the pairs reported must
    # be exactly those of a brute-force scan over all pairs
    rng = np.random.default_rng(0)
    seps = SeparationParams(c1=0.8, epsilon=0.25)
    index = rng.integers(0, 4, size=(50, 3))
    index = np.concatenate([index, index[:10]])
    centers = seps.epsilon * index + rng.uniform(-0.06, 0.06, size=(60, 3))
    holes = [Hole(tuple(c), 0.01, tuple(int(v) for v in i)) for c, i in zip(centers, index)]
    limit = (2.0 * seps.R) ** 2
    expected = tuple(
        (i, j)
        for i in range(60)
        for j in range(i + 1, 60)
        if float(np.sum((centers[i] - centers[j]) ** 2)) < limit
    )
    assert expected
    assert disjointness_check(holes, seps).overlapping_pairs == expected
