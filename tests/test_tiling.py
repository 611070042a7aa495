import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfhom.errors import InvalidParameterError
from perfhom.tiling import (
    Box,
    Cell,
    TilingSpec,
    cell_axis_indices,
    cells_intersecting,
    unit_box,
)


def brute_force_cells(spec, domain):
    """Independent oracle: test every candidate index of a generous window
    by interval overlap, in ``itertools.product`` (lexicographic) order."""
    eps = spec.epsilon
    windows = [
        range(2 * math.floor(lo / eps / 2) - 4, 2 * math.ceil(hi / eps / 2) + 5, 2)
        for lo, hi in zip(domain.lo, domain.hi)
    ]
    return [
        index
        for index in itertools.product(*windows)
        if all(
            lo < eps * (i + 1) and eps * (i - 1) < hi
            for lo, hi, i in zip(domain.lo, domain.hi, index)
        )
    ]


def test_unit_cube_half_epsilon_gives_eight_cells():
    spec = TilingSpec(3, 0.5)
    cells = cells_intersecting(spec, unit_box(3))
    indices = [c.index for c in cells]
    assert len(cells) == 8
    assert indices == brute_force_cells(spec, unit_box(3))
    assert set(indices) == {(i, j, k) for i in (0, 2) for j in (0, 2) for k in (0, 2)}
    centers = {c.center for c in cells}
    assert centers == {(i * 0.5, j * 0.5, k * 0.5) for i in (0, 2) for j in (0, 2) for k in (0, 2)}


def test_epsilon_one_single_covering_cell():
    cells = cells_intersecting(TilingSpec(3, 1.0), unit_box(3))
    assert [c.index for c in cells] == [(0, 0, 0)]


def test_intersections_never_empty_for_nonempty_domain():
    for eps in (0.3, 0.11, 2.7):
        box = Box((4.2, -1.3, 0.05), (4.3, -1.2, 0.15))
        assert cells_intersecting(TilingSpec(3, eps), box)


def test_lexicographic_order_and_uniqueness():
    cells = cells_intersecting(TilingSpec(3, 0.25), unit_box(3))
    indices = [c.index for c in cells]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def test_cell_geometry_fields():
    cell = Cell((2, 0, -4), 0.25)
    assert cell.center == (0.5, 0.0, -1.0)
    spec = TilingSpec(3, cell.epsilon)
    assert tuple(cell_axis_indices(spec, cell.center).tolist()) == cell.index


def test_cell_axis_indices_half_open_convention():
    spec = TilingSpec(3, 0.5)
    # upper faces belong to the lower cell
    coords = [0.0, 0.5, 0.5 + 1e-12, -0.5, -0.5 + 1e-12]
    assert cell_axis_indices(spec, coords).tolist() == [0, 0, 2, -2, 0]


def test_partition_property_random_points():
    rng = np.random.default_rng(7)
    spec = TilingSpec(3, 0.125)
    domain = unit_box(3)
    index = cells_intersecting(spec, domain).index
    lows, highs = spec.epsilon * (index - 1), spec.epsilon * (index + 1)
    points = rng.uniform(0.0, 1.0, size=(500, 3))
    for x in points:
        owners = np.flatnonzero(np.all((lows < x) & (x <= highs), axis=1))
        assert len(owners) == 1
        assert cell_axis_indices(spec, x).tolist() == index[owners[0]].tolist()


def test_cell_count_brackets_domain_volume():
    domain = unit_box(3)
    for eps in (0.5, 0.25, 0.125):
        spec = TilingSpec(3, eps)
        index = cells_intersecting(spec, domain).index
        measure = (2.0 * eps) ** 3
        fully_inside = np.all((eps * (index - 1) >= 0.0) & (eps * (index + 1) <= 1.0), axis=1)
        assert measure * fully_inside.sum() <= 1.0 <= measure * len(index)


def assert_matches_oracle(spec, domain):
    cells = cells_intersecting(spec, domain)
    assert cells.index.dtype == np.int64
    assert cells.index.tolist() == [list(i) for i in brute_force_cells(spec, domain)]
    centers = np.array([cell.center for cell in cells])
    assert centers.tobytes() == (spec.epsilon * cells.index).astype(float).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([3, 4]),
    eps=st.sampled_from([0.5, 0.25, 0.125, 0.3, 0.11, 1.0 / 3.0]),
    data=st.data(),
)
def test_cells_intersecting_matches_product_oracle(dim, eps, data):
    # corners on cell faces (odd multiples of eps) and centers are drawn
    # as often as arbitrary floats; widths go below one cell
    corner = st.one_of(st.floats(-1.5, 1.5), st.integers(-12, 12).map(lambda k: k * eps))
    size = st.one_of(st.floats(1e-3, 1.0), st.integers(1, 4).map(lambda k: k * eps))
    lo = [data.draw(corner) for _ in range(dim)]
    hi = [l + data.draw(size) for l in lo]
    assert_matches_oracle(TilingSpec(dim, eps), Box(tuple(lo), tuple(hi)))


@pytest.mark.parametrize("eps", [0.25, 1.0 / 3.0])
def test_cells_intersecting_keeps_cells_past_rounded_quotients(eps):
    # a corner on the face 0.75; at eps = 1/3 the lower corner 1 - 2^-53
    # lies below the face 3 eps = 1 and the upper corner -10/3 + 1/3 above
    # the face -9 eps, while both quotients round onto the face
    lo = (0.75, 1.0 - 2.0**-53, -10.0 * eps)
    hi = (1.25, 1.1 - 2.0**-53, -10.0 * eps + eps)
    assert_matches_oracle(TilingSpec(3, eps), Box(lo, hi))


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        TilingSpec(2, 0.5)
    with pytest.raises(InvalidParameterError):
        TilingSpec(3, 0.0)
    with pytest.raises(InvalidParameterError):
        TilingSpec(3, -1.0)
    with pytest.raises(InvalidParameterError):
        TilingSpec(3, float("inf"))
    with pytest.raises(InvalidParameterError):
        Box((0.0, 0.0), (1.0,))
