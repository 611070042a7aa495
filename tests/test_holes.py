import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfhom.capacity import BALL_MASK_INFLATION, capacity_ball
from perfhom.diagnostics import capacity_density_field, dprime_pairing
from perfhom.errors import InvalidParameterError, ResolutionError
from perfhom.holes import (
    Hole,
    HoleFamily,
    SeparationParams,
    disjointness_check,
    read_holes_csv,
    write_holes_csv,
)
from perfhom.inverse import construct_holes
from perfhom.potential import make_constant, make_plane
from perfhom.solver import Grid, hole_mask
from perfhom.tiling import TilingSpec, cell_axis_indices, cells_intersecting, unit_box
from pointwise import sine_mode


def test_hole_basics():
    hole = Hole((0.5, 0.5, 0.5), 0.1, (2, 2, 2))
    assert not hole.is_empty
    empty = Hole((0.0, 0.0, 0.0), 0.0, (0, 0, 0))
    assert empty.is_empty


def test_family_validates_its_arrays():
    centers = np.zeros((2, 3))
    index = np.zeros((2, 3), dtype=np.int64)
    family = HoleFamily(centers, [0.0, 0.1], index)
    assert len(family) == 2
    assert len(family.nonempty) == 1
    for bad in (
        (centers, [0.1], index),  # radii shorter than centers
        (centers, [0.1, 0.1], index[:, :2]),  # index of another dimension
        (centers[0], [0.1], index[0]),  # centers not (N, d)
        (centers, [0.1, np.nan], index),
        (np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]]), [0.1, 0.1], index),
        (np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]), [0.1, 0.1], index),
        (centers, [0.1, -0.5], index),
    ):
        with pytest.raises(InvalidParameterError):
            HoleFamily(*bad)
    with pytest.raises(InvalidParameterError):
        HoleFamily.from_holes([Hole((0.0, 0.0, 0.0), -0.5, (0, 0, 0))], 3)
    empty = HoleFamily.from_holes([], 3)
    assert len(empty) == 0
    assert empty.centers.shape == (0, 3) and empty.index.dtype == np.int64


def jittered_family(seed, m):
    """Jittered balls on the cells of pitch 1/m, about a third of them
    empty, plus one ball outside the unit cube."""
    rng = np.random.default_rng(seed)
    eps = 1.0 / m
    cells = cells_intersecting(TilingSpec(3, eps), unit_box(3))
    index = np.array([c.index for c in cells] + [(2 * m + 4, 2, 2)])
    centers = eps * index + rng.uniform(-0.3, 0.3, index.shape) * eps
    radii = rng.uniform(0.05, 0.45, len(index)) * eps
    radii[rng.random(len(index)) < 0.3] = 0.0
    radii[-1] = 0.1
    return HoleFamily(centers, radii, index)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([4, 6]),
    n=st.sampled_from([23, 31]),
)
def test_family_matches_per_hole_references(seed, m, n):
    family = jittered_family(seed, m)
    spec = TilingSpec(3, 1.0 / m)
    grid = Grid(3, n)
    h = grid.h
    ulps = 4096 * np.finfo(float).eps
    holes = list(family)
    assert all(isinstance(hole.center, tuple) for hole in holes)
    back = HoleFamily.from_holes(holes, 3)
    for name in ("centers", "radii", "index"):
        np.testing.assert_array_equal(getattr(back, name), getattr(family, name))
        assert getattr(back, name).dtype == getattr(family, name).dtype

    # capacity density: each hole fills the nodes of its own cell
    axis = cell_axis_indices(spec, grid.axis())
    expected = np.zeros(grid.shape)
    for hole in holes:
        cell_nodes = np.ix_(*[axis == i for i in hole.cell_index])
        expected[cell_nodes] = capacity_ball(3, hole.radius).value / (2.0 / m) ** 3
    field = capacity_density_field(family, spec, grid)
    assert np.all(np.abs(field - expected) <= ulps * np.abs(expected))

    # pairing: one capacity-weighted value of g per nonempty hole
    g = sine_mode((1, 2, 1))
    terms = [
        capacity_ball(3, hole.radius).value * float(g(np.array([hole.center]))[0])
        for hole in holes
        if not hole.is_empty
    ]
    got = dprime_pairing(family, g, grid)
    assert abs(got - math.fsum(terms)) <= ulps * math.fsum(map(abs, terms))

    # mask: a ball below the 2h resolution limit is rejected; without
    # those, nodes within the inflated radius of each resolved ball
    tiny = (family.radii > 0.0) & (family.radii < 2.0 * h)
    if tiny.any():
        with pytest.raises(ResolutionError):
            hole_mask(grid, family)
    keep = ~tiny
    resolved = HoleFamily(family.centers[keep], family.radii[keep], family.index[keep])
    xs = grid.axis()
    nodes = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    reference = np.zeros(grid.shape, dtype=bool)
    for hole in resolved.nonempty:
        masked = hole.radius + BALL_MASK_INFLATION * h
        reference |= ((nodes - np.array(hole.center)) ** 2).sum(axis=-1) <= masked**2
    np.testing.assert_array_equal(hole_mask(grid, resolved), reference)


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
    report = disjointness_check(HoleFamily.from_holes([a, b], 3), seps)
    assert report.disjoint
    # centers 1.9 apart: overlap reported as a pair
    c = Hole((1.9, 0.0, 0.0), 0.2, (2, 0, 0))
    report = disjointness_check(HoleFamily.from_holes([a, c], 3), seps)
    assert not report.disjoint
    assert report.overlapping_pairs == ((0, 1),)


def test_tangent_separation_balls_count_as_disjoint():
    seps = SeparationParams(c1=1.0, epsilon=0.25)
    a = Hole((0.0, 0.0, 0.0), 0.1, (0, 0, 0))
    b = Hole((0.5, 0.0, 0.0), 0.1, (2, 0, 0))
    assert disjointness_check(HoleFamily.from_holes([a, b], 3), seps).disjoint


def test_inclusion_requires_c1_at_most_one():
    # ball of radius c1*eps inside a box of half-width eps needs c1 <= 1
    hole = Hole((0.0, 0.0, 0.0), 0.05, (0, 0, 0))
    ok = disjointness_check(HoleFamily.from_holes([hole], 3), SeparationParams(c1=1.0, epsilon=0.25))
    assert ok.inclusion_ok
    bad = disjointness_check(HoleFamily.from_holes([hole], 3), SeparationParams(c1=1.2, epsilon=0.25))
    assert not bad.inclusion_ok
    assert bad.inclusion_violations == ((0, 0, 0),)


def test_csv_round_trip_is_exact(tmp_path):
    holes = HoleFamily.from_holes(
        [
            Hole((0.125, 0.25, 0.375), 1.2345678901234567e-3, (0, 2, 2)),
            Hole((1.0 / 3.0, math.pi / 10.0, 0.5), 0.0, (2, 0, 0)),
        ],
        3,
    )
    path = tmp_path / "holes.csv"
    write_holes_csv(holes, path)
    back = read_holes_csv(path)
    assert len(back) == len(holes)
    for orig, reread in zip(holes, back):
        assert reread.cell_index == orig.cell_index
        assert reread.center == orig.center
        assert reread.radius == orig.radius


@st.composite
def hole_families(draw):
    d = draw(st.integers(1, 4))
    count = draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    centers = draw(st.lists(finite, min_size=count * d, max_size=count * d))
    radii = draw(st.lists(st.floats(0.0, 1e300), min_size=count, max_size=count))
    # the CSV keeps indices exact up to 2**53
    index = draw(st.lists(st.integers(-(2**53), 2**53), min_size=count * d, max_size=count * d))
    return HoleFamily(
        np.reshape(centers, (count, d)),
        np.array(radii),
        np.reshape(np.array(index, dtype=np.int64), (count, d)),
    )


@settings(max_examples=100, deadline=None)
@given(hole_families())
def test_csv_round_trip_property(tmp_path_factory, family):
    path = tmp_path_factory.mktemp("csv") / "holes.csv"
    write_holes_csv(family, path)
    back = read_holes_csv(path)
    for name in ("centers", "radii", "index"):
        got, want = getattr(back, name), getattr(family, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        # bit for bit, so a signed zero must come back signed
        assert got.tobytes() == want.tobytes()


def one_format_csv(holes):
    """The reference CSV text: one ``%`` format over the whole table, the
    index columns through floats, as the writer did before it formatted
    each distinct value once."""
    d = holes.centers.shape[1]
    header = [f"i{k + 1}" for k in range(d)] + [f"cx{k + 1}" for k in range(d)] + ["radius"]
    row = ",".join(["%d"] * d + ["%.17g"] * (d + 1)) + "\r\n"
    table = np.column_stack([holes.index, holes.centers, holes.radii])
    return ",".join(header) + "\r\n" + (row * len(holes)) % tuple(table.ravel().tolist())


def signed_zero_family(dim, seed):
    """Random holes whose centers, radii and indices repeat values,
    including both zeros, subnormals and huge coordinates."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((300, dim))
    centers[::7] = 0.0
    centers[1::9] = -0.0
    centers[2::5, 0] = 1e-310
    centers[3::11, -1] = -1e300
    centers[4::6] = centers[5::6]
    radii = np.abs(rng.standard_normal(300))
    radii[::3] = 0.0
    radii[1::13] = 5e-324
    index = rng.integers(-(2**40), 2**40, size=(300, dim))
    index[::4] = 0
    return HoleFamily(centers, radii, index)


@pytest.mark.parametrize("case", ["constant", "plane", "random3", "random4"])
def test_csv_is_byte_identical_to_one_format(tmp_path, case):
    if case.startswith("random"):
        families = [signed_zero_family(int(case[-1]), seed) for seed in range(3)]
    else:
        mu = make_constant(3, 40.0) if case == "constant" else make_plane(3, 0.37, 20.0)
        families = [
            construct_holes(mu, TilingSpec(3, eps), unit_box(3), strict=False).holes
            for eps in (1 / 8, 1 / 14)
        ]
    for k, holes in enumerate(families):
        path = tmp_path / f"holes_{k}.csv"
        write_holes_csv(holes, path)
        assert path.read_bytes() == one_format_csv(holes).encode("ascii")


def test_csv_rejects_empty_list(tmp_path):
    with pytest.raises(InvalidParameterError):
        write_holes_csv(HoleFamily.from_holes([], 3), tmp_path / "holes.csv")


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
    holes = HoleFamily.from_holes(
        [Hole(tuple(c), 0.01, tuple(int(v) for v in i)) for c, i in zip(centers, index)], 3
    )
    limit = (2.0 * seps.R) ** 2
    expected = tuple(
        (i, j)
        for i in range(60)
        for j in range(i + 1, 60)
        if float(np.sum((centers[i] - centers[j]) ** 2)) < limit
    )
    assert expected
    assert disjointness_check(holes, seps).overlapping_pairs == expected


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("base", [-(2**40), -6, 2**40 - 8])
def test_shared_indices_found_far_apart_in_family_order(dim, base):
    # even indices, centers inside their cells and c1 = 1/2, so distinct
    # cells never overlap: the only pairs are holes sharing an index row,
    # found however far apart they sit in family order and whatever the
    # size or sign of the index
    rng = np.random.default_rng(dim)
    seps = SeparationParams(c1=0.5, epsilon=0.25)
    index = base + 2 * np.stack(
        np.meshgrid(*([np.arange(4)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    index = rng.permutation(index)
    # rows repeated at the far end of the family, and one right after itself
    index = np.concatenate([index, index[[0, len(index) // 2, 0]]])
    index = np.insert(index, 6, index[5], axis=0)
    centers = seps.epsilon * index + rng.uniform(-0.01, 0.01, index.shape)
    holes = HoleFamily(centers, np.full(len(index), 0.01), index)
    n = len(holes)
    expected = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if float(np.sum((centers[i] - centers[j]) ** 2)) < (2.0 * seps.R) ** 2
    )
    assert len(expected) >= 4 and any(j - i > n // 2 for i, j in expected)
    assert all(np.array_equal(index[i], index[j]) for i, j in expected)
    report = disjointness_check(holes, seps)
    assert report.overlapping_pairs == expected
    assert report.inclusion_ok and not report.disjoint
