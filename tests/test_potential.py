import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfhom.errors import EvaluationError, InvalidParameterError
from perfhom.potential import (
    CELL_MASS_GAUSS_ORDER,
    SURFACE_MIDPOINTS,
    Density,
    SumPotential,
    SurfaceGraph,
    bin_footprint,
    cell_average_field,
    cell_mass,
    cell_masses,
    make_box,
    make_constant,
    make_graph,
    make_plane,
    make_sine_density,
    max_cell_mass_scaling,
    parse_potential,
)
from perfhom.solver import Grid, lump_measure
from perfhom.tiling import (
    Box,
    Cell,
    CellFamily,
    TilingSpec,
    cell_axis_indices,
    cells_intersecting,
    unit_box,
)
from pointwise import box_quadrature, density_at, graph_at

EPS64 = np.finfo(float).eps


def gauss_oracle_lp_distance(field, mu, p, order=4):
    """Independent oracle: direct L^p quadrature of |field - mu| over the
    unit cube, cell by cell with boxes clipped to the cube."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for cell, value in zip(field.cells, field.values):
        lo = np.maximum(cell.epsilon * (np.asarray(cell.index) - 1), 0.0)
        hi = np.minimum(cell.epsilon * (np.asarray(cell.index) + 1), 1.0)
        if np.any(hi <= lo):
            continue
        axes_x, axes_w = [], []
        for k in range(3):
            mid, half = 0.5 * (lo[k] + hi[k]), 0.5 * (hi[k] - lo[k])
            axes_x.append(mid + half * ref_x)
            axes_w.append(half * ref_w)
        grids = np.meshgrid(*axes_x, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.multiply.outer(np.multiply.outer(axes_w[0], axes_w[1]), axes_w[2]).ravel()
        total += float((np.abs(value - density_at(mu, pts)) ** p) @ w)
    return total ** (1.0 / p)


def test_constant_density_cell_mass_exact():
    mu = make_constant(3, 1.0)
    for eps in (0.5, 0.25, 0.1):
        cell = Cell((0, 0, 0), eps)
        assert cell_mass(mu, cell) == pytest.approx((2 * eps) ** 3, rel=1e-14)


def test_flat_plane_cell_mass_is_footprint_area():
    mu = make_plane(3, 0.0, 1.0)
    eps = 0.25
    cell = Cell((0, 0, 0), eps)  # z range (-0.25, 0.25] contains 0
    assert cell_mass(mu, cell) == pytest.approx((2 * eps) ** 2, rel=1e-14)


def test_cell_away_from_graph_has_zero_mass():
    mu = make_plane(3, 0.5, 1.0)
    cell = Cell((0, 0, 4), 0.125)  # z range (0.375, 0.625] would contain it
    assert cell_mass(mu, cell) > 0.0
    far = Cell((0, 0, 0), 0.125)  # z range (-0.125, 0.125]
    assert cell_mass(mu, far) == 0.0


def test_plane_on_cell_face_counted_once():
    # z0 = 0.25 sits exactly on the face between cells (.., 0) and (.., 2)
    # at eps = 1/8; the half-open convention assigns it to the lower cell
    mu = make_plane(3, 0.25, 1.0)
    spec_eps = 0.125
    below = Cell((0, 0, 2), spec_eps)  # z range (0.125, 0.375] -> contains 0.25?
    above = Cell((0, 0, 4), spec_eps)
    masses = [cell_mass(mu, c) for c in (below, above)]
    assert sum(m > 0 for m in masses) == 1
    owner = cell_axis_indices(TilingSpec(3, spec_eps), 0.25)
    assert masses[0 if owner == 2 else 1] > 0


def test_additivity_of_sums_is_exact():
    parts = [make_constant(3, 0.7), make_plane(3, 0.5, 2.0)]
    total = SumPotential(tuple(parts))
    cell = Cell((2, 2, 2), 0.25)
    assert cell_mass(total, cell) == cell_mass(parts[0], cell) + cell_mass(parts[1], cell)


def test_surface_mass_is_linear_in_scalar_weight():
    # the weight multiplies every sample's area element, so masses and
    # lumped values scale with it; by a power of two, bit for bit
    graph = make_graph(3, 0.5, 0.1, 2.0)
    cells = cells_intersecting(TilingSpec(3, 1 / 8), unit_box(3))
    grid = Grid(3, 23)
    unit = cell_masses(graph, cells), lump_measure(graph, grid)
    for weight in (0.0, 0.25, 4.0):
        scaled = dataclasses.replace(graph, weight=weight)
        assert np.array_equal(cell_masses(scaled, cells), weight * unit[0])
        assert np.array_equal(lump_measure(scaled, grid), weight * unit[1])
    # otherwise within the rounding of a sum of n = 16^2 samples per bin
    scaled = dataclasses.replace(graph, weight=3.7)
    bound = 2 * SURFACE_MIDPOINTS**2 * EPS64
    np.testing.assert_allclose(cell_masses(scaled, cells), 3.7 * unit[0], rtol=bound, atol=0)
    np.testing.assert_allclose(lump_measure(scaled, grid), 3.7 * unit[1], rtol=bound, atol=0)


def test_partition_consistency_constant_density():
    mu = make_constant(3, 2.0)
    spec = TilingSpec(3, 0.25)
    field = cell_average_field(mu, spec, unit_box(3))
    lows = spec.epsilon * (field.cells.index - 1)
    highs = spec.epsilon * (field.cells.index + 1)
    covered = float(np.prod(highs.max(axis=0) - lows.min(axis=0)))
    assert field.total_mass == pytest.approx(2.0 * covered, rel=1e-13)


def test_partition_consistency_plane():
    # every footprint sample lands in exactly one cell of its column
    weight = 3.0
    mu = make_plane(3, 0.5, weight)
    spec = TilingSpec(3, 0.25)
    field = cell_average_field(mu, spec, unit_box(3))
    lows = spec.epsilon * (field.cells.index - 1)
    highs = spec.epsilon * (field.cells.index + 1)
    span = highs.max(axis=0) - lows.min(axis=0)
    assert field.total_mass == pytest.approx(weight * span[0] * span[1], rel=1e-13)


def test_cell_average_of_constant_is_constant():
    mu = make_constant(3, 4.2)
    field = cell_average_field(mu, TilingSpec(3, 0.25), unit_box(3))
    np.testing.assert_allclose(field.values, 4.2, rtol=1e-14)


def test_box_density_boundary_cells_get_fractional_mass():
    mu = make_box(3, 1.0)
    spec = TilingSpec(3, 0.25)
    field = cell_average_field(mu, spec, unit_box(3))
    by_index = field.by_index()
    full = (2 * 0.25) ** 3
    assert by_index[(2, 2, 2)] == pytest.approx(1.0, rel=1e-14)  # interior
    assert by_index[(0, 2, 2)] == pytest.approx(0.5, rel=1e-14)  # face cell
    assert by_index[(0, 0, 2)] == pytest.approx(0.25, rel=1e-14)  # edge cell
    assert by_index[(0, 0, 0)] == pytest.approx(0.125, rel=1e-14)  # corner cell
    assert field.total_mass == pytest.approx(1.0, rel=1e-13)
    assert full  # silence linters about unused constant


def test_plane_average_field_scales_like_inverse_epsilon():
    weight = 1.0
    for eps in (0.25, 0.125):
        field = cell_average_field(make_plane(3, 0.5, weight), TilingSpec(3, eps), unit_box(3))
        nonzero = field.values[field.values > 0]
        np.testing.assert_allclose(nonzero, weight / (2 * eps), rtol=1e-13)


def test_smooth_density_cell_averages_converge_first_order():
    # pairwise orders climb toward 1 as the cells shrink; the fitted-order
    # assertion on the asymptotic range lives in the acceptance suite
    mu = make_sine_density(3, 1.0)
    eps_list = [0.25, 0.125, 0.0625, 0.03125]
    distances = []
    for eps in eps_list:
        field = cell_average_field(mu, TilingSpec(3, eps), unit_box(3))
        distances.append(gauss_oracle_lp_distance(field, mu, p=3))
    slopes = [
        np.log(a / b) / np.log(2.0) for a, b in zip(distances, distances[1:])
    ]
    assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))
    assert slopes[-1] >= 0.9


def test_max_cell_mass_scaling_exponents():
    eps_list = [0.25, 0.125, 0.0625, 0.03125]
    plane = max_cell_mass_scaling(make_plane(3, 0.5, 1.0), 3, unit_box(3), eps_list)
    assert plane.exponent == pytest.approx(2.0, abs=1e-9)
    bulk = max_cell_mass_scaling(make_constant(3, 1.0), 3, unit_box(3), eps_list)
    assert bulk.exponent == pytest.approx(3.0, abs=1e-9)
    zero = max_cell_mass_scaling(make_constant(3, 0.0), 3, unit_box(3), eps_list)
    assert zero.degenerate
    with pytest.raises(InvalidParameterError):
        max_cell_mass_scaling(plane and make_constant(3, 1.0), 3, unit_box(3), [0.25, 0.125])


def test_curved_graph_mass_exceeds_flat_footprint():
    # area element sqrt(1 + |grad s|^2) > 1 wherever the graph tilts
    graph = make_graph(3, 0.5, 0.05, 1.0, 1.0)
    cell = Cell((2, 2, 4), 0.125)
    flat = make_plane(3, 0.5, 1.0)
    curved_mass = cell_mass(graph, cell)
    # the graph exits the cell for part of the footprint, so compare
    # against the flat mass restricted to where the graph stays inside
    assert curved_mass > 0.0
    assert cell_mass(flat, cell) > 0.0


def test_graph_gradient_matches_finite_differences():
    graph = make_graph(3, 0.5, 0.07, 1.5, 1.0)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    # include points where one sine factor vanishes exactly
    pts = np.vstack([pts, [[0.5, 0.3], [1.0 / 3.0, 2.0 / 3.0]]])
    analytic = graph_at(graph, pts)[1]
    delta = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = delta
        fd = (graph_at(graph, pts + shift)[0] - graph_at(graph, pts - shift)[0]) / (2 * delta)
        np.testing.assert_allclose(analytic[:, axis], fd, atol=1e-6)
    # gradient bounded by |A| omega sqrt(d-1)
    omega = 2.0 * math.pi * 1.5
    lip = 0.07 * omega * math.sqrt(2.0)
    assert np.all(np.sqrt((analytic**2).sum(axis=1)) <= lip + 1e-12)


def ones(t):
    return np.ones_like(t)


def test_nonfinite_density_raises():
    bad = Density((ones, lambda t: np.full(t.shape, np.inf), ones))
    with pytest.raises(EvaluationError):
        cell_mass(bad, Cell((0, 0, 0), 0.25))
    with pytest.raises(EvaluationError):
        lump_measure(bad, Grid(3, 7))


def test_negative_density_rejected():
    bad = Density((ones, ones, lambda t: -np.ones_like(t)))
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        cell_mass(bad, Cell((0, 0, 0), 0.25))
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        lump_measure(bad, Grid(3, 7))


def test_parse_potential_constructors():
    mu = parse_potential("constant(40)", 3)
    assert isinstance(mu, Density)
    assert cell_mass(mu, Cell((0, 0, 0), 0.25)) == pytest.approx(40 * 0.125, rel=1e-14)

    combo = parse_potential("sum([box(1), plane(0.5, 8)])", 3)
    assert isinstance(combo, SumPotential)
    assert len(combo.parts) == 2

    graph = parse_potential("graph(0.5, 0.1, 2, 1.5)", 3)
    assert isinstance(graph, SurfaceGraph)

    with pytest.raises(InvalidParameterError):
        parse_potential("__import__('os')", 3)
    with pytest.raises(InvalidParameterError):
        parse_potential("unknown(1)", 3)
    with pytest.raises(InvalidParameterError):
        parse_potential("1 + 2", 3)


def reference_cell_mass(mu, cell):
    """Independent per-cell reference: tensor Gauss over the cell box for
    densities; for graphs, footprint midpoints whose lifted point lies in
    the half-open cell ``(lower, upper]``."""
    if isinstance(mu, SumPotential):
        return sum(reference_cell_mass(part, cell) for part in mu.parts)
    lo = cell.epsilon * (np.asarray(cell.index) - 1)
    hi = cell.epsilon * (np.asarray(cell.index) + 1)
    if isinstance(mu, Density):
        ref_x, ref_w = np.polynomial.legendre.leggauss(CELL_MASS_GAUSS_ORDER)
        axes = [0.5 * (lo[k] + hi[k]) + 0.5 * (hi[k] - lo[k]) * ref_x for k in range(3)]
        w = [0.5 * (hi[k] - lo[k]) * ref_w for k in range(3)]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        return float(density_at(mu, pts) @ np.einsum("i,j,k->ijk", *w).ravel())
    refine = SURFACE_MIDPOINTS
    axes = [lo[k] + (hi[k] - lo[k]) * (np.arange(refine) + 0.5) / refine for k in range(2)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    z, grads = graph_at(mu, pts)
    keep = (lo[2] < z) & (z <= hi[2])
    element = np.sqrt(1.0 + (grads[keep] ** 2).sum(axis=1))
    return float(mu.weight * element.sum() * np.prod((hi[:2] - lo[:2]) / refine))


@settings(max_examples=8, deadline=None)
@given(z0=st.floats(0.0, 1.0), m=st.sampled_from([10, 12, 14, 20]))
@example(z0=0.5, m=12)
@example(z0=1.0, m=20)
def test_batched_cell_masses_match_per_cell_reference(z0, m):
    # the lattice potential: every cell carries density mass; the graph
    # part alone leaves most cells empty, and those must stay exactly zero;
    # z0 near 0 or 1 lifts part of the graph out of the cell family
    mu = parse_potential(f"sum([sine_density(2), graph({z0!r}, 0.1, 2, 20)])", 3)
    spec = TilingSpec(3, 1.0 / m)
    cells = cells_intersecting(spec, unit_box(3))
    bound = 4096 * np.finfo(float).eps
    for potential in (mu, mu.parts[1]):
        masses = cell_average_field(potential, spec, unit_box(3)).masses
        expected = np.array([reference_cell_mass(potential, cell) for cell in cells])
        np.testing.assert_array_equal(masses == 0.0, expected == 0.0)
        assert np.all(np.abs(masses - expected) <= bound * expected)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def add_at_footprint(mu, axes, area, bins, shape):
    """Reference binning: every sample of the footprint ``product(axes)``
    at once, ``weight * sqrt(1 + |grad|^2) * area`` added by ``np.add.at``
    in footprint order into the bin of ``bins(k, coords)`` on each axis.
    Heights and gradients are the factor products of ``graph_at``."""
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    heights, grads = graph_at(mu, pts)
    norm2 = sum(grads[:, k] * grads[:, k] for k in range(grads.shape[1]))
    mass = mu.weight * np.sqrt(1.0 + norm2) * area
    idx = [bins(k, pts[:, k]) for k in range(pts.shape[1])]
    idx.append(bins(len(idx), heights))
    keep = np.logical_and.reduce([(i >= 0) & (i < n) for i, n in zip(idx, shape)])
    dense = np.zeros(shape)
    np.add.at(dense, tuple(i[keep] for i in idx), mass[keep])
    return dense


def binned_lump(bin_samples, mu, grid, refine):
    """``lump_measure`` of a surface measure (or a sum of them) over
    ``refine`` midpoints per grid spacing, its footprint binned by
    ``bin_samples``: :func:`bin_footprint` or the ``add_at_footprint``
    reference."""
    if isinstance(mu, SumPotential):
        out = grid.zeros()
        for part in mu.parts:
            out += binned_lump(bin_samples, part, grid, refine)
        return out
    m = (grid.n + 1) * refine
    axis = (np.arange(m) + 0.5) * (1.0 / m)

    def dual_cell(k, c):
        idx = np.clip(np.ceil(c / grid.h - 0.5), 1, grid.n).astype(int) - 1
        return np.where((c > 0.0) & (c < 1.0), idx, -1)

    area = (1.0 / m) ** (grid.dim - 1)
    out = bin_samples(mu, [axis] * (grid.dim - 1), area, dual_cell, grid.shape)
    out /= grid.h**grid.dim
    return out


def binned_cell_masses(bin_samples, mu, cells, refine):
    """``cell_masses`` of a surface measure over ``refine`` midpoints per
    cell width and axis, the footprints of the family's cell columns
    binned by ``bin_samples``, as in :func:`binned_lump`."""
    eps, index = cells.epsilon, cells.index
    spec = TilingSpec(index.shape[1], eps)
    lo = index.min(axis=0)
    shape = tuple((index.max(axis=0) - lo) // 2 + 1)
    t = np.arange(refine) + 0.5
    axes = []
    for k in range(spec.dim - 1):
        column = lo[k] + 2 * np.arange(shape[k])
        low, high = eps * (column - 1), eps * (column + 1)
        axes.append((low[:, None] + (high - low)[:, None] * t / refine).ravel())
    area = (2.0 * eps / refine) ** (spec.dim - 1)
    dense = bin_samples(
        mu, axes, area, lambda k, c: (cell_axis_indices(spec, c) - lo[k]) // 2, shape
    )
    return dense[tuple(((index - lo) // 2).T)]


def tilted_sheet(dim):
    """A weighted product graph ``0.3 + 0.5 prod_k (1 + a_k x_k)`` that
    leaves the unit cube through its top face, so part of its footprint
    lifts out of every binning."""
    slopes = np.linspace(0.3, 0.6, dim - 1).tolist()
    return SurfaceGraph(
        0.3,
        0.5,
        tuple((lambda t, a=a: 1.0 + a * t) for a in slopes),
        tuple((lambda t, a=a: np.full(t.shape, a)) for a in slopes),
        weight=1.7,
    )


@pytest.mark.parametrize(
    "spec, n, refine",
    [
        ("plane(0.5, 20)", 47, 16),
        ("plane(0.37, 3)", 31, 16),
        ("graph(0.5, 0.1, 2, 20)", 47, 16),
        ("graph(0.45, 0.2, 1, 3)", 23, 5),
        ("sum([plane(0.3, 2), graph(0.6, 0.15, 1, 3)])", 31, 16),
        ("tilted", 15, 7),
    ],
)
def test_lump_measure_bins_as_add_at_over_whole_footprint(spec, n, refine):
    mu = tilted_sheet(3) if spec == "tilted" else parse_potential(spec, 3)
    grid = Grid(3, n)
    if refine == SURFACE_MIDPOINTS:
        got = lump_measure(mu, grid)
    else:
        # other midpoint counts split the footprint runs differently
        got = binned_lump(bin_footprint, mu, grid, refine)
    assert_bits_equal(got, binned_lump(add_at_footprint, mu, grid, refine))


@pytest.mark.parametrize(
    "dim, eps, domain, refine",
    [
        (3, 1 / 12, None, 16),
        (3, 1 / 8, Box((-0.3, 0.1, 0.2), (0.6, 1.3, 0.9)), 7),
        (3, 1 / 3, None, 16),
        (4, 1 / 4, None, 6),
    ],
)
def test_cell_masses_bin_as_add_at_over_whole_footprint(dim, eps, domain, refine):
    cells = cells_intersecting(TilingSpec(dim, eps), domain or unit_box(dim))
    # the steeper graph, whose period does not divide the cells, keeps the
    # rounding of |grad|^2 visible in the bins
    shapes = ((0.5, 0.1, 2, 20), (0.5, 0.3, 2.3), (0.9, 0.2, 1, 3))
    graphs = [make_graph(dim, *args) for args in shapes]
    for mu in (*graphs, tilted_sheet(dim)):
        if refine == SURFACE_MIDPOINTS:
            got = cell_masses(mu, cells)
        else:
            got = binned_cell_masses(bin_footprint, mu, cells, refine)
        assert_bits_equal(got, binned_cell_masses(add_at_footprint, mu, cells, refine))


def flat_sheet(dim, z0):
    """A flat graph that is no ``plane``: amplitude 0 over factors that are
    not constant, weight 1.3."""
    return SurfaceGraph(
        z0,
        0.0,
        tuple((lambda t, a=a: 1.0 + a * t) for a in range(1, dim)),
        tuple((lambda t, a=a: np.full(t.shape, float(a))) for a in range(1, dim)),
        weight=1.3,
    )


# flat sheets off the node and cell planes, on them, and outside the cube
FLAT_HEIGHTS = (0.503, 0.37, 0.5, 0.25, 1.2, -0.3, 1.0)


@pytest.mark.parametrize("z0", FLAT_HEIGHTS)
@pytest.mark.parametrize("n, refine", [(47, 16), (15, 16), (23, 5)])
def test_flat_lump_measure_bins_as_add_at_over_whole_footprint(z0, n, refine):
    # the counted flat path against add.at over every sample
    grid = Grid(3, n)
    for mu in (make_plane(3, z0, 20.0), flat_sheet(3, z0)):
        if refine == SURFACE_MIDPOINTS:
            got = lump_measure(mu, grid)
        else:
            got = binned_lump(bin_footprint, mu, grid, refine)
        assert_bits_equal(got, binned_lump(add_at_footprint, mu, grid, refine))
        assert (got.sum() > 0.0) == (0.0 < z0 < 1.0)


@pytest.mark.parametrize("z0", FLAT_HEIGHTS)
@pytest.mark.parametrize(
    "dim, eps, domain, refine",
    [
        (3, 1 / 12, None, 16),
        (3, 1 / 8, Box((-0.3, -0.2, -0.4), (1.3, 1.1, 1.4)), 7),
        (4, 1 / 4, Box((-0.3,) * 4, (1.2,) * 4), 6),
    ],
)
def test_flat_cell_masses_bin_as_add_at_over_whole_footprint(z0, dim, eps, domain, refine):
    cells = cells_intersecting(TilingSpec(dim, eps), domain or unit_box(dim))
    for mu in (make_plane(dim, z0, 3.7), flat_sheet(dim, z0)):
        if refine == SURFACE_MIDPOINTS:
            got = cell_masses(mu, cells)
        else:
            got = binned_cell_masses(bin_footprint, mu, cells, refine)
        assert_bits_equal(got, binned_cell_masses(add_at_footprint, mu, cells, refine))


def test_flat_sheet_heights_overflow_as_the_samples_do():
    # amplitude 0 times an overflowing factor product is NaN, sample by
    # sample, so the counted flat path must refuse the sheet too
    huge = SurfaceGraph(
        0.5, 0.0, (lambda t: np.full(t.shape, 1e200),) * 2, (lambda t: np.zeros(t.shape),) * 2
    )
    with np.errstate(over="ignore", invalid="ignore"):
        heights, _ = graph_at(huge, np.full((1, 2), 0.5))
    assert np.isnan(heights).all()
    with pytest.raises(EvaluationError, match="graph height"):
        lump_measure(huge, Grid(3, 15))


@pytest.mark.parametrize("dim", [3, 4])
def test_registry_callables_match_axis_reductions(dim):
    # points inside and outside the unit cube, on its faces, and with
    # exact zero sine factors (0 and -0 coordinates)
    rng = np.random.default_rng(dim)
    x = rng.uniform(-0.5, 1.5, size=(4000, dim))
    x[::7, 0] = 0.0
    x[1::11, dim - 2] = -0.0
    x[2::13, 1] = 1.0
    x[3::17] = 0.0
    x[4::5, -1] = rng.uniform(0.0, 1.0, size=x[4::5].shape[0])
    inside = np.all((x > 0.0) & (x < 1.0), axis=1)
    assert inside.any() and not inside.all()

    # the factor products against the pointwise formulas: equal support,
    # values within the rounding of a d-fold product
    sine = density_at(make_sine_density(dim, 2.5), x)
    want = np.where(inside, 2.5 * np.prod(np.sin(np.pi * x), axis=1), 0.0)
    np.testing.assert_array_equal(sine == 0.0, want == 0.0)
    np.testing.assert_allclose(sine, want, rtol=2 * dim * EPS64, atol=0)
    in_box = np.all((x > 0.2) & (x < 0.7), axis=1)
    assert_bits_equal(density_at(make_box(dim, 3.0, 0.2, 0.7), x), np.where(in_box, 3.0, 0.0))
    assert_bits_equal(density_at(make_constant(dim, 4.5), x), np.full(len(x), 4.5))

    xp = x[:, :-1]
    for z0, amplitude, frequency in ((0.5, 0.1, 2.0), (0.3, -0.25, 1.5)):
        graph = make_graph(dim, z0, amplitude, frequency)
        omega = 2.0 * math.pi * frequency
        heights, grads = graph_at(graph, xp)
        s, c = np.sin(omega * xp), np.cos(omega * xp)
        assert_bits_equal(heights, z0 + amplitude * np.prod(s, axis=1))
        for k in range(dim - 1):
            want = amplitude * omega * c[:, k] * np.prod(np.delete(s, k, axis=1), axis=1)
            scale = abs(amplitude) * omega
            assert np.all(np.abs(grads[:, k] - want) <= 2 * dim * EPS64 * scale)
    plane = make_plane(dim, 0.4, 2.0)
    heights, grads = graph_at(plane, xp)
    assert_bits_equal(heights, np.full(len(x), 0.4))
    assert np.array_equal(grads, np.zeros_like(xp))


def lattice_cells(dim, eps, per_axis):
    """The cells with even indices ``0, 2, ..., 2 (per_axis - 1)`` on each
    axis; built directly, so that ``dim = 2`` is possible."""
    axis = 2 * np.arange(per_axis)
    index = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    return CellFamily(index, eps)


def node_points(grid):
    return np.stack(np.meshgrid(*([grid.axis()] * grid.dim), indexing="ij"), axis=-1).reshape(
        -1, grid.dim
    )


@pytest.mark.parametrize("dim, n", [(2, 29), (3, 13), (4, 7)])
def test_factor_rules_match_pointwise_tensor_gauss(dim, n):
    # cell masses (order 4) and lumped values (order 2) against the tensor
    # Gauss rule evaluated point by point.  Both sides round sums of
    # nonnegative terms and a dim-fold product, so they agree within
    # 4 dim ulps (5.6 at most seen, in 4D); the box's faces fall inside
    # cells and dual cells, so some Gauss points of each miss it
    eps = 1.0 / 6.0
    cells = lattice_cells(dim, eps, 4)
    grid = Grid(dim, n)
    h = grid.h
    bound = 4 * dim * EPS64
    densities = make_constant(dim, 2.5), make_box(dim, 3.0, 0.23, 0.71), make_sine_density(dim, 1.7)
    for mu in densities:
        pointwise = lambda x: density_at(mu, x)  # noqa: E731
        masses = box_quadrature(pointwise, eps * cells.index, eps, 4)
        lumped = box_quadrature(pointwise, node_points(grid), 0.5 * h, 2) / h**dim
        for got, want in (
            (cell_masses(mu, cells), masses),
            (lump_measure(mu, grid).ravel(), lumped),
        ):
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= bound * want)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("c", [0.0, 1.0 / 3.0, 40.0, 80.0, 1e300])
def test_constant_lumps_to_itself_exactly(dim, c):
    # factor averages with weights 1/2 and 1/2 keep a constant, and the
    # other factors are 1
    lumped = lump_measure(make_constant(dim, c), Grid(dim, 9))
    assert lumped.shape == (9,) * dim and np.all(lumped == c)


class CountedFactor:
    """A factor that records how many coordinates each call receives."""

    def __init__(self, factor):
        self.factor, self.sizes = factor, []

    def __call__(self, t):
        assert t.ndim == 1
        self.sizes.append(t.size)
        return self.factor(t)


def counted(mu):
    if isinstance(mu, Density):
        return Density(tuple(map(CountedFactor, mu.factors)))
    return dataclasses.replace(
        mu,
        factors=tuple(map(CountedFactor, mu.factors)),
        slopes=tuple(map(CountedFactor, mu.slopes)),
    )


def test_factors_are_evaluated_per_axis_not_per_point():
    # lumping on n^3 evaluates each density factor on 2n coordinates; cell
    # masses on 4 per cell index present on its axis; a graph factor or
    # slope on each footprint coordinate at most once.  Evaluation point
    # by point would take n^3, 4^3 per cell or the whole footprint
    n = 15
    density = counted(make_sine_density(3, 2.0))
    lump_measure(density, Grid(3, n))
    assert [sum(f.sizes) for f in density.factors] == [2 * n] * 3

    cells = cells_intersecting(TilingSpec(3, 1.0 / 12.0), Box((0.1, 0.0, 0.2), (0.9, 1.0, 0.5)))
    density = counted(make_box(3, 1.0, 0.2, 0.8))
    cell_masses(density, cells)
    distinct = [np.unique(cells.index[:, k]).size for k in range(3)]
    assert [sum(f.sizes) for f in density.factors] == [4 * m for m in distinct]

    graph = counted(make_graph(3, 0.5, 0.1, 2.0))
    lump_measure(graph, Grid(3, n))
    footprint = (n + 1) * SURFACE_MIDPOINTS
    for f in graph.factors + graph.slopes:
        assert 0 < sum(f.sizes) <= footprint
    graph = counted(make_graph(3, 0.5, 0.1, 2.0))
    cell_masses(graph, cells)
    for k, f in enumerate(graph.factors + graph.slopes):
        assert 0 < sum(f.sizes) <= distinct[k % 2] * SURFACE_MIDPOINTS


def test_factor_errors_keep_their_types():
    cell = Cell((0, 0, 0), 0.25)
    grid = Grid(3, 7)
    flat = make_plane(3, 0.1)
    # a non-finite graph factor or slope
    for field in ("factors", "slopes"):
        bad = dataclasses.replace(flat, **{field: (ones, lambda t: np.full(t.shape, np.nan))})
        with pytest.raises(EvaluationError):
            cell_mass(bad, cell)
        with pytest.raises(EvaluationError):
            lump_measure(bad, grid)
    # a negative or non-finite weight
    for weight in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="weight"):
            dataclasses.replace(flat, weight=weight)
    # finite factors whose product overflows
    huge = Density((lambda t: np.full(t.shape, 1e200),) * 3)
    with pytest.raises(EvaluationError, match="overflows"):
        cell_mass(huge, cell)
    with pytest.raises(InvalidParameterError, match="lumped measure must be finite"):
        lump_measure(huge, grid)
    big = (lambda t: np.full(t.shape, 1e200),) * 2
    high = SurfaceGraph(0.1, 1.0, big, (ones, ones))  # the height overflows
    steep = SurfaceGraph(-0.9, 1.0, (ones, ones), big)  # |grad s|^2 overflows
    for mu in (high, steep):
        with pytest.raises(EvaluationError, match="overflows"):
            cell_mass(mu, cell)
    with pytest.raises(EvaluationError, match="overflows"):
        lump_measure(high, grid)
    with pytest.raises(InvalidParameterError, match="lumped measure must be finite"):
        lump_measure(dataclasses.replace(steep, offset=-0.5), grid)
    # a factor count other than d for densities and d - 1 for graphs
    three = dataclasses.replace(flat, factors=(ones,) * 3, slopes=(ones,) * 3)
    for mu in (Density((ones, ones)), three):
        with pytest.raises(InvalidParameterError, match="factors"):
            cell_mass(mu, cell)
        with pytest.raises(InvalidParameterError, match="factors"):
            lump_measure(mu, grid)
    with pytest.raises(InvalidParameterError, match="slopes"):
        dataclasses.replace(flat, slopes=(ones,))
    # a factor that does not keep the shape of its coordinates
    with pytest.raises(InvalidParameterError, match="shape"):
        lump_measure(Density((ones, ones, lambda t: 1.0)), grid)
    # an empty family has no masses
    empty = CellFamily(np.zeros((0, 3), dtype=np.int64), 0.25)
    for mu in (make_sine_density(3, 1.0), flat, SumPotential((flat, make_constant(3, 1.0)))):
        masses = cell_masses(mu, empty)
        assert masses.shape == (0,) and masses.dtype == np.float64
