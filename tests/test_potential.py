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
from perfhom.tiling import Box, Cell, TilingSpec, cell_axis_indices, cells_intersecting, unit_box


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
        total += float((np.abs(value - mu.f(pts)) ** p) @ w)
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


def test_weighted_surface_bounded_by_sup_weight():
    flat = make_plane(3, 0.5, 1.0)
    weight_fn = lambda xp: 0.5 + 0.5 * np.sin(np.pi * xp[:, 0]) ** 2
    weighted = SurfaceGraph(height=flat.height, grad=flat.grad, weight=weight_fn)
    cell = Cell((2, 2, 4), 0.125)
    assert cell_mass(weighted, cell) <= 1.0 * cell_mass(flat, cell) + 1e-15


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
    analytic = graph.grad(pts)
    delta = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = delta
        fd = (graph.height(pts + shift) - graph.height(pts - shift)) / (2 * delta)
        np.testing.assert_allclose(analytic[:, axis], fd, atol=1e-6)
    # gradient bounded by |A| omega sqrt(d-1)
    omega = 2.0 * math.pi * 1.5
    lip = 0.07 * omega * math.sqrt(2.0)
    assert np.all(np.sqrt((analytic**2).sum(axis=1)) <= lip + 1e-12)


def test_nonfinite_density_raises():
    bad = Density(f=lambda x: np.full(x.shape[0], np.inf))
    with pytest.raises(EvaluationError):
        cell_mass(bad, Cell((0, 0, 0), 0.25))


def test_negative_density_rejected():
    bad = Density(f=lambda x: -np.ones(x.shape[0]))
    with pytest.raises(InvalidParameterError):
        cell_mass(bad, Cell((0, 0, 0), 0.25))


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
        return float(mu.f(pts) @ np.einsum("i,j,k->ijk", *w).ravel())
    refine = SURFACE_MIDPOINTS
    axes = [lo[k] + (hi[k] - lo[k]) * (np.arange(refine) + 0.5) / refine for k in range(2)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    z = mu.height(pts)
    keep = (lo[2] < z) & (z <= hi[2])
    element = np.sqrt(1.0 + (mu.grad(pts[keep]) ** 2).sum(axis=1))
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
    in footprint order into the bin of ``bins(k, coords)`` on each axis."""
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    grads = mu.grad(pts)
    norm2 = sum(grads[:, k] * grads[:, k] for k in range(grads.shape[1]))
    weight = mu.weight(pts) if callable(mu.weight) else mu.weight
    mass = weight * np.sqrt(1.0 + norm2) * area
    idx = [bins(k, pts[:, k]) for k in range(pts.shape[1])]
    idx.append(bins(len(idx), mu.height(pts)))
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
    """A graph with a callable weight that leaves the unit cube through its
    top face, so part of its footprint lifts out of every binning."""
    slope = np.linspace(0.3, 0.6, dim - 1)
    return SurfaceGraph(
        height=lambda xp: 0.6 + xp @ slope,
        grad=lambda xp: np.broadcast_to(slope, xp.shape),
        weight=lambda xp: 1.0 + np.cos(3.0 * xp[:, 0]),
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


def old_graph_grad(xp, amplitude, omega):
    """``make_graph``'s gradient written with axis reductions."""
    s = np.sin(omega * xp)
    c = np.cos(omega * xp)
    prod = np.prod(s, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s != 0.0, prod / s, 0.0)
    for row in np.nonzero((s == 0.0).any(axis=1))[0]:
        for k in range(xp.shape[1]):
            ratio[row, k] = np.prod(np.delete(s[row], k))
    return amplitude * omega * c * ratio


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

    sine = make_sine_density(dim, 2.5).f(x)
    assert_bits_equal(sine, np.where(inside, 2.5 * np.prod(np.sin(np.pi * x), axis=1), 0.0))
    in_box = np.all((x > 0.2) & (x < 0.7), axis=1)
    assert_bits_equal(make_box(dim, 3.0, 0.2, 0.7).f(x), np.where(in_box, 3.0, 0.0))

    xp = x[:, :-1]
    for z0, amplitude, frequency in ((0.5, 0.1, 2.0), (0.3, -0.25, 1.5)):
        graph = make_graph(dim, z0, amplitude, frequency)
        omega = 2.0 * math.pi * frequency
        assert_bits_equal(graph.height(xp), z0 + amplitude * np.prod(np.sin(omega * xp), axis=1))
        assert_bits_equal(graph.grad(xp), old_graph_grad(xp, amplitude, omega))
