import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfhom import solver
from perfhom.capacity import ball_potential_radial
from perfhom.cg import pcg, rhs_norm
from perfhom.errors import (
    EvaluationError,
    GeometryError,
    InvalidParameterError,
    ResolutionError,
    SolverError,
)
from perfhom.holes import Hole, HoleFamily, SeparationParams
from perfhom.inverse import construct_holes
from perfhom.potential import (
    SURFACE_MIDPOINTS,
    make_box,
    make_constant,
    make_graph,
    make_plane,
    make_sine_density,
    parse_potential,
)
from perfhom.solver import (
    Grid,
    corrector_field,
    field_from_callable,
    hole_mask,
    l2_distance,
    l2_norm,
    lump_measure,
    read_field,
    restrict,
    rhs_spectrum,
    solve_limit,
    sine_mode_field,
    solve_perforated,
    weak_witness,
    write_field,
)
from pointwise import box_quadrature, density_at, graph_at
from perfhom.stencil import sine_transform
from perfhom.tiling import TilingSpec, unit_box

EPS64 = np.finfo(float).eps


def product_sine(x):
    return np.prod(np.sin(np.pi * x), axis=1)


def manufactured_fields(n, shift=0.0):
    grid = Grid(3, n)
    u_exact = field_from_callable(grid, product_sine)
    f = (3.0 * math.pi**2 + shift) * u_exact
    return grid, u_exact, f


def max_err(a, b):
    return float(np.abs(a - b).max())


def test_poisson_manufactured_second_order():
    errors = {}
    for n in (15, 31):
        grid, u_exact, f = manufactured_fields(n)
        u, stats = solve_perforated(f, HoleFamily.from_holes([], 3), grid, tol=1e-11)
        errors[n] = max_err(u, u_exact)
        assert stats.residual <= 1e-11
    ratio = errors[15] / errors[31]
    assert 3.5 <= ratio <= 4.5


def test_limit_manufactured_second_order():
    m = 10.0
    errors = {}
    for n in (15, 31):
        grid, u_exact, f = manufactured_fields(n, shift=m)
        u, _ = solve_limit(f, np.full(grid.shape, m), grid, tol=1e-11)
        errors[n] = max_err(u, u_exact)
    ratio = errors[15] / errors[31]
    assert 3.5 <= ratio <= 4.5


def test_hole_covering_domain_gives_zero_solution():
    grid = Grid(3, 15)
    hole = Hole((0.5, 0.5, 0.5), 2.0, (0, 0, 0))
    f = np.ones(grid.shape)
    u, stats = solve_perforated(f, HoleFamily.from_holes([hole], 3), grid)
    assert np.all(u == 0.0)
    assert stats.iterations == 0


def test_zero_extension_and_comparison_principle():
    grid = Grid(3, 31)
    f = np.ones(grid.shape)
    plain, _ = solve_perforated(f, HoleFamily.from_holes([], 3), grid, tol=1e-11)
    hole = Hole((0.5, 0.5, 0.5), 0.15, (0, 0, 0))
    pierced, _ = solve_perforated(f, HoleFamily.from_holes([hole], 3), grid, tol=1e-11)
    mask = hole_mask(grid, HoleFamily.from_holes([hole], 3))
    assert np.all(pierced[mask] == 0.0)
    assert np.all(pierced >= -1e-12)
    assert np.all(pierced <= plain + 1e-10)
    # adding another hole decreases the solution nodewise
    second = Hole((0.25, 0.25, 0.25), 0.1, (0, 0, 0))
    more, _ = solve_perforated(f, HoleFamily.from_holes([hole, second], 3), grid, tol=1e-11)
    assert np.all(more <= pierced + 1e-10)


def test_under_resolved_hole_rejected():
    grid = Grid(3, 15)
    tiny = Hole((0.5, 0.5, 0.5), 0.01, (0, 0, 0))
    with pytest.raises(ResolutionError):
        hole_mask(grid, HoleFamily.from_holes([tiny], 3))


def test_lump_constant_density_is_exact():
    grid = Grid(3, 15)
    w = lump_measure(make_constant(3, 2.5), grid)
    np.testing.assert_allclose(w, 2.5, rtol=1e-13)
    # on a dyadic grid the lumping rule reproduces the constant bit for bit
    for n in (15, 63):
        assert np.all(lump_measure(make_constant(3, 40.0), Grid(3, n)) == 40.0)


def test_lump_plane_concentrates_on_node_layer():
    weight = 20.0
    n = 15  # h = 1/16, node layer exactly at z = 1/2
    grid = Grid(3, n)
    w = lump_measure(make_plane(3, 0.5, weight), grid)
    h = grid.h
    layer = w[:, :, 7]
    off_layer = np.delete(w, 7, axis=2)
    assert np.all(off_layer == 0.0)
    # interior nodes of the layer carry weight / h; the outermost ring
    # also absorbs the half-spacing skin next to the boundary
    np.testing.assert_allclose(layer[1:-1, 1:-1], weight / h, rtol=1e-12)
    np.testing.assert_allclose(layer[0, 1:-1], 1.5 * weight / h, rtol=1e-12)
    np.testing.assert_allclose(layer[0, 0], 2.25 * weight / h, rtol=1e-12)
    total = float(w.sum()) * h**3
    assert total == pytest.approx(weight, rel=1e-12)


def one_pass_graph_lump(graph, grid, refine):
    """Dual-cell masses of a graph measure from one pass over all of its
    footprint samples: the same midpoints and half-open dual cells as
    ``lump_measure``, binned at once."""
    m = (grid.n + 1) * refine
    axis = (np.arange(m) + 0.5) * (1.0 / m)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    z, grads = graph_at(graph, pts)
    mass = graph.weight * np.sqrt(1.0 + (grads**2).sum(axis=1)) / m**2

    def dual_cell(c):
        return np.clip(np.ceil(c / grid.h - 0.5), 1, grid.n).astype(int) - 1

    inside = (z > 0.0) & (z < 1.0)
    lin = np.ravel_multi_index(
        (dual_cell(gx.ravel()[inside]), dual_cell(gy.ravel()[inside]), dual_cell(z[inside])),
        grid.shape,
    )
    return np.bincount(lin, weights=mass[inside], minlength=grid.size).reshape(grid.shape)


@settings(max_examples=20, deadline=None)
@given(
    z0=st.floats(0.3, 0.7),
    amplitude=st.floats(-0.2, 0.2),
    frequency=st.sampled_from([1.0, 2.0]),
    weight=st.floats(0.5, 50.0),
    n=st.integers(3, 40),
)
@example(z0=0.5, amplitude=0.05, frequency=1.0, weight=2.0, n=31)
def test_lump_curved_graph_total_matches_direct_quadrature(z0, amplitude, frequency, weight, n):
    graph = make_graph(3, z0, amplitude, frequency, weight)  # surface stays inside the cube
    grid = Grid(3, n)
    lumped = lump_measure(graph, grid) * grid.h**3
    # independent oracle: midpoint quadrature of the weighted area element
    m = 1024
    axis = (np.arange(m) + 0.5) / m
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grads = graph_at(graph, np.stack([gx.ravel(), gy.ravel()], axis=-1))[1]
    reference = weight * float(np.sqrt(1.0 + (grads**2).sum(axis=1)).sum()) / m**2
    assert float(lumped.sum()) == pytest.approx(reference, rel=1e-4)
    # lumping strip by strip bins every sample as one pass over the whole
    # footprint does
    one_pass = one_pass_graph_lump(graph, grid, SURFACE_MIDPOINTS)
    assert np.abs(lumped - one_pass).max() <= 4096 * EPS64 * one_pass.sum()


@pytest.mark.parametrize("n", [15, 31])
def test_lump_density_order_two_is_within_h4_of_order_four(n):
    # the 2-point rule lumping uses against the 4-point rule of construction
    grid = Grid(3, n)
    mu = make_sine_density(3, 2.0)
    h = grid.h
    w2 = lump_measure(mu, grid)
    pts = np.stack(np.meshgrid(*([grid.axis()] * 3), indexing="ij"), axis=-1).reshape(-1, 3)
    w4 = box_quadrature(lambda x: density_at(mu, x), pts, 0.5 * h, 4).reshape(grid.shape) / h**3
    deviation = float(np.abs(w2 - w4).max())
    assert 0.0 < deviation <= h**4 * float(np.abs(w4).max())


@pytest.mark.parametrize("spec", ["plane(0.5, 20)", "constant(40)"])
def test_lump_measure_peak_memory_is_a_few_grid_arrays(spec):
    # the output plus scratch of O(n^2): no array spans every node or
    # every footprint sample at once
    grid = Grid(3, 47)
    mu = parse_potential(spec, 3)
    tracemalloc.start()
    try:
        lump_measure(mu, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * grid.size


def test_limit_reduces_to_poisson_for_zero_measure():
    grid = Grid(3, 15)
    f = field_from_callable(grid, lambda x: 1.0 + x[:, 0])
    u_limit, _ = solve_limit(f, np.zeros(grid.shape), grid, tol=1e-10)
    u_plain, _ = solve_perforated(f, HoleFamily.from_holes([], 3), grid, tol=1e-10)
    np.testing.assert_array_equal(u_limit, u_plain)


def test_shared_base_is_one_read_only_solve(transforms):
    # the base the solves of f share is its spectrum: one forward
    # transform, half a solve, in f's own array, which no caller can
    # modify afterwards; a second transform gives f back
    grid = Grid(3, 15)
    f = field_from_callable(grid, lambda x: 1.0 + x[:, 0])
    kept = f.copy()
    rhs = rhs_spectrum(f, grid)
    assert transforms == [("sine_transform", 15)]
    assert rhs.values is f and rhs.grid == grid
    assert rhs.norm == rhs_norm(kept)
    assert not rhs.values.flags.writeable
    with pytest.raises(ValueError):
        rhs.values[0, 0, 0] = 1.0
    np.testing.assert_array_equal(rhs.values, sine_transform(kept.copy(), grid.h))
    back = sine_transform(rhs.values.copy(), grid.h)
    assert np.linalg.norm(back - kept) <= 1e-14 * np.linalg.norm(kept)


def test_rhs_spectrum_checks_f_before_transforming():
    grid = Grid(3, 7)
    with pytest.raises(InvalidParameterError):
        rhs_spectrum(np.ones((7, 7)), grid)
    f = np.ones(grid.shape)
    f[1, 2, 3] = np.nan
    with pytest.raises(EvaluationError):
        rhs_spectrum(f, grid)
    assert np.isnan(f[1, 2, 3]) and f.flags.writeable
    # a spectrum is read on its own grid only
    rhs = rhs_spectrum(np.ones(grid.shape), grid)
    with pytest.raises(InvalidParameterError):
        solve_limit(rhs, np.zeros((5, 5, 5)), Grid(3, 5))


def test_nonfinite_rhs_rejected_before_iterating():
    grid = Grid(3, 15)
    f = np.ones(grid.shape)
    f[3, 4, 5] = np.nan
    with pytest.raises(EvaluationError):
        solve_perforated(f, HoleFamily.from_holes([], 3), grid)
    f[3, 4, 5] = np.inf
    with pytest.raises(EvaluationError):
        solve_limit(f, np.zeros(grid.shape), grid)
    # finite, but the norm overflows: no iterate could be trusted
    with pytest.raises(EvaluationError):
        solve_perforated(np.full(grid.shape, 1e300), HoleFamily.from_holes([], 3), grid)


def test_pcg_aborts_when_residual_turns_nonfinite():
    calls = []

    def broken(v):
        calls.append(1)
        return np.full_like(v, np.nan)

    with pytest.raises(SolverError, match="non-finite"):
        pcg(broken, np.ones(50), maxiter=1000)
    assert len(calls) == 1


def test_limit_monotone_in_measure():
    grid = Grid(3, 15)
    f = np.ones(grid.shape)
    w = np.full(grid.shape, 5.0)
    u1, _ = solve_limit(f, w, grid, tol=1e-11)
    u2, _ = solve_limit(f, 2.0 * w, grid, tol=1e-11)
    assert np.all(u2 <= u1 + 1e-10)
    with pytest.raises(InvalidParameterError):
        solve_limit(f, -w, grid)


def test_spd_with_random_nonnegative_weights():
    rng = np.random.default_rng(11)
    grid = Grid(3, 9)
    f = rng.standard_normal(grid.shape)
    w = rng.uniform(0.0, 50.0, grid.shape)
    u, stats = solve_limit(f, w, grid, tol=1e-10)
    assert stats.residual <= 1e-10
    assert np.all(np.isfinite(u))


def test_corrector_plateau_values():
    spec = TilingSpec(3, 0.25)
    report = construct_holes(make_box(3, 20.0), spec, unit_box(3))
    grid = Grid(3, 24)  # h = 1/25, no node hits a hole center
    w, v_norm = corrector_field(report.holes, report.separation, grid)
    xs = grid.axis()
    centers = np.array([h.center for h in report.holes if not h.is_empty])
    radii = np.array([h.radius for h in report.holes if not h.is_empty])
    pts = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    dists = np.sqrt(((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
    inside_hole = (dists <= radii[None, :]).any(axis=1)
    outside_all = (dists >= report.separation.R).all(axis=1)
    flat = w.ravel()
    assert np.all(flat[inside_hole] == 0.0)
    assert np.all(flat[outside_all] == 1.0)
    assert 0.0 < v_norm < 1.0


def test_corrector_matches_per_hole_sum():
    # a centered lattice with radii from 0 to near R on the corners, edges,
    # faces and center of the cube, and one valid cell outside it whose
    # node box is empty: against 1 - sum_i cutoff_i H_i over every node
    seps = SeparationParams(c1=0.8, epsilon=0.25)
    R = seps.R
    index = [(i, j, k) for i in (0, 2, 4) for j in (0, 2, 4) for k in (0, 2, 4)] + [(-2, 2, 2)]
    radii = np.random.default_rng(5).uniform(0.0, 0.95 * R, len(index))
    radii[0] = 0.0
    holes = HoleFamily.from_holes(
        [Hole(tuple(seps.epsilon * np.array(i)), a, i) for i, a in zip(index, radii)], 3
    )
    grid = Grid(3, 24)
    w, v_norm = corrector_field(holes, seps, grid)
    pts = np.stack(np.meshgrid(*[grid.axis()] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    deviation = np.zeros(len(pts))
    for center, a in zip(holes.centers, holes.radii):
        if a > 0.0:
            r = np.sqrt(((pts - center) ** 2).sum(axis=1))
            deviation += solver._cutoff((r - a) / (R - a)) * ball_potential_radial(r, a, 3)
    np.testing.assert_allclose(w.ravel(), 1.0 - deviation, rtol=0.0, atol=4096 * EPS64)
    assert v_norm == pytest.approx(math.sqrt((deviation**2).sum() * grid.h**3), rel=4096 * EPS64)
    # the corrector adds the cutoff over a whole node box: it must vanish
    # exactly from t = 1 on
    for t in (1.0, 1.5, 1e300):
        assert solver._cutoff(np.array([t])).tolist() == [0.0]


def test_corrector_norm_decreases_with_epsilon():
    grid = Grid(3, 24)
    norms = []
    for eps in (0.25, 0.125):
        report = construct_holes(make_box(3, 1.0), TilingSpec(3, eps), unit_box(3))
        _, v_norm = corrector_field(report.holes, report.separation, grid)
        norms.append(v_norm)
    assert norms[1] < norms[0]


def test_corrector_rejects_bad_geometry():
    grid = Grid(3, 15)
    seps = SeparationParams(c1=1.0, epsilon=0.25)
    overlapping = HoleFamily.from_holes(
        [
            Hole((0.4, 0.5, 0.5), 0.05, (2, 2, 2)),
            Hole((0.5, 0.5, 0.5), 0.05, (2, 2, 2)),
        ],
        3,
    )
    with pytest.raises(GeometryError):
        corrector_field(overlapping, seps, grid)
    oversized = HoleFamily.from_holes([Hole((0.5, 0.5, 0.5), 0.3, (2, 2, 2))], 3)
    with pytest.raises(GeometryError):
        corrector_field(oversized, seps, grid)


def test_weak_witness_identities():
    grid = Grid(3, 15)
    e = np.random.default_rng(3).standard_normal(grid.shape)
    mode = (2, 1, 3)
    assert weak_witness(np.zeros(grid.shape), mode, grid) == 0.0
    # linear in the error field, exactly for a power-of-two factor
    assert weak_witness(2.0 * e, mode, grid) == 2.0 * weak_witness(e, mode, grid)
    # against its own mode the pairing is a squared seminorm
    assert weak_witness(sine_mode_field(grid, mode), mode, grid) > 0.0
    with pytest.raises(InvalidParameterError):
        weak_witness(e, (1, 1), grid)
    # a fractional sine has no zero trace: the eigenvalue identity is false
    for bad in (1.5, math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="positive integers"):
            weak_witness(e, (bad, 1, 1), grid)


def pad_and_diff_witness(e, g, grid):
    """The definition of the pairing: forward differences of the
    zero-padded fields along every axis, summed."""
    total = 0.0
    for ax in range(grid.dim):
        pad = [(0, 0)] * grid.dim
        pad[ax] = (1, 1)
        total += float(np.sum(np.diff(np.pad(e, pad), axis=ax) * np.diff(np.pad(g, pad), axis=ax)))
    return total * grid.h ** (grid.dim - 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_weak_witness_matches_pad_and_diff(d, data):
    n = data.draw(st.integers(1, {1: 40, 2: 20, 3: 10, 4: 6}[d]))
    # modes above n alias to modes up to n, or vanish on the nodes
    mode = tuple(data.draw(st.lists(st.integers(1, n), min_size=d, max_size=d)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grid = Grid(d, n)
    e = rng.standard_normal(grid.shape)
    g = sine_mode_field(grid, mode)
    # both forms sum at most (2d + 1) n^d products whose magnitudes add up
    # to at most 4d sum|e| max|g| h^(d-2); the rounded mode is an
    # eigenvector of -Delta_h up to the rounding of its sines, about
    # (pi m + 2d) ulps
    scale = 4 * d * float(np.abs(e).sum()) * grid.h ** (d - 2)
    bound = EPS64 * scale * (
        4 * (2 * d + 1) * grid.size * float(np.abs(g).max()) + 4 * (math.pi * max(mode) + 2 * d)
    )
    assert abs(weak_witness(e, mode, grid) - pad_and_diff_witness(e, g, grid)) <= bound


def test_l2_norm_of_sine_product_is_exact():
    # per-axis nodal sums of sin^2 telescope to exactly 1/2
    grid = Grid(3, 31)
    field = field_from_callable(grid, product_sine)
    assert l2_norm(field, grid) == pytest.approx(math.sqrt(1.0 / 8.0), rel=1e-13)
    assert l2_distance(field, field, grid) == 0.0
    assert l2_distance(2.0 * field, field, grid) == pytest.approx(
        l2_norm(field, grid), rel=1e-13
    )


def test_restriction_is_exact_nodal_injection():
    fine = Grid(3, 31)
    coarse = Grid(3, 15)
    field = field_from_callable(fine, lambda x: x[:, 0] * x[:, 1] + x[:, 2])
    restricted = restrict(field, fine, coarse)
    expected = field_from_callable(coarse, lambda x: x[:, 0] * x[:, 1] + x[:, 2])
    np.testing.assert_array_equal(restricted, expected)
    with pytest.raises(InvalidParameterError):
        restrict(field, fine, Grid(3, 20))


def test_field_io_round_trip(tmp_path):
    grid = Grid(3, 9)
    rng = np.random.default_rng(5)
    field = rng.standard_normal(grid.shape)
    path = tmp_path / "field.bin"
    write_field(path, grid, field)
    grid2, back = read_field(path)
    assert grid2 == grid
    np.testing.assert_array_equal(back, field)
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    assert header.split()[:2] == ["3", "9"]


@pytest.mark.parametrize("content", [b"", b"three 9 0.1\n"])
def test_field_header_not_d_n_h_names_the_file(tmp_path, content):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(InvalidParameterError, match="bad.bin: not a field header"):
        read_field(path)


def test_four_dimensional_solves():
    grid = Grid(4, 9)
    u_exact = field_from_callable(grid, product_sine)
    f = 4.0 * math.pi**2 * u_exact
    u, stats = solve_perforated(f, HoleFamily.from_holes([], 3), grid, tol=1e-11)
    assert stats.residual <= 1e-11
    assert max_err(u, u_exact) < 0.02
    m = 5.0
    u2, _ = solve_limit(f + m * u_exact, np.full(grid.shape, m), grid, tol=1e-11)
    assert max_err(u2, u_exact) < 0.02
