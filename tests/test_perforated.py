"""The capacitance-matrix perforated solve against the masked-grid CG it
replaced, and its residual, memory and failure contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfhom.cg import dot, pcg
from perfhom.errors import EvaluationError, InvalidParameterError, SolverError
from perfhom.holes import HoleFamily
from perfhom.inverse import construct_holes
from perfhom import solver
from perfhom.potential import parse_potential
from perfhom.harness import parse_rhs
from perfhom.solver import (
    Grid,
    RhsSpectrum,
    _capacitance_solve,
    hole_mask,
    lump_measure,
    rhs_spectrum,
    solve_limit,
    solve_perforated,
)
from perfhom.stencil import dirichlet_solve, neg_laplacian, outer, sine_transform
from perfhom.tiling import TilingSpec, unit_box

EPS64 = 2.0**-52


def masked_pcg(f, mask, h, tol, weights=None):
    """The oracle: CG on full-grid vectors with ``L``, plus the diagonal
    ``weights`` if given, zeroed on hole rows, preconditioned by the sine
    solve shifted by the smallest weight and masked to the free nodes."""
    shift = 0.0 if weights is None else float(weights.min())

    def apply_op(v):
        w = neg_laplacian(v, h)
        if weights is not None:
            w += weights * v
        w[mask] = 0.0
        return w

    def precond(r, out):
        dirichlet_solve(r, h, shift, out=out)
        out[mask] = 0.0
        return out

    b = np.where(mask, 0.0, f)
    u, iterations, _ = pcg(apply_op, b, tol=tol, precond=precond)
    u[mask] = 0.0
    return u, iterations


def free_residual(f, mask, u, h, weights=None):
    """``||b - A u|| / ||b||`` on the free nodes, by one stencil apply."""
    b = np.where(mask, 0.0, f)
    r = b - neg_laplacian(u, h)
    if weights is not None:
        r -= weights * u
    r[mask] = 0.0
    return math.sqrt(dot(r, r)) / math.sqrt(dot(b, b))


def kappa(grid):
    """Condition number of the grid Laplacian, ``4 (n+1)^2 / pi^2``."""
    return 4.0 * (grid.n + 1) ** 2 / math.pi**2


def family(centers, radii):
    centers = np.asarray(centers, dtype=float)
    return HoleFamily(centers, np.asarray(radii, dtype=float), np.zeros(centers.shape, np.int64))


@st.composite
def problems(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 40 if d == 2 else 14))
    grid = Grid(d, n)
    count = draw(st.integers(1, 6))
    # centers up to 0.1 outside the cube, so balls touch or cross the
    # boundary; radii empty or from the 2h resolution limit to 0.8, so
    # some families fill more than half the grid
    centers = draw(
        st.lists(
            st.lists(st.floats(-0.1, 1.1), min_size=d, max_size=d),
            min_size=count, max_size=count,
        )
    )
    radius = st.one_of(st.just(0.0), st.floats(2.0 * grid.h, 0.8))
    radii = draw(st.lists(radius, min_size=count, max_size=count))
    seed = draw(st.integers(0, 2**32 - 1))
    tol = draw(st.sampled_from([1e-6, 1e-8, 1e-10]))
    return grid, family(centers, radii), seed, tol


def check_against_oracle(grid, holes, seed, tol, weights=None):
    rng = np.random.default_rng(seed)
    f = 1.0 + rng.standard_normal(grid.shape)
    mask = hole_mask(grid, holes)
    if weights is None:
        u, stats = solve_perforated(f, holes, grid, tol)
    else:
        rhs = rhs_spectrum(f.copy(), grid)
        u, stats = _capacitance_solve(rhs, grid, tol, clamped=mask, weights=weights)
    assert np.all(u[mask] == 0.0)
    if mask.all():
        assert np.all(u == 0.0) and stats.iterations == 0
        return
    reference, _ = masked_pcg(f, mask, grid.h, tol, weights)
    scale = float(np.abs(reference).max())
    assert float(np.abs(u - reference).max()) <= 3.0 * kappa(grid) * tol * scale
    # the reported residual is the free-node residual of u, up to the
    # rounding of the CG recursion and of the stencil
    true = free_residual(f, mask, u, grid.h, weights)
    rounding = 8.0 * (stats.iterations + 1) * kappa(grid) * EPS64
    assert abs(stats.residual - true) <= rounding
    assert stats.residual <= tol


@settings(max_examples=60, deadline=None)
@given(problems())
# one ball over 99% of the 3D grid: only the surface layer is unknown
@example((Grid(3, 11), family([[0.5, 0.5, 0.5]], [0.8]), 0, 1e-8))
# a ball over 60% of a 2D grid
@example((Grid(2, 30), family([[0.5, 0.5]], [0.44]), 1, 1e-8))
# a ball crossing a face, and a ball at 2h whose cap crosses a face and
# masks five nodes
@example((Grid(3, 9), family([[1.05, 0.5, 0.5], [0.5, -0.1, 0.5]], [0.3, 0.2]), 2, 1e-10))
def test_capacitance_solve_matches_masked_cg(problem):
    check_against_oracle(*problem)


def borders(mask, weighted):
    """Whether a weighted free node has a masked stencil neighbour."""
    d = mask.ndim
    for ax in range(d):
        lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(d))
        hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(d))
        if np.any(mask[lo] & weighted[hi]) or np.any(mask[hi] & weighted[lo]):
            return True
    return False


@pytest.mark.parametrize(
    "radius, layer", [(0.2, True), (0.2, False), (0.5, True), (0.5, False), (0.0, True)]
)
def test_clamped_and_weighted_nodes_match_masked_cg(radius, layer):
    # one resolved hole plus a non-constant weight: the one input on which
    # both halves of the residual meet, on the weighted nodes that border
    # the hole.  A node layer through the hole at weight 20/h (a lumped
    # plane) over a floor of 3, or random weights everywhere.  The 0.5
    # ball fills 69% of the grid, so only its surface layer is clamped
    # unknowns, and the weighted nodes inside it are clamped unknowns too.
    # An empty hole leaves a clamped mask with no node
    grid = Grid(3, 15)
    if layer:
        weights = np.full(grid.shape, 3.0)
        weights[:, :, 7] += 20.0 / grid.h
    else:
        weights = np.random.default_rng(5).uniform(0.0, 50.0, grid.shape)
    holes = family([[0.5, 0.5, 0.5]], [radius])
    mask = hole_mask(grid, holes)
    assert borders(mask, (weights > weights.min()) & ~mask) == (radius > 0.0)
    check_against_oracle(grid, holes, 6, 1e-9, weights)


@pytest.mark.parametrize("spec, eps", [("constant(40)", 0.125), ("plane(0.5, 20)", 0.125)])
def test_iterations_match_masked_cg(spec, eps):
    # with every hole node unknown, the stencil-preconditioned capacitance
    # matrix has the nonzero spectrum of the masked preconditioned grid
    # operator, so the two take the same number of iterations
    grid = Grid(3, 47)
    holes = construct_holes(
        parse_potential(spec, 3), TilingSpec(3, eps), unit_box(3), strict=False
    ).holes
    f = np.ones(grid.shape)
    _, stats = solve_perforated(f, holes, grid, 1e-9)
    _, iterations = masked_pcg(f, hole_mask(grid, holes), grid.h, 1e-9)
    assert abs(stats.iterations - iterations) <= 1


def shared_and_own(f, holes, grid, tol, transforms):
    """A solve of the shared spectrum of ``f`` and one of ``f`` itself,
    which makes its own spectrum the same way and so gives the same bits:
    ``(u, stats)``.  The shared spectrum must come back unchanged;
    ``transforms`` then holds the shared solve's transforms."""
    rhs = rhs_spectrum(f.copy(), grid)
    kept = rhs.values[0].copy()
    transforms.clear()
    u, stats = solve_perforated(rhs, holes, grid, tol)
    made = list(transforms)
    own, own_stats = solve_perforated(f, holes, grid, tol)
    assert not rhs.values[0].flags.writeable
    np.testing.assert_array_equal(rhs.values[0], kept)
    transforms[:] = made
    np.testing.assert_array_equal(u, own)
    assert (stats.iterations, stats.residual) == (own_stats.iterations, own_stats.residual)
    return u, stats


def test_shared_base_matches_own_base(transforms):
    # the base the solves of f share is the spectrum of f.  A perforated
    # row handed it only reads it, transforms nothing on the grid, and
    # gives the result of the solve that makes its own
    grid = Grid(3, 31)
    holes = construct_holes(
        parse_potential("plane(0.5, 20)", 3), TilingSpec(3, 0.125), unit_box(3), strict=False
    ).holes
    mask = hole_mask(grid, holes)
    assert 0 < 2 * int(mask.sum()) <= grid.size
    f = 1.0 + np.random.default_rng(8).standard_normal(grid.shape)
    u, stats = shared_and_own(f, holes, grid, 1e-9, transforms)
    assert transforms == []
    assert np.all(u[mask] == 0.0)
    assert stats.residual <= 1e-9


def test_surface_layer_row_ignores_the_base(transforms):
    # with only the surface layer unknown, f on the inner hole nodes would
    # enter through the shared spectrum of f: the solve does not start
    # from it, but recovers f, zeroes the hole nodes and makes its own
    # spectrum, two transforms
    grid = Grid(3, 11)
    holes = family([[0.5, 0.5, 0.5]], [0.55])
    assert 2 * int(hole_mask(grid, holes).sum()) > grid.size
    f = 1.0 + np.random.default_rng(9).standard_normal(grid.shape)
    shared_and_own(f, holes, grid, 1e-9, transforms)
    assert transforms == [("sine_transform", 11)] * 2


def test_holes_holding_most_of_f_recover_the_norm_of_b(transforms):
    # f is 30 on the hole nodes and 1 off them, so ||f_X||^2 is most of
    # ||f||^2 and ||b|| comes from f recovered, not from the difference
    grid = Grid(3, 15)
    holes = family([[0.5, 0.5, 0.5]], [0.3])
    mask = hole_mask(grid, holes)
    assert 0 < 2 * int(mask.sum()) <= grid.size
    f = np.where(mask, 30.0, 1.0)
    u, stats = shared_and_own(f, holes, grid, 1e-9, transforms)
    assert transforms == [("sine_transform", 15)]
    assert stats.residual <= 1e-9
    assert abs(stats.residual - free_residual(f, mask, u, grid.h)) <= (
        8.0 * (stats.iterations + 1) * kappa(grid) * EPS64
    )


def test_empty_mask_with_a_shared_base_returns_a_writable_copy(transforms):
    # the exact path solves in a copy of the shared spectrum and checks
    # the result by one forward transform of its residual
    grid = Grid(3, 15)
    f = 1.0 + np.random.default_rng(4).standard_normal(grid.shape)
    rhs = rhs_spectrum(f.copy(), grid)
    transforms.clear()
    u, stats = solve_perforated(rhs, family(np.zeros((0, 3)), []), grid, tol=1e-10)
    assert transforms == [("sine_transform", 15)]
    assert u.flags.writeable and not np.shares_memory(u, rhs.values[0])
    np.testing.assert_array_equal(u, dirichlet_solve(f, grid.h))
    assert stats.iterations == 1


@pytest.mark.parametrize(
    "case",
    ["hole nodes", "surface layer", "plane limit", "constant limit", "no hole"],
)
def test_product_spectrum_solves_as_its_block(case, transforms):
    # a product f held as 1-D spectra: each reader multiplies out only the
    # piece it needs, with the values of the whole outer product, so the
    # solve gives the bits of one handed that block.  Against f as a node
    # array, whose spectrum is one rounded transform, it agrees within the
    # solver's tolerance.  Only an exact solve's residual check and a
    # surface-layer row's hole-zeroed f are transformed on the grid
    grid = Grid(3, 15)
    rhs = rhs_spectrum(parse_rhs("sine(1, 2, 1)", 3), grid)
    block = RhsSpectrum(grid, (outer(rhs.values),), rhs.norm, rhs.factors)
    if case.endswith("limit"):
        spec = {"plane limit": "plane(0.5, 20)", "constant limit": "constant(20)"}[case]
        weights = lump_measure(parse_potential(spec, 3), grid)
        solve = lambda f: solve_limit(f, weights, grid, 1e-10)
    else:
        radius = {"hole nodes": 0.3, "surface layer": 0.45, "no hole": 0.0}[case]
        holes = family([[0.5, 0.5, 0.5]], [radius])
        filled = 2 * int(hole_mask(grid, holes).sum()) > grid.size
        assert filled == (case == "surface layer")
        solve = lambda f: solve_perforated(f, holes, grid, 1e-10)
    transforms.clear()
    u, stats = solve(rhs)
    made = list(transforms)
    transformed = case in ("surface layer", "constant limit", "no hole")
    assert made == [("sine_transform", 15)] * transformed
    same, same_stats = solve(block)
    np.testing.assert_array_equal(u, same)
    assert (stats.iterations, stats.residual) == (same_stats.iterations, same_stats.residual)
    node, _ = solve(outer(rhs.factors))
    assert np.abs(u - node).max() <= 3 * kappa(grid) * 1e-10 * np.abs(node).max()


def test_surface_layer_examples_fill_more_than_half():
    # the examples above do take the surface-layer path
    for grid, holes in (
        (Grid(3, 11), family([[0.5, 0.5, 0.5]], [0.8])),
        (Grid(2, 30), family([[0.5, 0.5]], [0.44])),
    ):
        assert 2 * int(hole_mask(grid, holes).sum()) > grid.size


def test_empty_mask_is_one_exact_sine_solve():
    grid = Grid(3, 15)
    f = 1.0 + np.random.default_rng(4).standard_normal(grid.shape)
    u, stats = solve_perforated(f, family(np.zeros((0, 3)), []), grid, tol=1e-10)
    np.testing.assert_array_equal(u, dirichlet_solve(f, grid.h))
    assert stats.iterations == 1
    # the residual is checked in the sine basis, against the spectrum of
    # f: Q^d (L u) - Q^d f, which is the grid residual up to the rounding
    # of the two transforms, a few ulps of ||f||
    spectral = sine_transform(neg_laplacian(u, grid.h), grid.h) - sine_transform(f.copy(), grid.h)
    norm_f = math.sqrt(dot(f, f))
    assert stats.residual == pytest.approx(math.sqrt(dot(spectral, spectral)) / norm_f, rel=1e-12)
    no_mask = np.zeros(grid.shape, dtype=bool)
    assert abs(stats.residual - free_residual(f, no_mask, u, grid.h)) <= 8 * 3 * grid.n * EPS64
    assert stats.residual <= 1e-10


def test_mask_covering_the_grid_gives_zero():
    grid = Grid(2, 20)
    u, stats = solve_perforated(np.ones(grid.shape), family([[0.5, 0.5]], [1.0]), grid)
    assert np.all(u == 0.0)
    assert stats.iterations == 0 and stats.residual == 0.0


def test_exact_solves_reject_a_tolerance_below_rounding():
    # one sine solve cannot reach 1e-18; iterating would not either
    grid = Grid(3, 15)
    f = np.ones(grid.shape)
    with pytest.raises(SolverError, match="rounding floor"):
        solve_perforated(f, family(np.zeros((0, 3)), []), grid, tol=1e-18)
    with pytest.raises(SolverError, match="rounding floor"):
        solve_limit(f, np.full(grid.shape, 5.0), grid, tol=1e-18)


@pytest.mark.parametrize("tol", [0.0, 1.0, math.inf, math.nan])
def test_solves_reject_a_tolerance_outside_zero_one(tol):
    # at tol >= 1 the zero charge passes the stopping test before any iteration
    grid = Grid(3, 15)
    f = np.ones(grid.shape)
    holes = family([[0.5, 0.5, 0.5]], [0.15])
    with pytest.raises(InvalidParameterError, match="tolerance"):
        solve_perforated(f, holes, grid, tol=tol)
    with pytest.raises(InvalidParameterError, match="tolerance"):
        solve_limit(f, np.full(grid.shape, 5.0), grid, tol=tol)


def test_one_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(solver, "pcg", lambda *args, **kw: pcg(*args, **{**kw, "maxiter": 1}))
    grid = Grid(3, 15)
    holes = family([[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]], [0.15, 0.15])
    with pytest.raises(SolverError):
        solve_perforated(np.ones(grid.shape), holes, grid)


def test_nonfinite_rhs_with_holes_rejected():
    grid = Grid(3, 15)
    holes = family([[0.5, 0.5, 0.5]], [0.15])
    f = np.ones(grid.shape)
    f[2, 3, 4] = np.inf
    with pytest.raises(EvaluationError):
        solve_perforated(f, holes, grid)


@pytest.mark.parametrize("eps", [0.25, 0.125])
def test_perforated_solve_peak_memory(eps):
    # the scatter buffer, the solve output and the sine solve's scratch,
    # plus O(hole nodes) vectors: eps = 1/4 masks 99.8% of the grid, so
    # only its surface layer is unknown; eps = 1/8 masks 4%
    grid = Grid(3, 47)
    holes = construct_holes(
        parse_potential("constant(40)", 3), TilingSpec(3, eps), unit_box(3), strict=False
    ).holes
    f = np.ones(grid.shape)
    tracemalloc.start()
    try:
        solve_perforated(f, holes, grid, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 8 * grid.size
