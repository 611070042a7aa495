"""The capacitance-form limit solve against the sine-preconditioned grid
CG it replaced, and its residual, memory and failure contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfhom.cg import dot, pcg
from perfhom.errors import InvalidParameterError, SolverError
from perfhom import solver
from perfhom.potential import parse_potential
from perfhom.solver import Grid, lump_measure, rhs_spectrum, solve_limit
from perfhom.stencil import dirichlet_solve, neg_laplacian

EPS64 = 2.0**-52


def grid_pcg(f, weights, h, tol):
    """The oracle: CG on grid vectors for ``(L + W) u = f``, preconditioned
    by the sine solve shifted by the smallest weight."""
    shift = float(weights.min())

    def apply_op(v):
        w = neg_laplacian(v, h)
        w += weights * v
        return w

    def precond(r, out):
        return dirichlet_solve(r, h, shift, out=out)

    u, iterations, _ = pcg(apply_op, f.copy(), tol=tol, precond=precond)
    return u, iterations


def grid_residual(f, weights, u, h):
    """``||f - (L + W) u|| / ||f||`` by one stencil apply."""
    r = f - neg_laplacian(u, h) - weights * u
    return math.sqrt(dot(r, r)) / math.sqrt(dot(f, f))


def kappa(grid, weights):
    """Bound on the condition number of ``L + W``: ``(4d/h^2 + max w) / (d pi^2)``."""
    return (4.0 * grid.dim / grid.h**2 + float(weights.max())) / (grid.dim * math.pi**2)


def weights_for(spec, grid, seed=0):
    if spec == "random":
        return np.random.default_rng(seed).uniform(0.0, 50.0, grid.shape)
    return lump_measure(parse_potential(spec, grid.dim), grid)


def capacitance_cg(f, weights, h, tol):
    """The iteration count of CG on ``(I + D^1/2 A^-1_YY D^1/2) y =
    D^1/2 (A^-1 f)_Y`` with ``A^-1_YY`` read off full-grid sine solves,
    stopped on the grid residual: the recursion of ``solve_limit`` without
    its support-restricted solve."""
    shift = float(weights.min())
    support = weights > shift
    root = np.sqrt(weights[support] - shift)
    norm_f = math.sqrt(dot(f, f))

    def apply_op(y):
        v = np.zeros_like(f)
        v[support] = root * y
        z = dirichlet_solve(v, h, shift)[support]
        z *= root
        z += y
        return z

    def residual(r):
        s = root * r
        return math.sqrt(dot(s, s)) / norm_f

    g = root * dirichlet_solve(f, h, shift)[support]
    _, iterations, _ = pcg(apply_op, g, tol=tol, residual=residual)
    return iterations


def check_against_oracle(grid, weights, f, tol, drift=0.0, count=None, slack=0.0):
    """``drift``: the share of the reference count by which the iteration
    count may differ beyond one.  ``count(f, weights, h, tol)`` gives that
    reference; by default it is the grid oracle's own count.  ``slack``:
    the share of the grid oracle's count by which the iteration count may
    exceed it beyond one."""
    u, stats = solve_limit(f, weights, grid, tol)
    reference, grid_iterations = grid_pcg(f, weights, grid.h, tol)
    iterations = grid_iterations if count is None else count(f, weights, grid.h, tol)
    assert abs(stats.iterations - iterations) <= 1 + int(drift * iterations)
    assert stats.iterations <= grid_iterations + 1 + int(slack * grid_iterations)
    k = kappa(grid, weights)
    assert float(np.abs(u - reference).max()) <= 3.0 * k * tol * float(np.abs(reference).max())
    # the reported residual is the grid residual of u, up to the rounding
    # of the CG recursion and of the stencil
    true = grid_residual(f, weights, u, grid.h)
    assert abs(stats.residual - true) <= 8.0 * (stats.iterations + 1) * k * EPS64
    assert stats.residual <= tol


SPECS = ["plane(0.5, 20)", "graph(0.5, 0.1, 2, 20)", "sine_density(2)", "random"]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n", [15, 31])
def test_limit_solve_matches_grid_cg(spec, n):
    grid = Grid(3, n)
    weights = weights_for(spec, grid)
    f = 1.0 + np.random.default_rng(n).standard_normal(grid.shape)
    check_against_oracle(grid, weights, f, 1e-9)


@pytest.mark.parametrize("spec", SPECS)
def test_iterations_match_grid_cg_at_47(spec):
    # (I + D^1/2 A^-1_YY D^1/2) has the non-unit spectrum of the grid
    # operator preconditioned by A, so the counts agree within one
    grid = Grid(3, 47)
    weights = weights_for(spec, grid)
    f = np.ones(grid.shape)
    _, stats = solve_limit(f, weights, grid, 1e-9)
    _, iterations = grid_pcg(f, weights, grid.h, 1e-9)
    assert abs(stats.iterations - iterations) <= 1


@st.composite
def sparse_measures(draw):
    """Random weights on a random node set over a constant floor, d = 1 to 3."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, {1: 60, 2: 24, 3: 10}[d]))
    grid = Grid(d, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.02, 0.2, 1.0]))
    floor = draw(st.sampled_from([0.0, 3.0]))
    height = draw(st.sampled_from([1.0, 1e2, 1e4]))
    chosen = rng.random(grid.shape) < density
    weights = floor + np.where(chosen, rng.uniform(0.0, height, grid.shape), 0.0)
    weights.reshape(-1)[rng.integers(grid.size)] += height  # never constant
    f = 1.0 + rng.standard_normal(grid.shape)
    tol = draw(st.sampled_from([1e-6, 1e-8, 1e-10]))
    return grid, weights, f, tol


@settings(max_examples=60, deadline=None)
@given(sparse_measures())
def test_random_measures_match_grid_cg(problem):
    grid, weights, f, tol = problem
    # the count is held to the same recursion on full-grid solves, not to
    # the grid oracle's: started from A^-1 f both search one Krylov space,
    # but the grid CG minimises the error in the norm of L + W and the
    # capacitance CG in that of its own matrix.  On sparse weights up to
    # 1e4 that alone parts the counts by 13% in exact arithmetic (46
    # against 52 on Grid(3, 5) at 1e-6), and from zero the grid CG also
    # spends an iteration on the start (4 against 2 on Grid(1, 20)).
    # Past tens of iterations the two capacitance recursions were seen to
    # part by up to 8% of the count through rounding, either way.  The
    # grid count still caps the count: over 4,700 random problems
    # solve_limit needed at most 12% more iterations than the grid CG
    # (55 against 49 on Grid(3, 7)), so a fifth more catches a slower
    # formulation
    check_against_oracle(grid, weights, f, tol, drift=0.1, count=capacitance_cg, slack=0.2)


def shared_and_own(f, weights, grid, transforms):
    """A limit solve of the shared spectrum of ``f`` and one of ``f``
    itself, which makes its own spectrum the same way and so gives the
    same bits; the shared spectrum must come back unchanged.  Returns the
    transforms of the shared solve."""
    rhs = rhs_spectrum(f.copy(), grid)
    kept = rhs.values[0].copy()
    transforms.clear()
    u, stats = solve_limit(rhs, weights, grid, 1e-9)
    made = list(transforms)
    own, own_stats = solve_limit(f, weights, grid, 1e-9)
    assert not rhs.values[0].flags.writeable
    np.testing.assert_array_equal(rhs.values[0], kept)
    np.testing.assert_array_equal(u, own)
    assert stats.iterations == own_stats.iterations
    assert stats.residual == own_stats.residual <= 1e-9
    return made


@pytest.mark.parametrize("spec", ["plane(0.5, 20)", "sine_density(2)"])
def test_shared_base_matches_own_base(spec, transforms):
    # a measure with minimum 0 only reads the shared base, the caller's
    # spectrum of f, and transforms nothing on the grid.  sine_density's minimum is positive;
    # zeroing one node leaves every other node in Y
    grid = Grid(3, 31)
    weights = weights_for(spec, grid)
    weights[0, 0, 0] = 0.0
    assert weights.min() == 0.0
    f = 1.0 + np.random.default_rng(3).standard_normal(grid.shape)
    assert shared_and_own(f, weights, grid, transforms) == []


@pytest.mark.parametrize("spec", ["sine_density(2)", "constant(40)"])
def test_positive_minimum_shares_the_spectrum(spec, transforms):
    # a positive minimum shifts A; the read-back scales the spectrum by
    # the shifted eigenvalues, so the spectrum of f serves it too.  A
    # constant measure is the exact solve, checked by one transform
    grid = Grid(3, 15)
    weights = weights_for(spec, grid)
    assert weights.min() > 0.0
    f = 1.0 + np.random.default_rng(6).standard_normal(grid.shape)
    exact = int(weights.min() == weights.max())
    assert shared_and_own(f, weights, grid, transforms) == [("sine_transform", 15)] * exact


def test_one_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(solver, "pcg", lambda *args, **kw: pcg(*args, **{**kw, "maxiter": 1}))
    grid = Grid(3, 15)
    weights = weights_for("plane(0.5, 20)", grid)
    with pytest.raises(SolverError):
        solve_limit(np.ones(grid.shape), weights, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("everywhere", [False, True])
def test_nonfinite_measure_rejected(bad, everywhere):
    # a NaN passes a sign test, and an infinite weight would reach the
    # iterations as a non-finite right-hand side
    grid = Grid(3, 15)
    weights = weights_for("plane(0.5, 20)", grid)
    if everywhere:
        weights[...] = bad
    else:
        weights[3, 4, 5] = bad
    with pytest.raises(InvalidParameterError, match="lumped measure"):
        solve_limit(np.ones(grid.shape), weights, grid)


def test_zero_rhs_gives_zero():
    grid = Grid(3, 15)
    u, stats = solve_limit(np.zeros(grid.shape), weights_for("plane(0.5, 20)", grid), grid)
    assert np.all(u == 0.0)
    assert stats.iterations == 0 and stats.residual == 0.0


PEAK_ARRAYS = {"plane(0.5, 20)": 3.25, "graph(0.5, 0.1, 2, 20)": 3.3, "sine_density(2)": 8.4}


@pytest.mark.parametrize("spec", PEAK_ARRAYS)
def test_limit_solve_peak_memory(spec):
    # the spectrum of the copy of f and the final solve's block, both
    # built in place, are the grid arrays; the transforms' scratch of
    # 2^16 values is 0.63 of one at 47^3.  The iterations hold O(|Y|)
    # vectors and the restricted solve's blocks (2.92 and 3.07 arrays
    # measured; 3.05 and 3.19 when the start was A^-1 f).  sine_density's
    # Y is every node but one, so its CG vectors, the D^1/2 scaling and
    # the restricted solve's blocks are grid sized (8.20 arrays measured,
    # in the iterations).  The grid CG it replaced peaked at 6.0 grid
    # arrays on all three
    grid = Grid(3, 47)
    weights = weights_for(spec, grid)
    f = np.ones(grid.shape)
    tracemalloc.start()
    try:
        solve_limit(f, weights, grid, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_ARRAYS[spec] * 8 * grid.size
