import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfhom.cg import pcg
from perfhom.errors import InvalidParameterError
from perfhom.stencil import (
    SupportSolve,
    dirichlet_energy,
    dirichlet_solve,
    neg_laplacian,
    sine_transform,
    spectral_solve,
)

EPS64 = np.finfo(float).eps
# largest n per dimension that keeps a CG reference solve cheap
MAX_N = {1: 40, 2: 20, 3: 10, 4: 6}


@st.composite
def problems(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, MAX_N[d]))
    h = draw(st.sampled_from([1.0 / (n + 1), 0.125, 1.0]))
    shift = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, n, h, shift, seed


@settings(max_examples=60, deadline=None)
@given(problems())
def test_dirichlet_solve_matches_cg(problem):
    d, n, h, shift, seed = problem
    b = np.random.default_rng(seed).standard_normal((n,) * d)
    tol = 1e-12
    reference, _, _ = pcg(lambda v: neg_laplacian(v, h) + shift * v, b.copy(), tol=tol)
    u = dirichlet_solve(b, h, shift)
    # a relative residual tol bounds the relative error by kappa * tol
    kappa = 4.0 * (n + 1) ** 2 / math.pi**2
    error = np.linalg.norm(u - reference)
    assert error <= kappa * tol * np.linalg.norm(reference)
    # the output buffer, including b itself, receives the same solution
    out = b.copy()
    assert dirichlet_solve(out, h, shift, out=out) is out
    np.testing.assert_array_equal(out, u)


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_sine_eigenvector_is_recovered(problem, data):
    d, n, h, shift, _ = problem
    modes = [data.draw(st.integers(1, n)) for _ in range(d)]
    j = np.arange(1, n + 1)
    vector = np.ones(())
    eigenvalue = shift
    for k in modes:
        vector = np.multiply.outer(vector, np.sin(math.pi * j * k / (n + 1)))
        eigenvalue += 4.0 / h**2 * math.sin(math.pi * k / (2 * (n + 1))) ** 2
    u = dirichlet_solve(vector, h, shift)
    # one rounding per transform term and axis; rounding in the vector
    # itself excites every mode, the smoothest one amplified the most
    smallest = shift + d * 4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
    bound = 8 * d * n * EPS64 * np.abs(vector).max() / smallest
    assert np.abs(u - vector / eigenvalue).max() <= bound


@settings(max_examples=60, deadline=None)
@given(problems())
def test_energy_matches_solution_pairing(problem):
    d, n, h, shift, seed = problem
    b = np.random.default_rng(seed).standard_normal((n,) * d)
    energy = dirichlet_energy(b, h, shift)
    reference = float(np.dot(b.reshape(-1), dirichlet_solve(b, h, shift).reshape(-1)))
    # the pairing of b with a solution within 8 d n ulps of ||b|| / smallest
    smallest = shift + d * 4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
    norm2 = float(np.dot(b.reshape(-1), b.reshape(-1)))
    assert abs(energy - reference) <= 16 * d * n * EPS64 * norm2 / smallest
    # scaling by two is exact in every transform, so the energy quadruples
    assert dirichlet_energy(2.0 * b, h, shift) == 4.0 * energy
    # b is left as it was, and letting the transforms overwrite it gives
    # the same value
    copy = b.copy()
    assert dirichlet_energy(b, h, shift) == energy
    np.testing.assert_array_equal(b, copy)
    assert dirichlet_energy(copy, h, shift, overwrite_b=True) == energy


def test_energy_of_zero_is_exactly_zero():
    for d, n in ((1, 7), (2, 5), (3, 4)):
        assert dirichlet_energy(np.zeros((n,) * d), 0.25) == 0.0
    with pytest.raises(InvalidParameterError):
        dirichlet_energy(np.ones((3, 4)), 0.25)


def test_dirichlet_solve_rejects_bad_shapes():
    with pytest.raises(InvalidParameterError):
        dirichlet_solve(np.ones((3, 4)), 0.25)
    with pytest.raises(InvalidParameterError):
        dirichlet_solve(np.ones((3, 3)), 0.25, out=np.empty((3, 3)).T)
    # the halves run in place: a transposed, read-only or integer block
    # would be copied or refused by numpy, not transformed
    kept = np.ones((3, 3))
    kept.flags.writeable = False
    for bad in (np.ones((3, 4)), np.ones((3, 3)).T[:, :2], kept, np.ones((3, 3), dtype=int)):
        for half in (sine_transform, spectral_solve):
            with pytest.raises(InvalidParameterError):
                half(bad, 0.25)


def dense_operator(n, d, h, shift):
    """``neg_laplacian + shift`` on ``n^d`` as a dense matrix, column by
    column from the unit vectors."""
    size = n**d
    columns = [neg_laplacian(e.reshape((n,) * d), h).reshape(-1) for e in np.eye(size)]
    return np.stack(columns, axis=1) + shift * np.eye(size)


@pytest.mark.parametrize("shift", [0.0, 7.5])
@pytest.mark.parametrize("d, n", [(1, 9), (1, 10), (2, 7), (2, 8), (3, 5), (3, 6), (4, 3), (4, 4)])
def test_in_place_transforms_match_dense_eigendecomposition(d, n, shift):
    h = 1.0 / (n + 1)
    b = np.random.default_rng(10 * d + n).standard_normal((n,) * d)
    eigenvalues, vectors = np.linalg.eigh(dense_operator(n, d, h, shift))
    reference = (vectors @ ((vectors.T @ b.reshape(-1)) / eigenvalues)).reshape(b.shape)
    smallest = shift + d * 4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
    bound = 8 * d * n * EPS64 * np.linalg.norm(b) / smallest
    # a new output, b itself and a separate buffer give the same bits
    kept = b.copy()
    u = dirichlet_solve(b, h, shift)
    np.testing.assert_array_equal(b, kept)
    assert np.linalg.norm(u - reference) <= bound
    separate = np.full(b.shape, np.nan)
    assert dirichlet_solve(b, h, shift, out=separate) is separate
    np.testing.assert_array_equal(b, kept)
    np.testing.assert_array_equal(separate, u)
    # the two halves apart give the same bits, and a second forward
    # transform gives the block back
    spectrum = sine_transform(kept.copy(), h)
    assert np.linalg.norm(sine_transform(spectrum.copy(), h) - kept) <= 8 * d * n * EPS64 * np.linalg.norm(kept)
    assert spectral_solve(spectrum, h, shift) is spectrum
    np.testing.assert_array_equal(spectrum, u)
    assert dirichlet_solve(b, h, shift, out=b) is b
    np.testing.assert_array_equal(b, u)
    # the energy, in a copy or in place, is the pairing with the solution
    energy = dirichlet_energy(kept, h, shift)
    norm2 = float(np.dot(kept.reshape(-1), kept.reshape(-1)))
    pairing = float(np.dot(kept.reshape(-1), reference.reshape(-1)))
    assert abs(energy - pairing) <= 16 * d * n * EPS64 * norm2 / smallest
    assert dirichlet_energy(kept, h, shift, overwrite_b=True) == energy


def test_in_place_transforms_allocate_under_half_a_grid_array():
    n = 63
    h = 1.0 / (n + 1)
    b = np.random.default_rng(0).standard_normal((n,) * 3)
    dirichlet_solve(np.ones((n,) * 3), h)  # cache the basis outside the trace
    tracemalloc.start()
    try:
        dirichlet_solve(b, h, out=b)
        sine_transform(b, h)
        spectral_solve(b, h)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dirichlet_energy(b, h, overwrite_b=True)
        energy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve_peak < 0.5 * 8 * n**3
    assert energy_peak < 0.5 * 8 * n**3


@st.composite
def supports(draw):
    """A node set on an ``n^d`` block: one node, one line along an axis,
    one slab normal to an axis, a random set, or the full block."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, {1: 40, 2: 20, 3: 10, 4: 6}[d]))
    block = np.arange(n**d).reshape((n,) * d)
    kind = draw(st.sampled_from(["node", "line", "slab", "random", "full"]))
    ax = draw(st.integers(0, d - 1))
    at = tuple(draw(st.integers(0, n - 1)) for _ in range(d))
    if kind == "node":
        nodes = block[at].reshape(1)
    elif kind == "line":
        nodes = block[at[:ax] + (slice(None),) + at[ax + 1 :]].reshape(-1)
    elif kind == "slab":
        nodes = np.take(block, at[ax], axis=ax).reshape(-1)
    elif kind == "random":
        keep = draw(st.lists(st.booleans(), min_size=n**d, max_size=n**d))
        nodes = block.reshape(-1)[np.asarray(keep, dtype=bool)]
        if not nodes.size:
            nodes = block[at].reshape(1)
    else:
        nodes = block.reshape(-1)
    h = draw(st.sampled_from([1.0 / (n + 1), 0.125, 1.0]))
    shift = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, n, np.sort(nodes), h, shift, seed


@settings(max_examples=150, deadline=None)
@given(supports())
def test_support_solve_matches_scattered_dirichlet_solve(problem):
    d, n, nodes, h, shift, seed = problem
    v = np.random.default_rng(seed).standard_normal(nodes.size)
    b = np.zeros(n**d)
    b[nodes] = v
    reference = dirichlet_solve(b.reshape((n,) * d), h, shift).reshape(-1)[nodes]
    solve = SupportSolve(nodes, n, d, h, shift)
    u = solve.apply(v)
    assert u.shape == v.shape
    np.testing.assert_array_equal(v, b[nodes])
    # both are 2d orthogonal transforms and one scaling by at most
    # 1 / smallest eigenvalue; each transform rounds within n ulps of ||x||
    smallest = shift + d * 4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
    bound = 8 * d * n * EPS64 * np.linalg.norm(v) / smallest
    assert np.linalg.norm(u - reference) <= bound
    # the input is not modified and a second apply repeats the first
    np.testing.assert_array_equal(solve.apply(v), u)


@settings(max_examples=150, deadline=None)
@given(supports())
def test_support_read_and_finish_match_scattered_dirichlet_solve(problem):
    d, n, nodes, h, shift, seed = problem
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n,) * d)
    v = rng.standard_normal(nodes.size)
    spectrum = sine_transform(f.copy(), h)
    spectrum.flags.writeable = False
    kept = spectrum.copy()
    solve = SupportSolve(nodes, n, d, h, shift)
    # the bound of the restricted apply, on ||f|| and ||v|| together
    smallest = shift + d * 4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
    size = np.linalg.norm(f) + np.linalg.norm(v)
    bound = 8 * d * n * EPS64 * size / smallest
    read = solve.read(spectrum)
    assert read.shape == v.shape
    assert np.linalg.norm(read - dirichlet_solve(f, h, shift).reshape(-1)[nodes]) <= bound
    values = solve.read(spectrum, scaled=False)
    assert np.linalg.norm(values - f.reshape(-1)[nodes]) <= 8 * d * n * EPS64 * size
    b = f.copy().reshape(-1)
    b[nodes] -= v
    u = solve.finish(spectrum, v)
    assert u.shape == (n,) * d
    assert np.linalg.norm(u - dirichlet_solve(b.reshape(f.shape), h, shift)) <= bound
    # read back on the support, the finish of a zero spectrum is minus
    # the restricted apply up to rounding
    zero = np.zeros((n,) * d)
    assert np.linalg.norm(solve.finish(zero, v).reshape(-1)[nodes] + solve.apply(v)) <= 2 * bound
    np.testing.assert_array_equal(spectrum, kept)


@pytest.mark.parametrize("shift", [0.0, 50.0])
@pytest.mark.parametrize("thin", [True, False])
def test_read_back_and_finish_match_full_solves(thin, shift):
    # a node layer normal to the last axis takes the per-mode Green's
    # blocks; a ball of nodes occupies 17 coordinates there, over 31
    n, d = 31, 3
    h = 1.0 / (n + 1)
    block = np.arange(n**d).reshape((n,) * d)
    if thin:
        nodes = block[:, :, 15].reshape(-1)
    else:
        x = (np.arange(n) + 1.0) * h - 0.5
        ball = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2 <= 0.3**2
        nodes = block[ball]
    nodes.sort()
    solve = SupportSolve(nodes, n, d, h, shift)
    assert (solve._kernel is not None) == thin
    rng = np.random.default_rng(int(thin) + int(shift))
    f = 1.0 + rng.standard_normal((n,) * d)
    v = rng.standard_normal(nodes.size)
    spectrum = sine_transform(f.copy(), h)
    full = dirichlet_solve(f, h, shift)
    reference = full.reshape(-1)[nodes]
    assert np.linalg.norm(solve.read(spectrum) - reference) <= 1e-13 * np.linalg.norm(reference)
    on_nodes = f.reshape(-1)[nodes]
    values = solve.read(spectrum, scaled=False)
    assert np.linalg.norm(values - on_nodes) <= 1e-13 * np.linalg.norm(on_nodes)
    # one pass for both reads gives each bit for bit
    pair = solve.read(spectrum, both=True)
    assert pair[0].tobytes() == values.tobytes()
    assert pair[1].tobytes() == solve.read(spectrum).tobytes()
    # the finish is the full solve minus the extension of v
    extension = np.zeros(n**d)
    extension[nodes] = v
    reference = full - dirichlet_solve(extension.reshape(f.shape), h, shift)
    u = solve.finish(spectrum, v)
    assert np.linalg.norm(u - reference) <= 1e-13 * np.linalg.norm(reference)


@pytest.mark.parametrize("shift", [0.0, 50.0])
@pytest.mark.parametrize("d, n, c", [(2, 20, 4), (2, 20, 5), (3, 12, 3), (3, 12, 4)])
def test_band_normal_to_last_axis_matches_scattered_dirichlet_solve(d, n, c, shift):
    # c layers normal to the last axis: c * c <= n takes the per-mode
    # Green's blocks, c * c > n the spectral block
    block = np.arange(n**d).reshape((n,) * d)
    nodes = block[..., 2 : 2 + c].reshape(-1)
    nodes.sort()
    h = 1.0 / (n + 1)
    v = np.random.default_rng(d * n + c).standard_normal(nodes.size)
    b = np.zeros(n**d)
    b[nodes] = v
    reference = dirichlet_solve(b.reshape((n,) * d), h, shift).reshape(-1)[nodes]
    solve = SupportSolve(nodes, n, d, h, shift)
    assert (solve._kernel is not None) == (c * c <= n)
    u = solve.apply(v)
    smallest = shift + d * 4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
    bound = 8 * d * n * EPS64 * np.linalg.norm(v) / smallest
    assert np.linalg.norm(u - reference) <= bound
    extended = -solve.finish(np.zeros((n,) * d), v)
    assert np.linalg.norm(extended.reshape(-1)[nodes] - u) <= 2 * bound


def test_apply_on_a_one_node_slab_holds_no_grid_array():
    n = 63
    nodes = np.arange(n**3).reshape(n, n, n)[:, :, 31].reshape(-1)
    solve = SupportSolve(nodes, n, 3, 1.0 / (n + 1))
    v = np.ones(nodes.size)
    tracemalloc.start()
    try:
        solve.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n**3 * 8


def test_support_solve_rejects_bad_supports():
    for nodes in ([], [3, 2], [1, 1], [-1], [27]):
        with pytest.raises(InvalidParameterError):
            SupportSolve(np.asarray(nodes, dtype=np.int64), 3, 3, 0.25)
    with pytest.raises(InvalidParameterError):
        SupportSolve(np.arange(4), 3, 3, 0.25).apply(np.ones(5))
    with pytest.raises(InvalidParameterError):
        SupportSolve(np.arange(4), 3, 3, 0.25).read(np.ones((2, 2, 2)))
