import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfhom.cg import pcg
from perfhom.errors import InvalidParameterError
from perfhom.stencil import dirichlet_solve, neg_laplacian

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
    reference, _, _ = pcg(lambda v: neg_laplacian(v, h) + shift * v, b, tol=tol)
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


def test_dirichlet_solve_rejects_bad_shapes():
    with pytest.raises(InvalidParameterError):
        dirichlet_solve(np.ones((3, 4)), 0.25)
    with pytest.raises(InvalidParameterError):
        dirichlet_solve(np.ones((3, 3)), 0.25, out=np.empty((3, 3)).T)
