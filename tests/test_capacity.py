import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfhom import solver
from perfhom.capacity import (
    CapacityResult,
    ball_potential_radial,
    capacity_ball,
    capacity_extrapolate,
    capacity_variational,
    sphere_area,
)
from perfhom.errors import (
    ExtrapolationError,
    InvalidParameterError,
    ResolutionError,
)


def condenser(a, L):
    """Exact capacity of the spherical condenser a < L in R^3."""
    return 4.0 * math.pi / (1.0 / a - 1.0 / L)


def test_sphere_areas():
    assert sphere_area(3) == 4.0 * math.pi
    assert sphere_area(4) == 2.0 * math.pi**2
    assert sphere_area(2) == 2.0 * math.pi
    # Gamma(5/2) = (3/4) sqrt(pi): S_5 = 8 pi^2 / 3
    assert sphere_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        sphere_area(1)


def test_capacity_ball_exact_values():
    assert capacity_ball(3, 1.0).value == 4.0 * math.pi
    assert capacity_ball(3, 0.0).value == 0.0
    assert capacity_ball(4, 1.0).value == 4.0 * math.pi**2
    assert capacity_ball(3, 2.0).value == 8.0 * math.pi
    with pytest.raises(InvalidParameterError):
        capacity_ball(2, 1.0)


def test_capacity_ball_strictly_increasing_in_radius():
    radii = np.linspace(0.0, 2.0, 9)
    values = [capacity_ball(3, a).value for a in radii]
    assert values[0] == 0.0
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_potential_ball_values():
    assert ball_potential_radial(2.0, 1.0, 3) == pytest.approx(0.5, rel=1e-15)
    assert ball_potential_radial(0.3, 1.0, 3) == 1.0
    assert ball_potential_radial(1.0, 1.0, 3) == 1.0
    assert ball_potential_radial(5.0, 0.0, 3) == 0.0
    # d = 4 decay exponent is 2
    assert ball_potential_radial(2.0, 1.0, 4) == pytest.approx(0.25)
    # vectorised form
    r = np.array([2.0, 4.0, 0.1])
    np.testing.assert_allclose(ball_potential_radial(r, 1.0, 3), [0.5, 0.25, 1.0])


def test_extrapolation_exact_for_analytic_condenser_values():
    # the correction law is exact for concentric spheres
    r5 = CapacityResult(condenser(1.0, 5.0), "variational", 3, truncation=5.0)
    r10 = CapacityResult(condenser(1.0, 10.0), "variational", 3, truncation=10.0)
    out = capacity_extrapolate(r5, r10)
    assert out.method == "extrapolated"
    assert out.value == pytest.approx(4.0 * math.pi, rel=1e-12)

    # linear in the radius: a = 0.5 gives 2 pi
    r5 = CapacityResult(condenser(0.5, 5.0), "variational", 3, truncation=5.0)
    r10 = CapacityResult(condenser(0.5, 10.0), "variational", 3, truncation=10.0)
    assert capacity_extrapolate(r5, r10).value == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_extrapolation_fixed_point_and_errors():
    equal1 = CapacityResult(7.0, "variational", 3, truncation=4.0)
    equal2 = CapacityResult(7.0, "variational", 3, truncation=8.0)
    assert capacity_extrapolate(equal1, equal2).value == 7.0

    increasing = CapacityResult(8.0, "variational", 3, truncation=8.0)
    with pytest.raises(ExtrapolationError):
        capacity_extrapolate(equal1, increasing)

    too_close = CapacityResult(6.0, "variational", 3, truncation=6.0)
    with pytest.raises(InvalidParameterError):
        capacity_extrapolate(equal1, too_close)


def test_variational_zero_radius():
    assert capacity_variational(3, 0.0, 4.0, 0.5).value == 0.0


def test_variational_parameter_validation():
    with pytest.raises(ResolutionError):
        capacity_variational(3, 1.0, 5.0, 0.5)  # h >= a/2
    with pytest.raises(InvalidParameterError):
        capacity_variational(3, 5.0, 4.0, 0.125)  # a >= L
    with pytest.raises(InvalidParameterError):
        capacity_variational(3, 1.0, 5.0, 0.13)  # L/h not integral
    with pytest.raises(InvalidParameterError):
        capacity_variational(2, 1.0, 5.0, 0.125)


def test_variational_matches_sparse_direct_solve():
    # independent oracle for the discrete minimisation: assemble the free
    # system explicitly and solve it with scipy, then compare energies
    import scipy.sparse
    import scipy.sparse.linalg

    from perfhom.capacity import BALL_MASK_INFLATION

    a, L, h = 1.0, 2.0, 0.25
    K = int(round(L / h))
    coords = (np.arange(2 * K + 1) - K) * h
    m = coords.size
    shape = (m, m, m)
    r2 = (
        coords[:, None, None] ** 2
        + coords[None, :, None] ** 2
        + coords[None, None, :] ** 2
    )
    masked_radius = a + BALL_MASK_INFLATION * h
    ball = r2 <= masked_radius**2
    boundary = np.zeros(shape, dtype=bool)
    for ax in range(3):
        sl = [slice(None)] * 3
        sl[ax] = 0
        boundary[tuple(sl)] = True
        sl[ax] = -1
        boundary[tuple(sl)] = True
    fixed = ball | boundary
    free = ~fixed
    idx = -np.ones(shape, dtype=int)
    idx[free] = np.arange(free.sum())
    rows, cols, vals = [], [], []
    rhs = np.zeros(free.sum())
    values = np.where(ball, 1.0, 0.0)
    offsets = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for p in zip(*np.nonzero(free)):
        row = idx[p]
        rows.append(row)
        cols.append(row)
        vals.append(6.0 / h**2)
        for off in offsets:
            q = tuple(np.add(p, off))
            if any(c < 0 or c >= m for c in q):
                continue
            if free[q]:
                rows.append(row)
                cols.append(idx[q])
                vals.append(-1.0 / h**2)
            else:
                rhs[row] += values[q] / h**2
    A = scipy.sparse.csr_matrix((vals, (rows, cols)))
    solution = scipy.sparse.linalg.spsolve(A, rhs)
    full = values.copy()
    full[free] = solution
    energy = sum(float((np.diff(full, axis=ax) ** 2).sum()) for ax in range(3)) * h

    ours = capacity_variational(3, a, L, h, tol=1e-12)
    assert ours.value == pytest.approx(energy, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([3, 4]),
    half=st.integers(3, 8),
    h=st.floats(0.05, 1.0),
    s=st.floats(0.02, 0.98),
)
def test_variational_ball_mask_is_the_cube_staircase(d, half, h, s):
    # the ball's mask on the rescaled unit-cube grid is the staircase
    # |x| <= a + h/3 on the interior nodes of the [-L, L]^d lattice,
    # away from nodes within rounding of the masked sphere
    from perfhom.capacity import BALL_MASK_INFLATION

    a, L = (2.0 + s * (half - 2)) * h, half * h
    masks = []
    hole_mask = solver.hole_mask

    def spy(grid, holes):
        masks.append(hole_mask(grid, holes))
        return masks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "hole_mask", spy)
        capacity_variational(d, a, L, h)
    coords = (np.arange(1, 2 * half) - half) * h
    r = np.sqrt(sum(np.ix_(*[coords**2] * d)))
    masked_radius = a + BALL_MASK_INFLATION * h
    clear = np.abs(r - masked_radius) > 1e-9 * h
    assert masks
    for mask in masks:
        assert mask.shape == r.shape
        np.testing.assert_array_equal(mask[clear], (r <= masked_radius)[clear])


def test_variational_subset_monotonicity():
    small = capacity_variational(3, 0.6, 3.0, 0.25)
    large = capacity_variational(3, 1.0, 3.0, 0.25)
    assert small.value < large.value


def test_variational_decreases_in_truncation():
    near = capacity_variational(3, 1.0, 3.0, 0.25)
    far = capacity_variational(3, 1.0, 6.0, 0.25)
    assert far.value < near.value


def sampled_potential_energy(a, L, h):
    K = int(round(L / h))
    coords = (np.arange(2 * K + 1) - K) * h
    r = np.sqrt(
        coords[:, None, None] ** 2
        + coords[None, :, None] ** 2
        + coords[None, None, :] ** 2
    )
    field = np.minimum(1.0, a / np.maximum(r, a))
    return sum(float((np.diff(field, axis=ax) ** 2).sum()) for ax in range(3)) * h


def test_sampled_potential_energy_matches_truncated_dirichlet_integral():
    # discrete Dirichlet energy of the sampled equilibrium potential over
    # the cube equals the exact field energy over the same region up to
    # the O(h) staircase error; the exact value is 4 pi a^2 (1/a - 1/R)
    # with R between the cube's inscribed and circumscribed spheres
    a, L = 1.0, 4.0
    lower = 4.0 * math.pi * a * a * (1.0 / a - 1.0 / L)
    upper = 4.0 * math.pi * a * a * (1.0 / a - 1.0 / (L * math.sqrt(3.0)))
    coarse = sampled_potential_energy(a, L, 0.25)
    fine = sampled_potential_energy(a, L, 0.125)
    for energy in (coarse, fine):
        assert lower * 0.97 < energy < upper * 1.03
    # refinement moves the value by O(h) at most
    assert abs(fine - coarse) < 0.15 * lower * 0.25
