"""Newtonian capacity of balls: exact values, equilibrium potentials, and
a truncated variational solver for cross-checking.

The exact pieces are closed formulas: the unit-sphere area ``S_d``, the
ball capacity ``(d-2) S_d a^(d-2)``, and the equilibrium potential
``min(1, (a/r)^(d-2))``.  The variational route minimises the discrete
Dirichlet energy on a cube of half-width ``L`` with the ball clamped to
one and the cube surface to zero (a relative capacity), then removes the
truncation bias with the condenser law.  The cube is rescaled onto the
unit cube and the ball solved as one hole of the perforated solve, so it
shares that solve's node mask, whose O(h) staircase error is the
dominant error source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import EvaluationError, ExtrapolationError, InvalidParameterError, ResolutionError
from .holes import HoleFamily
from .stencil import neg_laplacian

if TYPE_CHECKING:
    from .solver import SolveStats

# Node-masked staircase balls act like spheres of radius ``a - 0.34 h``:
# the plain rule ``|x_j - c| <= a`` loses about a third of a spacing of
# effective radius (checked against the exact ball capacity and against
# Watson's constant for the single-node limit).  Inflating the mask by
# h/3 recenters the staircase on the true sphere, which keeps masked
# balls capacity-faithful at the resolutions the experiments use.
BALL_MASK_INFLATION = 1.0 / 3.0


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value with provenance.

    ``method`` is one of ``"exact"``, ``"variational"``, ``"extrapolated"``.
    ``truncation`` and ``grid_h`` are set for the numerical routes, and
    ``stats`` for the variational one: its perforated solve's record.
    """

    value: float
    method: str
    dim: int
    truncation: Optional[float] = None
    grid_h: Optional[float] = None
    stats: Optional[SolveStats] = None


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in ``R^d``: ``2 pi^(d/2) / Gamma(d/2)``.

    Gamma(d/2) comes from the half-integer recurrence
    ``Gamma(x + 1) = x Gamma(x)`` seeded at ``Gamma(1) = 1`` and
    ``Gamma(1/2) = sqrt(pi)``; for odd ``d`` the ``sqrt(pi)`` factors
    cancel analytically, leaving ``2^(k+1) pi^k / (2k - 1)!!`` with
    ``k = (d - 1) / 2``, so no irrational square root enters the value.
    """
    if d < 2:
        raise InvalidParameterError(f"sphere area needs d >= 2, got {d}")
    if d % 2 == 0:
        k = d // 2
        return 2.0 * math.pi**k / math.factorial(k - 1)
    k = (d - 1) // 2
    odd_double_factorial = 1.0
    for j in range(3, 2 * k, 2):
        odd_double_factorial *= j
    return 2.0 ** (k + 1) * math.pi**k / odd_double_factorial


def capacity_ball(d: int, a) -> CapacityResult:
    """Exact capacity ``(d-2) S_d a^(d-2)`` of a closed ball; ``a`` may be an array of radii."""
    if d < 3:
        raise InvalidParameterError(f"ball capacity needs d >= 3, got {d}")
    if not np.all(np.isfinite(a)) or np.any(np.less(a, 0.0)):
        raise InvalidParameterError(f"ball radius must be finite and >= 0, got {a}")
    try:
        with np.errstate(over="ignore"):
            value = (d - 2) * sphere_area(d) * a ** (d - 2)
    except OverflowError:
        value = math.inf
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"capacity of the ball of radius {a} overflows in d = {d}")
    return CapacityResult(value=value, method="exact", dim=d)


def ball_potential_radial(r, a: float, d: int):
    """Equilibrium potential at distance ``r`` from the center.

    Equals 1 for ``r <= a`` and ``(a/r)^(d-2)`` outside; identically 0
    for the empty ball ``a = 0``.  Accepts scalars or arrays.
    """
    if d < 3:
        raise InvalidParameterError(f"ball potential needs d >= 3, got {d}")
    if a < 0.0:
        raise InvalidParameterError(f"ball radius must be >= 0, got {a}")
    r = np.asarray(r, dtype=float)
    if a == 0.0:
        out = np.zeros_like(r)
        return out if out.ndim else float(out)
    out = (a / np.maximum(r, a)) ** (d - 2)
    return out if out.ndim else float(out)


def capacity_variational(
    d: int,
    a: float,
    L: float,
    h: float,
    *,
    tol: float = 1e-8,
) -> CapacityResult:
    """Relative capacity of ``B(0, a)`` inside the grounded cube ``[-L, L]^d``.

    Minimises the discrete Dirichlet energy over grid fields with value 1
    on ball nodes and 0 on the cube surface.  The cube is rescaled onto
    the unit cube, where the ball is one hole of the perforated solve: its
    mask is :func:`~perfhom.solver.hole_mask` (``|x| <= a + h/3``, the
    recentred staircase), and :func:`~perfhom.solver.solve_perforated`
    finds the correction that vanishes on the ball and makes the field
    discrete-harmonic off it.  ``tol`` is the relative residual of that
    correction system on the free nodes.  The value decreases in ``L``
    toward the Newtonian capacity.

    Requires ``0 <= a < L``, ``0 < h < a / 2`` and ``L/h`` integral.
    """
    # solver imports this module for the ball potential and the mask rule
    from .solver import Grid, SolveStats, hole_mask, solve_perforated

    if d < 3:
        raise InvalidParameterError(f"variational capacity needs d >= 3, got {d}")
    if not (math.isfinite(L) and math.isfinite(h) and h > 0.0):
        raise InvalidParameterError(f"need finite L and h > 0, got L={L}, h={h}")
    if a == 0.0:
        return CapacityResult(
            value=0.0, method="variational", dim=d, truncation=L, grid_h=h,
            stats=SolveStats(0, 0.0, 0.0),
        )
    if not (0.0 <= a < L):
        raise InvalidParameterError(f"need 0 <= a < L, got a={a}, L={L}")
    if h >= a / 2.0:
        raise ResolutionError(f"grid spacing h={h} cannot resolve ball radius a={a} (need h < a/2)")
    half = L / h
    if abs(half - round(half)) > 1e-9:
        raise InvalidParameterError(f"L/h must be an integer, got {L}/{h}")
    half = int(round(half))

    grid = Grid(d, 2 * half - 1)
    ball = HoleFamily(np.full((1, d), 0.5), [a / (2.0 * L)], np.zeros((1, d), dtype=np.int64))
    u = hole_mask(grid, ball).astype(float)
    correction, stats = solve_perforated(-neg_laplacian(u, grid.h), ball, grid, tol)
    u = np.pad(u + correction, 1)

    energy = 0.0
    for ax in range(d):
        diffs = np.diff(u, axis=ax)
        energy += float((diffs * diffs).sum())
    energy *= h ** (d - 2)
    return CapacityResult(
        value=energy, method="variational", dim=d, truncation=L, grid_h=h, stats=stats
    )


def check_truncations(L1: float, L2: float) -> None:
    """The rule :func:`capacity_extrapolate` puts on its truncation pair,
    checkable before either solve: a finite ``L2 >= 2 L1``."""
    if not 2.0 * L1 <= L2 < math.inf:
        raise InvalidParameterError(f"need finite L2 >= 2 L1, got L1={L1}, L2={L2}")


def capacity_extrapolate(first: CapacityResult, second: CapacityResult) -> CapacityResult:
    """Remove the truncation bias from two variational results.

    Fits the condenser law ``1/cap_L = 1/cap_inf - beta / L^(d-2)`` to the
    pair and returns ``cap_inf``.  For concentric spheres the law is exact
    (``beta = 1 / ((d-2) S_d)``); for the cube truncation the fitted
    ``beta`` absorbs the shape factor.  Requires ``L2 >= 2 L1``
    (:func:`check_truncations`) and values decreasing in ``L``; equal
    values are a fixed point.
    """
    if first.dim != second.dim:
        raise InvalidParameterError("cannot extrapolate across dimensions")
    if first.truncation is None or second.truncation is None:
        raise InvalidParameterError("extrapolation needs truncated results")
    d = first.dim
    L1, L2 = first.truncation, second.truncation
    check_truncations(L1, L2)
    c1, c2 = first.value, second.value
    if c2 > c1:
        raise ExtrapolationError(
            f"capacity must decrease in L, got cap({L1})={c1} < cap({L2})={c2}"
        )
    if c2 == c1:
        return CapacityResult(value=c1, method="extrapolated", dim=d, grid_h=first.grid_h)
    p = d - 2
    beta = (1.0 / c2 - 1.0 / c1) / (L1 ** (-p) - L2 ** (-p))
    inv_cap = 1.0 / c2 + beta * L2 ** (-p)
    if inv_cap <= 0.0:
        raise ExtrapolationError("extrapolated capacity is not positive")
    return CapacityResult(value=1.0 / inv_cap, method="extrapolated", dim=d, grid_h=first.grid_h)
