"""Numerical checks of the separation assumptions and the capacity-density
convergence.

The assumption quantities are direct finite sums and sups over the cells
meeting the domain.  The negative-norm machinery realises the discrete
``H^-1`` norm through the same grid Laplacian the solvers use, so both
sides of every comparison carry the same discretisation bias:

    ||nu||_{H^-1} = sqrt(<nu, phi> h^d)   with   -Delta_h phi = nu,

where ``<nu, phi>`` is the energy of the exact sine-basis solve, read
off the spectrum of ``nu`` without forming ``phi``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .capacity import capacity_ball
from .cg import dot
from .cg import pcg  # noqa: F401  (perfbench/tracing.py wraps diagnostics.pcg)
from .errors import InvalidParameterError
from .holes import HoleFamily, SeparationParams
from .solver import Grid
from .solver import lump_measure  # noqa: F401  (perfbench/tracing.py wraps diagnostics.lump_measure)
from .stencil import dirichlet_energy
from .stencil import neg_laplacian  # noqa: F401  (perfbench/tracing.py wraps diagnostics.neg_laplacian)
from .tiling import CellFamily, TilingSpec, cell_axis_indices

Array = np.ndarray


@dataclass(frozen=True)
class AssumptionReport:
    """Snapshot of the separation-assumption quantities at one epsilon.

    Sums and sups run over the cells meeting the domain; empty holes
    contribute zero to the sums.
    """

    epsilon: float
    n_cells: int
    n_holes: int
    max_R: float
    sup_a_over_R: float
    sum_A2: float
    sup_A3: float
    sum_A4: float
    sum_A6: float
    diam_over_R: float

    def as_row(self) -> dict:
        return asdict(self)


def assumption_quantities(
    holes: HoleFamily, seps: SeparationParams, cells: CellFamily
) -> AssumptionReport:
    """Evaluate the separation-assumption quantities by direct summation.

    ``holes.index`` must equal ``cells.index`` row for row; every cell
    has diameter ``2 eps sqrt(d)`` and measure ``(2 eps)^d``.
    """
    if not cells:
        raise InvalidParameterError("assumption quantities need at least one cell")
    if not np.array_equal(holes.index, cells.index):
        raise InvalidParameterError(
            f"holes and cells are misaligned ({len(holes)} holes, {len(cells)} cells)"
        )
    d = cells.index.shape[1]
    R = seps.R
    radii = holes.radii
    diam_cell = 2.0 * cells.epsilon * math.sqrt(d)
    measure = (2.0 * cells.epsilon) ** d
    powers = radii ** (d - 2)
    return AssumptionReport(
        epsilon=seps.epsilon,
        n_cells=len(cells),
        n_holes=int(np.count_nonzero(radii)),
        max_R=R,
        sup_a_over_R=float(radii.max()) / R,
        sum_A2=float((powers * powers).sum()) / R ** (d - 2),
        sup_A3=measure / R**d,
        sum_A4=float(powers.sum()) * diam_cell,
        sum_A6=float(powers.sum()),
        diam_over_R=diam_cell / R,
    )


def hminus1_norm(nu: Array, grid: Grid) -> float:
    """Discrete ``H^-1`` norm of a nodal density.

    Returns ``sqrt(<nu, phi> h^d)`` for ``-Delta_h phi = nu`` with zero
    boundary values, the pairing being the energy of the exact sine-basis
    solve (:func:`~perfhom.stencil.dirichlet_energy`).  Homogeneous of
    degree one (exactly, for powers of two) and zero exactly for
    ``nu = 0``.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.shape != grid.shape:
        raise InvalidParameterError("density shape does not match grid")
    if not np.all(np.isfinite(nu)):
        raise InvalidParameterError("density must be finite at all nodes")
    return _hminus1_norm(nu, grid, overwrite=False)


def _hminus1_norm(nu: Array, grid: Grid, overwrite: bool) -> float:
    """:func:`hminus1_norm` without the checks; ``overwrite`` lets the
    transforms use ``nu`` as scratch."""
    pairing = dirichlet_energy(nu, grid.h, overwrite_b=overwrite) * grid.h**grid.dim
    return math.sqrt(max(pairing, 0.0))


def _cell_densities(holes: HoleFamily, spec: TilingSpec, grid: Grid) -> tuple[Array, Array]:
    """``cap(K_i)/|A_i|`` on the cells meeting the grid, as a dense array
    over their ordinals, and the cell ordinal of each node coordinate
    along one axis (the same on every axis)."""
    if spec.dim != grid.dim:
        raise InvalidParameterError("tiling and grid dimensions differ")
    measure = (2.0 * spec.epsilon) ** spec.dim
    axis_cells = cell_axis_indices(spec, grid.axis())
    lo = int(axis_cells.min())
    hi = int(axis_cells.max())
    ords = (axis_cells - lo) // 2
    count = (hi - lo) // 2 + 1
    dense = np.zeros((count,) * grid.dim)
    pos = (holes.index - lo) // 2
    keep = np.all((pos >= 0) & (pos < count), axis=1)
    dense[tuple(pos[keep].T)] = capacity_ball(spec.dim, holes.radii[keep]).value / measure
    return dense, ords


def capacity_density_field(
    holes: HoleFamily, spec: TilingSpec, grid: Grid
) -> Array:
    """Nodal field ``sum_i cap(K_i)/|A_i| 1_{A_i}`` on the grid.

    Every interior node lies in exactly one cell; nodes whose cell has no
    hole in ``holes`` get zero.
    """
    dense, ords = _cell_densities(holes, spec, grid)
    return dense[np.ix_(*([ords] * grid.dim))]


def ldc_deviation(
    holes: HoleFamily,
    lumped: Array,
    spec: TilingSpec,
    grid: Grid,
) -> float:
    """``H^-1`` distance between the capacity density and the lumped target.

    ``lumped`` is the target potential on ``grid`` from
    :func:`~perfhom.solver.lump_measure`, and is overwritten: the
    deviation ``capacity density - lumped`` is built in it one axis-0
    slab at a time and, when it is C-contiguous, transformed there, so
    no other grid array is made (pass a copy to keep the target).  Under
    the capacity-matched construction this isolates the cell-averaging
    error of the target.
    """
    if lumped.shape != grid.shape:
        raise InvalidParameterError("lumped measure shape does not match grid")
    dense, ords = _cell_densities(holes, spec, grid)
    tail = np.ix_(*([ords] * (grid.dim - 1)))
    for i, cell in enumerate(ords):
        slab = lumped[i : i + 1]
        np.subtract(dense[cell][tail], slab, out=slab)
    return _hminus1_norm(lumped, grid, overwrite=True)


def _check_test_function(g: Callable[[Array], Array], grid: Grid) -> None:
    """Require a test function to vanish on the domain boundary."""
    probe = np.linspace(0.0, 1.0, 9)
    mesh = np.meshgrid(*([probe] * (grid.dim - 1)), indexing="ij")
    sheet = np.stack([m.ravel() for m in mesh], axis=-1)
    worst = 0.0
    for ax in range(grid.dim):
        for value in (0.0, 1.0):
            pts = np.insert(sheet, ax, value, axis=1)
            worst = max(worst, float(np.abs(np.asarray(g(pts), dtype=float)).max()))
    center = np.full((1, grid.dim), 0.5)
    scale = max(float(np.abs(np.asarray(g(center), dtype=float)).max()), 1.0)
    if worst > 1e-9 * scale:
        raise InvalidParameterError(
            "test function does not vanish on the domain boundary"
        )


def dprime_pairing(holes: HoleFamily, g: Callable[[Array], Array], grid: Grid) -> float:
    """Pairing of the hole capacities with a smooth test function.

    Returns ``sum_i cap(K_i) g(center_i)`` over the nonempty holes.  This
    is the pairing of ``g`` with the capacity density
    ``sum_i cap(K_i)/|K_i| 1_{K_i}`` up to O(radius^2), because the ball
    average of a smooth ``g`` matches its center value to that order.
    ``g`` must vanish on the boundary of the unit cube, which ``grid``
    discretises.
    """
    _check_test_function(g, grid)
    holes = holes.nonempty
    return dot(capacity_ball(grid.dim, holes.radii).value, g(holes.centers))
