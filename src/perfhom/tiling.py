"""Scaled lattice cells.

The plane is tiled by half-open boxes ``eps * ((-1, 1]^d + i)`` with
``i`` running over the even integer lattice ``2 Z^d``.  The translates
are pairwise disjoint and cover ``R^d``; upper faces are included, which
resolves every membership tie.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box ``(lo_1, hi_1) x ... x (lo_d, hi_d)``."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise InvalidParameterError("box bounds have mismatched dimensions")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise InvalidParameterError("box must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)


def unit_box(dim: int) -> Box:
    """The open unit cube ``(0, 1)^d``."""
    return Box((0.0,) * dim, (1.0,) * dim)


@dataclass(frozen=True)
class TilingSpec:
    """Lattice of cells ``eps * ((-1, 1]^d + i)``, ``i`` in ``2 Z^d``.

    The cell template and lattice are fixed; only the dimension and the
    scale ``eps`` vary.
    """

    dim: int
    epsilon: float

    def __post_init__(self):
        if self.dim < 3:
            raise InvalidParameterError(f"dimension must be >= 3, got {self.dim}")
        if not (self.epsilon > 0.0):
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class Cell:
    """One scaled lattice cell; ``index`` has even entries."""

    index: tuple[int, ...]
    epsilon: float

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(self.epsilon * i for i in self.index)

    @property
    def measure(self) -> float:
        return (2.0 * self.epsilon) ** self.dim

    @property
    def diameter(self) -> float:
        return 2.0 * self.epsilon * math.sqrt(self.dim)

    @property
    def lower(self) -> tuple[float, ...]:
        return tuple(self.epsilon * (i - 1) for i in self.index)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(self.epsilon * (i + 1) for i in self.index)

    def contains(self, x: Sequence[float]) -> bool:
        """Half-open membership: lower faces excluded, upper included."""
        return all(l < c <= u for l, c, u in zip(self.lower, x, self.upper))


def cells_intersecting(spec: TilingSpec, domain: Box) -> list[Cell]:
    """All cells with nonempty intersection with the open box ``domain``.

    Cells are returned once each, in lexicographic index order.
    """
    if domain.dim != spec.dim:
        raise InvalidParameterError("domain dimension does not match tiling")
    eps = spec.epsilon
    ranges: list[list[int]] = []
    for lo, hi in zip(domain.lo, domain.hi):
        # need eps*(i+1) > lo and eps*(i-1) < hi with i even
        i_min = 2 * (math.floor((lo / eps - 1.0) / 2.0) + 1)
        i_max = 2 * (math.ceil((hi / eps + 1.0) / 2.0) - 1)
        # overlap is a per-axis condition; test it on the rounded faces
        ranges.append(
            [i for i in range(i_min, i_max + 1, 2) if lo < eps * (i + 1) and eps * (i - 1) < hi]
        )
    return [Cell(index, eps) for index in itertools.product(*ranges)]


def cell_index_of(spec: TilingSpec, x: Sequence[float]) -> tuple[int, ...]:
    """Index of the unique cell containing ``x`` (upper faces included)."""
    eps = spec.epsilon
    return tuple(int(2 * math.ceil((c / eps - 1.0) / 2.0)) for c in x)


def cell_of_point(spec: TilingSpec, x: Sequence[float]) -> Cell:
    """The unique cell containing ``x``."""
    return Cell(cell_index_of(spec, x), spec.epsilon)


def cell_axis_indices(spec: TilingSpec, coords: np.ndarray) -> np.ndarray:
    """Vectorised 1-d cell index along one axis for an array of coordinates."""
    return (2 * np.ceil((np.asarray(coords, dtype=float) / spec.epsilon - 1.0) / 2.0)).astype(int)
