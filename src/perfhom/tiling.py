"""Scaled lattice cells.

The plane is tiled by half-open boxes ``eps * ((-1, 1]^d + i)`` with
``i`` running over the even integer lattice ``2 Z^d``.  The translates
are pairwise disjoint and cover ``R^d``; upper faces are included, which
resolves every membership tie; :func:`cell_axis_indices` is the one
point-to-cell rule.  The cells of one pitch form a :class:`CellFamily`,
one ``(N, d)`` index array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if not (0.0 < self.epsilon < math.inf):
            raise InvalidParameterError(f"epsilon must be positive and finite, got {self.epsilon}")


class Cell(NamedTuple):
    """One scaled lattice cell; ``index`` has even entries."""

    index: tuple[int, ...]
    epsilon: float

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(self.epsilon * i for i in self.index)


@dataclass(frozen=True, eq=False)
class CellFamily:
    """Cells ``eps * ((-1, 1]^d + index[i])``; ``index`` is ``(N, d)``
    int64 with even entries.  Iterating yields one :class:`Cell` per row.
    """

    index: np.ndarray
    epsilon: float

    def __len__(self) -> int:
        return self.index.shape[0]

    def __iter__(self):
        return (Cell(tuple(i), self.epsilon) for i in self.index.tolist())


def cells_intersecting(spec: TilingSpec, domain: Box) -> CellFamily:
    """All cells with nonempty intersection with the open box ``domain``.

    Cells are returned once each, in lexicographic index order.  A pitch
    too fine to index in int64 or in memory raises InvalidParameterError.
    """
    if domain.dim != spec.dim:
        raise InvalidParameterError("domain dimension does not match tiling")
    eps = spec.epsilon
    try:
        ranges = []
        for lo, hi in zip(domain.lo, domain.hi):
            # even i with eps*(i+1) > lo and eps*(i-1) < hi, plus one on each side
            # as a quotient may round across a face: the rounded-face test decides
            i_min = 2 * math.floor((lo / eps - 1.0) / 2.0)
            i_max = 2 * math.ceil((hi / eps + 1.0) / 2.0)
            i = np.arange(i_min, i_max + 1, 2, dtype=np.int64)
            ranges.append(i[(lo < eps * (i + 1)) & (eps * (i - 1) < hi)])
        index = np.stack(np.meshgrid(*ranges, indexing="ij", copy=False), axis=-1)
    except (ArithmeticError, MemoryError, ValueError) as exc:
        count = " x ".join(f"{(hi - lo) / (2.0 * eps):.3g}" for lo, hi in zip(domain.lo, domain.hi))
        raise InvalidParameterError(
            f"pitch {eps!r} gives about {count} cells, too many for int64 indices in memory"
        ) from exc
    return CellFamily(index.reshape(-1, spec.dim), eps)


def cell_axis_indices(epsilon: float, coords: np.ndarray) -> np.ndarray:
    """Cell index at pitch ``epsilon`` of each coordinate along one axis; upper faces included."""
    return (2 * np.ceil((np.asarray(coords, dtype=float) / epsilon - 1.0) / 2.0)).astype(int)
