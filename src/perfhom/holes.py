"""Hole families: closed balls with their enclosing-ball and separation data.

A hole of radius 0 encodes the empty set and is kept in the list so the
cell-to-hole indexing stays total.  For balls the enclosing-ball bound
``a <= diam K <= 2a`` holds with equality ``diam = 2a``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError

# Rounding allowance of the inclusion test, in ulps of ``|index| + 1``.
INCLUSION_ULPS = 4


@dataclass(frozen=True)
class Hole:
    """A closed ball ``B(center, radius)``; ``radius == 0`` means empty."""

    center: tuple[float, ...]
    radius: float
    cell_index: tuple[int, ...]

    def __post_init__(self):
        if self.radius < 0.0:
            raise InvalidParameterError(f"hole radius must be >= 0, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def is_empty(self) -> bool:
        return self.radius == 0.0

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class SeparationParams:
    """Separation radii ``R = c1 * eps`` shared by all holes of one family.

    ``margin(a) = R - a`` is the cutoff annulus width; it must stay
    positive for the corrector to be defined.
    """

    c1: float
    epsilon: float

    def __post_init__(self):
        if not (self.c1 > 0.0 and self.epsilon > 0.0):
            raise InvalidParameterError("separation needs c1 > 0 and epsilon > 0")

    @property
    def R(self) -> float:
        return self.c1 * self.epsilon

    def margin(self, radius: float) -> float:
        return self.R - radius


@dataclass(frozen=True)
class DisjointnessReport:
    """Result of the separation-ball geometry check."""

    disjoint: bool
    inclusion_ok: bool
    overlapping_pairs: tuple[tuple[int, int], ...] = ()
    inclusion_violations: tuple[tuple[int, ...], ...] = ()

    @property
    def ok(self) -> bool:
        return self.disjoint and self.inclusion_ok


def disjointness_check(holes: Sequence[Hole], seps: SeparationParams) -> DisjointnessReport:
    """Check that separation balls are pairwise disjoint and sit in their cells.

    Open balls touching at a point count as disjoint.  The inclusion part
    checks ``B(center, c1*eps)`` against the owning cell's half-open box
    in cell-local units, ``|center/eps - index| + c1 <= 1`` per axis.  The
    comparison allows ``INCLUSION_ULPS`` ulps of ``|index| + 1``, which
    absorbs the rounding of ``center = eps * index`` and of the division,
    so a ball centered in its cell with ``c1 = 1`` passes at every pitch;
    a ball poking out of its cell by less than that allowance (relative to
    the cell half-width ``eps``) counts as touching.

    Open balls inside distinct half-open cells cannot overlap, so pair
    distances are measured only for holes that fail inclusion, share a
    cell index with another hole or carry an odd (non-lattice) index;
    the check is O(N) on a valid lattice.  Pair indices refer to
    positions in ``holes``.
    """
    if not holes:
        return DisjointnessReport(disjoint=True, inclusion_ok=True)
    centers = np.array([h.center for h in holes], dtype=float)
    index = np.array([h.cell_index for h in holes], dtype=np.int64)
    slack = INCLUSION_ULPS * np.finfo(float).eps * (np.abs(index) + 1.0)
    local = np.abs(centers / seps.epsilon - index) + seps.c1
    outside = np.any(local > 1.0 + slack, axis=1)
    _, owner, count = np.unique(index, axis=0, return_inverse=True, return_counts=True)
    shared = count[owner.reshape(-1)] > 1
    suspect = outside | shared | np.any(index % 2 != 0, axis=1)
    limit = (2.0 * seps.R) ** 2
    pairs = set()
    for i in np.flatnonzero(suspect).tolist():
        diff = centers - centers[i]
        near = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) < limit).tolist()
        pairs.update((min(i, j), max(i, j)) for j in near if j != i)
    violations = tuple(holes[i].cell_index for i in np.flatnonzero(outside).tolist())
    return DisjointnessReport(
        disjoint=not pairs,
        inclusion_ok=not violations,
        overlapping_pairs=tuple(sorted(pairs)),
        inclusion_violations=violations,
    )


def _csv_header(dim: int) -> list[str]:
    return [f"i{k + 1}" for k in range(dim)] + [f"cx{k + 1}" for k in range(dim)] + ["radius"]


def write_holes_csv(holes: Sequence[Hole], path) -> None:
    """Serialise holes as CSV with 17-significant-digit decimals."""
    if not holes:
        raise InvalidParameterError("refusing to write an empty hole list")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(holes[0].dim))
        for h in holes:
            row = [str(i) for i in h.cell_index]
            row += [format(c, ".17g") for c in h.center]
            row.append(format(h.radius, ".17g"))
            writer.writerow(row)


def read_holes_csv(path) -> list[Hole]:
    """Read a hole list written by :func:`write_holes_csv`.

    A header or row that does not follow that format raises
    :class:`InvalidParameterError`.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        dim = (len(header) - 1) // 2
        if dim < 1 or header != _csv_header(dim):
            raise InvalidParameterError(f"{path}: not a hole CSV header: {header}")
        holes = []
        for row in reader:
            try:
                if len(row) != 2 * dim + 1:
                    raise ValueError(f"expected {2 * dim + 1} fields, got {len(row)}")
                index = tuple(int(v) for v in row[:dim])
                center = tuple(float(v) for v in row[dim : 2 * dim])
                holes.append(Hole(center, float(row[2 * dim]), index))
            except ValueError as exc:
                raise InvalidParameterError(f"{path}, line {reader.line_num}: {exc}") from exc
    return holes
