"""Hole families: closed balls with their enclosing-ball and separation data.

A family holds one ball per lattice cell as three arrays: centers,
radii and cell indices.  A hole of radius 0 encodes the empty set and is
kept so the cell-to-hole indexing stays total.  For balls the
enclosing-ball bound ``a <= diam K <= 2a`` holds with equality
``diam = 2a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvalidParameterError

# Rounding allowance of the inclusion test, in ulps of ``|index| + 1``.
INCLUSION_ULPS = 4


class Hole(NamedTuple):
    """One ball of a :class:`HoleFamily`; ``radius == 0`` means empty."""

    center: tuple[float, ...]
    radius: float
    cell_index: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.radius == 0.0


@dataclass(frozen=True, eq=False)
class HoleFamily:
    """Balls ``B(centers[i], radii[i])`` owned by cells ``index[i]``.

    ``centers`` is ``(N, d)`` float, ``radii`` ``(N,)`` float and
    ``index`` ``(N, d)`` int64.  Centers and radii must be finite and
    radii nonnegative.  Iterating yields one :class:`Hole` per ball.
    """

    centers: np.ndarray
    radii: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        radii = np.asarray(self.radii, dtype=float)
        index = np.asarray(self.index, dtype=np.int64)
        if centers.ndim != 2 or index.shape != centers.shape or radii.shape != centers.shape[:1]:
            shapes = f"centers {centers.shape}, radii {radii.shape}, index {index.shape}"
            raise InvalidParameterError(f"hole arrays disagree: {shapes}")
        if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
            raise InvalidParameterError("hole centers and radii must be finite")
        if np.any(radii < 0.0):
            raise InvalidParameterError(f"hole radius must be >= 0, got {radii.min()}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "index", index)

    @classmethod
    def from_holes(cls, holes: Iterable[Hole], dim: int) -> HoleFamily:
        """Family of ``dim``-dimensional :class:`Hole` records (possibly none)."""
        centers, radii, index = list(zip(*holes)) or ((), (), ())
        return cls(np.reshape(centers, (-1, dim)), radii, np.reshape(index, (-1, dim)))

    def __len__(self) -> int:
        return self.radii.shape[0]

    def __iter__(self):
        rows = zip(self.centers.tolist(), self.radii.tolist(), self.index.tolist())
        return (Hole(tuple(c), r, tuple(i)) for c, r, i in rows)

    @property
    def nonempty(self) -> HoleFamily:
        keep = self.radii > 0.0
        return HoleFamily(self.centers[keep], self.radii[keep], self.index[keep])


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


def disjointness_check(holes: HoleFamily, seps: SeparationParams) -> DisjointnessReport:
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
    centers = holes.centers
    index = holes.index
    slack = INCLUSION_ULPS * np.finfo(float).eps * (np.abs(index) + 1.0)
    local = np.abs(centers / seps.epsilon - index) + seps.c1
    outside = np.any(local > 1.0 + slack, axis=1)
    # holes whose index row equals a neighbour's in lexicographic order
    order = np.lexsort(index.T)
    repeat = np.flatnonzero((index[order[1:]] == index[order[:-1]]).all(axis=1))
    shared = np.zeros(len(holes), dtype=bool)
    shared[order[repeat]] = shared[order[repeat + 1]] = True
    suspect = outside | shared | np.any(index % 2 != 0, axis=1)
    limit = (2.0 * seps.R) ** 2
    pairs = set()
    for i in np.flatnonzero(suspect).tolist():
        diff = centers - centers[i]
        near = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) < limit).tolist()
        pairs.update((min(i, j), max(i, j)) for j in near if j != i)
    violations = tuple(map(tuple, index[outside].tolist()))
    return DisjointnessReport(
        disjoint=not pairs,
        inclusion_ok=not violations,
        overlapping_pairs=tuple(sorted(pairs)),
        inclusion_violations=violations,
    )


def _csv_header(dim: int) -> list[str]:
    return [f"i{k + 1}" for k in range(dim)] + [f"cx{k + 1}" for k in range(dim)] + ["radius"]


def _formatted(column: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for every value of ``column``, as an object array,
    formatting each distinct value once.  Values are told apart by their
    bits, so ``-0.0`` and ``0.0`` keep their own strings."""
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = [fmt % v for v in keys.view(column.dtype).tolist()]
    return np.array(text, dtype=object)[inverse.reshape(-1)]


def write_holes_csv(holes: HoleFamily, path) -> None:
    """Serialise holes as CSV with 17-significant-digit decimals.

    Lattice families repeat few distinct values per column (a row of
    cells shares its center coordinates), so each column formats its
    distinct values once and the rows are joined from those strings.
    """
    if not holes:
        raise InvalidParameterError("refusing to write an empty hole family")
    d = holes.centers.shape[1]
    columns = [_formatted(holes.index[:, k], "%d") for k in range(d)]
    columns += [_formatted(holes.centers[:, k], "%.17g") for k in range(d)]
    columns.append(_formatted(holes.radii, "%.17g"))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_header(d)) + "\r\n")
        fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def read_holes_csv(path) -> HoleFamily:
    """Read a hole family written by :func:`write_holes_csv`.

    A header or row that does not follow that format, a non-finite value
    or a negative radius raises :class:`InvalidParameterError`.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        dim = (len(header) - 1) // 2
        if dim < 1 or header != _csv_header(dim):
            raise InvalidParameterError(f"{path}: not a hole CSV header: {header}")
        body = fh.read()
    if not body.strip():
        raise InvalidParameterError(f"{path}: no hole rows")
    row = np.dtype([("index", np.int64, (dim,)), ("center", float, (dim,)), ("radius", float)])
    try:
        table = np.loadtxt(body.splitlines(), delimiter=",", dtype=row, ndmin=1)
        return HoleFamily(table["center"], table["radius"], table["index"])
    except ValueError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from exc
