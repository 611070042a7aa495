"""Nonnegative target potentials and their cell masses.

A potential is a nonnegative Borel measure given in one of three forms:
a density (``L^p`` with ``p >= d``), a weighted surface measure of a
Lipschitz graph ``x_d = s(x')``, or a finite sum of such parts.  The
central operation is the mass ``mu(A_i)`` of a lattice cell, evaluated
by fixed rules: tensor Gauss quadrature of order
:data:`CELL_MASS_GAUSS_ORDER` for densities, and midpoint quadrature of
``weight * sqrt(1 + |grad s|^2)`` over the cell footprint,
:data:`SURFACE_MIDPOINTS` midpoints per cell width and axis, for graphs.

All callables are vectorised: they take points of shape ``(N, k)`` and
return shape ``(N,)`` (or ``(N, k)`` for gradients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import EvaluationError, InvalidParameterError
from .tiling import Box, Cell, CellFamily, TilingSpec, cell_axis_indices, cells_intersecting


# Gauss points per cell axis: construction sets cap(K_i) = mu(A_i), so masses must be accurate.
CELL_MASS_GAUSS_ORDER = 4
# Footprint midpoints per cell width (node spacing, in lumping) and axis: resolve the area element.
SURFACE_MIDPOINTS = 16


@dataclass(frozen=True)
class Density:
    """Absolutely continuous part ``f(x) dx`` with nonnegative ``f``."""

    f: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SurfaceGraph:
    """Weighted surface measure of the graph ``x_d = height(x')``.

    ``grad`` must return the gradient of ``height`` (shape ``(N, d-1)``),
    ``weight`` is a bounded nonnegative function of ``x'`` (or a scalar),
    and ``lip`` is a Lipschitz constant for ``height``.
    """

    height: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    weight: Union[float, Callable[[np.ndarray], np.ndarray]] = 1.0
    lip: float = 0.0


@dataclass(frozen=True)
class SumPotential:
    """Finite sum of potentials."""

    parts: tuple["Potential", ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidParameterError("sum potential needs at least one part")


Potential = Union[Density, SurfaceGraph, SumPotential]


def eval_checked(f, points: np.ndarray) -> np.ndarray:
    """Evaluate a vectorised callable and reject non-finite output."""
    values = np.asarray(f(points), dtype=float)
    if not np.all(np.isfinite(values)):
        raise EvaluationError("potential callable returned non-finite values")
    return values


def box_quadrature(f, centers: np.ndarray, half: float, order: int) -> np.ndarray:
    """Tensor Gauss integrals of a nonnegative density ``f`` over the boxes
    of half-width ``half`` centered at the rows of ``centers``.

    One pass per Gauss node evaluates ``f`` at all shifted centers.
    """
    dim = centers.shape[1]
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    offsets = np.meshgrid(*([half * ref_x] * dim), indexing="ij")
    qweights = half * ref_w
    for _ in range(dim - 1):
        qweights = np.multiply.outer(qweights, half * ref_w)
    acc = np.zeros(centers.shape[0])
    for offset, qweight in zip(np.stack([g.ravel() for g in offsets], axis=-1), qweights.ravel()):
        values = eval_checked(f, centers + offset)
        if np.any(values < 0.0):
            raise InvalidParameterError("density must be nonnegative")
        acc += qweight * values
    return acc


def bin_footprint(mu: SurfaceGraph, axes: Sequence[np.ndarray], area: float, axis_index, shape):
    """Midpoint samples of a graph measure summed into a ``shape`` array.

    The footprint is the tensor product of the ravelled ``axes``, whose
    coordinates ascend; each sample has mass
    ``weight * sqrt(1 + |grad s|^2) * area``.  ``axis_index(k, coords)``
    maps coordinates along axis ``k`` (the last axis takes the lifted
    heights) to bin positions, nondecreasing in ``coords``; samples with
    a position outside ``[0, shape[k])`` on any axis are dropped.

    Everything separable is done once per axis: the footprint axes are
    binned (and their out-of-range coordinates dropped) once, as 1-D
    arrays.  The axis-0 samples then split into runs sharing one axis-0
    bin.  Each run evaluates the callables on its own points, bins only
    the lifted heights and fills its slab ``dense[i0]`` with one
    ``np.bincount``, so scratch stays at one run of samples,
    ``O(n^(d-1))``.  No two runs share a bin and ``bincount`` adds in
    input order, so every bin adds its samples in footprint order, as one
    ``np.add.at`` pass over the whole footprint would.
    """
    dense = np.zeros(shape)
    coords, idx = [], []
    for k, axis in enumerate(axes):
        c = np.ravel(axis)
        i = axis_index(k, c)
        keep = (i >= 0) & (i < shape[k])
        coords.append(c[keep])
        idx.append(i[keep])
    # flat position in a slab of each sample over the axes 1..d-2, before the height bin
    base = np.ravel_multi_index(np.meshgrid(*idx[1:], indexing="ij"), shape[1:-1]).ravel()
    base *= shape[-1]
    starts = np.flatnonzero(np.diff(idx[0])) + 1
    for i0, run in zip(idx[0][np.r_[0, starts]], np.split(coords[0], starts)):
        mesh = np.meshgrid(run, *coords[1:], indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=-1)
        heights = eval_checked(mu.height, points)
        grads = np.asarray(mu.grad(points), dtype=float).reshape(len(points), -1)
        norm2 = grads[:, 0] * grads[:, 0]
        for k in range(1, grads.shape[1]):
            norm2 += grads[:, k] * grads[:, k]
        weight = eval_checked(mu.weight, points) if callable(mu.weight) else float(mu.weight)
        if np.any(weight < 0.0):
            raise InvalidParameterError("surface weight must be nonnegative")
        mass = weight * np.sqrt(1.0 + norm2) * area
        iz = axis_index(len(axes), heights)
        lin = (base + iz.reshape(len(run), -1)).ravel()
        keep = (iz >= 0) & (iz < shape[-1])
        if not keep.all():
            lin, mass = lin[keep], mass[keep]
        dense[i0] += np.bincount(lin, weights=mass, minlength=dense[i0].size).reshape(shape[1:])
    return dense


def cell_masses(mu: Potential, cells: CellFamily) -> np.ndarray:
    """Masses ``mu(A_i)`` of a cell family, shape ``(N,)``, in index order.

    Densities use tensor Gauss quadrature of order
    :data:`CELL_MASS_GAUSS_ORDER` over each cell box (exact for
    constants).  Surface graphs sample the footprints of the family's
    cell columns once, :data:`SURFACE_MIDPOINTS` midpoints per cell width
    and axis, and credit each sample's weighted area element to the cell
    holding its lifted point (half-open convention), by
    :func:`bin_footprint`: the column of each footprint coordinate is
    found once per axis, and one ``np.bincount`` per axis-0 column fills
    the masses of that column's cells.  Sums add exactly.
    """
    if isinstance(mu, SumPotential):
        return sum(cell_masses(part, cells) for part in mu.parts)
    eps = cells.epsilon
    index = cells.index
    if isinstance(mu, Density):
        return box_quadrature(mu.f, eps * index, eps, CELL_MASS_GAUSS_ORDER)
    if isinstance(mu, SurfaceGraph):
        spec = TilingSpec(index.shape[1], eps)
        lo = index.min(axis=0)
        shape = tuple((index.max(axis=0) - lo) // 2 + 1)
        refine = SURFACE_MIDPOINTS
        t = np.arange(refine) + 0.5
        axes = []
        for k in range(spec.dim - 1):
            column = lo[k] + 2 * np.arange(shape[k])
            low = eps * (column - 1)
            high = eps * (column + 1)
            axes.append(low[:, None] + (high - low)[:, None] * t / refine)
        area = (2.0 * eps / refine) ** (spec.dim - 1)
        dense = bin_footprint(
            mu, axes, area, lambda k, coords: (cell_axis_indices(spec, coords) - lo[k]) // 2, shape
        )
        return dense[tuple(((index - lo) // 2).T)]
    raise InvalidParameterError(f"unknown potential variant: {type(mu).__name__}")


def cell_mass(mu: Potential, cell: Cell) -> float:
    """Mass ``mu(A_i)`` of one cell; see :func:`cell_masses`."""
    cells = CellFamily(np.array([cell.index], dtype=np.int64), cell.epsilon)
    return float(cell_masses(mu, cells)[0])


@dataclass(frozen=True)
class CellAverageField:
    """Piecewise-constant field ``mu(A_i) / |A_i|`` on the intersecting cells."""

    cells: CellFamily
    masses: np.ndarray
    values: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def by_index(self) -> dict:
        return {cell.index: float(v) for cell, v in zip(self.cells, self.values)}


def cell_average_field(mu: Potential, spec: TilingSpec, domain: Box) -> CellAverageField:
    """Cell averages over all cells meeting ``domain``, in index order."""
    cells = cells_intersecting(spec, domain)
    masses = cell_masses(mu, cells)
    measure = (2.0 * spec.epsilon) ** spec.dim
    return CellAverageField(cells, masses, masses / measure)


@dataclass(frozen=True)
class MassScalingResult:
    """Largest cell mass per epsilon and the fitted log-log exponent."""

    epsilons: tuple[float, ...]
    max_masses: tuple[float, ...]
    exponent: Optional[float]

    @property
    def degenerate(self) -> bool:
        return self.exponent is None


def max_cell_mass_scaling(
    mu: Potential,
    dim: int,
    domain: Box,
    eps_list: Sequence[float],
) -> MassScalingResult:
    """Fit the scaling exponent of ``max_i mu(A_i)`` against epsilon.

    For a graph measure the exponent approaches ``d - 1``, for a bounded
    density ``d``.  Any zero maximum makes the fit degenerate.
    """
    if len(eps_list) < 3:
        raise InvalidParameterError("exponent fit needs at least 3 epsilon values")
    maxima = []
    for eps in eps_list:
        field = cell_average_field(mu, TilingSpec(dim, eps), domain)
        maxima.append(float(field.masses.max()) if field.masses.size else 0.0)
    if any(m <= 0.0 for m in maxima):
        return MassScalingResult(tuple(eps_list), tuple(maxima), None)
    slope = float(np.polyfit(np.log(np.asarray(eps_list)), np.log(np.asarray(maxima)), 1)[0])
    return MassScalingResult(tuple(eps_list), tuple(maxima), slope)


# ---------------------------------------------------------------------------
# named constructors (the config-file surface)
# ---------------------------------------------------------------------------


def _column_product(values: np.ndarray) -> np.ndarray:
    """Row products of an ``(N, k)`` array, one column at a time: the
    factors multiply in the order of ``np.prod(values, axis=1)``."""
    out = values[:, 0]
    for k in range(1, values.shape[1]):
        out = out * values[:, k]
    return out


def _inside(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Rows of ``x`` inside the open box ``(lo, hi)^k``, one column at a time."""
    inside = (x[:, 0] > lo) & (x[:, 0] < hi)
    for k in range(1, x.shape[1]):
        inside &= (x[:, k] > lo) & (x[:, k] < hi)
    return inside


def make_constant(dim: int, c: float) -> Density:
    """Uniform density ``c`` on all of R^d."""
    if c < 0.0:
        raise InvalidParameterError("constant density must be nonnegative")
    return Density(f=lambda x: np.full(x.shape[0], float(c)))


def make_box(dim: int, c: float, lo: float = 0.0, hi: float = 1.0) -> Density:
    """Uniform density ``c`` on the box ``(lo, hi)^d``, zero outside."""
    if c < 0.0:
        raise InvalidParameterError("box density must be nonnegative")
    if lo >= hi:
        raise InvalidParameterError("box needs lo < hi")

    def f(x):
        return np.where(_inside(x, lo, hi), float(c), 0.0)

    return Density(f=f)


def make_sine_density(dim: int, amplitude: float) -> Density:
    """Density ``amplitude * prod_k sin(pi x_k)`` on the unit cube, zero outside."""
    if amplitude < 0.0:
        raise InvalidParameterError("sine density amplitude must be nonnegative")

    def f(x):
        return np.where(_inside(x, 0.0, 1.0), amplitude * _column_product(np.sin(np.pi * x)), 0.0)

    return Density(f=f)


def make_plane(dim: int, z0: float, weight: float = 1.0) -> SurfaceGraph:
    """Weighted surface measure of the hyperplane ``x_d = z0``."""
    if weight < 0.0:
        raise InvalidParameterError("plane weight must be nonnegative")
    return SurfaceGraph(
        height=lambda xp: np.full(xp.shape[0], float(z0)),
        grad=lambda xp: np.zeros_like(xp),
        weight=float(weight),
        lip=0.0,
    )


def make_graph(
    dim: int, z0: float, amplitude: float, frequency: float = 1.0, weight: float = 1.0
) -> SurfaceGraph:
    """Graph ``x_d = z0 + amplitude * prod_k sin(2 pi frequency x'_k)``."""
    if weight < 0.0:
        raise InvalidParameterError("graph weight must be nonnegative")
    omega = 2.0 * math.pi * frequency

    def height(xp):
        return z0 + amplitude * _column_product(np.sin(omega * xp))

    def grad(xp):
        s = np.sin(omega * xp)
        c = np.cos(omega * xp)
        prod = _column_product(s)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(s != 0.0, prod / s, 0.0)
        # recompute columns that contain a zero factor explicitly
        bad = np.nonzero((s == 0.0).any(axis=1))[0]
        for row in bad:
            for k in range(xp.shape[1]):
                others = np.delete(s[row], k)
                ratio[row, k] = np.prod(others)
        return amplitude * omega * c * ratio

    lip = abs(amplitude) * omega * math.sqrt(max(dim - 1, 1))
    return SurfaceGraph(height=height, grad=grad, weight=float(weight), lip=lip)


def make_sum(dim: int, parts: Sequence[Potential]) -> SumPotential:
    return SumPotential(tuple(parts))


POTENTIAL_CONSTRUCTORS = {
    "constant": make_constant,
    "box": make_box,
    "sine_density": make_sine_density,
    "plane": make_plane,
    "graph": make_graph,
    "sum": make_sum,
    "zero": lambda dim: make_constant(dim, 0.0),
}


def parse_spec(text: str, registry: dict, dim: int, kind: str):
    """Evaluate a constructor expression against a registry.

    The grammar is a call ``name(args, key=value)`` to a ``registry``
    entry, whose arguments are numeric literals (optionally negated),
    lists or further registry calls; ``registry[name]`` is called as
    ``(dim, *args, **kwargs)``.  Syntax errors, unknown names, non-literal
    operands and arguments a constructor rejects all raise
    :class:`InvalidParameterError` naming ``kind``.
    """
    import ast

    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise InvalidParameterError(f"cannot parse {kind} spec {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in registry:
                raise InvalidParameterError(f"unknown {kind} constructor in {text!r}")
            name = node.func.id
            args = [build(a) for a in node.args]
            kwargs = {kw.arg: build(kw.value) for kw in node.keywords}
            try:
                return registry[name](dim, *args, **kwargs)
            except InvalidParameterError:
                raise
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise InvalidParameterError(
                    f"bad arguments to {name}() in {kind} spec {text!r}: {exc}"
                ) from exc
        if isinstance(node, ast.List):
            return [build(e) for e in node.elts]
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if not abs(node.value) <= float(np.finfo(float).max):
                raise InvalidParameterError(f"non-finite number in {kind} spec {text!r}")
            return float(node.value)
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
        ):
            return -build(node.operand)
        raise InvalidParameterError(f"unsupported expression in {kind} spec {text!r}")

    return build(tree.body)


def parse_potential(text: str, dim: int) -> Potential:
    """Build a potential from a constructor expression.

    The grammar is a single call from the registry with numeric literal
    arguments, e.g. ``constant(40)``, ``plane(0.5, 20)``,
    ``sum([box(1), plane(0.5, 8)])``; see :func:`parse_spec`.
    """
    result = parse_spec(text, POTENTIAL_CONSTRUCTORS, dim, "potential")
    if not isinstance(result, (Density, SurfaceGraph, SumPotential)):
        raise InvalidParameterError(f"potential spec {text!r} is not a potential")
    return result
