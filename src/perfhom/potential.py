"""Nonnegative target potentials and their cell masses.

A potential is a nonnegative Borel measure given in one of three forms:
a product density (``L^p`` with ``p >= d``), a weighted surface measure
of a product graph ``x_d = s(x')``, or a finite sum of such parts.  Each
part is held as its 1-D factors, callables that take a 1-D array of
coordinates along one axis and return an array of the same shape:

* a :class:`Density` is ``f(x) = prod_k f_k(x_k)``, one nonnegative
  factor per axis;
* a :class:`SurfaceGraph` is the graph of ``s(x') = offset + amplitude *
  prod_k s_k(x'_k)``, one factor and its derivative per footprint axis,
  with a scalar weight.

The central operation is the mass ``mu(A_i)`` of a lattice cell, evaluated
by fixed rules: the tensor Gauss rule of order
:data:`CELL_MASS_GAUSS_ORDER` for densities, and midpoint quadrature of
``weight * sqrt(1 + |grad s|^2)`` over the cell footprint,
:data:`SURFACE_MIDPOINTS` midpoints per cell width and axis, for graphs.
Both run per axis: a tensor rule on a product factors exactly into 1-D
rules, so each density factor is integrated once per cell interval on
its axis, and graph heights and gradients are broadcast products of
factor values, each factor evaluated once per footprint coordinate.
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

Factor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Density:
    """Absolutely continuous part ``f(x) dx`` with the product density
    ``f(x) = prod_k factors[k](x_k)``: one nonnegative factor per axis."""

    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class SurfaceGraph:
    """Weighted surface measure of the graph ``x_d = s(x')``, with
    ``s(x') = offset + amplitude * prod_k factors[k](x'_k)``.

    ``slopes[k]`` is the derivative of ``factors[k]``, so ``d_k s =
    amplitude * slopes[k](x'_k) * prod_{j != k} factors[j](x'_j)``;
    ``weight`` is a finite nonnegative scalar.
    """

    offset: float
    amplitude: float
    factors: tuple[Factor, ...]
    slopes: tuple[Factor, ...]
    weight: float = 1.0

    def __post_init__(self):
        if len(self.slopes) != len(self.factors):
            raise InvalidParameterError(
                f"graph has {len(self.factors)} factors but {len(self.slopes)} slopes"
            )
        if not 0.0 <= self.weight < math.inf:
            raise InvalidParameterError("surface weight must be finite and nonnegative")


@dataclass(frozen=True)
class SumPotential:
    """Finite sum of potentials."""

    parts: tuple["Potential", ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidParameterError("sum potential needs at least one part")


Potential = Union[Density, SurfaceGraph, SumPotential]


def _check_factor_count(mu: Union[Density, SurfaceGraph], dim: int) -> None:
    """A density needs ``dim`` factors, a graph ``dim - 1``."""
    want = dim if isinstance(mu, Density) else dim - 1
    if len(mu.factors) != want:
        kind = type(mu).__name__
        raise InvalidParameterError(
            f"{kind} in {dim} dimensions needs {want} factors, got {len(mu.factors)}"
        )


def _factor_values(factor: Factor, t: np.ndarray, nonnegative: bool = False) -> np.ndarray:
    """``factor`` on the 1-D coordinates ``t``, checked: finite, of
    ``t``'s shape and, for a density (``nonnegative``), nonnegative."""
    values = np.asarray(factor(t), dtype=float)
    if values.shape != t.shape:
        raise InvalidParameterError(
            f"potential factor returned shape {values.shape} for {t.shape} coordinates"
        )
    if not np.isfinite(values).all():
        raise EvaluationError("potential factor returned non-finite values")
    if nonnegative and (values < 0.0).any():
        raise InvalidParameterError("density must be nonnegative")
    return values


def factor_averages(
    mu: Density, centers: Sequence[np.ndarray], half: float, order: int
) -> list[np.ndarray]:
    """Gauss averages of each factor of a density over 1-D intervals.

    Entry ``k`` holds, for each coordinate ``c`` of ``centers[k]``, the
    order-``order`` Gauss average of ``factors[k]`` over ``(c - half,
    c + half)``: the weights are halved Gauss weights, summing to one, so
    at order 2 (weights 1/2 and 1/2) a constant factor averages to itself
    exactly.  Each factor is evaluated once, on ``order`` points per
    center.  By Fubini the density's tensor Gauss average over a box is
    the product of its axes' averages.
    """
    _check_factor_count(mu, len(centers))
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    weights = (0.5 * ref_w).tolist()
    out = []
    for factor, c in zip(mu.factors, centers):
        points = np.asarray(c, dtype=float)[:, None] + half * ref_x
        values = _factor_values(factor, points.ravel(), nonnegative=True).reshape(points.shape)
        average = weights[0] * values[:, 0]
        for g in range(1, order):
            average += weights[g] * values[:, g]
        out.append(average)
    return out


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
    arrays, and each factor and slope is evaluated once per kept
    coordinate.  The axis-0 samples then split into runs sharing one
    axis-0 bin.  Each run forms its heights ``offset + amplitude *
    (s_0 s_1 ...)`` and gradient components ``(amplitude s'_k) prod_{j !=
    k} s_j`` as broadcast products of those values, in axis order, sums
    ``|grad s|^2`` component by component, bins only the lifted heights
    and fills its slab ``dense[i0]`` with one ``np.bincount``, so scratch
    stays at one run of samples, ``O(n^(d-1))``.  No two runs share a bin
    and ``bincount`` adds in input order, so every bin adds its samples in
    footprint order, as one ``np.add.at`` pass over the whole footprint
    would.  A height that overflows raises :class:`EvaluationError`.

    A flat graph (``amplitude == 0``, a ``plane``) takes no per-sample
    work: every sample has the height ``offset`` and the mass ``x =
    weight * 1.0 * area``, and a bin holds ``prod_k c_k`` samples, ``c_k``
    the samples of its bin on footprint axis ``k``.  Its value is entry
    ``prod_k c_k`` of the running sums ``0, x, x + x, ...``, which
    ``np.add.accumulate`` makes in the order ``bincount`` adds, so bit for
    bit the sum of the general path.  The heights overflow exactly when
    the product of the factors' largest magnitudes does.
    """
    _check_factor_count(mu, len(shape))
    dense = np.zeros(shape)
    idx, values, slopes = [], [], []
    for k, axis in enumerate(axes):
        c = np.ravel(axis)
        i = axis_index(k, c)
        keep = (i >= 0) & (i < shape[k])
        c = c[keep]
        idx.append(i[keep])
        values.append(_factor_values(mu.factors[k], c))
        slopes.append(mu.amplitude * _factor_values(mu.slopes[k], c))
    if not all(i.size for i in idx):
        return dense
    if mu.amplitude == 0.0:
        peak = math.prod(float(np.abs(v).max()) for v in values)
        if not math.isfinite(mu.offset + mu.amplitude * peak):
            raise EvaluationError("graph height is not finite; it overflows or is undefined")
        iz = int(axis_index(len(axes), np.array([mu.offset]))[0])
        if 0 <= iz < shape[-1]:
            counts = math.prod(np.ix_(*(np.bincount(i, minlength=n) for i, n in zip(idx, shape))))
            sums = np.zeros(int(counts.max()) + 1)
            np.add.accumulate(np.full(sums.size - 1, mu.weight * 1.0 * area), out=sums[1:])
            dense[..., iz] = sums[counts]
        return dense
    # flat position in a slab of each sample over the axes 1..d-2, before the height bin
    base = np.ravel_multi_index(np.meshgrid(*idx[1:], indexing="ij"), shape[1:-1]).ravel()
    base *= shape[-1]
    starts = np.flatnonzero(np.diff(idx[0])) + 1
    runs = zip(idx[0][np.r_[0, starts]], np.split(values[0], starts), np.split(slopes[0], starts))
    for i0, run, slope in runs:
        factors, derivatives = [run, *values[1:]], [slope, *slopes[1:]]
        heights = mu.offset + mu.amplitude * math.prod(np.ix_(*factors))
        if not np.isfinite(heights).all():
            raise EvaluationError("graph height is not finite; it overflows or is undefined")
        norm2 = 0.0
        for k, derivative in enumerate(derivatives):
            grad = math.prod(np.ix_(*factors[:k], derivative, *factors[k + 1 :]))
            norm2 += grad * grad
        mass = (mu.weight * np.sqrt(1.0 + norm2) * area).ravel()
        iz = axis_index(len(axes), heights.ravel())
        lin = (base + iz.reshape(len(run), -1)).ravel()
        keep = (iz >= 0) & (iz < shape[-1])
        if not keep.all():
            lin, mass = lin[keep], mass[keep]
        dense[i0] += np.bincount(lin, weights=mass, minlength=dense[i0].size).reshape(shape[1:])
    return dense


def cell_masses(mu: Potential, cells: CellFamily) -> np.ndarray:
    """Masses ``mu(A_i)`` of a cell family, shape ``(N,)``, in index order.

    Densities use the tensor Gauss rule of order
    :data:`CELL_MASS_GAUSS_ORDER` over each cell box (exact for
    constants), as 1-D rules: each factor is integrated over the cell
    intervals present on its axis (:func:`factor_averages`, 4 points per
    distinct index), and a cell's mass is the product of its axes'
    integrals.  Surface graphs sample the footprints of the family's cell
    columns once, :data:`SURFACE_MIDPOINTS` midpoints per cell width and
    axis, and credit each sample's weighted area element to the cell
    holding its lifted point (half-open convention), by
    :func:`bin_footprint`: the column of each footprint coordinate is
    found once per axis, and one ``np.bincount`` per axis-0 column fills
    the masses of that column's cells.  Sums add exactly.  A mass that
    overflows raises :class:`EvaluationError`; an empty family has no
    masses.
    """
    if not len(cells):
        return np.zeros(0)
    with np.errstate(over="ignore", invalid="ignore"):
        masses = _cell_masses(mu, cells)
    if not np.isfinite(masses).all():
        raise EvaluationError("cell mass overflows")
    return masses


def _cell_masses(mu: Potential, cells: CellFamily) -> np.ndarray:
    if isinstance(mu, SumPotential):
        return sum(_cell_masses(part, cells) for part in mu.parts)
    eps = cells.epsilon
    index = cells.index
    if isinstance(mu, Density):
        columns = [np.unique(index[:, k], return_inverse=True) for k in range(index.shape[1])]
        averages = factor_averages(mu, [eps * c for c, _ in columns], eps, CELL_MASS_GAUSS_ORDER)
        # each cell's axis integrals, multiplied in axis order
        return math.prod(((2.0 * eps) * a)[at] for a, (_, at) in zip(averages, columns))
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


def _indicator(lo: float, hi: float, inside: Factor) -> Factor:
    """The factor ``inside(t)`` on ``(lo, hi)``, zero outside."""
    return lambda t: np.where((t > lo) & (t < hi), inside(t), 0.0)


def _constant(c: float) -> Factor:
    return lambda t: np.full(t.shape, c)


def make_constant(dim: int, c: float) -> Density:
    """Uniform density ``c`` on all of R^d: factors ``c, 1, ..., 1``."""
    if c < 0.0:
        raise InvalidParameterError("constant density must be nonnegative")
    return Density((_constant(float(c)),) + (_constant(1.0),) * (dim - 1))


def make_box(dim: int, c: float, lo: float = 0.0, hi: float = 1.0) -> Density:
    """Uniform density ``c`` on the box ``(lo, hi)^d``, zero outside:
    factors ``c 1_(lo,hi), 1_(lo,hi), ...``."""
    if c < 0.0:
        raise InvalidParameterError("box density must be nonnegative")
    if lo >= hi:
        raise InvalidParameterError("box needs lo < hi")
    first = _indicator(lo, hi, _constant(float(c)))
    return Density((first,) + (_indicator(lo, hi, _constant(1.0)),) * (dim - 1))


def make_sine_density(dim: int, amplitude: float) -> Density:
    """Density ``amplitude * prod_k sin(pi x_k)`` on the unit cube, zero
    outside: factors ``a sin(pi t) 1_(0,1), sin(pi t) 1_(0,1), ...``."""
    if amplitude < 0.0:
        raise InvalidParameterError("sine density amplitude must be nonnegative")
    first = _indicator(0.0, 1.0, lambda t: amplitude * np.sin(np.pi * t))
    return Density((first,) + (_indicator(0.0, 1.0, lambda t: np.sin(np.pi * t)),) * (dim - 1))


def make_plane(dim: int, z0: float, weight: float = 1.0) -> SurfaceGraph:
    """Weighted surface measure of the hyperplane ``x_d = z0``: amplitude 0."""
    if weight < 0.0:
        raise InvalidParameterError("plane weight must be nonnegative")
    return SurfaceGraph(
        float(z0), 0.0, (_constant(1.0),) * (dim - 1), (_constant(0.0),) * (dim - 1), float(weight)
    )


def make_graph(
    dim: int, z0: float, amplitude: float, frequency: float = 1.0, weight: float = 1.0
) -> SurfaceGraph:
    """Graph ``x_d = z0 + amplitude * prod_k sin(2 pi frequency x'_k)``."""
    if weight < 0.0:
        raise InvalidParameterError("graph weight must be nonnegative")
    omega = 2.0 * math.pi * frequency
    factors = (lambda t: np.sin(omega * t),) * (dim - 1)
    slopes = (lambda t: omega * np.cos(omega * t),) * (dim - 1)
    return SurfaceGraph(float(z0), float(amplitude), factors, slopes, float(weight))


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
