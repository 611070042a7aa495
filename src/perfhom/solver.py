"""Uniform-grid finite-difference solver on the unit cube.

Solves two Dirichlet problems on ``(0, 1)^d``:

* the perforated Poisson problem, where nodes inside any closed hole
  ball are clamped to zero (the zero extension of the solution), and
* the limit problem ``(-Delta + mu) u = f`` with the measure ``mu``
  given as its node weights, lumped onto node dual cells by
  :func:`~perfhom.potential.lump_measure`.

Both are "a grid Laplacian plus a charge on a small node set", and
both rest on the exact sine-basis Poisson inverse: a right-hand side is
held as its spectrum ``S = Q^d f`` (:func:`rhs_spectrum`), which every
solve of ``f`` on one grid shares.  ``S`` is always a tuple of factors
whose outer product it is: for a product ``f = prod_k f_k(x_k)`` the
``d`` 1-D spectra ``Q f_k``, and no grid array; for a node array ``f``
the one factor ``(S,)``, ``f`` transformed in place into its own block.
Each reader multiplies out only the chunk it needs, by one path for both.
Where the inverse is exact (no hole nodes; a constant lumped measure, as
a shift) it is applied once to ``S``, built in the solution's array, not
iterated.  Otherwise both are
one capacitance-matrix solve: conjugate gradients on vectors indexed by
the node set with one support-restricted sine solve
(:class:`~perfhom.stencil.SupportSolve`) per iteration, then the grid
solution by one backward transform.

* With ``L`` the zero-Dirichlet grid Laplacian and node weights ``w``
  (none for the perforated problem), ``A = L + min w`` is inverted
  exactly.  A charge ``sigma`` lives on ``Y``: the clamped hole nodes
  ``X``, of infinite weight, and the free nodes ``W`` where ``w`` exceeds
  its minimum, of weight ``D = w - min w``.  CG solves
  ``(D^-1 + A^-1_YY) sigma = (A^-1 b)_Y``, ``b`` the right-hand side
  zeroed on holes, with the rows of ``W`` scaled by ``D^1/2``; then
  ``u = A^-1 b - A^-1 E_Y sigma`` is the zero extension of the solution.
  Every solve reads its start from ``S``: with ``f_X`` the values of
  ``f`` on ``X``, ``b = f - E_X f_X``, so ``(A^-1 b)_Y = (A^-1 f)_Y -
  A^-1_YY f_X``, where ``(A^-1 f)_Y`` and ``f_X`` are sparse read-backs
  of ``S`` scaled by ``1 / (lambda + min w)`` and unscaled
  (:meth:`~perfhom.stencil.SupportSolve.read`); ``||b||^2 = ||f||^2 -
  ||f_X||^2`` unless that loses more than half of ``||f||^2``, when
  ``b`` is built from the factors of ``f`` (recovered from a block by a
  backward transform).  The solution is one backward transform of
  ``(S - Q^d E_Y (sigma + f_X)) / (lambda + min w)``
  (:meth:`~perfhom.stencil.SupportSolve.finish`).  A limit result
  carries the inputs of that step (:class:`~perfhom.stencil.FinalStep`);
  a perforated solve handed it as ``minus`` builds ``u - u_lim`` from
  both steps in the limit field's own array, so an error field never
  sits beside a second grid field.  The weights are read only before
  the first write to the solution, so a limit solve can write its field
  into the weights' own array (``out``).  When only the surface
  layer of the holes is in ``X`` (below), ``f`` on the inner hole nodes
  reaches no unknown: the solve builds ``f`` the same way, zeroes every
  hole node and transforms ``b`` forward for its own spectrum, and
  ``f_X`` is not used.
  The stencil restricted to ``X`` preconditions the clamped block; the
  scaled block of ``W`` is the identity plus a matrix with the spectrum
  of the grid operator preconditioned by ``A``.  CG stops on the grid
  residual of ``u`` off the holes, ``-(L_FX r_X + E_W D^1/2 r_W)`` for
  the CG residual ``r``.  ``X`` holds every hole node, or only the
  surface layer when the holes fill more than half the grid.

The module also evaluates the oscillating corrector built from ball
equilibrium potentials and its norm, hole by hole with no grid field,
the discrete pairings used as weak-convergence witnesses, and the flat
binary field export.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .cg import dot, pcg, rhs_norm
from .capacity import BALL_MASK_INFLATION, ball_potential_radial
from .errors import GeometryError, InvalidParameterError, ResolutionError, SolverError
from .holes import HoleFamily, SeparationParams, disjointness_check
from .stencil import (
    FinalStep,
    SupportSolve,
    line_spectrum,
    neg_laplacian,
    outer,
    sine_transform,
    spectral_solve,
    subtract_step,
)

Array = np.ndarray


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform tensor grid on ``(0, 1)^d``.

    Node coordinates are ``x_j = h * (j + 1)`` componentwise with
    ``h = 1 / (n + 1)``.
    """

    dim: int
    n: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameterError(f"grid dimension must be >= 1, got {self.dim}")
        if self.n < 1:
            raise InvalidParameterError(f"grid needs n >= 1 interior nodes, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    def axis(self) -> Array:
        """Interior node coordinates along one axis."""
        return (np.arange(self.n) + 1.0) * self.h

    def zeros(self) -> Array:
        return np.zeros(self.shape)


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    residual: float
    seconds: float


class SolveResult(tuple):
    """``(u, stats)`` of a solve, a pair to unpack, and ``final``: the
    inputs of the solve's final step (:class:`~perfhom.stencil.FinalStep`),
    which :func:`solve_perforated` reads from a limit result as its
    ``minus``, or None."""

    def __new__(cls, u: Array, stats: SolveStats, final: Optional[FinalStep] = None):
        result = super().__new__(cls, (u, stats))
        result.final = final
        return result


_CHUNK_POINTS = 1 << 14  # keeps the scratch of callers O(n^(d-1)), a few MB


def _node_chunks(grid: Grid):
    """Yield ``(node_slice, points)`` over all interior nodes in index order,
    whole axis-0 slabs of about ``_CHUNK_POINTS`` points (at least one) each."""
    xs = grid.axis()
    tail = [xs] * (grid.dim - 1)
    slab = grid.n ** (grid.dim - 1)
    rows = max(1, _CHUNK_POINTS // slab)
    for start in range(0, grid.n, rows):
        mesh = np.meshgrid(xs[start : start + rows], *tail, indexing="ij", copy=False)
        pts = np.stack(mesh, axis=-1).reshape(-1, grid.dim)
        yield slice(start * slab, start * slab + len(pts)), pts


def field_from_callable(grid: Grid, fn: Callable[[Array], Array]) -> Array:
    """Evaluate a vectorised callable on all interior nodes, slab by slab."""
    out = np.empty(grid.shape)
    flat = out.reshape(-1)
    for nodes, pts in _node_chunks(grid):
        flat[nodes] = np.asarray(fn(pts), dtype=float).reshape(len(pts))
    return out


def l2_norm(u: Array, grid: Grid) -> float:
    """Discrete L2 norm ``sqrt(sum u^2 h^d)``."""
    return math.sqrt(dot(u, u) * grid.h**grid.dim)


def l2_distance(u1: Array, u2: Array, grid: Grid) -> float:
    """Discrete L2 distance; symmetric, zero iff the fields agree."""
    return l2_norm(u1 - u2, grid)


def _hole_node_boxes(grid: Grid, centers: Array, reach):
    """Per center ``k``, ``(k, slices, r2)``: the node bounding box of the
    ball of radius ``reach`` (one per center, or one for all) about it and
    the squared distances of its nodes to the center.  Centers whose box
    holds no node are skipped."""
    h = grid.h
    xs = grid.axis()
    reaches = np.broadcast_to(reach, len(centers)).tolist()
    for k, (center, rho) in enumerate(zip(centers.tolist(), reaches)):
        slices = []
        for c in center:
            lo = max(0, math.ceil((c - rho) / h - 1.0))
            hi = min(grid.n - 1, math.floor((c + rho) / h - 1.0))
            if hi < lo:
                break
            slices.append(slice(lo, hi + 1))
        else:
            offsets = np.ix_(*[xs[s] - c for s, c in zip(slices, center)])
            yield k, tuple(slices), sum(x**2 for x in offsets)


def hole_mask(grid: Grid, holes: HoleFamily) -> Array:
    """Boolean mask of nodes inside any closed hole ball.

    Masks use the recentred staircase (nodes with distance at most
    ``radius + h/3``), which keeps the discrete holes capacity-faithful.
    Nonempty holes must satisfy ``radius >= 2h``; a smaller one raises
    :class:`ResolutionError`.  Clamping its nearest node instead would
    give it the capacity ``h/W`` of one lattice node whatever its radius,
    not the ``cap(ball)`` the construction matched.
    """
    mask = np.zeros(grid.shape, dtype=bool)
    h = grid.h
    holes = holes.nonempty
    tiny = holes.radii < 2.0 * h
    if tiny.any():
        raise ResolutionError(
            f"hole radius {holes.radii[tiny][0]:.6g} < 2h = {2 * h:.6g}; refine the grid"
        )
    reach = (holes.radii + BALL_MASK_INFLATION * h).tolist()
    for k, slices, r2 in _hole_node_boxes(grid, holes.centers, reach):
        mask[slices] |= r2 <= reach[k] ** 2
    return mask


def _clamped_unknowns(mask: Array) -> Array:
    """Mask of the capacitance unknowns of a clamped mask.

    Every clamped node, or, when they fill more than half the grid, only
    the surface layer: the clamped nodes with a free stencil neighbour,
    which carry the exact charge ``-L_SF u_F``.
    """
    if 2 * np.count_nonzero(mask) <= mask.size:
        return mask
    free = ~mask
    touch = np.zeros_like(mask)
    d = mask.ndim
    for ax in range(d):
        lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(d))
        hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(d))
        touch[lo] |= free[hi]
        touch[hi] |= free[lo]
    return mask & touch


def _hole_stencil(clamped: Array, nodes: Array) -> tuple[Array, Array, Array, int]:
    """Stencil pattern around the clamped unknowns among the capacitance
    unknowns ``nodes`` (sorted flat indices).

    Returns ``(neighbours, edge_x, edge_f, count)``.  Row ``2 ax + k`` of
    ``neighbours`` (shape ``(2d, m)``, ``m = len(nodes)``) holds the
    position of each unknown's clamped neighbour above (k = 0) or below
    (k = 1) along ``ax``; ``m`` marks no such neighbour or an unclamped
    row.  ``edge_x`` and ``edge_f`` list the edges from a clamped unknown
    to a free node: the unknown's position and an id of the free node,
    ``count`` plus its position if it is an unknown, else below ``count``.
    """
    n, d, m = clamped.shape[0], clamped.ndim, nodes.size
    flat = clamped.reshape(-1)
    position = np.full(clamped.size, m, dtype=nodes.dtype)
    position[nodes] = np.arange(m, dtype=nodes.dtype)
    on_x = flat[nodes]
    neighbours = np.full((2 * d, m), m, dtype=nodes.dtype)
    edge_x, edge_free = [], []
    for ax in range(d):
        stride = n ** (d - 1 - ax)
        coord = nodes // stride % n
        for k, (step, inside) in enumerate(((stride, coord < n - 1), (-stride, coord > 0))):
            at = np.flatnonzero(inside & on_x).astype(nodes.dtype)
            other = nodes[at] + step
            free = ~flat[other]
            neighbours[2 * ax + k, at] = np.where(free, m, position[other])
            edge_x.append(at[free])
            edge_free.append(other[free])
    other = np.concatenate(edge_free)
    edge_f = position[other]
    outside = edge_f == m
    ids, edge_f[outside] = np.unique(other[outside], return_inverse=True)
    edge_f[~outside] += ids.size
    return neighbours, np.concatenate(edge_x), edge_f, ids.size


@dataclass(frozen=True, eq=False)
class RhsSpectrum:
    """A right-hand side ``f`` on ``grid`` as the solves read it: its sine
    spectrum ``Q^d f`` and ``norm = ||f||``.  Every solve of ``f`` on
    ``grid`` can share one (see :func:`rhs_spectrum`).

    ``values`` is a tuple whose outer product (:func:`~perfhom.stencil.outer`)
    is the spectrum: for a product ``f(x) = prod_k f_k(x_k)`` the ``d`` 1-D
    spectra ``Q f_k``, with ``factors`` the node values of the ``f_k``, and
    no grid array; for a node array the one factor ``(Q^d f,)``, an ``n^d``
    block, with ``factors`` None.  All arrays are read-only.
    """

    grid: Grid
    values: tuple[Array, ...]
    norm: float
    factors: Optional[tuple[Array, ...]] = None


def rhs_spectrum(f, grid: Grid) -> RhsSpectrum:
    """The :class:`RhsSpectrum` of ``f``: a node array or ``d`` factors.

    The ``d`` factors are callables that take the 1-D array of node
    coordinates along one axis and return ``f_k`` there; each is
    evaluated once, and its spectrum ``Q f_k`` is one 1-D transform
    (:func:`~perfhom.stencil.line_spectrum`), so no grid array is made.
    A node array is a C-contiguous float array of ``grid.shape`` that the
    caller gives up: it is sine transformed in place and left read-only.
    The norm is checked first by :func:`~perfhom.cg.rhs_norm`, for a
    product from the factors' norms: a non-finite ``f`` or a norm that
    overflows raises :class:`~perfhom.errors.EvaluationError`.
    """
    if not isinstance(f, np.ndarray):
        if len(f) != grid.dim:
            raise InvalidParameterError(f"right-hand side needs {grid.dim} factors, got {len(f)}")
        xs = grid.axis()
        factors = tuple(np.asarray(fk(xs), dtype=float) for fk in f)
        if any(v.shape != xs.shape for v in factors):
            raise InvalidParameterError("right-hand side factor does not match the grid axis")
        norm = rhs_norm(*factors)
        values = tuple(line_spectrum(v, grid.h) for v in factors)
        for v in (*factors, *values):
            v.flags.writeable = False
        return RhsSpectrum(grid, values, norm, factors)
    if f.shape != grid.shape:
        raise InvalidParameterError("right-hand side shape does not match grid")
    norm = rhs_norm(f)
    sine_transform(f, grid.h)
    f.flags.writeable = False
    return RhsSpectrum(grid, (f,), norm)


def _as_rhs(f, grid: Grid) -> RhsSpectrum:
    """``f`` itself if it is an :class:`RhsSpectrum` on ``grid``, else the
    spectrum of a copy of the array ``f``."""
    if isinstance(f, RhsSpectrum):
        if f.grid != grid:
            raise InvalidParameterError("right-hand side spectrum is not on this grid")
        return f
    return rhs_spectrum(np.array(f, dtype=float, order="C"), grid)


def _off_clamped(rhs: RhsSpectrum, clamped: Array) -> Array:
    """``b``, the ``f`` of ``rhs`` zeroed on the clamped nodes, a new array:
    ``f`` built from its factors, or recovered from a one-factor spectrum
    by one sine transform of a copy."""
    if rhs.factors is not None:
        b = outer(rhs.factors)
    else:
        b = sine_transform(outer(rhs.values), rhs.grid.h)
    b[clamped] = 0.0
    return b


def _capacitance_solve(
    rhs: RhsSpectrum,
    grid: Grid,
    tol: float,
    clamped: Optional[Array] = None,
    weights: Optional[Array] = None,
    minus: Optional[SolveResult] = None,
    out: Optional[Array] = None,
) -> SolveResult:
    """Solve ``(L + w) u = f`` off the ``clamped`` nodes, with ``u = 0`` on them.

    ``f`` comes as its :class:`RhsSpectrum`, which is only read.  The
    charge lives on the clamped unknowns of :func:`_clamped_unknowns`
    and on the unclamped nodes with ``w > min w`` (see the module notes);
    without either it is one exact solve.  When only the surface layer of
    the clamped nodes is unknown the solve makes the spectrum of ``f``
    zeroed on them.  CG runs at most ``max(2000, 60 n)`` iterations.  The
    reported residual is that of ``u`` off the clamped nodes, relative to
    ``||f||`` there.  A ``tol`` outside ``(0, 1)`` raises
    :class:`InvalidParameterError`: at 1 or more the zero charge already
    passes and no iteration runs.  The result carries its final step.
    With ``minus``, a result on ``grid`` with its final step, the field
    returned is ``u - u_2`` built in ``u_2 = minus[0]`` itself
    (:meth:`~perfhom.stencil.SupportSolve.finish`), exactly ``-u_2`` on the
    clamped nodes.  Without it, ``out``, a writable C-contiguous float
    array of the grid's shape that ``weights`` may be, receives ``u``; it is
    first written after the last read of ``weights``.
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError(f"tolerance must lie in (0, 1), got {tol}")
    t0 = time.perf_counter()
    h, shift = grid.h, 0.0

    def done(u, iterations, residual, final):
        return SolveResult(u, SolveStats(iterations, residual, time.perf_counter() - t0), final)

    def zero():
        if minus is not None:
            u = np.negative(minus[0], out=minus[0])
        elif out is not None:
            u = out
            u.fill(0.0)
        else:
            u = np.zeros(grid.shape)
        return done(u, 0, 0.0, FinalStep((np.zeros(grid.n),) * grid.dim, shift))

    unknowns = None if clamped is None else _clamped_unknowns(clamped)
    surface = unknowns is not clamped
    root = on_w = f_x = None
    if weights is not None:
        shift = float(weights.min())
        weighted = weights > shift
        unknowns = weighted if unknowns is None else unknowns | weighted
        del weighted
        # the scaling D^1/2 on W, 1 on X
        root = np.sqrt(weights[unknowns] - shift)
        if clamped is not None:
            on_w = ~clamped[unknowns]
            root[~on_w] = 1.0
    nodes = np.flatnonzero(unknowns).astype(np.int32 if grid.size < 2**31 else np.int64)
    del unknowns
    spectrum, norm_b = rhs.values, rhs.norm
    if surface and norm_b:
        # f on the inner hole nodes reaches no unknown: solve for b, f
        # zeroed on every clamped node, from its own spectrum
        b = _off_clamped(rhs, clamped)
        norm_b = rhs_norm(b)
        spectrum = (sine_transform(b, h),)
        del b
    if norm_b == 0.0:
        return zero()
    if nodes.size == 0:
        # no clamped or weighted node: A^-1 f is the solution, the exact
        # preconditioner applied once, in the spectrum built in its own
        # array (``out`` if given), the last factor multiplied in last as
        # by ``outer``.  One stencil apply checks it in the sine basis, where
        # Q^d (L + shift) u less the spectrum must vanish (its norm reads no
        # sign); the check's transform runs in the residual's array
        step = FinalStep(spectrum, shift)
        *lead, last = spectrum
        u = spectral_solve(np.multiply.outer(outer(lead), last, out=out), h, shift)
        r = neg_laplacian(u, h)
        if shift:
            # slab by slab: shift * u whole would be one more grid array
            for i in range(grid.n):
                r[i] += shift * u[i]
        r = subtract_step(sine_transform(r, h), step, h, shift)
        residual = math.sqrt(dot(r, r)) / norm_b
        del r
        if not residual <= tol:
            raise SolverError(
                f"exact sine solve left relative residual {residual:.3e} above "
                f"tol {tol:.1e}: the tolerance is below the rounding floor"
            )
        if minus is not None:
            u = np.subtract(u, minus[0], out=minus[0])
        return done(u, 1, residual, step)
    m, precond = nodes.size, None
    if clamped is not None:
        neighbours, edge_x, edge_f, count = _hole_stencil(clamped, nodes)
    solve = SupportSolve(nodes, grid.n, grid.dim, h, shift)  # A^-1_YY
    del nodes
    if clamped is not None and not surface:
        # b = f - E_X f_X: (A^-1 b)_Y = (A^-1 f)_Y - A^-1_YY f_X, and
        # ||b||^2 = ||f||^2 - ||f_X||^2 unless that cancels
        f_x, g = solve.read(spectrum, both=True)
        if on_w is not None:
            f_x[on_w] = 0.0
        lost = dot(f_x, f_x)
        if 2.0 * lost <= norm_b * norm_b:
            norm_b = math.sqrt(norm_b * norm_b - lost)
        else:
            norm_b = rhs_norm(_off_clamped(rhs, clamped))
            if norm_b == 0.0:
                return zero()
    else:
        g = solve.read(spectrum)
    if f_x is not None:
        g -= solve.apply(f_x)
    if root is not None:
        g *= root

    def apply_op(y):
        if root is None:
            return solve.apply(y)
        z = solve.apply(root * y)
        z *= root
        z += y if on_w is None else y * on_w
        return z

    if clamped is not None:
        padded = np.zeros(m + 1)  # a zero behind the last unknown for missing neighbours

        def precond(r, z):
            # L_XX r, the stencil restricted to X, and the identity on W
            padded[:m] = r
            np.multiply(r, 2.0 * grid.dim, out=z)
            for row in neighbours:
                z -= padded[row]
            z *= 1.0 / (h * h)
            if on_w is not None:
                z[on_w] = r[on_w]
            return z

    def residual(r):
        # the grid residual of u off the clamped nodes: L_FX r_X on the free
        # neighbours of X plus D^1/2 r_W on W, added where they meet.  The
        # bincount is h^2 L_FX r_X, and integer when no edge leaves X
        if clamped is None:
            s = root * r
            return math.sqrt(dot(s, s)) / norm_b
        size = 0 if root is None else count + m
        w = np.bincount(edge_f, weights=r[edge_x], minlength=size).astype(float, copy=False)
        if root is not None:
            w[count:] += (h * h) * (root * r * on_w)
        return math.sqrt(dot(w, w)) / (h * h * norm_b)

    y, iterations, res = pcg(
        apply_op, g, tol=tol, precond=precond, residual=residual,
        maxiter=max(2000, 60 * grid.n),
    )
    del g  # pcg took it over as its residual
    # u = A^-1 (f - E_Y (sigma + f_X)), with sigma = D^1/2 y on W
    if root is not None:
        y *= root
    if f_x is not None:
        y += f_x
    if minus is None:
        u, on_clamped = solve.finish(spectrum, y, None if out is None else (out, None)), 0.0
    else:
        # u_2 on the clamped nodes, saved before the final step overwrites it
        on_clamped = np.negative(minus[0][clamped])
        u = solve.finish(spectrum, y, (minus[0], minus.final))
    if clamped is not None:
        u[clamped] = on_clamped
    return done(u, iterations, res, FinalStep(spectrum, shift, solve, y))


def solve_perforated(
    f: Array | RhsSpectrum,
    holes: HoleFamily,
    grid: Grid,
    tol: float = 1e-8,
    *,
    minus: Optional[SolveResult] = None,
) -> SolveResult:
    """Solve ``-Delta u = f`` with zero values on holes and the boundary.

    ``f`` is the node array, or its :func:`rhs_spectrum` on ``grid``,
    which solves of one ``f`` share and which is only read.  The output
    is the zero extension: it is exactly zero on hole nodes.  The
    reported residual is the relative residual on the free nodes.
    Returns ``(u, stats)``.

    With ``minus``, a :func:`solve_limit` result ``(u_lim, stats)`` on
    ``grid``, it returns ``(e, stats)`` instead: ``e = u - u_lim`` is
    built in the array ``u_lim`` itself, which it overwrites, from the
    two solves' final steps, so no second grid field is made; ``e`` is
    exactly ``-u_lim`` on hole nodes.  The stats are those of the plain
    solve.
    """
    if minus is not None and (
        getattr(minus, "final", None) is None or minus[0].shape != grid.shape
    ):
        raise InvalidParameterError("minus must be a solve_limit result on this grid")
    rhs = _as_rhs(f, grid)
    u, stats = _capacitance_solve(rhs, grid, tol, clamped=hole_mask(grid, holes), minus=minus)
    # without its final step, which only a limit result is read for and
    # which would keep the solve's index sets alive
    return SolveResult(u, stats)


def solve_limit(
    f: Array | RhsSpectrum,
    weights: Array,
    grid: Grid,
    tol: float = 1e-8,
    *,
    out: Optional[Array] = None,
) -> SolveResult:
    """Solve the limit problem ``(-Delta + mu) u = f`` with lumped ``mu``.

    ``f`` is the node array or its :func:`rhs_spectrum` on ``grid``, as
    for :func:`solve_perforated`.  ``weights`` are the finite nonnegative
    dual-cell densities from :func:`~perfhom.potential.lump_measure`; zero
    weights reduce to the plain Poisson solve.  A constant measure is one
    exact sine solve; otherwise conjugate gradients run on the nodes where
    the weight exceeds its minimum (see the module notes).  The reported
    residual is the grid residual ``||f - (L + W) u|| / ||f||``.  The
    result ``(u, stats)`` also carries its final step, which holds the
    spectrum of ``f`` and the charge on those nodes, for a later
    :func:`solve_perforated` with ``minus``.

    ``out``, a writable C-contiguous float64 array of ``grid.shape``,
    receives the solution, and ``u`` is ``out``; it may be ``weights``
    itself, which the solve stops reading before it writes, so a caller
    done with the measure holds one grid array fewer.  Without it a new
    array does, and ``weights`` is left as it was.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != grid.shape:
        raise InvalidParameterError("field shapes do not match grid")
    # min and max propagate NaN
    if not (0.0 <= weights.min() and weights.max() < math.inf):
        raise InvalidParameterError("lumped measure must be finite and nonnegative")
    if out is not None and not (
        isinstance(out, np.ndarray)
        and out.shape == grid.shape
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise InvalidParameterError(
            "out must be a writable C-contiguous float64 array of the grid's shape"
        )
    rhs = _as_rhs(f, grid)
    if out is not None and any(np.may_share_memory(out, v) for v in rhs.values):
        raise InvalidParameterError("out must not hold the right-hand side's spectrum")
    return _capacitance_solve(rhs, grid, tol, weights=weights, out=out)


def _cutoff(t: Array) -> Array:
    """C^2 cutoff: 1 for ``t <= 1/2``, 0 for ``t >= 1``, quintic in between."""
    s = np.clip(2.0 * t - 1.0, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


CUTOFF_NAME = "quintic smoothstep on [1/2, 1]"


def corrector_norm(
    holes: HoleFamily, seps: SeparationParams, grid: Grid, into: Optional[Array] = None
) -> float:
    """Discrete L2 norm of the corrector's deviation ``V = 1 - w``
    (:func:`corrector_field`), hole by hole, with no grid field.

    Each hole's piece ``cutoff_i * H_i`` lives on its node box; the
    separation balls are disjoint and the cutoff is exactly 0 at
    ``r >= R``, so the pieces never overlap and their squares add up to
    ``||V||^2``.  With ``into``, a grid array, each piece is also added
    into it.  Invalid geometry raises :class:`GeometryError`.
    """
    report = disjointness_check(holes, seps)
    if not report.ok:
        raise GeometryError(
            f"separation geometry invalid: {len(report.overlapping_pairs)} "
            f"overlapping pair(s), {len(report.inclusion_violations)} "
            "cell-inclusion violation(s)"
        )
    R = seps.R
    holes = holes.nonempty
    closed = seps.margin(holes.radii) <= 0.0
    if closed.any():
        i = int(np.argmax(closed))
        raise GeometryError(
            f"hole in cell {tuple(holes.index[i].tolist())} has radius {holes.radii[i]:.6g} "
            f">= separation radius {R:.6g}; cutoff margin is empty"
        )
    total = 0.0
    radii = holes.radii.tolist()
    for k, slices, r2 in _hole_node_boxes(grid, holes.centers, R):
        r, a = np.sqrt(r2), radii[k]
        # no inside mask: r >= R gives t >= 1, where the cutoff is exactly 0.0
        t = (r - a) / seps.margin(a)
        piece = _cutoff(t) * ball_potential_radial(r, a, grid.dim)
        total += dot(piece, piece)
        if into is not None:
            into[slices] += piece
    return math.sqrt(total * grid.h**grid.dim)


def corrector_field(
    holes: HoleFamily, seps: SeparationParams, grid: Grid
) -> tuple[Array, float]:
    """Oscillating corrector ``w = 1 - sum_i cutoff_i * H_i`` on the grid.

    ``H_i`` is the ball equilibrium potential and the cutoff ramps from 1
    to 0 over the outer half of the annulus between the hole and its
    separation ball.  Returns the nodal field and the discrete L2 norm of
    the deviation ``V = 1 - w`` (:func:`corrector_norm`, which builds the
    field's pieces).  The field is exactly zero on hole nodes and exactly
    one outside all separation balls.
    """
    deviation = grid.zeros()
    v_norm = corrector_norm(holes, seps, grid, into=deviation)
    np.subtract(1.0, deviation, out=deviation)
    return deviation, v_norm


def is_sine_mode(mode: Sequence[float]) -> bool:
    """Whether every entry is a positive integer: a fractional sine has no zero trace."""
    return all(m % 1 == 0 and m >= 1 for m in mode)


def weak_witness(e: Array, mode: Sequence[int], grid: Grid) -> float:
    """Discrete ``H_0^1`` pairing of ``e`` against the product sine mode ``g_m``.

    The pairing is the sum of forward-difference products on the
    zero-extended fields, boundary jumps included, which by summation by
    parts is ``<e, -Delta_h g_m> h^d``.  ``g_m`` is an eigenvector of
    ``-Delta_h`` with eigenvalue ``lambda_m = sum_k 4/h^2 sin^2(pi m_k h / 2)``,
    so the pairing is ``lambda_m <e, g_m> h^d``: no stencil.  ``g_m`` is
    never formed: ``e`` is contracted with the 1-D sine vectors
    ``sin(pi m_k x_k)`` one axis at a time, the last first, by
    ``np.einsum`` in a fixed order with no BLAS, with ``O(n^(d-1))``
    scratch.
    """
    if e.shape != grid.shape or len(mode) != grid.dim:
        raise InvalidParameterError("field or mode does not match grid")
    # without a zero trace the eigenvalue identity fails
    if not is_sine_mode(mode):
        raise InvalidParameterError(f"witness modes must be positive integers, got {mode}")
    h = grid.h
    eigenvalue = sum(4.0 / (h * h) * math.sin(0.5 * math.pi * m * h) ** 2 for m in mode)
    pairing = e
    for k in reversed(np.pi * np.asarray(mode, dtype=float)):
        pairing = np.einsum("...j,j->...", pairing, np.sin(k * grid.axis()))
    return eigenvalue * float(pairing) * h**grid.dim


def restrict(u_fine: Array, fine: Grid, coarse: Grid) -> Array:
    """Exact nodal injection from a nested finer grid.

    Requires ``(fine.n + 1)`` to be a multiple of ``(coarse.n + 1)``.
    """
    stride, rem = divmod(fine.n + 1, coarse.n + 1)
    if rem != 0 or stride < 1:
        raise InvalidParameterError(
            f"grids are not nested: n_fine={fine.n}, n_coarse={coarse.n}"
        )
    sl = tuple(slice(stride - 1, None, stride) for _ in range(fine.dim))
    out = u_fine[sl]
    if out.shape != coarse.shape:
        raise InvalidParameterError("restriction produced a mismatched shape")
    return out.copy()


def write_field(path, grid: Grid, u: Array) -> None:
    """Flat binary export: one ASCII header line ``d n h``, then node
    values in lexicographic index order as little-endian float64."""
    if u.shape != grid.shape:
        raise InvalidParameterError("field shape does not match grid")
    with open(path, "wb") as fh:
        fh.write(f"{grid.dim} {grid.n} {grid.h!r}\n".encode("ascii"))
        # from the array's own buffer: no bytes copy of the field
        fh.write(np.ascontiguousarray(u, dtype="<f8"))


def read_field(path) -> tuple[Grid, Array]:
    """Read a field written by :func:`write_field`.

    A header that is not ``d n h`` or a value count that does not match
    it raises :class:`InvalidParameterError` naming the file.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").split()
        try:
            dim, n, h = header
            grid = Grid(int(dim), int(n))
            float(h)  # implied by n; only checked to be a number
        except ValueError as exc:
            raise InvalidParameterError(f"{path}: not a field header 'd n h': {header}") from exc
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != grid.size:
        raise InvalidParameterError(f"{path}: {data.size} values, expected {grid.size}")
    return grid, data.reshape(grid.shape).copy()
