"""Uniform-grid finite-difference solver on the unit cube.

Solves two Dirichlet problems on ``(0, 1)^d``:

* the perforated Poisson problem, where nodes inside any closed hole
  ball are clamped to zero (the zero extension of the solution), and
* the limit problem ``(-Delta + mu) u = f`` with the measure ``mu``
  lumped onto node dual cells by fixed rules: order-2 tensor Gauss
  quadrature for densities, whose O(h^4) dual-cell error is below the
  O(h^2) error of the grid, run per axis on the density's factors and
  multiplied out as one outer product, and
  :data:`~perfhom.potential.SURFACE_MIDPOINTS` footprint midpoints per
  node spacing and axis for surface measures.

Both are "a grid Laplacian plus a charge on a small node set", and
both rest on the exact sine-basis Poisson inverse: a right-hand side is
held as its spectrum ``S = Q^d f`` (:func:`rhs_spectrum`, made in place
in ``f``'s array), which every solve of ``f`` on one grid shares.  Where
the inverse is exact (no hole nodes; a constant lumped measure, as a
shift) it is applied once to ``S``, not iterated.  Otherwise both are
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
  ``b`` is recovered by a backward transform.  The solution is one
  backward transform of ``(S - Q^d E_Y (sigma + f_X)) / (lambda + min w)``
  (:meth:`~perfhom.stencil.SupportSolve.finish`).  When only the surface
  layer of the holes is in ``X`` (below), ``f`` on the inner hole nodes
  reaches no unknown: the solve recovers ``f``, zeroes every hole node
  and transforms ``b`` forward for its own spectrum, and ``f_X`` is not
  used.
  The stencil restricted to ``X`` preconditions the clamped block; the
  scaled block of ``W`` is the identity plus a matrix with the spectrum
  of the grid operator preconditioned by ``A``.  CG stops on the grid
  residual of ``u`` off the holes, ``-(L_FX r_X + E_W D^1/2 r_W)`` for
  the CG residual ``r``.  ``X`` holds every hole node, or only the
  surface layer when the holes fill more than half the grid.

The module also evaluates the oscillating corrector built from ball
equilibrium potentials, the discrete pairings used as weak-convergence
witnesses, and the flat binary field export.
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
from .potential import (
    SURFACE_MIDPOINTS,
    Density,
    Potential,
    SumPotential,
    SurfaceGraph,
    bin_footprint,
    factor_averages,
)
from .stencil import SupportSolve, neg_laplacian, sine_transform, spectral_solve

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
    spectrum ``values = Q^d f`` (read-only) and ``norm = ||f||``.  Every
    solve of ``f`` on ``grid`` can share one (see :func:`rhs_spectrum`)."""

    grid: Grid
    values: Array
    norm: float


def rhs_spectrum(f: Array, grid: Grid) -> RhsSpectrum:
    """The :class:`RhsSpectrum` of ``f``, made in place in ``f``'s array.

    ``f`` is a C-contiguous float array of ``grid.shape`` that the caller
    gives up: its norm is checked by :func:`~perfhom.cg.rhs_norm` (a
    non-finite ``f`` raises :class:`~perfhom.errors.EvaluationError`),
    then it is sine transformed in place and left read-only.
    """
    if f.shape != grid.shape:
        raise InvalidParameterError("right-hand side shape does not match grid")
    norm = rhs_norm(f)
    sine_transform(f, grid.h)
    f.flags.writeable = False
    return RhsSpectrum(grid, f, norm)


def _as_rhs(f, grid: Grid) -> RhsSpectrum:
    """``f`` itself if it is an :class:`RhsSpectrum` on ``grid``, else the
    spectrum of a copy of the array ``f``."""
    if isinstance(f, RhsSpectrum):
        if f.grid != grid:
            raise InvalidParameterError("right-hand side spectrum is not on this grid")
        return f
    return rhs_spectrum(np.array(f, dtype=float, order="C"), grid)


def _off_clamped(spectrum: Array, clamped: Array, grid: Grid) -> Array:
    """``b``, the ``f`` of ``spectrum`` zeroed on the clamped nodes: ``f``
    recovered by one sine transform of a copy, in that copy."""
    b = sine_transform(spectrum.copy(), grid.h)
    b[clamped] = 0.0
    return b


def _capacitance_solve(
    rhs: RhsSpectrum,
    grid: Grid,
    tol: float,
    clamped: Optional[Array] = None,
    weights: Optional[Array] = None,
) -> tuple[Array, SolveStats]:
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
    passes and no iteration runs.
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError(f"tolerance must lie in (0, 1), got {tol}")
    t0 = time.perf_counter()

    def zero():
        return np.zeros(grid.shape), SolveStats(0, 0.0, time.perf_counter() - t0)

    h, shift = grid.h, 0.0
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
        b = _off_clamped(spectrum, clamped, grid)
        norm_b = rhs_norm(b)
        spectrum = sine_transform(b, h)
        del b
    if norm_b == 0.0:
        return zero()
    if nodes.size == 0:
        # no clamped or weighted node: A^-1 f is the solution, the exact
        # preconditioner applied once.  One stencil apply checks it in the
        # sine basis, where Q^d (L + shift) u must give the spectrum back.
        # u is solved again after the check, so that the check's transform
        # holds no grid array beside the residual.  The new array reuses the
        # first one's memory; kept in the residual's array instead, the field
        # would sit above a freed grid array, and the heap of a process that
        # runs the study again grows by about one array
        u = spectral_solve(spectrum.copy(), h, shift)
        r = neg_laplacian(u, h)
        if shift:
            # slab by slab: shift * u whole would be one more grid array
            for i in range(grid.n):
                r[i] += shift * u[i]
        del u
        r = sine_transform(r, h)
        r -= spectrum
        residual = math.sqrt(dot(r, r)) / norm_b
        del r
        u = spectral_solve(spectrum.copy(), h, shift)
        if not residual <= tol:
            raise SolverError(
                f"exact sine solve left relative residual {residual:.3e} above "
                f"tol {tol:.1e}: the tolerance is below the rounding floor"
            )
        return u, SolveStats(1, residual, time.perf_counter() - t0)
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
            norm_b = rhs_norm(_off_clamped(spectrum, clamped, grid))
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
    u = solve.finish(spectrum, y)
    del y
    if clamped is not None:
        u[clamped] = 0.0
    return u, SolveStats(iterations, res, time.perf_counter() - t0)


def solve_perforated(
    f: Array | RhsSpectrum, holes: HoleFamily, grid: Grid, tol: float = 1e-8
) -> tuple[Array, SolveStats]:
    """Solve ``-Delta u = f`` with zero values on holes and the boundary.

    ``f`` is the node array, or its :func:`rhs_spectrum` on ``grid``,
    which solves of one ``f`` share and which is only read.  The output
    is the zero extension: it is exactly zero on hole nodes.  The
    reported residual is the relative residual on the free nodes.
    """
    rhs = _as_rhs(f, grid)
    return _capacitance_solve(rhs, grid, tol, clamped=hole_mask(grid, holes))


def _dual_cell_indices(grid: Grid, coords: Array) -> Array:
    """Dual-cell node index along one axis; half-open ``((k-1/2)h, (k+1/2)h]``.

    Indices clip to the first and last interior node, so the end dual
    cells absorb the half-spacing skin next to the domain boundary;
    coordinates outside ``(0, 1)`` return -1.
    """
    h = grid.h
    k = np.ceil(coords / h - 0.5).astype(int)
    k = np.clip(k, 1, grid.n)
    idx = k - 1
    idx[(coords <= 0.0) | (coords >= 1.0)] = -1
    return idx


def lump_measure(mu: Potential, grid: Grid) -> Array:
    """Lump a potential onto node dual cells: ``w_j = mu(V_j) / h^d``.

    ``V_j`` is the half-open h-cube centered at node ``j`` (consistent
    with the tiling convention).  Densities use order-2 tensor Gauss
    quadrature over each dual cell: the 2-point rule has an O(h^4)
    dual-cell error, below the O(h^2) error of the grid (construction's
    cell masses use :data:`~perfhom.potential.CELL_MASS_GAUSS_ORDER`).
    On a product density the rule is the product of 1-D rules, so each
    factor is averaged over the ``n`` dual-cell intervals of its axis
    (:func:`~perfhom.potential.factor_averages`, ``2n`` evaluations, with
    weights 1/2 and 1/2) and ``w`` is the outer product of those
    averages: a constant density lumps to itself exactly.  Surface
    measures deposit footprint samples of the weighted area element,
    :data:`~perfhom.potential.SURFACE_MIDPOINTS` per node spacing and
    axis, into the dual cell holding the lifted point; samples in the
    half-spacing skin along the boundary go to the outermost interior
    node, so the lumped total captures the full surface mass inside the
    domain.  :func:`~perfhom.potential.bin_footprint` finds the dual cells
    of the footprint coordinates once per axis and fills one node slab
    ``out[i]`` per ``np.bincount``, with ``O(n^(d-1))`` scratch.

    Raises :class:`InvalidParameterError` if a lumped value is not finite,
    such as a product of finite factors or a mass divided by ``h^d`` that
    overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _lump(mu, grid)
    # min and max propagate NaN
    if not (-math.inf < out.min() and out.max() < math.inf):
        raise InvalidParameterError("lumped measure must be finite; it overflows or is undefined")
    return out


def _lump(mu: Potential, grid: Grid) -> Array:
    if isinstance(mu, SumPotential):
        out = grid.zeros()
        for part in mu.parts:
            out += _lump(part, grid)
        return out
    if isinstance(mu, Density):
        # the dual-cell averages of the factors, one outer product
        return math.prod(np.ix_(*factor_averages(mu, [grid.axis()] * grid.dim, 0.5 * grid.h, 2)))
    if isinstance(mu, SurfaceGraph):
        m = (grid.n + 1) * SURFACE_MIDPOINTS
        step = 1.0 / m
        rows = ((np.arange(m) + 0.5) * step).reshape(grid.n + 1, SURFACE_MIDPOINTS)
        out = bin_footprint(
            mu, [rows] * (grid.dim - 1), step ** (grid.dim - 1),
            lambda k, coords: _dual_cell_indices(grid, coords), grid.shape,
        )
        out /= grid.h**grid.dim
        return out
    raise InvalidParameterError(f"unknown potential variant: {type(mu).__name__}")


def solve_limit(
    f: Array | RhsSpectrum, weights: Array, grid: Grid, tol: float = 1e-8
) -> tuple[Array, SolveStats]:
    """Solve the limit problem ``(-Delta + mu) u = f`` with lumped ``mu``.

    ``f`` is the node array or its :func:`rhs_spectrum` on ``grid``, as
    for :func:`solve_perforated`.  ``weights`` are the finite nonnegative
    dual-cell densities from :func:`lump_measure`; zero weights reduce to
    the plain Poisson solve.  A constant measure is one exact sine solve;
    otherwise conjugate gradients run on the nodes where the weight
    exceeds its minimum (see the module notes).  The reported residual is
    the grid residual ``||f - (L + W) u|| / ||f||``.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != grid.shape:
        raise InvalidParameterError("field shapes do not match grid")
    # min and max propagate NaN
    if not (0.0 <= weights.min() and weights.max() < math.inf):
        raise InvalidParameterError("lumped measure must be finite and nonnegative")
    return _capacitance_solve(_as_rhs(f, grid), grid, tol, weights=weights)


def _cutoff(t: Array) -> Array:
    """C^2 cutoff: 1 for ``t <= 1/2``, 0 for ``t >= 1``, quintic in between."""
    s = np.clip(2.0 * t - 1.0, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


CUTOFF_NAME = "quintic smoothstep on [1/2, 1]"


def corrector_field(
    holes: HoleFamily, seps: SeparationParams, grid: Grid
) -> tuple[Array, float]:
    """Oscillating corrector ``w = 1 - sum_i cutoff_i * H_i`` on the grid.

    ``H_i`` is the ball equilibrium potential and the cutoff ramps from 1
    to 0 over the outer half of the annulus between the hole and its
    separation ball.  Returns the nodal field and the discrete L2 norm of
    the deviation ``V = 1 - w``.  The field is exactly zero on hole nodes
    and exactly one outside all separation balls.
    """
    report = disjointness_check(holes, seps)
    if not report.ok:
        raise GeometryError(
            f"separation geometry invalid: {len(report.overlapping_pairs)} "
            f"overlapping pair(s), {len(report.inclusion_violations)} "
            "cell-inclusion violation(s)"
        )
    R = seps.R
    d = grid.dim
    holes = holes.nonempty
    closed = seps.margin(holes.radii) <= 0.0
    if closed.any():
        i = int(np.argmax(closed))
        raise GeometryError(
            f"hole in cell {tuple(holes.index[i].tolist())} has radius {holes.radii[i]:.6g} "
            f">= separation radius {R:.6g}; cutoff margin is empty"
        )
    deviation = grid.zeros()
    radii = holes.radii.tolist()
    for k, slices, r2 in _hole_node_boxes(grid, holes.centers, R):
        r, a = np.sqrt(r2), radii[k]
        # no inside mask: r >= R gives t >= 1, where the cutoff is exactly 0.0
        t = (r - a) / seps.margin(a)
        deviation[slices] += _cutoff(t) * ball_potential_radial(r, a, d)
    v_norm = l2_norm(deviation, grid)
    np.subtract(1.0, deviation, out=deviation)
    return deviation, v_norm


def sine_mode_field(grid: Grid, mode: Sequence[int]) -> Array:
    """The product sine mode ``prod_k sin(pi m_k x_k)`` on the nodes, as a
    broadcast product of 1-D sine vectors (bit for bit the pointwise
    product, evaluated once per axis)."""
    factors = [np.sin(k * grid.axis()) for k in np.pi * np.asarray(mode, dtype=float)]
    return math.prod(np.ix_(*factors))


def weak_witness(e: Array, mode: Sequence[int], grid: Grid) -> float:
    """Discrete ``H_0^1`` pairing of ``e`` against the product sine mode ``g_m``.

    The pairing is the sum of forward-difference products on the
    zero-extended fields, boundary jumps included, which by summation by
    parts is ``<e, -Delta_h g_m> h^d``.  ``g_m`` is an eigenvector of
    ``-Delta_h`` with eigenvalue ``lambda_m = sum_k 4/h^2 sin^2(pi m_k h / 2)``,
    so the pairing is ``lambda_m <e, g_m> h^d``: one dot, no stencil.
    """
    if e.shape != grid.shape or len(mode) != grid.dim:
        raise InvalidParameterError("field or mode does not match grid")
    # a fractional sine has no zero trace, so the eigenvalue identity fails
    if any(m % 1 != 0 or not m >= 1 for m in mode):
        raise InvalidParameterError(f"witness modes must be positive integers, got {mode}")
    h = grid.h
    eigenvalue = sum(4.0 / (h * h) * math.sin(0.5 * math.pi * m * h) ** 2 for m in mode)
    return eigenvalue * dot(e, sine_mode_field(grid, mode)) * h**grid.dim


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
