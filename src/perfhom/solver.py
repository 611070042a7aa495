"""Uniform-grid finite-difference solver on the unit cube.

Solves two Dirichlet problems on ``(0, 1)^d``:

* the perforated Poisson problem, where nodes inside any closed hole
  ball are clamped to zero (the zero extension of the solution), and
* the limit problem ``(-Delta + mu) u = f`` with the measure ``mu``
  lumped onto node dual cells.  ``QuadratureSpec.volume_order`` governs
  the construction's cell masses; lumping caps it at 2, whose O(h^4)
  dual-cell error is below the O(h^2) error of the grid.

Both rest on the exact sine-basis Poisson solve
(:func:`~perfhom.stencil.dirichlet_solve`).  Where it is the exact
inverse (no hole nodes; a constant lumped measure, as a shift) it is
applied once, not iterated.  The perforated problem is solved by the
capacitance-matrix method: the zero extension of the solution is
``u = L^-1 (b - E_X sigma)``, with ``L`` the zero-Dirichlet grid
Laplacian, ``b`` the right-hand side zeroed on holes and ``sigma`` a
charge on hole nodes ``X`` chosen so that ``u`` vanishes on ``X``.
Conjugate gradients solve ``(L^-1)_XX sigma = (L^-1 b)_X`` on vectors
indexed by ``X``, one sine solve per iteration, preconditioned by the
stencil restricted to ``X``; they stop on the free-node residual of
``u``.  ``X`` holds every hole node, or only the surface layer when the
holes fill more than half the grid.  The limit problem with a varying
measure runs conjugate gradients on the grid, preconditioned by the sine
solve shifted by the smallest weight.  The module also evaluates the
oscillating corrector built from ball equilibrium potentials, the
discrete pairings used as weak-convergence witnesses, and the flat
binary field export.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cg import dot, pcg, rhs_norm
from .capacity import BALL_MASK_INFLATION, ball_potential_radial
from .errors import GeometryError, InvalidParameterError, ResolutionError, SolverError
from .holes import HoleFamily, SeparationParams, disjointness_check
from .potential import (
    DEFAULT_QUADRATURE,
    Density,
    Potential,
    QuadratureSpec,
    SumPotential,
    SurfaceGraph,
    bin_footprint,
    box_quadrature,
)
from .stencil import dirichlet_solve, neg_laplacian
from .tiling import Box, unit_box

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

    @property
    def domain(self) -> Box:
        return unit_box(self.dim)

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


def _node_box(grid: Grid, center, radius: float):
    """Index slices of nodes within ``radius`` of ``center`` (bounding box)."""
    h = grid.h
    slices = []
    for c in center:
        lo = max(0, math.ceil((c - radius) / h - 1.0))
        hi = min(grid.n - 1, math.floor((c + radius) / h - 1.0))
        if hi < lo:
            return None
        slices.append(slice(lo, hi + 1))
    return tuple(slices)


def _box_radii2(grid: Grid, slices, center) -> Array:
    xs = grid.axis()
    r2 = np.zeros(tuple(s.stop - s.start for s in slices))
    for ax, (s, c) in enumerate(zip(slices, center)):
        view = [None] * len(slices)
        view[ax] = slice(None)
        r2 = r2 + (xs[s] - c)[tuple(view)] ** 2
    return r2


def hole_mask(grid: Grid, holes: HoleFamily, *, override_tiny: bool = False) -> Array:
    """Boolean mask of nodes inside any closed hole ball.

    Masks use the recentred staircase (nodes with distance at most
    ``radius + h/3``), which keeps the discrete holes capacity-faithful.
    Nonempty holes must satisfy ``radius >= 2h``; with ``override_tiny``
    an under-resolved hole is mapped to its nearest node instead (a node
    constraint has its own O(h) effective capacity, so this is opt-in
    and warns).  A tiny hole whose nearest node lies on or beyond the
    boundary constrains nothing the zero trace does not, and is dropped.
    """
    mask = np.zeros(grid.shape, dtype=bool)
    h = grid.h
    holes = holes.nonempty
    tiny = holes.radii < 2.0 * h
    if tiny.any() and not override_tiny:
        raise ResolutionError(
            f"hole radius {holes.radii[tiny][0]:.6g} < 2h = {2 * h:.6g}; "
            "refine the grid or enable the tiny-hole override"
        )
    nearest = np.round(holes.centers[tiny] / h) - 1
    inside = np.all((nearest >= 0) & (nearest < grid.n), axis=1)
    mask[tuple(nearest[inside].astype(np.int64).T)] = True
    for center, radius in zip(holes.centers[~tiny].tolist(), holes.radii[~tiny].tolist()):
        masked_radius = radius + BALL_MASK_INFLATION * h
        slices = _node_box(grid, center, masked_radius)
        if slices is None:
            continue
        r2 = _box_radii2(grid, slices, center)
        mask[slices] |= r2 <= masked_radius**2
    if tiny.any():
        warnings.warn(
            f"{int(tiny.sum())} hole(s) below the 2h resolution limit were collapsed to "
            f"single-node constraints ({int((~inside).sum())} with no interior nearest "
            "node dropped); their effective capacity is O(h)",
            RuntimeWarning,
            stacklevel=2,
        )
    return mask


def _exact_solve(b: Array, h: float, shift: float, tol: float) -> tuple[Array, int, float]:
    """Solve ``(-Delta_h + shift) u = b`` with one sine solve.

    The exact preconditioner is applied once, not iterated; the relative
    residual comes from one stencil apply.  Returns ``(u, iterations,
    relative_residual)`` like :func:`~perfhom.cg.pcg`.
    """
    norm_b = rhs_norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    u = dirichlet_solve(b, h, shift)
    r = neg_laplacian(u, h)
    r -= b
    if shift:
        r += shift * u
    residual = math.sqrt(dot(r, r)) / norm_b
    if residual > tol:
        raise SolverError(
            f"exact sine solve left relative residual {residual:.3e} above "
            f"tol {tol:.1e}: the tolerance is below the rounding floor"
        )
    return u, 1, residual


def _capacitance_nodes(mask: Array) -> Array:
    """Sorted flat indices of the capacitance unknowns of a hole mask.

    Every hole node, or, when the holes fill more than half the grid,
    only the surface layer: the hole nodes with a free stencil neighbour,
    which carry the exact charge ``-L_SF u_F``.
    """
    unknowns = mask
    if 2 * np.count_nonzero(mask) > mask.size:
        free = ~mask
        touch = np.zeros_like(mask)
        d = mask.ndim
        for ax in range(d):
            lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(d))
            hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(d))
            touch[lo] |= free[hi]
            touch[hi] |= free[lo]
        unknowns = mask & touch
    index = np.int32 if mask.size < 2**31 else np.int64
    return np.flatnonzero(unknowns).astype(index)


def _hole_stencil(mask: Array, nodes: Array) -> tuple[Array, Array, Array]:
    """Stencil pattern around the capacitance unknowns ``nodes``.

    Returns ``(neighbours, edge_x, edge_f)``.  Row ``2 ax + k`` of
    ``neighbours`` (shape ``(2d, m)``, ``m = len(nodes)``) holds the
    position in ``nodes`` of each unknown's neighbour above (k = 0) or
    below (k = 1) along ``ax``, and ``m`` where that neighbour is not an
    unknown.  ``edge_x`` and ``edge_f`` list the stencil edges from an
    unknown to a free node: the unknown's position and a compact id of
    the free node.
    """
    n, d = mask.shape[0], mask.ndim
    m = nodes.size
    flat = mask.reshape(-1)
    position = np.full(mask.size, m, dtype=nodes.dtype)
    position[nodes] = np.arange(m, dtype=nodes.dtype)
    neighbours = np.full((2 * d, m), m, dtype=nodes.dtype)
    edge_x, edge_free = [], []
    for ax in range(d):
        stride = n ** (d - 1 - ax)
        coord = nodes // stride % n
        for k, (step, inside) in enumerate(((stride, coord < n - 1), (-stride, coord > 0))):
            at = np.flatnonzero(inside).astype(nodes.dtype)
            other = nodes[at] + step
            neighbours[2 * ax + k, at] = position[other]
            free = ~flat[other]
            edge_x.append(at[free])
            edge_free.append(other[free])
    _, edge_f = np.unique(np.concatenate(edge_free), return_inverse=True)
    return neighbours, np.concatenate(edge_x), edge_f.astype(nodes.dtype)


def _capacitance_solve(
    f: Array, mask: Array, nodes: Array, h: float, tol: float, maxiter: int
) -> tuple[Array, int, float]:
    """The perforated solve on the capacitance unknowns ``nodes``.

    Live grid arrays: one buffer (``b``, then the scatter buffer, then the
    final right-hand side), the solve output and the sine solve's
    scratch.  Returns ``(u, iterations, relative_residual)`` like
    :func:`~perfhom.cg.pcg`.
    """
    b = f.copy()
    b[mask] = 0.0
    norm_b = rhs_norm(b)
    if norm_b == 0.0:
        return b, 0, 0.0
    neighbours, edge_x, edge_f = _hole_stencil(mask, nodes)
    m = nodes.size
    flat = b.reshape(-1)
    g = dirichlet_solve(b, h, out=b).reshape(-1)[nodes]
    b.fill(0.0)
    out = np.empty(b.shape)
    out_flat = out.reshape(-1)

    def apply_op(v):
        # (L^-1)_XX v: the buffer is zero off the unknowns
        flat[nodes] = v
        dirichlet_solve(b, h, out=out)
        return out_flat[nodes]

    padded = np.zeros(m + 1)  # a zero behind the last unknown for missing neighbours

    def precond(r, z):
        # L_XX r, the stencil restricted to the unknowns
        padded[:m] = r
        np.multiply(r, 2.0 * b.ndim, out=z)
        for row in neighbours:
            z -= padded[row]
        z *= 1.0 / (h * h)
        return z

    def residual(r):
        # the zero-extended u has free-node residual L_FX r
        w = np.bincount(edge_f, weights=r[edge_x])
        return math.sqrt(dot(w, w)) / (h * h * norm_b)

    sigma, iterations, res = pcg(
        apply_op, g, tol=tol, maxiter=maxiter, precond=precond, residual=residual
    )
    # u = L^-1 (b - E_X sigma)
    np.copyto(b, f)
    b[mask] = 0.0
    flat[nodes] = -sigma
    u = dirichlet_solve(b, h, out=out)
    u[mask] = 0.0
    return u, iterations, res


def solve_perforated(
    f: Array,
    holes: HoleFamily,
    grid: Grid,
    tol: float = 1e-8,
    *,
    override_tiny: bool = False,
    maxiter: Optional[int] = None,
) -> tuple[Array, SolveStats]:
    """Solve ``-Delta u = f`` with zero values on holes and the boundary.

    The output is the zero extension: it is exactly zero on hole nodes.
    The reported residual is the relative residual on the free nodes.
    """
    if not (tol > 0.0):
        raise InvalidParameterError("tolerance must be positive")
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise InvalidParameterError("right-hand side shape does not match grid")
    mask = hole_mask(grid, holes, override_tiny=override_tiny)
    h = grid.h
    start = time.perf_counter()
    nodes = _capacitance_nodes(mask)
    if nodes.size == 0:
        # no hole node, or no free node
        u, iterations, residual = _exact_solve(np.where(mask, 0.0, f), h, 0.0, tol)
    else:
        if maxiter is None:
            maxiter = max(2000, 60 * grid.n)
        u, iterations, residual = _capacitance_solve(f, mask, nodes, h, tol, maxiter)
    return u, SolveStats(iterations, residual, time.perf_counter() - start)


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


def lump_measure(
    mu: Potential, grid: Grid, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> Array:
    """Lump a potential onto node dual cells: ``w_j = mu(V_j) / h^d``.

    ``V_j`` is the half-open h-cube centered at node ``j`` (consistent
    with the tiling convention).  Densities use tensor Gauss quadrature
    over each dual cell of order ``min(quad.volume_order, 2)``: the
    2-point rule has an O(h^4) dual-cell error, below the O(h^2) error
    of the grid, and lumps a constant density to itself at every node
    (construction keeps the full ``volume_order`` for its cell masses).
    Surface measures deposit footprint samples of the weighted area
    element into the dual cell holding the lifted point, one grid row of
    samples at a time; samples in the half-spacing skin along the
    boundary go to the outermost interior node, so the lumped total
    captures the full surface mass inside the domain.
    """
    if isinstance(mu, SumPotential):
        out = grid.zeros()
        for part in mu.parts:
            out += lump_measure(part, grid, quad)
        return out
    h = grid.h
    if isinstance(mu, Density):
        order = min(quad.volume_order, 2)
        out = field_from_callable(grid, lambda pts: box_quadrature(mu.f, pts, 0.5 * h, order))
    elif isinstance(mu, SurfaceGraph):
        m = (grid.n + 1) * quad.surface_refine
        step = 1.0 / m
        rows = ((np.arange(m) + 0.5) * step).reshape(grid.n + 1, quad.surface_refine)
        out = bin_footprint(
            mu, [rows] * (grid.dim - 1), step ** (grid.dim - 1),
            lambda k, coords: _dual_cell_indices(grid, coords), grid.shape,
        )
    else:
        raise InvalidParameterError(f"unknown potential variant: {type(mu).__name__}")
    out /= h**grid.dim
    return out


def solve_limit(
    f: Array,
    weights: Array,
    grid: Grid,
    tol: float = 1e-8,
    *,
    maxiter: Optional[int] = None,
) -> tuple[Array, SolveStats]:
    """Solve the limit problem ``(-Delta + mu) u = f`` with lumped ``mu``.

    ``weights`` are the nonnegative dual-cell densities from
    :func:`lump_measure`; zero weights reduce to the plain Poisson solve.
    """
    if not (tol > 0.0):
        raise InvalidParameterError("tolerance must be positive")
    f = np.asarray(f, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if f.shape != grid.shape or weights.shape != grid.shape:
        raise InvalidParameterError("field shapes do not match grid")
    if np.any(weights < 0.0):
        raise InvalidParameterError("lumped measure must be nonnegative")
    h = grid.h
    # the constant part of the measure goes into the exact solve; a
    # constant measure needs nothing else
    shift = float(weights.min())
    start = time.perf_counter()
    if shift == float(weights.max()):
        u, iterations, residual = _exact_solve(f, h, shift, tol)
        return u, SolveStats(iterations, residual, time.perf_counter() - start)

    def apply_op(v):
        w = neg_laplacian(v, h)
        w += weights * v
        return w

    def precond(r, out):
        return dirichlet_solve(r, h, shift, out=out)

    u, iterations, residual = pcg(apply_op, f, tol=tol, maxiter=maxiter, precond=precond)
    return u, SolveStats(iterations, residual, time.perf_counter() - start)


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
    for center, radius in zip(holes.centers.tolist(), holes.radii.tolist()):
        slices = _node_box(grid, center, R)
        if slices is None:
            continue
        r = np.sqrt(_box_radii2(grid, slices, center))
        inside = r < R
        if not np.any(inside):
            continue
        phi = _cutoff((r - radius) / seps.margin(radius))
        pot = ball_potential_radial(r, radius, d)
        deviation[slices] += np.where(inside, phi * pot, 0.0)
    v_norm = l2_norm(deviation, grid)
    return 1.0 - deviation, v_norm


def weak_witness(u1: Array, u2: Array, g: Array, grid: Grid) -> float:
    """Discrete ``H_0^1`` pairing of ``u1 - u2`` against ``g``.

    The sum of forward-difference products on the zero-extended fields,
    boundary jumps included, so the pairing is symmetric in
    discretisation bias.  By summation by parts it equals
    ``<u1 - u2, -Delta_h g> h^d``: one stencil apply and one dot.
    """
    if u1.shape != grid.shape or u2.shape != grid.shape or g.shape != grid.shape:
        raise InvalidParameterError("field shapes do not match grid")
    return dot(u1 - u2, neg_laplacian(g, grid.h)) * grid.h**grid.dim


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
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def read_field(path) -> tuple[Grid, Array]:
    """Read a field written by :func:`write_field`."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        dim, n = int(header[0]), int(header[1])
        grid = Grid(dim, n)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != grid.size:
        raise InvalidParameterError(f"field file has {data.size} values, expected {grid.size}")
    return grid, data.reshape(grid.shape).copy()


def multilinear_sample(grid: Grid, u: Array, points: Array) -> Array:
    """Multilinear interpolation with the implied zero boundary values."""
    h = grid.h
    t = points / h - 1.0
    base = np.floor(t).astype(int)
    frac = t - base
    values = np.zeros(points.shape[0])
    for corner in range(1 << grid.dim):
        idx = base.copy()
        weight = np.ones(points.shape[0])
        for ax in range(grid.dim):
            bit = (corner >> ax) & 1
            idx[:, ax] = base[:, ax] + bit
            weight *= frac[:, ax] if bit else 1.0 - frac[:, ax]
        inside = np.all((idx >= 0) & (idx < grid.n), axis=1)
        if np.any(inside):
            lin = np.ravel_multi_index(tuple(idx[inside].T), grid.shape)
            values[inside] += weight[inside] * u.ravel()[lin]
    return values


def sample_line_csv(path, grid: Grid, u: Array, start, end, num: int = 101) -> None:
    """Sample a field along a segment and write ``t, x_1..x_d, value`` rows."""
    if num < 2:
        raise InvalidParameterError("line sampling needs at least 2 points")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    ts = np.linspace(0.0, 1.0, num)
    points = start[None, :] + ts[:, None] * (end - start)[None, :]
    values = multilinear_sample(grid, u, points)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{k + 1}" for k in range(grid.dim)] + ["value"])
        for t, p, v in zip(ts, points, values):
            writer.writerow(
                [format(t, ".17g")]
                + [format(c, ".17g") for c in p]
                + [format(v, ".17g")]
            )
