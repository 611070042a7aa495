"""The (2d+1)-point negative Laplacian on uniform tensor grids, and its
exact inverse in the sine basis.

Fields are arrays of node values with an implied zero Dirichlet trace:
missing neighbours outside the array contribute zero.  The operator is
applied matrix-free.  On an ``n^d`` block it is diagonalised by the
orthonormal sine basis ``Q_jk = sqrt(2/(n+1)) sin(pi j k / (n+1))``
(the DST-I), with 1-D eigenvalues ``4/h^2 sin^2(pi k / (2(n+1)))``, so
``(-Delta_h + c) u = b`` is solved exactly by one transform per axis,
a diagonal scaling and the same transforms again (``Q`` is symmetric
and orthogonal).

:class:`SupportSolve` is the same solve between vectors on a node set
``S``: its input is zero off ``S`` and only ``S`` is read back, so each
transform runs only over the lines that hold a node of ``S`` and
contracts only over the coordinates ``S`` occupies.  Capacitance-matrix
iterations, whose unknowns live on a small node set, use it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InvalidParameterError

Array = np.ndarray


def neg_laplacian(u: Array, h: float) -> Array:
    """Return ``(2d u_j - sum of neighbours) / h^2`` with zero padding."""
    d = u.ndim
    out = (2.0 * d) * u
    for ax in range(d):
        lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(d))
        hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(d))
        out[lo] -= u[hi]
        out[hi] -= u[lo]
    out *= 1.0 / (h * h)
    return out


_GEMM_BLOCK = 1 << 16


@lru_cache(maxsize=8)
def _sine_basis(n: int, h: float) -> tuple[Array, Array]:
    """Read-only sine basis ``Q`` (n x n) and the 1-D eigenvalues."""
    k = np.arange(1, n + 1)
    # reduce j k modulo the period 2(n+1) in integers, so every entry is
    # the sine of an angle below 2 pi and Q is symmetric bit for bit
    phase = np.outer(k, k) % (2 * (n + 1))
    q = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1))
    lam = (4.0 / (h * h)) * np.sin(np.pi * k / (2 * (n + 1))) ** 2
    q.flags.writeable = False
    lam.flags.writeable = False
    return q, lam


def _transform(rows: Array, q: Array, out: Array) -> None:
    """``out = rows @ q`` over row blocks of about ``_GEMM_BLOCK`` values.

    OpenBLAS packs the data operand of a call into buffers that stay
    resident afterwards, so one call over a whole ``95^3`` block would
    keep about 7 MB for the life of the process.
    """
    step = max(1, _GEMM_BLOCK // q.shape[1])
    for start in range(0, rows.shape[0], step):
        np.matmul(rows[start : start + step], q, out=out[start : start + step])


def _transform_back(q: Array, cols: Array, out: Array) -> None:
    """``out = q @ cols.T``, the transpose of :func:`_transform`, over
    column blocks of ``out`` of the same size."""
    step = max(1, _GEMM_BLOCK // q.shape[1])
    for start in range(0, cols.shape[0], step):
        np.matmul(q, cols[start : start + step].T, out=out[:, start : start + step])


def _scale_spectral(x: Array, lam: Array, shift: float) -> None:
    """Divide a spectral ``n^d`` block by ``shift + lam_k1 + ... + lam_kd``,
    one axis-0 slab at a time, so no ``n^d`` denominator is held."""
    n, d = x.shape[0], x.ndim
    tail = np.zeros((n,) * (d - 1))
    for ax in range(d - 1):
        tail += lam.reshape((n,) + (1,) * (d - 2 - ax))
    slab = np.empty_like(tail)
    for i in range(n):
        np.add(tail, shift + lam[i], out=slab)
        x[i] /= slab


def dirichlet_solve(
    b: Array, h: float, shift: float = 0.0, out: Optional[Array] = None
) -> Array:
    """Solve ``(neg_laplacian + shift) u = b`` exactly on an ``n^d`` block.

    ``b`` must have equal extents on every axis; ``h`` is the spacing of
    the stencil and ``shift >= 0`` a constant added to its diagonal.
    ``out`` (C-contiguous, same shape as ``b``, may be ``b`` itself)
    receives the solution.  Works in one scratch array of ``b``'s size;
    only the ``n x n`` basis and the eigenvalues are cached.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    d = b.ndim
    if b.shape != (n,) * d:
        raise InvalidParameterError(f"sine solve needs a cubic block, got shape {b.shape}")
    if out is None:
        out = np.empty(b.shape)
    elif out.shape != b.shape or not out.flags.c_contiguous:
        raise InvalidParameterError("sine solve output must be C-contiguous and match b")
    q, lam = _sine_basis(n, float(h))
    # each transform runs along axis 0 and makes it the last axis, so d
    # of them transform every axis and restore the axis order; the 2d
    # transforms alternate between one scratch array and out, so the last
    # lands in out, and b is read only by the first
    bufs = (np.empty(b.shape), out)
    src = b
    for step in range(2 * d):
        if step == d:
            _scale_spectral(src, lam, shift)
        dst = bufs[step % 2]
        _transform(src.reshape(n, -1).T, q, dst.reshape(-1, n))
        src = dst
    return out


def _occupied(values: Array, size: int) -> tuple[Array, Array]:
    """The distinct ``values`` (all in ``range(size)``) in increasing
    order, and a table of each value's position among them."""
    present = np.bincount(values, minlength=size) > 0
    return np.flatnonzero(present), np.cumsum(present) - 1


def _rows(block: Array) -> Array:
    """``block`` itself, or its flat view when its rows are single values:
    numpy's boolean row selection copies row by row, which is slow for
    rows of one value."""
    return block.reshape(-1) if block.shape[1] == 1 else block


class SupportSolve:
    """``v -> ((neg_laplacian + shift)^-1 E_S v)_S`` on an ``n^d`` block.

    ``nodes`` are the strictly increasing flat (C-order) indices of the
    node set ``S``; ``E_S`` extends a vector on ``S`` by zero.  The
    forward half applies ``Q`` one axis at a time.  Before axis ``t`` is
    transformed the block is nonzero only on the lines whose untransformed
    coordinates ``(i_t+1, ..., i_d-1)`` occur in ``S``, and along axis
    ``t`` only at the coordinates ``S`` occupies there, so each GEMM runs
    over those lines and contracts over those coordinates.  The last
    transform yields the whole spectral block, which is scaled slab by
    slab.  The backward half is the transpose (``Q`` is symmetric): the
    same GEMMs in reverse order, each producing only the lines and
    coordinates the next one reads.  An apply allocates the spectral
    block and at most one block of the same size; the index sets are
    O(|S|) and built once.
    """

    def __init__(self, nodes: Array, n: int, d: int, h: float, shift: float = 0.0):
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or not nodes.size or nodes[0] < 0 or nodes[-1] >= n**d:
            raise InvalidParameterError("support needs flat indices on the n^d block")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidParameterError("support nodes must be strictly increasing")
        q, lam = _sine_basis(n, float(h))
        self.n, self.d, self.lam, self.shift = n, d, lam, float(shift)
        self.size = nodes.size
        # step t maps the lines L_t (flat indices of (i_t, ..., i_d-1) in
        # S) to L_t+1: ``rows`` are Q's rows at the coordinates occupied
        # on axis t, ``count`` is |L_t+1|, and ``where`` marks the lines of
        # L_t among the (coordinate, line of L_t+1) product in its
        # lexicographic order, the order of L_t, or is None when L_t is
        # the whole product
        self._steps = []
        lines = nodes
        for t in range(d):
            coord = lines // n ** (d - 1 - t)
            rest = lines - coord * n ** (d - 1 - t)
            coords, coord_rank = _occupied(coord, n)
            tails, tail_rank = _occupied(rest, n ** (d - 1 - t))
            where = None
            if lines.size != coords.size * tails.size:
                where = np.zeros(coords.size * tails.size, dtype=bool)
                where[coord_rank[coord] * tails.size + tail_rank[rest]] = True
            self._steps.append((np.ascontiguousarray(q[coords]), tails.size, where))
            lines = tails

    def apply(self, v: Array) -> Array:
        """Return ``((neg_laplacian + shift)^-1 E_S v)_S`` as a new vector."""
        n, d = self.n, self.d
        x = np.asarray(v, dtype=float).reshape(-1, 1)
        if x.shape[0] != self.size:
            raise InvalidParameterError("vector does not match the support")
        # x holds one row per line of L_t and n^t transformed values each
        for rows, count, where in self._steps:
            if where is None:
                w = x.reshape(rows.shape[0], -1)
            else:
                w = np.zeros((rows.shape[0] * count, x.shape[1]))
                _rows(w)[where] = _rows(x)
                w = w.reshape(rows.shape[0], -1)
            x = np.empty((w.shape[1], n))
            _transform(w.T, rows, x)
            x = x.reshape(count, -1)
            del w
        _scale_spectral(x.reshape((n,) * d), self.lam, self.shift)
        for rows, count, where in reversed(self._steps):
            cols = x.reshape(-1, n)
            w = np.empty((rows.shape[0], cols.shape[0]))
            _transform_back(rows, cols, w)
            del x, cols
            w = w.reshape(rows.shape[0] * count, -1)
            x = w if where is None else _rows(w)[where].reshape(-1, w.shape[1])
            del w
        return x.reshape(-1)
