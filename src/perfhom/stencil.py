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


def _transform(src: Array, dst: Array, q: Array) -> None:
    """Apply ``Q`` along axis 0 of ``src`` into ``dst``, rotating axes.

    The transformed axis becomes the last axis of ``dst``, so ``d`` calls
    on a ``d``-dimensional block transform every axis and restore the
    axis order.  The GEMM runs over row blocks of about ``_GEMM_BLOCK``
    values: OpenBLAS packs the data operand of a call into buffers that
    stay resident afterwards, so one call over a whole ``95^3`` block
    would keep about 7 MB for the life of the process.
    """
    n = q.shape[0]
    rows = src.reshape(n, -1).T
    out = dst.reshape(-1, n)
    step = max(1, _GEMM_BLOCK // n)
    for start in range(0, rows.shape[0], step):
        np.matmul(rows[start : start + step], q, out=out[start : start + step])


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
    # the 2d transforms alternate between one scratch array and out, so
    # the last lands in out; b is read only by the first
    bufs = (np.empty(b.shape), out)
    src = b
    for step in range(d):
        dst = bufs[step % 2]
        _transform(src, dst, q)
        src = dst
    # the denominator shift + lam_1 + ... + lam_d, one axis-0 slab at a time
    tail = np.zeros((n,) * (d - 1))
    for ax in range(d - 1):
        tail += lam.reshape((n,) + (1,) * (d - 2 - ax))
    slab = np.empty_like(tail)
    for i in range(n):
        np.add(tail, shift + lam[i], out=slab)
        src[i] /= slab
    for step in range(d, 2 * d):
        dst = bufs[step % 2]
        _transform(src, dst, q)
        src = dst
    return out
