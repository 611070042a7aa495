"""The (2d+1)-point negative Laplacian on uniform tensor grids, and its
exact inverse in the sine basis.

Fields are arrays of node values with an implied zero Dirichlet trace:
missing neighbours outside the array contribute zero.  The operator is
applied matrix-free.  On an ``n^d`` block it is diagonalised by the
orthonormal sine basis ``Q_jk = sqrt(2/(n+1)) sin(pi j k / (n+1))``
(the DST-I), with 1-D eigenvalues ``4/h^2 sin^2(pi k / (2(n+1)))``, so
``(-Delta_h + c) u = b`` is solved exactly by one transform per axis,
a diagonal scaling and the same transforms again (``Q`` is symmetric
and orthogonal).  The energy ``<b, (-Delta_h + c)^-1 b>`` needs only
the first half: the squared spectrum over the eigenvalues.

Full-block transforms run in place in the one array they are given,
with scratch of about ``_GEMM_BLOCK`` values: every axis but the last
two is transformed in GEMM chunks copied back over their input, and
the last two in batches of planes.  A solve is two halves:
:func:`sine_transform` makes the spectrum ``Q^d b``, and
:func:`spectral_solve` scales each batch of planes and transforms it
back while it is in cache, then the other axes.  One spectrum serves
several solves of one ``b``.  A solve holds only its output, and an
energy with ``overwrite_b`` nothing beyond ``b``.

:class:`SupportSolve` is the same solve for an input that is zero off a
node set ``S``: each forward transform runs only over the lines that
hold a node of ``S`` and contracts only over the coordinates ``S``
occupies.  Read back on ``S`` only, the backward transforms shrink the
same way; capacitance-matrix iterations, whose unknowns live on a small
node set, use that, and so does the read-back of a whole spectrum on
``S``.  When ``S`` is thin along the last axis (a layer around a
surface normal to it) the last transform, the scaling and its
transpose become one small Green's block per mode of the other axes,
built once (matrix decomposition, Buzbee, Golub and Nielson 1970), so
such an iteration never forms the ``n^d`` spectral block.  Read back on
the whole block, the backward half is that of the full solve, in place
in the spectral block, which turns a capacitance charge and the
spectrum of the right-hand side into the grid solution; fed a second
solve's charge and spectrum (:class:`FinalStep`) in the same block, it
turns them into the difference of the two solutions, in an array the
caller gives, with no second solution formed.

A spectrum these solves read is a tuple of factors whose outer product
(:func:`outer`, in axis order) is ``Q^d f``: ``Q^d`` is the Kronecker
product of ``Q`` with itself, so a product ``f = prod_k f_k(x_k)`` has
the ``d`` 1-D factors ``Q f_k``, and any other ``f`` the one factor
``(Q^d f,)``, an ``n^d`` block that spans every axis.  A reader builds
only the piece it needs, a chunk of lines or of slabs at a time, and has
one path for both.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .cg import dot
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


def _mode_sums(lam: Array, k: int) -> Array:
    """``lam_i1 + ... + lam_ik`` over the ``n^k`` modes of ``k`` axes."""
    n = lam.size
    total = np.zeros((n,) * k)
    for ax in range(k):
        total += lam.reshape((n,) + (1,) * (k - 1 - ax))
    return total


def _scratch(n: int, d: int) -> Array:
    """The one scratch array of the in-place transforms of an ``n^d``
    block: ``_GEMM_BLOCK`` values, or two trailing planes if more."""
    return np.empty(max(_GEMM_BLOCK, 2 * n ** min(d, 2)))


def _transform_leading(x: Array, q: Array, scratch: Array) -> None:
    """Transform every axis of the ``n^d`` block ``x`` but the last two by
    ``Q``, in place.

    Each GEMM takes about ``_GEMM_BLOCK`` values, columns of one slab
    normal to the axis or whole slabs when they are smaller, writes them
    to ``scratch`` and is copied back over its input.
    """
    n = q.shape[0]
    cols = max(1, _GEMM_BLOCK // n)
    for ax in range(x.ndim - 2):
        inner = n ** (x.ndim - 1 - ax)
        slabs = x.reshape(-1, n, inner)
        batch = max(1, cols // inner)
        for start in range(0, slabs.shape[0], batch):
            for col in range(0, inner, cols):
                part = slabs[start : start + batch, :, col : col + cols]
                work = scratch[: part.size].reshape(part.shape)
                np.matmul(q, part, out=work)
                part[...] = work


def _plane_batches(x: Array, lam: Array, shift: Optional[float], scratch: Array):
    """Yield ``(part, den, work)`` over batches of the trailing planes of
    the ``n^d`` block ``x`` (its last two axes; for ``d = 1`` one plane
    of one line), about ``_GEMM_BLOCK / 2`` values each.

    ``part`` is a view into ``x``; ``den`` holds ``shift`` plus the
    eigenvalue sums of the modes of ``part``'s entries (not filled when
    ``shift`` is None), and ``work`` is free.  Both are views of
    ``scratch``, refilled batch by batch.
    """
    n, d = lam.size, x.ndim
    planes = x.reshape(-1, n if d > 1 else 1, n)
    if shift is not None:
        lead = _mode_sums(lam, max(d - 2, 0)).reshape(-1) + shift
        tail = _mode_sums(lam, min(d, 2))
    step = max(1, _GEMM_BLOCK // (2 * planes[0].size))
    for start in range(0, planes.shape[0], step):
        part = planes[start : start + step]
        den, work = scratch[: 2 * part.size].reshape((2,) + part.shape)
        if shift is not None:
            np.add(tail, lead[start : start + part.shape[0], None, None], out=den)
        yield part, den, work


def _transform_planes(part: Array, q: Array, work: Array) -> None:
    """Transform the two trailing axes of a plane batch by ``Q`` in place:
    the last axis into ``work``, the other one back into ``part``."""
    n = q.shape[0]
    np.matmul(part.reshape(-1, n), q, out=work.reshape(-1, n))
    if part.shape[1] == 1:
        part[...] = work
    else:
        np.matmul(q, work, out=part)


def outer(vectors) -> Array:
    """``((v_0 v_1) v_2) ...``: the outer product of 1-D arrays, multiplied
    in axis order, as a new array (``1.0`` as a 0-d array for none)."""
    out = np.ones(())
    for v in vectors:
        out = np.multiply.outer(out, v)
    return out


def line_spectrum(v: Array, h: float) -> Array:
    """``Q v`` for one line ``v`` of ``n`` values, a new array: a 1-D
    factor of a product spectrum.  Summed in a fixed order by
    ``np.einsum``, which calls no BLAS, so it does not depend on the BLAS
    thread count.  ``h`` only keys the cached basis."""
    q, _ = _sine_basis(v.shape[0], float(h))
    return np.einsum("jk,j->k", q, v)


def subtract_from_spectrum(spectrum, x: Array) -> Array:
    """``x <- outer(spectrum) - x`` in place on the ``n^d`` block ``x``, a
    chunk of slabs along the first axis, about ``_GEMM_BLOCK`` values, at
    a time: the spectrum is multiplied out only chunk by chunk, and each
    value is that of :func:`outer`."""
    n = x.shape[0]
    step = max(1, _GEMM_BLOCK // (x.size // n))
    first, *rest = spectrum
    for start in range(0, n, step):
        part = x[start : start + step]
        np.subtract(outer((first[start : start + step], *rest)), part, out=part)
    return x


def _check_spectrum(spectrum, n: int, d: int) -> None:
    """A spectrum is ``d`` factors of shape ``(n,)`` or one of ``(n,) * d``."""
    shapes = [np.shape(v) for v in spectrum]
    if shapes not in ([(n,)] * d, [(n,) * d]):
        raise InvalidParameterError("spectrum does not match the block")


def _check_cube(b: Array) -> None:
    if b.shape != (b.shape[0],) * b.ndim:
        raise InvalidParameterError(f"sine solve needs a cubic block, got shape {b.shape}")


def dirichlet_solve(
    b: Array, h: float, shift: float = 0.0, out: Optional[Array] = None
) -> Array:
    """Solve ``(neg_laplacian + shift) u = b`` exactly on an ``n^d`` block.

    ``b`` must have equal extents on every axis; ``h`` is the spacing of
    the stencil and ``shift >= 0`` a constant added to its diagonal.
    ``out`` (C-contiguous, same shape as ``b``, may be ``b`` itself)
    receives the solution; without it a new array does.  The solve is
    :func:`sine_transform` and :func:`spectral_solve` in place in that
    array.
    """
    b = np.asarray(b, dtype=float)
    if out is None:
        out = np.array(b, order="C")
    elif out.shape != b.shape:
        raise InvalidParameterError("sine solve output must match b")
    elif out is not b:
        np.copyto(out, b)
    return spectral_solve(sine_transform(out, h), h, shift)


def _inverse_half(x: Array, q: Array, lam: Array, shift: float) -> Array:
    """``x <- Q^d (x / (shift + lambda))`` in place: each batch of
    trailing planes scaled and transformed, then the leading axes."""
    scratch = _scratch(q.shape[0], x.ndim)
    for part, den, work in _plane_batches(x, lam, shift, scratch):
        part /= den
        _transform_planes(part, q, work)
    _transform_leading(x, q, scratch)
    return x


def _check_in_place(x: Array) -> None:
    _check_cube(x)
    if x.dtype != np.float64 or not x.flags.c_contiguous or not x.flags.writeable:
        raise InvalidParameterError("in-place sine transform needs a writable C-contiguous float block")


def sine_transform(x: Array, h: float) -> Array:
    """Apply ``Q^d`` to the ``n^d`` block ``x`` in place and return it:
    the spectrum of ``x``, the first half of :func:`dirichlet_solve`.

    The leading axes first, then each batch of trailing planes, with one
    scratch array of ``_GEMM_BLOCK`` values (two trailing planes when
    they are more).  ``Q^d`` is symmetric and orthogonal, so a second
    transform gives ``x`` back up to rounding.  ``h`` only keys the
    cached basis.
    """
    _check_in_place(x)
    q, lam = _sine_basis(x.shape[0], float(h))
    scratch = _scratch(q.shape[0], x.ndim)
    _transform_leading(x, q, scratch)
    for part, _, work in _plane_batches(x, lam, None, scratch):
        _transform_planes(part, q, work)
    return x


def spectral_solve(x: Array, h: float, shift: float = 0.0) -> Array:
    """Turn the spectrum ``x = Q^d b`` (:func:`sine_transform`) into the
    solution of ``(neg_laplacian + shift) u = b``, in place, and return it.

    The second half of :func:`dirichlet_solve`, with the scratch of
    :func:`sine_transform`: each batch of trailing planes is scaled and
    transformed while it is in cache, then the leading axes.
    """
    _check_in_place(x)
    q, lam = _sine_basis(x.shape[0], float(h))
    return _inverse_half(x, q, lam, shift)


def dirichlet_energy(b: Array, h: float, shift: float = 0.0, *, overwrite_b: bool = False) -> float:
    """``<b, (neg_laplacian + shift)^-1 b> = sum_k (Q b)_k^2 / (shift + lambda_k)``.

    The energy of :func:`dirichlet_solve`'s solution from its forward
    half alone: ``d`` transforms, not ``2d``, and no solution array.
    Summed plane batch by plane batch in a fixed order.  With
    ``overwrite_b`` a C-contiguous ``b`` is transformed in place and left
    holding transform values, so no array of its size is made; otherwise
    one copy of it is.
    """
    b = np.asarray(b, dtype=float)
    _check_cube(b)
    q, lam = _sine_basis(b.shape[0], float(h))
    x = b if overwrite_b and b.flags.c_contiguous else np.array(b, order="C")
    scratch = _scratch(q.shape[0], x.ndim)
    _transform_leading(x, q, scratch)
    total = 0.0
    for part, den, work in _plane_batches(x, lam, shift, scratch):
        _transform_planes(part, q, work)
        total += dot(part, np.divide(part, den, out=work))
    return total


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


def _lines(w: Array, count: int, where: Optional[Array]) -> Array:
    """The lines a backward step's output ``w`` (one row per coordinate
    of the step, ``count`` lines of the next step's product each) holds
    for the next step: the product itself, or the lines ``where`` marks."""
    w = w.reshape(w.shape[0] * count, -1)
    return w if where is None else _rows(w)[where].reshape(-1, w.shape[1])


def _line_kernel(rows: Array, lam: Array, d: int, shift: float) -> Array:
    """The Green's block of each spectral line along the last axis.

    ``rows`` are ``Q``'s rows at the ``c`` coordinates a support occupies
    on the last axis.  Returns ``K[a, b, kappa] = sum_k Q_ak Q_bk /
    (shift + mu_kappa + lambda_k)``, ``mu_kappa`` the eigenvalue sum of
    the ``n^(d-1)`` modes ``kappa`` of the other axes in C order, built
    by one GEMM per chunk of modes against the products ``Q_ak Q_bk``, in
    about ``_GEMM_BLOCK`` values of scratch.
    """
    c, n = rows.shape
    mu = _mode_sums(lam, d - 1).reshape(-1) + shift
    pairs = (rows[:, None, :] * rows[None, :, :]).reshape(c * c, n)  # Q_ak Q_bk
    kernel = np.empty((c * c, mu.size))
    scratch = np.empty((min(mu.size, max(1, _GEMM_BLOCK // n)), n))
    for start in range(0, mu.size, scratch.shape[0]):
        part = mu[start : start + scratch.shape[0]]
        inverse = scratch[: part.size]
        np.add.outer(part, lam, out=inverse)
        np.divide(1.0, inverse, out=inverse)
        np.matmul(pairs, inverse.T, out=kernel[:, start : start + part.size])
    return kernel.reshape(c, c, -1)


class SupportSolve:
    """``v -> ((neg_laplacian + shift)^-1 E_S v)_S`` on an ``n^d`` block.

    ``nodes`` are the strictly increasing flat (C-order) indices of the
    node set ``S``; ``E_S`` extends a vector on ``S`` by zero.  The
    forward half applies ``Q`` one axis at a time.  Before axis ``t`` is
    transformed the block is nonzero only on the lines whose untransformed
    coordinates ``(i_t+1, ..., i_d-1)`` occur in ``S``, and along axis
    ``t`` only at the coordinates ``S`` occupies there, so each GEMM runs
    over those lines and contracts over those coordinates.  The backward
    half is the transpose (``Q`` is symmetric): the same GEMMs in reverse
    order, each producing only the lines and coordinates the next one
    reads.

    Between the halves, when ``S`` occupies ``c`` coordinates on the last
    axis with ``c * c <= n`` (a layer along a surface normal to it), the
    last transform, the scaling and its transpose collapse into one
    ``c x c`` Green's block per mode of the other axes
    (:func:`_line_kernel`, built once): an apply then holds no ``n^d``
    block, only arrays of ``c n^(d-1)`` values beside the kernel's
    ``c^2 n^(d-1) <= n^d``.  Otherwise the last transform yields the
    whole spectral block, which is scaled slab by slab, and an apply holds
    it and at most one block of the same size.  The index sets are
    O(|S|) and built once; an axis ``S`` fully occupies uses ``Q``
    itself.  :meth:`read` runs the backward half alone on a given
    spectrum, and :meth:`finish` reads a solution back on the whole block
    instead, through the spectral block, which its backward half
    transforms in place, less another solve on the block if given.
    """

    def __init__(self, nodes: Array, n: int, d: int, h: float, shift: float = 0.0):
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or not nodes.size or nodes[0] < 0 or nodes[-1] >= n**d:
            raise InvalidParameterError("support needs flat indices on the n^d block")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidParameterError("support nodes must be strictly increasing")
        q, lam = _sine_basis(n, float(h))
        self.n, self.d, self.q, self.lam, self.shift = n, d, q, lam, float(shift)
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
            rows = q if coords.size == n else np.ascontiguousarray(q[coords])
            self._steps.append((rows, tails.size, where))
            lines = tails
        last = self._steps[-1][0]
        thin = last.shape[0] ** 2 <= n
        self._kernel = _line_kernel(last, lam, d, self.shift) if thin else None

    def _forward(self, v: Array, steps) -> Array:
        """Run the forward ``steps`` on ``E_S v``: one row per line the
        next step reads, the transformed coordinates along each row."""
        n = self.n
        x = np.asarray(v, dtype=float).reshape(-1, 1)
        if x.shape[0] != self.size:
            raise InvalidParameterError("vector does not match the support")
        # x holds one row per line of L_t and n^t transformed values each
        for rows, count, where in steps:
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
        return x

    def _backward(self, x: Array, steps) -> Array:
        """Transpose :meth:`_forward` over ``steps``: read back on ``S``."""
        for rows, count, where in reversed(steps):
            cols = x.reshape(-1, self.n)
            w = np.empty((rows.shape[0], cols.shape[0]))
            _transform_back(rows, cols, w)
            del x, cols
            x = _lines(w, count, where)
            del w
        return x.reshape(-1)

    def _spectrum(self, v: Array) -> Array:
        """The forward half and the scaling: the scaled spectral ``n^d``
        block of ``E_S v``."""
        x = self._forward(v, self._steps).reshape((self.n,) * self.d)
        for part, den, _ in _plane_batches(x, self.lam, self.shift, _scratch(self.n, self.d)):
            part /= den
        return x

    def apply(self, v: Array) -> Array:
        """Return ``((neg_laplacian + shift)^-1 E_S v)_S`` as a new vector."""
        if self._kernel is None:
            return self._backward(self._spectrum(v), self._steps)
        inner = self._steps[:-1]
        x = self._forward(v, inner).reshape(self._kernel.shape[0], -1)
        return self._backward(np.einsum("abk,ak->bk", self._kernel, x), inner)

    def read(self, spectrum, both: bool = False):
        """For the spectrum ``Q^d b`` of an ``n^d`` block ``b``, return
        ``((neg_laplacian + shift)^-1 b)_S`` as a new vector; with
        ``both``, the pair ``(b_S, ((neg_laplacian + shift)^-1 b)_S)`` from
        one pass over ``spectrum``, the second bit for bit the lone read.

        The backward half of :meth:`apply` on the whole spectrum: the
        last-axis contraction runs over chunks of the spectrum's lines of
        about ``_GEMM_BLOCK`` values, each multiplied out (as by
        :func:`outer`, the product of the leading factors times the last
        one) and scaled in scratch of that size, so no ``n^d`` array is
        made beside the contraction's output of ``c n^(d-1)`` values (two
        with ``both``).
        """
        n, d = self.n, self.d
        _check_spectrum(spectrum, n, d)
        *lead, last = spectrum
        # the leading product of each line beside the line's last factor
        lead, last = np.broadcast_arrays(outer(lead).reshape(-1, 1), last.reshape(-1, n))
        step = max(1, _GEMM_BLOCK // n)
        product, scratch = np.empty((2, min(step, last.shape[0]), n))
        mu = _mode_sums(self.lam, d - 1).reshape(-1) + self.shift
        rows, count, where = self._steps[-1]
        # the unscaled contraction if asked, then the scaled one
        outs = [np.empty((rows.shape[0], last.shape[0])) for _ in range(1 + both)]
        for start in range(0, last.shape[0], step):
            part = product[: min(step, last.shape[0] - start)]
            np.multiply(lead[start : start + step], last[start : start + step], out=part)
            if both:
                np.matmul(rows, part.T, out=outs[0][:, start : start + step])
            den = scratch[: part.shape[0]]
            np.add.outer(mu[start : start + step], self.lam, out=den)
            np.divide(part, den, out=den)
            np.matmul(rows, den.T, out=outs[-1][:, start : start + step])
        reads = []
        while outs:  # the lines alone outlive this step
            reads.append(self._backward(_lines(outs.pop(0), count, where), self._steps[:-1]))
        return tuple(reads) if both else reads[0]

    def _charge_lines(self, v: Array) -> tuple[Array, Array]:
        """``(cols, rows)`` with ``cols @ rows = Q^d E_S v``, one row per line
        along the last axis: ``E_S v`` through every forward step but the
        last, whose lines are its coordinates, so it scatters nothing."""
        rows = self._steps[-1][0]
        x = self._forward(v, self._steps[:-1])
        return x.reshape(rows.shape[0], -1).T, rows

    def finish(
        self, spectrum, v: Array, minus: Optional[FinalStep] = None, out: Optional[Array] = None
    ) -> Array:
        """Return ``u = (neg_laplacian + shift)^-1 (b - E_S v)`` on the whole
        block for the spectrum ``S = Q^d b`` (factors as for :meth:`read`),
        or with ``minus``, the final step of a solve ``u_2`` on the block,
        ``u - u_2``, in ``out`` (a writable C-contiguous float block, which
        may be ``u_2``) or the one ``n^d`` array made.

        The block ``C = (S - Q^d E_S v) - (lambda + shift) (S_2 - Q^d E_Y2
        v_2) / (lambda + shift_2)`` is built one term at a time, the second
        only with ``minus`` (:meth:`_subtract_step`); then the scaling and
        the backward half of :func:`dirichlet_solve` run once, in place.
        The first term is the sparse forward half of ``E_S v``, its last
        GEMMs written in ``C``, subtracted from ``S``
        (:func:`subtract_from_spectrum`)."""
        n, d = self.n, self.d
        _check_spectrum(spectrum, n, d)
        cols, rows = self._charge_lines(v)
        if out is None:
            out = np.empty((n,) * d)
        elif out.shape != (n,) * d:
            raise InvalidParameterError("finish output does not match the block")
        _check_in_place(out)
        _transform(cols, rows, out.reshape(-1, n))
        del cols
        subtract_from_spectrum(spectrum, out)
        if minus is not None:
            self._subtract_step(out, minus)
        return _inverse_half(out, self.q, self.lam, self.shift)

    def _subtract_step(self, x: Array, step: FinalStep) -> None:
        """``x -= (lambda + shift) T / (lambda + shift_step)`` for another
        solve's final ``step`` on the block, whose block before its scaling
        is ``T = S - Q^d E_Y v``; equal shifts skip the scaling.

        A chunk of ``T``'s lines along the last axis, about ``_GEMM_BLOCK /
        2`` values, is one GEMM of coefficients per line times rows: a
        product spectrum's leading products times its last factor, and the
        charge's lines before its last forward step
        (:meth:`_charge_lines`) times minus that step's rows.  A spectrum
        that is one block is added to it line by line.
        """
        n, d = self.n, self.d
        _check_spectrum(step.spectrum, n, d)
        lines = x.reshape(-1, n)
        *lead, last = step.spectrum
        block = last.reshape(-1, n) if last.ndim > 1 else None
        # no columns at all for a one-block spectrum with no charge
        coeffs, rows = [np.empty((lines.shape[0], 0))], [np.empty((0, n))]
        if block is None:
            coeffs.append(outer(lead).reshape(-1, 1))
            rows.append(last.reshape(1, n))
        if step.charge is not None:
            cols, charge_rows = step.solve._charge_lines(step.charge)
            coeffs.append(cols)
            rows.append(-charge_rows)
        rows = np.vstack(rows)
        if step.shift != self.shift:
            mu = _mode_sums(self.lam, d - 1).reshape(-1) + step.shift
        # a product of rank one as a broadcast, which numpy runs faster
        product = np.multiply if rows.shape[0] == 1 else np.matmul
        size = max(1, _GEMM_BLOCK // (2 * n))
        term, scratch = np.empty((2, min(size, lines.shape[0]), n))
        for start in range(0, lines.shape[0], size):
            chunk = slice(start, start + size)
            part = term[: lines[chunk].shape[0]]
            product(np.hstack([c[chunk] for c in coeffs]), rows, out=part)
            if block is not None:
                part += block[chunk]
            if step.shift != self.shift:
                den = scratch[: part.shape[0]]
                np.add.outer(mu[chunk], self.lam, out=den)
                part /= den
                den += self.shift - step.shift  # lambda + shift
                part *= den
            lines[chunk] -= part


class FinalStep(NamedTuple):
    """The inputs of a solve's final step ``u = Q^d ((S - Q^d E_Y v) /
    (lambda + shift))``: the spectrum ``S`` (factors as for
    :meth:`SupportSolve.read`), the shift, and the restricted solve over
    ``Y`` with the charge ``v``, both None for an exact solve."""

    spectrum: tuple
    shift: float
    solve: Optional[SupportSolve] = None
    charge: Optional[Array] = None
