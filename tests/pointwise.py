"""Point-by-point evaluation of product potentials and sine modes, and the
direct dual-cell formula: the test oracles.

The package evaluates a potential per axis, from its 1-D factors.  These
helpers evaluate the same potentials at explicit points, multiplying the
factor values in axis order, so that tests can check the per-axis rules
against a direct evaluation.
"""

import math

import numpy as np


def density_at(mu, x):
    """The product density ``prod_k factors[k](x_k)`` at the rows of ``x``."""
    return math.prod(np.asarray(f(x[:, k]), dtype=float) for k, f in enumerate(mu.factors))


def graph_at(mu, xp):
    """Heights ``(N,)`` and gradients ``(N, d-1)`` of a graph at the rows
    of ``xp``, with the products of :func:`perfhom.potential.bin_footprint`
    in its order: ``offset + amplitude * (s_0 s_1 ...)`` and
    ``(amplitude s'_k) prod_{j != k} s_j``, factors in axis order."""
    values = [np.asarray(f(xp[:, k]), dtype=float) for k, f in enumerate(mu.factors)]
    slopes = [mu.amplitude * np.asarray(g(xp[:, k]), dtype=float) for k, g in enumerate(mu.slopes)]
    heights = mu.offset + mu.amplitude * math.prod(values)
    grads = [math.prod([*values[:k], slopes[k], *values[k + 1 :]]) for k in range(len(values))]
    return heights, np.stack(grads, axis=-1)


def box_quadrature(f, centers, half, order):
    """Tensor Gauss integrals of a pointwise density ``f`` over the boxes
    of half-width ``half`` centered at the rows of ``centers``: one pass
    per tensor Gauss node evaluates ``f`` at all shifted centers."""
    dim = centers.shape[1]
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    offsets = np.meshgrid(*([half * ref_x] * dim), indexing="ij")
    qweights = half * ref_w
    for _ in range(dim - 1):
        qweights = np.multiply.outer(qweights, half * ref_w)
    acc = np.zeros(centers.shape[0])
    for offset, qweight in zip(np.stack([g.ravel() for g in offsets], axis=-1), qweights.ravel()):
        acc += qweight * f(centers + offset)
    return acc


def sine_mode(mode):
    """The zero-trace product sine ``prod_k sin(pi m_k x_k)`` at the rows
    of ``x``, a pointwise callable."""
    m = np.asarray(mode, dtype=float)
    return lambda x: np.prod(np.sin(np.pi * m * x), axis=1)


def sine_mode_field(grid, mode):
    """:func:`sine_mode` on the nodes of ``grid``, as a broadcast product
    of 1-D sine vectors."""
    factors = [np.sin(k * grid.axis()) for k in np.pi * np.asarray(mode, dtype=float)]
    return math.prod(np.ix_(*factors))


def dual_cell_indices(grid, coords):
    """Node index of the dual cell ``((k - 1/2) h, (k + 1/2) h]``, ``k`` the
    1-based node, holding each coordinate: ``ceil(x / h - 1/2)`` clipped to
    the interior nodes, less one, and -1 outside ``(0, 1)``: the reference
    for lumping's binning by the tiling's cell rule."""
    k = np.clip(np.ceil(coords / grid.h - 0.5).astype(int), 1, grid.n)
    idx = k - 1
    idx[(coords <= 0.0) | (coords >= 1.0)] = -1
    return idx
