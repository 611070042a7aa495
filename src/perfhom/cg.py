"""Matrix-free preconditioned conjugate gradients.

Every linear system in this package is symmetric positive definite (a
shifted discrete Laplacian, or the capacitance matrix of the holes), so
a single CG loop written against an abstract operator callback, an
abstract preconditioner and an optional residual measure covers all of
them.  Grid layout, hole indexing, measure shifts and the choice of
preconditioner stay with the callers.

Inner products go through :func:`dot`, a single-threaded reduction in a
fixed order, so iterates and reports do not depend on the number of BLAS
threads.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, SolverError

Array = np.ndarray


def dot(a: Array, b: Array) -> float:
    """Inner product ``sum a_i b_i`` of two real arrays, summed in a fixed
    order on one thread (threaded ``np.vdot`` reorders the sum with the
    BLAS thread count)."""
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def rhs_norm(*factors: Array) -> float:
    """``||b||`` of a right-hand side, checked before any iteration.

    ``b`` is one array, or the outer product of several: its squared norm
    is the product of theirs, which overflows when the sum of ``b^2`` over
    all entries does.  Raises :class:`EvaluationError` if ``b`` has a
    non-finite entry or a norm that overflows: no iterate built from it
    could be trusted.
    """
    norm_b = math.sqrt(math.prod(dot(b, b) for b in factors))
    if not np.isfinite(norm_b):
        raise EvaluationError("right-hand side is not finite or its norm overflows")
    return norm_b


def pcg(
    apply_op: Callable[[Array], Array],
    b: Array,
    *,
    tol: float = 1e-8,
    maxiter: Optional[int] = None,
    precond: Optional[Callable[[Array, Array], Array]] = None,
    residual: Optional[Callable[[Array], float]] = None,
) -> tuple[Array, int, float]:
    """Solve ``A x = b`` for SPD ``A`` given as a callback.

    Parameters
    ----------
    apply_op : callable
        Computes ``A v`` for an array ``v`` of the same shape as ``b``.
        Must return a new array (the loop overwrites it).
    b : ndarray
        Right-hand side.  ``b = 0`` short-circuits to the zero solution.
        A float array is taken over as the residual vector and overwritten;
        a caller that needs ``b`` afterwards passes a copy.
    tol : float
        Relative residual target, ``||b - A x|| <= tol * ||b||`` unless
        ``residual`` measures it otherwise.
    precond : callable, optional
        ``precond(r, out)`` writes ``M^-1 r`` into ``out`` and returns it,
        for a symmetric positive definite ``M`` approximating ``A``.
        Without it the loop is plain CG.
    residual : callable, optional
        ``residual(r)`` maps the CG residual ``r = b - A x`` to the
        relative residual of the stopping test ``residual(r) <= tol``,
        which is also the value returned.  Defaults to ``||r|| / ||b||``.
        A caller whose ``A`` is a reformulation of a larger system passes
        the residual of that system here.

    Returns
    -------
    (x, iterations, relative_residual)

    Raises
    ------
    EvaluationError
        If ``b`` has a non-finite entry or a norm that overflows.
    SolverError
        If the residual turns non-finite, or ``maxiter`` is exhausted
        before the tolerance is met.
    """
    b = np.asarray(b, dtype=float)
    norm_b = rhs_norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    if maxiter is None:
        maxiter = max(2000, 60 * max(b.shape))
    if residual is None:
        def residual(r):
            return math.sqrt(dot(r, r)) / norm_b
    x = np.zeros_like(b)
    r = b
    z = precond(r, np.empty_like(b)) if precond is not None else r
    p = z.copy()
    rz = dot(r, z)
    res = residual(r)
    for iteration in range(maxiter):
        if res <= tol:
            return x, iteration, res
        if not np.isfinite(res):
            raise SolverError(f"residual turned non-finite after {iteration} iterations")
        ap = apply_op(p)
        pap = dot(p, ap)
        if pap <= 0.0:
            raise SolverError(
                f"operator lost positive definiteness (p^T A p = {pap:.3e})"
            )
        alpha = rz / pap
        ap *= alpha
        r -= ap
        x += np.multiply(p, alpha, out=ap)
        del ap  # release it before the preconditioner takes its scratch array
        if precond is not None:
            z = precond(r, z)
        rz_new = dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
        res = residual(r)
    if res <= tol:
        return x, maxiter, res
    raise SolverError(
        f"conjugate gradients stagnated: relative residual {res:.3e} "
        f"after {maxiter} iterations (tol {tol:.1e})"
    )
