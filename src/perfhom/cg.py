"""Matrix-free preconditioned conjugate gradients.

Every linear system in this package is symmetric positive definite (a
masked or shifted discrete Laplacian), so a single CG loop written
against an abstract operator callback covers all of them.  Grid layout,
Dirichlet masking and measure shifts stay with the callers.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, SolverError

Array = np.ndarray


def pcg(
    apply_op: Callable[[Array], Array],
    b: Array,
    *,
    tol: float = 1e-8,
    maxiter: Optional[int] = None,
    inv_diag: Optional[Array] = None,
) -> tuple[Array, int, float]:
    """Solve ``A x = b`` for SPD ``A`` given as a callback.

    Parameters
    ----------
    apply_op : callable
        Computes ``A v`` for an array ``v`` of the same shape as ``b``.
        Must not alias its input.
    b : ndarray
        Right-hand side.  ``b = 0`` short-circuits to the zero solution.
    tol : float
        Relative residual target, ``||b - A x|| <= tol * ||b||``.
    inv_diag : ndarray, optional
        Inverse diagonal of ``A`` for Jacobi preconditioning.

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
    norm_b = float(np.sqrt(np.vdot(b, b).real))
    if not np.isfinite(norm_b):
        raise EvaluationError("right-hand side is not finite or its norm overflows")
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    if maxiter is None:
        maxiter = max(2000, 60 * max(b.shape))
    x = np.zeros_like(b)
    r = b.copy()
    z = r * inv_diag if inv_diag is not None else r
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    res = float(np.sqrt(np.vdot(r, r).real))
    for iteration in range(maxiter):
        if res <= tol * norm_b:
            return x, iteration, res / norm_b
        if not np.isfinite(res):
            raise SolverError(f"residual turned non-finite after {iteration} iterations")
        ap = apply_op(p)
        pap = float(np.vdot(p, ap).real)
        if pap <= 0.0:
            raise SolverError(
                f"operator lost positive definiteness (p^T A p = {pap:.3e})"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = r * inv_diag if inv_diag is not None else r
        rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        res = float(np.sqrt(np.vdot(r, r).real))
    if res <= tol * norm_b:
        return x, maxiter, res / norm_b
    raise SolverError(
        f"conjugate gradients stagnated: relative residual {res / norm_b:.3e} "
        f"after {maxiter} iterations (tol {tol:.1e})"
    )
