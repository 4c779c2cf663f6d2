"""Conjugate gradient: MiniFE's numerical core.

MiniFE assembles an unstructured finite-element system and solves it
with CG; its FOM is CG Mflops (§2.8).  We provide a textbook CG over
scipy sparse matrices plus a 2-D Poisson assembly helper, counting
flops the way MiniFE's FOM does (2*nnz per matvec + 10n vector work
per iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def poisson_2d(n: int) -> sp.csr_matrix:
    """The 5-point Laplacian on an n×n grid (SPD, CSR)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    main = 4.0 * np.ones(n * n)
    side = -1.0 * np.ones(n * n - 1)
    # Zero the couplings that would wrap across grid rows.
    side[np.arange(1, n * n) % n == 0] = 0.0
    updown = -1.0 * np.ones(n * n - n)
    A = sp.diags(
        [main, side, side, updown, updown],
        [0, -1, 1, -n, n],
        format="csr",
    )
    return A


@dataclass(frozen=True)
class CGResult:
    """Outcome of a CG solve."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    flops: float
    converged: bool

    def mflops(self, seconds: float) -> float:
        """MiniFE-style Total CG Mflops for a measured solve time."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        return self.flops / seconds / 1e6


def conjugate_gradient(
    A: sp.spmatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> CGResult:
    """Unpreconditioned CG for SPD ``A``; counts flops like MiniFE."""
    A = A.tocsr()
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if b.shape != (n,):
        raise ValueError("b has the wrong shape")
    nnz = A.nnz
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs_old = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    flops = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rs_old / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        # 2 flops/nnz matvec + dot/axpy vector traffic ~ 10n.
        flops += 2.0 * nnz + 10.0 * n
        if np.sqrt(rs_new) / b_norm < tol:
            converged = True
            break
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new
    return CGResult(
        x=x,
        iterations=it,
        residual_norm=float(np.linalg.norm(b - A @ x)),
        flops=flops,
        converged=converged,
    )
