"""Geometric multigrid V-cycle: AMG2023's numerical core, simplified.

AMG2023 is an algebraic multigrid solver (hypre's BoomerAMG); we
implement the geometric analogue on a structured 2-D Poisson problem —
the same V-cycle control flow (smooth, restrict, coarse solve,
prolong, smooth) with the same setup/solve phase split the AMG FOM
uses.  Vectorised Jacobi smoothing, full-weighting restriction, and
bilinear prolongation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _residual(u: np.ndarray, f: np.ndarray, h2: float) -> np.ndarray:
    """Residual of the 5-point Poisson stencil with Dirichlet borders."""
    r = np.zeros_like(u)
    r[1:-1, 1:-1] = f[1:-1, 1:-1] - (
        4.0 * u[1:-1, 1:-1]
        - u[:-2, 1:-1]
        - u[2:, 1:-1]
        - u[1:-1, :-2]
        - u[1:-1, 2:]
    ) / h2
    return r


def _jacobi(u: np.ndarray, f: np.ndarray, h2: float, sweeps: int, omega: float = 0.8) -> np.ndarray:
    for _ in range(sweeps):
        unew = u.copy()
        unew[1:-1, 1:-1] = (1 - omega) * u[1:-1, 1:-1] + omega * 0.25 * (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] + h2 * f[1:-1, 1:-1]
        )
        u = unew
    return u


def _restrict(r: np.ndarray) -> np.ndarray:
    """Full weighting onto the coarse grid (size (n//2)+1 per dim)."""
    nc = (r.shape[0] - 1) // 2 + 1
    coarse = np.zeros((nc, nc))
    coarse[1:-1, 1:-1] = (
        4.0 * r[2:-2:2, 2:-2:2]
        + 2.0 * (r[1:-3:2, 2:-2:2] + r[3:-1:2, 2:-2:2] + r[2:-2:2, 1:-3:2] + r[2:-2:2, 3:-1:2])
        + (r[1:-3:2, 1:-3:2] + r[1:-3:2, 3:-1:2] + r[3:-1:2, 1:-3:2] + r[3:-1:2, 3:-1:2])
    ) / 16.0
    return coarse


def _prolong(e: np.ndarray, fine_shape: tuple[int, int]) -> np.ndarray:
    """Bilinear interpolation to the fine grid."""
    fine = np.zeros(fine_shape)
    fine[::2, ::2] = e
    fine[1::2, ::2] = 0.5 * (e[:-1, :] + e[1:, :])
    fine[::2, 1::2] = 0.5 * (fine[::2, :-2:2] + fine[::2, 2::2])
    fine[1::2, 1::2] = 0.25 * (
        e[:-1, :-1] + e[1:, :-1] + e[:-1, 1:] + e[1:, 1:]
    )
    return fine


def _v_cycle(u: np.ndarray, f: np.ndarray, h: float, pre: int, post: int) -> np.ndarray:
    n = u.shape[0]
    h2 = h * h
    if n <= 5:
        # Coarse solve: heavy smoothing is exact enough at 5x5.
        return _jacobi(u, f, h2, sweeps=50)
    u = _jacobi(u, f, h2, pre)
    r = _residual(u, f, h2)
    rc = _restrict(r)
    ec = np.zeros_like(rc)
    ec = _v_cycle(ec, rc, 2 * h, pre, post)
    u = u + _prolong(ec, u.shape)
    u = _jacobi(u, f, h2, post)
    return u


@dataclass(frozen=True)
class MGResult:
    """Outcome of a multigrid solve, phase-split like the AMG FOM."""

    u: np.ndarray
    cycles: int
    residual_history: tuple[float, ...]
    #: grid nonzeros summed over the hierarchy (the FOM's nnz_AP analogue)
    nnz_hierarchy: int

    @property
    def contraction_factor(self) -> float:
        """Mean per-cycle residual reduction."""
        h = self.residual_history
        if len(h) < 2 or h[0] == 0:
            return 0.0
        return float((h[-1] / h[0]) ** (1.0 / (len(h) - 1)))


def v_cycle_solve(
    n: int = 65,
    *,
    cycles: int = 10,
    pre_smooth: int = 2,
    post_smooth: int = 2,
    rhs: np.ndarray | None = None,
) -> MGResult:
    """Solve -Δu = f on the unit square with ``cycles`` V-cycles.

    ``n`` must be 2**k + 1 so the hierarchy coarsens cleanly.
    """
    if n < 5 or bin(n - 1).count("1") != 1:
        raise ValueError("n must be 2**k + 1 and >= 5")
    h = 1.0 / (n - 1)
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f = rhs if rhs is not None else np.sin(np.pi * X) * np.sin(np.pi * Y)
    u = np.zeros((n, n))
    history = [float(np.linalg.norm(_residual(u, f, h * h)))]
    for _ in range(cycles):
        u = _v_cycle(u, f, h, pre_smooth, post_smooth)
        history.append(float(np.linalg.norm(_residual(u, f, h * h))))
    # 5-point stencil: ~5 nnz per fine point, hierarchy sums to ~4/3 fine.
    nnz = int(5 * n * n * 4 / 3)
    return MGResult(
        u=u,
        cycles=cycles,
        residual_history=tuple(history),
        nnz_hierarchy=nnz,
    )
