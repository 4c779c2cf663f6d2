"""KBA-style wavefront sweep: Kripke's numerical core.

Kripke performs discrete-ordinates transport sweeps; the KBA algorithm
processes a structured grid in wavefronts so each diagonal depends only
on the previous one.  ``kba_sweep`` implements the 2-D analogue: a
lower-triangular solve structured as anti-diagonal wavefronts, which is
both a real computation (it solves (I - L) ψ = q) and the exact data
dependency pattern whose pipeline fill cost the Kripke app model charges.
"""

from __future__ import annotations

import numpy as np


def kba_sweep(q: np.ndarray, sigma: float = 0.3) -> np.ndarray:
    """Sweep the grid from the (0,0) corner: ψ[i,j] depends on west+south.

    Solves ψ[i,j] = q[i,j] + sigma/2 * (ψ[i-1,j] + ψ[i,j-1]) by
    wavefronts; ``sigma < 1`` keeps the recursion contractive.  Each
    anti-diagonal is computed as one vector operation.
    """
    if q.ndim != 2:
        raise ValueError("q must be 2-D")
    if not 0.0 <= sigma < 2.0:
        raise ValueError("sigma must be in [0, 2) for stability")
    nx, ny = q.shape
    psi = np.zeros_like(q, dtype=float)
    half = sigma / 2.0
    for d in range(nx + ny - 1):
        i0 = max(0, d - ny + 1)
        i1 = min(nx - 1, d)
        i = np.arange(i0, i1 + 1)
        j = d - i
        west = np.where(i > 0, psi[np.maximum(i - 1, 0), j], 0.0)
        south = np.where(j > 0, psi[i, np.maximum(j - 1, 0)], 0.0)
        psi[i, j] = q[i, j] + half * (west + south)
    return psi
