"""Lennard-Jones molecular dynamics: LAMMPS's numerical core.

LAMMPS/ReaxFF computes interatomic forces, then integrates; its FOM is
million atom-steps per second (§2.8).  We implement a vectorised LJ
force kernel with minimum-image periodic boundaries and a velocity-
Verlet step — the structural skeleton of the MD loop (ReaxFF's
charge-equilibration solve is represented in the app model's
communication pattern instead).
"""

from __future__ import annotations

import numpy as np


def lj_forces(
    pos: np.ndarray, box: float, *, epsilon: float = 1.0, sigma: float = 1.0,
    cutoff: float = 2.5,
) -> tuple[np.ndarray, float]:
    """Forces and potential energy for an all-pairs LJ system.

    ``pos`` is (n, 3) in a cubic periodic box of side ``box``.  O(n^2)
    with full vectorisation — appropriate for the few-hundred-atom
    validation problems the tests use.
    """
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("pos must be (n, 3)")
    n = pos.shape[0]
    rij = pos[:, None, :] - pos[None, :, :]
    rij -= box * np.round(rij / box)  # minimum image
    r2 = np.einsum("ijk,ijk->ij", rij, rij)
    np.fill_diagonal(r2, np.inf)
    mask = r2 < cutoff * cutoff
    inv_r2 = np.where(mask, 1.0 / np.where(r2 == 0, np.inf, r2), 0.0)
    s2 = sigma * sigma * inv_r2
    s6 = s2 * s2 * s2
    s12 = s6 * s6
    # F = 24 eps (2 s12 - s6) / r^2 * rij
    fac = 24.0 * epsilon * (2.0 * s12 - s6) * inv_r2
    forces = np.einsum("ij,ijk->ik", fac, rij)
    energy = float(2.0 * epsilon * np.sum(np.where(mask, s12 - s6, 0.0)))
    return forces, energy


def md_step(
    pos: np.ndarray,
    vel: np.ndarray,
    box: float,
    dt: float = 0.005,
    **lj_kwargs,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One velocity-Verlet step; returns (pos, vel, potential_energy)."""
    f0, _ = lj_forces(pos, box, **lj_kwargs)
    pos = (pos + vel * dt + 0.5 * f0 * dt * dt) % box
    f1, energy = lj_forces(pos, box, **lj_kwargs)
    vel = vel + 0.5 * (f0 + f1) * dt
    return pos, vel, energy
