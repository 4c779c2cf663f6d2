"""LAMMPS ReaxFF: reactive molecular dynamics, strong scaled.

§2.8: problem 64×64×32 (GPU) and 64×64×32... CPU uses 64x64x32 and GPU
64x32x32 replications of the HNS cell; FOM is millions of atom-steps
per second (larger is better).

Findings reproduced (Figure 4, §3.3):

* On-premises clusters A and B produced larger FOMs than cloud.
* GKE CPU shows an inflection between 128 and 256 nodes where strong
  scaling stops (fewer cores per node meet rising collective costs).
* GPU runs were impossible on ParallelCluster (environment undeployable)
  and at the largest EKS size (GPU quota; handled by the study runner).
* AKS CPU at size 256 ran once because hookup took 8.82 minutes (the
  hookup model supplies this; the study runner cuts iterations).

Model: pairwise force computation is compute-class work per atom; the
ReaxFF charge-equilibration (QEq) solve adds ~30 latency-bound
allreduces per step, plus neighbour halo exchange.
"""

from __future__ import annotations

from repro.apps.base import (
    AppBlockResult,
    AppModel,
    RunContext,
    strong_scaling_efficiency,
)
from repro.machine.rates import KernelClass

#: atom counts for the two replications (HNS cell contents scaled)
ATOMS_CPU = 2.6e6  # 64 x 64 x 32
ATOMS_GPU = 1.3e6  # 64 x 32 x 32
N_STEPS = 100
#: effective flops per atom per step (ReaxFF force + neighbor + QEq)
FLOPS_PER_ATOM = 1.0e6
#: QEq CG iterations x 2 allreduces per step
ALLREDUCES_PER_STEP = 30
#: per-rank atom count where force kernels reach half efficiency
HALF_ATOMS = 50.0


class LAMMPS(AppModel):
    name = "lammps"
    display_name = "LAMMPS (ReaxFF)"
    fom_name = "Matom-steps/s"
    fom_units = "million atom-steps / s"
    higher_is_better = True
    scaling = "strong"

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """One noise gather, then elementwise physics."""
        atoms = ATOMS_GPU if ctx.env.is_gpu else ATOMS_CPU
        atoms_per_rank = atoms / ctx.ranks

        eff = strong_scaling_efficiency(atoms_per_rank, HALF_ATOMS)
        kernel = KernelClass.LATENCY  # branchy force loops, not dense flops
        work_gflops = atoms * FLOPS_PER_ATOM / 1e9
        t_compute = ctx.compute_time(work_gflops, kernel) / max(eff, 1e-6)

        strag = ctx.straggler()
        t_qeq = ALLREDUCES_PER_STEP * ctx.comm.allreduce(8 * 1024, ctx.ranks) * strag
        # Neighbour halo: skin of ~6% of per-rank atoms, 26 neighbours
        halo_bytes = int(max(atoms_per_rank, 1) * 0.06 * 48)
        t_halo = ctx.comm.halo(halo_bytes, neighbors=6)

        step_time = (t_compute + t_qeq + t_halo) * self._noisy_factors(ctx, block)
        wall = N_STEPS * step_time
        fom = atoms * N_STEPS / wall / 1e6
        return AppBlockResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall=wall,
            phases={
                "force": N_STEPS * t_compute,
                "qeq": N_STEPS * t_qeq,
                "halo": N_STEPS * t_halo,
            },
            extra={"atoms": atoms, "atoms_per_rank": atoms_per_rank},
        )
