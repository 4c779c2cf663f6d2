"""AMG2023: algebraic multigrid solver (hypre BoomerAMG), weak scaled.

§2.8: problem 2 at 256×256×128 per process-unit; FOM::

    FOM = nnz_AP / (SetupPhaseTime + 3 * SolvePhaseTime)

Higher is better.  Weak scaling: total nnz grows with units while phase
times stay near-constant, so a well-scaling environment shows FOM
growing almost linearly with size.

Model: setup and solve phases are memory-bandwidth-bound on the unit
(CPU node or GPU).  Per V-cycle communication walks the level
hierarchy: fine levels exchange halos, coarse levels degenerate into
latency-bound small collectives (the classic AMG coarse-grid problem),
which is where fabric latency and jitter separate the environments.

The ``-P`` process-topology option (§3.3): ``-P 8 4 2`` yields ~10%
higher FOM than ``-P 4 4 4`` because the 8×4×2 box matches the per-node
rank layout, keeping more halo faces intra-node; pass
``options={"process_topology": (8, 4, 2)}``.
"""

from __future__ import annotations

import math

from repro.apps.base import AppBlockResult, AppModel, RunContext
from repro.machine.rates import KernelClass

#: per-unit grid (256 x 256 x 128 points)
POINTS_PER_UNIT = 256 * 256 * 128
#: nonzeros per point across the AMG hierarchy (27-pt fine stencil with
#: the usual ~4/3 hierarchy growth)
NNZ_PER_POINT = 36.0
#: flops per point, setup phase (coarsening, interpolation, RAP); sized
#: so a weak-scaled CPU run takes ~1 minute per iteration, matching the
#: node-hour totals behind Table 4
SETUP_FLOPS_PER_POINT = 24_000.0
#: flops per point per V-cycle (smoothing + residual + transfers)
CYCLE_FLOPS_PER_POINT = 3_200.0
N_CYCLES = 20

#: FOM multiplier for the tuned process topology (§3.3: ~10%)
TOPOLOGY_BONUS = {(8, 4, 2): 1.0, (4, 4, 4): 1.0 / 1.10}

#: Per-environment solver-efficiency calibration.  Cluster B's bare-metal
#: Spack hypre build (2018 software stack, no CUDA-aware MPI across its
#: fabric — §2.7/§2.8) sustains a much lower fraction of V100 bandwidth
#: than the cloud containers' tuned stacks; calibrated to Figure 2's
#: "cluster B produced some of the lowest FOMs across sizes".
ENV_SOLVER_EFFICIENCY = {"gpu-onprem-b": 0.23}


class AMG2023(AppModel):
    name = "amg2023"
    display_name = "AMG2023"
    fom_name = "FOM"
    fom_units = "nnz_AP / s"
    higher_is_better = True
    scaling = "weak"

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """Both noise draws (setup, then solve) gathered as one row."""
        units = ctx.scale if ctx.env.is_gpu else ctx.nodes
        points = POINTS_PER_UNIT * units
        nnz_ap = NNZ_PER_POINT * points

        # Compute phases: memory-bandwidth bound on the executing device.
        setup_flops = points * SETUP_FLOPS_PER_POINT / 1e9
        cycle_flops = points * CYCLE_FLOPS_PER_POINT / 1e9
        solver_eff = ENV_SOLVER_EFFICIENCY.get(ctx.env.env_id, 1.0)
        t_setup_compute = ctx.compute_time(setup_flops, KernelClass.MEMORY) / solver_eff
        t_cycle_compute = ctx.compute_time(cycle_flops, KernelClass.MEMORY) / solver_eff

        # Communication per V-cycle over the level hierarchy.
        levels = max(
            4, int(math.log2(max(points, 2)) / 3) + int(math.log2(max(units, 2)))
        )
        face_bytes = 256 * 128 * 8  # one fine-level face of doubles
        strag = ctx.straggler()
        comm_cycle = 0.0
        for lvl in range(levels):
            shrink = 2**lvl
            halo = ctx.comm.halo(max(face_bytes // shrink, 64), neighbors=6)
            # Coarse-grid convergence check: tiny allreduce, jitter-bound.
            ar = ctx.comm.allreduce(8, ctx.ranks) * strag
            comm_cycle += halo + ar
        # Setup-phase comm: coarsening handshakes, ~3 cycles' worth.
        t_setup_comm = 3.0 * comm_cycle

        cv = ctx.fabric.jitter_cv
        factors = self._noisy_factors(ctx, block, (cv, cv))
        t_setup = (t_setup_compute + t_setup_comm) * factors[:, 0]
        t_solve = (N_CYCLES * (t_cycle_compute + comm_cycle)) * factors[:, 1]

        topo = tuple(ctx.options.get("process_topology", (8, 4, 2)))
        bonus = TOPOLOGY_BONUS.get(topo, 1.0)

        fom = bonus * nnz_ap / (t_setup + 3.0 * t_solve)
        wall = t_setup + t_solve
        return AppBlockResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall=wall,
            phases={"setup": t_setup, "solve": t_solve},
            extra={"nnz_AP": nnz_ap, "units": units, "process_topology": topo},
        )
