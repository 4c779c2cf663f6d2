"""Quicksilver: Monte Carlo particle transport (§2.8, Figure 8).

FOM: number of segments over cycle tracking time (higher is better).

Findings reproduced:

* CPU: AWS setups highest, followed by Azure (clock-rate-driven —
  Hpc6a's 3.6 GHz Milan vs HB96's lower sustained clocks; Google's
  56-core nodes trail).
* GPU: runs did not finish within the budgeted time; half the processes
  were pinned to GPU 0 (an erroneous build or runtime misconfiguration)
  — GPU runs return a timeout-flavoured failure.

The tracking kernel is implemented for real in
:mod:`repro.machine.kernels.mc`; this model uses the same
segments-per-particle accounting.
"""

from __future__ import annotations

from repro.apps.base import AppBlockResult, AppModel, RunContext
from repro.machine.rates import KernelClass

#: particles per rank (weak deposition, like the Quicksilver defaults)
PARTICLES_PER_RANK = 40_000
#: average segments each particle generates per cycle
SEGMENTS_PER_PARTICLE = 9.0
N_CYCLES = 10
#: flops-equivalent per segment (cross-section lookups, RNG, tallies)
FLOPS_PER_SEGMENT = 4_000.0


class Quicksilver(AppModel):
    name = "quicksilver"
    display_name = "Quicksilver"
    fom_name = "Segments / cycle tracking time"
    fom_units = "segments/s"
    higher_is_better = True
    scaling = "weak"

    #: §3.3: poor GPU utilisation, half of processes pinned to GPU 0;
    #: runs did not finish in the allocated time.
    _GPU_FAILURE = {
        "failure_kind": "misconfiguration",
        "extra": {"detail": "half of ranks pinned to GPU 0; run exceeded budget"},
    }

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """GPU groups fail uniformly without a draw."""
        if ctx.env.is_gpu:
            return self._block_failure(block, wall=1200.0, **self._GPU_FAILURE)

        particles = PARTICLES_PER_RANK * ctx.ranks
        segments = particles * SEGMENTS_PER_PARTICLE
        work_gflops = segments * FLOPS_PER_SEGMENT / 1e9
        t_track = ctx.compute_time(work_gflops, KernelClass.LATENCY)

        # Particle migration between domain neighbours + tally reduction.
        migration_bytes = int(PARTICLES_PER_RANK * 0.05 * 64)
        t_comm = (
            ctx.comm.halo(migration_bytes, neighbors=6)
            + ctx.comm.allreduce(64 * 8, ctx.ranks) * ctx.straggler()
        )

        cycle_time = (t_track + t_comm) * self._noisy_factors(ctx, block)
        wall = N_CYCLES * cycle_time
        fom = segments / cycle_time
        return AppBlockResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall=wall,
            phases={"tracking": N_CYCLES * t_track, "comm": N_CYCLES * t_comm},
            extra={"particles": particles, "segments_per_cycle": segments},
        )
