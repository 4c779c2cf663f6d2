"""Kripke: deterministic (Sn) particle transport, CPU study.

§2.8: FOM is *grind time* — time to complete one unit of work (lower is
better).  §3.3 / Figure 1: AWS ParallelCluster had the lowest grind
time for the largest three sizes, followed by EKS and CycleCloud; GPU
results were not reported due to process→GPU mapping difficulties.

Model: Kripke's KBA sweeps are structured-bandwidth work; per-node rate
differences (clock, core count) dominate, with a wavefront pipeline
fill charging per-stage face exchanges.  That ordering falls out of the
machine model: Hpc6a's 3.6 GHz Milan beats HB96rs_v3's 1.9–3.5 GHz
part, and c2d's 56 cores trail both, exactly Figure 1's ranking.
GPU runs return a failure, mirroring the paper's unreported results.
"""

from __future__ import annotations

from repro.apps.base import AppBlockResult, AppModel, RunContext
from repro.machine.rates import KernelClass

#: zones per rank (weak-ish deposition: 16^3 zones x 32 groups x 72 dirs)
UNKNOWNS_PER_RANK = 16**3 * 32 * 72
N_ITERATIONS = 10
#: flops per unknown per sweep (LTS + scattering source)
FLOPS_PER_UNKNOWN = 60.0


class Kripke(AppModel):
    name = "kripke"
    display_name = "Kripke"
    fom_name = "Grind time"
    fom_units = "ns / unknown-iteration"
    higher_is_better = False
    scaling = "weak"

    #: §3.3: "We do not report GPU runs due to difficulties mapping
    #: processes to GPUs correctly."
    _GPU_FAILURE = {
        "failure_kind": "misconfiguration",
        "extra": {"detail": "process-to-GPU mapping failure"},
    }

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """GPU groups fail uniformly without a draw."""
        if ctx.env.is_gpu:
            return self._block_failure(block, wall=0.0, **self._GPU_FAILURE)

        unknowns = UNKNOWNS_PER_RANK * ctx.ranks
        work_gflops = unknowns * FLOPS_PER_UNKNOWN / 1e9
        t_sweep = ctx.compute_time(work_gflops, KernelClass.BANDWIDTH)

        # KBA pipeline: one sweep per octant; fill depth ~ 2 * cbrt(ranks)
        # stages, each forwarding two faces of angular flux (zone face x
        # groups x per-octant directions x doubles).
        octants = 8
        stages = int(2 * round(ctx.ranks ** (1.0 / 3.0)))
        face_bytes = 16 * 16 * 32 * 8 * 8
        t_pipeline = octants * stages * ctx.comm.halo(face_bytes, neighbors=2)

        # Structured sweeps are cache-predictable; run-to-run noise is far
        # below the fabric's small-message jitter.
        per_iter = (t_sweep + t_pipeline) * self._noisy_factors(ctx, block, cv=0.02)
        wall = N_ITERATIONS * per_iter
        grind_ns = wall / (unknowns * N_ITERATIONS) * 1e9
        return AppBlockResult(
            app=self.name,
            fom=grind_ns,
            fom_units=self.fom_units,
            wall=wall,
            phases={"sweep": N_ITERATIONS * t_sweep, "pipeline": N_ITERATIONS * t_pipeline},
            extra={"unknowns": unknowns, "stages": stages},
        )
