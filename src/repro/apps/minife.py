"""MiniFE: implicit finite-element CG solve, strong scaled.

§2.8: FOM is Total CG Mflops (higher is better).  Figure 6 findings
reproduced:

* inconsistent and *inverse* scaling across cloud environments — the
  fixed-size CG problem is allreduce-bound at study scales, so adding
  nodes adds latency faster than it adds bandwidth;
* AKS best for GPU and for size-32 CPU (InfiniBand's low latency wins
  an allreduce-dominated code);
* on-premises results unavailable ("partial output was saved and we
  are not able to report the result") — on-prem runs return a failure.

The numerical core this models is implemented for real in
:mod:`repro.machine.kernels.cg`; the flop count here follows the same
2*nnz + 10n accounting.
"""

from __future__ import annotations

from repro.apps.base import AppBlockResult, AppModel, RunContext
from repro.machine.rates import KernelClass

#: global problem: 120^3 rows, 27-point stencil — small enough that the
#: per-iteration allreduces dominate at study scales, which is what makes
#: Figure 6's scaling inverse
N_ROWS = 120**3
NNZ = 27 * N_ROWS
N_ITERATIONS = 200
FLOPS_PER_ITER = 2.0 * NNZ + 10.0 * N_ROWS


class MiniFE(AppModel):
    name = "minife"
    display_name = "MiniFE"
    fom_name = "Total CG Mflops"
    fom_units = "Mflop/s"
    higher_is_better = True
    scaling = "strong"

    #: §3.3: partial output only; result not reportable.
    _ONPREM_FAILURE = {
        "failure_kind": "partial-output",
        "extra": {"detail": "on-prem runs saved partial output only"},
    }

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """On-prem groups fail uniformly, no draws."""
        if ctx.env.cloud == "p":
            return self._block_failure(block, wall=0.0, **self._ONPREM_FAILURE)

        work_gflops = FLOPS_PER_ITER / 1e9
        t_compute = ctx.compute_time(work_gflops, KernelClass.MEMORY)

        # CG: 2 dot-product allreduces per iteration, straggler-bound,
        # plus a 6-face halo for the matvec.
        strag = ctx.straggler()
        t_allreduce = 2.0 * ctx.comm.allreduce(8, ctx.ranks) * strag
        rows_per_rank = N_ROWS / ctx.ranks
        face_bytes = int(max(rows_per_rank, 1) ** (2.0 / 3.0) * 8)
        t_halo = ctx.comm.halo(face_bytes, neighbors=6)

        per_iter = (t_compute + t_allreduce + t_halo) * self._noisy_factors(ctx, block)
        wall = N_ITERATIONS * per_iter
        fom_mflops = (N_ITERATIONS * FLOPS_PER_ITER) / wall / 1e6
        return AppBlockResult(
            app=self.name,
            fom=fom_mflops,
            fom_units=self.fom_units,
            wall=wall,
            phases={
                "matvec": N_ITERATIONS * t_compute,
                "allreduce": N_ITERATIONS * t_allreduce,
                "halo": N_ITERATIONS * t_halo,
            },
            extra={"rows": N_ROWS, "iterations": N_ITERATIONS},
        )
