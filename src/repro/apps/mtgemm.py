"""MT-GEMM: dense matrix multiplication proxies.

§2.8: the GPU variant comes from the NERSC proxy suite (MT-xGEMM); the
CPU variant is the PRACE hpc-kernels MPI implementation.  They are
*different programs*, and the paper's results reflect that (§3.3 /
Figure 7):

* **GPU** strong-scales well, with Compute Engine, AKS, and GKE showing
  similar performance.  MT-xGEMM keeps each GPU busy on its local block
  and only exchanges B panels with neighbours, so the V100 dominates
  and the fabric barely matters.
* **CPU** results were omitted from the paper: the PRACE kernel
  hard-codes the global problem size and gathers the full A matrix
  around a ring each multiply; the per-rank block is tiny even at 32
  nodes, every environment is communication-bound from the start, and
  GFLOPs *decrease* at each larger node count.  We implement it anyway
  and the model shows exactly that decline (the Figure 7 bench reports
  GPU only, like the paper).
"""

from __future__ import annotations

from repro.apps.base import AppBlockResult, AppModel, RunContext
from repro.machine.rates import KernelClass

#: hard-coded global sizes (square matrices)
N_GPU = 32768
N_CPU = 4096
REPS = 10


class MTGemm(AppModel):
    name = "mt-gemm"
    display_name = "MT-GEMM"
    fom_name = "GFLOP/s"
    fom_units = "GFLOP/s"
    higher_is_better = True
    scaling = "strong"

    def _gpu_rep(self, ctx: RunContext) -> tuple[float, float]:
        """(compute, comm) per repetition for the NERSC GPU kernel."""
        flops = 2.0 * float(N_GPU) ** 3
        t_compute = ctx.compute_time(flops / 1e9, KernelClass.COMPUTE)
        # Neighbour exchange of the B panel this rank needs next.
        panel_bytes = int(N_GPU * N_GPU * 8 / max(ctx.ranks, 1))
        t_comm = ctx.comm.p2p(panel_bytes) + ctx.comm.allreduce(64, ctx.ranks)
        return t_compute, t_comm

    def _cpu_rep(self, ctx: RunContext) -> tuple[float, float]:
        """(compute, comm) per repetition for the PRACE ring kernel."""
        flops = 2.0 * float(N_CPU) ** 3
        t_compute = ctx.compute_time(flops / 1e9, KernelClass.COMPUTE)
        # Full-A ring allgather: every rank receives n^2 doubles per
        # multiply, paying one latency per ring step — (p-1) steps.
        t_comm = ctx.comm.allgather(N_CPU * N_CPU * 8, ctx.ranks)
        return t_compute, t_comm

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """One stable-noise gather, elementwise FOM."""
        n = N_GPU if ctx.env.is_gpu else N_CPU
        t_compute, t_comm = self._gpu_rep(ctx) if ctx.env.is_gpu else self._cpu_rep(ctx)
        # Dense GEMM throughput is very stable run-to-run; noise is far
        # below the fabric's small-message jitter.
        per_rep = (t_compute + t_comm) * self._noisy_factors(ctx, block, cv=0.05)
        wall = REPS * per_rep
        fom = (2.0 * float(n) ** 3 / 1e9) / per_rep
        return AppBlockResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall=wall,
            phases={"gemm": REPS * t_compute, "comm": REPS * t_comm},
            extra={"n": n},
        )
