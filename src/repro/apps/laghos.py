"""Laghos: high-order Lagrangian hydrodynamics, strong scaled (CPU only).

§2.8: cube_311_hex mesh, partial assembly, max 400 steps; FOM is the
major-kernels total rate (megadofs × time steps / second).

Paper findings this model reproduces (Figure 3, §3.3):

* The on-premises FOM is ~an order of magnitude larger than every cloud
  environment, with a 32→64-node speedup near 1.6 and lower variability.
* Cloud environments only completed sizes 32 and 64; beyond 64 nodes
  slowdown prevented completion within 15–20 minutes (timeout) — "Due
  to the inability to scale, Laghos would be infeasible to run on any
  cloud".
* AWS ParallelCluster never completed Laghos at any size.
* On-prem runs segfaulted at 128 and 256 nodes.
* GPU containers could not be built (two dependencies pinned different
  CUDA versions) — ``supports_gpu = False``; see
  :mod:`repro.containers.recipe`.

Model.  Laghos steps are fine-grained and bulk-synchronous: each step
drives hundreds of small messages (CG iterations on the mass matrix,
constraint exchanges).  Three effects stack against cloud:

* base fabric latency and the straggler factor (jitter × log ranks);
* a *small-message virtualization overhead* — interrupt-moderated
  delivery through virtual NICs adds ~25 µs to every small message once
  the application mixes computation with communication (polling
  microbenchmarks like OSU do not pay this, which is why Figure 5 shows
  low Azure latencies while Figure 3 shows Azure Laghos an order slow);
  this constant is the model's calibrated knob and is documented in
  EXPERIMENTS.md;
* a decomposition cliff beyond 64 nodes, where the inter-node surface
  of the fixed mesh exhausts the rendezvous-protocol resources and
  steps balloon (the paper observed the cliff uniformly across clouds).
"""

from __future__ import annotations

from repro.apps.base import (
    AppBlockResult,
    AppModel,
    RunContext,
    strong_scaling_efficiency,
)
from repro.machine.rates import KernelClass

#: global degrees of freedom of the cube_311_hex Q2-Q1 discretisation
TOTAL_DOFS = 3.7e6
MAX_STEPS = 400
#: effective flops per dof per step (high-order PA kernels + quadrature)
FLOPS_PER_DOF_STEP = 450.0e3
#: small messages per step (CG iterations x 2 allreduce + halo swaps)
MESSAGES_PER_STEP = 900
#: per-rank dof count where vectorised PA kernels reach half efficiency
HALF_DOFS = 300.0
#: small-message overhead added by hypervisor/virtual-NIC paths (seconds)
CLOUD_SMALL_MSG_OVERHEAD = 25.0e-6
#: node count beyond which the fixed-mesh decomposition collapses
CLIFF_NODES = 64
CLIFF_EXPONENT = 8.0


class Laghos(AppModel):
    name = "laghos"
    display_name = "Laghos"
    fom_name = "Major kernels total rate"
    fom_units = "megadofs x steps / s"
    higher_is_better = True
    scaling = "strong"
    supports_gpu = False
    unsupported_reason = {
        "gpu": "container build failed: mfem requires CUDA 12.2 while hypre "
        "requires CUDA 11.8 (paper §3.3)"
    }

    #: §3.3: on cluster A, 128- and 256-node runs segfaulted.
    _SEGFAULT = {
        "failure_kind": "segfault",
        "extra": {"detail": "segmentation fault at >= 128 nodes on cluster A"},
    }
    #: §3.3: Laghos never completed on AWS ParallelCluster.
    _LAUNCH_FAILURE = {
        "failure_kind": "launch-failure",
        "extra": {"detail": "Laghos did not complete on ParallelCluster"},
    }

    def _group_failure(self, ctx: RunContext) -> dict | None:
        if ctx.env.cloud == "p" and ctx.nodes >= 128:
            return self._SEGFAULT
        if ctx.env.env_id == "cpu-parallelcluster-aws":
            return self._LAUNCH_FAILURE
        return None

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """The per-group failure modes stay uniform."""
        failure = self._group_failure(ctx)
        if failure is not None:
            return self._block_failure(block, wall=0.0, **failure)

        # Compute: strong-scaled with n_1/2 efficiency loss.
        dofs_per_rank = TOTAL_DOFS / ctx.ranks
        eff = strong_scaling_efficiency(dofs_per_rank, HALF_DOFS)
        work_gflops = TOTAL_DOFS * FLOPS_PER_DOF_STEP / 1e9
        t_compute = ctx.compute_time(work_gflops, KernelClass.COMPUTE) / max(eff, 1e-6)

        # Communication: hundreds of small latency-bound messages.
        alpha = ctx.fabric.latency_s + ctx.fabric.overhead_s
        if ctx.env.is_cloud:
            alpha += CLOUD_SMALL_MSG_OVERHEAD
        cliff = 1.0
        if ctx.nodes > CLIFF_NODES:
            cliff = (ctx.nodes / CLIFF_NODES) ** CLIFF_EXPONENT
        t_comm = MESSAGES_PER_STEP * alpha * ctx.straggler() * cliff

        step_time = (t_compute + t_comm) * self._noisy_factors(ctx, block)
        wall = MAX_STEPS * step_time
        fom = (TOTAL_DOFS / 1e6) * MAX_STEPS / wall
        return AppBlockResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall=wall,
            phases={"compute": MAX_STEPS * t_compute, "comm": MAX_STEPS * t_comm},
            extra={"dofs_per_rank": dofs_per_rank, "steps": MAX_STEPS},
        )
