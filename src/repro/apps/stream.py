"""Stream Triad: memory bandwidth (§2.8, §3.3).

Two configurations, as in the study:

* **CPU, single-node run on every node** — reported as the aggregate
  GB/s across the cluster.  §3.3 reports (64-node clusters): GKE
  6800.9 ± 2402.3, Compute Engine 6239.4 ± 2326.1, EKS 3013.2 ± 880.3,
  AKS 2579.5 ± 907.6 — per-node rates far below nominal and wildly
  varied, which the environment's ``stream_efficiency`` captures.
* **GPU, across nodes** — per-GPU Triad GB/s.  All V100 environments
  land near 783 GB/s (ECC on) with Azure's slightly lower at ~748.

The kernel itself is implemented and measured for real in
:mod:`repro.machine.kernels.triad`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppBlockResult, AppModel, RunContext

#: coefficient of variation of per-node CPU triad in cloud (§3.3: ~35%)
CPU_TRIAD_CV = 0.35
GPU_TRIAD_CV = 0.005


class Stream(AppModel):
    name = "stream"
    display_name = "STREAM Triad"
    fom_name = "Triad bandwidth"
    fom_units = "GB/s"
    higher_is_better = True
    scaling = "weak"

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """The per-node sample matrix in one gather.

        Row reductions run on 1-D row views, so each iteration's
        aggregate is the pairwise sum over its own node samples alone.
        """
        env = ctx.env
        n = len(block)
        if env.is_gpu:
            gpu = ctx.node_model.gpu_model
            assert gpu is not None
            # Reported Triad figures are for the ECC-on majority of the
            # fleet (the ECC survey handles the mixed-Azure story).
            per_gpu = gpu.with_ecc(True).effective_mem_bw() * env.stream_efficiency
            fom = per_gpu * self._noisy_factors(ctx, block, cv=GPU_TRIAD_CV)
            extra: dict | list = {
                "per_gpu_gbs": fom,
                "ecc_on": gpu.ecc_on,
            }
        else:
            nominal = ctx.node_model.mem_bw_gbs
            # Sample every node; aggregate is the reported figure.
            per_node = nominal * env.stream_efficiency
            draws = block.normal(1.0, np.full(ctx.nodes, CPU_TRIAD_CV))
            samples = (per_node * draws).clip(min=per_node * 0.1)
            fom = np.empty(n)
            extra = []
            for j in range(n):
                row = samples[j]
                fom[j] = row.sum()
                extra.append(
                    {
                        "per_node_mean_gbs": float(row.mean()),
                        "per_node_std_gbs": float(row.std()),
                        "aggregate_gbs": float(fom[j]),
                    }
                )
        return AppBlockResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall=np.full(n, 30.0),  # fixed benchmark duration
            phases={"triad": 30.0},
            extra=extra,
        )
