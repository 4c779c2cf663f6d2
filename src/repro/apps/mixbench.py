"""Mixbench: single-node GPU roofline sweep (§2.8, §3.3).

Mixbench evaluates a device over a range of operational intensities
(flops per byte), tracing out the roofline between the memory-bound and
compute-bound regimes.  The study ran it single-node to collect basic
GPU attributes — and it surfaced the ECC finding: all clouds except
Azure default ECC *on*; Azure's fleet was mixed (12.5–25% off), and ECC
costs up to 15% of bandwidth.

``roofline`` computes attained GFLOP/s per intensity point from the GPU
model (with its ECC state); the ``ecc_survey`` experiment samples fleet
ECC states via :func:`repro.machine.gpu.sample_ecc_settings`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppBlockResult, AppModel, RunContext

#: operational intensities swept (flops/byte), mixbench-style
INTENSITIES = tuple(float(x) for x in (0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128))


class Mixbench(AppModel):
    name = "mixbench"
    display_name = "Mixbench"
    fom_name = "Peak attained"
    fom_units = "GFLOP/s"
    higher_is_better = True
    scaling = "weak"
    supports_cpu = True  # the study also has a CPU variant

    def roofline(self, ctx: RunContext) -> dict[float, float]:
        """Attained GFLOP/s at each operational intensity."""
        if ctx.env.is_gpu:
            gpu = ctx.node_model.gpu_model
            assert gpu is not None
            peak = gpu.fp64_gflops
            bw = gpu.effective_mem_bw()
        else:
            from repro.machine.rates import arch_rates

            rates = arch_rates(ctx.env.instance().processor.arch)
            peak = rates.compute_gflops * ctx.env.instance().cores
            bw = rates.mem_bw_gbs
        return {i: min(peak, i * bw) for i in INTENSITIES}

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """The whole intensity sweep noised at once."""
        roof = self.roofline(ctx)
        n = len(block)
        factors = self._noisy_factors(ctx, block, np.full(len(roof), 0.02))
        attained = np.array(list(roof.values())) * factors  # (n, intensities)
        peak = attained.max(axis=1) if n else np.empty(0)
        ecc_on = None
        if ctx.env.is_gpu and ctx.node_model.gpu_model is not None:
            ecc_on = ctx.node_model.gpu_model.ecc_on
        return AppBlockResult(
            app=self.name,
            fom=peak,
            fom_units=self.fom_units,
            wall=np.full(n, 60.0),
            phases={"sweep": 60.0},
            extra={
                "roofline": {i: attained[:, k] for k, i in enumerate(roof)},
                "ecc_on": ecc_on,
            },
        )
