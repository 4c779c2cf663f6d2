"""Figure 5: OSU benchmarks at the largest CPU cluster size (256 nodes).

Three panels over the message-size sweep: point-to-point latency,
point-to-point bandwidth, and AllReduce.  Paper claims reproduced:

* environments with InfiniBand/Omni-Path fabrics (on-prem A, Azure
  CycleCloud) have the lowest small-message latencies;
* Azure CycleCloud (IB HDR, 200 Gb/s) reaches the highest bandwidth;
* both AWS environments spike on AllReduce at 32,768 bytes (the OpenMPI
  issue AWS has since fixed);
* CycleCloud shows the highest AllReduce variation.
"""

from __future__ import annotations

import numpy as np

from repro.apps.osu import MESSAGE_SIZES, OSUBenchmarks
from repro.envs.registry import cpu_environments
from repro.experiments.base import ExperimentOutput
from repro.reporting.compare import Expectation
from repro.reporting.series import Series
from repro.sim.execution import ExecutionEngine

SIZE = 256  # nodes


def run(seed: int = 0, iterations: int = 5) -> ExperimentOutput:
    engine = ExecutionEngine(seed=seed)
    osu = OSUBenchmarks()
    envs = cpu_environments()

    latency = Series("OSU point-to-point latency (256 nodes)", "message bytes",
                     "one-way latency (us)", higher_is_better=False)
    bandwidth = Series("OSU point-to-point bandwidth (256 nodes)", "message bytes",
                       "bandwidth (MB/s)", higher_is_better=True)
    allreduce = Series("OSU AllReduce (256 nodes)", "message bytes",
                       "avg latency (us)", higher_is_better=False)

    # Each iteration draws its noise from the cell's keyed run stream in
    # this figure's own order: every size's latency, bandwidth, then
    # allreduce draw before the next size's (the OSU app draws all 23
    # latencies first).
    sweeps: dict[str, dict[str, np.ndarray]] = {}
    for env in envs:
        ctx = engine.context(env, SIZE)
        lat, bw, ar = osu.base_times(ctx)
        cv = ctx.fabric.jitter_cv
        block, _ = engine.cell_streams(env, SIZE, np.arange(iterations))
        factors = np.maximum(
            0.1, block.normal(1.0, np.tile([cv, cv, osu.allreduce_cv(ctx)], len(MESSAGE_SIZES)))
        )
        per_env = {
            "lat": lat * factors[:, 0::3] * 1e6,
            "bw": bw * factors[:, 1::3] / 1e6,
            "ar": ar * factors[:, 2::3] * 1e6,
        }
        sweeps[env.env_id] = per_env
        for i, s in enumerate(MESSAGE_SIZES):
            for series, key in ((latency, "lat"), (bandwidth, "bw"), (allreduce, "ar")):
                vals = per_env[key][:, i]
                series.add_point(env.env_id, s, float(np.mean(vals)), float(np.std(vals)))

    def low_latency_fabrics_lowest() -> bool:
        small = 8
        lats = {e: latency.value_at(e, small) for e in sweeps}
        ranked = sorted(lats, key=lambda e: lats[e])
        return set(ranked[:3]) >= {"cpu-onprem-a", "cpu-cyclecloud-az"}

    def cyclecloud_highest_bandwidth() -> bool:
        big = MESSAGE_SIZES[-1]
        bws = {e: bandwidth.value_at(e, big) for e in sweeps}
        return max(bws, key=lambda e: bws[e]) == "cpu-cyclecloud-az"

    def aws_allreduce_spike() -> bool:
        for env_id in ("cpu-parallelcluster-aws", "cpu-eks-aws"):
            at_spike = allreduce.value_at(env_id, 32768)
            below = allreduce.value_at(env_id, 8192)
            above = allreduce.value_at(env_id, 131072)
            assert at_spike and below and above
            if not (at_spike > 2.5 * below and at_spike > 1.5 * above):
                return False
        # Non-AWS environments must not spike.
        at = allreduce.value_at("cpu-cyclecloud-az", 32768)
        below = allreduce.value_at("cpu-cyclecloud-az", 8192)
        return at is not None and below is not None and at < 2.5 * below

    def cyclecloud_highest_variation() -> bool:
        cvs = {}
        for env_id, per_env in sweeps.items():
            ratios = []
            for i in range(len(MESSAGE_SIZES)):
                vals = per_env["ar"][:, i]
                m = float(np.mean(vals))
                if m > 0:
                    ratios.append(float(np.std(vals)) / m)
            cvs[env_id] = float(np.mean(ratios))
        top2 = sorted(cvs, key=lambda e: cvs[e], reverse=True)[:2]
        return "cpu-cyclecloud-az" in top2

    expectations = [
        Expectation("fig5", "InfiniBand/Omni-Path environments have the lowest latency",
                    low_latency_fabrics_lowest, "§3.3 OSU"),
        Expectation("fig5", "CycleCloud (IB HDR) reaches the highest bandwidth",
                    cyclecloud_highest_bandwidth, "§3.3 OSU"),
        Expectation("fig5", "both AWS environments spike on AllReduce at 32768 bytes",
                    aws_allreduce_spike, "§3.3 OSU"),
        Expectation("fig5", "CycleCloud is among the highest AllReduce variation",
                    cyclecloud_highest_variation, "Figure 5 caption"),
    ]
    return ExperimentOutput(
        experiment_id="fig5",
        title="OSU benchmarks at 256 nodes",
        series=[latency, bandwidth, allreduce],
        expectations=expectations,
    )
