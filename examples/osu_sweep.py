#!/usr/bin/env python
"""OSU micro-benchmark sweep: compare fabrics the way Figure 5 does.

Runs osu_latency, osu_bw, and osu_allreduce across the message-size
sweep on every CPU environment at 256 nodes, prints the crossover
points, and highlights the AWS 32 KiB allreduce spike.  Also
demonstrates the §2.8 pair-sampling strategy (8 nodes, 28 pairs).
"""

import numpy as np

from repro.apps.osu import OSUBenchmarks
from repro.envs.registry import cpu_environments
from repro.reporting.tables import Table, render_table
from repro.sim.execution import ExecutionEngine
from repro.units import fmt_bytes


def main() -> None:
    engine = ExecutionEngine(seed=0)

    headline_sizes = (8, 1024, 32768, 65536, 4 * 1024 * 1024)
    lat_table = Table(
        title="osu_latency: one-way latency (us) at 256 nodes",
        columns=("Environment", *(fmt_bytes(s) for s in headline_sizes)),
    )
    ar_table = Table(
        title="osu_allreduce: average latency (us) at 256 nodes",
        columns=("Environment", *(fmt_bytes(s) for s in headline_sizes)),
        caption="Note the AWS spike at 32KiB (OpenMPI issue, since fixed).",
    )
    bw_peak = {}
    for env in cpu_environments():
        sweep = engine.run(env, "osu", 256).extra
        lat, ar = sweep["latency_us"], sweep["allreduce_us"]
        lat_table.add(env.env_id, *(f"{lat[s]:.2f}" for s in headline_sizes))
        ar_table.add(env.env_id, *(f"{ar[s]:.0f}" for s in headline_sizes))
        bw_peak[env.env_id] = max(sweep["bandwidth_mbps"].values())

    print(render_table(lat_table))
    print()
    print(render_table(ar_table))

    print("\npeak osu_bw (MB/s):")
    for env_id, bw in sorted(bw_peak.items(), key=lambda kv: -kv[1]):
        print(f"  {env_id:28s} {bw:>12,.0f}")

    # Pair sampling, as the study did for point-to-point tests.
    rng = np.random.default_rng(0)
    pairs = OSUBenchmarks.sample_pairs(256, rng)
    print(f"\npair-sampling strategy: {len(pairs)} pairs drawn from 8 of 256 nodes")
    print(f"  first five pairs: {pairs[:5]}")


if __name__ == "__main__":
    main()
