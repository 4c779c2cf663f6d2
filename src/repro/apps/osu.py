"""OSU Micro-Benchmarks: latency, bandwidth, allreduce (§2.8, Figure 5).

Three benchmarks over the message-size sweep OSU uses (1 B – 4 MiB):

* ``osu_latency`` — point-to-point one-way latency in microseconds;
* ``osu_bw`` — point-to-point bandwidth in MB/s (window of 64 inflight
  messages, so large messages stream at line rate);
* ``osu_allreduce`` — average allreduce latency across all ranks.

GPU runs use host-to-host mode (``-d H H``) because only InfiniBand
fabrics support GPU Direct (§2.8), so GPU and CPU results are
comparable — which is why the paper reports CPU at the largest size.

Findings reproduced: InfiniBand/Omni-Path environments have the lowest
latency; CycleCloud (IB HDR) the highest bandwidth; both AWS
environments spike on allreduce at 32,768 bytes (the OpenMPI issue AWS
later fixed); CycleCloud shows the highest allreduce variation.

The point-to-point pair-sampling strategy of §2.8 (8 random nodes, at
most 28 pairs) is implemented by :meth:`OSUBenchmarks.sample_pairs`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.apps.base import AppBlockResult, AppModel, RunContext
from repro.network.loggp import LogGP

#: OSU default sweep: powers of two from 1 B to 4 MiB
MESSAGE_SIZES = tuple(2**k for k in range(0, 23))
MAX_PAIRS = 28
SAMPLE_NODES = 8


class OSUBenchmarks(AppModel):
    name = "osu"
    display_name = "OSU Benchmarks"
    fom_name = "latency/bandwidth"
    fom_units = "us | MB/s"
    higher_is_better = False  # headline series is latency
    scaling = "strong"

    # -- GPU transfer mode --------------------------------------------------------

    @staticmethod
    def device_mode(ctx: RunContext) -> str:
        """The ``-d`` mode a GPU run uses on this fabric.

        §2.8: "the benchmarks were run using host to host mode
        (cuda -d H H) as only Infiniband fabrics support GPU Direct
        (device to device RDMA)".
        """
        if not ctx.env.is_gpu:
            raise ValueError("device mode applies to GPU environments")
        return "D D" if ctx.fabric.rdma else "H H"

    # -- pair sampling -----------------------------------------------------------

    @staticmethod
    def sample_pairs(
        n_nodes: int, rng: np.random.Generator
    ) -> list[tuple[int, int]]:
        """§2.8 sampling: 8 random nodes, at most 28 pair combinations."""
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        chosen = rng.choice(n_nodes, size=min(SAMPLE_NODES, n_nodes), replace=False)
        pairs = list(combinations(sorted(int(c) for c in chosen), 2))
        return pairs[:MAX_PAIRS]

    # -- the three benchmarks ------------------------------------------------------

    @staticmethod
    def base_times(ctx: RunContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Noise-free sweep values, one per :data:`MESSAGE_SIZES` entry.

        ``(latency, bandwidth, allreduce)``: the one-way point-to-point
        latency osu_latency reports (s), the streaming bandwidth of a
        64-message window (B/s), and the average allreduce latency
        across the full rank set (s).
        """
        fab = ctx.fabric
        lg = LogGP.from_fabric(fab)
        window = 64
        lat, bw = [], []
        for s in MESSAGE_SIZES:
            lat.append(lg.send_time(s) * fab.quirk_multiplier(s, "p2p"))
            t = lg.send_time(s) + (window - 1) * max(lg.g, s * lg.G)
            bw.append(window * s / t)
        strag = ctx.straggler()
        ar = [ctx.comm.allreduce(s, ctx.ranks) * strag for s in MESSAGE_SIZES]
        return np.array(lat), np.array(bw), np.array(ar)

    @staticmethod
    def allreduce_cv(ctx: RunContext) -> float:
        """Run-to-run noise of the allreduce sweep.

        CycleCloud's tuned transport is ``UCX_TLS=ud,shm,rc`` (§3.1);
        the unreliable-datagram path retransmits under fabric load,
        which shows up as the highest within-run AllReduce variation in
        Figure 5 — modelled as extra run-to-run noise.
        """
        return 0.35 if "cyclecloud" in ctx.env.env_id else ctx.fabric.jitter_cv

    # -- AppModel ------------------------------------------------------------------

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """All 3 × 23 noise draws gathered as one row per iteration:
        latency sizes, then bandwidth, then allreduce."""
        sizes = MESSAGE_SIZES
        k = len(sizes)
        lat_base, bw_base, ar_base = self.base_times(ctx)

        cv = ctx.fabric.jitter_cv
        cvs = np.concatenate([np.full(2 * k, cv), np.full(k, self.allreduce_cv(ctx))])
        factors = self._noisy_factors(ctx, block, cvs)  # (n, 3k)

        lat = lat_base * factors[:, :k] * 1e6
        bw = bw_base * factors[:, k : 2 * k] / 1e6
        ar = ar_base * factors[:, 2 * k :] * 1e6
        wall = 0
        for col in range(k):  # 1000 repetitions of each size, summed in order
            wall = wall + lat[:, col] * 1e-6 * 1000
        return AppBlockResult(
            app=self.name,
            fom=lat[:, sizes.index(8)].copy(),  # headline: small-message latency
            fom_units=self.fom_units,
            wall=wall,
            phases={"sweep": wall},
            extra={
                "latency_us": {s: lat[:, i] for i, s in enumerate(sizes)},
                "bandwidth_mbps": {s: bw[:, i] for i, s in enumerate(sizes)},
                "allreduce_us": {s: ar[:, i] for i, s in enumerate(sizes)},
            },
        )
