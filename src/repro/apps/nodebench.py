"""Single-node benchmark: hardware inventory + the supermarket fish problem.

§2.8: the study's own benchmark collects dmidecode output,
/proc/cpuinfo, hwloc topology, and sysbench results from every node.
§3.3: machines were consistent *except one AKS instance that reported
only two processors across collection mechanisms* — the "supermarket
fish problem": you buy an instance type, but what species you actually
get is uncertain.

:class:`SingleNodeBenchmark` surveys every node of a cluster and counts
the nodes whose reported hardware deviates from the cluster's modal
configuration (the "fish").
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppBlockResult, AppModel, RunContext

#: probability that an AKS node comes up misreporting its CPU count
AKS_FISH_PROBABILITY = 0.01


class SingleNodeBenchmark(AppModel):
    name = "single-node"
    display_name = "Single Node Benchmark"
    fom_name = "anomalous nodes"
    fom_units = "count"
    higher_is_better = False
    scaling = "weak"

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """The survey of every iteration.

        Off Azure every node reports exactly what its instance type
        advertises, so the survey is rng-free and group-constant: no
        node deviates.  On AKS each node draws the fish lottery (a node
        reporting 2 processors) from the iteration's stream, one uniform
        row per iteration.  Only the reported CPU count can deviate, so
        the anomalies are the nodes outside the majority; a split vote
        goes to node 0's signature (the first seen).
        """
        n = len(block)
        if not ctx.env.env_id.startswith(("cpu-aks", "gpu-aks")):
            return AppBlockResult(
                app=self.name,
                fom=np.zeros(n),
                fom_units=self.fom_units,
                wall=np.full(n, 120.0),
                phases={"collect": 120.0},
                extra={"nodes_surveyed": ctx.nodes, "anomalies": []},
            )

        nodes = ctx.nodes
        fishy = block.random(nodes) < AKS_FISH_PROBABILITY  # (n, nodes)
        fish_counts = fishy.sum(axis=1)
        fom = np.empty(n)
        extra = []
        for j in range(n):
            count = int(fish_counts[j])
            if 2 * count > nodes or (2 * count == nodes and fishy[j, 0]):
                # Fish are the majority (or win the first-seen tie-break):
                # the *normal* nodes read as anomalous.
                anomalies = np.flatnonzero(~fishy[j])
            else:
                anomalies = np.flatnonzero(fishy[j])
            fom[j] = float(len(anomalies))
            extra.append(
                {
                    "nodes_surveyed": nodes,
                    "anomalies": [int(i) for i in anomalies],
                }
            )
        return AppBlockResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall=np.full(n, 120.0),
            phases={"collect": 120.0},
            extra=extra,
        )
