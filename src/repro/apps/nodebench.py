"""Single-node benchmark: hardware inventory + the supermarket fish problem.

§2.8: the study's own benchmark collects dmidecode output,
/proc/cpuinfo, hwloc topology, and sysbench results from every node.
§3.3: machines were consistent *except one AKS instance that reported
only two processors across collection mechanisms* — the "supermarket
fish problem": you buy an instance type, but what species you actually
get is uncertain.

:class:`SingleNodeBenchmark` produces per-node :class:`NodeInventory`
records and :func:`find_fish` flags nodes whose reported hardware
deviates from the cluster's modal configuration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppBlockResult, AppModel, RunContext

#: probability that an AKS node comes up misreporting its CPU count
AKS_FISH_PROBABILITY = 0.01


@dataclass(frozen=True)
class NodeInventory:
    """What the collection tools reported for one node."""

    node_index: int
    cpu_model: str
    reported_cpus: int
    memory_gb: int
    gpus: int
    topology_ok: bool

    def signature(self) -> tuple:
        return (self.cpu_model, self.reported_cpus, self.memory_gb, self.gpus)


def find_fish(inventories: list[NodeInventory]) -> list[NodeInventory]:
    """Nodes that differ from the modal hardware signature."""
    if not inventories:
        return []
    counts = Counter(inv.signature() for inv in inventories)
    modal, _ = counts.most_common(1)[0]
    return [inv for inv in inventories if inv.signature() != modal]


class SingleNodeBenchmark(AppModel):
    name = "single-node"
    display_name = "Single Node Benchmark"
    fom_name = "anomalous nodes"
    fom_units = "count"
    higher_is_better = False
    scaling = "weak"

    def collect(self, ctx: RunContext) -> list[NodeInventory]:
        """Every node's inventory as its instance type advertises it."""
        itype = ctx.env.instance()
        return [
            NodeInventory(
                node_index=i,
                cpu_model=itype.processor.model,
                reported_cpus=itype.cores,
                memory_gb=itype.memory_gb,
                gpus=itype.gpus_per_node,
                topology_ok=True,
            )
            for i in range(ctx.nodes)
        ]

    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """The survey of every iteration.

        Off Azure the survey is rng-free and group-constant.  On AKS
        each node draws the fish lottery (a node reporting 2 processors)
        from the iteration's stream, one uniform row per iteration; only
        the reported CPU count can deviate, so :func:`find_fish` reduces
        to counting fish per row — including
        :class:`~collections.Counter`'s first-seen tie-break (node 0's
        signature wins a split vote), replicated exactly.
        """
        n = len(block)
        if not ctx.env.env_id.startswith(("cpu-aks", "gpu-aks")):
            inventories = self.collect(ctx)
            fish = find_fish(inventories)
            return AppBlockResult(
                app=self.name,
                fom=np.full(n, float(len(fish))),
                fom_units=self.fom_units,
                wall=np.full(n, 120.0),
                phases={"collect": 120.0},
                extra={
                    "nodes_surveyed": len(inventories),
                    "anomalies": [f.node_index for f in fish],
                },
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
