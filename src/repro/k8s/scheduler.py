"""Kubernetes pod scheduler: filter + score, least-allocated strategy.

Implements the two-phase kube-scheduler pipeline: *filter* nodes that
can admit the pod (resource fit, readiness, IP budget — see
:meth:`~repro.k8s.objects.KubeNode.fits`), then *score* survivors and
bind to the best.  We score by least-allocated CPU, the default-profile
behaviour that matters for the Flux Operator's one-pod-per-node layout.

Placement order: the best node is the feasible node with the highest
:meth:`KubeScheduler.score`, then the greatest name, then the earliest
position in ``nodes`` — exactly ``max(filter(pod), key=(score, name))``,
which :meth:`KubeScheduler.filter` and :meth:`KubeScheduler.score`
spell out as the reference placement is tested against.  Binding does
not filter: each :meth:`~KubeScheduler.bind_all` call heaps the nodes
on that order from their current pods, pops until the first node that
matches the pod's ``nodeSelector`` and passes ``fits``, and pushes the
bound node back with its new score (passed-over nodes go back
unchanged).  The heap stays valid across pods because least-allocated
scores do not depend on the pod.  A Flux Operator MiniCluster — one
near-whole-node pod per node — thus costs one ``fits`` call and
O(log nodes) heap work per pod, where filtering cost nodes × pods calls.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.k8s.objects import KubeNode, Pod, PodPhase


@dataclass
class KubeScheduler:
    """Binds pods to nodes."""

    nodes: list[KubeNode]
    #: bound pods in bind order, for inspection
    bound: list[Pod] = field(default_factory=list)

    def filter(self, pod: Pod) -> list[KubeNode]:
        """Feasible nodes for ``pod``, honouring label selectors."""
        feasible = []
        for node in self.nodes:
            selector = pod.labels.get("nodeSelector")
            if selector and node.labels.get("pool") != selector:
                continue
            if node.fits(pod):
                feasible.append(node)
        return feasible

    @staticmethod
    def score(node: KubeNode, pod: Pod) -> float:
        """Least-allocated scoring: prefer the emptiest node."""
        free_cpu = node.cpu_cores - node.cpu_used()
        free_frac = free_cpu / node.cpu_cores if node.cpu_cores else 0.0
        return free_frac

    def bind(self, pod: Pod) -> KubeNode:
        """Schedule one pod; raises :class:`SchedulingError` if unschedulable."""
        return self.bind_all([pod])[0]

    def bind_all(self, pods: list[Pod]) -> list[KubeNode]:
        """Bind a pod group; all-or-nothing (gang semantics).

        The Flux Operator needs its whole MiniCluster up before Flux
        brokers can bootstrap, so a partial binding is rolled back and
        reported — matching how a stuck pending pod manifests.
        """
        if not pods:
            return []
        # Min-heap on (-score, -name rank, index): the first node popped
        # is the one max() over (score, name) picks, the earliest in
        # list order on a full tie.
        names = sorted({n.name for n in self.nodes})
        rank = {name: r for r, name in enumerate(names)}

        def entry(i: int, pod: Pod) -> tuple[float, int, int]:
            node = self.nodes[i]
            return (-self.score(node, pod), -rank[node.name], i)

        heap = [entry(i, pods[0]) for i in range(len(self.nodes))]
        heapq.heapify(heap)
        placed: list[tuple[Pod, KubeNode]] = []
        try:
            for pod in pods:
                if pod.is_bound:
                    raise SchedulingError(
                        f"pod {pod.name} already bound to {pod.node_name}"
                    )
                selector = pod.labels.get("nodeSelector")
                passed_over = []
                while heap:
                    top = heapq.heappop(heap)
                    node = self.nodes[top[2]]
                    matches = not selector or node.labels.get("pool") == selector
                    if matches and node.fits(pod):
                        break
                    passed_over.append(top)
                else:
                    raise SchedulingError(
                        f"0/{len(self.nodes)} nodes available for pod {pod.name} "
                        f"(insufficient resources or pod-IP budget)"
                    )
                pod.node_name = node.name
                pod.phase = PodPhase.RUNNING
                node.pods.append(pod)
                self.bound.append(pod)
                placed.append((pod, node))
                heapq.heappush(heap, entry(top[2], pod))
                for skipped in passed_over:
                    heapq.heappush(heap, skipped)
        except SchedulingError:
            for pod, node in placed:
                node.pods.remove(pod)
                pod.node_name = None
                pod.phase = PodPhase.PENDING
                self.bound.remove(pod)
            raise
        return [node for _, node in placed]
