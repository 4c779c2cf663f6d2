"""Workflow graphs: components, requirements, data flow.

A :class:`Workflow` is a DAG of :class:`Component` nodes, kept in plain
insertion-ordered dicts.  Edges carry the bytes exchanged per workflow
cycle, which the portability scorer uses to penalise splitting chatty
component pairs across environments (cloud egress + WAN latency).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class ComponentKind(enum.Enum):
    SIMULATION = "simulation"  # tightly coupled MPI
    AI = "ai"  # training/inference services
    DATABASE = "database"
    SERVICE = "service"  # messaging, dashboards, coordination


@dataclass(frozen=True)
class Component:
    """One workflow component and its resource requirements."""

    name: str
    kind: ComponentKind
    min_nodes: int = 1
    needs_gpu: bool = False
    #: tightly coupled: requires a low-latency fabric (< ~5 us)
    needs_low_latency: bool = False
    #: needs to scale up/down during the run (favors Kubernetes)
    needs_elasticity: bool = False
    #: must run containerized (cloud-native component)
    needs_containers: bool = False

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ConfigurationError("min_nodes must be >= 1")


class Workflow:
    """A DAG of components with data-flow edges.

    The graph is two insertion-ordered maps: each component's successors
    with the bytes sent per cycle, and its predecessors in connection
    order.  Every query below is a function of those insertion orders.
    """

    def __init__(self, name: str):
        self.name = name
        self._components: dict[str, Component] = {}
        self._succ: dict[str, dict[str, int]] = {}
        self._pred: dict[str, list[str]] = {}

    # -- construction -----------------------------------------------------------

    def add(self, component: Component) -> Component:
        if component.name in self._components:
            raise ConfigurationError(f"duplicate component {component.name!r}")
        self._components[component.name] = component
        self._succ[component.name] = {}
        self._pred[component.name] = []
        return component

    def connect(self, src: str, dst: str, *, bytes_per_cycle: int) -> None:
        """Add (or re-weigh) the edge ``src -> dst``; refuse a cycle."""
        for name in (src, dst):
            if name not in self._components:
                raise ConfigurationError(f"unknown component {name!r}")
        if bytes_per_cycle < 0:
            raise ConfigurationError("bytes_per_cycle must be non-negative")
        if self._reaches(dst, src):
            raise ConfigurationError(
                f"edge {src}->{dst} would create a cycle"
            )
        if dst not in self._succ[src]:
            self._pred[dst].append(src)
        self._succ[src][dst] = bytes_per_cycle

    def _reaches(self, start: str, target: str) -> bool:
        """Whether a path leads from ``start`` to ``target`` (or they are one)."""
        seen = {start}
        stack = [start]
        while stack:
            name = stack.pop()
            if name == target:
                return True
            for nxt in self._succ[name]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # -- queries ----------------------------------------------------------------

    def _order(self) -> list[str]:
        """Component names in topological order, a generation at a time.

        Kahn's algorithm: first every component without predecessors, in
        insertion order; then each generation lists the components whose
        last predecessor was in the previous one, in the order that
        generation's successor lists release them.
        """
        waiting = {name: len(preds) for name, preds in self._pred.items()}
        generation = [name for name, count in waiting.items() if count == 0]
        order: list[str] = []
        while generation:
            order.extend(generation)
            released = []
            for name in generation:
                for child in self._succ[name]:
                    waiting[child] -= 1
                    if waiting[child] == 0:
                        released.append(child)
            generation = released
        return order

    def components(self) -> list[Component]:
        return [self._components[name] for name in self._order()]

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise ConfigurationError(f"unknown component {name!r}") from None

    def edges(self) -> list[tuple[str, str, int]]:
        """``(src, dst, bytes_per_cycle)``, grouped by source in insertion
        order, then by successor in connection order."""
        return [
            (src, dst, nbytes)
            for src, succ in self._succ.items()
            for dst, nbytes in succ.items()
        ]

    def traffic_between(self, a: str, b: str) -> int:
        total = 0
        for u, v, nbytes in self.edges():
            if {u, v} == {a, b}:
                total += nbytes
        return total

    def total_nodes(self) -> int:
        return sum(c.min_nodes for c in self.components())

    def critical_path(self) -> list[str]:
        """The longest chain of components, counted in hops.

        Every edge counts one hop; component sizes do not weigh in.  Ties
        go to the first in component order: the chain ends at the first
        component (in :meth:`components` order) with the most hops, and
        each step back takes the first predecessor (in connection order)
        with the most hops.
        """
        hops: dict[str, int] = {}
        back: dict[str, str | None] = {}
        for name in self._order():
            hops[name], back[name] = 0, None
            for pred in self._pred[name]:
                if hops[pred] + 1 > hops[name]:
                    hops[name], back[name] = hops[pred] + 1, pred
        if not hops:
            return []
        path = [max(hops, key=hops.__getitem__)]
        while (pred := back[path[-1]]) is not None:
            path.append(pred)
        return path[::-1]


def mummi_style_workflow() -> Workflow:
    """A canonical composite workflow from the paper's motivation.

    Modeled on the multiscale simulation campaigns cited in §1.1
    (MuMMI-like): a tightly coupled MPI simulation feeding an AI model
    selector, backed by a database and a coordination service.
    """
    wf = Workflow("multiscale-campaign")
    wf.add(Component("macro-sim", ComponentKind.SIMULATION, min_nodes=64,
                     needs_low_latency=True))
    wf.add(Component("micro-sim", ComponentKind.SIMULATION, min_nodes=16,
                     needs_gpu=True, needs_low_latency=True))
    wf.add(Component("ml-selector", ComponentKind.AI, min_nodes=4,
                     needs_gpu=True, needs_elasticity=True, needs_containers=True))
    wf.add(Component("feature-db", ComponentKind.DATABASE, min_nodes=2,
                     needs_containers=True))
    wf.add(Component("orchestrator", ComponentKind.SERVICE, min_nodes=1,
                     needs_elasticity=True, needs_containers=True))
    wf.connect("macro-sim", "ml-selector", bytes_per_cycle=2 << 30)
    wf.connect("macro-sim", "feature-db", bytes_per_cycle=256 << 20)
    wf.connect("ml-selector", "micro-sim", bytes_per_cycle=64 << 20)
    wf.connect("micro-sim", "feature-db", bytes_per_cycle=512 << 20)
    wf.connect("orchestrator", "macro-sim", bytes_per_cycle=1 << 20)
    return wf
