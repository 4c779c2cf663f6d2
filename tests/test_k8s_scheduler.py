"""kube-scheduler tests: filter, score, gang binding."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.k8s.objects import KubeNode, Pod, PodPhase, ResourceRequest
from repro.k8s.scheduler import KubeScheduler


def _nodes(n, cpu=96.0, **ext):
    return [
        KubeNode(
            name=f"n{i}",
            cpu_cores=cpu,
            memory_bytes=384 << 30,
            extended_capacity=dict(ext),
            labels={"pool": "workers"},
        )
        for i in range(n)
    ]


def _pod(name, cpu=8.0, selector=None, **ext):
    labels = {}
    if selector:
        labels["nodeSelector"] = selector
    return Pod(
        name=name,
        image="img",
        resources=ResourceRequest.of(cpu, 1 << 30, **ext),
        labels=labels,
    )


def test_bind_places_on_feasible_node():
    sched = KubeScheduler(_nodes(3))
    node = sched.bind(_pod("a"))
    assert node.name in {"n0", "n1", "n2"}
    assert sched.bound[0].phase is PodPhase.RUNNING


def test_least_allocated_spreads_pods():
    sched = KubeScheduler(_nodes(3))
    placed = {sched.bind(_pod(f"p{i}", cpu=8.0)).name for i in range(3)}
    assert len(placed) == 3  # one per node


def test_unschedulable_raises():
    sched = KubeScheduler(_nodes(1, cpu=4.0))
    with pytest.raises(SchedulingError):
        sched.bind(_pod("big", cpu=8.0))


def test_rebind_rejected():
    sched = KubeScheduler(_nodes(1))
    pod = _pod("a")
    sched.bind(pod)
    with pytest.raises(SchedulingError):
        sched.bind(pod)


def test_node_selector_filters():
    nodes = _nodes(2)
    nodes[1].labels["pool"] = "gpu-pool"
    sched = KubeScheduler(nodes)
    node = sched.bind(_pod("a", selector="gpu-pool"))
    assert node.name == "n1"


def test_extended_resource_filtering():
    nodes = _nodes(2)
    nodes[0].extended_capacity["nvidia.com/gpu"] = 8
    sched = KubeScheduler(nodes)
    node = sched.bind(_pod("g", **{"nvidia.com/gpu": 8}))
    assert node.name == "n0"


def test_gang_bind_all_or_nothing():
    sched = KubeScheduler(_nodes(2, cpu=10.0))
    pods = [_pod(f"p{i}", cpu=10.0) for i in range(3)]  # only 2 fit
    with pytest.raises(SchedulingError):
        sched.bind_all(pods)
    # Rollback: nothing bound, nodes clean.
    assert sched.bound == []
    assert all(not p.is_bound for p in pods)
    assert all(not n.pods for n in sched.nodes)


def test_gang_bind_success():
    sched = KubeScheduler(_nodes(4, cpu=10.0))
    pods = [_pod(f"p{i}", cpu=10.0) for i in range(4)]
    nodes = sched.bind_all(pods)
    assert len({n.name for n in nodes}) == 4


# -- placement equals the filter/score reference --------------------------------

_POOLS = ("workers", "gpu-pool")
_EXTENDED = ("nvidia.com/gpu", "rdma/ib")


@st.composite
def _node_lists(draw):
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        extended = {}
        for resource in _EXTENDED:
            if draw(st.booleans()):
                extended[resource] = draw(st.integers(0, 4))
        nodes.append(
            KubeNode(
                name=draw(st.sampled_from("abcd")),  # duplicates on purpose
                cpu_cores=draw(st.sampled_from([2.0, 4.0, 8.0])),
                memory_bytes=draw(st.sampled_from([2 << 30, 4 << 30, 16 << 30])),
                extended_capacity=extended,
                ip_capacity=draw(st.integers(1, 4)),
                labels={"pool": draw(st.sampled_from(_POOLS))},
                ready=draw(st.sampled_from([True, True, True, False])),
            )
        )
    return nodes


_POD_SHAPES = st.tuples(
    st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]),
    st.sampled_from([1 << 30, 2 << 30, 4 << 30]),
    st.dictionaries(st.sampled_from(_EXTENDED), st.integers(1, 2), max_size=2),
    st.sampled_from([None, *_POOLS]),
    st.booleans(),
)


def _make_pods(shapes, prefix):
    return [
        Pod(
            name=f"{prefix}{i}",
            image="img",
            resources=ResourceRequest.of(cpu, memory, **extended),
            labels={"nodeSelector": selector} if selector else {},
            host_network=host_network,
        )
        for i, (cpu, memory, extended, selector, host_network) in enumerate(shapes)
    ]


def _reference_bind(sched, pod):
    if pod.is_bound:
        raise SchedulingError(f"pod {pod.name} already bound")
    feasible = sched.filter(pod)
    if not feasible:
        raise SchedulingError(f"no node for pod {pod.name}")
    best = max(feasible, key=lambda n: (sched.score(n, pod), n.name))
    pod.node_name = best.name
    pod.phase = PodPhase.RUNNING
    best.pods.append(pod)
    sched.bound.append(pod)
    return best


def _reference_bind_all(sched, pods):
    placed = []
    try:
        for pod in pods:
            placed.append((pod, _reference_bind(sched, pod)))
    except SchedulingError:
        for pod, node in placed:
            node.pods.remove(pod)
            pod.node_name = None
            pod.phase = PodPhase.PENDING
            sched.bound.remove(pod)
        raise
    return [node for _, node in placed]


def _outcome(place, arg):
    """The chosen node name(s), or the error a failed placement raised."""
    try:
        chosen = place(arg)
    except SchedulingError:
        return "SchedulingError"
    return [n.name for n in chosen] if isinstance(chosen, list) else chosen.name


def _layout(sched):
    return [[p.name for p in n.pods] for n in sched.nodes], [p.name for p in sched.bound]


@settings(max_examples=300, deadline=None)
@given(nodes=_node_lists(), shapes=st.lists(_POD_SHAPES, min_size=1, max_size=12))
def test_bind_matches_the_filter_score_reference(nodes, shapes):
    sched = KubeScheduler(nodes)
    reference = KubeScheduler(copy.deepcopy(nodes))
    for pod, twin in zip(_make_pods(shapes, "p"), _make_pods(shapes, "p")):
        got = _outcome(sched.bind, pod)
        want = _outcome(lambda p: _reference_bind(reference, p), twin)
        assert got == want
        assert _layout(sched) == _layout(reference)


@settings(max_examples=300, deadline=None)
@given(
    nodes=_node_lists(),
    gangs=st.lists(st.lists(_POD_SHAPES, min_size=1, max_size=6), min_size=1, max_size=4),
)
def test_bind_all_matches_the_reference_gang_loop(nodes, gangs):
    sched = KubeScheduler(nodes)
    reference = KubeScheduler(copy.deepcopy(nodes))
    for g, shapes in enumerate(gangs):
        got = _outcome(sched.bind_all, _make_pods(shapes, f"g{g}-"))
        want = _outcome(
            lambda pods: _reference_bind_all(reference, pods),
            _make_pods(shapes, f"g{g}-"),
        )
        assert got == want
        assert _layout(sched) == _layout(reference)
