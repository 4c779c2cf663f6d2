"""Outside-in layer tracing for the benchmark's traced passes.

Nothing under ``src/`` changes for the benchmark.  :func:`install` wraps
public functions of each layer from here; the wrappers record through
``repro.telemetry``'s ``span``/``count`` API under a
:class:`~repro.telemetry.Tracer`, so calls made in forked pool workers
ride back on the shard trace snapshots that ``PlanExecutor`` already
absorbs.  Spans the program records itself (``shard.provision``,
``engine.physics``, ``pool.drain``, ...) are read as they are.

Self time is a span's interval minus the intervals of its direct child
spans, whichever side recorded them -- the arithmetic of ``repro trace
summarize`` -- so within one process an interval is charged to one span
name, not to a span and its parent; spans the pool's manager thread opens
nest under the main thread's (:class:`ThreadSafeTracer`).  A layer's time
is the sum of its spans' self times, over all processes.  Hot per-node
predicates (``KubeNode.fits``) are counted, not timed: timing every call
would slow a traced pass by a third.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import threading
import time

from repro.telemetry import Tracer, count, merge_trace, phase_rows, span, use_tracer

#: per-layer time metric -> the spans whose self times it sums
SELF_TIME_METRICS = {
    "plan.compile_s": ("wrap.plan.compile",),
    "plan.merge_s": ("wrap.plan.merge", "plan.merge"),
    "cloud.quota_s": ("wrap.cloud.quota",),
    "cloud.cluster_s": ("wrap.cloud.cluster",),
    "k8s.cluster_s": ("wrap.k8s.cluster",),
    "k8s.daemonset_s": ("wrap.k8s.daemonset",),
    "k8s.minicluster_s": ("wrap.k8s.minicluster",),
    "onprem.queue_s": ("wrap.onprem.queue",),
    "engine.block_s": ("wrap.engine.block", "engine.run_block"),
    "engine.resolve_s": ("engine.resolve_group",),
    "apps.physics_s": ("engine.physics",),
    "rng.draw_s": ("engine.rng",),
    "engine.price_s": ("engine.price",),
    "experiments.matrix_s": ("wrap.experiments.matrix",),
    "experiments.harness_s": ("wrap.experiments.harness",),
    "engine.scalar_s": ("wrap.engine.run",),
    "reporting.render_s": ("wrap.reporting.render",),
    "cache.encode_s": ("wrap.cache.encode",),
    "cache.write_s": ("wrap.cache.write", "engine.cache_put"),
    "cache.read_s": ("wrap.cache.read", "engine.cache_probe"),
    "cache.decode_s": ("wrap.cache.decode",),
    "study.artifact_s": ("wrap.study.artifact",),
    "pool.wait_s": ("pool.drain",),
    "transport.attach_s": ("wrap.transport.attach", "transport.attach"),
    "ensemble.fold_s": ("wrap.ensemble.fold", "ensemble.fold"),
}

#: layer -> its spans, for the printed split; ``transport`` also gets the
#: workers' pack seconds, and spans of no layer (``shard.execute``,
#: ``plan.world``, ...) make up ``other``
LAYERS = {
    "cli": ("wrap.cli",),
    "plan": ("wrap.plan.compile", "wrap.plan.merge", "plan.merge"),
    "provision": (
        "shard.provision", "wrap.cloud.quota", "wrap.cloud.cluster",
        "wrap.k8s.cluster", "wrap.k8s.daemonset", "wrap.k8s.minicluster",
        "wrap.onprem.queue",
    ),
    "engine": (
        "wrap.engine.block", "engine.run_block", "engine.resolve_group",
        "engine.physics", "engine.rng", "engine.price",
    ),
    "experiments": (
        "wrap.experiments.matrix", "wrap.experiments.harness",
        "wrap.engine.run", "wrap.reporting.render",
    ),
    "cache": (
        "wrap.cache.encode", "wrap.cache.write", "engine.cache_put",
        "wrap.cache.read", "engine.cache_probe", "wrap.cache.decode",
    ),
    "study": ("wrap.study.artifact",),
    "pool": ("pool.drain", "pool.dispatch", "pool.retry", "pool.requeue"),
    "transport": ("wrap.transport.attach", "transport.attach"),
    "fold": ("wrap.ensemble.fold", "ensemble.fold"),
}

#: the program's recovery counters: a traced pass that moves one fails
FAULT_COUNTERS = (
    "fault.retries", "fault.requeues", "fault.rebuilds", "fault.timeouts",
    "fault.serial_hops",
)

PACK_LOG_PREFIX = "pack-"


class ThreadSafeTracer(Tracer):
    """A tracer that keeps one span stack per thread.

    ``ProcessPoolExecutor`` unpickles results -- and so attaches their
    shared-memory blocks (``transport.attach``) -- on its manager thread.
    With one shared stack, a span closed there would unwind spans the main
    thread still has open and cut them short; here each thread nests only
    its own spans, and a lock keeps the span columns aligned.  A span a
    helper thread opens with nothing of its own open becomes a child of the
    main thread's innermost open span (``pool.drain`` while the parent
    waits on results), so the interval is charged once, not to both.
    """

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self._local = threading.local()
        # The creating thread is the main thread and keeps the base stack.
        self._local.stack = self._stack

    def _thread_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def _begin(self, name, attrs):
        stack = self._thread_stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if len(stack) > 1 else self._stack[-1])
            self.attrs.append(attrs)
            self.ends.append(0.0)
            self.starts.append(0.0)
        stack.append(index)
        self.starts[index] = time.perf_counter()
        return index

    def _end(self, index):
        now = time.perf_counter()
        stack = self._thread_stack()
        while len(stack) > 1:
            top = stack.pop()
            if not self.ends[top]:
                self.ends[top] = now
            if top == index:
                break


# -- wrappers -------------------------------------------------------------------


def _timed(name):
    """A wrapper factory: each call is recorded as span ``name``."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _counted(name):
    """A wrapper factory for hot predicates: calls are counted only."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)
        return wrapper
    return make


def _run_block(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span("wrap.engine.block"):
            outcome = fn(*args, **kwargs)
        count("wrap.engine.groups")
        count("wrap.engine.records", outcome.count)
        return outcome
    return wrapper


def _scalar_run(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span("wrap.engine.run"):
            record = fn(*args, **kwargs)
        count("wrap.engine.scalar_runs")
        return record
    return wrapper


def _minicluster(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span("wrap.k8s.minicluster"):
            minicluster = fn(*args, **kwargs)
        count("wrap.k8s.deploys")
        count("wrap.k8s.pods_bound", len(minicluster.pods))
        return minicluster
    return wrapper


def _encode(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span("wrap.cache.encode"):
            data = fn(*args, **kwargs)
        count("wrap.cache.encodes")
        return data
    return wrapper


def _cache_probe(fn):
    """``RunCache.get_json``/``get``: one probe, a hit, the bytes read."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.hit_bytes
        with span("wrap.cache.read"):
            found = fn(self, *args, **kwargs)
        count("wrap.cache.gets")
        if found is not None:
            count("wrap.cache.hits")
        count("wrap.cache.hit_bytes", self.hit_bytes - before)
        return found
    return wrapper


def _cache_store(fn):
    """``RunCache.put_json``/``put``: the bytes written (none while a
    batch buffers the record)."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.put_bytes
        with span("wrap.cache.write"):
            fn(self, *args, **kwargs)
        count("wrap.cache.put_bytes", self.put_bytes - before)
    return wrapper


class _TimedBatch:
    """``RunCache.batched`` with its entry (one envelope read) and its
    exit (one envelope write) timed as a cache read and a cache write."""

    def __init__(self, cache, manager):
        self._cache = cache
        self._manager = manager

    def __enter__(self):
        before = self._cache.hit_bytes
        with span("wrap.cache.read"):
            batch = self._manager.__enter__()
        count("wrap.cache.hit_bytes", self._cache.hit_bytes - before)
        return batch

    def __exit__(self, *exc):
        before = self._cache.put_bytes
        with span("wrap.cache.write"):
            suppress = self._manager.__exit__(*exc)
        count("wrap.cache.put_bytes", self._cache.put_bytes - before)
        return suppress


def _batched(fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return _TimedBatch(self, fn(self, *args, **kwargs))
    return wrapper


def _pool_items(fn):
    @functools.wraps(fn)
    def wrapper(mapped, items, *args, **kwargs):
        count("wrap.pool.shards", len(items))
        return fn(mapped, items, *args, **kwargs)
    return wrapper


def _pack_logged(log_dir):
    """``pack_columns`` runs while the pool pickles a shard's result,
    after the shard's trace snapshot was taken, so no snapshot can carry
    its time back: each worker appends its pack seconds to a file."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(arrays):
            t0 = time.perf_counter()
            descriptor = fn(arrays)
            elapsed = time.perf_counter() - t0
            path = os.path.join(log_dir, f"{PACK_LOG_PREFIX}{os.getpid()}.log")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{elapsed!r}\n")
            return descriptor
        return wrapper
    return make


def _module_targets(log_dir):
    """(module, function, wrapper factory) for module-level functions."""
    return (
        ("repro.plan.compile", "compile_study", _timed("wrap.plan.compile")),
        ("repro.plan.compile", "compile_scenarios", _timed("wrap.plan.compile")),
        ("repro.plan.compile", "compile_ensemble", _timed("wrap.plan.compile")),
        ("repro.parallel.merge", "merge_shard_results", _timed("wrap.plan.merge")),
        ("repro.parallel.pool", "pmap_chunked", _pool_items),
        ("repro.parallel.transport", "pack_columns", _pack_logged(log_dir)),
        ("repro.parallel.transport", "attach_columns", _timed("wrap.transport.attach")),
        ("repro.sim.cache", "encode_record", _encode),
        ("repro.sim.cache", "decode_record", _timed("wrap.cache.decode")),
        ("repro.experiments.base", "run_matrix", _timed("wrap.experiments.matrix")),
        ("repro.experiments.registry", "run_experiment", _timed("wrap.experiments.harness")),
        ("repro.reporting.report", "generate_report", _timed("wrap.reporting.render")),
    )


def _class_targets():
    """(module, class, method, wrapper factory) for methods."""
    return (
        ("repro.cloud.providers", "CloudProvider", "request_quota", _timed("wrap.cloud.quota")),
        ("repro.cloud.providers", "CloudProvider", "provision_cluster", _timed("wrap.cloud.cluster")),
        ("repro.k8s.cluster", "KubernetesCluster", "create", _timed("wrap.k8s.cluster")),
        ("repro.k8s.cluster", "KubernetesCluster", "deploy_daemonset", _timed("wrap.k8s.daemonset")),
        ("repro.k8s.flux_operator", "FluxOperator", "create", _minicluster),
        ("repro.k8s.objects", "KubeNode", "fits", _counted("wrap.k8s.fits_calls")),
        ("repro.scheduler.queueing", "OnPremQueueModel", "sample_wait", _timed("wrap.onprem.queue")),
        ("repro.sim.execution", "ExecutionEngine", "run_block", _run_block),
        ("repro.sim.execution", "ExecutionEngine", "run", _scalar_run),
        ("repro.sim.cache", "RunCache", "get_json", _cache_probe),
        ("repro.sim.cache", "RunCache", "get", _cache_probe),
        ("repro.sim.cache", "RunCache", "put_json", _cache_store),
        ("repro.sim.cache", "RunCache", "put", _cache_store),
        ("repro.sim.cache", "RunCache", "batched", _batched),
        ("repro.core.results", "ResultStore", "to_artifact", _timed("wrap.study.artifact")),
        ("repro.core.results", "ResultStore", "merge", _timed("wrap.ensemble.fold")),
        ("repro.ensemble.frame", "ResultFrame", "cell_aggregates", _timed("wrap.ensemble.fold")),
    )


def _rebind_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (``from x import f`` made each module its own copy)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(log_dir: str) -> "Harness":
    """Wrap every target in this process and in the pool workers it will
    fork; returns the harness that records and reads one pass."""
    for module_name, func_name, make in _module_targets(log_dir):
        original = getattr(importlib.import_module(module_name), func_name)
        _rebind_everywhere(original, make(original))
    for module_name, class_name, method, make in _class_targets():
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = vars(owner)[method]
        if isinstance(raw, classmethod):
            setattr(owner, method, classmethod(make(raw.__func__)))
        else:
            setattr(owner, method, make(raw))
    return Harness(log_dir)


class Harness:
    """Records one pass and turns its trace into per-layer metrics."""

    def __init__(self, log_dir: str):
        self.log_dir = log_dir
        self.tracer = ThreadSafeTracer()

    @contextlib.contextmanager
    def recording(self):
        """Trace the ``with`` block -- one command -- as span ``wrap.cli``."""
        with use_tracer(self.tracer), span("wrap.cli"):
            yield

    def _pack_seconds(self) -> float:
        total = 0.0
        for entry in os.listdir(self.log_dir):
            if entry.startswith(PACK_LOG_PREFIX):
                with open(os.path.join(self.log_dir, entry), encoding="utf-8") as fh:
                    total += sum(float(line) for line in fh if line.strip())
        return total

    def metrics(self, *, wall_s: float, workers: int) -> tuple[dict, dict]:
        """(per-layer metrics, split): the split holds self seconds by
        layer and every recovery counter that moved."""
        doc = merge_trace(self.tracer)
        rows = {row["phase"]: row for row in phase_rows(doc)}
        counters = doc["counters"]

        def self_s(names) -> float:
            return sum((rows[name]["self_s"] for name in names if name in rows), 0.0)

        def counter(name: str):
            return counters.get(name, 0)

        shard_s = sorted(
            span_["dur_us"] / 1e6
            for lane in doc["lanes"]
            for span_ in lane["spans"]
            if span_["name"] == "shard.execute"
        )
        busy = sum(shard_s)
        pack_s = self._pack_seconds()
        fits = counter("wrap.k8s.fits_calls")
        gets = counter("wrap.cache.gets")
        out = {name: self_s(spans) for name, spans in SELF_TIME_METRICS.items()}
        out.update({
            "provision.s": self_s(LAYERS["provision"]),
            "k8s.deploys": counter("wrap.k8s.deploys"),
            "k8s.pods_bound": counter("wrap.k8s.pods_bound"),
            "k8s.fits_calls": fits,
            "k8s.fits_per_bind": counter("wrap.k8s.pods_bound") / fits if fits else 0.0,
            "engine.groups": counter("wrap.engine.groups"),
            "engine.records": counter("wrap.engine.records"),
            "engine.scalar_runs": counter("wrap.engine.scalar_runs"),
            "cache.encodes": counter("wrap.cache.encodes"),
            "cache.put_bytes": counter("wrap.cache.put_bytes"),
            "cache.gets": gets,
            "cache.hit_bytes": counter("wrap.cache.hit_bytes"),
            "cache.hit_ratio": counter("wrap.cache.hits") / gets if gets else 0.0,
            "cache.invalid": counter("cache.invalid"),
            "pool.shards": counter("wrap.pool.shards"),
            "pool.busy_s": busy,
            "pool.utilization": busy / (workers * wall_s) if wall_s else 0.0,
            "pool.retries": counter("fault.retries"),
            "shard.count": len(shard_s),
            "shard.p50_s": _decile(shard_s, 5),
            "shard.p90_s": _decile(shard_s, 9),
            "transport.bytes": counter("transport.bytes"),
            "transport.pack_s": pack_s,
            "ensemble.worlds": rows["ensemble.fold"]["count"] if "ensemble.fold" in rows else 0,
        })
        layers = {name: self_s(spans) for name, spans in LAYERS.items()}
        layers["transport"] += pack_s
        layers["total"] = sum(row["self_s"] for row in rows.values()) + pack_s
        faults = {name: counter(name) for name in FAULT_COUNTERS if counter(name)}
        return out, {"layers": layers, "faults": faults}


def _decile(values: list[float], k: int) -> float:
    """The ``k``-th decile of ``values`` (0.0 when there are none)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[k - 1]
