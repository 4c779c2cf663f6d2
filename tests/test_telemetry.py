"""repro.telemetry: tracer semantics, cross-process merge, exporters,
and the subsystem's two hard invariants — tracing never changes results,
and every emitted span name is declared in the registry."""

import re
from pathlib import Path

import pytest

from repro.core.study import StudyConfig, StudyRunner
from repro.plan import ExecutionOptions
from repro.sim.cache import INVALID_REASON_CAP, RunCache
from repro.telemetry import (
    COUNTERS,
    SPANS,
    Tracer,
    chrome_trace_events,
    count,
    coverage,
    current_tracer,
    enabled,
    load_trace,
    merge_trace,
    phase_rows,
    render_summary,
    span,
    use_tracer,
    write_trace,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# -- no-op default ------------------------------------------------------------


def test_disabled_by_default():
    assert current_tracer() is None
    assert not enabled()


def test_disabled_span_is_shared_singleton():
    # The no-op path allocates nothing: every disabled span() call
    # returns one shared context manager, attrs and all.
    a = span("plan.run", workers=4)
    b = span("engine.physics")
    assert a is b
    with a:
        pass  # usable, does nothing


def test_disabled_count_is_noop():
    count("cache.run.hits", 5)  # must not raise, must not record anywhere
    assert current_tracer() is None


# -- recording ----------------------------------------------------------------


def test_spans_nest_and_balance():
    tracer = Tracer()
    with use_tracer(tracer):
        with span("study.run", seed=0):
            with span("engine.physics"):
                pass
            with span("engine.price"):
                pass
    assert tracer.names == ["study.run", "engine.physics", "engine.price"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.depth == 0
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))
    assert tracer.attrs[0] == {"seed": 0}


def test_spans_balanced_under_exceptions():
    tracer = Tracer()
    with use_tracer(tracer):
        with pytest.raises(ValueError):
            with span("study.run"):
                with span("engine.physics"):
                    raise ValueError("boom")
    # Both spans closed, stack fully unwound, tracer still usable.
    assert tracer.depth == 0
    assert all(tracer.ends)
    with use_tracer(tracer):
        with span("engine.price"):
            pass
    assert tracer.names[-1] == "engine.price"
    assert tracer.parents[-1] == -1


def test_end_unwinds_dangling_children():
    # A generator abandoned mid-iteration can leak an inner span open;
    # closing the outer span must close the leaked child too.
    tracer = Tracer()
    with use_tracer(tracer):
        outer = span("plan.run")
        inner = span("plan.world")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)
    assert tracer.depth == 0
    assert all(tracer.ends)


def test_counters_accumulate():
    tracer = Tracer()
    with use_tracer(tracer):
        count("cache.run.hits")
        count("cache.run.hits", 4)
        count("cache.run.hit_bytes", 1024)
    assert tracer.counters == {"cache.run.hits": 5, "cache.run.hit_bytes": 1024}


def test_use_tracer_restores_prior():
    outer, inner = Tracer(), Tracer(label="inner")
    with use_tracer(outer):
        with use_tracer(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is None


# -- cross-process merge ------------------------------------------------------


def _worker_snapshot(ordinal: int = 0, pid: int = 99999) -> dict:
    worker = Tracer(label=f"worker-{pid}")
    worker.pid = pid
    with worker.span("shard.execute", env="cpu-eks-aws"):
        with worker.span("engine.run_block"):
            pass
    snapshot = worker.snapshot()
    snapshot["dispatch_ordinal"] = ordinal
    snapshot["worker_seconds"] = 0.25
    return snapshot


def test_merge_trace_lanes_and_rebase():
    main = Tracer()
    with use_tracer(main):
        with span("plan.run"):
            pass
    main.absorb(_worker_snapshot(ordinal=0))
    main.absorb(_worker_snapshot(ordinal=1))

    doc = merge_trace(main)
    assert doc["version"] == 1
    assert [lane["label"] for lane in doc["lanes"]] == ["main", "worker-99999"]
    # Two snapshots from one pid share a lane; parent indices re-offset.
    worker_lane = doc["lanes"][1]
    assert [s["name"] for s in worker_lane["spans"]] == [
        "shard.execute", "engine.run_block",
    ] * 2
    assert [s["parent"] for s in worker_lane["spans"]] == [-1, 0, -1, 2]
    # Top-level worker spans carry the pool's dispatch tags.
    tops = [s for s in worker_lane["spans"] if s["parent"] < 0]
    assert [s["attrs"]["dispatch_ordinal"] for s in tops] == [0, 1]
    assert all(s["attrs"]["worker_seconds"] == 0.25 for s in tops)
    # Rebasing: all timestamps non-negative µs on one shared timeline.
    for lane in doc["lanes"]:
        for s in lane["spans"]:
            assert s["start_us"] >= 0
            assert s["dur_us"] >= 0
    assert doc["span_count"] == 5


def test_absorb_rejects_version_skew():
    main = Tracer()
    snapshot = _worker_snapshot()
    snapshot["v"] = 999
    main.absorb(snapshot)
    assert main.worker_traces == []


def test_merged_counters_sum_across_lanes():
    main = Tracer()
    main.count("cache.run.hits", 2)
    snapshot = _worker_snapshot()
    snapshot["counters"] = {"cache.run.hits": 3, "cache.run.misses": 1}
    main.absorb(snapshot)
    doc = merge_trace(main)
    assert doc["counters"]["cache.run.hits"] == 5
    assert doc["counters"]["cache.run.misses"] == 1


# -- exporters ----------------------------------------------------------------


def _traced_study(tmp_path, workers: int = 1):
    tracer = Tracer()
    with use_tracer(tracer):
        report = StudyRunner(
            StudyConfig.smoke(),
            ExecutionOptions(workers=workers, cache_dir=str(tmp_path / "cache")),
        ).run()
    return report, merge_trace(tracer)


def test_trace_roundtrip_and_chrome_export(tmp_path):
    _report, doc = _traced_study(tmp_path)
    path = tmp_path / "trace.json"
    write_trace(doc, str(path))
    assert load_trace(str(path)) == doc

    events = chrome_trace_events(doc)
    metas = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert [m["args"]["name"] for m in metas] == [lane["label"] for lane in doc["lanes"]]
    assert len(spans) == doc["span_count"]
    assert all({"name", "ts", "dur", "pid"} <= set(e) for e in spans)


def test_load_trace_rejects_non_trace_files(tmp_path):
    from repro.errors import ConfigurationError

    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    with pytest.raises(ConfigurationError):
        load_trace(str(bogus))
    with pytest.raises(ConfigurationError):
        load_trace(str(tmp_path / "missing.json"))


def test_phase_rows_self_time_partitions_wall(tmp_path):
    _report, doc = _traced_study(tmp_path)
    rows = phase_rows(doc)
    assert all(row["phase"] in SPANS for row in rows)
    # Self time partitions each lane's instrumented wall clock: summing
    # it reproduces the total top-level duration (no double counting).
    total_self = sum(row["self_s"] for row in rows)
    top_level = sum(
        s["dur_us"] / 1e6
        for lane in doc["lanes"]
        for s in lane["spans"]
        if s["parent"] < 0
    )
    assert total_self == pytest.approx(top_level, rel=1e-3)
    assert render_summary(doc)  # renders without error, counters included


def test_coverage_gate_serial_and_parallel(tmp_path):
    # The acceptance gate: instrumentation covers >= 95% of the wall
    # clock between the first and last span, at both worker counts.
    for workers in (1, 4):
        _report, doc = _traced_study(tmp_path / f"w{workers}", workers=workers)
        assert coverage(doc) >= 0.95
        if workers == 4:
            assert len(doc["lanes"]) > 1  # real worker lanes came back


def test_worker_lanes_carry_dispatch_ordinals(tmp_path):
    _report, doc = _traced_study(tmp_path, workers=4)
    ordinals = [
        s["attrs"]["dispatch_ordinal"]
        for lane in doc["lanes"][1:]
        for s in lane["spans"]
        if s["parent"] < 0
    ]
    # Every dispatched shard shows up exactly once, pool-wide.
    assert sorted(ordinals) == list(range(len(ordinals)))
    assert ordinals  # the smoke campaign dispatches at least one shard
    assert all(
        lane["pid"] != doc["lanes"][0]["pid"] for lane in doc["lanes"][1:]
    )


# -- the hard invariant: tracing never changes results ------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_traced_run_byte_identical(tmp_path, workers):
    def run(traced: bool, cache_root):
        runner = StudyRunner(
            StudyConfig.smoke(),
            ExecutionOptions(workers=workers, cache_dir=str(cache_root)),
        )
        if not traced:
            return runner.run()
        tracer = Tracer()
        with use_tracer(tracer):
            report = runner.run()
        doc = merge_trace(tracer)
        assert doc["span_count"] > 0
        return report

    plain = run(False, tmp_path / "plain")
    traced = run(True, tmp_path / "traced")
    assert traced.to_json_dict() == plain.to_json_dict()
    assert traced.store.records == plain.store.records


def test_traced_scenario_sweep_byte_identical(tmp_path):
    from repro.scenarios.presets import scenario as scenario_lookup
    from repro.scenarios.sweep import ScenarioSweep

    def run(traced: bool):
        sweep = ScenarioSweep(
            StudyConfig.smoke(),
            [scenario_lookup("spot-everything")],
            ExecutionOptions(workers=2),
        )
        if not traced:
            return sweep.run()
        tracer = Tracer()
        with use_tracer(tracer):
            result = sweep.run()
        assert tracer.names  # sweep.run span recorded
        return result

    plain, traced = run(False), run(True)
    assert traced.to_json_dict() == plain.to_json_dict()


def test_traced_ensemble_byte_identical(tmp_path):
    from repro.ensemble import EnsembleRunner, EnsembleSpec

    spec = EnsembleSpec(
        n_replicas=2,
        env_ids=("cpu-eks-aws",),
        apps=("lammps",),
        sizes=(32,),
        iterations=2,
    )

    def run(traced: bool, cache_root):
        runner = EnsembleRunner(
            spec,
            ExecutionOptions(workers=2, cache_dir=str(cache_root)),
        )
        if not traced:
            return runner.run()
        tracer = Tracer()
        with use_tracer(tracer):
            result = runner.run()
        assert "ensemble.run" in tracer.names
        return result

    plain = run(False, tmp_path / "plain")
    traced = run(True, tmp_path / "traced")
    assert traced.to_json_dict() == plain.to_json_dict()


def test_incremental_sweep_trace_coverage(tmp_path):
    # The acceptance gate on the hardest path: a traced 4-worker
    # incremental sweep still attributes >= 95% of its wall clock.
    from repro.scenarios.presets import scenario as scenario_lookup
    from repro.scenarios.sweep import ScenarioSweep

    tracer = Tracer()
    with use_tracer(tracer):
        ScenarioSweep(
            StudyConfig.smoke(),
            [scenario_lookup("azure-price-spike")],
            ExecutionOptions(workers=4, cache_dir=str(tmp_path / "cache")),
            incremental=True,
        ).run()
    doc = merge_trace(tracer)
    assert coverage(doc) >= 0.95
    names = {s["name"] for lane in doc["lanes"] for s in lane["spans"]}
    assert {"sweep.run", "plan.diff", "plan.attach"} <= names


def test_disabled_instrumentation_is_cheap():
    # The no-op path must stay allocation-free and flat: a generous
    # per-call ceiling catches an accidentally-heavy disabled path
    # without turning this into a flaky micro-benchmark.
    import time

    n = 50_000
    start = time.perf_counter()
    for _ in range(n):
        with span("engine.physics", env="cpu-eks-aws"):
            count("cache.run.hits")
    per_call = (time.perf_counter() - start) / n
    assert current_tracer() is None
    assert per_call < 20e-6  # 20 µs/op ceiling; the real cost is ~0.5 µs


# -- cache telemetry ----------------------------------------------------------


def test_cache_reason_histogram_caps(tmp_path):
    cache = RunCache(tmp_path)
    for i in range(INVALID_REASON_CAP + 3):
        cache.note_invalid("deadbeef", f"reason-{i}: detail {i}")
    histogram = cache.stats()["invalid_reasons"]
    # The first CAP distinct labels keep their bins; overflow folds
    # into "other" so one corrupt directory cannot balloon the report.
    assert len(histogram) == INVALID_REASON_CAP + 1
    assert histogram["other"] == 3
    assert cache.invalid == INVALID_REASON_CAP + 3


def test_cache_reason_labels_strip_detail(tmp_path):
    cache = RunCache(tmp_path)
    cache.note_invalid("k1", "corrupt JSON: line 1 column 2")
    cache.note_invalid("k2", "corrupt JSON: line 9 column 4")
    assert cache.stats()["invalid_reasons"] == {"corrupt JSON": 2}


def test_cache_stats_shape_and_counters(tmp_path):
    tracer = Tracer()
    cache = RunCache(tmp_path)
    with use_tracer(tracer):
        assert cache.get_json("aa11", level="world") is None
        cache.put_json("aa11", {"x": 1}, level="world")
        assert cache.get_json("aa11", level="world") == {"x": 1}
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["put_bytes"] > 0 and stats["hit_bytes"] == stats["put_bytes"]
    assert stats["entries"] == 1
    assert tracer.counters["cache.world.hits"] == 1
    assert tracer.counters["cache.world.misses"] == 1
    assert tracer.counters["cache.world.puts"] == 1


def test_invalid_reasons_reported_by_study(tmp_path):
    # Corrupt one cached entry; the re-run surfaces the reason histogram
    # all the way up on the StudyReport.
    cache_dir = tmp_path / "cache"
    config = StudyConfig(
        env_ids=("cpu-eks-aws",), apps=("lammps",), sizes=(32,), iterations=2
    )
    StudyRunner(config, ExecutionOptions(cache_dir=str(cache_dir))).run()
    for victim in cache_dir.glob("*/*.json"):
        victim.write_text("{ not json")
    report = StudyRunner(config, ExecutionOptions(cache_dir=str(cache_dir))).run()
    assert report.cache_invalid >= 1
    assert report.cache_invalid_reasons
    assert sum(report.cache_invalid_reasons.values()) == report.cache_invalid


# -- the registry lint --------------------------------------------------------


def test_every_emitted_span_is_registered():
    # Matches real call sites; the name shape filter skips prose like
    # ``span("...")`` in docstrings.
    pattern = re.compile(r'\bspan\(\s*"([a-z_]+(?:\.[a-z_]+)+)"')
    emitted = set()
    for path in SRC.rglob("*.py"):
        emitted.update(pattern.findall(path.read_text(encoding="utf-8")))
    assert emitted  # the instrumentation exists
    unregistered = emitted - set(SPANS)
    assert not unregistered, (
        f"span names emitted in src/ but missing from "
        f"repro.telemetry.registry.SPANS: {sorted(unregistered)}"
    )


def test_registry_names_follow_convention():
    assert SPANS
    for name, description in SPANS.items():
        layer, _, operation = name.partition(".")
        assert layer and operation, name
        assert description


def test_every_emitted_counter_is_registered():
    # Literal counter emissions only: the dotted-name group skips both
    # str.count("1") noise and f-string sites (whose expansions are
    # registered by hand, e.g. the cache.<level>.* family).
    pattern = re.compile(r'\b(?:telemetry_)?count\(\s*"([a-z_]+(?:\.[a-z_]+)+)"')
    emitted = set()
    for path in SRC.rglob("*.py"):
        emitted.update(pattern.findall(path.read_text(encoding="utf-8")))
    assert emitted  # the instrumentation exists
    unregistered = emitted - set(COUNTERS)
    assert not unregistered, (
        f"counter names emitted in src/ but missing from "
        f"repro.telemetry.registry.COUNTERS: {sorted(unregistered)}"
    )


def test_counter_registry_follows_convention():
    assert COUNTERS
    for name, description in COUNTERS.items():
        layer, _, metric = name.partition(".")
        assert layer and metric, name
        assert description
    # The fault-tolerance counters this layer emits are all declared.
    for expected in (
        "fault.retries",
        "fault.requeues",
        "fault.rebuilds",
        "fault.timeouts",
        "fault.serial_hops",
        "fault.injected",
        "fault.resumed",
        "transport.reaped",
    ):
        assert expected in COUNTERS, expected
