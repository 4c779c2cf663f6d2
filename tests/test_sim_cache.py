"""Run-cache behaviour: hits, misses, invalidation, corruption."""

import json

import pytest

from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.sim.cache import (
    RunCache,
    decode_record,
    encode_record,
    run_key,
    shard_key,
)
from repro.sim.execution import ExecutionEngine
from repro.sim.run_result import RunState


ENV = ENVIRONMENTS["cpu-eks-aws"]


def _csv_fields(record):
    return (
        record.env_id,
        record.app,
        record.scale,
        record.nodes,
        record.iteration,
        record.state,
        record.fom,
        record.fom_units,
        record.wall_seconds,
        record.hookup_seconds,
        record.cost_usd,
        record.failure_kind,
    )


# ------------------------------------------------------------------- keys


def test_key_is_stable_and_coordinate_sensitive():
    base = dict(seed=0, env_id="cpu-eks-aws", app="amg2023", scale=32, iteration=0)
    assert run_key(**base) == run_key(**base)
    assert run_key(**{**base, "seed": 1}) != run_key(**base)
    assert run_key(**{**base, "iteration": 1}) != run_key(**base)
    assert run_key(**{**base, "scale": 64}) != run_key(**base)


def test_engine_option_change_invalidates_key():
    base = dict(seed=0, env_id="cpu-aks-az", app="osu", scale=32, iteration=0)
    tuned = run_key(**base, engine_options={"azure_ucx_tuned": True, "options": {}})
    untuned = run_key(**base, engine_options={"azure_ucx_tuned": False, "options": {}})
    with_opts = run_key(
        **base, engine_options={"azure_ucx_tuned": True, "options": {"warmup": 5}}
    )
    assert len({tuned, untuned, with_opts}) == 3


def test_shard_key_covers_apps_and_iterations():
    base = dict(seed=0, env_id="cpu-eks-aws", scale=32, apps=("amg2023",), iterations=2)
    assert shard_key(**base) == shard_key(**base)
    assert shard_key(**{**base, "apps": ("lammps",)}) != shard_key(**base)
    assert shard_key(**{**base, "iterations": 3}) != shard_key(**base)


def test_world_key_is_seed_scenario_and_slice_sensitive():
    from repro.sim.cache import world_key

    base = dict(
        seed=0, env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,),
        iterations=2,
    )
    assert world_key(**base) == world_key(**base)
    # Replica worlds (seed offsets) never collide...
    assert world_key(**{**base, "seed": 1}) != world_key(**base)
    # ...nor do scenario worlds, campaign slices, or the sizes=None default.
    assert world_key(**base, scenario="abc123") != world_key(**base)
    assert world_key(**{**base, "apps": ("lammps",)}) != world_key(**base)
    assert world_key(**{**base, "sizes": None}) != world_key(**base)
    # And world keys live in their own namespace: never equal a shard key.
    assert world_key(**base) != shard_key(
        seed=0, env_id="cpu-eks-aws", scale=32, apps=("amg2023",), iterations=2
    )


# ------------------------------------------------------------ record codec


def test_record_round_trips_through_json():
    record = ExecutionEngine(seed=5).run(ENV, "amg2023", 32)
    decoded = decode_record(json.loads(json.dumps(encode_record(record))))
    assert _csv_fields(decoded) == _csv_fields(record)
    assert decoded.state is RunState.COMPLETED


# ------------------------------------------------------------- hit / miss


def test_miss_then_hit(tmp_path):
    cache = RunCache(tmp_path)
    engine = ExecutionEngine(seed=0, cache=cache)
    first = engine.run(ENV, "amg2023", 32)
    assert cache.misses == 1 and cache.hits == 0

    replay = ExecutionEngine(seed=0, cache=RunCache(tmp_path))
    second = replay.run(ENV, "amg2023", 32)
    assert replay.cache.hits == 1 and replay.cache.misses == 0
    assert _csv_fields(second) == _csv_fields(first)


def test_cached_record_matches_uncached_engine(tmp_path):
    cache = RunCache(tmp_path)
    ExecutionEngine(seed=2, cache=cache).run(ENV, "lammps", 64, iteration=1)
    cached = ExecutionEngine(seed=2, cache=cache).run(ENV, "lammps", 64, iteration=1)
    fresh = ExecutionEngine(seed=2).run(ENV, "lammps", 64, iteration=1)
    assert _csv_fields(cached) == _csv_fields(fresh)


def test_option_change_is_a_miss_not_a_stale_hit(tmp_path):
    cache = RunCache(tmp_path)
    az = ENVIRONMENTS["cpu-cyclecloud-az"]
    tuned = ExecutionEngine(seed=0, cache=cache).run(az, "minife", 32)
    untuned_engine = ExecutionEngine(seed=0, azure_ucx_tuned=False, cache=cache)
    untuned = untuned_engine.run(az, "minife", 32)
    assert untuned_engine.cache.hits == 0  # different engine options -> miss
    assert tuned.fom != untuned.fom


def test_skipped_runs_are_not_cached(tmp_path):
    cache = RunCache(tmp_path)
    engine = ExecutionEngine(seed=0, cache=cache)
    record = engine.run(ENVIRONMENTS["gpu-parallelcluster-aws"], "lammps", 32)
    assert record.state is RunState.SKIPPED
    assert len(cache) == 0


def test_corrupt_entry_treated_as_miss(tmp_path):
    cache = RunCache(tmp_path)
    ExecutionEngine(seed=0, cache=cache).run(ENV, "amg2023", 32)
    (entry,) = list(tmp_path.glob("*/*.json"))
    entry.write_text("{not json")
    replay = ExecutionEngine(seed=0, cache=RunCache(tmp_path))
    record = replay.run(ENV, "amg2023", 32)
    assert record.state is RunState.COMPLETED
    assert replay.cache.misses == 1


# ------------------------------------------------------------ study-level


def test_cached_study_identical_to_uncached(tmp_path):
    config = StudyConfig.smoke(seed=4)
    plain = StudyRunner(config).run()
    cold = StudyRunner(config, cache_dir=str(tmp_path)).run()
    warm = StudyRunner(config, cache_dir=str(tmp_path)).run()
    assert cold.store.to_csv() == plain.store.to_csv()
    assert warm.store.to_csv() == plain.store.to_csv()
    assert warm.spend_by_cloud == plain.spend_by_cloud
    # Stats count *runs* only; the cell-level lookups are not folded in.
    assert cold.cache_misses == cold.datasets and cold.cache_hits == 0
    assert warm.cache_hits == warm.datasets and warm.cache_misses == 0


def test_cached_study_seed_change_is_all_misses(tmp_path):
    StudyRunner(StudyConfig.smoke(seed=4), cache_dir=str(tmp_path)).run()
    other = StudyRunner(StudyConfig.smoke(seed=5), cache_dir=str(tmp_path)).run()
    assert other.cache_hits == 0
    assert other.cache_misses > 0


# ------------------------------------------------------------ batched I/O


def _records(n):
    engine = ExecutionEngine(seed=0)
    return {
        run_key(seed=0, env_id=ENV.env_id, app="lammps", scale=32, iteration=i): (
            engine.run(ENV, "lammps", 32, iteration=i)
        )
        for i in range(n)
    }


def _cache_files(tmp_path):
    return [p for p in tmp_path.rglob("*.json") if not p.name.startswith(".")]


def test_put_many_writes_one_envelope(tmp_path):
    from repro.sim.cache import batch_key

    cache = RunCache(tmp_path)
    group = batch_key(seed=0, env_id=ENV.env_id, scale=32)
    cache.put_many(_records(6), group_key=group)
    assert len(_cache_files(tmp_path)) == 1
    assert cache.batch_puts == 1


def test_get_many_round_trips_across_instances(tmp_path):
    from repro.sim.cache import batch_key

    records = _records(4)
    group = batch_key(seed=0, env_id=ENV.env_id, scale=32)
    RunCache(tmp_path).put_many(records, group_key=group)

    fresh = RunCache(tmp_path)
    found = fresh.get_many(records.keys(), group_key=group)
    assert [_csv_fields(r) for r in found] == [
        _csv_fields(r) for r in records.values()
    ]
    assert fresh.batch_hits == 1
    assert fresh.hits == len(records)


def test_stats_expose_batch_counters(tmp_path):
    from repro.sim.cache import batch_key

    cache = RunCache(tmp_path)
    group = batch_key(seed=0, env_id=ENV.env_id, scale=32)
    cache.put_many(_records(2), group_key=group)
    cache.get_many([], group_key=group)
    stats = cache.stats()
    assert stats["batch_puts"] == 1
    assert stats["batch_hits"] == 1
    assert stats["batch_misses"] == 1  # the cold read at put_many entry
    assert stats["batch_hit_rate"] == 0.5


def test_corrupt_envelope_is_a_miss_not_a_crash(tmp_path):
    from repro.sim.cache import batch_key

    records = _records(2)
    group = batch_key(seed=0, env_id=ENV.env_id, scale=32)
    cache = RunCache(tmp_path)
    cache.put_many(records, group_key=group)
    (path,) = _cache_files(tmp_path)
    path.write_text('{"kind": "not-a-batch"}', encoding="utf-8")

    fresh = RunCache(tmp_path)
    assert fresh.get_many(records.keys(), group_key=group) == [None, None]
    assert fresh.invalid >= 1
    assert fresh.batch_misses == 1
    assert fresh.batch_hits == 0


def test_batched_get_falls_through_to_per_key_files(tmp_path):
    from repro.sim.cache import batch_key

    records = _records(3)
    keys = list(records)
    plain = RunCache(tmp_path)
    for key in keys[:2]:
        plain.put(key, records[key])  # unbatched writer: individual files

    group = batch_key(seed=0, env_id=ENV.env_id, scale=32)
    fresh = RunCache(tmp_path)
    found = fresh.get_many(keys, group_key=group)
    assert [r is not None for r in found] == [True, True, False]
    assert fresh.hits == 2 and fresh.misses == 1


def test_cached_study_writes_envelopes_not_per_run_files(tmp_path):
    report = StudyRunner(StudyConfig.smoke(seed=4), cache_dir=str(tmp_path)).run()
    # Far fewer files than runs: one run-batch envelope (plus cell
    # summaries) per (env, size) cell instead of one file per record.
    assert report.datasets > len(_cache_files(tmp_path))
