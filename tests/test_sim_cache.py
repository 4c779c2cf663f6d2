"""Run-cache behaviour: hits, misses, invalidation, corruption."""

import collections
import dataclasses
import hashlib
import json
import sys
import threading
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.shard as shard_module
from repro.__main__ import main
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.plan import ExecutionOptions
from repro.sim.cache import (
    RunCache,
    _jsonable,
    decode_record,
    encode_record,
    run_key,
    shard_key,
)
from repro.sim.execution import ExecutionEngine
from repro.sim.run_result import RunRecord, RunState


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


def _reference_jsonable(value):
    """``_jsonable`` as the ``isinstance`` chain alone, without fast paths."""
    if isinstance(value, Mapping):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _reference_encode(record):
    """``encode_record`` built on ``dataclasses.asdict``: the byte reference."""
    data = dataclasses.asdict(record)
    data["state"] = record.state.value
    return _reference_jsonable(data)


def _encodings_agree(record):
    return json.dumps(encode_record(record), separators=(",", ":")) == json.dumps(
        _reference_encode(record), separators=(",", ":")
    )


#: values with a deterministic ``str()`` and no ``item()``: the encoder
#: must stringify them exactly as the reference does (dataclasses are
#: left out: ``asdict`` expanded them, and no app puts one in a record)
_NON_JSON = st.one_of(
    st.decimals(allow_nan=False),
    st.fractions(),
    st.complex_numbers(allow_nan=False),
    st.dates(),
    st.sampled_from(RunState),
    st.binary(max_size=4),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _NON_JSON,
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none())
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4).map(collections.OrderedDict),
    ),
    max_leaves=12,
)
_RECORDS = st.builds(
    RunRecord,
    env_id=st.text(max_size=8),
    app=st.text(max_size=8),
    scale=st.integers(0, 1024),
    nodes=st.integers(0, 1024),
    iteration=st.integers(0, 100),
    state=st.sampled_from(RunState),
    fom=st.none() | st.floats() | st.floats().map(np.float64),
    fom_units=st.text(max_size=8),
    wall_seconds=st.floats(),
    hookup_seconds=st.floats(),
    cost_usd=st.floats(),
    phases=st.dictionaries(_KEYS, _PAYLOADS, max_size=4),
    failure_kind=st.none() | st.text(max_size=8),
    extra=st.dictionaries(_KEYS, _PAYLOADS, max_size=4)
    | st.dictionaries(_KEYS, _PAYLOADS, max_size=4).map(collections.OrderedDict),
)


@settings(max_examples=100, deadline=None)
@given(record=_RECORDS)
def test_encoding_matches_the_asdict_reference(record):
    assert _encodings_agree(record)
    assert list(encode_record(record)) == [f.name for f in dataclasses.fields(RunRecord)]


@settings(max_examples=200, deadline=None)
@given(value=_PAYLOADS)
def test_jsonable_matches_the_isinstance_chain(value):
    # repr, not ==: 1, 1.0, True and np.float64(1.0) compare equal but
    # must not be swapped for one another.
    assert repr(_jsonable(value)) == repr(_reference_jsonable(value))


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
    cold = StudyRunner(config, ExecutionOptions(cache_dir=str(tmp_path))).run()
    warm = StudyRunner(config, ExecutionOptions(cache_dir=str(tmp_path))).run()
    assert cold.store.to_csv() == plain.store.to_csv()
    assert warm.store.to_csv() == plain.store.to_csv()
    assert warm.spend_by_cloud == plain.spend_by_cloud
    # Stats count *runs* only; the cell-level lookups are not folded in.
    assert cold.cache_misses == cold.datasets and cold.cache_hits == 0
    assert warm.cache_hits == warm.datasets and warm.cache_misses == 0


def test_cached_study_seed_change_is_all_misses(tmp_path):
    StudyRunner(
        StudyConfig.smoke(seed=4),
        ExecutionOptions(cache_dir=str(tmp_path)),
    ).run()
    other = StudyRunner(
        StudyConfig.smoke(seed=5),
        ExecutionOptions(cache_dir=str(tmp_path)),
    ).run()
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


def test_concurrent_threads_writing_one_key_never_collide(tmp_path):
    key = "ab" * 16
    payloads = [{"writer": i, "body": [i] * 512} for i in range(2)]
    barrier = threading.Barrier(len(payloads), timeout=10)
    errors = []

    def write(payload):
        cache = RunCache(tmp_path)
        barrier.wait()
        try:
            for _ in range(200):
                cache.put_json(key, payload)
        except Exception as exc:  # the thread's boundary: report it below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the writers as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert RunCache(tmp_path).get_json(key) in payloads


def test_cached_study_writes_envelopes_not_per_run_files(tmp_path):
    report = StudyRunner(
        StudyConfig.smoke(seed=4),
        ExecutionOptions(cache_dir=str(tmp_path)),
    ).run()
    # Far fewer files than runs: one run-batch envelope (plus cell
    # summaries) per (env, size) cell instead of one file per record.
    assert report.datasets > len(_cache_files(tmp_path))


# ---------------------------------------------------------- golden anchors

#: the seven deployable environments that are not Kubernetes (VMs and
#: on-prem), 40 iterations each: 28 (env, size) cells, 12,320 records
GOLDEN_ENVS = (
    "cpu-onprem-a",
    "cpu-parallelcluster-aws",
    "cpu-computeengine-g",
    "cpu-cyclecloud-az",
    "gpu-onprem-b",
    "gpu-computeengine-g",
    "gpu-cyclecloud-az",
)
GOLDEN_ITERATIONS = 40

#: sha256 of the CSV ``repro study --envs GOLDEN_ENVS --iterations 40
#: --cache DIR --output study.csv --seed S`` writes, run serially into an
#: empty cache.  A change that moves any number in the dataset moves these.
GOLDEN_STUDY_CSV_SHA256 = {
    0: "2a503b1618bdd040d6fcd7690ce30ce90fcc0a906447dafe1418140d652d9501",
    3: "40c2df76072d9a50659014dabc97fb69ebfbdfd1fff6e32bbd9a26fb082c2e0f",
}

#: (entry count, :func:`_entries_sha256`) of the cache directory that
#: run leaves behind: one run envelope and one cell entry per cell.  A
#: change to the bytes the cache writes (key, order, value) moves these.
GOLDEN_CACHE_ENTRIES = {
    0: (56, "6cee246f8949ea612f5a16c84abba110bb8951fc954dc21440a68a4a01fae5d7"),
    3: (56, "406bada8b05fac7c2f5e0a9c512427ff9ac4f83244dfbf27a9665b0a82e709cb"),
}


def _entries_sha256(root):
    """(count, sha256) over every ``*/*.json`` entry under ``root``.

    Entries are hashed in order of their relative POSIX path, each as
    the path, a newline, then the file's bytes.  ``journal.jsonl`` is
    left out: its lines land in completion order.
    """
    digest = hashlib.sha256()
    paths = sorted(p.relative_to(root).as_posix() for p in root.glob("*/*.json"))
    for rel in paths:
        digest.update(rel.encode("utf-8") + b"\n")
        digest.update((root / rel).read_bytes())
    return len(paths), digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN_STUDY_CSV_SHA256))
def golden_study(request, tmp_path_factory):
    """The cached study CLI run at one golden seed.

    ``(seed, directory, records)``: ``records`` are the run records the
    cell entries encoded, every record of the study once.
    """
    seed = request.param
    out = tmp_path_factory.mktemp(f"golden-study-{seed}")
    argv = [
        "study", "--envs", ",".join(GOLDEN_ENVS),
        "--iterations", str(GOLDEN_ITERATIONS),
        "--cache", str(out / "cache"), "--output", str(out / "study.csv"),
        "--seed", str(seed),
    ]
    records = []

    def spy(record):
        records.append(record)
        return encode_record(record)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shard_module, "encode_record", spy)
        assert main(argv) == 0
    return seed, out, records


def test_cached_study_csv_matches_golden_digest(golden_study):
    seed, out, _ = golden_study
    digest = hashlib.sha256((out / "study.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_STUDY_CSV_SHA256[seed]


def test_cached_study_entries_match_golden_digest(golden_study):
    seed, out, _ = golden_study
    assert _entries_sha256(out / "cache") == GOLDEN_CACHE_ENTRIES[seed]


def test_cached_study_records_encode_like_the_asdict_reference(golden_study):
    _, _, records = golden_study
    assert len(records) == 28 * 11 * GOLDEN_ITERATIONS
    assert all(_encodings_agree(record) for record in records)
