"""Run-cache behaviour: hits, misses, invalidation, corruption."""

import collections
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
import shutil
import sys
import threading
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.cache as cache_module
from repro.__main__ import main
from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.parallel.shard import shard_summary_key
from repro.plan import ExecutionOptions
from repro.scenarios import scenario
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


def _reference_bytes(record):
    return json.dumps(_reference_encode(record), separators=(",", ":"))


def _encodings_agree(record):
    return json.dumps(encode_record(record), separators=(",", ":")) == _reference_bytes(record)


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


# ------------------------------------------------------- the cell scope


def _records(n):
    engine = ExecutionEngine(seed=0)
    return {
        run_key(seed=0, env_id=ENV.env_id, app="lammps", scale=32, iteration=i): (
            engine.run(ENV, "lammps", 32, iteration=i)
        )
        for i in range(n)
    }


def test_batched_get_falls_through_to_per_key_files(tmp_path):
    records = _records(3)
    keys = list(records)
    plain = RunCache(tmp_path)
    for key in keys[:2]:
        plain.put(key, records[key])  # ExecutionEngine.run's single-run entries

    fresh = RunCache(tmp_path)
    # A cell scope serves sibling cell entries to run_block; a single-run
    # probe inside it still reads its own file.
    with fresh.batched(f"{'ab' * 16}/{'cd' * 16}"):
        found = [fresh.get(key) for key in keys]
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


def test_cached_study_writes_one_entry_per_cell(tmp_path):
    config = StudyConfig.smoke(seed=4)
    report = StudyRunner(config, ExecutionOptions(cache_dir=str(tmp_path))).run()
    shards = StudyRunner(config).compile().shards
    cache = RunCache(tmp_path)
    # One cell entry per (env, size) cell, filed in its batch directory,
    # and no file per run: the entry is the run level too.
    assert all(cache.path(shard_summary_key(shard)).is_file() for shard in shards)
    assert len(cache) == cache.stats()["entries"] == len(shards) < report.datasets


# ------------------------------------------------- columnar entries: faults

#: the cell-entry key the fault tests write under
KEY = "cd" * 16


@functools.lru_cache(maxsize=None)
def _mixed_store() -> ResultStore:
    """A store with every payload shape: array leaves (osu), a tuple
    constant (amg2023) and per-record rows (single-node on AKS)."""
    store = ResultStore()
    engine = ExecutionEngine(seed=0)
    for app in ("osu", "amg2023", "single-node"):
        engine.run_block(ENVIRONMENTS["cpu-aks-az"], app, 32, iterations=3, store=store)
    return store


def _cell_entry() -> bytes:
    return _mixed_store().to_bytes(
        kind="cell", v=cache_module.CACHE_VERSION, incidents=[]
    )


def _edit_entry(data: bytes, edit) -> bytes:
    """``data`` after ``edit(header, body)``, re-padded so the body stays
    8-byte aligned."""
    end = data.index(b"\n")
    header = json.loads(data[:end])
    body = bytearray(data[-(-(end + 1) // 8) * 8 :])
    edit(header, body)
    head = json.dumps(header).encode("utf-8") + b"\n"
    return head + bytes(-len(head) % 8) + bytes(body)


def _layout(header, name):
    return next(entry for entry in header["layout"] if entry[0] == name)


def _first_leaf(header):
    return next(entry for entry in header["layout"] if entry[0].startswith("leaf"))


def _set(entry, index, value):
    entry[index] = value


def _label_99(header, body):
    _, _, _, offset = _layout(header, "labels")
    body[offset : offset + 8] = np.int64(99).tobytes()


#: fault -> (entry bytes -> corrupted bytes)
_FAULTS = {
    "truncated header": lambda data: data[:40],
    "truncated body": lambda data: data[:-9],
    "object dtype": lambda data: _edit_entry(data, lambda h, b: _set(_first_leaf(h), 1, "|O")),
    "schema dtype": lambda data: _edit_entry(data, lambda h, b: _set(_layout(h, "fom"), 1, "<f4")),
    "count past the end": lambda data: _edit_entry(
        data, lambda h, b: _set(_layout(h, "wall_seconds"), 2, 10**6)
    ),
    "offset past the end": lambda data: _edit_entry(
        data, lambda h, b: _set(_layout(h, "cost_usd"), 3, len(b) + 8)
    ),
    "label out of range": lambda data: _edit_entry(data, _label_99),
    "scale past int64": lambda data: _edit_entry(
        data, lambda h, b: _set(h["cells"][0], 2, 2**70)
    ),
    "segment total": lambda data: _edit_entry(
        data, lambda h, b: _set(h["segments"]["extra"][0], 1, h["segments"]["extra"][0][1] + 1)
    ),
    "swapped kind": lambda data: _edit_entry(data, lambda h, b: h.update(kind="batch")),
    "version skew": lambda data: _edit_entry(data, lambda h, b: h.update(v=3)),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_malformed_cell_entry_is_a_counted_miss(tmp_path, fault):
    RunCache(tmp_path).path(KEY).parent.mkdir()
    RunCache(tmp_path).path(KEY).write_bytes(_FAULTS[fault](_cell_entry()))
    cache = RunCache(tmp_path)
    assert cache.get_columns(KEY, kind="cell") is None
    assert (cache.hits, cache.misses, cache.invalid) == (0, 1, 1)
    label = "version skew" if fault == "version skew" else "malformed cell entry"
    assert cache.invalid_reasons == {label: 1}


def test_version_skew_names_both_versions(tmp_path, caplog):
    cache = RunCache(tmp_path)
    cache.put_columns(KEY, _mixed_store(), kind="cell", incidents=[])
    path = cache.path(KEY)
    path.write_bytes(_FAULTS["version skew"](path.read_bytes()))
    with caplog.at_level("WARNING", logger="repro.sim.cache"):
        assert RunCache(tmp_path).get_columns(KEY, kind="cell") is None
    assert f"version skew: entry v3, code v{cache_module.CACHE_VERSION}" in caplog.text


def test_well_formed_cell_entry_round_trips(tmp_path):
    RunCache(tmp_path).put_columns(KEY, _mixed_store(), kind="cell", incidents=[])
    cache = RunCache(tmp_path)
    store, header = cache.get_columns(KEY, kind="cell")
    assert store.to_csv() == _mixed_store().to_csv()
    assert header["incidents"] == []
    assert (cache.hits, cache.invalid, len(cache)) == (1, 0, 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_entries_decode_or_raise_value_error(data):
    entry = bytearray(_cell_entry())
    for at, value in data.draw(
        st.lists(st.tuples(st.integers(0, len(entry) - 1), st.integers(0, 255)), max_size=4)
    ):
        entry[at] = value
    cut = data.draw(st.integers(0, len(entry)))
    try:
        store, _, _ = ResultStore.from_bytes(
            bytes(entry[:cut]), kind="cell", v=cache_module.CACHE_VERSION
        )
    except ValueError:
        return
    # Whatever decodes is a usable store.
    store.to_csv()
    assert len(store.records) == len(store)


@settings(max_examples=100, deadline=None)
@given(dtype=st.text(max_size=8))
def test_any_layout_dtype_decodes_or_raises_value_error(dtype):
    entry = _edit_entry(_cell_entry(), lambda h, b: _set(_first_leaf(h), 1, dtype))
    try:
        ResultStore.from_bytes(entry, kind="cell", v=cache_module.CACHE_VERSION)
    except ValueError:
        pass


@pytest.mark.parametrize("edit, label", [
    (lambda h, b: h.update(v=3), "version skew"),
    (lambda h, b: h.update(clusters_created=float("inf")), "study-cell entry malformed"),
])
def test_study_reexecutes_a_cell_entry_it_cannot_use(tmp_path, edit, label):
    config = StudyConfig.smoke(seed=1)
    options = ExecutionOptions(cache_dir=str(tmp_path))
    cold = StudyRunner(config, options).run()
    shard = StudyRunner(config).compile().shards[0]
    path = RunCache(tmp_path).path(shard_summary_key(shard))
    path.write_bytes(_edit_entry(path.read_bytes(), edit))
    warm = StudyRunner(config, options).run()
    assert warm.cache_invalid_reasons == {label: 1}
    assert warm.store.to_csv() == cold.store.to_csv()


# -------------------------------------------- version skew: another version

_SKEW_ARGV = [
    "study", "--envs", "cpu-onprem-a,cpu-eks-aws", "--apps", "amg2023,osu",
    "--sizes", "32", "--iterations", "3",
]


def test_a_cache_written_under_another_version_is_missed_untouched(
    tmp_path, monkeypatch, capsys
):
    cache = tmp_path / "cache"
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "CACHE_VERSION", 3)
        assert main([*_SKEW_ARGV, "--cache", str(cache), "--output", str(tmp_path / "v3.csv")]) == 0
    entries = {path: path.read_bytes() for path in cache.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert main([*_SKEW_ARGV, "--cache", str(cache), "--output", str(tmp_path / "v4.csv")]) == 0
    assert "run cache         : 0 hits, 12 misses\n" in capsys.readouterr().out
    assert (tmp_path / "v4.csv").read_bytes() == (tmp_path / "v3.csv").read_bytes()
    assert len(entries) == 2  # two cells: one cell entry each
    assert all(path.read_bytes() == data for path, data in entries.items())


def test_resume_against_another_versions_journal_attaches_nothing(tmp_path, monkeypatch):
    config = StudyConfig(
        env_ids=("cpu-onprem-a", "cpu-eks-aws"), apps=("amg2023", "osu"),
        sizes=(32,), iterations=3,
    )
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "CACHE_VERSION", 3)
        old = StudyRunner(config, ExecutionOptions(cache_dir=str(tmp_path))).run()
    resumed = StudyRunner(
        config, ExecutionOptions(cache_dir=str(tmp_path), resume=True)
    ).run()
    assert resumed.faults.resumed == 0
    assert (resumed.cache_hits, resumed.cache_misses) == (0, resumed.datasets)
    assert resumed.store.to_csv() == old.store.to_csv()


# ------------------------------------------- the run level: sibling entries


def _roster_config(apps) -> StudyConfig:
    """One (env, size) cell under the app roster ``apps``."""
    return StudyConfig(env_ids=("cpu-onprem-a",), apps=tuple(apps), sizes=(32,), iterations=3)


def _write_roster(root: str, apps, barrier) -> None:
    """One writer: run ``apps``' cell into the cache at ``root`` once
    every writer is ready."""
    barrier.wait(timeout=60)
    StudyRunner(_roster_config(apps), ExecutionOptions(cache_dir=root)).run()


def _assert_union_rerun_hits_every_run(root: str, rosters) -> None:
    """A rerun of the union of ``rosters`` finds every run in the
    writers' sibling entries, and writes an uncached run's CSV."""
    union = sorted({app for apps in rosters for app in apps})
    rerun = StudyRunner(_roster_config(union), ExecutionOptions(cache_dir=root)).run()
    fresh = StudyRunner(_roster_config(union)).run()
    ran = sum(1 for record in fresh.store.records if record.state is not RunState.SKIPPED)
    assert (rerun.cache_hits, rerun.cache_misses, rerun.cache_invalid) == (ran, 0, 0)
    assert rerun.store.to_csv() == fresh.store.to_csv()


# The two writer tests below keep the names they had when writers of one
# cell merged their runs into a shared run envelope; each writer now
# writes its own cell entry, and no run may be lost either way.


def test_envelope_writer_threads_keep_every_roster(tmp_path):
    """More writer threads than cores, each a different roster of one
    cell, switching as often as the interpreter allows."""
    rosters = [("amg2023",), ("lammps",), ("minife", "amg2023"), ("kripke",)]
    barrier = threading.Barrier(len(rosters))
    errors = []

    def write(apps):
        try:
            _write_roster(str(tmp_path), apps, barrier)
        except Exception as exc:  # the thread's boundary: report it below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(apps,)) for apps in rosters]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the writers as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    _assert_union_rerun_hits_every_run(str(tmp_path), rosters)


def test_envelope_writer_processes_with_different_rosters_keep_both(tmp_path):
    """Two spawned writer processes, each a different roster of one cell."""
    rosters = [("osu", "lammps"), ("laghos",)]
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(len(rosters))
    processes = [
        context.Process(target=_write_roster, args=(str(tmp_path), apps, barrier))
        for apps in rosters
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert not any(process.is_alive() for process in processes)
    assert [process.exitcode for process in processes] == [0, 0]
    _assert_union_rerun_hits_every_run(str(tmp_path), rosters)


def test_roster_growth_hits_the_old_apps_runs_in_a_sibling_entry(tmp_path):
    options = ExecutionOptions(cache_dir=str(tmp_path))
    StudyRunner(_roster_config(["amg2023"]), options).run()
    grown = StudyRunner(_roster_config(["amg2023", "lammps"]), options).run()
    # A new cell key (the roster changed), so the runs came from the
    # first cell's entry, its sibling in the batch directory.
    assert (grown.cache_hits, grown.cache_misses) == (3, 3)
    assert len(RunCache(tmp_path)) == 2
    assert (
        grown.store.to_csv()
        == StudyRunner(_roster_config(["amg2023", "lammps"])).run().store.to_csv()
    )


def test_a_group_with_options_never_reuses_sibling_runs(tmp_path):
    # Cell entries hold runs without per-run options only, so a group
    # with options keeps to its own single-run entries inside the scope.
    StudyRunner(_roster_config(["amg2023"]), ExecutionOptions(cache_dir=str(tmp_path))).run()
    (shard,) = StudyRunner(_roster_config(["amg2023", "lammps"])).compile().shards
    env, topology = ENVIRONMENTS["cpu-onprem-a"], {"process_topology": (8, 4, 2)}
    engine = ExecutionEngine(seed=0, cache=RunCache(tmp_path))
    store = ResultStore()
    with engine.cache_scope(shard_summary_key(shard)):
        engine.run_block(env, "amg2023", 32, iterations=3, store=store)
        engine.run_block(env, "amg2023", 32, iterations=3, store=store, options=topology)
    assert (engine.cache.hits, engine.cache.misses) == (3, 3)
    fresh = ResultStore()
    for options in (None, topology):
        ExecutionEngine(seed=0).run_block(
            env, "amg2023", 32, iterations=3, store=fresh, options=options
        )
    assert store.to_csv() == fresh.to_csv()


def test_a_reused_group_counts_runs_only_up_to_its_stop(tmp_path):
    # Per-iteration run() calls never probe past the stop, so sibling
    # runs past it are neither hits nor misses.
    StudyRunner(_roster_config(["amg2023"]), ExecutionOptions(cache_dir=str(tmp_path))).run()
    (shard,) = StudyRunner(_roster_config(["amg2023", "lammps"])).compile().shards
    env = ENVIRONMENTS["cpu-onprem-a"]

    def stop(record):
        return record.iteration >= 1

    engine = ExecutionEngine(seed=0, cache=RunCache(tmp_path))
    store = ResultStore()
    with engine.cache_scope(shard_summary_key(shard)):
        outcome = engine.run_block(env, "amg2023", 32, iterations=3, store=store, stop=stop)
    assert outcome.count == 2
    assert (engine.cache.hits, engine.cache.misses) == (2, 0)
    fresh = ResultStore()
    ExecutionEngine(seed=0).run_block(env, "amg2023", 32, iterations=3, store=fresh, stop=stop)
    assert store.to_csv() == fresh.to_csv()


@pytest.mark.parametrize("fault, label", [
    ("truncated body", "malformed cell entry"),
    ("version skew", "version skew"),
])
def test_malformed_sibling_entry_is_a_counted_miss(tmp_path, fault, label):
    options = ExecutionOptions(cache_dir=str(tmp_path))
    StudyRunner(_roster_config(["amg2023"]), options).run()
    (shard,) = StudyRunner(_roster_config(["amg2023"])).compile().shards
    path = RunCache(tmp_path).path(shard_summary_key(shard))
    path.write_bytes(_FAULTS[fault](path.read_bytes()))
    grown = StudyRunner(_roster_config(["amg2023", "lammps"]), options).run()
    assert (grown.cache_hits, grown.cache_misses) == (0, 6)
    assert (grown.cache_invalid, grown.cache_invalid_reasons) == (1, {label: 1})
    assert (
        grown.store.to_csv()
        == StudyRunner(_roster_config(["amg2023", "lammps"])).run().store.to_csv()
    )


def test_a_cell_that_runs_nothing_reads_no_sibling(tmp_path):
    # Skips never probe, as per-app run() calls would not: the grown
    # roster of an undeployable cell leaves its malformed sibling unread.
    def config(apps):
        return StudyConfig(
            env_ids=("gpu-parallelcluster-aws",), apps=tuple(apps), sizes=(32,), iterations=3
        )

    options = ExecutionOptions(cache_dir=str(tmp_path))
    StudyRunner(config(["amg2023"]), options).run()
    (shard,) = StudyRunner(config(["amg2023"])).compile().shards
    path = RunCache(tmp_path).path(shard_summary_key(shard))
    path.write_bytes(_FAULTS["truncated body"](path.read_bytes()))
    grown = StudyRunner(config(["amg2023", "lammps"]), options).run()
    assert (grown.cache_hits, grown.cache_misses, grown.cache_invalid) == (0, 0, 0)
    assert grown.store.to_csv() == StudyRunner(config(["amg2023", "lammps"])).run().store.to_csv()


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

#: (entry count, :func:`_cell_entries_sha256`) of that run's 28 cell
#: entries, columnar at ``CACHE_VERSION`` 4.  Hashed by cell key, not by
#: path, so the digest holds wherever the cache files an entry; a change
#: to a cell entry's bytes (key, order, value, layout) moves these.
GOLDEN_CELL_ENTRIES = {
    0: (28, "e039796e31f118eb58277ac4e5f981c293289c0ddd5c9da6c1097c18fb68530e"),
    3: (28, "1616f08acbd4bc7b036a1096572a4a800e15cd09ca63e1779b4b7c30faf11a74"),
}


def _cell_entries_sha256(root, config, scenario=None):
    """(count, sha256) over the cell entries of ``config``'s cells.

    Entries are hashed in order of their cell key's last segment (the
    :func:`~repro.sim.cache.shard_key` digest), each as that digest, a
    newline, then the entry's bytes.
    """
    cache = RunCache(root)
    keys = sorted(
        (shard_summary_key(shard).rsplit("/", 1)[-1], shard_summary_key(shard))
        for shard in StudyRunner(config, scenario=scenario).compile().shards
    )
    digest = hashlib.sha256()
    for cell, key in keys:
        digest.update(cell.encode("utf-8") + b"\n")
        digest.update(cache.path(key).read_bytes())
    return len(keys), digest.hexdigest()


def _counting(calls, name, fn):
    def spy(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return spy


def _golden_argv(seed, output, *, cache=None, iterations=GOLDEN_ITERATIONS):
    argv = [
        "study", "--envs", ",".join(GOLDEN_ENVS), "--iterations", str(iterations),
        "--output", str(output), "--seed", str(seed),
    ]
    return argv if cache is None else [*argv, "--cache", str(cache)]


@pytest.fixture(scope="module", params=sorted(GOLDEN_STUDY_CSV_SHA256))
def golden_study(request, tmp_path_factory):
    """The cached study CLI run at one golden seed, into an empty cache.

    ``(seed, directory, calls)``: ``calls`` counts the run's
    ``encode_record`` and ``ExecutionEngine._column_records`` calls, and
    ``directory / "stdout.txt"`` holds what the run printed.
    """
    seed = request.param
    out = tmp_path_factory.mktemp(f"golden-study-{seed}")
    argv = _golden_argv(seed, out / "study.csv", cache=out / "cache")
    calls = collections.Counter()
    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(printed):
        patch.setattr(
            cache_module, "encode_record", _counting(calls, "encode_record", encode_record)
        )
        patch.setattr(
            ExecutionEngine,
            "_column_records",
            _counting(calls, "_column_records", ExecutionEngine._column_records),
        )
        assert main(argv) == 0
    (out / "stdout.txt").write_text(printed.getvalue(), encoding="utf-8")
    return seed, out, calls


def _golden_config(seed):
    return StudyConfig(
        env_ids=GOLDEN_ENVS, apps=tuple(APPS), iterations=GOLDEN_ITERATIONS, seed=seed
    )


def test_cached_study_csv_matches_golden_digest(golden_study):
    seed, out, _ = golden_study
    digest = hashlib.sha256((out / "study.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_STUDY_CSV_SHA256[seed]


def test_cached_study_cell_entries_match_golden_digest(golden_study):
    seed, out, _ = golden_study
    assert (
        _cell_entries_sha256(out / "cache", _golden_config(seed))
        == GOLDEN_CELL_ENTRIES[seed]
    )


def test_cached_study_records_encode_like_the_asdict_reference(golden_study):
    """Every cell entry of the golden run decodes to the records an
    uncached run makes, as the ``asdict`` reference encodes them."""
    seed, out, _ = golden_study
    config = _golden_config(seed)
    cache = RunCache(out / "cache")
    decoded = []
    for shard in StudyRunner(config).compile().shards:
        store, _ = cache.get_columns(shard_summary_key(shard), kind="cell")
        decoded.extend(store.records)
    fresh = StudyRunner(config).run().store.records
    assert len(decoded) == len(fresh) == 28 * 11 * GOLDEN_ITERATIONS
    assert all(
        _reference_bytes(cached) == _reference_bytes(record)
        for cached, record in zip(decoded, fresh)
    )


def test_cold_cached_study_writes_each_record_once_as_columns(golden_study):
    _, _, calls = golden_study
    assert calls["encode_record"] == 0
    assert calls["_column_records"] == 0


def test_cold_cached_study_misses_every_run_into_one_entry_per_cell(golden_study):
    _, out, _ = golden_study
    printed = (out / "stdout.txt").read_text(encoding="utf-8")
    assert "run cache         : 0 hits, 11840 misses\n" in printed
    assert len(RunCache(out / "cache")) == 28


def test_warm_cached_study_hits_every_run(golden_study, tmp_path, capsys):
    seed, out, _ = golden_study
    cache = tmp_path / "cache"
    shutil.copytree(out / "cache", cache)
    capsys.readouterr()
    assert main(_golden_argv(seed, tmp_path / "study.csv", cache=cache)) == 0
    assert "run cache         : 12320 hits, 0 misses\n" in capsys.readouterr().out
    assert (tmp_path / "study.csv").read_bytes() == (out / "study.csv").read_bytes()


def test_grown_cached_study_reuses_every_earlier_run(golden_study, tmp_path, capsys):
    """One more iteration is a new cell key for every cell, so nothing
    attaches; each cell finds its 40 earlier iterations in the sibling
    entry of its batch and simulates only the 41st."""
    seed, out, _ = golden_study
    cache = tmp_path / "cache"
    shutil.copytree(out / "cache", cache)
    grown = GOLDEN_ITERATIONS + 1
    capsys.readouterr()
    assert main(_golden_argv(seed, tmp_path / "grown.csv", cache=cache, iterations=grown)) == 0
    assert "run cache         : 11840 hits, 296 misses\n" in capsys.readouterr().out
    assert main(_golden_argv(seed, tmp_path / "fresh.csv", iterations=grown)) == 0
    assert (tmp_path / "grown.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


#: (entry count, :func:`_cell_entries_sha256`) of the 56 cell entries a
#: cached ``spot-everything`` study over every environment and app at 2
#: iterations writes.  Full precision where the CSV rounds: per-app spot
#: preemption, the cpu-aks-az 256 hookup cutoff, and skipped apps in the
#: middle of a cell's roster.
GOLDEN_SPOT_CELL_ENTRIES = {
    0: (56, "90fc6384270841aa81a1ab9a04e27c09d464302b123d99ff91dc82a8ca8ea5ae"),
    3: (56, "98c0697330a7ed0b941b7c2ae9cf275648b015714695a07c30ce4f66bbacc0f1"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SPOT_CELL_ENTRIES))
def test_cached_spot_study_cell_entries_match_golden_digest(seed, tmp_path):
    spot = scenario("spot-everything")
    config = StudyConfig(
        env_ids=tuple(ENVIRONMENTS), apps=tuple(APPS), iterations=2, seed=seed
    )
    report = StudyRunner(
        config, ExecutionOptions(cache_dir=str(tmp_path)), scenario=spot
    ).run()
    records = report.store.records
    # The three cases the digest anchors are all present.
    assert any(r.failure_kind == "spot-preemption" for r in records)
    assert any(r.state is RunState.SKIPPED for r in records)
    assert [r.iteration for r in records if (r.env_id, r.scale) == ("cpu-aks-az", 256)] == [0] * 11
    assert _cell_entries_sha256(tmp_path, config, spot) == GOLDEN_SPOT_CELL_ENTRIES[seed]
