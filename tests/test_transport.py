"""Zero-copy shard transport: pack/attach, fallback, identity, leaks."""

from __future__ import annotations

import gc
import os
import pickle

import numpy as np
import pytest

from repro.core.results import ResultStore
from repro.core.study import StudyConfig, StudyRunner
from repro.errors import ShardExecutionError
from repro.parallel.pool import pmap
from repro.parallel.transport import (
    SHM_PREFIX,
    attach_columns,
    pack_columns,
    reap_segments,
    shm_available,
)
from repro.plan import ExecutionOptions
from repro.sim.execution import ExecutionEngine

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

DEV_SHM = "/dev/shm"


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(DEV_SHM) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test in this module must leave /dev/shm as it found it."""
    before = _shm_segments()
    yield
    gc.collect()
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _sample_store(n: int = 64) -> ResultStore:
    engine = ExecutionEngine(seed=0)
    from repro.envs.registry import ENVIRONMENTS

    store = ResultStore()
    engine.run_block(
        ENVIRONMENTS["cpu-eks-aws"], "lammps", 32, iterations=n, store=store
    )
    return store


# -- pack/attach ------------------------------------------------------------


def test_pack_attach_round_trip():
    arrays = {
        "a": np.arange(10, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 7),
        "c": np.array(["x", "yy", "zzz"], dtype="U4"),
        "empty": np.array([], dtype=np.float64),
    }
    descriptor = pack_columns(arrays)
    assert descriptor is not None
    assert descriptor["name"].startswith(SHM_PREFIX)
    views = attach_columns(descriptor)
    for key, arr in arrays.items():
        assert np.array_equal(views[key], arr)
        assert views[key].dtype == arr.dtype
    # The attach already unlinked the segment: nothing left on /dev/shm.
    assert descriptor["name"] not in _shm_segments()


def test_attached_views_alias_one_block():
    arrays = {"a": np.arange(4, dtype=np.int64), "b": np.zeros(3)}
    views = attach_columns(pack_columns(arrays))
    assert views["a"].base is not None
    assert views["b"].base is not None


def test_column_offsets_are_cache_aligned():
    descriptor = pack_columns(
        {"a": np.zeros(3, dtype=np.int8), "b": np.zeros(5, dtype=np.float64)}
    )
    try:
        for _, _, _, offset in descriptor["cols"]:
            assert offset % 64 == 0
    finally:
        attach_columns(descriptor)  # consume (attach unlinks)


# -- store pickling ---------------------------------------------------------


def test_store_shm_state_matches_plain_pickle():
    store = _sample_store()
    plain = pickle.loads(pickle.dumps(store))
    store.mark_transport("shm")
    via_shm = pickle.loads(pickle.dumps(store))
    assert via_shm.to_csv() == plain.to_csv() == store.to_csv()
    assert via_shm.transport_stats is not None
    assert via_shm.transport_stats["mode"] == "shm"
    assert via_shm.transport_stats["copied_bytes"] == 0
    assert plain.transport_stats is None


def test_shm_descriptor_is_small():
    store = _sample_store(256)
    plain_blob = pickle.dumps(store)
    store.mark_transport("shm")
    shm_blob = pickle.dumps(store)
    pickle.loads(shm_blob)  # consume the segment
    assert len(shm_blob) < len(plain_blob) / 2


def test_mark_never_ships():
    store = _sample_store(8)
    store.mark_transport("shm")
    loaded = pickle.loads(pickle.dumps(store))
    # An unpickled store is always unmarked: re-pickling it is plain.
    assert pickle.loads(pickle.dumps(loaded)).transport_stats is None


def test_pack_failure_falls_back_to_plain_pickle(monkeypatch):
    import repro.parallel.transport as transport

    monkeypatch.setattr(transport, "pack_columns", lambda arrays: None)
    store = _sample_store(8)
    store.mark_transport("shm")
    loaded = pickle.loads(pickle.dumps(store))
    assert loaded.transport_stats is None
    assert loaded.to_csv() == store.to_csv()


def test_absorb_copies_out_of_the_block():
    store = _sample_store(32)
    store.mark_transport("shm")
    arrived = pickle.loads(pickle.dumps(store))
    merged = ResultStore()
    merged.absorb(arrived)
    del arrived
    gc.collect()
    # The merged store owns its buffers — the block is long gone.
    assert merged.to_csv() == store.to_csv()


# -- through the real pool --------------------------------------------------


def _study_csv(workers: int, transport: str) -> str:
    runner = StudyRunner(
        StudyConfig.smoke(),
        ExecutionOptions(workers=workers, transport=transport),
    )
    return runner.run().store.to_csv()


def test_study_byte_identical_across_transports():
    reference = _study_csv(1, "pickle")
    assert _study_csv(4, "pickle") == reference
    assert _study_csv(4, "shm") == reference


def test_study_reports_shm_transport():
    runner = StudyRunner(
        StudyConfig.smoke(),
        ExecutionOptions(workers=2, transport="shm"),
    )
    report = runner.run()
    assert report.transport is not None
    assert report.transport.mode == "shm"
    assert report.transport.blocks > 0
    assert report.transport.bytes > 0
    assert report.transport.copied_bytes == 0


def test_study_inline_run_reports_inline():
    runner = StudyRunner(
        StudyConfig.smoke(),
        ExecutionOptions(workers=1, transport="shm"),
    )
    report = runner.run()
    # workers=1 never crosses a process boundary: no packing happens.
    assert report.transport is not None
    assert report.transport.mode == "inline"
    assert report.transport.blocks == 0


def _build_marked_store(n: int) -> ResultStore:
    if n < 0:
        raise RuntimeError("boom")
    store = ResultStore()
    engine = ExecutionEngine(seed=0)
    from repro.envs.registry import ENVIRONMENTS

    engine.run_block(
        ENVIRONMENTS["cpu-eks-aws"], "lammps", 32, iterations=8, store=store
    )
    store.mark_transport("shm")
    return store


def test_no_orphans_after_failing_worker():
    """A worker raising mid-batch must not strand /dev/shm segments.

    Successful items' stores are packed in the workers; the pool's
    teardown waits for in-flight futures, every delivered result is
    unpickled (attached + unlinked) before the error propagates.  The
    fatal error surfaces as the typed wrapper, original cause chained.
    """
    with pytest.raises(ShardExecutionError, match="boom"):
        pmap(_build_marked_store, [4, 8, -1, 16], workers=2)
    # the autouse fixture asserts nothing leaked


# -- kill-during-pack (the retry path re-packs into a fresh segment) --------


import dataclasses as _dc
import signal


@_dc.dataclass(frozen=True)
class _KillItem:
    """A mapped value the pool stamps retry attempts onto."""

    value: int
    attempt: int = 0


def _pack_then_maybe_die(item: _KillItem) -> ResultStore:
    if item.value < 0 and item.attempt == 0:
        # Model a worker killed mid-pack: the segment exists (named with
        # this worker's pid) but its descriptor never reaches the parent.
        pack_columns({"orphan": np.arange(512, dtype=np.int64)})
        os.kill(os.getpid(), signal.SIGKILL)
    return _build_marked_store(8)


def test_kill_during_pack_reaps_orphan_and_repacks():
    """A worker killed mid-pack strands a segment nobody will attach.

    The pool's rebuild must reap the dead worker's segment, and the
    requeued flight must re-pack into a *fresh* segment — delivering a
    result identical to an undisturbed run (the leak fixture holds the
    /dev/shm invariant).
    """
    expected = _build_marked_store(8).to_csv()
    results = pmap(
        _pack_then_maybe_die,
        [_KillItem(1), _KillItem(-1), _KillItem(2)],
        workers=2,
    )
    assert [pickle.loads(pickle.dumps(r)).to_csv() for r in results] == [expected] * 3


def test_reap_segments_sweeps_only_dead_pids():
    from multiprocessing import shared_memory

    from repro.parallel.transport import _untrack

    dead = shared_memory.SharedMemory(
        name=f"{SHM_PREFIX}999999-deadbeef", create=True, size=16
    )
    _untrack(dead.name)
    dead.close()
    live = shared_memory.SharedMemory(
        name=f"{SHM_PREFIX}{os.getpid()}-cafe", create=True, size=16
    )
    try:
        assert reap_segments([999999]) == 1
        assert f"{SHM_PREFIX}999999-deadbeef" not in _shm_segments()
        assert f"{SHM_PREFIX}{os.getpid()}-cafe" in _shm_segments()
    finally:
        live.close()
        live.unlink()
