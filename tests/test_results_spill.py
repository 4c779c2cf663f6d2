"""Out-of-core result stores: spill thresholds, equality, round trips."""

from __future__ import annotations

import pickle

import numpy as np

from repro.core.results import (
    SPILL_ENV,
    ResultStore,
    set_spill_limit_mb,
    spill_limit_bytes,
)
from repro.envs.registry import ENVIRONMENTS
from repro.sim.execution import ExecutionEngine
from repro.telemetry import Tracer, use_tracer


def _filled(spill_bytes, iterations: int = 200) -> ResultStore:
    store = ResultStore(spill_bytes=spill_bytes)
    engine = ExecutionEngine(seed=0)
    engine.run_block(
        ENVIRONMENTS["cpu-eks-aws"], "lammps", 32, iterations=iterations, store=store
    )
    engine.run_block(
        ENVIRONMENTS["cpu-onprem-a"], "amg2023", 64, iterations=iterations, store=store
    )
    return store


def _spilled_columns(store: ResultStore) -> list[str]:
    return [
        name
        for name, buf in store._cols.items()
        if getattr(buf, "_mmap", None) is not None
    ]


def test_spilled_store_equals_in_ram_store():
    in_ram = _filled(spill_bytes=None)
    spilled = _filled(spill_bytes=0)
    assert _spilled_columns(spilled), "threshold 0 must spill every column"
    assert not _spilled_columns(in_ram)
    assert spilled.to_csv() == in_ram.to_csv()
    for name, col in in_ram.frame_columns().items():
        assert np.array_equal(spilled.frame_columns()[name], col)


def test_to_frame_stays_zero_copy_when_spilled():
    store = _filled(spill_bytes=0)
    view = store.frame_columns()["fom"]
    buf = store._cols["fom"]
    assert view.base is not None  # a view over the mmap, not a copy
    assert len(view) == len(store)
    assert np.array_equal(view, np.asarray(buf.view()))


def test_threshold_boundary():
    """A column spills exactly when its byte size crosses the limit."""
    iterations = 512  # float64 columns: 4096 bytes
    below = _filled(spill_bytes=4096 * 64, iterations=iterations)
    above = _filled(spill_bytes=128, iterations=iterations)
    assert not _spilled_columns(below)
    assert "fom" in _spilled_columns(above)
    assert below.to_csv() == above.to_csv()


def test_spilled_store_pickle_round_trip():
    store = _filled(spill_bytes=0)
    loaded = pickle.loads(pickle.dumps(store))
    assert loaded.to_csv() == store.to_csv()


def test_spilled_store_transport_round_trip():
    """A spilled store crosses the pool with its file-backed columns
    shipped by value; the arrival holds them in RAM."""
    store = _filled(spill_bytes=0)
    assert _spilled_columns(store)
    tracer = Tracer()
    with use_tracer(tracer):
        loaded = pickle.loads(pickle.dumps(store))
    assert tracer.counters["transport.bytes"] == store.wire_bytes > 0
    assert not _spilled_columns(loaded)
    assert loaded.to_csv() == store.to_csv()


def test_absorb_across_spill_modes():
    spilled = _filled(spill_bytes=0)
    in_ram = _filled(spill_bytes=None)
    a = ResultStore(spill_bytes=None)
    a.absorb(spilled)
    b = ResultStore(spill_bytes=0)
    b.absorb(in_ram)
    assert a.to_csv() == b.to_csv() == in_ram.to_csv()


def test_env_knob_round_trip(monkeypatch):
    monkeypatch.delenv(SPILL_ENV, raising=False)
    assert spill_limit_bytes() is None
    set_spill_limit_mb(2.5)
    assert spill_limit_bytes() == int(2.5 * (1 << 20))
    set_spill_limit_mb(None)
    assert spill_limit_bytes() is None


def test_env_knob_ignores_garbage(monkeypatch):
    monkeypatch.setenv(SPILL_ENV, "not-a-number")
    assert spill_limit_bytes() is None
    monkeypatch.setenv(SPILL_ENV, "-3")
    assert spill_limit_bytes() is None


def test_env_knob_drives_default_stores(monkeypatch):
    monkeypatch.setenv(SPILL_ENV, "0")
    store = ResultStore()  # no explicit spill_bytes: reads the env knob
    engine = ExecutionEngine(seed=0)
    engine.run_block(
        ENVIRONMENTS["cpu-eks-aws"], "lammps", 32, iterations=64, store=store
    )
    assert _spilled_columns(store)
