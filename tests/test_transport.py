"""The shard wire format: how a result store crosses the process pool.

Every store a pool worker returns is pickled: its numeric column arrays
pass through ``pack_columns`` in the worker and ``attach_columns`` in
the parent, and the env/app/scale columns are rebuilt from the cell
labels on arrival (:mod:`repro.parallel.transport`).  The run cache's
columnar entries (``ResultStore.to_bytes``) are the same columns and
payload segments as bytes, and must reproduce the same surfaces.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.parallel.transport import attach_columns, pack_columns
from repro.plan import ExecutionOptions
from repro.sim.cache import decode_record, encode_record
from repro.sim.execution import ExecutionEngine
from repro.sim.run_result import STATE_CODE, RunRecord, RunState
from repro.telemetry import Tracer, use_tracer

#: bytes one record ships: seven numeric typed columns (i8 nodes, i8
#: iteration, i1 state, f8 fom/wall/hookup/cost), the bool ``fom`` None
#: mask and the i8 cell label; env, app and scale never ship
WIRE_BYTES_PER_RECORD = 8 + 8 + 1 + 4 * 8 + 1 + 8


def test_pack_attach_round_trip():
    arrays = {
        "a": np.arange(10, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 7),
        "c": np.array([True, False]),
        "empty": np.array([], dtype=np.float64),
    }
    tracer = Tracer()
    with use_tracer(tracer):
        arrived = attach_columns(pickle.loads(pickle.dumps(pack_columns(arrays))))
    assert list(arrived) == list(arrays)
    for key, arr in arrays.items():
        assert arrived[key].dtype == arr.dtype
        assert np.array_equal(arrived[key], arr)
    assert tracer.names == ["transport.attach"]
    assert tracer.counters["transport.bytes"] == sum(a.nbytes for a in arrays.values())


# -- one property for the one wire format ------------------------------------

_CELLS = st.tuples(
    st.sampled_from(sorted(ENVIRONMENTS)),
    st.sampled_from(sorted(APPS)),
    st.sampled_from([1, 32, 256]),
)
_FLOATS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def _records(draw) -> RunRecord:
    env_id, app, scale = draw(_CELLS)
    return RunRecord(
        env_id=env_id,
        app=app,
        scale=scale,
        nodes=scale,
        iteration=draw(st.integers(0, 9)),
        state=draw(st.sampled_from(list(RunState))),
        fom=draw(st.none() | _FLOATS),
        fom_units=draw(st.sampled_from(["u", "GFLOP/s"])),
        wall_seconds=draw(_FLOATS),
        hookup_seconds=draw(_FLOATS),
        cost_usd=draw(_FLOATS),
        phases={"solve": draw(_FLOATS)},
        failure_kind=draw(st.none() | st.just("timeout")),
        extra=draw(st.sampled_from([{}, {"atoms": 5}, {"topology": (8, 4, 2)}])),
    )


@st.composite
def _blocks(draw) -> dict:
    """``append_block`` arguments, payloads in every shape it accepts."""
    env_id, app, scale = draw(_CELLS)
    n = draw(st.integers(0, 6))

    def column():
        return np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)

    fom_none = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    fom = column()
    fom[fom_none] = np.nan
    states = draw(st.lists(st.sampled_from(list(RunState)), min_size=n, max_size=n))
    phases = draw(st.sampled_from(["const", "leaves", "nested", "rows"]))
    return dict(
        env_id=env_id,
        app=app,
        scale=scale,
        nodes=scale,
        iteration=np.arange(n, dtype=np.int64),
        state=np.array([STATE_CODE[s] for s in states], dtype=np.int8),
        fom=fom,
        fom_none=fom_none,
        wall_seconds=column(),
        hookup_seconds=column(),
        cost_usd=column(),
        fom_units="u",
        failure_kind=draw(st.sampled_from([None, "timeout", ["oom"] * n])),
        # Per-iteration arrays as dict leaves are what the engine ships.
        phases={
            "const": {"solve": 1.0},
            "leaves": {"solve": column(), "setup": 2.0},
            "nested": {"ranks": {"solve": column()}},
            "rows": [{"solve": float(i)} for i in range(n)],
        }[phases],
        # String leaves are ones a cache entry stores as rows.
        extra=draw(
            st.sampled_from([{}, {"atoms": np.arange(n)}, {"tags": np.array(["x"] * n)}])
        ),
    )


@st.composite
def _stores(draw) -> ResultStore:
    """Random interleavings of ``add`` and ``append_block``, in RAM or
    spilled to unlinked temp files; possibly empty."""
    store = ResultStore(spill_bytes=draw(st.sampled_from([None, 0])))
    ops = st.one_of(_records().map(lambda r: ("add", r)), _blocks().map(lambda b: ("block", b)))
    for kind, arg in draw(st.lists(ops, max_size=6)):
        if kind == "add":
            store.add(arg)
        else:
            store.append_block(**arg)
    return store


def _assert_same_columns(arrived: ResultStore, store: ResultStore) -> None:
    """CSV, frame columns and cell index all match ``store``'s."""
    assert arrived.to_csv() == store.to_csv()
    sent, got = store.frame_columns(), arrived.frame_columns()
    assert list(got) == list(sent)
    for name, column in sent.items():
        assert got[name].dtype == column.dtype
        assert np.array_equal(got[name], column, equal_nan=column.dtype.kind == "f")
    cells, labels = store.cell_index()
    got_cells, got_labels = arrived.cell_index()
    assert got_cells == cells
    assert np.array_equal(got_labels, labels)


@settings(max_examples=80, deadline=None)
@given(store=_stores())
def test_pickled_store_reproduces_every_surface(store):
    tracer = Tracer()
    with use_tracer(tracer):
        arrived = pickle.loads(pickle.dumps(store))
    _assert_same_columns(arrived, store)
    assert arrived.records == store.records
    shipped = tracer.counters["transport.bytes"]
    assert shipped == len(store) * WIRE_BYTES_PER_RECORD == arrived.wire_bytes


@settings(max_examples=80, deadline=None)
@given(store=_stores(), blob=st.binary(max_size=48))
def test_columnar_entry_reproduces_every_surface(store, blob):
    data = store.to_bytes(kind="cell", v=1, blob=blob, note={"n": len(store)})
    arrived, header, got_blob = ResultStore.from_bytes(data, kind="cell", v=1)
    _assert_same_columns(arrived, store)
    # Payloads come back as JSON made them: a tuple as a list.
    assert arrived.records == [
        decode_record(json.loads(json.dumps(encode_record(r)))) for r in store.records
    ]
    assert got_blob == blob
    assert header["note"] == {"n": len(store)}


def test_store_pickled_state_is_stable_across_trips():
    """An engine-made store, phases and extras included, re-pickles on
    arrival to exactly the state it was sent as."""
    store = ResultStore()
    ExecutionEngine(seed=0).run_block(
        ENVIRONMENTS["cpu-eks-aws"], "lammps", 32, iterations=64, store=store
    )
    blob = pickle.dumps(store)
    arrived = pickle.loads(blob)
    assert arrived.to_csv() == store.to_csv()
    assert pickle.dumps(arrived) == blob


# -- what crossed the pool ---------------------------------------------------


def test_study_reports_pool_transport():
    config = StudyConfig.smoke()
    tracer = Tracer()
    with use_tracer(tracer):
        report = StudyRunner(config, ExecutionOptions(workers=2)).run()
    # Every shard's store came back from a worker, through attach_columns.
    assert report.transport.stores == len(StudyRunner(config).compile().shards)
    assert report.transport.bytes == report.datasets * WIRE_BYTES_PER_RECORD
    assert tracer.counters["transport.bytes"] == report.transport.bytes


def test_study_inline_run_reports_inline():
    report = StudyRunner(StudyConfig.smoke(), ExecutionOptions(workers=1)).run()
    # workers=1 never crosses a process boundary: nothing ships.
    assert (report.transport.stores, report.transport.bytes) == (0, 0)


@pytest.mark.parametrize("workers, line", [
    ("1", None),
    ("2", "shard transport   : 2 stores, 464 B shipped (232 B/store)\n"),
])
def test_transport_line_prints_only_when_stores_shipped(workers, line, capsys):
    argv = ["study", "--envs", "cpu-eks-aws,cpu-onprem-a", "--apps",
            "amg2023,lammps", "--sizes", "32", "--iterations", "2"]
    assert main([*argv, "--workers", workers]) == 0
    err = capsys.readouterr().err
    assert ("shard transport" in err) == (line is not None)
    if line is not None:
        assert line in err
