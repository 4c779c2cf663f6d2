"""ResultStore tests."""

import pytest

from repro.core.results import ResultStore
from repro.envs.registry import environment
from repro.sim.execution import ExecutionEngine
from repro.sim.run_result import RunRecord, RunState


@pytest.fixture
def store():
    engine = ExecutionEngine(seed=0)
    s = ResultStore()
    for app in ("amg2023", "lammps"):
        for scale in (32, 64):
            for it in range(3):
                s.add(engine.run(environment("cpu-eks-aws"), app, scale, iteration=it))
                s.add(engine.run(environment("cpu-onprem-a"), app, scale, iteration=it))
    return s


def test_len(store):
    assert len(store) == 24


def test_query_filters(store):
    assert len(store.query(env_id="cpu-eks-aws")) == 12
    assert len(store.query(app="lammps")) == 12
    assert len(store.query(env_id="cpu-eks-aws", app="lammps", scale=32)) == 3
    assert len(store.query(predicate=lambda r: r.iteration == 0)) == 8


def test_completed_and_foms(store):
    foms = store.foms("cpu-eks-aws", "amg2023", 32)
    assert len(foms) == 3
    assert all(f > 0 for f in foms)


def test_environments_apps_scales(store):
    assert store.environments() == ["cpu-eks-aws", "cpu-onprem-a"]
    assert store.apps() == ["amg2023", "lammps"]
    assert store.scales("cpu-eks-aws", "lammps") == [32, 64]


def test_counts_by_state(store):
    counts = store.counts_by_state()
    assert counts[RunState.COMPLETED] == 24


def test_total_cost_positive(store):
    assert store.total_cost() > 0


def test_csv_roundtrippable(store):
    import csv
    import io

    text = store.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 24
    assert set(rows[0]) == set(ResultStore.CSV_FIELDS)
    assert rows[0]["state"] == "completed"
    assert float(rows[0]["fom"]) > 0


@pytest.mark.parametrize("slice_rows", [1, 5])
def test_csv_does_not_depend_on_the_slice_size(store, monkeypatch, slice_rows):
    # Row-appended records, then blocks with timeouts and skips: payload
    # segments of every kind cross the slice boundaries.
    engine = ExecutionEngine(seed=0)
    for env_id, app, scale in (
        ("cpu-eks-aws", "laghos", 256),
        ("gpu-parallelcluster-aws", "lammps", 32),
        ("cpu-aks-az", "amg2023", 32),
    ):
        engine.run_block(environment(env_id), app, scale, iterations=3, store=store)
    expected = store.to_csv()
    assert "walltime" in expected and "skipped" in expected
    monkeypatch.setattr(ResultStore, "_CSV_SLICE_ROWS", slice_rows)
    assert store.to_csv() == expected


def test_artifact_payload(store):
    name, payload = store.to_artifact("study")
    assert name == "study.csv"
    assert payload.decode().startswith("env_id,")


def test_empty_store():
    s = ResultStore()
    assert len(s) == 0
    assert s.environments() == []
    assert s.foms("x", "y", 1) == []
    assert s.total_cost() == 0.0


# -- merge edge cases --------------------------------------------------------


def _single_record_store(env="e1", iteration=0):
    store = ResultStore()
    store.add(
        RunRecord(
            env_id=env, app="a", scale=32, nodes=32, iteration=iteration,
            state=RunState.COMPLETED, fom=1.0, fom_units="u",
            wall_seconds=1.0, hookup_seconds=0.0, cost_usd=0.5,
        )
    )
    return store


def test_merge_of_no_stores_is_empty():
    merged = ResultStore.merge([])
    assert len(merged) == 0
    assert merged.to_csv().splitlines() == [",".join(ResultStore.CSV_FIELDS)]


def test_merge_with_empty_stores_preserves_order(store):
    merged = ResultStore.merge([ResultStore(), store, ResultStore()])
    assert merged.records == store.records
    assert merged.to_csv() == store.to_csv()


def test_merge_of_only_empty_stores():
    merged = ResultStore.merge([ResultStore(), ResultStore()])
    assert len(merged) == 0
    assert merged.counts_by_state() == {}


def test_merge_single_record_stores_concatenates_in_given_order():
    stores = [_single_record_store(env=f"e{i}", iteration=i) for i in range(3)]
    merged = ResultStore.merge(stores)
    assert [r.env_id for r in merged] == ["e0", "e1", "e2"]
    assert [r.iteration for r in merged] == [0, 1, 2]
    assert merged.total_cost() == pytest.approx(1.5)


def test_merge_does_not_alias_source_stores():
    source = _single_record_store()
    merged = ResultStore.merge([source])
    merged.add(_single_record_store(env="e2").records[0])
    assert len(source) == 1  # the source store is untouched
