"""Columnar frame aggregation vs the per-record loop, plus ensemble paths.

The ensemble engine's fold converts each world's records to a NumPy
structured array once and aggregates on typed columns.  These
benchmarks put numbers on the two claims that justify the design:

* **cell aggregation** over a paper-scale (≥25k record) store is at
  least 10x faster through the columnar frame than through the
  equivalent per-record Python loop — and produces identical numbers;
* a **world-summary-cached** ensemble re-run is far cheaper than the
  cold run it replays.

Both results land in ``BENCH_ensemble.json`` via the conftest's
:func:`record_timing`, so the bench trajectory tracks them run over run.
"""

from __future__ import annotations

import math
import time

import numpy as np

from benchmarks.conftest import record_timing
from repro.core.results import ResultStore
from repro.ensemble import EnsembleRunner, EnsembleSpec, ResultFrame
from repro.plan import ExecutionOptions
from repro.sim.run_result import RunRecord, RunState

#: 16 envs x 10 apps x 4 scales x 40 iterations = 25,600 records
_ENVS = tuple(f"env-{i:02d}" for i in range(16))
_APPS = tuple(f"app-{i}" for i in range(10))
_SCALES = (32, 64, 128, 256)
_ITERATIONS = 40


def _synthetic_store() -> ResultStore:
    """A deterministic paper-scale store (25,600 records)."""
    store = ResultStore()
    state_cycle = (
        RunState.COMPLETED, RunState.COMPLETED, RunState.COMPLETED,
        RunState.COMPLETED, RunState.FAILED, RunState.COMPLETED,
        RunState.COMPLETED, RunState.TIMEOUT,
    )
    n = 0
    for env in _ENVS:
        for app in _APPS:
            for scale in _SCALES:
                for it in range(_ITERATIONS):
                    state = state_cycle[n % len(state_cycle)]
                    completed = state is RunState.COMPLETED
                    store.add(
                        RunRecord(
                            env_id=env, app=app, scale=scale, nodes=scale,
                            iteration=it, state=state,
                            fom=(100.0 + math.sin(n) * 10.0) if completed else None,
                            fom_units="u",
                            wall_seconds=60.0 + (n % 17),
                            hookup_seconds=5.0,
                            cost_usd=0.01 * scale + (n % 7) * 0.001,
                        )
                    )
                    n += 1
    return store


def _python_cell_aggregates(store: ResultStore) -> dict:
    """The per-record reference loop the columnar fold replaces."""
    cells: dict = {}
    for r in store.records:
        key = (r.env_id, r.app, r.scale)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = {
                "records": 0, "completed": 0,
                "fom_sum": 0.0, "wall_sum": 0.0, "cost_total": 0.0,
            }
        cell["records"] += 1
        cell["cost_total"] += r.cost_usd
        if r.state is RunState.COMPLETED and r.fom is not None:
            cell["completed"] += 1
            cell["fom_sum"] += r.fom
            cell["wall_sum"] += r.wall_seconds
    for cell in cells.values():
        n = cell["completed"]
        cell["fom_mean"] = cell["fom_sum"] / n if n else None
        cell["wall_mean"] = cell["wall_sum"] / n if n else None
    return cells


def _best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_columnar_aggregation_vs_python_loop():
    """Acceptance: >=10x over the per-record loop at >=25k records."""
    store = _synthetic_store()
    assert len(store) >= 25_000

    frame = ResultFrame.from_store(store)  # one conversion per store
    frame.cell_aggregates()  # warm-up

    t_frame = _best_of(frame.cell_aggregates, repeats=5)
    t_loop = _best_of(lambda: _python_cell_aggregates(store), repeats=3)
    speedup = t_loop / t_frame

    # Identical numbers, not just faster ones: bincount accumulates in
    # record order, so the sums are bit-identical to the loop's.
    agg = frame.cell_aggregates()
    reference = _python_cell_aggregates(store)
    assert len(agg) == len(reference)
    for i in range(len(agg)):
        cell = reference[(str(agg.env[i]), str(agg.app[i]), int(agg.scale[i]))]
        assert int(agg.records[i]) == cell["records"]
        assert int(agg.completed[i]) == cell["completed"]
        assert float(agg.cost_total[i]) == cell["cost_total"]
        assert float(agg.fom_mean[i]) == cell["fom_mean"]

    record_timing(
        "ensemble::columnar_aggregation",
        t_frame,
        kind="speedup-claim",
        records=len(store),
        cells=len(agg),
        python_loop_seconds=t_loop,
        speedup=speedup,
    )
    print(f"\n{len(store)} records: loop {t_loop*1e3:.2f}ms, "
          f"frame {t_frame*1e3:.3f}ms -> {speedup:.1f}x")
    assert speedup >= 10.0, f"columnar aggregation only {speedup:.1f}x"


def test_bench_world_summary_cache(tmp_path):
    """A warm ensemble replays folded summaries: no simulation at all."""
    spec = EnsembleSpec(
        n_replicas=4,
        env_ids=("cpu-eks-aws", "cpu-onprem-a"),
        apps=("amg2023", "lammps"),
        sizes=(32, 64),
        iterations=2,
    )
    t0 = time.perf_counter()
    cold = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path))).run()
    t_cold = time.perf_counter() - t0
    assert cold.world_cache_misses == 4

    t0 = time.perf_counter()
    warm = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path))).run()
    t_warm = time.perf_counter() - t0
    assert warm.world_cache_hits == 4
    assert warm.render() == cold.render()

    speedup = t_cold / t_warm
    record_timing(
        "ensemble::world_cache_warm_run",
        t_warm,
        kind="speedup-claim",
        cold_seconds=t_cold,
        worlds=cold.worlds,
        speedup=speedup,
    )
    print(f"\ncold {t_cold:.3f}s, warm {t_warm:.3f}s -> {speedup:.1f}x")
    assert speedup >= 2.0, f"world-cache warm run only {speedup:.1f}x"
