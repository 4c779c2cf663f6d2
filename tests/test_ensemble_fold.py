"""Ensemble shards fold where they run: the guards on the worker fold.

An ensemble shard reduces its store to per-cell aggregate rows
(:func:`~repro.ensemble.runner.fold_cells`) in the process that
simulated it, and the parent sorts the rows of a world into its summary.
The property below holds that summary to the merged-frame fold it
replaced, byte for byte; the spies hold the default plan to one
resolution per cell, no per-group generator and no store on the wire.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.sim.execution as execution
from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.ensemble.runner import WORLD_SUMMARY_VERSION, fold_cells
from repro.envs.registry import ENVIRONMENTS
from repro.plan import ExecutionOptions, PlanExecutor, compile_ensemble
from repro.scenarios import scenario
from repro.telemetry import Tracer, merge_trace, use_tracer

ENV_IDS = tuple(ENVIRONMENTS)
APP_NAMES = tuple(APPS)
SIZES = (32, 64, 128, 256)
#: baseline, spot preemption, a quota squeeze that abandons cells, and
#: a scenario that adds billing-lag incidents
SCENARIOS = (None, "spot-everything", "quota-crunch", "laggy-bills")


def _reference_summary(shard_results) -> dict:
    """A world's summary as the ensemble folded it before shards folded
    their own stores: merge the stores, fold the merged frame."""
    frame = ResultStore.merge(shard.store for shard in shard_results).to_frame()
    return {
        "v": WORLD_SUMMARY_VERSION,
        "cells": frame.cell_aggregates().rows(),
        "spend": sum(
            usd for shard in shard_results for usd in shard.spend_by_cloud.values()
        ),
        "incidents": sum(len(shard.incidents) for shard in shard_results),
    }


def _spec(envs, apps, sizes, iterations, seed, replicas, scenario_id) -> EnsembleSpec:
    return EnsembleSpec(
        n_replicas=replicas,
        base_seed=seed,
        scenarios=(scenario(scenario_id),) if scenario_id else (),
        env_ids=tuple(envs),
        apps=tuple(apps),
        sizes=tuple(sizes),
        iterations=iterations,
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    envs=st.lists(st.sampled_from(ENV_IDS), min_size=1, max_size=4, unique=True),
    apps=st.lists(st.sampled_from(APP_NAMES), min_size=1, max_size=4, unique=True),
    sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=3, unique=True),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 1000),
    replicas=st.integers(1, 3),
    scenario_id=st.sampled_from(SCENARIOS),
)
# GPU and undeployable environments, spot preemption, a quota squeeze
@example(
    envs=["gpu-parallelcluster-aws", "gpu-aks-az", "cpu-eks-aws"],
    apps=["amg2023", "mt-gemm", "osu"], sizes=[32, 256], iterations=2,
    seed=0, replicas=1, scenario_id="spot-everything",
)
@example(
    envs=["gpu-eks-aws", "cpu-aks-az", "cpu-onprem-a"],
    apps=["lammps", "stream"], sizes=[64, 128, 256], iterations=3,
    seed=3, replicas=2, scenario_id="quota-crunch",
)
# a baseline world granted its AWS GPU quota only at the 12th request
@example(
    envs=["cpu-onprem-a", "gpu-eks-aws"], apps=["amg2023"], sizes=[256],
    iterations=1, seed=382, replicas=3, scenario_id=None,
)
def test_worker_fold_equals_the_merged_frame_fold(
    envs, apps, sizes, iterations, seed, replicas, scenario_id
):
    plan = compile_ensemble(
        _spec(envs, apps, sizes, iterations, seed, replicas, scenario_id)
    )
    stores = PlanExecutor(plan).iter_world_results()
    folded = PlanExecutor(plan, fold=fold_cells).iter_world_results()
    for (world, results), (same, folded_results) in zip(stores, folded, strict=True):
        assert same.index == world.index
        assert all(r.store is None and r.cells is not None for r in folded_results)
        summary = EnsembleRunner._world_summary(folded_results)
        reference = _reference_summary(results)
        assert json.dumps(summary) == json.dumps(reference)


@pytest.fixture(scope="module")
def default_plan_spies():
    """The default 8-replica plan run inline under two spies: one on
    ``_effective_fabric`` (placement sampling and the topology model),
    one on ``ExecutionEngine.run`` (one record at a time) collecting the
    state of every record it returns."""
    fabric_calls: Counter = Counter()
    run_states = []
    effective_fabric = execution.ExecutionEngine._effective_fabric
    run = execution.ExecutionEngine.run

    def fabric_spy(self, env, nodes):
        fabric_calls[(self.seed, env.env_id, nodes)] += 1
        return effective_fabric(self, env, nodes)

    def run_spy(self, *args, **kwargs):
        record = run(self, *args, **kwargs)
        run_states.append(record.state)
        return record

    mp = pytest.MonkeyPatch()
    mp.setattr(execution.ExecutionEngine, "_effective_fabric", fabric_spy)
    mp.setattr(execution.ExecutionEngine, "run", run_spy)
    try:
        spec = EnsembleSpec(n_replicas=8)
        result = EnsembleRunner(spec).run()
    finally:
        mp.undo()
    return spec, result, fabric_calls, run_states


def test_default_plan_resolves_each_cell_once(default_plan_spies):
    spec, result, fabric_calls, _ = default_plan_spies
    assert result.worlds == 8
    deployable = [
        shard for shard in compile_ensemble(spec).shards
        if ENVIRONMENTS[shard.env_id].deployable
    ]
    assert len(deployable) == 8 * 52
    assert set(fabric_calls.values()) == {1}
    assert sorted(fabric_calls) == sorted(
        (shard.seed, shard.env_id, ENVIRONMENTS[shard.env_id].nodes_for(shard.scale))
        for shard in deployable
    )


def test_default_plan_simulates_no_run_one_record_at_a_time(default_plan_spies):
    """Every cell is one ``run_cell`` block, the undeployable
    environment's skips (8 worlds x 4 sizes x 11 apps) included, so
    ``run()`` records nothing."""
    _, result, _, run_states = default_plan_spies
    assert run_states == []
    skipped = sum(
        stats.worlds for (_, env_id, _, _), stats in result.cells.items()
        if not ENVIRONMENTS[env_id].deployable
    )
    assert skipped == 8 * 4 * 11


def test_traced_ensemble_ships_no_store():
    tracer = Tracer()
    with use_tracer(tracer):
        result = EnsembleRunner(
            EnsembleSpec(n_replicas=8), ExecutionOptions(workers=2)
        ).run()
    assert result.worlds == 8
    doc = merge_trace(tracer)
    assert len(doc["lanes"]) > 1  # the shards ran in worker processes
    names = Counter(span["name"] for lane in doc["lanes"] for span in lane["spans"])
    assert names["shard.execute"] == 8 * 56
    assert names["ensemble.fold"] == 8
    assert names["transport.attach"] == 0
    assert doc["counters"].get("transport.bytes", 0) == 0
