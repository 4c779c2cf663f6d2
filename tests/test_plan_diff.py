"""Incremental plan execution: the differential-testing harness.

These tests prove the diff-aware reuse in :mod:`repro.plan.diff` sound:

* **Classification** — a diff of a plan against itself is 100%
  reusable; a baseline-equivalent world diffs empty; a single-cloud
  perturbation dirties exactly that cloud's cells with its overlay
  hook named; seeded-random overlay subsets classify exactly as the
  perturbations' own ``touches`` predicates say they should.
* **Byte-identity** — incremental sweeps produce per-scenario datasets
  byte-identical to from-scratch sweeps at ``workers=1`` and
  ``workers=4``, and an empty-diff plan attaches 100% of its cells.
* **Invalidation soundness** — mutating any single perturbation field
  (one field at a time, every field of every type) re-simulates the
  cells that field touches and *only* those, and the incremental
  result is still byte-identical to a from-scratch run of the mutated
  scenario.
* **Degradation** — truncated or schema-broken cell- and world-summary
  entries on the reuse path flow through
  :meth:`~repro.sim.cache.RunCache.note_invalid` and surface in the
  ``reuse``/``invalid`` counters; the affected cells re-execute and
  results stay correct.  Reuse degrades loudly, never silently.
"""

import dataclasses
import json
import random

import pytest

from repro.core.study import StudyConfig
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.envs.registry import ENVIRONMENTS
from repro.errors import ConfigurationError
from repro.parallel.merge import merge_shard_results
from repro.parallel.shard import shard_summary_key
from repro.plan import ExecutionOptions, PlanExecutor, compile_study, diff_plans
from repro.scenarios import (
    FabricDegradation,
    FaultScaling,
    PriceShock,
    QuotaSqueeze,
    ReportingShift,
    Scenario,
    ScenarioSweep,
    SpotMarket,
)
from repro.scenarios.spec import active
from repro.sim.cache import RunCache

#: one environment per cloud, so every ``touches(cloud)`` branch is live
CLOUD_ENVS = {
    "aws": "cpu-eks-aws",
    "az": "cpu-aks-az",
    "g": "cpu-gke-g",
    "p": "cpu-onprem-a",
}


def _config(seed=0):
    return StudyConfig(
        env_ids=tuple(CLOUD_ENVS.values()),
        apps=("amg2023",),
        sizes=(32,),
        iterations=2,
        seed=seed,
    )


def _touched(scenario, cloud):
    """The independent oracle: does any perturbation touch ``cloud``?

    Deliberately built from the ``touches`` predicates alone — not from
    footprints or digests — so it cannot share a bug with the cache-key
    machinery the diff classifies through.
    """
    scn = active(scenario)
    if scn is None:
        return False
    perts = list(scn.price_shocks) + [
        p
        for p in (scn.spot, scn.quota, scn.fabric, scn.reporting, scn.faults)
        if p is not None
    ]
    return any(p.touches(cloud) for p in perts)


# ------------------------------------------------------ diff classification


def test_diff_of_a_plan_against_itself_is_fully_reusable():
    scn = Scenario(
        scenario_id="storm",
        price_shocks=(PriceShock(cloud="aws", multiplier=2.0),),
        fabric=FabricDegradation(latency_multiplier=2.0),
    )
    plan = compile_study(_config(), scenario=scn)
    diff = diff_plans(plan, plan)
    assert diff.n_cells == len(CLOUD_ENVS)
    assert diff.n_dirty == 0
    assert diff.reusable_indices() == frozenset(range(diff.n_cells))
    assert all(c.baseline_index is not None for c in diff.cells)


def test_baseline_equivalent_world_diffs_empty_against_the_baseline():
    base = compile_study(_config())
    noop = compile_study(_config(), scenario=Scenario(scenario_id="noop"))
    diff = diff_plans(base, noop)
    assert diff.n_dirty == 0
    assert all("footprint empty" in c.reason for c in diff.cells)


def test_single_cloud_shock_dirties_exactly_that_clouds_cells():
    base = compile_study(_config())
    scn = Scenario(
        scenario_id="az-spike",
        price_shocks=(PriceShock(cloud="az", multiplier=3.0),),
    )
    diff = diff_plans(base, compile_study(_config(), scenario=scn))
    (cell,) = diff.dirty
    assert cell.env_id == CLOUD_ENVS["az"]
    assert cell.hooks == ("effective_rate",)
    assert "effective_rate" in cell.reason
    assert {c.env_id for c in diff.reusable} == {
        CLOUD_ENVS["aws"],
        CLOUD_ENVS["g"],
        CLOUD_ENVS["p"],
    }


def test_coordinate_mismatch_is_dirty_with_no_hooks():
    # A different seed shares no cells with the baseline at all — every
    # cell is dirty for lack of a match, not because of any overlay.
    diff = diff_plans(compile_study(_config(seed=0)), compile_study(_config(seed=1)))
    assert diff.n_dirty == diff.n_cells
    assert all(c.hooks == () for c in diff.cells)
    assert all("no baseline cell" in c.reason for c in diff.cells)


# -------------------------------------- property: random overlay subsets


def _random_scenario(rng, scenario_id):
    """A scenario with a seeded-random subset of overlays attached."""

    def subset(pool):
        return tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))

    markets = ["aws", "az", "g"]
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["price_shocks"] = tuple(
            PriceShock(cloud=c, multiplier=round(rng.uniform(0.5, 3.0), 2))
            for c in subset(markets)
        )
    if rng.random() < 0.5:
        kwargs["spot"] = SpotMarket(
            clouds=subset(markets), base_discount=round(rng.uniform(0.3, 0.8), 2)
        )
    if rng.random() < 0.5:
        kwargs["quota"] = QuotaSqueeze(
            grant_probability_scale=round(rng.uniform(0.6, 1.0), 2),
            delay_scale=round(rng.uniform(1.0, 3.0), 2),
            clouds=rng.choice([None, subset(markets)]),
        )
    if rng.random() < 0.5:
        kwargs["fabric"] = FabricDegradation(
            latency_multiplier=round(rng.uniform(1.0, 3.0), 2),
            clouds=rng.choice([None, subset(markets + ["p"])]),
        )
    if rng.random() < 0.5:
        kwargs["reporting"] = ReportingShift(
            lag_hours=tuple((c, float(rng.randrange(8, 96))) for c in subset(markets))
        )
    if rng.random() < 0.5:
        kwargs["faults"] = FaultScaling(
            scale=round(rng.uniform(1.0, 4.0), 2),
            clouds=rng.choice([None, subset(markets)]),
        )
    if not kwargs:  # keep the world perturbed so ids stay meaningful
        kwargs["price_shocks"] = (
            PriceShock(cloud=rng.choice(markets), multiplier=2.0),
        )
    return Scenario(scenario_id=scenario_id, **kwargs)


@pytest.mark.parametrize("seed", range(8))
def test_random_overlay_subsets_classify_exactly_by_touches(seed):
    scn = _random_scenario(random.Random(seed), f"rand-{seed}")
    diff = diff_plans(
        compile_study(_config()), compile_study(_config(), scenario=scn)
    )
    for cell in diff.cells:
        touched = _touched(scn, cell.cloud)
        assert cell.dirty == touched, (scn, cell)
        assert bool(cell.hooks) == touched, (scn, cell)


def test_incremental_sweep_is_byte_identical_across_worker_counts(tmp_path):
    rng = random.Random(2026)
    scns = [_random_scenario(rng, f"world-{i}") for i in range(3)]
    scratch = ScenarioSweep(_config(), scns).run()
    inc1 = ScenarioSweep(
        _config(),
        scns,
        ExecutionOptions(cache_dir=str(tmp_path / "c1")),
        incremental=True,
    ).run()
    inc4 = ScenarioSweep(
        _config(),
        scns,
        ExecutionOptions(cache_dir=str(tmp_path / "c4"), workers=4),
        incremental=True,
    ).run()
    assert set(scratch.outcomes) == set(inc1.outcomes) == set(inc4.outcomes)
    for sid, outcome in scratch.outcomes.items():
        for inc in (inc1, inc4):
            report = inc.outcomes[sid].report
            assert report.store.to_csv() == outcome.report.store.to_csv(), sid
            assert report.spend_by_cloud == outcome.report.spend_by_cloud, sid
    # Phase 1 warms every baseline cell, so planned reuse fully attaches
    # and matches the touches oracle — identically for any worker count.
    expected_dirty = sum(
        1 for scn in scns for cloud in CLOUD_ENVS if _touched(scn, cloud)
    )
    for inc in (inc1, inc4):
        assert inc.reuse is not None
        assert inc.reuse.planned_dirty == expected_dirty
        assert inc.reuse.attached == inc.reuse.planned_reusable
        assert inc.reuse.executed == inc.reuse.planned_dirty
        assert inc.reuse.invalid == 0
    assert inc1.reuse.to_dict() == inc4.reuse.to_dict()


def test_empty_diff_plan_attaches_every_cell(tmp_path):
    scn = Scenario(
        scenario_id="storm",
        price_shocks=(PriceShock(cloud="aws", multiplier=2.0),),
        faults=FaultScaling(scale=2.0),
    )
    plan = compile_study(_config(), cache_dir=str(tmp_path / "cache"), scenario=scn)
    [(_, scratch)] = PlanExecutor(plan).run()  # warms the cell cache
    executor = PlanExecutor(plan, baseline=plan)
    [(_, rerun)] = executor.run()
    assert executor.diff.n_dirty == 0
    assert executor.reuse.attached == plan.n_shards
    assert executor.reuse.executed == 0
    assert rerun.store.to_csv() == scratch.store.to_csv()
    assert rerun.spend_by_cloud == scratch.spend_by_cloud


# --------------------------------------- invalidation-soundness fuzzing

_FUZZ_BASE = Scenario(
    scenario_id="fuzz-base",
    price_shocks=(PriceShock(cloud="az", multiplier=1.5),),
    spot=SpotMarket(clouds=("aws",)),
    quota=QuotaSqueeze(grant_probability_scale=0.7, clouds=("g",)),
    fabric=FabricDegradation(latency_multiplier=1.5, clouds=("p",)),
    reporting=ReportingShift(lag_hours=(("aws", 48.0),)),
    faults=FaultScaling(scale=2.0, clouds=("az",)),
)


def _mutant(**changes):
    return dataclasses.replace(_FUZZ_BASE, **changes)


#: (mutated field, the mutant, the clouds whose cells must re-simulate).
#: Every field of every perturbation type is flipped exactly once; the
#: expected sets are written by hand from the touch rules, not derived
#: from the footprint code under test.  Note the canonicalization cases:
#: widening a ``clouds`` list must NOT dirty the clouds already on it.
_MUTATIONS = [
    ("price.multiplier",
     _mutant(price_shocks=(PriceShock(cloud="az", multiplier=2.0),)), {"az"}),
    # az loses its shock (but keeps faults), g gains one: both change.
    ("price.cloud",
     _mutant(price_shocks=(PriceShock(cloud="g", multiplier=1.5),)), {"az", "g"}),
    ("spot.base_discount",
     _mutant(spot=SpotMarket(clouds=("aws",), base_discount=0.5)), {"aws"}),
    ("spot.clouds",
     _mutant(spot=SpotMarket(clouds=("aws", "az"))), {"az"}),
    ("quota.grant_probability_scale",
     _mutant(quota=QuotaSqueeze(grant_probability_scale=0.9, clouds=("g",))), {"g"}),
    ("quota.delay_scale",
     _mutant(quota=QuotaSqueeze(grant_probability_scale=0.7, delay_scale=2.0,
                                clouds=("g",))), {"g"}),
    # None means every cloud with a quota workflow — never on-prem.
    ("quota.clouds",
     _mutant(quota=QuotaSqueeze(grant_probability_scale=0.7, clouds=None)),
     {"aws", "az"}),
    ("fabric.latency_multiplier",
     _mutant(fabric=FabricDegradation(latency_multiplier=2.5, clouds=("p",))), {"p"}),
    ("fabric.bandwidth_multiplier",
     _mutant(fabric=FabricDegradation(latency_multiplier=1.5,
                                      bandwidth_multiplier=0.5,
                                      clouds=("p",))), {"p"}),
    ("fabric.clouds",
     _mutant(fabric=FabricDegradation(latency_multiplier=1.5,
                                      clouds=("p", "aws"))), {"aws"}),
    ("reporting.lag_hours.value",
     _mutant(reporting=ReportingShift(lag_hours=(("aws", 96.0),))), {"aws"}),
    ("reporting.lag_hours.cloud",
     _mutant(reporting=ReportingShift(lag_hours=(("aws", 48.0), ("az", 24.0)))),
     {"az"}),
    ("faults.scale",
     _mutant(faults=FaultScaling(scale=3.0, clouds=("az",))), {"az"}),
    ("faults.clouds",
     _mutant(faults=FaultScaling(scale=2.0, clouds=("az", "g"))), {"g"}),
    # The id keys spot draws and incident labels, so every cell with a
    # non-empty footprint (here: all four clouds) must re-simulate.
    ("scenario_id",
     _mutant(scenario_id="fuzz-renamed"), {"aws", "az", "g", "p"}),
]


@pytest.fixture(scope="module")
def fuzz_cache(tmp_path_factory):
    """A cache warmed with the baseline campaign and the unmutated world."""
    cache_dir = str(tmp_path_factory.mktemp("fuzz-cache"))
    PlanExecutor(compile_study(_config(), cache_dir=cache_dir)).run()
    PlanExecutor(
        compile_study(_config(), cache_dir=cache_dir, scenario=_FUZZ_BASE)
    ).run()
    return cache_dir


@pytest.mark.parametrize(
    "mutated,expected", [m[1:] for m in _MUTATIONS], ids=[m[0] for m in _MUTATIONS]
)
def test_mutating_one_field_resimulates_exactly_the_touched_cells(
    fuzz_cache, mutated, expected
):
    base_plan = compile_study(_config(), cache_dir=fuzz_cache)
    variant = compile_study(_config(), cache_dir=fuzz_cache, scenario=mutated)
    executor = PlanExecutor(variant, baseline=base_plan)
    resimulated = set()
    merged = None
    for _, results in executor.iter_world_results():
        # A cell replayed from cache (attached, or dispatched but warm)
        # reports zero run-level misses; only genuine re-simulation
        # misses — so the miss set *is* the invalidation set.
        resimulated |= {
            ENVIRONMENTS[r.env_id].cloud for r in results if r.cache_misses > 0
        }
        merged = merge_shard_results(results)
    assert resimulated == expected
    # Soundness is not just sparseness: the incremental result must be
    # byte-identical to a from-scratch, cache-free run of the mutant.
    [(_, fresh)] = PlanExecutor(compile_study(_config(), scenario=mutated)).run()
    assert merged.store.to_csv() == fresh.store.to_csv()
    assert merged.spend_by_cloud == fresh.spend_by_cloud


# ----------------------------------------- degradation is never silent


@pytest.mark.parametrize("corruption", ["truncated", "wrong-shape"])
def test_malformed_cell_entries_surface_and_reexecute(tmp_path, corruption):
    cache_dir = str(tmp_path / "cache")
    base_plan = compile_study(_config(), cache_dir=cache_dir)
    PlanExecutor(base_plan).run()
    scn = Scenario(
        scenario_id="az-spike",
        price_shocks=(PriceShock(cloud="az", multiplier=3.0),),
    )
    variant = compile_study(_config(), cache_dir=cache_dir, scenario=scn)
    aws_shard = next(s for s in variant.shards if s.env_id == CLOUD_ENVS["aws"])
    path = RunCache(cache_dir).path(shard_summary_key(aws_shard))
    assert path.exists(), "the baseline run must have written the cell summary"
    if corruption == "truncated":
        path.write_text(path.read_text()[:40])  # a torn write
    else:
        path.write_text(json.dumps({"nope": 1}))  # valid JSON, wrong schema
    executor = PlanExecutor(variant, baseline=base_plan)
    [(_, merged)] = executor.run()
    assert executor.reuse.invalid >= 1
    assert executor.reuse.planned_reusable == 3
    assert executor.reuse.attached == 2  # g and p still attach
    assert executor.reuse.executed == 2  # az (dirty) + aws (degraded)
    [(_, fresh)] = PlanExecutor(compile_study(_config(), scenario=scn)).run()
    assert merged.store.to_csv() == fresh.store.to_csv()


def test_sweep_surfaces_invalid_cell_entries_in_its_reuse_counter(
    tmp_path, monkeypatch
):
    """A persistently-truncated cell entry reaches ``SweepResult.reuse``.

    Re-executing a corrupt cell rewrites it, so plain on-disk corruption
    heals before the attach probe ever sees it; this simulates the
    *persistent* flavor (bad sector, torn write racing the reader) by
    making every read of one cell key return a truncated payload.
    """
    cache_dir = str(tmp_path / "cache")
    scn = Scenario(
        scenario_id="az-spike",
        price_shocks=(PriceShock(cloud="az", multiplier=3.0),),
    )
    variant = compile_study(_config(), cache_dir=cache_dir, scenario=scn)
    aws_key = shard_summary_key(
        next(s for s in variant.shards if s.env_id == CLOUD_ENVS["aws"])
    )
    real_get = RunCache.get_json

    def tearing_get(self, key):
        data = real_get(self, key)
        if key == aws_key and data is not None:
            return {"records": None}  # truncated-then-"repaired" shape
        return data

    monkeypatch.setattr(RunCache, "get_json", tearing_get)
    result = ScenarioSweep(
        _config(),
        [scn],
        ExecutionOptions(cache_dir=cache_dir),
        incremental=True,
    ).run()
    assert result.reuse is not None
    assert result.reuse.invalid >= 1
    assert result.to_json_dict()["cell_reuse"]["invalid"] >= 1
    # The degraded cell re-executed; the dataset is still correct.
    scratch = ScenarioSweep(_config(), [scn]).run()
    for sid, outcome in scratch.outcomes.items():
        assert (
            result.outcomes[sid].report.store.to_csv()
            == outcome.report.store.to_csv()
        ), sid


@pytest.mark.parametrize("corruption", ["truncated", "wrong-shape"])
def test_ensemble_surfaces_broken_world_summaries(tmp_path, corruption):
    cache_dir = str(tmp_path / "cache")
    spec = EnsembleSpec(
        n_replicas=2,
        env_ids=(CLOUD_ENVS["aws"], CLOUD_ENVS["az"]),
        apps=("amg2023",),
        sizes=(32,),
        iterations=2,
    )
    first = EnsembleRunner(spec, ExecutionOptions(cache_dir=cache_dir)).run()
    runner = EnsembleRunner(spec, ExecutionOptions(cache_dir=cache_dir))
    path = RunCache(cache_dir).path(runner._world_key(runner.compile().worlds[0]))
    assert path.exists(), "the first run must have written the world summary"
    if corruption == "truncated":
        path.write_text(path.read_text()[:25])
    else:
        path.write_text(
            json.dumps({"v": 1, "cells": "zap", "spend": 1.0, "incidents": 0})
        )
    second = runner.run()
    assert second.world_cache_invalid >= 1
    assert second.to_json_dict()["world_cache"]["invalid"] >= 1
    # The broken world re-executed (through the warm run-level cache)
    # and folded to the exact same distributions.
    a, b = first.to_json_dict(), second.to_json_dict()
    a.pop("world_cache"), b.pop("world_cache")
    assert a == b


def test_incremental_ensemble_matches_from_scratch(tmp_path):
    spec = EnsembleSpec(
        n_replicas=2,
        scenarios=(
            Scenario(
                scenario_id="az-spike",
                price_shocks=(PriceShock(cloud="az", multiplier=3.0),),
            ),
        ),
        env_ids=(CLOUD_ENVS["aws"], CLOUD_ENVS["az"]),
        apps=("amg2023",),
        sizes=(32,),
        iterations=2,
    )
    scratch = EnsembleRunner(spec).run()
    inc = EnsembleRunner(
        spec,
        ExecutionOptions(cache_dir=str(tmp_path / "c")),
        incremental=True,
    ).run()
    assert inc.reuse is not None
    # Both az-spike replicas attach their untouched aws cell.
    assert inc.reuse.attached == 2
    assert inc.reuse.invalid == 0
    a, b = scratch.to_json_dict(), inc.to_json_dict()
    a.pop("world_cache"), b.pop("world_cache"), b.pop("cell_reuse")
    assert a == b


def test_incremental_modes_require_a_cache_directory():
    scn = Scenario(
        scenario_id="az-spike",
        price_shocks=(PriceShock(cloud="az", multiplier=3.0),),
    )
    with pytest.raises(ConfigurationError):
        PlanExecutor(compile_study(_config()), baseline=compile_study(_config()))
    with pytest.raises(ConfigurationError):
        ScenarioSweep(_config(), [scn], incremental=True)
    with pytest.raises(ConfigurationError):
        EnsembleRunner(EnsembleSpec(scenarios=(scn,)), incremental=True)
