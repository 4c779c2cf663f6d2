"""The replication engine: determinism, seed-study anchoring, caching."""

import hashlib

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.study import StudyConfig, StudyRunner
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.plan import ExecutionOptions
from repro.scenarios import scenario

#: sha256 of ``repro ensemble run --replicas 8 --workers 2 --seed S``'s
#: stdout: every environment and app at 2 iterations, 8 worlds.  A
#: change that moves any number in the distribution tables moves these.
GOLDEN_ENSEMBLE_SHA256 = {
    0: "177b09b9e8932804e7a0b2a6c6acfc94cfdaded70f856fc281fcea9ebb357e80",
    3: "4d081bdd0f4bb79f7099e9045548ec0be6286077aadeb726142c6a45130f4b53",
}

#: sha256 of the incremental ensemble's stdout (:data:`_INCREMENTAL_ARGV`
#: at ``--seed S``): 4 replicas x (baseline + 2 scenarios) on two
#: clouds, where the diff-aware attach reuses 4 cells and executes 12.
#: Worker count does not move it.
GOLDEN_INCREMENTAL_ENSEMBLE_SHA256 = {
    0: "3f04f4c14a9a2e4ca733d1a6644635f44b6993d009e8b2287bed2a4718077a3b",
    3: "f337ca5773024066f1dccff7cf9f45b67ac96092724d2ed695af5d868f23952d",
}

#: (entries, sha256) of the world-summary cache entries ``repro ensemble
#: run --replicas 8 --workers 2 --seed S --cache DIR`` writes, hashed in
#: fold order as each key, a newline, then the entry's bytes.  The
#: summaries fold every cell of a world; the distribution tables are
#: rendered from them, so a fold that moves a float moves these.
GOLDEN_WORLD_ENTRIES = {
    0: (8, "8a21f194f10ab708ca9573f4bdbad5ffa1dfe170bb60538ab36970f32130df37"),
    3: (8, "94db939224fe00277b1ac61cc2d0c32dfa3985de9bfe08f9a468d2e2f82c634a"),
}

_INCREMENTAL_ARGV = [
    "ensemble", "run", "--replicas", "4",
    "--scenario", "azure-price-spike", "--scenario", "spot-everything",
    "--envs", "cpu-eks-aws,cpu-aks-az", "--apps", "amg2023", "--sizes", "32",
    "--incremental",
]

SMOKE = dict(
    env_ids=("cpu-eks-aws", "cpu-onprem-a"),
    apps=("amg2023", "lammps"),
    sizes=(32,),
    iterations=2,
)


@pytest.fixture(scope="module")
def smoke_result():
    spec = EnsembleSpec(n_replicas=3, scenarios=(scenario("price-war"),), **SMOKE)
    return EnsembleRunner(spec).run()


def test_a_baseline_ensemble_waits_out_a_long_quota_saga():
    # World 2 (seed 384) is granted its gpu-eks-aws 256-node quota only
    # at the 12th request; a baseline world retries until granted.
    spec = EnsembleSpec(
        n_replicas=3, base_seed=382, env_ids=("cpu-onprem-a", "gpu-eks-aws"),
        apps=("amg2023",), sizes=(256,), iterations=1,
    )
    assert EnsembleRunner(spec).run().worlds == 3


def test_worlds_and_cells(smoke_result):
    # 2 scenarios (baseline + price-war) x 3 replicas
    assert smoke_result.worlds == 6
    # 2 envs x 2 apps x 1 size per scenario
    assert len(smoke_result.cells) == 8
    assert smoke_result.scenario_ids() == ["baseline", "price-war"]


def test_every_cell_folds_every_world(smoke_result):
    for stats in smoke_result.cells.values():
        assert stats.worlds == 3
        assert stats.cost.count == 3


def test_thresholds_come_from_the_seed_study(smoke_result):
    config = StudyConfig(seed=0, **SMOKE)
    store = StudyRunner(config).run().store
    for (env, app, scale), threshold in smoke_result.thresholds.items():
        assert threshold == float(np.mean(store.foms(env, app, scale)))


def test_workers_do_not_change_the_rendered_tables():
    """Acceptance: workers=1 vs workers=4 byte-identical distributions."""
    spec = EnsembleSpec(n_replicas=2, scenarios=(scenario("azure-price-spike"),),
                        **SMOKE)
    serial = EnsembleRunner(spec, ExecutionOptions(workers=1)).run()
    sharded = EnsembleRunner(spec, ExecutionOptions(workers=4)).run()
    assert serial.render() == sharded.render()
    assert serial.to_json() == sharded.to_json()


def test_single_replica_baseline_reproduces_the_seed_study():
    """Acceptance: n_replicas=1, no scenarios == the seed study's points."""
    spec = EnsembleSpec(n_replicas=1, base_seed=0, **SMOKE)
    result = EnsembleRunner(spec).run()
    store = StudyRunner(StudyConfig(seed=0, **SMOKE)).run().store

    assert result.worlds == 1
    for (sid, env, app, scale), stats in result.cells.items():
        assert sid == "baseline"
        foms = store.foms(env, app, scale)
        if foms:
            # The single replica's mean IS the seed study's point value.
            assert stats.fom.count == 1
            assert stats.fom.mean == float(np.mean(foms))
        else:
            assert stats.fom.count == 0
        cell_records = store.query(env_id=env, app=app, scale=scale)
        assert stats.cost.mean == pytest.approx(
            sum(r.cost_usd for r in cell_records)
        )


def test_replicas_actually_vary():
    spec = EnsembleSpec(n_replicas=3, **SMOKE)
    result = EnsembleRunner(spec).run()
    spreads = [s.fom.std for s in result.cells.values() if s.fom.count >= 2]
    assert spreads and any(std > 0 for std in spreads)


def test_world_cache_replays_summaries(tmp_path):
    spec = EnsembleSpec(n_replicas=2, scenarios=(scenario("price-war"),), **SMOKE)
    cold = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path))).run()
    assert cold.world_cache_hits == 0
    assert cold.world_cache_misses == 4

    warm = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path))).run()
    assert warm.world_cache_hits == 4
    assert warm.world_cache_misses == 0
    # The replay folds to the same bytes as the fresh run (the cache
    # counters themselves are the only fields allowed to differ).
    assert warm.render() == cold.render()
    cold_data, warm_data = cold.to_json_dict(), warm.to_json_dict()
    cold_data.pop("world_cache"), warm_data.pop("world_cache")
    assert warm_data == cold_data


def test_world_cache_corruption_resimulates_silently(tmp_path):
    from repro.sim.cache import RunCache

    spec = EnsembleSpec(n_replicas=2, **SMOKE)
    runner = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path)))
    cold = runner.run()
    # The directory also holds run/cell entries; target the two world
    # summaries specifically.
    world_paths = [
        RunCache(tmp_path).path(runner._world_key(world))
        for world in runner._plans()
    ]
    assert all(path.exists() for path in world_paths)
    # Non-JSON garbage in one entry, and JSON-valid-but-mistyped values
    # in the other: both must fold as misses, never crash the ensemble.
    world_paths[0].write_text("{truncated")
    world_paths[1].write_text(
        '{"v": 1, "cells": [{"env": "e", "app": "a", "scale": "big", '
        '"records": 1, "completed": 1, "fom_mean": "x", "wall_mean": null, '
        '"cost_total": 1.0}], "spend": "oops", "incidents": 0}'
    )
    repaired = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path))).run()
    assert repaired.render() == cold.render()
    assert repaired.world_cache_misses == 2


def test_uncached_run_reports_no_phantom_cache_traffic():
    spec = EnsembleSpec(n_replicas=2, **SMOKE)
    result = EnsembleRunner(spec).run()
    assert result.world_cache_hits == 0
    assert result.world_cache_misses == 0
    assert result.to_json_dict()["world_cache"] == {
        "hits": 0,
        "misses": 0,
        "invalid": 0,
    }


def test_world_cache_is_replica_aware(tmp_path):
    EnsembleRunner(
        EnsembleSpec(n_replicas=1, **SMOKE),
        ExecutionOptions(cache_dir=str(tmp_path)),
    ).run()
    # One more replica: replica 0 replays, replica 1 executes.
    grown = EnsembleRunner(
        EnsembleSpec(n_replicas=2, **SMOKE),
        ExecutionOptions(cache_dir=str(tmp_path)),
    ).run()
    assert grown.world_cache_hits == 1
    assert grown.world_cache_misses == 1


def test_scenario_distributions_differ_from_baseline(smoke_result):
    base = smoke_result.cells[("baseline", "cpu-eks-aws", "amg2023", 32)]
    war = smoke_result.cells[("price-war", "cpu-eks-aws", "amg2023", 32)]
    # A pure price shock cannot change a cell's FOM distribution...
    assert war.fom.mean == base.fom.mean
    # ...but the 20%-off war moves every cloud cost distribution down.
    assert war.cost.mean < base.cost.mean
    assert smoke_result.spend["price-war"].mean < smoke_result.spend["baseline"].mean


def test_thresholds_anchor_to_the_baseline_world_not_plan_position():
    """A user-supplied empty scenario listed *after* a perturbed one
    must not make the perturbed world the exceedance anchor."""
    from repro.scenarios import FabricDegradation, Scenario

    degraded = Scenario(
        scenario_id="degraded",
        fabric=FabricDegradation(latency_multiplier=3.0, bandwidth_multiplier=0.5),
    )
    my_base = Scenario(scenario_id="my-base")  # empty: a baseline world
    spec = EnsembleSpec(
        n_replicas=1, scenarios=(degraded, my_base),
        env_ids=("cpu-eks-aws",), apps=("minife",), sizes=(32,), iterations=2,
    )
    result = EnsembleRunner(spec).run()
    # No extra baseline is injected (my-base is one), and the threshold
    # matches the *baseline* world's FOM, not the degraded world's.
    assert result.scenario_ids() == ["degraded", "my-base"]
    threshold = result.threshold_for("cpu-eks-aws", "minife", 32)
    base = result.cells[("my-base", "cpu-eks-aws", "minife", 32)]
    degraded_cell = result.cells[("degraded", "cpu-eks-aws", "minife", 32)]
    assert threshold == base.fom.mean
    assert degraded_cell.fom.mean != threshold


def test_exceedance_of_baseline_includes_the_anchor_world(smoke_result):
    for (sid, env, app, scale), stats in smoke_result.cells.items():
        if sid != "baseline" or stats.fom.count == 0:
            continue
        threshold = smoke_result.threshold_for(env, app, scale)
        # Replica 0 hits its own point value, so P >= 1/n always.
        assert stats.fom.exceedance(threshold) >= 1 / stats.fom.count


def test_json_snapshot_shape(smoke_result):
    data = smoke_result.to_json_dict()
    assert data["worlds"] == 6
    assert data["spec"]["n_replicas"] == 3
    assert len(data["cells"]) == 8
    cell = data["cells"][0]
    assert {"scenario", "env", "app", "scale", "fom", "cost_usd"} <= set(cell)
    assert cell["fom"]["count"] == 3


@pytest.mark.parametrize("seed", sorted(GOLDEN_ENSEMBLE_SHA256))
def test_default_ensemble_matches_golden_digest(seed, capsys):
    argv = ["ensemble", "run", "--replicas", "8", "--workers", "2",
            "--seed", str(seed)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_ENSEMBLE_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_WORLD_ENTRIES))
def test_default_ensemble_world_entries_match_golden_digest(seed, tmp_path, capsys):
    from repro.sim.cache import RunCache

    cache_dir = tmp_path / "cache"
    argv = ["ensemble", "run", "--replicas", "8", "--workers", "2",
            "--seed", str(seed), "--cache", str(cache_dir)]
    assert main(argv) == 0
    spec = EnsembleSpec(n_replicas=8, base_seed=seed)
    assert f"spec digest       : {spec.digest()}" in capsys.readouterr().out
    runner = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(cache_dir)))
    cache = RunCache(cache_dir)
    digest = hashlib.sha256()
    worlds = runner.compile().worlds
    for world in worlds:
        key = runner._world_key(world)
        digest.update(key.encode("utf-8") + b"\n")
        digest.update(cache.path(key).read_bytes())
    assert (len(worlds), digest.hexdigest()) == GOLDEN_WORLD_ENTRIES[seed]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", sorted(GOLDEN_INCREMENTAL_ENSEMBLE_SHA256))
def test_incremental_ensemble_matches_golden_digest(seed, workers, tmp_path, capsys):
    argv = [*_INCREMENTAL_ARGV, "--seed", str(seed),
            "--cache", str(tmp_path / "cache"), "--workers", workers]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "cell reuse        : 4 cells reused, 12 executed" in stdout
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert digest == GOLDEN_INCREMENTAL_ENSEMBLE_SHA256[seed]
