"""The execution planner: IR shape, compilation, and the executor seam.

The refactor's contract: every front-end compiles to the one
:class:`~repro.plan.ir.RunPlan` IR, the one
:class:`~repro.plan.executor.PlanExecutor` runs any plan, and the
results are byte-identical to the front-ends' own reports — for any
worker count.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.core.study import StudyConfig, StudyRunner
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.plan import (
    ExecutionOptions,
    PlanExecutor,
    PlannedRun,
    RunPlan,
    compile_ensemble,
    compile_scenarios,
    compile_study,
    planned_runs,
)
from repro.scenarios import Scenario, ScenarioSweep, scenario


#: sha256 of ``repro plan show --json --seed S`` for each front-end's
#: flags: the study, a one-scenario sweep and a 4-replica ensemble.
GOLDEN_PLAN_SHOW_SHA256 = {
    ((), 0): "c7a8b34e542cddf881d5fd1e1dabd2ece14053e3132e4766a5311b54db008bb6",
    ((), 3): "c937149f214db8e54fbb82b0494ac26c408c5eba424e9183493bbb7ff2d459ec",
    (("--scenario", "spot-everything"), 0):
        "430da58e6024c2af7a76d58268cec46d827e015716b5c40191b6fe5caad6c9bf",
    (("--scenario", "spot-everything"), 3):
        "2193de77722575340e49b88c540a7de23c2344f08a6f184d77bd6776b61190ed",
    (("--replicas", "4", "--scenario", "spot-everything"), 0):
        "1df3c22b67d3c6c95808971f53fc44a3cecf0b1ce7c4dff0602a4fc0ef9a16ac",
    (("--replicas", "4", "--scenario", "spot-everything"), 3):
        "c48537a4e289814600327aa88b137a53871fed4cd07dd8a936067664accc1ff3",
}

CONFIG = StudyConfig(
    env_ids=("cpu-eks-aws", "cpu-onprem-a"),
    apps=("amg2023", "lammps"),
    sizes=(32, 64),
    iterations=2,
    seed=3,
)


# ---------------------------------------------------------------- the IR


def test_compile_study_shape():
    plan = compile_study(CONFIG)
    assert plan.n_worlds == 1
    assert plan.n_shards == 4  # 2 envs x 2 sizes
    assert plan.n_runs == 4 * 2 * 2  # shards x apps x iterations
    assert [s.index for s in plan.shards] == list(range(4))
    assert all(s.world == 0 for s in plan.shards)
    (world,) = plan.worlds
    assert world.scenario_id == "baseline" and world.seed == 3


def test_planned_runs_are_the_explicit_cross_product():
    plan = compile_study(CONFIG)
    runs = list(plan.runs())
    assert len(runs) == plan.n_runs
    assert all(isinstance(r, PlannedRun) for r in runs)
    # Serial campaign order: envs in config order, sizes inner, then
    # apps app-major with iterations innermost.
    assert runs[0] == PlannedRun(
        world=0, seed=3, scenario_id=None, env_id="cpu-eks-aws",
        app="amg2023", scale=32, iteration=0,
    )
    assert runs[1].iteration == 1
    assert runs[2].app == "lammps" and runs[2].iteration == 0
    assert runs[4].scale == 64
    # The shard grouping loses nothing.
    assert runs == [r for s in plan.shards for r in planned_runs(s)]


def test_compile_scenarios_injects_baseline_first():
    plan = compile_scenarios(CONFIG, [scenario("price-war")])
    assert [w.scenario_id for w in plan.worlds] == ["baseline", "price-war"]
    assert plan.n_shards == 8
    # Shards are world-major with globally unique ascending indices.
    assert [s.index for s in plan.shards] == list(range(8))
    assert [s.world for s in plan.shards] == [0] * 4 + [1] * 4


def test_compile_ensemble_is_scenario_major_replicas_ascending():
    spec = EnsembleSpec(
        n_replicas=2, base_seed=5, scenarios=(scenario("price-war"),),
        env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,), iterations=2,
    )
    plan = compile_ensemble(spec)
    assert [(w.scenario_id, w.replica, w.seed) for w in plan.worlds] == [
        ("baseline", 0, 5),
        ("baseline", 1, 6),
        ("price-war", 0, 5),
        ("price-war", 1, 6),
    ]
    assert plan.worlds[0].is_baseline and not plan.worlds[2].is_baseline
    for shard, world in zip(plan.shards, plan.worlds):
        assert shard.world == world.index
        assert shard.seed == world.seed


def test_subset_keeps_world_indices():
    spec = EnsembleSpec(
        n_replicas=3, env_ids=("cpu-eks-aws",), apps=("amg2023",),
        sizes=(32,), iterations=1,
    )
    sub = compile_ensemble(spec).subset([1, 2])
    assert [w.index for w in sub.worlds] == [1, 2]
    assert {s.world for s in sub.shards} == {1, 2}


def test_plan_rejects_inconsistent_worlds():
    plan = compile_study(CONFIG)
    with pytest.raises(ValueError, match="unknown world"):
        RunPlan(worlds=(), shards=plan.shards)


def test_digest_is_stable_and_coordinate_sensitive():
    import dataclasses

    base = compile_study(CONFIG)
    assert base.digest() == compile_study(CONFIG).digest()
    # The cache directory never changes what runs.
    assert compile_study(CONFIG, cache_dir="/tmp/x").digest() == base.digest()
    reseeded = compile_study(dataclasses.replace(CONFIG, seed=4))
    assert reseeded.digest() != base.digest()
    with_world = compile_study(CONFIG, scenario=scenario("price-war"))
    assert with_world.digest() != base.digest()
    # An empty scenario is the baseline world, byte for byte.
    empty = compile_study(CONFIG, scenario=Scenario(scenario_id="noop"))
    assert empty.digest() == base.digest()


# ------------------------------------------------------------ the executor


def _store_csvs(plan, workers=1):
    executor = PlanExecutor(plan, ExecutionOptions(workers=workers))
    return [merged.store.to_csv() for _, merged in executor.merged_worlds()]


def test_compiled_study_plan_reproduces_the_runner_dataset():
    report = StudyRunner(CONFIG).run()
    (csv_text,) = _store_csvs(compile_study(CONFIG))
    assert csv_text == report.store.to_csv()


def test_compiled_sweep_plan_reproduces_every_world():
    scns = [scenario("price-war"), scenario("azure-price-spike")]
    result = ScenarioSweep(CONFIG, scns).run()
    csvs = _store_csvs(compile_scenarios(CONFIG, scns))
    assert csvs == [r.store.to_csv() for r in result.reports.values()]


def test_compiled_ensemble_plan_anchors_world_zero_to_the_seed_study():
    spec = EnsembleSpec(
        n_replicas=2, env_ids=CONFIG.env_ids, apps=CONFIG.apps,
        sizes=CONFIG.sizes, iterations=CONFIG.iterations, base_seed=3,
    )
    first, second = _store_csvs(compile_ensemble(spec))
    assert first == StudyRunner(CONFIG).run().store.to_csv()
    assert second != first  # replica 1 runs at seed + 1


@pytest.mark.parametrize("compiled", ["study", "sweep", "ensemble"])
def test_executor_is_byte_identical_across_worker_counts(compiled):
    if compiled == "study":
        plan = compile_study(CONFIG)
    elif compiled == "sweep":
        plan = compile_scenarios(CONFIG, [scenario("spot-everything")])
    else:
        plan = compile_ensemble(
            EnsembleSpec(
                n_replicas=2, env_ids=CONFIG.env_ids, apps=CONFIG.apps,
                sizes=(32,), iterations=2, base_seed=3,
            )
        )
    assert _store_csvs(plan, workers=1) == _store_csvs(plan, workers=4)


def test_executor_streams_worlds_in_plan_order():
    spec = EnsembleSpec(
        n_replicas=3, env_ids=("cpu-eks-aws",), apps=("amg2023",),
        sizes=(32,), iterations=1,
    )
    plan = compile_ensemble(spec)
    seen = [
        (world.index, [r.index for r in results])
        for world, results in PlanExecutor(
            plan,
            ExecutionOptions(workers=4),
        ).iter_world_results()
    ]
    assert [w for w, _ in seen] == [0, 1, 2]
    assert [i for _, idxs in seen for i in idxs] == list(range(plan.n_shards))


def test_front_ends_expose_their_compiled_plans():
    assert isinstance(StudyRunner(CONFIG).compile(), RunPlan)
    assert isinstance(ScenarioSweep(CONFIG, [scenario("price-war")]).compile(), RunPlan)
    spec = EnsembleSpec(env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,))
    assert isinstance(EnsembleRunner(spec).compile(), RunPlan)


# ---------------------------------------------------------------- the CLI


def test_plan_show_cli(capsys):
    rc = main([
        "plan", "show",
        "--envs", "cpu-eks-aws,cpu-onprem-a",
        "--apps", "amg2023",
        "--sizes", "32",
        "--iterations", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "plan              : study" in out
    assert "planned runs      : 4" in out
    assert "baseline" in out


def test_plan_show_cli_ensemble_json(capsys):
    rc = main([
        "plan", "show", "--json",
        "--replicas", "2",
        "--scenario", "price-war",
        "--envs", "cpu-eks-aws",
        "--apps", "amg2023",
        "--sizes", "32",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["totals"] == {"worlds": 4, "shards": 4, "runs": 8}
    assert [w["scenario"] for w in data["worlds"]] == [
        "baseline", "baseline", "price-war", "price-war",
    ]


@pytest.mark.parametrize("flags,seed", sorted(GOLDEN_PLAN_SHOW_SHA256))
def test_plan_show_json_matches_golden_digest(flags, seed, capsys, child_env):
    argv = ["plan", "show", "--json", "--seed", str(seed), *flags]
    assert main(argv) == 0
    in_process = capsys.readouterr().out.encode()
    piped = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, env=child_env, check=True,
    ).stdout
    golden = GOLDEN_PLAN_SHOW_SHA256[flags, seed]
    assert hashlib.sha256(in_process).hexdigest() == golden
    assert hashlib.sha256(piped).hexdigest() == golden


def test_plan_show_cli_rejects_unknown_scenario(capsys):
    rc = main(["plan", "show", "--scenario", "asteroid-strike"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


# --------------------------------------------------- cache degradation trace


def test_malformed_run_cache_entry_warns_and_counts(tmp_path, caplog):
    config = StudyConfig(
        env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,),
        iterations=2, seed=0,
    )
    cold = StudyRunner(config, ExecutionOptions(cache_dir=str(tmp_path))).run()
    assert cold.cache_invalid == 0
    # Corrupt every entry (run-level and cell-level alike).
    for entry in tmp_path.glob("*/*.json"):
        entry.write_text("{truncated")
    with caplog.at_level("WARNING", logger="repro.sim.cache"):
        warm = StudyRunner(config, ExecutionOptions(cache_dir=str(tmp_path))).run()
    assert warm.store.to_csv() == cold.store.to_csv()
    assert warm.cache_invalid > 0
    assert any("re-simulating" in r.message for r in caplog.records)


def test_malformed_world_summary_warns_and_counts(tmp_path, caplog):
    from repro.sim.cache import RunCache

    spec = EnsembleSpec(
        n_replicas=2, env_ids=("cpu-onprem-a",), apps=("amg2023",),
        sizes=(32,), iterations=1,
    )
    runner = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path)))
    cold = runner.run()
    assert cold.world_cache_invalid == 0
    keys = [runner._world_key(world) for world in runner._plans()]
    paths = [RunCache(tmp_path).path(key) for key in keys]
    paths[0].write_text("{truncated")           # non-JSON corruption
    paths[1].write_text('{"v": 999, "cells": []}')  # JSON-valid, malformed
    with caplog.at_level("WARNING", logger="repro.sim.cache"):
        repaired = EnsembleRunner(spec, ExecutionOptions(cache_dir=str(tmp_path))).run()
    assert repaired.render() == cold.render()
    assert repaired.world_cache_invalid == 2
    messages = [r.message for r in caplog.records]
    assert sum("re-simulating" in m for m in messages) >= 2
