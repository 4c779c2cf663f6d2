"""Execution-engine tests."""

import pytest

from repro.envs.registry import environment
from repro.sim.execution import CLOUD_WALLTIME_S, ExecutionEngine
from repro.sim.run_result import RunState


@pytest.fixture
def engine():
    return ExecutionEngine(seed=0)


def test_run_produces_complete_record(engine):
    rec = engine.run(environment("cpu-eks-aws"), "amg2023", 32)
    assert rec.state is RunState.COMPLETED
    assert rec.fom is not None and rec.fom > 0
    assert rec.wall_seconds > 0
    assert rec.hookup_seconds > 0
    assert rec.cost_usd > 0
    assert rec.nodes == 32


def test_determinism(engine):
    a = engine.run(environment("cpu-eks-aws"), "lammps", 64, iteration=2)
    b = ExecutionEngine(seed=0).run(environment("cpu-eks-aws"), "lammps", 64, iteration=2)
    assert a.fom == b.fom
    assert a.wall_seconds == b.wall_seconds


def test_iterations_differ(engine):
    a = engine.run(environment("cpu-eks-aws"), "lammps", 64, iteration=0)
    b = engine.run(environment("cpu-eks-aws"), "lammps", 64, iteration=1)
    assert a.fom != b.fom


def test_undeployable_environment_skipped(engine):
    rec = engine.run(environment("gpu-parallelcluster-aws"), "lammps", 32)
    assert rec.state is RunState.SKIPPED
    assert "undeployable" in rec.extra["reason"]
    assert rec.cost_usd == 0.0


def test_unsupported_app_skipped_with_reason(engine):
    rec = engine.run(environment("gpu-eks-aws"), "laghos", 32)
    assert rec.state is RunState.SKIPPED
    assert "CUDA" in rec.extra["reason"]


def test_timeout_caps_wall_and_clears_fom(engine):
    rec = engine.run(environment("cpu-eks-aws"), "laghos", 256)
    assert rec.state is RunState.TIMEOUT
    assert rec.fom is None
    assert rec.wall_seconds == CLOUD_WALLTIME_S
    assert rec.failure_kind == "walltime"


def test_onprem_gets_longer_walltime(engine):
    rec = engine.run(environment("cpu-onprem-a"), "laghos", 64)
    assert rec.state is RunState.COMPLETED


def test_cost_formula(engine):
    env = environment("cpu-cyclecloud-az")
    rec = engine.run(env, "amg2023", 32)
    expected = 32 * 3.60 * (rec.wall_seconds + rec.hookup_seconds) / 3600.0
    assert rec.cost_usd == pytest.approx(expected)


def test_onprem_runs_are_free(engine):
    rec = engine.run(environment("cpu-onprem-a"), "amg2023", 32)
    assert rec.cost_usd == 0.0


def test_context_effective_fabric_cloud_jitter(engine):
    env = environment("cpu-eks-aws")
    ctx = engine.context(env, 32)
    base = env.base_fabric()
    assert ctx.fabric.jitter_cv == pytest.approx(
        base.jitter_cv * ExecutionEngine.CLOUD_JITTER_MULTIPLIER
    )


def test_context_onprem_fabric_nominal(engine):
    env = environment("cpu-onprem-a")
    ctx = engine.context(env, 64)
    assert ctx.fabric.latency_us == env.base_fabric().latency_us
    assert ctx.fabric.jitter_cv == env.base_fabric().jitter_cv


def test_aks_large_cluster_fabric_degraded(engine):
    env = environment("cpu-aks-az")
    small = engine.context(env, 64)
    large = engine.context(env, 128)  # PPG fails >= 100 nodes
    assert large.fabric.latency_us > small.fabric.latency_us


def test_cyclecloud_ud_penalty(engine):
    cc = engine.context(environment("cpu-cyclecloud-az"), 32)
    aks = engine.context(environment("cpu-aks-az"), 32)
    assert cc.fabric.latency_us > aks.fabric.latency_us


def test_untuned_azure_ucx_flag():
    untuned = ExecutionEngine(seed=0, azure_ucx_tuned=False)
    ctx = untuned.context(environment("cpu-aks-az"), 32)
    assert ctx.fabric.quirk_multiplier(1024, "p2p") > 1.0
    tuned = ExecutionEngine(seed=0)
    ctx2 = tuned.context(environment("cpu-aks-az"), 32)
    assert ctx2.fabric.quirk_multiplier(1024, "p2p") == 1.0


def test_gpu_context_ranks_are_gpus(engine):
    ctx = engine.context(environment("gpu-eks-aws"), 256)
    assert ctx.ranks == 256
    assert ctx.nodes == 32
