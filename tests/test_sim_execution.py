"""Execution-engine tests."""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.envs.registry import environment
from repro.scenarios.presets import scenario
from repro.sim.execution import CLOUD_WALLTIME_S, ExecutionEngine, shared_cells
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


# ---------------------------------------------------------- shared cells


def _azure_records(engine):
    """Two apps of one Azure cell whose records the UCX tuning moves."""
    store = ResultStore()
    for app in ("amg2023", "osu"):
        engine.run_block(environment("cpu-aks-az"), app, 32, iterations=2, store=store)
    return store.records


def test_shared_cells_memo_is_shared_per_seed_and_dropped_on_exit():
    with shared_cells():
        first = ExecutionEngine(seed=0)
        first.run(environment("cpu-aks-az"), "amg2023", 32)
        assert first._block_memo
        assert ExecutionEngine(seed=0)._block_memo is first._block_memo
        assert ExecutionEngine(seed=1)._block_memo is not first._block_memo
    after = ExecutionEngine(seed=0)
    assert after._block_memo == {}
    assert after._block_memo is not first._block_memo


def test_shared_cells_memo_is_dropped_when_the_scope_raises():
    with pytest.raises(RuntimeError), shared_cells():
        ExecutionEngine(seed=0).run(environment("cpu-aks-az"), "amg2023", 32)
        raise RuntimeError("the command failed")
    assert ExecutionEngine(seed=0)._block_memo == {}


def test_untuned_and_scenario_engines_keep_their_own_memo():
    spot = scenario("spot-everything")
    outside = (
        _azure_records(ExecutionEngine(seed=0, azure_ucx_tuned=False)),
        _azure_records(ExecutionEngine(seed=0, scenario=spot)),
    )
    with shared_cells():
        tuned = ExecutionEngine(seed=0)
        _azure_records(tuned)  # the cell is in the scope's memo first
        untuned = ExecutionEngine(seed=0, azure_ucx_tuned=False)
        spot_engine = ExecutionEngine(seed=0, scenario=spot)
        assert untuned._block_memo is not tuned._block_memo
        assert spot_engine._block_memo is not tuned._block_memo
        assert spot_engine._block_memo is not untuned._block_memo
        inside = (_azure_records(untuned), _azure_records(spot_engine))
    assert inside == outside
    assert outside[0] != _azure_records(ExecutionEngine(seed=0))


# ---------------------------------------------------------- golden anchors

#: one CPU and one GPU environment per cloud (on-prem included)
GOLDEN_RUN_ENVS = (
    "cpu-onprem-a",
    "gpu-onprem-b",
    "cpu-parallelcluster-aws",
    "gpu-eks-aws",
    "cpu-computeengine-g",
    "gpu-gke-g",
    "cpu-cyclecloud-az",
    "gpu-aks-az",
)

#: sha256 of :func:`_canonical_record` lines for every ``ExecutionEngine.run``
#: of :func:`_golden_runs` at seed S: every app on GOLDEN_RUN_ENVS at its
#: smallest and largest size, iterations 0 and 1 (352 records).  The
#: reference any replacement of the scalar run path must reproduce.
GOLDEN_RUNS_SHA256 = {
    0: "c33c51fa77ee91bcf220a2cc87523cb8568d50baeb11435b9efbfd337e9d28f9",
    3: "f7a460adeef2ff3347729e9750617ae911f70406a4f3372adb7b308f8d54ffc0",
}


def _canonical(value) -> str:
    """One text per value: floats by ``repr``, numpy scalars as their
    Python value, arrays as dtype plus ``tolist()``, and tuples, lists
    and dicts each in their own brackets (a tuple that turns into a list
    moves the digest)."""
    if isinstance(value, np.ndarray):
        return f"array<{value.dtype}>{value.tolist()!r}"
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, tuple):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items()) + "}"
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _canonical_record(record) -> str:
    """Every field of a record in declaration order."""
    return "|".join(
        f"{f.name}={_canonical(getattr(record, f.name))}" for f in dataclasses.fields(record)
    )


def _golden_runs(seed: int):
    engine = ExecutionEngine(seed=seed)
    for env_id in GOLDEN_RUN_ENVS:
        env = environment(env_id)
        for app in APPS:
            for scale in (min(env.sizes()), max(env.sizes())):
                for iteration in (0, 1):
                    yield engine.run(env, app, scale, iteration=iteration)


@pytest.mark.parametrize("seed", sorted(GOLDEN_RUNS_SHA256))
def test_run_records_match_golden_digest(seed):
    digest = hashlib.sha256()
    count = 0
    for record in _golden_runs(seed):
        digest.update(_canonical_record(record).encode() + b"\n")
        count += 1
    assert count == len(GOLDEN_RUN_ENVS) * len(APPS) * 2 * 2
    assert digest.hexdigest() == GOLDEN_RUNS_SHA256[seed]


def test_canonical_form_keeps_tuples_apart_from_lists():
    assert _canonical((8, 4, 2)) != _canonical([8, 4, 2])
    assert _canonical(np.float64(0.1)) == _canonical(0.1) == "0.1"
    assert _canonical(np.arange(2)) == "array<int64>[0, 1]"
