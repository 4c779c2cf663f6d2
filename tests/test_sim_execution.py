"""Execution-engine tests."""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.errors import ConfigurationError
from repro.envs.registry import ENVIRONMENTS, environment
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


@pytest.mark.parametrize("seed", [2**32, -1])
def test_engine_refuses_seeds_the_streams_cannot_tell_apart(seed):
    # The keyed streams hash seed & 0xFFFFFFFF: 2**32 would run seed 0.
    with pytest.raises(ConfigurationError, match="seed must be in 0..4294967295"):
        ExecutionEngine(seed=seed)
    ExecutionEngine(seed=2**32 - 1)


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


def _digest(lines) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        digest.update(line.encode() + b"\n")
        count += 1
    return digest.hexdigest(), count


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
    digest, count = _digest(_canonical_record(r) for r in _golden_runs(seed))
    assert count == len(GOLDEN_RUN_ENVS) * len(APPS) * 2 * 2
    assert digest == GOLDEN_RUNS_SHA256[seed]


def test_canonical_form_keeps_tuples_apart_from_lists():
    assert _canonical((8, 4, 2)) != _canonical([8, 4, 2])
    assert _canonical(np.float64(0.1)) == _canonical(0.1) == "0.1"
    assert _canonical(np.arange(2)) == "array<int64>[0, 1]"


#: sha256 of :func:`_canonical_record` lines for every ``ExecutionEngine.run``
#: of :func:`_scenario_runs` (scenario, seed): every environment and app at
#: its smallest and largest size, iterations 0-3 (1,232 records per set).
#: The spot set holds preemptions; all three sets move prices.
SCENARIO_RUNS_SHA256 = {
    ("spot-everything", 0):
        "a6fc5db94fb68d6b606556fb7fee1a7b81a4cd1ef3f37eafed1faec04f6cee37",
    ("spot-everything", 3):
        "e4f0772af9d12966e7ca445a810dc76e5d5f36bab16240cb0042a7bd57913adf",
    ("azure-price-spike", 0):
        "037756d96dae5a362ba3ce9361ffec70a87fd27ea278d44bf444f3341a093608",
    ("azure-price-spike", 3):
        "e6e0fc04a1415e35d297c046fcf6e935de836862f861a13c59cea5b7c6322374",
    ("price-war", 0):
        "e573ede18242356267e1a17636e05f9f9f328afa2f3fcfd4c04e1907f23602b8",
    ("price-war", 3):
        "7a7b997dbdcd67ce5a1ecafeec37afe21daebec5944d542b7b5e800157cf4449",
}


def _scenario_runs(name: str, seed: int):
    engine = ExecutionEngine(seed=seed, scenario=scenario(name))
    for env in ENVIRONMENTS.values():
        for app in APPS:
            for scale in (min(env.sizes()), max(env.sizes())):
                for iteration in range(4):
                    yield engine.run(env, app, scale, iteration=iteration)


@pytest.mark.parametrize("name,seed", sorted(SCENARIO_RUNS_SHA256))
def test_scenario_run_records_match_golden_digest(name, seed):
    records = list(_scenario_runs(name, seed))
    assert len(records) == len(ENVIRONMENTS) * len(APPS) * 2 * 4
    if (name, seed) == ("spot-everything", 0):
        assert sum(r.failure_kind == "spot-preemption" for r in records) == 10
    digest, _ = _digest(_canonical_record(r) for r in records)
    assert digest == SCENARIO_RUNS_SHA256[name, seed]


#: sha256 of fig2's two process-topology runs (amg2023 on gpu-gke-g at
#: size 64 with ``-P 8 4 2`` and ``-P 4 4 4``) at seed S
FIG2_TOPOLOGY_RUNS_SHA256 = {
    0: "9e6e2a8c275a07af6bd8edc1d2bf2570529a3610adba8e5574e23effec345e04",
    3: "7e4e270d35f7117d7b2f8881d4f8673caffd67902e1beb82dddea04cfbf64374",
}


@pytest.mark.parametrize("seed", sorted(FIG2_TOPOLOGY_RUNS_SHA256))
def test_fig2_topology_runs_match_golden_digest(seed):
    engine = ExecutionEngine(seed=seed)
    env = environment("gpu-gke-g")
    records = [
        engine.run(env, "amg2023", 64, options={"process_topology": topology})
        for topology in ((8, 4, 2), (4, 4, 4))
    ]
    digest, _ = _digest(_canonical_record(r) for r in records)
    assert digest == FIG2_TOPOLOGY_RUNS_SHA256[seed]


#: sha256 of every table row and series line of ``run_experiment(E,
#: seed=S)`` at full precision (the report renders 4 significant digits)
EXPERIMENT_OUTPUT_SHA256 = {
    ("fig5", 0):
        "2a8aef2302278f96026b1404169cfd29bf11d22475c48e31a59f0964f9d3e27c",
    ("fig5", 3):
        "abdd6a29b2ab1c1b2cdc3c8c29dcbe0066faba61057ee18aa45968353f216d7f",
    ("nodebench", 0):
        "42179e223beda1ad86a62677268677cd092da54474273badf7ee8796cc75733d",
    ("nodebench", 3):
        "185a844dfdcd1a5bb379886972cd14e3d9cb19655fc7127b616580399b71e2ec",
    ("hookup", 0):
        "4cf27aaf3100f409a0f2d3aa44e68cd812e6f5daae13c49400e76ddfa486b145",
    ("hookup", 3):
        "1c9c303abe569e54153fadfc57c224992bf062e6ce01ef6f408989fb3e40984e",
    ("ecc", 0):
        "b2cf05ef5b28f684b72b21fbc731a1ca859e754e4c80973b69d67a3c4057bcf3",
    ("ecc", 3):
        "9273050f750af503d6e15d3289227e98be948edb79c716ec487979933210ca98",
}


def _experiment_lines(out):
    if out.table is not None:
        for row in out.table.rows:
            yield "row|" + _canonical(row)
    for series in out.series:
        for name, points in series.lines.items():
            yield f"line|{series.title}|{name}|{_canonical(points)}"


@pytest.mark.parametrize("experiment,seed", sorted(EXPERIMENT_OUTPUT_SHA256))
def test_experiment_output_matches_golden_digest(experiment, seed):
    from repro.experiments.registry import run_experiment

    digest, count = _digest(_experiment_lines(run_experiment(experiment, seed=seed)))
    assert count
    assert digest == EXPERIMENT_OUTPUT_SHA256[experiment, seed]


#: sha256 of the hookup experiment's per-(cloud, accelerator, size) means
#: at full precision (its table rounds them to 0.1 s) at seed S
HOOKUP_MEANS_SHA256 = {
    0: "9dbf9eb75d8d5c94ac39a8ba26802ccf4420b1e42995e8e621844a67dc3345b6",
    3: "673d721db891ba85838b3b90f77179a7ae687c1441c7dad060e89578f58966e2",
}


@pytest.mark.parametrize("seed", sorted(HOOKUP_MEANS_SHA256))
def test_hookup_means_match_golden_digest(seed):
    from repro.experiments.hookup_times import CPU_NODE_SIZES, GPU_NODE_SIZES, _mean_hookup

    lines = [
        f"{cloud}|{gpu}|{nodes}|{_mean_hookup(cloud, gpu, nodes, seed, 10)!r}"
        for cloud in ("aws", "az", "g", "p")
        for gpu, sizes in ((True, GPU_NODE_SIZES), (False, CPU_NODE_SIZES))
        for nodes in sizes
    ]
    digest, _ = _digest(lines)
    assert digest == HOOKUP_MEANS_SHA256[seed]
