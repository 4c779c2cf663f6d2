"""Property tests on app-model scaling behaviour (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs.registry import environment
from repro.machine.rates import KernelClass
from repro.sim.execution import ExecutionEngine

CLOUD_CPU = ["cpu-eks-aws", "cpu-cyclecloud-az", "cpu-gke-g", "cpu-parallelcluster-aws"]
GPU_ENVS = ["gpu-eks-aws", "gpu-aks-az", "gpu-gke-g", "gpu-onprem-b"]
SCALES = [32, 64, 128, 256]


@given(env_id=st.sampled_from(CLOUD_CPU), iteration=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_weak_scaled_quicksilver_wall_roughly_flat(env_id, iteration):
    """Weak scaling: per-cycle work per rank constant, so wall time grows
    only through communication — bounded by 3x across an 8x size range."""
    engine = ExecutionEngine(seed=4)
    env = environment(env_id)
    walls = [
        engine.run(env, "quicksilver", s, iteration=iteration).wall_seconds
        for s in (32, 256)
    ]
    assert walls[1] < 3.0 * walls[0]


@given(env_id=st.sampled_from(GPU_ENVS), iteration=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_strong_scaled_mtgemm_wall_decreases(env_id, iteration):
    """Strong scaling on GPUs: more devices, shorter wall."""
    engine = ExecutionEngine(seed=4)
    env = environment(env_id)
    w32 = engine.run(env, "mt-gemm", 32, iteration=iteration).wall_seconds
    w256 = engine.run(env, "mt-gemm", 256, iteration=iteration).wall_seconds
    assert w256 < w32


@given(
    env_id=st.sampled_from(CLOUD_CPU + GPU_ENVS),
    scale=st.sampled_from(SCALES),
    iteration=st.integers(0, 2),
)
@settings(max_examples=50, deadline=None)
def test_phase_times_nonnegative_and_bounded(env_id, scale, iteration):
    engine = ExecutionEngine(seed=5)
    env = environment(env_id)
    rec = engine.run(env, "lammps", scale, iteration=iteration)
    assert all(v >= 0.0 for v in rec.phases.values())
    if rec.ok:
        # Phases decompose the wall time (within noise applied on top).
        assert sum(rec.phases.values()) <= rec.wall_seconds * 3.0


@given(scale=st.sampled_from(SCALES))
@settings(max_examples=20, deadline=None)
def test_more_cores_never_hurt_compute_rate(scale):
    """96-core Hpc6a nodes outrun 56-core c2d nodes on compute-bound work."""
    engine = ExecutionEngine(seed=6)
    aws = engine.context(environment("cpu-eks-aws"), scale)
    gcp = engine.context(environment("cpu-gke-g"), scale)
    assert aws.node_rate_gflops(KernelClass.COMPUTE) > gcp.node_rate_gflops(
        KernelClass.COMPUTE
    )


@given(
    env_id=st.sampled_from(CLOUD_CPU),
    scale=st.sampled_from(SCALES),
)
@settings(max_examples=30, deadline=None)
def test_fom_mean_stable_across_iterations(env_id, scale):
    """Run-to-run noise is bounded: 5-iteration CV under 50%."""
    engine = ExecutionEngine(seed=7)
    env = environment(env_id)
    foms = [
        engine.run(env, "kripke", scale, iteration=i).fom for i in range(5)
    ]
    mean = sum(foms) / len(foms)
    var = sum((f - mean) ** 2 for f in foms) / len(foms)
    assert (var**0.5) / mean < 0.5


def test_onprem_b_needs_twice_the_nodes():
    """Any GPU scale: B runs 2x the nodes of cloud for the same GPUs."""
    engine = ExecutionEngine(seed=8)
    for scale in (32, 64, 128, 256):
        b = engine.context(environment("gpu-onprem-b"), scale)
        cloud = engine.context(environment("gpu-eks-aws"), scale)
        assert b.nodes == 2 * cloud.nodes
        assert b.ranks == cloud.ranks == scale
