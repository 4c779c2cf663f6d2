"""OSU benchmark app tests."""

import pytest

from repro.apps.osu import MESSAGE_SIZES, OSUBenchmarks
from repro.envs.registry import environment
from repro.sim.execution import ExecutionEngine


@pytest.fixture
def engine():
    return ExecutionEngine(seed=0)


@pytest.fixture
def osu():
    return OSUBenchmarks()


def test_message_sweep_is_osu_default():
    assert MESSAGE_SIZES[0] == 1
    assert MESSAGE_SIZES[-1] == 4 * 1024 * 1024
    assert all(b == 2 * a for a, b in zip(MESSAGE_SIZES, MESSAGE_SIZES[1:]))


def _sweep(engine, env_id, scale, key, iteration=0):
    """One run's measured sweep ``key`` (message size -> value)."""
    return engine.run(environment(env_id), "osu", scale, iteration=iteration).extra[key]


def test_latency_monotone_in_message_size(engine):
    lat = _sweep(engine, "cpu-onprem-a", 256, "latency_us")
    assert lat[8] < lat[1 << 16] < lat[1 << 22]


def test_small_message_latency_matches_fabric(engine):
    # Omni-Path ~1.5us one-way; IB HDR similar; EFA ~16us.
    assert _sweep(engine, "cpu-onprem-a", 256, "latency_us")[8] < 3.0
    assert _sweep(engine, "cpu-eks-aws", 256, "latency_us")[8] > 10.0


def test_bandwidth_approaches_line_rate(engine):
    bw = _sweep(engine, "cpu-cyclecloud-az", 64, "bandwidth_mbps")  # IB HDR 200Gb/s
    assert 15_000 < max(bw.values()) < 30_000  # MB/s, ~25 GB/s line rate


def test_allreduce_grows_with_ranks(engine):
    small = _sweep(engine, "cpu-eks-aws", 32, "allreduce_us")
    large = _sweep(engine, "cpu-eks-aws", 256, "allreduce_us")
    assert large[8] > small[8]


def test_aws_spike_at_32k(engine):
    ar = _sweep(engine, "cpu-parallelcluster-aws", 256, "allreduce_us")
    assert ar[32768] > 2.0 * ar[8192]


def test_base_times_are_the_noise_free_sweep(engine, osu):
    """The measured sweep is the base sweep times per-size noise, so the
    noise-free model keeps the spike and the monotone latency too."""
    ctx = engine.context(environment("cpu-parallelcluster-aws"), 256)
    lat, bw, ar = osu.base_times(ctx)
    assert lat.shape == bw.shape == ar.shape == (len(MESSAGE_SIZES),)
    assert (lat[1:] >= lat[:-1]).all()
    at = {s: i for i, s in enumerate(MESSAGE_SIZES)}
    assert ar[at[32768]] > 2.0 * ar[at[8192]]


def test_device_mode_host_to_host_without_rdma(engine, osu):
    # §2.8: only InfiniBand fabrics support GPU Direct.
    efa = engine.context(environment("gpu-eks-aws"), 32)
    ib = engine.context(environment("gpu-aks-az"), 32)
    assert osu.device_mode(efa) == "H H"
    assert osu.device_mode(ib) == "D D"
    with pytest.raises(ValueError):
        osu.device_mode(engine.context(environment("cpu-eks-aws"), 32))


def test_simulate_returns_full_sweeps(engine, osu):
    rec = engine.run(environment("cpu-gke-g"), "osu", 64)
    assert rec.ok
    for key in ("latency_us", "bandwidth_mbps", "allreduce_us"):
        sweep = rec.extra[key]
        assert set(sweep) == set(MESSAGE_SIZES)
        assert all(v > 0 for v in sweep.values())


def test_cyclecloud_allreduce_noisier_than_aks(engine):
    import numpy as np

    def cv(env_id):
        vals = [_sweep(engine, env_id, 64, "allreduce_us", it)[1024] for it in range(20)]
        return np.std(vals) / np.mean(vals)

    assert cv("cpu-cyclecloud-az") > cv("cpu-aks-az")
