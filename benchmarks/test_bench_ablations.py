"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation disables one model mechanism and measures how a headline
result changes, demonstrating that the reproduced orderings come from
the modelled mechanisms rather than from tuning:

* straggler factor        -> the Laghos on-prem/cloud FOM gap
* Azure UCX tuning        -> AKS small-message latency
* placement degradation   -> AKS MiniFE FOM at 128 nodes
* ECC setting             -> GPU Stream Triad bandwidth
* cloud jitter multiplier -> MiniFE inverse scaling strength
"""

import dataclasses

import pytest

import repro.apps.base as apps_base
from repro.core.analysis import mean_fom
from repro.envs.registry import environment
from repro.experiments.base import run_matrix
from repro.rng import stream_block
from repro.sim.execution import ExecutionEngine


def _laghos_gap(iterations: int = 3) -> float:
    """on-prem A vs best cloud Laghos FOM ratio at 32 nodes."""
    envs = [environment(e) for e in ("cpu-onprem-a", "cpu-eks-aws", "cpu-aks-az")]
    store = run_matrix(envs, ["laghos"], sizes=lambda e: (32,), iterations=iterations)
    a = mean_fom(store, "cpu-onprem-a", "laghos", 32).mean
    cloud = max(
        mean_fom(store, e, "laghos", 32).mean
        for e in ("cpu-eks-aws", "cpu-aks-az")
    )
    return a / cloud


def test_ablation_straggler_factor(benchmark):
    """Without jitter straggling, the Laghos on-prem advantage shrinks."""
    with_straggler = _laghos_gap()

    def without():
        saved = apps_base.STRAGGLER_WEIGHT
        apps_base.STRAGGLER_WEIGHT = 0.0
        try:
            return _laghos_gap()
        finally:
            apps_base.STRAGGLER_WEIGHT = saved

    gap_without = benchmark.pedantic(without, rounds=1, iterations=1)
    print(f"\nLaghos on-prem/cloud FOM gap: {with_straggler:.1f}x with straggler, "
          f"{gap_without:.1f}x without")
    assert with_straggler > 1.5 * gap_without


def test_ablation_ucx_tuning(benchmark):
    """Untuned Azure UCX (pre-§3.1 experimentation) triples small-message latency."""
    env = environment("cpu-aks-az")

    def measure(tuned: bool) -> float:
        engine = ExecutionEngine(seed=0, azure_ucx_tuned=tuned)
        return engine.run(env, "osu", 64).extra["latency_us"][1024]

    tuned_lat = measure(True)
    untuned_lat = benchmark.pedantic(measure, args=(False,), rounds=1, iterations=1)
    print(f"\nAKS 1KiB latency: {tuned_lat:.2f}us tuned vs {untuned_lat:.2f}us untuned")
    assert untuned_lat > 2.0 * tuned_lat


def test_ablation_placement_degradation(benchmark):
    """AKS beyond the 100-node PPG cap pays real performance."""
    from repro.apps.registry import app

    env = environment("cpu-aks-az")
    engine = ExecutionEngine(seed=0)
    minife = app("minife")

    def mean_fom_over_3(ctx) -> float:
        block = stream_block(0, "run", env.env_id, 128, iterations=3)
        foms = minife.simulate_block(ctx, block).fom
        return sum(foms) / len(foms)

    def degraded_fom() -> float:
        return mean_fom_over_3(engine.context(env, 128))

    def colocated_fom() -> float:
        ctx = engine.context(env, 128)
        # Force the fabric the cluster would see with a working PPG.
        fabric = env.base_fabric().with_jitter(ctx.fabric.jitter_cv)
        return mean_fom_over_3(dataclasses.replace(ctx, fabric=fabric))

    degraded = benchmark.pedantic(degraded_fom, rounds=1, iterations=1)
    colocated = colocated_fom()
    print(f"\nAKS MiniFE FOM at 128 nodes: {degraded:.3g} degraded vs "
          f"{colocated:.3g} colocated")
    assert colocated > 1.2 * degraded


def test_ablation_ecc_setting(benchmark):
    """ECC off recovers ~15% of GPU Triad bandwidth (§3.3 Mixbench)."""
    from repro.machine.gpu import V100

    def delta() -> float:
        on = V100.with_ecc(True).effective_mem_bw()
        off = V100.with_ecc(False).effective_mem_bw()
        return (off - on) / off

    d = benchmark.pedantic(delta, rounds=1, iterations=1)
    print(f"\nECC bandwidth cost: {d:.0%}")
    assert d == pytest.approx(0.15)


def test_ablation_cloud_jitter(benchmark):
    """Cloud tenancy jitter drives MiniFE's inverse scaling."""
    env = environment("cpu-eks-aws")

    def inverse_ratio(multiplier: float) -> float:
        engine = ExecutionEngine(seed=0)
        engine.CLOUD_JITTER_MULTIPLIER = multiplier
        store_foms = {}
        for scale in (32, 256):
            foms = [
                engine.run(env, "minife", scale, iteration=i).fom for i in range(3)
            ]
            store_foms[scale] = sum(foms) / len(foms)
        return store_foms[32] / store_foms[256]

    with_jitter = inverse_ratio(1.5)
    without = benchmark.pedantic(inverse_ratio, args=(0.1,), rounds=1, iterations=1)
    print(f"\nMiniFE FOM(32)/FOM(256): {with_jitter:.2f} with cloud jitter, "
          f"{without:.2f} with jitter suppressed")
    assert with_jitter > without
