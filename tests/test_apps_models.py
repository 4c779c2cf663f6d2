"""App-model tests: registry, FOM math, scaling modes, failure modes."""

import pytest

from repro.apps.base import straggler_factor, strong_scaling_efficiency
from repro.apps.registry import APPS, app
from repro.envs.registry import environment
from repro.network.fabrics import fabric
from repro.sim.execution import ExecutionEngine


@pytest.fixture
def engine():
    return ExecutionEngine(seed=0)


def test_eleven_apps_registered():
    assert len(APPS) == 11
    assert set(APPS) == {
        "amg2023", "laghos", "lammps", "kripke", "minife", "mt-gemm",
        "mixbench", "osu", "stream", "quicksilver", "single-node",
    }


def test_unknown_app():
    with pytest.raises(KeyError):
        app("hpl")


def test_scaling_modes_match_paper():
    assert app("amg2023").scaling == "weak"
    assert app("laghos").scaling == "strong"
    assert app("lammps").scaling == "strong"
    assert app("minife").scaling == "strong"
    assert app("quicksilver").scaling == "weak"


def test_fom_directions():
    assert app("amg2023").higher_is_better
    assert not app("kripke").higher_is_better  # grind time
    assert app("lammps").higher_is_better


def test_laghos_gpu_unsupported_with_reason():
    laghos = app("laghos")
    assert not laghos.supports("gpu")
    assert laghos.supports("cpu")
    assert "CUDA" in laghos.unsupported_reason["gpu"]


def test_straggler_factor_properties():
    ib = fabric("infiniband-edr")
    efa = fabric("efa-gen1.5")
    assert straggler_factor(ib, 1) == 1.0
    assert straggler_factor(ib, 4096) < straggler_factor(efa, 4096)
    assert straggler_factor(efa, 256) < straggler_factor(efa, 4096)


def test_strong_scaling_efficiency_curve():
    assert strong_scaling_efficiency(1e9, 100.0) == pytest.approx(1.0, abs=1e-6)
    assert strong_scaling_efficiency(100.0, 100.0) == pytest.approx(0.5)
    assert strong_scaling_efficiency(0.0, 100.0) == 0.0


def test_amg_weak_scaling_fom_grows(engine):
    env = environment("cpu-eks-aws")
    f32 = engine.run(env, "amg2023", 32).fom
    f256 = engine.run(env, "amg2023", 256).fom
    assert f256 > 4 * f32  # roughly linear in units


def test_amg_topology_option(engine):
    env = environment("gpu-gke-g")
    tuned = engine.run(env, "amg2023", 64, options={"process_topology": (8, 4, 2)})
    legacy = engine.run(env, "amg2023", 64, options={"process_topology": (4, 4, 4)})
    assert tuned.fom / legacy.fom == pytest.approx(1.10, rel=0.02)


def test_amg_fom_formula_fields(engine):
    env = environment("cpu-eks-aws")
    rec = engine.run(env, "amg2023", 32)
    # FOM = nnz / (setup + 3 solve); reconstruct from phases (noise-free
    # check impossible, but the identity must hold for reported values).
    setup = rec.phases["setup"]
    solve = rec.phases["solve"]
    nnz = rec.extra["nnz_AP"]
    assert rec.fom == pytest.approx(nnz / (setup + 3 * solve), rel=1e-6)


def test_kripke_gpu_unreported(engine):
    rec = engine.run(environment("gpu-gke-g"), "kripke", 32)
    assert rec.failure_kind == "misconfiguration"
    assert rec.fom is None


def test_quicksilver_gpu_fails(engine):
    rec = engine.run(environment("gpu-eks-aws"), "quicksilver", 32)
    assert rec.failure_kind == "misconfiguration"
    assert "GPU 0" in rec.extra["detail"]


def test_minife_onprem_partial_output(engine):
    rec = engine.run(environment("cpu-onprem-a"), "minife", 32)
    assert rec.failure_kind == "partial-output"


def test_stream_cpu_reports_aggregate(engine):
    rec = engine.run(environment("cpu-gke-g"), "stream", 64)
    assert rec.extra["aggregate_gbs"] == rec.fom
    assert rec.extra["per_node_std_gbs"] > 0


def test_mixbench_roofline_monotone(engine):
    from repro.apps.mixbench import Mixbench

    ctx = engine.context(environment("gpu-eks-aws"), 32)
    roof = Mixbench().roofline(ctx)
    values = [roof[i] for i in sorted(roof)]
    assert values == sorted(values)


def test_osu_pair_sampling():
    import numpy as np
    from repro.apps.osu import OSUBenchmarks

    rng = np.random.default_rng(0)
    pairs = OSUBenchmarks.sample_pairs(256, rng)
    assert len(pairs) == 28  # at most 28 combinations of 8 nodes
    nodes = {n for p in pairs for n in p}
    assert len(nodes) <= 8
    with pytest.raises(ValueError):
        OSUBenchmarks.sample_pairs(1, rng)
