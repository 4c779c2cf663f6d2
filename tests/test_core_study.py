"""Study-runner integration tests."""

import pytest

from repro.core.study import StudyConfig, StudyRunner
from repro.sim.run_result import RunState


@pytest.fixture(scope="module")
def smoke_report():
    return StudyRunner(StudyConfig.smoke()).run()


def test_smoke_produces_datasets(smoke_report):
    # 2 envs x 2 apps x 1 size x 2 iterations
    assert smoke_report.datasets == 8
    assert smoke_report.store.counts_by_state()[RunState.COMPLETED] == 8


def test_smoke_builds_containers(smoke_report):
    assert smoke_report.containers_built == 2  # amg + lammps for EKS
    assert smoke_report.containers_failed == 0


def test_smoke_spends_money_on_aws_only(smoke_report):
    assert smoke_report.spend_by_cloud.get("aws", 0) > 0
    assert "p" not in smoke_report.spend_by_cloud or smoke_report.spend_by_cloud["p"] == 0


def test_clusters_created_per_size(smoke_report):
    assert smoke_report.clusters_created == 1  # one cloud env, one size


def test_dataset_artifact_pushed_to_registry():
    # §2.9: job output is pushed to the registry via ORAS.
    runner = StudyRunner(StudyConfig.smoke(seed=9))
    runner.run()
    payload = runner.registry.artifact("study-seed9.csv")
    assert payload.decode().startswith("env_id,")


def test_undeployable_env_recorded_as_skips():
    config = StudyConfig(
        env_ids=("gpu-parallelcluster-aws",),
        apps=("lammps",),
        sizes=(32,),
        iterations=2,
        seed=0,
    )
    report = StudyRunner(config).run()
    states = report.store.counts_by_state()
    assert states.get(RunState.SKIPPED, 0) >= 1
    assert report.clusters_created == 0


def test_laghos_gpu_incident_filed():
    config = StudyConfig(
        env_ids=("gpu-eks-aws",),
        apps=("laghos",),
        sizes=(32,),
        iterations=1,
        seed=0,
    )
    runner = StudyRunner(config)
    report = runner.run()
    incidents = report.incidents.get("gpu-eks-aws", [])
    assert any("cuda" in i.description.lower() for i in incidents)


def test_azure_study_files_fault_incidents():
    config = StudyConfig(
        env_ids=("gpu-cyclecloud-az",),
        apps=("stream",),
        sizes=(256,),  # 32 nodes -> triggers the 7/8-GPU fault
        iterations=1,
        seed=0,
    )
    report = StudyRunner(config).run()
    incidents = report.incidents.get("gpu-cyclecloud-az", [])
    assert any("7/8" in i.description for i in incidents)


def test_unknown_app_rejected():
    from repro.errors import ConfigurationError

    # Rejected when the selection is built, before any work runs.
    with pytest.raises(ConfigurationError, match="unknown app 'hpcg'"):
        StudyConfig(env_ids=("cpu-eks-aws",), apps=("hpcg",), sizes=(32,), iterations=1)


def test_seeds_outside_32_bits_are_rejected():
    """The keyed streams hash ``seed & 0xFFFFFFFF``: seed 2**32 would
    alias seed 0's draws while cache keys read the full value, so every
    spec refuses a seed outside 0..2**32-1 when it is built, an
    ensemble's or campaign's last replica seed included."""
    from repro.campaigns import CampaignSpec
    from repro.ensemble import EnsembleSpec
    from repro.errors import ConfigurationError

    top = 2**32 - 1
    selection = dict(env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,), iterations=1)
    for seed in (2**32, -1, 2**40):
        message = rf"^seed must be in 0\.\.{top} \(got {seed}\)$"
        with pytest.raises(ConfigurationError, match=message):
            StudyConfig(**selection, seed=seed)
    assert StudyConfig(**selection, seed=top).seed == top
    message = rf"^replica seeds must be in 0\.\.{top} \(got {top - 2}\.\.{top + 1}\)$"
    with pytest.raises(ConfigurationError, match=message):
        EnsembleSpec(n_replicas=4, base_seed=top - 2)
    with pytest.raises(ConfigurationError, match="replica seeds must be in"):
        EnsembleSpec(n_replicas=2, base_seed=-1)
    assert EnsembleSpec(n_replicas=3, base_seed=top - 2).replica_seed(2) == top
    with pytest.raises(ConfigurationError, match=rf"\(got {top - 1}\.\.{top + 1}\)$"):
        CampaignSpec(base_seed=top - 1)  # the grid stage's 3 replicas
    assert CampaignSpec(base_seed=top - 2).base_seed == top - 2


def test_full_study_config_shape():
    config = StudyConfig.full_study()
    assert len(config.env_ids) == 14
    assert len(config.apps) == 11
    assert config.iterations == 5


def test_aks_256_runs_single_iteration():
    # §3.3: only one LAMMPS run at AKS 256 due to 8.82-minute hookup.
    config = StudyConfig(
        env_ids=("cpu-aks-az",),
        apps=("lammps",),
        sizes=(256,),
        iterations=5,
        seed=0,
    )
    report = StudyRunner(config).run()
    lammps_runs = report.store.query(env_id="cpu-aks-az", app="lammps", scale=256)
    assert len(lammps_runs) == 1
