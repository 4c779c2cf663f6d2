"""The paper-scale campaign: every environment, app, size, 5 iterations."""

import hashlib

import pytest

from repro.core.costs import study_spend
from repro.core.study import StudyConfig, StudyRunner
from repro.core.usability import usability_table
from repro.sim.run_result import RunState


#: sha256 of ``StudyConfig.full_study(seed=S)``'s ``store.to_csv()``
#: (2,860 records).  A change that moves any number moves these.
GOLDEN_FULL_STUDY_CSV_SHA256 = {
    0: "c48e87d3527772dd605cab3a870b6c243e240850ba0b708103efb1efb8bcb544",
    3: "6aa4b991f2546852a47d9fa296e7bd6a7cae82612c695620cae4025b2fb13e36",
}


@pytest.fixture(scope="module")
def full_report():
    return StudyRunner(StudyConfig.full_study(seed=0)).run()


def _csv_sha256(report) -> str:
    return hashlib.sha256(report.store.to_csv().encode()).hexdigest()


def test_full_study_csv_matches_golden_digest(full_report):
    assert full_report.datasets == len(full_report.store) == 2_860
    assert _csv_sha256(full_report) == GOLDEN_FULL_STUDY_CSV_SHA256[0]


def test_full_study_csv_matches_golden_digest_at_seed_3():
    report = StudyRunner(StudyConfig.full_study(seed=3)).run()
    assert _csv_sha256(report) == GOLDEN_FULL_STUDY_CSV_SHA256[3]


def test_dataset_volume_comparable_to_paper(full_report):
    # The paper reports 3,546 datasets *in the paper* (of 25,541 total
    # collected, which includes prototyping runs we don't re-run).
    assert 2_500 <= full_report.datasets <= 3_200


def test_majority_of_runs_complete(full_report):
    counts = full_report.store.counts_by_state()
    assert counts[RunState.COMPLETED] > 0.75 * full_report.datasets


def test_documented_failures_present(full_report):
    counts = full_report.store.counts_by_state()
    # Laghos segfaults/launch failures + Kripke/Quicksilver GPU +
    # MiniFE on-prem partial output.
    assert counts.get(RunState.FAILED, 0) > 100
    # Laghos beyond 64 cloud nodes.
    assert counts.get(RunState.TIMEOUT, 0) >= 30
    # ParallelCluster GPU environment + Laghos GPU.
    assert counts.get(RunState.SKIPPED, 0) >= 40


def test_every_cloud_under_budget(full_report):
    for cloud, spend in full_report.spend_by_cloud.items():
        assert spend < 49_000.0, f"{cloud} over budget: {spend}"


def test_spend_is_study_scale(full_report):
    assert all(v > 5_000.0 for v in full_report.spend_by_cloud.values())


def test_container_matrix_scale(full_report):
    # The study built hundreds of containers across 12 environments; our
    # deduplicated matrix covers every (app, cloud, accelerator) stack.
    assert full_report.containers_built >= 60
    # Laghos GPU fails in every cloud stack (3 clouds x k8s/vm attempts).
    assert full_report.containers_failed >= 3


def test_clusters_per_env_per_size(full_report):
    # 11 deployable cloud environments x 4 sizes = 44 separate clusters
    # (§2.9: each size deployed independently for cost efficiency).
    assert full_report.clusters_created == 44


def test_incident_log_feeds_usability(full_report):
    table = usability_table(extra=full_report.incidents)
    assert len(table) == 13
    # Campaign incidents include at least the Azure GPU node fault.
    flat = [i for incs in full_report.incidents.values() for i in incs]
    assert any(i.source.startswith("fault:") for i in flat)
    assert any(i.source.startswith("build:") for i in flat)


def test_dataset_queryable_per_figure(full_report):
    store = full_report.store
    # Figure 2 data: AMG on every deployable environment.
    assert store.foms("cpu-onprem-a", "amg2023", 256)
    assert store.foms("gpu-aks-az", "amg2023", 256)
    # Figure 3: Laghos cloud timeouts beyond 64.
    assert not store.completed(env_id="cpu-eks-aws", app="laghos", scale=256)
