"""Flux Operator tests: MiniCluster lifecycle over pods."""

import pytest

from repro.cloud.pricing import BillingMeter
from repro.cloud.provisioner import ProvisionRequest, Provisioner
from repro.cloud.quota import QuotaLedger, QuotaRequest
from repro.errors import SchedulingError
from repro.k8s.cluster import KubernetesCluster
from repro.k8s.cni import CniConfig
from repro.k8s.daemonsets import EFA_DEVICE_PLUGIN
from repro.k8s.flux_operator import FluxOperator, MiniClusterSpec
from repro.k8s.objects import KubeNode
from repro.scheduler.base import Job, JobState


def _kube(nodes=16, cni=None):
    ledger = QuotaLedger(seed=0)
    ledger.request(QuotaRequest("aws", "hpc6a.48xlarge", "cpu", nodes + 1))
    prov = Provisioner(ledger, BillingMeter(), seed=0)
    cluster = prov.provision(ProvisionRequest("aws", "k8s", "hpc6a.48xlarge", nodes))
    return KubernetesCluster.create(cluster, cni=cni)


def _spec(size=16, name="mc"):
    return MiniClusterSpec(
        name=name, image="app:latest", size=size, tasks_per_node=96
    )


def test_minicluster_one_pod_per_node():
    kube = _kube(16)
    operator = FluxOperator(kube)
    mc = operator.create(_spec(16))
    assert mc.size == 16
    nodes_used = {p.node_name for p in mc.pods}
    assert len(nodes_used) == 16


def test_minicluster_checks_fits_once_per_pod(monkeypatch):
    """The study's 256-node EKS bring-up admits each pod with one check."""
    kube = _kube(256, cni=CniConfig("aws-vpc-cni", prefix_delegation=True))
    kube.deploy_daemonset(EFA_DEVICE_PLUGIN)
    calls = []
    fits = KubeNode.fits

    def counted_fits(node, pod):
        calls.append(pod.name)
        return fits(node, pod)

    monkeypatch.setattr(KubeNode, "fits", counted_fits)
    spec = MiniClusterSpec(
        name="mc", image="app:latest", size=256, tasks_per_node=96,
        fabric_resource="vpc.amazonaws.com/efa",
    )
    mc = FluxOperator(kube).create(spec)
    assert len({p.node_name for p in mc.pods}) == 256
    assert len(calls) == 256


def test_bringup_includes_pull_and_bootstrap():
    kube = _kube(8)
    operator = FluxOperator(kube)
    mc = operator.create(_spec(8))
    assert mc.bringup_seconds > mc.spec.image_pull_seconds


def test_warm_image_cache_skips_pull():
    kube = _kube(8)
    operator = FluxOperator(kube)
    mc1 = operator.create(_spec(8, name="first"))
    operator.delete(mc1)
    mc2 = operator.create(_spec(8, name="second"))
    assert mc2.bringup_seconds < mc1.bringup_seconds
    assert all(p.pull_seconds == 0.0 for p in mc2.pods)


def test_minicluster_flux_accepts_jobs():
    kube = _kube(8)
    mc = FluxOperator(kube).create(_spec(8))
    job = mc.flux.submit(Job("j", nodes=8, runtime=10.0, walltime_limit=100.0))
    mc.flux.run_until_idle()
    assert job.state is JobState.COMPLETED


def test_oversized_minicluster_rejected():
    kube = _kube(4)
    with pytest.raises(SchedulingError):
        FluxOperator(kube).create(_spec(8))


def test_delete_frees_nodes():
    kube = _kube(4)
    operator = FluxOperator(kube)
    mc = operator.create(_spec(4))
    operator.delete(mc)
    assert all(
        not [p for p in n.pods if p.labels.get("minicluster")] for n in kube.nodes
    )
    # Room again for a new MiniCluster.
    operator.create(_spec(4, name="again"))


def test_delete_unknown_rejected():
    kube = _kube(4)
    operator = FluxOperator(kube)
    mc = operator.create(_spec(4))
    operator.delete(mc)
    with pytest.raises(SchedulingError):
        operator.delete(mc)


def test_gpu_minicluster_requires_device_plugin():
    from repro.k8s.daemonsets import NVIDIA_DEVICE_PLUGIN
    from repro.cloud.pricing import BillingMeter
    from repro.cloud.provisioner import ProvisionRequest, Provisioner
    from repro.cloud.quota import QuotaLedger, QuotaRequest

    ledger = QuotaLedger(seed=0)
    ledger.request(QuotaRequest("g", "n1-standard-32-v100", "gpu", 9))
    prov = Provisioner(ledger, BillingMeter(), seed=0)
    cluster = prov.provision(ProvisionRequest("g", "k8s", "n1-standard-32-v100", 8))
    kube = KubernetesCluster.create(cluster)
    operator = FluxOperator(kube)
    gpu_spec = MiniClusterSpec(
        name="gpu-mc", image="app:cuda", size=8, tasks_per_node=8, gpu_per_pod=8
    )
    with pytest.raises(SchedulingError):
        operator.create(gpu_spec)  # no nvidia.com/gpu capacity yet
    kube.deploy_daemonset(NVIDIA_DEVICE_PLUGIN)
    mc = operator.create(gpu_spec)
    assert mc.size == 8
