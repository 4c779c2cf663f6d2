"""Sharded study execution: planning, merging, and determinism.

The headline guarantee of :mod:`repro.parallel`: a campaign executed
with any number of workers produces a :class:`ResultStore` (records,
incident log, billing totals) byte-identical to the serial run, because
every stochastic draw is keyed on cell coordinates rather than global
call order.
"""

import sys

import pytest

from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.parallel import (
    execute_shard,
    merge_shard_results,
    plan_shards,
    pmap,
)
from repro.plan import ExecutionOptions


#: covers a cloud K8s env, on-prem (queue path), an undeployable env,
#: and an Azure GPU env whose 32-node cells trigger the 7/8-GPU fault
MIXED_CONFIG = StudyConfig(
    env_ids=(
        "cpu-eks-aws",
        "cpu-onprem-a",
        "gpu-parallelcluster-aws",
        "gpu-cyclecloud-az",
    ),
    apps=("amg2023", "lammps"),
    sizes=(32, 64),
    iterations=2,
    seed=3,
)


def _flatten_incidents(incidents):
    return [
        (env_id, i.category, i.effort_minutes, i.description, i.source)
        for env_id, incs in sorted(incidents.items())
        for i in incs
    ]


# ---------------------------------------------------------------- planning


def test_plan_one_shard_per_env_size_cell():
    shards = plan_shards(MIXED_CONFIG)
    assert len(shards) == 4 * 2  # 4 envs x 2 sizes
    assert [s.index for s in shards] == list(range(8))
    # Serial campaign order: environments in config order, sizes inner.
    assert [(s.env_id, s.scale) for s in shards[:2]] == [
        ("cpu-eks-aws", 32),
        ("cpu-eks-aws", 64),
    ]


def test_plan_defaults_to_environment_study_sizes():
    config = StudyConfig(env_ids=("cpu-eks-aws",), apps=("stream",), sizes=None)
    shards = plan_shards(config)
    assert tuple(s.scale for s in shards) == ENVIRONMENTS["cpu-eks-aws"].sizes()


# ---------------------------------------------------------------- execution


def test_shard_is_pure_and_repeatable():
    shard = plan_shards(MIXED_CONFIG)[0]
    a = execute_shard(shard)
    b = execute_shard(shard)
    assert a.records == b.records
    assert a.spend_by_cloud == b.spend_by_cloud
    assert a.clusters_created == b.clusters_created == 1


def test_undeployable_shard_produces_skips_only():
    shard = next(
        s for s in plan_shards(MIXED_CONFIG) if s.env_id == "gpu-parallelcluster-aws"
    )
    result = execute_shard(shard)
    assert len(result.records) == len(MIXED_CONFIG.apps)
    assert result.clusters_created == 0
    assert result.spend_by_cloud == {}


def test_merge_restores_plan_order_regardless_of_arrival():
    shards = plan_shards(MIXED_CONFIG)
    results = [execute_shard(s) for s in shards]
    in_order = merge_shard_results(results)
    shuffled = merge_shard_results(list(reversed(results)))
    assert in_order.store.to_csv() == shuffled.store.to_csv()
    assert _flatten_incidents(in_order.incidents) == _flatten_incidents(
        shuffled.incidents
    )


# -------------------------------------------------------------- determinism


@pytest.fixture(scope="module")
def serial_report():
    return StudyRunner(MIXED_CONFIG).run()


def test_workers4_byte_identical_to_serial(serial_report):
    parallel_report = StudyRunner(MIXED_CONFIG, ExecutionOptions(workers=4)).run()
    assert parallel_report.store.to_csv() == serial_report.store.to_csv()
    assert parallel_report.spend_by_cloud == serial_report.spend_by_cloud
    assert parallel_report.clusters_created == serial_report.clusters_created
    assert _flatten_incidents(parallel_report.incidents) == _flatten_incidents(
        serial_report.incidents
    )


def test_workers2_matches_workers4(serial_report):
    a = StudyRunner(MIXED_CONFIG, ExecutionOptions(workers=2)).run()
    assert a.store.to_csv() == serial_report.store.to_csv()


def test_smoke_report_invariants_hold_under_workers():
    report = StudyRunner(StudyConfig.smoke(), ExecutionOptions(workers=3)).run()
    assert report.datasets == 8
    assert report.containers_built == 2
    assert report.clusters_created == 1


# --------------------------------------------------------------------- pool


def test_pmap_serial_and_parallel_agree():
    items = list(range(20))
    assert pmap(_square, items, workers=1) == pmap(_square, items, workers=4)


def test_pmap_preserves_order():
    items = list(range(50))
    assert pmap(_square, items, workers=4) == [i * i for i in items]


def test_pmap_chunked_streams_in_order():
    from repro.parallel.pool import pmap_chunked

    items = list(range(23))
    chunks = list(pmap_chunked(_square, items, workers=2, chunk_size=5))
    assert [len(c) for c in chunks] == [5, 5, 5, 5, 3]
    assert [x for chunk in chunks for x in chunk] == [i * i for i in items]


def test_pmap_chunked_matches_pmap_for_any_chunk_size():
    from repro.parallel.pool import pmap_chunked

    items = list(range(17))
    expected = pmap(_square, items, workers=1)
    for chunk_size in (1, 4, 17, 100):
        flat = [
            x
            for chunk in pmap_chunked(_square, items, workers=1, chunk_size=chunk_size)
            for x in chunk
        ]
        assert flat == expected


def test_pmap_chunked_rejects_bad_chunk_size():
    from repro.parallel.pool import pmap_chunked

    with pytest.raises(ValueError):
        list(pmap_chunked(_square, [1, 2], workers=1, chunk_size=0))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux offers fork")
def test_pool_workers_fork_on_linux(monkeypatch):
    # Python 3.14 makes forkserver Linux's default start method, whose
    # workers would re-import the package; the pool pins fork instead.
    import repro.parallel.pool as pool

    contexts = []
    real = pool.ProcessPoolExecutor

    def recording(*args, **kwargs):
        contexts.append(kwargs.get("mp_context"))
        return real(*args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", recording)
    assert pmap(_square, list(range(6)), workers=2) == [i * i for i in range(6)]
    assert [ctx.get_start_method() for ctx in contexts] == ["fork"]


# --------------------------------------------------------------------- world tags


def test_shards_carry_their_world_tag_through_execution():
    from repro.parallel.shard import execute_shard, plan_shards

    config = StudyConfig(
        env_ids=("cpu-onprem-a",), apps=("stream",), sizes=(32,),
        iterations=1, seed=0,
    )
    (shard,) = plan_shards(config, world=7)
    assert shard.world == 7
    result = execute_shard(shard)
    assert result.world == 7


def test_world_tag_defaults_to_zero_and_never_changes_results():
    from repro.parallel.shard import execute_shard, plan_shards

    config = StudyConfig(
        env_ids=("cpu-onprem-a",), apps=("stream",), sizes=(32,),
        iterations=1, seed=0,
    )
    (plain,) = plan_shards(config)
    (tagged,) = plan_shards(config, world=3)
    assert plain.world == 0
    assert execute_shard(plain).records == execute_shard(tagged).records


def _square(x):
    return x * x
