"""One attach path: every warm cell attaches in the parent.

With a cache directory the plan executor probes every cell of the plan
before anything dispatches (``PlanExecutor._attach``): a warm cell
attaches from its cell entry and only misses reach the pool, so a fully
warm plan starts no pool and executes no shard.
"""

from __future__ import annotations

import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.parallel.pool as pool
import repro.plan.executor as executor
from repro.__main__ import main
from repro.apps.registry import APPS
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.plan import ExecutionOptions
from repro.scenarios import scenario


def _refuse_execution(*args, **kwargs):
    raise AssertionError("a warm cell was dispatched for execution")


def _refuse_pool(*args, **kwargs):
    raise AssertionError("a warm plan constructed a process pool")


def test_a_fully_warm_parallel_study_starts_no_pool(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["study", "--output", str(tmp_path / "serial.csv")]) == 0
    assert main(["study", "--workers", "4", "--cache", cache]) == 0
    capsys.readouterr()
    with mock.patch.object(pool, "ProcessPoolExecutor", _refuse_pool):
        assert main([
            "study", "--workers", "4", "--cache", cache,
            "--output", str(tmp_path / "warm.csv"),
        ]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    datasets = int(out.split("datasets          : ", 1)[1].split("\n", 1)[0])
    assert f"run cache         : {datasets} hits, 0 misses\n" in out


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    envs=st.lists(st.sampled_from(tuple(ENVIRONMENTS)), min_size=1, max_size=3, unique=True),
    apps=st.lists(st.sampled_from(tuple(APPS)), min_size=1, max_size=3, unique=True),
    sizes=st.lists(st.sampled_from((32, 64, 128, 256)), min_size=1, max_size=2, unique=True),
    iterations=st.integers(1, 2),
    seed=st.integers(0, 1000),
    workers=st.integers(1, 2),
    scenario_id=st.sampled_from((None, "spot-everything", "quota-crunch")),
)
def test_cached_runs_equal_an_uncached_run_and_a_warm_one_executes_nothing(
    envs, apps, sizes, iterations, seed, workers, scenario_id
):
    config = StudyConfig(
        env_ids=tuple(envs), apps=tuple(apps), sizes=tuple(sizes),
        iterations=iterations, seed=seed,
    )
    scn = scenario(scenario_id) if scenario_id else None
    uncached = StudyRunner(config, ExecutionOptions(workers=workers), scenario=scn).run()
    with tempfile.TemporaryDirectory() as cache:
        options = ExecutionOptions(workers=workers, cache_dir=cache)
        cold = StudyRunner(config, options, scenario=scn).run()
        with mock.patch.object(executor, "execute_shard", _refuse_execution):
            warm = StudyRunner(config, options, scenario=scn).run()
    assert cold.store.to_csv() == uncached.store.to_csv()
    assert warm.store.to_csv() == uncached.store.to_csv()
    assert (warm.cache_hits, warm.cache_misses) == (warm.datasets, 0)
