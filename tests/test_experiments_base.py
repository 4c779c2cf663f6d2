"""Experiment-framework helper tests."""

import pytest

from repro.core.results import ResultStore
from repro.envs.registry import environment
from repro.experiments.base import ExperimentOutput, run_matrix, series_from_store
from repro.reporting.compare import Expectation
from repro.reporting.tables import Table
from repro.sim.execution import ExecutionEngine
from repro.sim.run_result import RunState


def _scalar_matrix(envs, apps, sizes, *, iterations, seed=0, options=None):
    """The per-iteration reference: one ``ExecutionEngine.run`` per
    (environment, app, size, iteration), in run_matrix's order."""
    engine = ExecutionEngine(seed=seed)
    return [
        engine.run(env, app, scale, iteration=it, options=options)
        for env in envs
        for app in apps
        for scale in sizes(env)
        for it in range(iterations)
    ]


def test_run_matrix_default_sizes_follow_environment():
    store = run_matrix([environment("cpu-eks-aws")], ["stream"], iterations=1)
    assert store.scales("cpu-eks-aws", "stream") == [32, 64, 128, 256]


def test_run_matrix_custom_sizes():
    store = run_matrix(
        [environment("cpu-eks-aws")], ["stream"], sizes=lambda e: (64,), iterations=2
    )
    assert store.scales("cpu-eks-aws", "stream") == [64]
    assert len(store) == 2


def test_run_matrix_options_forwarded():
    envs = [environment("gpu-gke-g")]
    options = {"process_topology": (4, 4, 4)}
    store = run_matrix(
        envs, ["amg2023"], sizes=lambda e: (64,), iterations=2, options=options
    )
    rec = store.records[0]
    assert rec.extra["process_topology"] == (4, 4, 4)
    assert store.records == _scalar_matrix(
        envs, ["amg2023"], lambda e: (64,), iterations=2, options=options
    )


def test_run_matrix_matches_scalar_runs():
    envs = [
        environment("cpu-eks-aws"),
        environment("cpu-onprem-a"),
        environment("gpu-parallelcluster-aws"),  # undeployable
        environment("gpu-gke-g"),  # laghos has no GPU port
    ]
    apps = ["amg2023", "laghos", "lammps"]

    def sizes(env):
        return (32, 64)

    store = run_matrix(envs, apps, sizes=sizes, iterations=3, seed=2)
    assert store.records == _scalar_matrix(envs, apps, sizes, iterations=3, seed=2)
    states = {(r.env_id, r.app): r.state for r in store.records}
    assert states["gpu-parallelcluster-aws", "lammps"] is RunState.SKIPPED
    assert states["gpu-gke-g", "laghos"] is RunState.SKIPPED


def test_run_matrix_one_shot_apps_cover_every_environment():
    envs = [environment("cpu-eks-aws"), environment("cpu-onprem-a")]
    store = run_matrix(envs, (a for a in ["stream"]), sizes=lambda e: (32,), iterations=1)
    assert len(store) == 2
    assert store.environments() == ["cpu-eks-aws", "cpu-onprem-a"]


def test_run_matrix_multiple_envs_and_apps():
    envs = [environment("cpu-eks-aws"), environment("cpu-gke-g")]
    store = run_matrix(envs, ["stream", "kripke"], sizes=lambda e: (32,), iterations=2)
    assert len(store) == 8
    assert store.apps() == ["kripke", "stream"]


def test_series_from_store_one_line_per_env():
    envs = [environment("cpu-eks-aws"), environment("cpu-gke-g")]
    store = run_matrix(envs, ["kripke"], sizes=lambda e: (32, 64), iterations=2)
    series = series_from_store(
        store, "kripke", title="t", y_label="grind", higher_is_better=False
    )
    assert set(series.lines) == {"cpu-eks-aws", "cpu-gke-g"}
    assert len(series.lines["cpu-eks-aws"]) == 2


def test_experiment_output_check_and_all_hold():
    out = ExperimentOutput(
        experiment_id="x",
        title="t",
        table=Table("t", ("a",)),
        expectations=[
            Expectation("x", "yes", lambda: True),
            Expectation("x", "no", lambda: False),
        ],
    )
    results = out.check()
    assert [r.holds for r in results] == [True, False]
    assert not out.all_hold()


def test_experiment_output_empty_expectations_hold():
    out = ExperimentOutput(experiment_id="x", title="t")
    assert out.all_hold()
