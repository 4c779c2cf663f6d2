"""The scenario delta report: folding counterfactual worlds vs baseline."""

import pytest

from repro.core.study import StudyConfig
from repro.plan import ExecutionOptions
from repro.reporting.deltas import delta_table, scenario_delta, scenario_deltas
from repro.reporting.tables import render_table
from repro.scenarios import ScenarioSweep, scenario


@pytest.fixture(scope="module")
def sweep_result():
    config = StudyConfig(
        env_ids=("cpu-eks-aws", "cpu-aks-az"),
        apps=("amg2023", "minife"),
        sizes=(32, 64),
        iterations=2,
        seed=0,
    )
    return ScenarioSweep(
        config,
        [scenario("azure-price-spike"), scenario("congested-fabrics")],
        ExecutionOptions(workers=2),
    ).run()


def test_delta_rows_cover_every_counterfactual(sweep_result):
    deltas = sweep_result.deltas()
    assert [d.scenario_id for d in deltas] == ["azure-price-spike", "congested-fabrics"]


def test_price_spike_delta_is_pure_cost(sweep_result):
    spike = next(d for d in sweep_result.deltas() if d.scenario_id == "azure-price-spike")
    assert spike.spend_delta_usd > 0
    assert spike.run_cost_delta_usd > 0
    assert spike.completed_delta == 0
    assert spike.fom_ratio == pytest.approx(1.0)


def test_congestion_delta_shows_in_the_fom_ratio(sweep_result):
    congested = next(
        d for d in sweep_result.deltas() if d.scenario_id == "congested-fabrics"
    )
    assert congested.fom_ratio is not None
    assert congested.fom_ratio < 1.0  # a degraded fabric can only hurt


def test_delta_against_itself_is_zero(sweep_result):
    base = sweep_result.baseline
    self_delta = scenario_delta("self", base, base)
    assert self_delta.spend_delta_usd == 0.0
    assert self_delta.run_cost_delta_usd == 0.0
    assert self_delta.completed_delta == 0
    assert self_delta.failed_delta == 0
    assert self_delta.incident_delta == 0
    assert self_delta.fom_ratio == pytest.approx(1.0)


def test_delta_table_has_baseline_row_first(sweep_result):
    table = delta_table(
        sweep_result.baseline,
        {sid: r for sid, r in sweep_result.reports.items() if sid != "baseline"},
    )
    assert table.rows[0][0] == "baseline"
    assert [row[0] for row in table.rows[1:]] == [
        "azure-price-spike", "congested-fabrics",
    ]
    assert len(table.rows[0]) == len(table.columns)
    rendered = render_table(table)
    assert "What-if scenarios vs baseline" in rendered


def test_delta_table_headers_are_unique(sweep_result):
    table = sweep_result.delta_table()
    assert len(set(table.columns)) == len(table.columns)
    csv_header = table.to_csv().splitlines()[0]
    assert csv_header.count("Δ completed") == 1
    assert csv_header.count("Δ incidents") == 1


def test_scenario_timeouts_show_up_in_the_state_counts():
    from repro.scenarios import FabricDegradation, Scenario

    collapse = Scenario(
        scenario_id="fabric-collapse",
        fabric=FabricDegradation(latency_multiplier=20.0, bandwidth_multiplier=0.05),
    )
    config = StudyConfig(
        env_ids=("cpu-eks-aws",), apps=("laghos",), sizes=(64,),
        iterations=2, seed=0,
    )
    result = ScenarioSweep(config, [collapse]).run()
    (delta,) = result.deltas()
    # Laghos at 64 completes on the healthy fabric but hits the cloud
    # walltime ceiling on the collapsed one — visible as a timeout
    # delta, exactly as the module docstring promises.
    assert delta.timeout_delta > 0
    assert delta.completed_delta == -delta.timeout_delta
    assert delta.failed_delta == 0


# -- edge cases --------------------------------------------------------------


def _report(records=()):
    """A minimal StudyReport-shaped object for fold edge cases."""
    from repro.core.results import ResultStore
    from repro.core.study import StudyReport

    store = ResultStore()
    store.extend(records)
    return StudyReport(
        store=store, incidents={}, spend_by_cloud={},
        containers_built=0, containers_failed=0, clusters_created=0,
    )


def _record(env="e1", app="a", scale=32, iteration=0,
            state=None, fom=2.0, cost=1.0):
    from repro.sim.run_result import RunRecord, RunState

    state = state or RunState.COMPLETED
    return RunRecord(
        env_id=env, app=app, scale=scale, nodes=scale, iteration=iteration,
        state=state, fom=fom if state is RunState.COMPLETED else None,
        fom_units="u", wall_seconds=1.0, hookup_seconds=0.0, cost_usd=cost,
    )


def test_delta_against_an_empty_baseline_store():
    baseline = _report()
    world = _report([_record(fom=3.0, cost=2.0)])
    delta = scenario_delta("world", baseline, world)
    assert delta.fom_ratio is None  # nothing completed in both worlds
    assert delta.completed_delta == 1
    assert delta.run_cost_delta_usd == pytest.approx(2.0)
    # And the renderable table shows "n/a" instead of crashing.
    table = delta_table(baseline, {"world": world})
    assert table.rows[1][-1] == "n/a"


def test_delta_with_zero_matched_cells():
    # Both worlds completed runs, but on disjoint (env, app, scale,
    # iteration) coordinates: no matched FOM, every count still folds.
    baseline = _report([_record(env="e1")])
    world = _report([_record(env="e2"), _record(env="e3", cost=3.0)])
    delta = scenario_delta("world", baseline, world)
    assert delta.fom_ratio is None
    assert delta.completed == 2
    assert delta.completed_delta == 1
    assert delta.run_cost_delta_usd == pytest.approx(3.0)


def test_delta_between_single_record_stores():
    baseline = _report([_record(fom=2.0, cost=1.0)])
    world = _report([_record(fom=4.0, cost=1.5)])
    delta = scenario_delta("world", baseline, world)
    assert delta.fom_ratio == pytest.approx(2.0)
    assert delta.run_cost_delta_usd == pytest.approx(0.5)
    assert delta.completed_delta == 0


def test_delta_ignores_failed_runs_when_matching_foms():
    from repro.sim.run_result import RunState

    baseline = _report([_record(fom=2.0)])
    world = _report([_record(state=RunState.FAILED)])
    delta = scenario_delta("world", baseline, world)
    assert delta.fom_ratio is None
    assert delta.failed_delta == 1
    assert delta.completed_delta == -1


def test_scenario_deltas_preserves_insertion_order(sweep_result):
    reports = {
        sid: r for sid, r in sweep_result.reports.items() if sid != "baseline"
    }
    deltas = scenario_deltas(sweep_result.baseline, reports)
    assert [d.scenario_id for d in deltas] == list(reports)
