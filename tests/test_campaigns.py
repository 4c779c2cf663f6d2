"""Staged campaigns: spec validation, pruning, determinism, publishing.

The behavioral tests share one module-scoped campaign run (three
scenarios on one env) shaped so every pruning path fires:

* ``cheap-aws`` — a 10% price cut: FOM untouched, cost down, so it
  survives every gate and wins;
* ``blowout-aws`` — a 40x price shock: FOM untouched but cost/FOM blows
  through the SLA ceiling even at the smoke stage's relaxed margin;
* ``slow-aws`` — a fabric degradation: FOM drops below the seed-study
  anchor deterministically, so exceedance is 0 and the config prunes.
"""

import hashlib
import json
import tempfile

import pytest

from repro.campaigns import (
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    Objective,
    STAGES,
    SlaGate,
    StageBudget,
    pareto_frontier,
)
from repro.errors import ConfigurationError
from repro.plan import ExecutionOptions
from repro.reporting.frontier import frontier_table, render_campaign
from repro.scenarios.presets import scenario_grid
from repro.scenarios.spec import PriceShock, Scenario


def _scn(sid: str, **kwargs) -> Scenario:
    return Scenario(scenario_id=sid, **kwargs)


SPEC_DICT = {
    "sla": {"min_exceedance": 0.5, "min_completion": 0.5, "max_cost_per_fom": 2.0},
    "scenarios": [
        {"scenario_id": "cheap-aws",
         "price_shocks": [{"cloud": "aws", "multiplier": 0.9}]},
        {"scenario_id": "blowout-aws",
         "price_shocks": [{"cloud": "aws", "multiplier": 40.0}]},
        {"scenario_id": "slow-aws",
         "fabric": {"latency_multiplier": 3.0, "clouds": ["aws"]}},
    ],
    "env_ids": ["cpu-eks-aws"],
    "apps": ["lammps"],
    "sizes": [16],
    "iterations": 2,
    "smoke": {"replicas": 1, "margin": 0.5},
    "grid": {"replicas": 2},
}


#: the README's campaign example: one env, one app, two candidate
#: scenarios (one survives, one is pruned at SMOKE)
README_SPEC_DICT = {
    "sla": {"min_exceedance": 0.5, "min_completion": 0.5},
    "scenarios": [
        {"scenario_id": "cheap-aws",
         "price_shocks": [{"cloud": "aws", "multiplier": 0.9}]},
        {"scenario_id": "slow-aws",
         "fabric": {"latency_multiplier": 3.0, "clouds": ["aws"]}},
    ],
    "env_ids": ["cpu-eks-aws"], "apps": ["lammps"], "sizes": [16],
    "iterations": 2, "smoke": {"replicas": 1, "margin": 0.5},
    "grid": {"replicas": 2},
}

#: sha256 of ``CampaignReport.core_json()`` for :data:`README_SPEC_DICT`
#: at ``base_seed`` S.  A change that moves any decision-bearing byte of
#: the published report moves these; worker count does not.
GOLDEN_CAMPAIGN_CORE_SHA256 = {
    0: "58dd0c5eb3890fc646445794e4f2a8f39fb7ac7589540a025e475be4c6131210",
    3: "6c5ac18e13d20c0f8215b55a29a59fcf2cb5cc7b66b950dc9ef6fd643faa9adb",
}


@pytest.fixture(scope="module")
def spec() -> CampaignSpec:
    return CampaignSpec.from_dict(SPEC_DICT)


@pytest.fixture(scope="module")
def result(spec):
    return CampaignRunner(spec).run()


# -- spec validation ----------------------------------------------------------


def test_duplicate_scenarios_name_every_offender():
    scenarios = (_scn("a"), _scn("a"), _scn("b"), _scn("b"), _scn("b"))
    with pytest.raises(ConfigurationError, match="duplicate") as err:
        CampaignSpec(scenarios=scenarios)
    message = str(err.value)
    assert "'a' x2" in message and "'b' x3" in message


def test_scenario_grid_names_every_duplicate_too():
    # Satellite: the shared validator lists ALL duplicates, not just
    # the first one it happens to hit.
    scenarios = (_scn("a"), _scn("a"), _scn("b"), _scn("b"))
    with pytest.raises(ValueError, match="duplicate") as err:
        scenario_grid(scenarios)
    message = str(err.value)
    assert "'a' x2" in message and "'b' x2" in message


def test_baseline_scenario_id_is_reserved():
    impostor = _scn("baseline", price_shocks=(PriceShock("aws", 2.0),))
    with pytest.raises(ConfigurationError, match="reserved"):
        CampaignSpec(scenarios=(impostor,))


@pytest.mark.parametrize(
    "field, values",
    [
        ("env_ids", ("cpu-eks-aws", "cpu-eks-aws")),
        ("apps", ("lammps", "lammps", "amg2023")),
        ("sizes", (16, 16)),
    ],
)
def test_duplicate_cell_axes_rejected(field, values):
    with pytest.raises(ConfigurationError, match="duplicate .* search space"):
        CampaignSpec(**{field: values})


def test_grid_must_not_be_shallower_than_smoke():
    with pytest.raises(ConfigurationError, match="grid.replicas"):
        CampaignSpec(smoke=StageBudget(replicas=3), grid=StageBudget(replicas=2))


def test_objective_and_gate_validation():
    with pytest.raises(ConfigurationError, match="metric"):
        Objective(metric="latency")
    with pytest.raises(ConfigurationError, match="direction"):
        Objective(direction="max")
    with pytest.raises(ConfigurationError, match="min_exceedance"):
        SlaGate(min_exceedance=1.5)
    with pytest.raises(ConfigurationError, match="max_cost_per_fom"):
        SlaGate(max_cost_per_fom=0.0)
    with pytest.raises(ConfigurationError, match="margin"):
        StageBudget(margin=0.0)
    with pytest.raises(ConfigurationError, match="replicas"):
        StageBudget(replicas=0)


def test_unknown_fields_rejected():
    with pytest.raises(ConfigurationError, match="unknown campaign fields"):
        CampaignSpec.from_dict({"budget": 5})
    with pytest.raises(ConfigurationError, match="unknown sla fields"):
        CampaignSpec.from_dict({"sla": {"exceedance": 0.5}})


def test_round_trip_and_digest(spec):
    clone = CampaignSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.digest() == spec.digest()
    # The digest tracks semantics: loosening the SLA moves it.
    looser = CampaignSpec.from_dict(
        {**spec.to_dict(), "sla": {"min_exceedance": 0.0}}
    )
    assert looser.digest() != spec.digest()
    # JSON round-trip too (the CLI path).
    assert CampaignSpec.from_json(json.dumps(spec.to_dict())) == spec


def test_stage_specs_share_seed_and_iterations(spec):
    smoke, grid = spec.smoke_spec(), spec.grid_spec(spec.scenarios)
    assert smoke.base_seed == grid.base_seed == spec.base_seed
    assert smoke.iterations == grid.iterations == spec.iterations
    assert smoke.n_replicas == 1 and grid.n_replicas == 2
    # Pruning narrows scenarios only — cell axes stay the full slice so
    # the grid stage's world cache keys line up with the smoke stage's.
    narrowed = spec.grid_spec(spec.scenarios[:1])
    assert narrowed.env_ids == smoke.env_ids
    assert narrowed.apps == smoke.apps


# -- the staged pipeline ------------------------------------------------------


def test_pruning_fires_both_gate_clauses(result):
    pruned = {c.scenario_id: c for c in result.pruned}
    assert set(pruned) == {"blowout-aws", "slow-aws"}
    # The price blowout trips the (margin-relaxed) cost/FOM ceiling...
    assert any("cost/FOM" in f for f in pruned["blowout-aws"].sla_failures)
    # ...and the fabric degradation sinks the FOM below the seed-study
    # anchor, so exceedance is exactly 0.
    assert pruned["slow-aws"].exceedance == 0.0
    assert any("exceedance" in f for f in pruned["slow-aws"].sla_failures)


def test_grid_only_runs_surviving_scenarios(result):
    grid_ids = {c.scenario_id for c in result.grid_candidates}
    assert grid_ids == {"baseline", "cheap-aws"}


def test_winner_and_frontier(result):
    assert result.winner is not None
    assert result.winner.scenario_id == "cheap-aws"
    assert result.winner.sla_ok
    # Winner eligibility is the intersection: full SLA at grid fidelity
    # AND smoke survival.
    assert result.winner.key in {c.key for c in result.survivors}
    # Frontier rows are non-dominated: strictly increasing FOM as cost
    # increases, cheapest first.
    costs = [c.cost_mean for c in result.frontier]
    foms = [c.fom_mean for c in result.frontier]
    assert costs == sorted(costs)
    assert foms == sorted(foms)
    assert all(f is not None for f in foms)


def test_pareto_frontier_non_domination(result):
    frontier = pareto_frontier(result.grid_candidates)
    for cand in result.grid_candidates:
        if cand.fom_mean is None:
            continue
        dominated = any(
            f.cost_mean <= cand.cost_mean
            and f.fom_mean >= cand.fom_mean
            and f.key != cand.key
            for f in frontier
        )
        assert dominated or cand in frontier


def test_ab_rows_measure_the_price_cut(result):
    assert len(result.ab) == 1
    row = result.ab[0]
    assert row["scenario"] == "cheap-aws"
    # A 10% price cut on the same physics: cost ratio 0.9, FOM ratio 1.
    assert row["cost_ratio"] == pytest.approx(0.9, rel=1e-6)
    assert row["fom_ratio"] == pytest.approx(1.0, rel=1e-6)
    assert row["cost_delta"] < 0


def test_untouched_cells_are_not_candidates():
    # A scenario that only shocks GCP prices leaves an AWS env's world
    # byte-identical to the baseline — it is the same physical config,
    # not a distinct candidate.
    spec = CampaignSpec.from_dict({
        **SPEC_DICT,
        "scenarios": [
            {"scenario_id": "cheap-gcp",
             "price_shocks": [{"cloud": "g", "multiplier": 0.9}]},
        ],
    })
    result = CampaignRunner(spec).run()
    assert {c.scenario_id for c in result.smoke_candidates} == {"baseline"}
    assert result.winner is not None and result.winner.is_baseline


def test_stage_records_and_timings(result):
    assert [rec.name for rec in result.stage_records] == list(STAGES)
    assert set(result.stage_seconds) == set(STAGES)
    assert all(s >= 0.0 for s in result.stage_seconds.values())
    smoke = result.stage_records[0].detail
    assert smoke["pruned"] == 2 and smoke["survivors"] == 2


# -- determinism (satellite) --------------------------------------------------


def test_workers_do_not_change_the_published_report(spec, result):
    """Acceptance: workers 1 vs 4 — byte-identical core report."""
    sharded = CampaignRunner(spec, ExecutionOptions(workers=4)).run()
    assert sharded.report.core_json() == result.report.core_json()
    assert frontier_table(sharded).to_csv() == frontier_table(result).to_csv()
    assert sharded.winner == result.winner
    assert render_campaign(sharded).split("Campaign stages")[0] == \
        render_campaign(result).split("Campaign stages")[0]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", sorted(GOLDEN_CAMPAIGN_CORE_SHA256))
def test_readme_campaign_core_matches_golden_digest(seed, workers):
    spec = CampaignSpec.from_dict({**README_SPEC_DICT, "base_seed": seed})
    result = CampaignRunner(spec, ExecutionOptions(workers=workers)).run()
    assert result.winner.scenario_id == "cheap-aws"
    digest = hashlib.sha256(result.report.core_json().encode()).hexdigest()
    assert digest == GOLDEN_CAMPAIGN_CORE_SHA256[seed]


def test_rerun_short_circuits_smoke_via_the_world_cache(spec):
    """Acceptance: same spec + same cache dir — smoke executes nothing."""
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = CampaignRunner(spec, ExecutionOptions(cache_dir=cache_dir)).run()
        warm = CampaignRunner(spec, ExecutionOptions(cache_dir=cache_dir)).run()
    assert warm.smoke.world_cache_hits == warm.smoke.worlds
    assert warm.smoke.world_cache_misses == 0
    assert warm.smoke.reuse is not None and warm.smoke.reuse.executed == 0
    assert warm.grid.reuse is not None and warm.grid.reuse.executed == 0
    # Every decision-bearing section is byte-identical; only the
    # ``stages`` accounting (cache hits vs executions) may move.
    cold_core, warm_core = cold.report.core(), warm.report.core()
    for key in ("campaign", "digest", "pruned", "candidates", "ab",
                "frontier", "winner"):
        assert cold_core[key] == warm_core[key]


# -- publishing ---------------------------------------------------------------


def test_report_shape_and_round_trip(result, tmp_path):
    report = result.report
    assert report.data["v"] == 1
    assert set(report.stages) == set(STAGES)
    assert report.data["digest"] == result.spec.digest()
    assert report.winner is not None
    assert report.winner["fingerprint"] == result.winner.fingerprint
    assert [row["scenario"] for row in report.frontier] == \
        [c.scenario_id for c in result.frontier]
    assert "stage_seconds" in report.data["profile"]

    path = tmp_path / "report.json"
    report.write(str(path))
    loaded = CampaignReport.from_json(path.read_text())
    assert loaded.core_json() == report.core_json()


def test_fingerprints_are_per_config(result):
    prints = [c.fingerprint for c in result.grid_candidates]
    assert len(set(prints)) == len(prints)
    assert all(len(p) == 16 for p in prints)


def test_render_mentions_the_winner(result):
    text = result.render()
    assert "Pareto frontier" in text
    assert "winner: cheap-aws" in text
    assert result.winner.fingerprint in text
