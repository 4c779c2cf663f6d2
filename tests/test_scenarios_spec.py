"""Scenario specs: presets, dict/JSON round-trips, digests, the market."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    BASELINE,
    SCENARIOS,
    FabricDegradation,
    PriceShock,
    Scenario,
    SpotMarket,
    active,
    register_scenario,
    scenario,
)
from repro.scenarios.market import preemption_block


# ------------------------------------------------------------------ registry


def test_registry_has_the_advertised_presets():
    for name in (
        "baseline",
        "spot-everything",
        "azure-price-spike",
        "quota-crunch",
        "degraded-efa",
        "laggy-bills",
        "flaky-clouds",
        "calm-seas",
    ):
        assert name in SCENARIOS
    assert len(SCENARIOS) >= 8


def test_registry_ids_match_keys():
    for name, scn in SCENARIOS.items():
        assert scn.scenario_id == name


def test_baseline_preset_is_baseline():
    assert BASELINE.is_baseline
    assert scenario("baseline") is BASELINE
    assert active(BASELINE) is None
    assert active(None) is None


def test_non_baseline_presets_are_active():
    for name, scn in SCENARIOS.items():
        if name == "baseline":
            continue
        assert not scn.is_baseline, name
        assert active(scn) is scn


def test_unknown_scenario_is_a_clean_error():
    with pytest.raises(ConfigurationError, match="registered"):
        scenario("asteroid-strike")


def test_register_scenario_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        register_scenario(Scenario(scenario_id="baseline"))


def test_register_scenario_adds_and_replaces():
    custom = Scenario(
        scenario_id="test-custom-scn",
        price_shocks=(PriceShock(cloud="g", multiplier=1.5),),
    )
    try:
        assert register_scenario(custom) is custom
        assert scenario("test-custom-scn") is custom
        replacement = Scenario(scenario_id="test-custom-scn")
        register_scenario(replacement, replace=True)
        assert scenario("test-custom-scn") is replacement
    finally:
        SCENARIOS.pop("test-custom-scn", None)


# --------------------------------------------------------------- round-trips


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_preset_round_trips_through_dict(name):
    scn = SCENARIOS[name]
    assert Scenario.from_dict(scn.to_dict()) == scn


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_preset_round_trips_through_json(name):
    scn = SCENARIOS[name]
    assert Scenario.from_json(json.dumps(scn.to_dict())) == scn


def test_from_dict_requires_an_id():
    with pytest.raises(ConfigurationError, match="scenario_id"):
        Scenario.from_dict({"description": "nameless"})


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown scenario fields"):
        Scenario.from_dict({"scenario_id": "x", "wormholes": True})


def test_from_dict_rejects_unknown_nested_fields():
    with pytest.raises(ConfigurationError, match="unknown spot fields"):
        Scenario.from_dict(
            {"scenario_id": "x", "spot": {"preemption_per_hour": 0.9}}  # typo
        )
    with pytest.raises(ConfigurationError, match="unknown fabric fields"):
        Scenario.from_dict(
            {"scenario_id": "x", "fabric": {"latency": 3.0}}
        )


def test_from_dict_partial_spot_uses_dataclass_defaults():
    scn = Scenario.from_dict(
        {"scenario_id": "x", "spot": {"preemptions_per_hour": 0.5}}
    )
    defaults = SpotMarket()
    assert scn.spot.preemptions_per_hour == 0.5
    assert scn.spot.clouds == defaults.clouds
    assert scn.spot.base_discount == defaults.base_discount
    assert scn.spot.discount_halving_nodes == defaults.discount_halving_nodes


def test_from_dict_spot_null_clouds_means_the_default_clouds():
    scn = Scenario.from_dict({"scenario_id": "x", "spot": {"clouds": None}})
    assert scn.spot.clouds == SpotMarket().clouds


def test_out_of_range_perturbations_fail_at_load_time():
    bad = [
        {"scenario_id": "x", "price_shocks": [{"cloud": "aws", "multiplier": -1.0}]},
        {"scenario_id": "x", "spot": {"base_discount": 1.5}},
        {"scenario_id": "x", "spot": {"discount_halving_nodes": 0}},
        {"scenario_id": "x", "spot": {"preemptions_per_hour": -0.1}},
        {"scenario_id": "x", "quota": {"grant_probability_scale": -0.5}},
        {"scenario_id": "x", "fabric": {"latency_multiplier": 0}},
        {"scenario_id": "x", "fabric": {"jitter_multiplier": -1}},
        {"scenario_id": "x", "reporting": {"lag_hours": {"aws": -2.0}}},
        {"scenario_id": "x", "faults": {"scale": -3.0}},
    ]
    for data in bad:
        with pytest.raises(ConfigurationError):
            Scenario.from_dict(data)


def test_from_dict_validates_price_shock_entries():
    with pytest.raises(ConfigurationError, match="both 'cloud' and 'multiplier'"):
        Scenario.from_dict({"scenario_id": "x", "price_shocks": [{"cloud": "az"}]})
    with pytest.raises(ConfigurationError, match="unknown price_shock fields"):
        Scenario.from_dict(
            {"scenario_id": "x",
             "price_shocks": [{"cloud": "az", "multiplier": 2, "multiplir": 3}]}
        )


# -------------------------------------------------------------------- digest


def test_digest_is_stable_and_semantic():
    a = scenario("spot-everything")
    same = Scenario.from_dict(a.to_dict())
    assert a.digest() == same.digest()
    # The description is presentation, not semantics.
    described = Scenario.from_dict({**a.to_dict(), "description": "different"})
    assert described.digest() == a.digest()


def test_digest_distinguishes_perturbations_and_ids():
    digests = {scn.digest() for scn in SCENARIOS.values()}
    assert len(digests) == len(SCENARIOS)
    # Same perturbations, different id: spot draws key on the id, so the
    # digest must differ.
    a = scenario("spot-everything")
    renamed = Scenario.from_dict({**a.to_dict(), "scenario_id": "spot-redux"})
    assert renamed.digest() != a.digest()


# ------------------------------------------------------------- price algebra


def test_price_multiplier_combines_shock_and_spot():
    scn = Scenario(
        scenario_id="combo",
        price_shocks=(PriceShock(cloud="aws", multiplier=2.0),),
        spot=SpotMarket(clouds=("aws",), base_discount=0.5,
                        discount_halving_nodes=64.0, preemptions_per_hour=0.0),
    )
    # At 64 nodes the discount has halved: 0.25 off, times the 2x shock.
    assert scn.price_multiplier("aws", 64) == pytest.approx(2.0 * 0.75)
    assert scn.price_multiplier("az", 64) == 1.0
    assert scn.price_multiplier("p", 64) == 1.0


def test_spot_discount_curve_shrinks_with_pool_size():
    spot = SpotMarket()
    discounts = [spot.discount_for(n) for n in (1, 32, 256, 1024)]
    assert discounts == sorted(discounts, reverse=True)
    assert 0.0 < discounts[-1] < discounts[0] <= spot.base_discount


# -------------------------------------------------------------- preemptions


def test_preemption_draws_are_keyed_not_ordered():
    spot = SpotMarket(preemptions_per_hour=2.0)
    group = (spot, 7, "scn", "cpu-eks-aws", "amg2023", 64)
    durations = np.full(8, 1800.0)
    first = preemption_block(*group, range(8), durations)
    assert np.isnan(first).any() and not np.isnan(first).all()
    # Interleave unrelated draws; the keyed draws must not move.
    preemption_block(spot, 7, "scn", "cpu-aks-az", "lammps", 32, range(8), durations)
    assert np.array_equal(preemption_block(*group, range(8), durations), first, equal_nan=True)
    # Each entry is its own iteration's draw, whatever else the block holds.
    subset = preemption_block(*group, [5, 1], durations[:2])
    assert np.array_equal(subset, first[[5, 1]], equal_nan=True)


def test_preemption_never_fires_at_zero_rate():
    spot = SpotMarket(preemptions_per_hour=0.0)
    fracs = preemption_block(spot, 0, "s", "e", "a", 32, range(20), np.full(20, 3600.0))
    assert fracs.shape == (20,)
    assert np.isnan(fracs).all()


def test_preemption_fraction_is_a_valid_fraction():
    spot = SpotMarket(preemptions_per_hour=10_000.0)
    fracs = preemption_block(
        spot, 0, "s", "cpu-eks-aws", "amg2023", 32, range(20), np.full(20, 3600.0)
    )
    hits = fracs[~np.isnan(fracs)]
    assert hits.size, "an absurd reclaim rate must preempt something"
    assert ((0.0 < hits) & (hits < 1.0)).all()
