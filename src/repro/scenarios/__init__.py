"""Declarative what-if scenarios over the baseline study.

The baseline reproduction replays exactly one world — the paper's:
Table 1 environments, on-demand pricing, the observed fault and quota
behaviour.  This package runs the *same campaign machinery* under
declarative counterfactual overlays and compares the outcomes:

* :mod:`~repro.scenarios.spec` — typed perturbations composed into a
  :class:`Scenario` (loadable from dicts/JSON);
* :mod:`~repro.scenarios.market` — the spot/preemptible instance market
  (discount curve, keyed preemption draws);
* :mod:`~repro.scenarios.presets` — the named registry
  (``spot-everything``, ``azure-price-spike``, ``quota-crunch``, …);
* :mod:`~repro.scenarios.apply` — pure overlays: nothing shared is ever
  mutated, each shard overlays its own provider/engine;
* :mod:`~repro.scenarios.sweep` — :class:`ScenarioSweep` fans N
  scenarios × the campaign's (environment, size) cells through
  :mod:`repro.parallel` and folds a per-scenario delta report.

Quickstart::

    from repro import StudyConfig
    from repro.scenarios import ScenarioSweep, scenario

    sweep = ScenarioSweep(StudyConfig.smoke(), [scenario("spot-everything")])
    result = sweep.run()
    print(result.render_deltas())
"""

from repro.scenarios.market import SpotMarket
from repro.scenarios.presets import BASELINE, SCENARIOS, register_scenario, scenario
from repro.scenarios.spec import (
    FabricDegradation,
    FaultScaling,
    PriceShock,
    QuotaSqueeze,
    ReportingShift,
    Scenario,
    active,
)

__all__ = [
    "BASELINE",
    "FabricDegradation",
    "FaultScaling",
    "PriceShock",
    "QuotaSqueeze",
    "ReportingShift",
    "SCENARIOS",
    "Scenario",
    "ScenarioOutcome",
    "ScenarioSweep",
    "SpotMarket",
    "SweepResult",
    "active",
    "register_scenario",
    "scenario",
]

_SWEEP_EXPORTS = ("ScenarioSweep", "ScenarioOutcome", "SweepResult")


def __getattr__(name: str):
    # The sweep pulls in repro.core.study, which sits *above* the sim
    # layer that imports this package — so it loads lazily to keep the
    # import graph acyclic.
    if name in _SWEEP_EXPORTS:
        from repro.scenarios import sweep as _sweep

        return getattr(_sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
