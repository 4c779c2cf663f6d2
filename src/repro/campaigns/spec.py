"""Campaign specs: declare the search, the budget, and the bar.

A :class:`CampaignSpec` turns "run what I typed" into "find the
cheapest config that meets the SLA".  It names four things:

* an **objective** — the scalar the campaign minimizes (cost per unit
  of figure-of-merit);
* an **SLA gate** — the bar a config must clear to be selectable:
  a minimum exceedance probability against the seed study's
  point-estimate FOM, a minimum completion rate, and an optional
  absolute cost-per-FOM ceiling;
* a **search space** — a scenario grid (validated by
  :func:`~repro.scenarios.presets.scenario_grid`, exactly like an
  ensemble) crossed with the campaign's (env, app, size) cells; every
  *candidate* is one (scenario, env, app, scale) coordinate;
* **per-stage budgets** — how many replicas the cheap SMOKE pass and
  the full GRID pass each spend, and how far SMOKE relaxes the SLA
  (``margin``) so noisy one-replica estimates only prune configs that
  miss the bar by a wide margin.

Like :class:`~repro.ensemble.spec.EnsembleSpec` it is a pure value —
dict/JSON loadable, round-trippable, with a stable :meth:`digest` — and
never *does* anything; :class:`~repro.campaigns.runner.CampaignRunner`
executes it.  Both stages share ``iterations`` and ``base_seed`` on
purpose: cell- and world-level cache keys embed them, so everything the
smoke stage simulates is attachable by the grid stage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.ensemble.spec import EnsembleSpec
from repro.errors import ConfigurationError
from repro.scenarios.presets import scenario as scenario_lookup, scenario_grid
from repro.scenarios.spec import Scenario


def _check_unknown(data: dict, allowed: tuple[str, ...], kind: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} fields: {sorted(unknown)} (known: {sorted(allowed)})"
        )


@dataclass(frozen=True)
class Objective:
    """What the campaign optimizes.

    ``cost_per_fom`` — mean dollar cost of a cell divided by its mean
    figure of merit — is the only metric today; ``direction`` is pinned
    to ``min`` (FOMs are higher-is-better throughout the study, so
    dollars per unit of FOM is the natural price of performance).
    """

    metric: str = "cost_per_fom"
    direction: str = "min"

    def __post_init__(self) -> None:
        if self.metric != "cost_per_fom":
            raise ConfigurationError(
                f"unknown objective metric {self.metric!r} "
                "(supported: 'cost_per_fom')"
            )
        if self.direction != "min":
            raise ConfigurationError(
                f"unknown objective direction {self.direction!r} (supported: 'min')"
            )

    def to_dict(self) -> dict:
        return {"metric": self.metric, "direction": self.direction}

    @classmethod
    def from_dict(cls, data: dict) -> "Objective":
        _check_unknown(data, ("metric", "direction"), "objective")
        return cls(
            metric=data.get("metric", "cost_per_fom"),
            direction=data.get("direction", "min"),
        )


@dataclass(frozen=True)
class SlaGate:
    """The bar a candidate must clear to be selectable.

    ``min_exceedance`` bounds P(FOM >= seed-study point estimate): the
    probability, over replicas, that the config keeps up with the
    numbers the paper published for that cell.  ``min_completion``
    bounds the completed-run rate.  ``max_cost_per_fom`` (optional) is
    an absolute price ceiling on the objective itself.
    """

    min_exceedance: float = 0.25
    min_completion: float = 0.5
    max_cost_per_fom: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_exceedance <= 1.0:
            raise ConfigurationError(
                f"sla.min_exceedance must be in [0, 1], got {self.min_exceedance}"
            )
        if not 0.0 <= self.min_completion <= 1.0:
            raise ConfigurationError(
                f"sla.min_completion must be in [0, 1], got {self.min_completion}"
            )
        if self.max_cost_per_fom is not None and self.max_cost_per_fom <= 0:
            raise ConfigurationError(
                f"sla.max_cost_per_fom must be positive, got {self.max_cost_per_fom}"
            )

    def to_dict(self) -> dict:
        out: dict = {
            "min_exceedance": self.min_exceedance,
            "min_completion": self.min_completion,
        }
        if self.max_cost_per_fom is not None:
            out["max_cost_per_fom"] = self.max_cost_per_fom
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SlaGate":
        _check_unknown(
            data, ("min_exceedance", "min_completion", "max_cost_per_fom"), "sla"
        )
        ceiling = data.get("max_cost_per_fom")
        return cls(
            min_exceedance=float(data.get("min_exceedance", 0.25)),
            min_completion=float(data.get("min_completion", 0.5)),
            max_cost_per_fom=None if ceiling is None else float(ceiling),
        )


@dataclass(frozen=True)
class StageBudget:
    """How much one stage may spend, and how forgiving its gate is.

    ``margin`` relaxes the SLA for pruning: bounds are multiplied by it
    and ceilings divided by it, so at ``margin=0.5`` a config survives
    SMOKE while it misses the bar by less than 2x.  GRID always judges
    at full strictness (``margin=1``).
    """

    replicas: int = 1
    margin: float = 1.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError(
                f"a stage needs replicas >= 1, got {self.replicas}"
            )
        if not 0.0 < self.margin <= 1.0:
            raise ConfigurationError(
                f"a stage margin must be in (0, 1], got {self.margin}"
            )

    def to_dict(self) -> dict:
        return {"replicas": self.replicas, "margin": self.margin}

    @classmethod
    def from_dict(cls, data: dict, *, replicas: int, margin: float) -> "StageBudget":
        _check_unknown(data, ("replicas", "margin"), "stage budget")
        return cls(
            replicas=int(data.get("replicas", replicas)),
            margin=float(data.get("margin", margin)),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: objective x SLA x search space x budgets."""

    objective: Objective = field(default_factory=Objective)
    sla: SlaGate = field(default_factory=SlaGate)
    #: counterfactual configurations to search over; the baseline is
    #: always a candidate too (it anchors thresholds and the AB stage)
    scenarios: tuple[Scenario, ...] = ()
    #: campaign cell slice, exactly as on an ensemble spec
    env_ids: tuple[str, ...] | None = None
    apps: tuple[str, ...] | None = None
    sizes: tuple[int, ...] | None = None
    #: shared by both stages so the grid stage can attach smoke cells
    iterations: int = 2
    base_seed: int = 0
    smoke: StageBudget = field(default_factory=lambda: StageBudget(replicas=1, margin=0.5))
    grid: StageBudget = field(default_factory=lambda: StageBudget(replicas=3, margin=1.0))

    def __post_init__(self) -> None:
        from repro.core.study import check_selection

        # The shared check also refuses a repeated env/app/size, which
        # would double-count candidates and skew spend.
        replicas = max(self.smoke.replicas, self.grid.replicas)
        check_selection(
            self.env_ids, self.apps, self.sizes, self.iterations,
            seeds=range(self.base_seed, self.base_seed + replicas),
            scope="campaign search space",
        )
        if self.grid.replicas < self.smoke.replicas:
            raise ConfigurationError(
                "grid.replicas must be >= smoke.replicas — the grid stage "
                "is the full-fidelity pass"
            )
        # Same scenario-grid invariants as a sweep or ensemble (unique
        # ids, 'baseline' reserved), via the one shared implementation
        # that names every duplicate.
        try:
            scenario_grid(self.scenarios, include_baseline=False)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    # -- derived -------------------------------------------------------------

    def smoke_spec(self) -> EnsembleSpec:
        """The SMOKE stage's ensemble: low replicas over the full grid."""
        return EnsembleSpec(
            n_replicas=self.smoke.replicas,
            base_seed=self.base_seed,
            scenarios=self.scenarios,
            env_ids=self.env_ids,
            apps=self.apps,
            sizes=self.sizes,
            iterations=self.iterations,
        )

    def grid_spec(self, scenarios: tuple[Scenario, ...]) -> EnsembleSpec:
        """The GRID stage's ensemble over the surviving scenarios.

        The cell axes stay the full campaign slice — narrowing them
        would change world-level cache keys and orphan everything the
        smoke stage cached, and the baseline cells are needed as AB
        comparators regardless.  Pruning narrows the *scenario* axis.
        """
        return EnsembleSpec(
            n_replicas=self.grid.replicas,
            base_seed=self.base_seed,
            scenarios=tuple(scenarios),
            env_ids=self.env_ids,
            apps=self.apps,
            sizes=self.sizes,
            iterations=self.iterations,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dict; inverse of :meth:`from_dict`."""
        out: dict = {
            "objective": self.objective.to_dict(),
            "sla": self.sla.to_dict(),
            "iterations": self.iterations,
            "base_seed": self.base_seed,
            "smoke": self.smoke.to_dict(),
            "grid": self.grid.to_dict(),
        }
        if self.scenarios:
            out["scenarios"] = [scn.to_dict() for scn in self.scenarios]
        if self.env_ids is not None:
            out["env_ids"] = list(self.env_ids)
        if self.apps is not None:
            out["apps"] = list(self.apps)
        if self.sizes is not None:
            out["sizes"] = list(self.sizes)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Build a spec from a plain dict (e.g. parsed JSON).

        ``scenarios`` entries may be scenario dicts or registered preset
        names, exactly as on :meth:`EnsembleSpec.from_dict`.
        """
        allowed = (
            "objective", "sla", "scenarios", "env_ids", "apps", "sizes",
            "iterations", "base_seed", "smoke", "grid",
        )
        _check_unknown(data, allowed, "campaign")

        def _scenario(entry) -> Scenario:
            if isinstance(entry, str):
                return scenario_lookup(entry)
            return Scenario.from_dict(entry)

        def _ids(value):
            return None if value is None else tuple(value)

        return cls(
            objective=Objective.from_dict(data.get("objective", {})),
            sla=SlaGate.from_dict(data.get("sla", {})),
            scenarios=tuple(_scenario(s) for s in data.get("scenarios", ())),
            env_ids=_ids(data.get("env_ids")),
            apps=_ids(data.get("apps")),
            sizes=None if data.get("sizes") is None
            else tuple(int(s) for s in data["sizes"]),
            iterations=int(data.get("iterations", 2)),
            base_seed=int(data.get("base_seed", 0)),
            smoke=StageBudget.from_dict(data.get("smoke", {}), replicas=1, margin=0.5),
            grid=StageBudget.from_dict(data.get("grid", {}), replicas=3, margin=1.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable content hash of the campaign's semantics.

        Scenario free-text descriptions do not participate (their
        semantic digests do); everything that shapes the search — the
        objective, the gates, the grid, the budgets — does.
        """
        payload = self.to_dict()
        payload["scenarios"] = [scn.digest() for scn in self.scenarios]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
