"""Ensemble specs: a declarative seed-grid × scenario-grid of campaigns.

An :class:`EnsembleSpec` names a Monte-Carlo replication of the study:
how many replicas (independent seeds), which counterfactual worlds
(:mod:`repro.scenarios`), and which slice of the campaign matrix each
world runs.  Like a :class:`~repro.scenarios.spec.Scenario` it is a pure
value — dict/JSON loadable, round-trippable, with a stable
:meth:`digest` — and it never *does* anything;
:class:`~repro.ensemble.runner.EnsembleRunner` executes it.

Replica ``r`` runs at seed ``base_seed + r``, so replica 0 of the
baseline scenario *is* the seed study: an ensemble with
``n_replicas=1`` and no scenarios reproduces the paper's point
estimates exactly, and every additional replica widens the sample the
distribution report draws from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.scenarios.presets import scenario as scenario_lookup
from repro.scenarios.spec import Scenario


@dataclass(frozen=True)
class EnsembleSpec:
    """One declarative replication plan: seeds × scenarios × cells."""

    #: independent replicas per scenario; replica ``r`` runs at seed
    #: ``base_seed + r``
    n_replicas: int = 3
    base_seed: int = 0
    #: counterfactual worlds to replicate alongside the baseline (the
    #: baseline itself is always included — it anchors the thresholds)
    scenarios: tuple[Scenario, ...] = ()
    #: campaign slice; ``None`` selects every registered environment/app
    #: and each environment's own study sizes
    env_ids: tuple[str, ...] | None = None
    apps: tuple[str, ...] | None = None
    sizes: tuple[int, ...] | None = None
    iterations: int = 2

    def __post_init__(self) -> None:
        from repro.core.study import check_selection

        if self.n_replicas < 1:
            raise ConfigurationError("an ensemble needs n_replicas >= 1")
        check_selection(
            self.env_ids, self.apps, self.sizes, self.iterations,
            seeds=range(self.base_seed, self.replica_seed(self.n_replicas)),
        )
        # Same grid invariants as a sweep (unique ids, 'baseline'
        # reserved) — validated by the one shared implementation.
        from repro.scenarios.presets import scenario_grid

        try:
            scenario_grid(self.scenarios, include_baseline=False)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    # -- derived ------------------------------------------------------------

    def replica_seed(self, replica: int) -> int:
        """The study seed replica ``replica`` runs at."""
        return self.base_seed + replica

    def scenario_grid(self) -> tuple[Scenario, ...]:
        """Every world of the grid, baseline first."""
        from repro.scenarios.presets import scenario_grid

        return tuple(scenario_grid(self.scenarios))

    def worlds(self) -> list[tuple[Scenario, int]]:
        """The full (scenario, replica) grid in deterministic fold order.

        Scenario-major, replicas ascending — so world 0 is always
        (baseline, replica 0): the seed study, whose per-cell point
        estimates anchor the exceedance thresholds.
        """
        return [
            (scn, replica)
            for scn in self.scenario_grid()
            for replica in range(self.n_replicas)
        ]

    def study_config(self, replica: int):
        """The :class:`~repro.core.study.StudyConfig` for one replica."""
        from repro.apps.registry import APPS
        from repro.core.study import StudyConfig
        from repro.envs.registry import ENVIRONMENTS

        return StudyConfig(
            env_ids=self.env_ids or tuple(ENVIRONMENTS),
            apps=self.apps or tuple(APPS),
            sizes=self.sizes,
            iterations=self.iterations,
            seed=self.replica_seed(replica),
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dict; inverse of :meth:`from_dict`."""
        out: dict = {
            "n_replicas": self.n_replicas,
            "base_seed": self.base_seed,
            "iterations": self.iterations,
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
    def from_dict(cls, data: dict) -> "EnsembleSpec":
        """Build a spec from a plain dict (e.g. parsed JSON).

        ``scenarios`` entries may be scenario dicts
        (:meth:`~repro.scenarios.spec.Scenario.from_dict`) or registered
        preset names (``"spot-everything"``).
        """
        allowed = (
            "n_replicas", "base_seed", "scenarios",
            "env_ids", "apps", "sizes", "iterations",
        )
        unknown = set(data) - set(allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown ensemble fields: {sorted(unknown)} "
                f"(known: {sorted(allowed)})"
            )

        def _scenario(entry) -> Scenario:
            if isinstance(entry, str):
                return scenario_lookup(entry)
            return Scenario.from_dict(entry)

        def _ids(value):
            return None if value is None else tuple(value)

        return cls(
            n_replicas=int(data.get("n_replicas", 3)),
            base_seed=int(data.get("base_seed", 0)),
            scenarios=tuple(_scenario(s) for s in data.get("scenarios", ())),
            env_ids=_ids(data.get("env_ids")),
            apps=_ids(data.get("apps")),
            sizes=None if data.get("sizes") is None
            else tuple(int(s) for s in data["sizes"]),
            iterations=int(data.get("iterations", 2)),
        )

    @classmethod
    def from_json(cls, text: str) -> "EnsembleSpec":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable content hash of the plan's semantics.

        Scenario free-text descriptions do not participate (their
        semantic digests do); everything else that shapes the grid does.
        """
        payload = self.to_dict()
        payload["scenarios"] = [scn.digest() for scn in self.scenarios]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
