"""The RunPlan intermediate representation.

Every orchestration front-end in this repo — :class:`StudyRunner` (one
campaign), :class:`ScenarioSweep` (N counterfactual worlds), and
:class:`EnsembleRunner` (seed grid × scenario grid) — used to carry its
own planning, seeding, sharding, and merge logic.  The IR collapses
them: each front-end *compiles* its config to one :class:`RunPlan`
(:mod:`repro.plan.compile`) and a single
:class:`~repro.plan.executor.PlanExecutor` runs any plan.

A plan is three nested granularities, all pure values:

* :class:`PlanWorld` — one full campaign at one (scenario, seed)
  coordinate.  A plain study is a one-world plan; an ensemble is
  scenario-major × replicas.
* :class:`~repro.parallel.shard.StudyShard` — one (environment, size)
  cell of one world: the unit that ships to a worker process (§2.9's
  cluster-per-size granularity).
* :class:`PlannedRun` — one (world, seed, env, app, size, iteration)
  coordinate: the explicit cross-product the shards group.  Shard
  execution simulates every run of one (env, size) cell, its whole app
  roster, in one :meth:`~repro.sim.execution.ExecutionEngine.run_cell`
  call.

Plans are deterministic in their inputs: worlds are ordered by
position, shards world-major in serial campaign order, runs app-major
then iterations ascending — so executing a plan in plan order (any
worker count) reproduces the serial dataset byte for byte, and
:meth:`RunPlan.digest` names the whole intent stably (``repro plan
show`` prints it before anything executes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Iterator

from repro.parallel.shard import StudyShard
from repro.scenarios.spec import Scenario, active


@dataclass(frozen=True)
class PlannedRun:
    """One explicit run coordinate of the compiled cross-product."""

    world: int
    seed: int
    scenario_id: str | None
    env_id: str
    app: str
    scale: int
    iteration: int


@dataclass(frozen=True)
class PlanWorld:
    """One replica-world: a full campaign at one (scenario, seed)."""

    index: int  # position in plan (and fold) order
    scenario: Scenario | None
    seed: int
    replica: int = 0

    @property
    def scenario_id(self) -> str:
        """The world's label; a missing scenario is the baseline world."""
        return self.scenario.scenario_id if self.scenario is not None else "baseline"

    @property
    def is_baseline(self) -> bool:
        scn = active(self.scenario)
        return scn is None


def planned_runs(shard: StudyShard) -> Iterator[PlannedRun]:
    """The explicit run units one shard groups, in execution order."""
    scn = active(shard.scenario)
    scenario_id = scn.scenario_id if scn is not None else None
    for app in shard.apps:
        for iteration in range(shard.iterations):
            yield PlannedRun(
                world=shard.world,
                seed=shard.seed,
                scenario_id=scenario_id,
                env_id=shard.env_id,
                app=app,
                scale=shard.scale,
                iteration=iteration,
            )


@dataclass(frozen=True)
class RunPlan:
    """A compiled execution plan: worlds → shards → runs.

    ``shards`` is world-major (every shard of world 0, then world 1, …)
    with globally unique ascending ``index`` values; each shard's
    ``world`` tag names its :class:`PlanWorld` by that world's
    ``index``.  Subset plans (:meth:`subset`) keep the original world
    indices, so results regroup against the full plan unambiguously.
    """

    worlds: tuple[PlanWorld, ...]
    shards: tuple[StudyShard, ...]
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        known = {world.index for world in self.worlds}
        if len(known) != len(self.worlds):
            raise ValueError("plan worlds must have unique indices")
        stray = [shard for shard in self.shards if shard.world not in known]
        if stray:
            raise ValueError(
                f"shard {stray[0].index} references unknown world {stray[0].world}"
            )

    # -- shape ---------------------------------------------------------------

    @property
    def n_worlds(self) -> int:
        return len(self.worlds)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_runs(self) -> int:
        return sum(len(shard.apps) * shard.iterations for shard in self.shards)

    def runs(self) -> Iterator[PlannedRun]:
        """Every planned run, in plan (== serial execution) order."""
        for shard in self.shards:
            yield from planned_runs(shard)

    def shards_for_world(self, index: int) -> tuple[StudyShard, ...]:
        return tuple(shard for shard in self.shards if shard.world == index)

    def world_shard_counts(self) -> list[tuple[PlanWorld, int]]:
        """(world, shard count) pairs in plan order."""
        counts = {world.index: 0 for world in self.worlds}
        for shard in self.shards:
            counts[shard.world] += 1
        return [(world, counts[world.index]) for world in self.worlds]

    def subset(self, world_indices) -> "RunPlan":
        """The sub-plan containing only the given worlds (indices kept).

        The ensemble runner compiles the full grid once, then executes
        only the worlds whose folded summaries missed the cache.
        """
        wanted = set(world_indices)
        return RunPlan(
            worlds=tuple(w for w in self.worlds if w.index in wanted),
            shards=tuple(s for s in self.shards if s.world in wanted),
            cache_dir=self.cache_dir,
        )

    def split_baseline(self) -> tuple["RunPlan", "RunPlan"]:
        """(baseline worlds' sub-plan, remaining worlds' sub-plan).

        The two-phase incremental schedule: the baseline sub-plan
        executes first (warming the cell cache), then the remainder runs
        with diff-aware reuse against it (:mod:`repro.plan.diff`).  Both
        halves keep their original world indices, so results regroup
        against the full plan unambiguously.
        """
        base = self.subset(w.index for w in self.worlds if w.is_baseline)
        rest = self.subset(w.index for w in self.worlds if not w.is_baseline)
        return base, rest

    # -- composition ---------------------------------------------------------

    @staticmethod
    def concat(*plans: "RunPlan") -> "RunPlan":
        """One plan holding every world of ``plans``, re-indexed.

        World indices (and shard indices / world tags) are resequenced
        so the invariants hold across inputs that each start at 0.  The
        result is only meant as a *diff baseline*
        (:func:`~repro.plan.diff.diff_plans` matches shards by their
        content-addressed summary keys, never by index) — the campaign
        runner concatenates an ensemble's own baseline replicas with the
        smoke-stage plan so the grid stage's diff counts any cell either
        one already simulated as reusable.  Shards whose summary keys collide across
        inputs are harmless: the diff's key map collapses them.
        """
        worlds: list[PlanWorld] = []
        shards: list[StudyShard] = []
        cache_dir = next((p.cache_dir for p in plans if p.cache_dir), None)
        for plan in plans:
            remap = {}
            for world in plan.worlds:
                remap[world.index] = len(worlds)
                worlds.append(dataclasses.replace(world, index=remap[world.index]))
            for shard in plan.shards:
                shards.append(
                    dataclasses.replace(
                        shard, index=len(shards), world=remap[shard.world]
                    )
                )
        return RunPlan(worlds=tuple(worlds), shards=tuple(shards), cache_dir=cache_dir)

    # -- inspection ----------------------------------------------------------

    def describe(self) -> dict:
        """A JSON-safe description of the plan (``repro plan show``)."""
        grouped: dict[int, list[StudyShard]] = {w.index: [] for w in self.worlds}
        for shard in self.shards:
            grouped[shard.world].append(shard)
        worlds = []
        for world in self.worlds:
            shards = grouped[world.index]
            worlds.append(
                {
                    "world": world.index,
                    "scenario": world.scenario_id,
                    "seed": world.seed,
                    "replica": world.replica,
                    "shards": len(shards),
                    "runs": sum(len(s.apps) * s.iterations for s in shards),
                }
            )
        return {
            "worlds": worlds,
            "shards": [
                {
                    "index": shard.index,
                    "world": shard.world,
                    "env": shard.env_id,
                    "scale": shard.scale,
                    "apps": list(shard.apps),
                    "iterations": shard.iterations,
                    "seed": shard.seed,
                    "scenario": (
                        active(shard.scenario).scenario_id
                        if active(shard.scenario) is not None
                        else None
                    ),
                }
                for shard in self.shards
            ],
            "cache_dir": self.cache_dir,
            "totals": {
                "worlds": self.n_worlds,
                "shards": self.n_shards,
                "runs": self.n_runs,
            },
        }

    def digest(self) -> str:
        """Stable content hash of the compiled plan's semantics.

        Scenario payloads participate via their own semantic digests;
        cosmetic world labels and the cache directory do not (neither
        changes what runs — an empty scenario digests like no scenario,
        exactly as it caches).
        """
        data = self.describe()
        data.pop("cache_dir")
        for world, source in zip(data["worlds"], self.worlds):
            scn = active(source.scenario)
            world.pop("scenario")
            world["scenario_digest"] = scn.digest() if scn is not None else None
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
