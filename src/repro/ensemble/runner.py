"""The Monte-Carlo replication engine: seeds × scenarios → distributions.

:class:`EnsembleRunner` executes an :class:`~repro.ensemble.spec.EnsembleSpec`
by fanning every replica-world — one full campaign at one
``(seed, scenario)`` coordinate — through the study's own parallel
machinery, then folding each world down to streaming per-cell statistics
the moment its shards return.  Three properties are engineered in:

**Determinism.**  Worlds are planned and folded in spec order
(scenario-major, replicas ascending) no matter how many workers execute
the shards, and every shard is the same pure function the study runner
uses — so any worker count produces a byte-identical distribution
report, and world 0 (baseline, replica 0) *is* the seed study.

**Bounded memory.**  Shard batches stream through
:func:`~repro.parallel.pool.pmap_chunked`; each world collapses to one
:class:`~repro.ensemble.frame.ResultFrame` fold (a dozen floats per
cell) before the next world's records exist.  State is O(cells), never
O(worlds × runs).

**Warm re-runs are nearly free.**  Cache keys are seed- and
scenario-aware at all three levels: run and cell entries
(:mod:`repro.sim.cache`) replay individual simulations, and a new
world-level entry (:func:`~repro.sim.cache.world_key`) stores each
world's *folded summary* so a repeat ensemble skips shard execution and
the fold entirely.

Container builds contribute incidents but no run records and do not
vary across worlds, so the ensemble (a distribution engine over
records) skips them — exactly like
:func:`~repro.parallel.shard.execute_shard` itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.results import ResultStore
from repro.ensemble.frame import ResultFrame
from repro.ensemble.spec import EnsembleSpec
from repro.ensemble.stats import CellStats, StreamAccumulator
from repro.parallel.merge import TransportStats
from repro.parallel.pool import FaultStats
from repro.parallel.shard import ShardResult
from repro.plan import PlanExecutor, PlanWorld, ReuseStats, RunPlan, compile_ensemble
from repro.plan.executor import ExecutionOptions, require_cache
from repro.errors import ConfigurationError
from repro.scenarios.spec import active
from repro.sim.cache import RunCache, world_key
from repro.sim.execution import ExecutionEngine
from repro.telemetry import span

#: world-summary payload schema; bump on shape changes so stale
#: summaries miss instead of resurfacing
WORLD_SUMMARY_VERSION = 1


def _engine_options() -> dict:
    """The engine options every ensemble shard runs under.

    Shards build their engines with defaults
    (:func:`~repro.parallel.shard.execute_shard`), so the world key
    derives the options from a default engine — the same way the
    cell-level key derives them from the executing engine — and cannot
    drift if the default ever changes.
    """
    return {"azure_ucx_tuned": ExecutionEngine().azure_ucx_tuned}

#: a cell's identity across worlds
CellKey = tuple[str, str, str, int]  # (scenario_id, env, app, scale)


@dataclass
class EnsembleResult:
    """Everything an ensemble folded, ready to report.

    ``cells`` maps (scenario_id, env, app, scale) → streaming stats, in
    deterministic fold order (scenario-major, cells sorted).
    ``thresholds`` holds the seed study's per-cell point-estimate FOMs —
    world 0's values, the numbers the paper would have published — which
    the distribution report turns into exceedance probabilities.
    """

    spec: EnsembleSpec
    cells: dict[CellKey, CellStats] = field(default_factory=dict)
    thresholds: dict[tuple[str, str, int], float] = field(default_factory=dict)
    spend: dict[str, StreamAccumulator] = field(default_factory=dict)
    incidents: dict[str, StreamAccumulator] = field(default_factory=dict)
    worlds: int = 0
    world_cache_hits: int = 0
    world_cache_misses: int = 0
    #: malformed world-summary entries encountered (each re-executed,
    #: each leaving a one-line warning — see :mod:`repro.sim.cache`)
    world_cache_invalid: int = 0
    #: why those entries were invalid: reason label → count (capped at
    #: :data:`~repro.sim.cache.INVALID_REASON_CAP` labels)
    world_cache_invalid_reasons: dict[str, int] = field(default_factory=dict)
    #: cell-granular reuse accounting for incremental runs
    #: (:class:`~repro.plan.executor.ReuseStats`, including the count of
    #: malformed cell-summary entries met on the reuse path); ``None``
    #: for from-scratch runs
    reuse: ReuseStats | None = None
    #: how executed worlds' shard stores crossed back from the worker
    #: pool (:class:`~repro.parallel.merge.TransportStats`); world-cache
    #: replays ship nothing, so a fully-warm run reports no blocks.
    #: Deliberately absent from :meth:`to_json_dict` — transport is an
    #: execution property, not part of the dataset.
    transport: TransportStats | None = None
    #: recovery events executed worlds survived (retries, requeues,
    #: rebuilds, resumed cells); included in :meth:`to_json_dict` only
    #: when something actually happened, so clean snapshots are
    #: byte-identical to pre-fault-tolerance ones
    faults: FaultStats | None = None

    def scenario_ids(self) -> list[str]:
        """Scenario ids in fold order (baseline first)."""
        return [scn.scenario_id for scn in self.spec.scenario_grid()]

    def threshold_for(self, env: str, app: str, scale: int) -> float | None:
        return self.thresholds.get((env, app, scale))

    # -- reporting ----------------------------------------------------------

    def distribution_table(self):
        """Per-cell CI/percentile table (:mod:`repro.reporting.distributions`)."""
        from repro.reporting.distributions import distribution_table

        return distribution_table(self)

    def exceedance_table(self):
        """Per-scenario exceedance summary."""
        from repro.reporting.distributions import exceedance_table

        return exceedance_table(self)

    def render(self) -> str:
        """Both tables as fixed-width text."""
        from repro.reporting.distributions import render_distributions

        return render_distributions(self)

    def to_json_dict(self) -> dict:
        """A JSON-safe snapshot of the whole distribution dataset."""
        cells = []
        for (sid, env, app, scale), stats in self.cells.items():
            threshold = self.threshold_for(env, app, scale)
            entry = {
                "scenario": sid,
                "env": env,
                "app": app,
                "scale": scale,
                "worlds": stats.worlds,
                "fom": stats.fom.summary(),
                "wall_seconds": stats.wall.summary(),
                "cost_usd": stats.cost.summary(),
                "completed": stats.completed.summary(),
                "fom_threshold": threshold,
            }
            if threshold is not None and stats.fom.count:
                entry["fom_exceedance"] = stats.fom.exceedance(threshold)
            cells.append(entry)
        out = {
            "spec": self.spec.to_dict(),
            "digest": self.spec.digest(),
            "worlds": self.worlds,
            "world_cache": {
                "hits": self.world_cache_hits,
                "misses": self.world_cache_misses,
                "invalid": self.world_cache_invalid,
            },
            "spend_usd": {sid: acc.summary() for sid, acc in self.spend.items()},
            "incidents": {sid: acc.summary() for sid, acc in self.incidents.items()},
            "cells": cells,
        }
        if self.reuse is not None:
            out["cell_reuse"] = self.reuse.to_dict()
        if self.faults is not None and self.faults.activity:
            out["faults"] = self.faults.to_dict()
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


class EnsembleRunner:
    """Executes an :class:`EnsembleSpec` and folds the distributions.

    ``options`` behave exactly as on
    :class:`~repro.core.study.StudyRunner`; the cache additionally
    stores per-world folded summaries under
    :func:`~repro.sim.cache.world_key`.
    """

    def __init__(
        self,
        spec: EnsembleSpec,
        options: ExecutionOptions | None = None,
        *,
        incremental: bool = False,
        baseline_plan: RunPlan | None = None,
    ):
        self.options = options if options is not None else ExecutionOptions()
        if incremental:
            require_cache("an incremental ensemble", self.options.cache_dir)
        if baseline_plan is not None and not incremental:
            raise ConfigurationError(
                "baseline_plan only makes sense with incremental=True: "
                "it extends the diff baseline the incremental schedule "
                "attaches cells from"
            )
        self.spec = spec
        self.incremental = incremental
        #: accumulates over one run() invocation (see EnsembleResult)
        self._transport_stats = TransportStats()
        self._fault_stats = FaultStats()
        #: extra worlds (e.g. a campaign's smoke stage) whose cached
        #: cells this run may attach, on top of its own baseline replicas
        self.baseline_plan = baseline_plan

    # -- planning -----------------------------------------------------------

    def compile(self) -> RunPlan:
        """The whole grid as one :class:`~repro.plan.ir.RunPlan`."""
        return compile_ensemble(self.spec, cache_dir=self.options.cache_dir)

    def _plans(self) -> tuple[PlanWorld, ...]:
        """The grid's worlds in fold order (compiled plan's world list)."""
        return self.compile().worlds

    def _world_key(self, world: PlanWorld) -> str:
        scn = active(world.scenario)
        config = self.spec.study_config(world.replica)
        return world_key(
            seed=world.seed,
            env_ids=tuple(config.env_ids),
            apps=tuple(config.apps),
            sizes=config.sizes,
            iterations=config.iterations,
            engine_options=_engine_options(),
            scenario=scn.digest() if scn is not None else None,
        )

    # -- execution ----------------------------------------------------------

    def run(self) -> EnsembleResult:
        """Execute every world and fold the streaming distributions.

        An incremental run schedules two phases: the baseline replicas
        execute first (writing their cell- and world-level summaries),
        then the full grid streams in fold order — the baseline worlds
        replay from the world cache they just populated, and every
        scenario world executes diff-aware, attaching cells its scenario
        cannot touch.  Fold order (and therefore every folded statistic)
        is byte-identical to a from-scratch run.
        """
        result = EnsembleResult(spec=self.spec)
        self._transport_stats = TransportStats()
        result.transport = self._transport_stats
        self._fault_stats = FaultStats()
        result.faults = self._fault_stats
        cache = RunCache(self.options.cache_dir) if self.options.cache_dir else None
        plan = self.compile()
        with span(
            "ensemble.run",
            worlds=plan.n_worlds,
            workers=self.options.workers,
            incremental=self.incremental,
        ):
            baseline: RunPlan | None = None
            if self.incremental:
                result.reuse = ReuseStats()
                own_baseline, _ = plan.split_baseline()
                # Phase 1: run (and summary-cache) the baseline replicas.
                # Their summaries are discarded here — the main pass below
                # replays them from the world cache *in fold order*, so the
                # streamed folds see the exact from-scratch ordering.
                for _ in self._summaries(own_baseline, cache):
                    pass
                # The diff baseline may extend beyond this run's own
                # baseline replicas: a campaign threads its smoke-stage
                # plan in, so cells that stage already simulated (at the
                # same seed and footprint) attach from the cell cache
                # instead of re-executing.  Sound because the diff
                # matches shards by content-addressed summary keys.
                baseline = own_baseline
                if self.baseline_plan is not None:
                    baseline = RunPlan.concat(own_baseline, self.baseline_plan)
            for world, summary, cached in self._summaries(
                plan, cache, baseline=baseline, reuse=result.reuse
            ):
                if cache is not None:  # no phantom misses when uncached
                    if cached:
                        result.world_cache_hits += 1
                    else:
                        result.world_cache_misses += 1
                with span("ensemble.fold", world=world.index):
                    self._fold(result, world, summary)
                result.worlds += 1
            if cache is not None:
                # This cache object only ever touches world-summary entries,
                # so its invalid counter *is* the world-level degradation.
                result.world_cache_invalid = cache.invalid
                result.world_cache_invalid_reasons = dict(cache.invalid_reasons)
            return result

    def _summaries(
        self,
        plan: RunPlan,
        cache: RunCache | None,
        *,
        baseline: RunPlan | None = None,
        reuse: ReuseStats | None = None,
    ) -> Iterator[tuple[PlanWorld, dict, bool]]:
        """Yield (world, folded summary, was-cached) in fold order.

        Cached worlds replay their stored summary; contiguous runs of
        missing worlds execute through the shared plan executor as one
        sub-plan.  The pending list is flushed before any cached world
        is yielded, so the output order is exactly the plan order.
        ``baseline`` switches the executed sub-plans to the incremental
        mode, diffing against it; ``reuse`` accumulates their cell
        accounting.
        """
        pending: list[tuple[PlanWorld, str | None]] = []
        for world in plan.worlds:
            key = self._world_key(world) if cache is not None else None
            if cache is not None:
                with span("ensemble.world_probe", world=world.index):
                    data = cache.get_json(key, level="world")
            else:
                data = None
            if self._valid_summary(data):
                yield from self._execute(plan, pending, cache, baseline=baseline, reuse=reuse)
                pending = []
                yield world, data, True
            else:
                if data is not None and cache is not None:
                    # JSON-valid but malformed: trace the degradation
                    # (non-JSON corruption is traced inside get_json).
                    cache.note_invalid(key, "world summary malformed")
                pending.append((world, key))
        yield from self._execute(plan, pending, cache, baseline=baseline, reuse=reuse)

    @staticmethod
    def _is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    @classmethod
    def _valid_cell(cls, cell) -> bool:
        return (
            isinstance(cell, dict)
            and isinstance(cell.get("env"), str)
            and isinstance(cell.get("app"), str)
            and all(
                cls._is_number(cell.get(field))
                for field in ("scale", "records", "completed", "cost_total")
            )
            and all(
                cell.get(field) is None or cls._is_number(cell[field])
                for field in ("fom_mean", "wall_mean")
            )
        )

    @classmethod
    def _valid_summary(cls, data) -> bool:
        """Deep-enough validation that a cached entry can be folded.

        JSON-valid but malformed entries (truncated-and-repaired files,
        rows missing fields, mistyped values) must re-simulate
        silently, exactly like non-JSON corruption — the cache is an
        accelerator, never a source of truth.  Every field and type
        :meth:`_fold` touches is checked here.
        """
        if not (isinstance(data, dict) and data.get("v") == WORLD_SUMMARY_VERSION):
            return False
        cells = data.get("cells")
        if not isinstance(cells, list) or not all(map(cls._valid_cell, cells)):
            return False
        return cls._is_number(data.get("spend")) and cls._is_number(
            data.get("incidents")
        )

    def _execute(
        self,
        plan: RunPlan,
        pending: list[tuple[PlanWorld, str | None]],
        cache: RunCache | None,
        *,
        baseline: RunPlan | None = None,
        reuse: ReuseStats | None = None,
    ) -> Iterator[tuple[PlanWorld, dict, bool]]:
        """Execute missing worlds through the shared executor, in order.

        With a ``baseline`` plan the sub-plan runs incrementally: cells
        the diff proves untouched attach their folded summaries from the
        cell cache instead of simulating.
        """
        if not pending:
            return
        executor = PlanExecutor(
            plan.subset(world.index for world, _ in pending),
            self.options,
            baseline=baseline,
        )
        world_results = executor.iter_world_results()
        try:
            for (world, key), (executed, shard_results) in zip(pending, world_results):
                assert executed.index == world.index
                for shard in shard_results:
                    self._transport_stats.note(shard)
                summary = self._world_summary(shard_results)
                if cache is not None and key is not None:
                    cache.put_json(key, summary, level="world")
                yield world, summary, False
        finally:
            # Harvest even when a world dies mid-batch: the accounting
            # up to the failure still reaches the caller's report.
            self._fault_stats.add(executor.faults)
        if reuse is not None:
            reuse.add(executor.reuse)

    @staticmethod
    def _world_summary(shard_results: list[ShardResult]) -> dict:
        """Fold one world's shard results into its columnar summary.

        Records concatenate in plan order (results arrive in submission
        order), so the frame fold — and therefore the summary — is the
        same bytes for any worker count, and JSON floats round-trip
        exactly, so a cache replay folds identically to a fresh fold.
        """
        # Shard stores concatenate columnar (plan order) and the frame
        # borrows the merged buffers zero-copy — no row objects here.
        frame = ResultStore.merge(
            shard.store for shard in shard_results
        ).to_frame()
        spend = sum(
            usd for shard in shard_results for usd in shard.spend_by_cloud.values()
        )
        incidents = sum(len(shard.incidents) for shard in shard_results)
        return {
            "v": WORLD_SUMMARY_VERSION,
            "cells": frame.cell_aggregates().rows(),
            "spend": spend,
            "incidents": incidents,
        }

    # -- folding ------------------------------------------------------------

    @staticmethod
    def _fold(result: EnsembleResult, world: PlanWorld, summary: dict) -> None:
        sid = world.scenario.scenario_id
        # The seed study anchors the thresholds: the *baseline* world at
        # replica 0 — not merely plan position 0, which could be a
        # perturbed scenario if the user listed an empty scenario of
        # their own after it (scenario_grid only injects BASELINE when
        # no baseline-equivalent world is present).
        anchor = world.scenario.is_baseline and world.replica == 0
        for cell in summary["cells"]:
            key: CellKey = (sid, cell["env"], cell["app"], int(cell["scale"]))
            result.cells.setdefault(key, CellStats()).fold_cell(cell)
            if anchor and cell["fom_mean"] is not None:
                result.thresholds[(cell["env"], cell["app"], int(cell["scale"]))] = (
                    cell["fom_mean"]
                )
        result.spend.setdefault(sid, StreamAccumulator()).push(summary["spend"])
        result.incidents.setdefault(sid, StreamAccumulator()).push(
            summary["incidents"]
        )
