"""The one executor every front-end shares.

A :class:`PlanExecutor` runs any :class:`~repro.plan.ir.RunPlan` —
serially for ``workers=1``, through the :mod:`repro.parallel` process
pool otherwise — and hands results back **in plan order** regardless of
worker count or completion order.  That single ordering guarantee is
what makes every front-end's output byte-identical across worker
counts: the shards are pure functions, the pool preserves submission
order, and the merge folds per world in shard-plan order.

How a plan executes — worker count, cache, retry ladder, fault
injection, resume accounting — is one frozen :class:`ExecutionOptions`
value.  Every front-end (study, sweep, ensemble, campaign) takes it and
passes it here unchanged; its ``__post_init__`` is the one place those
execution rules are checked.

Shard batches stream through
:func:`~repro.parallel.pool.pmap_chunked`, so peak memory is bounded by
one chunk of shard results (plus the world currently being folded, and
the attached cells, which load up front) — an ensemble of hundreds of
worlds, whose results are folded, never holds more than a window of
records at a time.  A front-end that keeps only a reduction of each
result passes it as ``fold``: every shard applies it where it executes
(:func:`~repro.parallel.shard.execute_shard`), and attached cells apply
it here, so every yielded result is folded alike.

**Attach before dispatch.**  With a cache directory every cell is
probed in this process before anything dispatches
(:meth:`PlanExecutor._attach`, the one place that decides which cells
attach, for every front-end): a cell whose entry is warm is *attached*
— its result loaded straight from the cell-level cache — and only the
misses (cold or malformed entries) dispatch to shards, so a fully warm
plan starts no pool.  Results are still yielded in plan order and are
byte-identical to a from-scratch run: attachment only ever substitutes
a cached result stored under the same content-addressed key the cell
would recompute.  A content-addressed cell entry is idempotent, so it
is its own record that the cell completed: rerunning a killed campaign
against the same cache executes only what the killed run never
banked.  ``resume`` adds no mechanism; it counts the attached cells as
resumed.

**Incremental mode** (a ``baseline=`` plan) diffs the plan against the
baseline (:func:`repro.plan.diff.diff_plans`) and reports what the
diff predicted beside what attached (:class:`ReuseStats`); the diff
never decides what attaches.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.core.incidents import Incident
from repro.errors import ConfigurationError
from repro.parallel.merge import MergedStudy, merge_shard_results
from repro.parallel.pool import FaultStats, RetryPolicy, pmap_chunked
from repro.parallel.shard import (
    ShardResult,
    StudyShard,
    attach_shard,
    execute_shard,
)
from repro.plan.ir import PlanWorld, RunPlan
from repro.sim.cache import RunCache
from repro.telemetry import count as telemetry_count
from repro.telemetry import current_tracer, enabled, span


def require_cache(mode: str, cache_dir: str | None) -> None:
    """The one "needs a cache" check: ``mode`` re-attaches cells from
    the cell-level cache, so it cannot run without a cache directory."""
    if cache_dir is None:
        raise ConfigurationError(
            f"{mode} needs a cache directory (--cache DIR, or "
            "cache_dir=...): it attaches cells from the cell-level cache "
            "instead of re-simulating them"
        )


@dataclass(frozen=True)
class ExecutionOptions:
    """How a plan executes — never what it computes.

    No field changes a result byte: any worker count, retry ladder or
    surviving fault plan yields the same dataset, and the cache only
    ever replays what the same coordinates would recompute.
    """

    #: worker processes; 1 executes inline, in this process
    workers: int = 1
    #: content-addressed cache directory (run, cell and world
    #: entries); warm cells attach instead of executing.  ``None`` runs
    #: uncached
    cache_dir: str | None = None
    #: the pool's fault-recovery ladder; ``None`` = :class:`RetryPolicy`
    #: defaults
    retry: RetryPolicy | None = None
    #: fault-injection plan stamped onto every dispatched shard
    #: (:class:`repro.chaos.FaultPlan`); ``None`` = no chaos
    chaos: object | None = None
    #: count the cells attached from the cache as resumed
    #: (``FaultStats.resumed``): the rerun of an interrupted campaign.
    #: Attaching itself needs no flag — every cached run attaches its
    #: warm cells
    resume: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1 (got {self.workers})"
            )
        if self.resume:
            require_cache("resume", self.cache_dir)


@dataclass
class ReuseStats:
    """What incremental execution reused, executed, and rejected."""

    #: cells the diff classified reusable / dirty (a prediction: a
    #: dirty cell whose entry is already warm attaches all the same)
    planned_reusable: int = 0
    planned_dirty: int = 0
    #: cells actually attached from the cell-level cache
    attached: int = 0
    #: cells dispatched to shard execution (cold or malformed entries)
    executed: int = 0
    #: malformed cell-summary entries met while attaching — each one
    #: flowed through :meth:`~repro.sim.cache.RunCache.note_invalid`
    #: and re-executed; surfaced so degradation is never silent
    invalid: int = 0

    def add(self, other: "ReuseStats") -> None:
        self.planned_reusable += other.planned_reusable
        self.planned_dirty += other.planned_dirty
        self.attached += other.attached
        self.executed += other.executed
        self.invalid += other.invalid

    def to_dict(self) -> dict[str, int]:
        return {
            "planned_reusable": self.planned_reusable,
            "planned_dirty": self.planned_dirty,
            "attached": self.attached,
            "executed": self.executed,
            "invalid": self.invalid,
        }


class PlanExecutor:
    """Executes a compiled :class:`RunPlan`, streaming worlds in order.

    The cache is the plan's own (``plan.cache_dir``): with one, warm
    cells attach and only the rest execute.  ``options`` says how to
    execute.  A ``baseline`` plan selects incremental mode, which diffs
    the plan against it and reports the reuse (:attr:`reuse`).
    ``fold`` reduces every shard result before it is yielded (executed
    shards apply it in their worker); :meth:`merged_worlds` needs the
    unfolded stores, so it is for front-ends that pass none.
    """

    def __init__(
        self,
        plan: RunPlan,
        options: ExecutionOptions | None = None,
        *,
        baseline: RunPlan | None = None,
        fold: Callable[[ShardResult], ShardResult] | None = None,
    ):
        options = options if options is not None else ExecutionOptions()
        if baseline is not None:
            require_cache("incremental execution", plan.cache_dir)
        if options.resume:
            require_cache("resume", plan.cache_dir)
        self.plan = plan
        self.options = options
        #: the front-end's reduction of each shard result (``None``:
        #: results keep their stores)
        self.fold = fold
        #: the plan reusable cells are diffed against (incremental mode)
        self.baseline = baseline
        #: the computed diff (populated when incremental iteration starts)
        self.diff = None
        #: reuse accounting (all zeros for non-incremental runs)
        self.reuse = ReuseStats()
        #: recovery accounting: retries, requeues, rebuilds, resumed
        #: cells — all zeros for a clean run that is not a ``resume``
        self.faults = FaultStats()

    def _chunk_size(self) -> int:
        # A chunk spans several small worlds (or part of one large one);
        # only one chunk of shard results is ever alive at a time.
        counts = self.plan.world_shard_counts()
        first = counts[0][1] if counts else 0
        return max(first, self.options.workers * 4, 1)

    def _dispatchable(self, shards: Sequence[StudyShard]) -> tuple[StudyShard, ...]:
        """Shards as dispatched: trace- and chaos-marked.

        The flags only tell :func:`~repro.parallel.shard.execute_shard`
        to record spans (``trace``) and which faults to inject
        (``chaos``) — cache keys hash explicit shard fields, so any
        marking keys (and computes) identically.
        """
        traced = enabled()
        chaos = self.options.chaos
        if not traced and chaos is None:
            return tuple(shards)
        return tuple(
            dataclasses.replace(
                s,
                trace=traced or s.trace,
                chaos=chaos if chaos is not None else s.chaos,
            )
            for s in shards
        )

    def _absorb_traces(self, results: list[ShardResult]) -> None:
        """Move worker span snapshots off the results into the tracer.

        The snapshot is enriched with the pool's tags (dispatch ordinal,
        measured worker wall seconds) and then dropped from the result,
        so downstream merging sees exactly what an untraced run carries.
        """
        tracer = current_tracer()
        for r in results:
            if r.trace is None:
                continue
            if tracer is not None:
                snapshot = r.trace
                if r.dispatch_ordinal >= 0:
                    snapshot["dispatch_ordinal"] = r.dispatch_ordinal
                if r.worker_seconds:
                    snapshot["worker_seconds"] = r.worker_seconds
                tracer.absorb(snapshot)
            r.trace = None

    def _attach(self) -> tuple[dict[int, ShardResult], dict[int, Counter]]:
        """Cells that need not execute, attached from the cell cache.

        The one place that decides which cells attach, for every
        front-end: with a cache directory, every cell of the plan is
        probed here, in this process, before anything dispatches (the
        pool needs its work list up front).  A hit attaches — the
        cell's cached result, reduced by :attr:`fold` when there is one
        — and only misses execute, so a fully warm plan starts no pool.
        The map peaks at the whole attachable set; each entry is popped
        as its world yields.

        A malformed entry flows through :meth:`RunCache.note_invalid`
        and its cell executes: reuse degrades to re-execution, never to
        a hole in the tables.  The second map holds those findings
        (reason label → count) by shard index, for :meth:`_executed` to
        put on the executed cell's result.
        """
        if self.baseline is not None:
            from repro.plan.diff import diff_plans

            with span("plan.diff"):
                self.diff = diff_plans(self.baseline, self.plan)
        if self.plan.cache_dir is None:
            return {}, {}
        cache = RunCache(self.plan.cache_dir)
        attached: dict[int, ShardResult] = {}
        invalid: dict[int, Counter] = {}
        seen: Counter = Counter()
        with span("plan.attach", shards=self.plan.n_shards):
            for shard in self.plan.shards:
                result = attach_shard(shard, cache)
                if result is not None:
                    attached[shard.index] = (
                        result if self.fold is None else self.fold(result)
                    )
                elif cache.invalid_reasons != seen:
                    invalid[shard.index] = Counter(cache.invalid_reasons) - seen
                    seen = Counter(cache.invalid_reasons)
        if self.options.resume:
            self.faults.resumed += len(attached)
            telemetry_count("fault.resumed", len(attached))
        if self.diff is not None:
            self.reuse.planned_reusable = self.diff.n_reusable
            self.reuse.planned_dirty = self.diff.n_dirty
            self.reuse.attached = len(attached)
            self.reuse.executed = self.plan.n_shards - len(attached)
            self.reuse.invalid = cache.invalid
            for name, value in self.reuse.to_dict().items():
                telemetry_count(f"plan.reuse.{name}", value)
        return attached, invalid

    def _executed(
        self, to_run: Sequence[StudyShard], invalid: dict[int, Counter]
    ) -> Iterator[ShardResult]:
        """Execute ``to_run`` through the pool, yielding results in order.

        A cell whose entry :meth:`_attach` found malformed counts that
        entry on its result, as the cell's own cache accounting.
        """
        batches = pmap_chunked(
            execute_shard if self.fold is None
            else functools.partial(execute_shard, fold=self.fold),
            self._dispatchable(to_run),
            workers=self.options.workers,
            chunk_size=self._chunk_size(),
            policy=self.options.retry,
            stats=self.faults,
        )
        for shard, result in zip(to_run, itertools.chain.from_iterable(batches)):
            for label, n in invalid.get(shard.index, {}).items():
                result.cache_invalid += n
                result.cache_invalid_reasons[label] = (
                    result.cache_invalid_reasons.get(label, 0) + n
                )
            yield result

    def iter_world_results(self) -> Iterator[tuple[PlanWorld, list[ShardResult]]]:
        """Yield (world, its shard results) in plan order.

        Shards execute across the worker pool in plan order; results are
        regrouped by each world's shard count, so a world is yielded the
        moment its last cell returns — no barrier across worlds.  Cells
        :meth:`_attach` attached take their place in that order; the
        yielded groups are indistinguishable.
        """
        with span(
            "plan.run",
            shards=len(self.plan.shards),
            workers=self.options.workers,
            incremental=self.baseline is not None,
        ):
            attached, invalid = self._attach()
            to_run = [s for s in self.plan.shards if s.index not in attached]
            results = self._executed(to_run, invalid)
            shards = iter(self.plan.shards)
            for world, n_shards in self.plan.world_shard_counts():
                # The world span stays open across the yield, so the
                # caller's fold of this world is attributed to it.
                with span("plan.world", world=world.index, shards=n_shards):
                    world_results = []
                    for _ in range(n_shards):
                        shard = next(shards)
                        result = attached.pop(shard.index, None)
                        world_results.append(
                            result if result is not None else next(results)
                        )
                    assert all(r.world == world.index for r in world_results)
                    self._absorb_traces(world_results)
                    yield world, world_results

    def merged_worlds(
        self,
        *,
        seed_incidents: dict[str, list[Incident]] | None = None,
    ) -> Iterator[tuple[PlanWorld, MergedStudy]]:
        """Yield (world, deterministically merged campaign) in plan order.

        ``seed_incidents`` seeds every world's incident log with a fresh
        copy (container-build incidents precede fault incidents per
        environment, exactly as in the serial campaign).
        """
        for world, results in self.iter_world_results():
            incidents = {
                env: list(incs) for env, incs in (seed_incidents or {}).items()
            }
            with span("plan.merge", world=world.index, shards=len(results)):
                merged = merge_shard_results(results, incidents=incidents)
            yield world, merged

    def run(
        self,
        *,
        seed_incidents: dict[str, list[Incident]] | None = None,
    ) -> list[tuple[PlanWorld, MergedStudy]]:
        """Execute the whole plan; every world merged, in plan order."""
        return list(self.merged_worlds(seed_incidents=seed_incidents))
