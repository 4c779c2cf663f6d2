"""The one executor every front-end shares.

A :class:`PlanExecutor` runs any :class:`~repro.plan.ir.RunPlan` —
serially for ``workers=1``, through the :mod:`repro.parallel` process
pool otherwise — and hands results back **in plan order** regardless of
worker count or completion order.  That single ordering guarantee is
what makes every front-end's output byte-identical across worker
counts: the shards are pure functions, the pool preserves submission
order, and the merge folds per world in shard-plan order.

How a plan executes — worker count, cache, transport, retry ladder,
fault injection, resume — is one frozen :class:`ExecutionOptions`
value.  Every front-end (study, sweep, ensemble, campaign) takes it and
passes it here unchanged; its ``__post_init__`` is the one place those
execution rules are checked.

Shard batches stream through
:func:`~repro.parallel.pool.pmap_chunked`, so peak memory is bounded by
one chunk of shard results (plus the world currently being folded) —
an ensemble of hundreds of worlds never holds more than a window of
records at a time.

**Incremental mode** (a ``baseline=`` plan) adds diff-aware reuse: the
plan is diffed against the baseline (:func:`repro.plan.diff.diff_plans`)
and every cell the diff proves untouched is *attached* — its folded
summary loaded straight from the cell-level cache the baseline run
wrote — while only the dirty cells (and any reusable cells whose cache
entries are cold or malformed) dispatch to shards.  ``resume`` attaches
the cells the journal proves complete the same way.  Results are still
yielded in plan order and are byte-identical to a from-scratch run:
attachment only ever substitutes a cached result stored under the same
content-addressed key the cell would recompute.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.incidents import Incident
from repro.errors import ConfigurationError
from repro.parallel.merge import MergedStudy, merge_shard_results
from repro.parallel.pool import FaultStats, RetryPolicy, pmap_chunked
from repro.parallel.shard import (
    ShardResult,
    StudyShard,
    attach_shard,
    execute_shard,
    shard_summary_key,
)
from repro.plan.ir import PlanWorld, RunPlan
from repro.plan.journal import ExecutionJournal
from repro.sim.cache import RunCache
from repro.telemetry import count as telemetry_count
from repro.telemetry import current_tracer, enabled, span

#: how shard result stores may cross back from pool workers
TRANSPORTS = ("auto", "shm", "pickle")


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

    No field changes a result byte: any worker count, transport, retry
    ladder or surviving fault plan yields the same dataset, and the
    cache only ever replays what the same coordinates would recompute.
    """

    #: worker processes; 1 executes inline, in this process
    workers: int = 1
    #: content-addressed cache directory (run, cell and world entries
    #: plus the resume journal); ``None`` runs uncached
    cache_dir: str | None = None
    #: how shard stores cross back from workers: ``"shm"`` packs
    #: columns into shared-memory blocks, ``"pickle"`` ships them
    #: through the pool pipe, ``"auto"`` probes and prefers shm
    transport: str = "auto"
    #: the pool's fault-recovery ladder; ``None`` = :class:`RetryPolicy`
    #: defaults
    retry: RetryPolicy | None = None
    #: fault-injection plan stamped onto every dispatched shard
    #: (:class:`repro.chaos.FaultPlan`); ``None`` = no chaos
    chaos: object | None = None
    #: re-attach cells the journal proves complete instead of executing
    #: them (:mod:`repro.plan.journal`)
    resume: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1 (got {self.workers})"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}: choose "
                + ", ".join(repr(t) for t in TRANSPORTS)
            )
        if self.resume:
            require_cache("resume", self.cache_dir)


@dataclass
class ReuseStats:
    """What incremental execution reused, executed, and rejected."""

    #: cells the diff classified reusable / dirty
    planned_reusable: int = 0
    planned_dirty: int = 0
    #: cells actually attached from the cell-level cache
    attached: int = 0
    #: cells dispatched to shard execution (dirty + cold/invalid reuse)
    executed: int = 0
    #: malformed cell-summary entries met on the reuse path — each one
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

    The cache is the plan's own (``plan.cache_dir``); ``options`` says
    how to execute.  A ``baseline`` plan selects incremental mode: cells
    the diff against it proves untouched attach from the cell cache.
    """

    def __init__(
        self,
        plan: RunPlan,
        options: ExecutionOptions | None = None,
        *,
        baseline: RunPlan | None = None,
    ):
        options = options if options is not None else ExecutionOptions()
        if baseline is not None:
            require_cache("incremental execution", plan.cache_dir)
        if options.resume:
            require_cache("resume", plan.cache_dir)
        self.plan = plan
        self.options = options
        #: the plan reusable cells are diffed against (incremental mode)
        self.baseline = baseline
        #: the computed diff (populated when incremental iteration starts)
        self.diff = None
        #: reuse accounting (all zeros for non-incremental runs)
        self.reuse = ReuseStats()
        #: recovery accounting: retries, requeues, rebuilds, resumed
        #: cells — all zeros for a clean run
        self.faults = FaultStats()

    def _chunk_size(self) -> int:
        # A chunk spans several small worlds (or part of one large one);
        # only one chunk of shard results is ever alive at a time.
        counts = self.plan.world_shard_counts()
        first = counts[0][1] if counts else 0
        return max(first, self.options.workers * 4, 1)

    def _transport_mode(self) -> str:
        """The transport shards actually dispatch with.

        ``auto`` resolves to shared memory when the pool will really
        cross process boundaries and the platform supports it; inline
        execution (``workers=1``) never pays the packing cost.
        """
        if self.options.workers == 1:
            return "pickle"
        if self.options.transport == "auto":
            from repro.parallel.transport import shm_available

            return "shm" if shm_available() else "pickle"
        return self.options.transport

    def _dispatchable(self, shards: Sequence[StudyShard]) -> tuple[StudyShard, ...]:
        """Shards as dispatched: trace- and transport-marked.

        The flags only tell :func:`~repro.parallel.shard.execute_shard`
        to record spans (``trace``) and how to ship the result store
        back (``transport``) — cache keys hash explicit shard fields,
        so any marking keys (and computes) identically.
        """
        traced = enabled()
        mode = self._transport_mode()
        chaos = self.options.chaos
        if not traced and mode == "pickle" and chaos is None:
            return tuple(shards)
        return tuple(
            dataclasses.replace(
                s,
                trace=traced or s.trace,
                transport=mode,
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

    def _journal(self) -> ExecutionJournal | None:
        """The checkpoint journal, when there is a cache to anchor it.

        Journaling is unconditional with a cache directory: it is what
        makes *this* run resumable if it dies, not a resume-mode-only
        artifact.  Without a cache there is nothing to re-attach
        through, so there is nothing worth journaling.
        """
        if self.plan.cache_dir is None:
            return None
        return ExecutionJournal(self.plan.cache_dir)

    def _attach(self, journal: ExecutionJournal | None) -> dict[int, ShardResult]:
        """Cells that need not execute, re-attached from the cell cache.

        Two sources: cells the diff against :attr:`baseline` proves
        untouched, and (with ``resume``) cells the journal proves
        complete.  Probes happen up front (the pool needs its work list
        before submission), so the map peaks at the whole attachable
        set; each entry is a *folded* cell summary — tiny next to the
        simulation it replaces — and is popped as its world yields.  A
        cell whose cache entry is cold or malformed silently joins the
        dispatch list — reuse degrades to re-execution, never to a hole
        in the tables; malformed entries additionally flow through
        :meth:`RunCache.note_invalid` and count in
        :attr:`reuse.invalid <ReuseStats.invalid>`.
        """
        reusable: frozenset[int] = frozenset()
        if self.baseline is not None:
            from repro.plan.diff import diff_plans

            with span("plan.diff"):
                self.diff = diff_plans(self.baseline, self.plan)
            reusable = self.diff.reusable_indices()
        done_keys: set[str] = set()
        if self.options.resume and journal is not None:
            done_keys = journal.completed()
        if self.diff is None and not done_keys:
            return {}
        cache = RunCache(self.plan.cache_dir)
        attached: dict[int, ShardResult] = {}
        resumed = 0
        with span("plan.attach", reusable=len(reusable), journaled=len(done_keys)):
            for shard in self.plan.shards:
                reuse = shard.index in reusable
                if reuse or (done_keys and shard_summary_key(shard) in done_keys):
                    result = attach_shard(shard, cache)
                    if result is not None:
                        attached[shard.index] = result
                        resumed += not reuse
        if done_keys:
            self.faults.resumed += resumed
            telemetry_count("fault.resumed", resumed)
        if self.diff is not None:
            self.reuse.planned_reusable = self.diff.n_reusable
            self.reuse.planned_dirty = self.diff.n_dirty
            self.reuse.attached = len(attached)
            self.reuse.executed = self.plan.n_shards - len(attached)
            self.reuse.invalid = cache.invalid
            for name, value in self.reuse.to_dict().items():
                telemetry_count(f"plan.reuse.{name}", value)
        return attached

    def _journaled_results(
        self, to_run: Sequence[StudyShard], journal: ExecutionJournal | None
    ) -> Iterator[ShardResult]:
        """Execute ``to_run`` through the pool, journaling as drained.

        Each completed cell is journaled the moment its result is
        *retrieved* (the pool's per-delivery hook) — before the chunk
        it belongs to is yielded, before the caller folds it — so a
        crash mid-chunk or mid-world still banks every drained cell
        for ``--resume``.  Deliveries arrive strictly in ``to_run``
        order, so pairing them with the shard list by position is
        sound.
        """
        keys = iter(to_run)

        def bank(_result) -> None:
            if journal is not None:
                journal.record(shard_summary_key(next(keys)))

        batches = pmap_chunked(
            execute_shard,
            self._dispatchable(to_run),
            workers=self.options.workers,
            chunk_size=self._chunk_size(),
            policy=self.options.retry,
            stats=self.faults,
            on_result=bank,
        )
        for batch in batches:
            yield from batch

    def iter_world_results(self) -> Iterator[tuple[PlanWorld, list[ShardResult]]]:
        """Yield (world, its shard results) in plan order.

        Shards execute across the worker pool in plan order; results are
        regrouped by each world's shard count, so a world is yielded the
        moment its last cell returns — no barrier across worlds.  Cells
        :meth:`_attach` re-attached take their place in that order; the
        yielded groups are indistinguishable.
        """
        with span(
            "plan.run",
            shards=len(self.plan.shards),
            workers=self.options.workers,
            incremental=self.baseline is not None,
        ):
            journal = self._journal()
            try:
                attached = self._attach(journal)
                to_run = [s for s in self.plan.shards if s.index not in attached]
                results = self._journaled_results(to_run, journal)
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
            finally:
                if journal is not None:
                    journal.close()

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
