"""Sharded, parallel study execution (shard → pool → merge).

The campaign is embarrassingly parallel at the paper's own granularity —
one cluster per (environment, size) cell (§2.9).  This package plans the
cells (:mod:`~repro.parallel.shard`), executes them across a process
pool (:mod:`~repro.parallel.pool`), and folds the results back together
deterministically (:mod:`~repro.parallel.merge`).  Seeds are derived
per-cell from keyed streams, never from call order, so any worker count
yields a byte-identical :class:`~repro.core.results.ResultStore`.

Results cross the pool as pickled column arrays, never as per-record
objects (:mod:`~repro.parallel.transport`); a front-end that keeps only
per-cell aggregates folds each result in its worker instead, so only
the aggregates cross (:func:`~repro.parallel.shard.execute_shard`'s
``fold``).

Execution is fault-tolerant: per-shard futures retry transient failures
with deterministic backoff under a :class:`~repro.parallel.pool.RetryPolicy`,
broken pools rebuild and requeue, stragglers past their deadline are
re-dispatched, and exhausted retries degrade workers→serial — with
every recovery event accounted in a
:class:`~repro.parallel.pool.FaultStats`.
"""

from repro.parallel.merge import (
    MergedStudy,
    TransportStats,
    merge_incident_logs,
    merge_shard_results,
)
from repro.parallel.pool import (
    FaultStats,
    RetryPolicy,
    execute_shards,
    pmap,
)
from repro.parallel.shard import ShardResult, StudyShard, execute_shard, plan_shards

__all__ = [
    "FaultStats",
    "MergedStudy",
    "RetryPolicy",
    "ShardResult",
    "StudyShard",
    "TransportStats",
    "execute_shard",
    "execute_shards",
    "merge_incident_logs",
    "merge_shard_results",
    "plan_shards",
    "pmap",
]
