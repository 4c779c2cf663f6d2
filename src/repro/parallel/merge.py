"""Deterministic merge of per-shard results into one campaign.

The merge is the synchronization point of the shard-then-merge design:
shard results may arrive from any number of worker processes, but they
are folded back in *plan order* (the shard's ``index``), so the merged
dataset, incident log, spend, and cluster count are byte-identical to a
serial execution of the same plan — regardless of worker count or
completion order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.incidents import Incident, merge_incident_logs
from repro.core.results import ResultStore
from repro.parallel.shard import ShardResult


@dataclass
class TransportStats:
    """How many shard result stores crossed back from pool workers."""

    #: stores that arrived from another process (inline results and
    #: cache attaches never cross the pool)
    stores: int = 0
    #: column bytes those stores shipped (see
    #: :mod:`repro.parallel.transport`)
    bytes: int = 0

    def note(self, result: ShardResult) -> None:
        """Count one shard result, if a worker process produced it."""
        if result.worker_pid in (-1, os.getpid()):
            return
        self.stores += 1
        self.bytes += result.store.wire_bytes

    def summary(self) -> str:
        """One human line, e.g. ``12 stores, 1.4 MB shipped (120.0 kB/store)``."""
        return (
            f"{self.stores} stores, {_fmt_bytes(self.bytes)} shipped "
            f"({_fmt_bytes(self.bytes / max(self.stores, 1))}/store)"
        )


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "kB", "MB"):
        if n < 1000 or unit == "MB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.1f} {unit}"
        n /= 1000
    return f"{n:.1f} MB"


@dataclass
class MergedStudy:
    """The campaign-level fold of every shard."""

    store: ResultStore = field(default_factory=ResultStore)
    incidents: dict[str, list[Incident]] = field(default_factory=dict)
    spend_by_cloud: dict[str, float] = field(default_factory=dict)
    clusters_created: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalid: int = 0
    #: why invalid entries were invalid: reason label → count, summed
    #: across shards (each shard caps its own histogram)
    cache_invalid_reasons: dict[str, int] = field(default_factory=dict)
    #: how many shard stores crossed back from pool workers
    transport: TransportStats = field(default_factory=TransportStats)


def merge_shard_results(
    results: Iterable[ShardResult],
    *,
    incidents: dict[str, list[Incident]] | None = None,
) -> MergedStudy:
    """Fold shard results in plan order.

    ``incidents`` seeds the merged incident log — the study runner passes
    the container-build incidents recorded before sharding, so build
    incidents precede fault incidents per environment exactly as in the
    serial campaign.
    """
    merged = MergedStudy(incidents=incidents if incidents is not None else {})
    for shard in sorted(results, key=lambda r: r.index):
        # Columnar concatenation: buffers append to buffers in plan
        # order; no row objects materialize on the merge path.
        merged.store.absorb(shard.store)
        merge_incident_logs(merged.incidents, shard.env_id, shard.incidents)
        for cloud, spend in shard.spend_by_cloud.items():
            merged.spend_by_cloud[cloud] = merged.spend_by_cloud.get(cloud, 0.0) + spend
        merged.clusters_created += shard.clusters_created
        merged.cache_hits += shard.cache_hits
        merged.cache_misses += shard.cache_misses
        merged.cache_invalid += shard.cache_invalid
        for label, count in shard.cache_invalid_reasons.items():
            merged.cache_invalid_reasons[label] = (
                merged.cache_invalid_reasons.get(label, 0) + count
            )
        merged.transport.note(shard)
    return merged
