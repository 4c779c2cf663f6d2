"""Collective-communication cost models over a fabric.

Implements the standard algorithm cost formulas MPI libraries use, with
the algorithm switchover OpenMPI performs by message size:

* **allreduce** — recursive doubling for small messages
  (``ceil(log2 p) * (alpha + n*beta)``), Rabenseifner
  (reduce-scatter + allgather) for large ones
  (``2 log2 p * alpha + 2 n beta * (p-1)/p``).
* **bcast** — binomial tree for small, scatter+allgather for large.
* **allgather** — ring: ``(p-1) * (alpha + (n/p)*beta)`` where ``n`` is
  the total gathered size.
* **alltoall** — pairwise exchange: ``(p-1) * (alpha + (n/p)*beta)``.
* **reduce / barrier** — tree.

``alpha`` is the per-message latency term (fabric latency + overhead,
scaled by quirks — this is where the AWS 32 KiB allreduce spike enters),
``beta`` the per-byte term.  All functions return seconds and are pure,
so property tests can assert monotonicity and scaling laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.network.fabric import Fabric

#: OpenMPI-style switchover point between latency-optimal and
#: bandwidth-optimal allreduce algorithms.
ALLREDUCE_SWITCH_BYTES = 16 * 1024
BCAST_SWITCH_BYTES = 64 * 1024


def _alpha(fab: Fabric, nbytes: int, scope: str) -> float:
    return (fab.latency_s + fab.overhead_s) * fab.quirk_multiplier(nbytes, scope)


def _beta(fab: Fabric) -> float:
    return 1.0 / fab.bandwidth_Bps


def _log2ceil(p: int) -> int:
    return max(1, math.ceil(math.log2(p)))


def allreduce_time(fab: Fabric, nbytes: int, nprocs: int) -> float:
    """Time for an ``MPI_Allreduce`` of ``nbytes`` across ``nprocs``."""
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if nprocs == 1:
        return 0.0
    a = _alpha(fab, nbytes, "allreduce")
    b = _beta(fab)
    lg = _log2ceil(nprocs)
    if nbytes <= ALLREDUCE_SWITCH_BYTES:
        # Recursive doubling: log p rounds, full message each round.
        return lg * (a + nbytes * b)
    # Rabenseifner: reduce-scatter + allgather.
    return 2 * lg * a + 2 * nbytes * b * (nprocs - 1) / nprocs


def bcast_time(fab: Fabric, nbytes: int, nprocs: int) -> float:
    """Time for an ``MPI_Bcast``."""
    if nprocs <= 1:
        return 0.0
    a = _alpha(fab, nbytes, "bcast")
    b = _beta(fab)
    lg = _log2ceil(nprocs)
    if nbytes <= BCAST_SWITCH_BYTES:
        return lg * (a + nbytes * b)
    # Scatter + ring allgather.
    return lg * a + 2 * nbytes * b * (nprocs - 1) / nprocs


def allgather_time(fab: Fabric, total_bytes: int, nprocs: int) -> float:
    """Ring allgather of ``total_bytes`` aggregate result size."""
    if nprocs <= 1:
        return 0.0
    a = _alpha(fab, total_bytes // nprocs, "allgather")
    b = _beta(fab)
    per_step = total_bytes / nprocs
    return (nprocs - 1) * (a + per_step * b)


def alltoall_time(fab: Fabric, per_pair_bytes: int, nprocs: int) -> float:
    """Pairwise-exchange alltoall; ``per_pair_bytes`` per rank pair."""
    if nprocs <= 1:
        return 0.0
    a = _alpha(fab, per_pair_bytes, "alltoall")
    b = _beta(fab)
    return (nprocs - 1) * (a + per_pair_bytes * b)


def reduce_time(fab: Fabric, nbytes: int, nprocs: int) -> float:
    """Binomial-tree reduce."""
    if nprocs <= 1:
        return 0.0
    a = _alpha(fab, nbytes, "reduce")
    b = _beta(fab)
    return _log2ceil(nprocs) * (a + nbytes * b)


def barrier_time(fab: Fabric, nprocs: int) -> float:
    """Dissemination barrier: log p zero-byte rounds."""
    if nprocs <= 1:
        return 0.0
    return _log2ceil(nprocs) * _alpha(fab, 0, "barrier")


def halo_exchange_time(
    fab: Fabric, nbytes_per_neighbor: int, neighbors: int
) -> float:
    """Nearest-neighbour halo exchange, serialised sends per neighbour.

    Stencil codes (AMG, MiniFE, Laghos, Kripke) exchange faces with a
    small fixed set of neighbours; with OS-bypass fabrics the sends
    overlap well, so we charge one latency per neighbour plus streaming.
    """
    if neighbors < 0:
        raise ValueError("neighbors must be non-negative")
    if neighbors == 0:
        return 0.0
    a = _alpha(fab, nbytes_per_neighbor, "p2p")
    b = _beta(fab)
    return neighbors * a + neighbors * nbytes_per_neighbor * b


@dataclass(frozen=True)
class CollectiveModel:
    """Bound collective operations for one fabric, memoized.

    Convenience wrapper so app models can carry a single object::

        cm = CollectiveModel(fabric("efa-gen1.5"))
        t = cm.allreduce(8 * n, nprocs)

    Every operation is a pure function of (fabric, sizes), so results
    are memoized per instance: an app's level hierarchy re-asking for
    the same tiny allreduce pays for it once.  The memo never changes a
    value — only skips recomputing it.
    """

    fabric: Fabric
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def _cached(self, key: tuple, compute, *args) -> float:
        t = self._memo.get(key)
        if t is None:
            t = self._memo[key] = compute(self.fabric, *args)
        return t

    def allreduce(self, nbytes: int, nprocs: int) -> float:
        return self._cached(("ar", nbytes, nprocs), allreduce_time, nbytes, nprocs)

    def bcast(self, nbytes: int, nprocs: int) -> float:
        return self._cached(("bc", nbytes, nprocs), bcast_time, nbytes, nprocs)

    def allgather(self, total_bytes: int, nprocs: int) -> float:
        return self._cached(
            ("ag", total_bytes, nprocs), allgather_time, total_bytes, nprocs
        )

    def alltoall(self, per_pair_bytes: int, nprocs: int) -> float:
        return self._cached(
            ("aa", per_pair_bytes, nprocs), alltoall_time, per_pair_bytes, nprocs
        )

    def reduce(self, nbytes: int, nprocs: int) -> float:
        return self._cached(("rd", nbytes, nprocs), reduce_time, nbytes, nprocs)

    def barrier(self, nprocs: int) -> float:
        return self._cached(("ba", nprocs), barrier_time, nprocs)

    def halo(self, nbytes_per_neighbor: int, neighbors: int) -> float:
        return self._cached(
            ("ha", nbytes_per_neighbor, neighbors),
            halo_exchange_time,
            nbytes_per_neighbor,
            neighbors,
        )

    def p2p(self, nbytes: int) -> float:
        return self._cached(
            ("pp", nbytes), lambda fab, n: fab.p2p_time(n), nbytes
        )
