"""Resilient process-pool execution of study shards.

Shards are pure functions of their inputs, so recovery is cheap to make
*exact*: re-executing a shard — after a transient fault, a killed
worker, or a missed deadline — produces the same bytes the first
attempt would have.  The pool exploits that with per-item futures
carrying a :class:`RetryPolicy`:

* **transient vs fatal** — exceptions in :data:`TRANSIENT_EXCEPTIONS`
  (or any other :class:`~repro.errors.TransientShardError`) are retried
  with exponential backoff and *deterministic keyed jitter*; anything
  else is fatal and surfaces immediately as a typed
  :class:`~repro.errors.ShardExecutionError` naming the shard's world,
  cell, and attempt count — raw worker tracebacks never escape.
* **broken pool** — a killed worker breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`; the pool is rebuilt
  and every not-yet-delivered flight is requeued (completed futures
  keep their results).
* **deadlines** — with ``policy.timeout`` set, a straggler past its
  per-shard deadline has its workers killed and the flight
  re-dispatched.
* **degradation ladder** — workers→serial: exhausted pool retries get
  one final inline attempt in the parent, and a pool that breaks more
  than ``policy.max_rebuilds`` times finishes the remainder serially.

Determinism still comes from the shards, not the pool — any worker
count, any fault pattern that is eventually survived, produces
identical results.  Retry/requeue accounting accumulates into a
:class:`FaultStats` the caller may pass in; ``pool.retry`` /
``pool.requeue`` spans and ``fault.*`` counters record every recovery
event.

If the host cannot spawn worker processes at all (restricted sandboxes,
missing semaphores), :func:`pmap` degrades to the serial path rather
than failing the campaign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Sequence, TypeVar

from repro.errors import ShardExecutionError, TransientShardError
from repro.telemetry import count, span

T = TypeVar("T")
R = TypeVar("R")

#: exception classes worth re-dispatching: chaos-injected transients,
#: plus the classes a dying worker's pipe machinery can surface
TRANSIENT_EXCEPTIONS = (
    TransientShardError,
    ConnectionError,
    EOFError,
    InterruptedError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the pool fights for each shard before giving up."""

    #: total dispatch attempts per shard *in the pool* (the final
    #: inline-serial rung is on top of these)
    max_attempts: int = 3
    #: first-retry backoff, seconds; doubles per attempt
    backoff_base: float = 0.05
    #: backoff ceiling, seconds
    backoff_cap: float = 2.0
    #: per-shard deadline, seconds (``None`` = no deadline); measured
    #: from when the drain reaches the shard, so it bounds *stragglers*,
    #: not queue wait
    timeout: float | None = None
    #: pool rebuilds tolerated before degrading the remainder to serial
    max_rebuilds: int = 3

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_rebuilds < 0:
            raise ValueError("max_rebuilds must be >= 0")

    def backoff_seconds(self, key: object, attempt: int) -> float:
        """Backoff before retry ``attempt + 1`` — exponential, with
        jitter drawn deterministically from ``(key, attempt)`` so two
        runs of the same failing campaign sleep identically."""
        if self.backoff_base <= 0:
            return 0.0
        digest = hashlib.blake2b(
            f"{key}\x1f{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        frac = int.from_bytes(digest, "little") / 2.0**64
        return min(
            self.backoff_cap,
            self.backoff_base * (2.0 ** (attempt - 1)) * (0.5 + frac),
        )


@dataclass
class FaultStats:
    """Every recovery event the execution path survived.

    Accumulates across pools and executors via :meth:`add`; flows onto
    study/ensemble/campaign reports so a run that limped through faults
    says so (the merged *results* are byte-identical either way).
    """

    #: transient failures re-dispatched with backoff
    retries: int = 0
    #: flights resubmitted because their pool died under them
    requeues: int = 0
    #: pool teardown/rebuild cycles
    rebuilds: int = 0
    #: per-shard deadlines that expired
    timeouts: int = 0
    #: drops down the workers→serial ladder (degrade events and final
    #: inline rungs)
    serial_hops: int = 0
    #: faults attributed to the chaos harness (:mod:`repro.chaos`)
    injected: int = 0
    #: cells a ``--resume`` run attached from the cell cache instead of
    #: executing (whichever earlier run banked them)
    resumed: int = 0

    def add(self, other: "FaultStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def activity(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))


def _call_tagged(fn: Callable[[T], R], item: T, ordinal: int) -> R:
    """Call ``fn`` and tag shard-shaped results with worker identity.

    Runs in whichever process executes the item (a pool worker on the
    parallel path, this process on the serial ones) and stamps the
    executing pid, the pool's dispatch ordinal, and the measured wall
    seconds onto any result that carries those attributes.  Duck-typed
    because the pool also maps plain values in tests — non-shard
    results pass through untouched.
    """
    t0 = time.perf_counter()
    result = fn(item)
    if hasattr(result, "worker_pid") and hasattr(result, "dispatch_ordinal"):
        result.worker_pid = os.getpid()
        result.dispatch_ordinal = ordinal
        # `is None`, not falsiness: 0.0 is a legitimate measurement a
        # traced execution may already have stamped.
        if result.worker_seconds is None:
            result.worker_seconds = time.perf_counter() - t0
    return result


def _with_attempt(item: T, attempt: int) -> T:
    """Stamp the 0-based retry attempt onto shard-shaped items.

    Duck-typed like :func:`_call_tagged`: plain mapped values pass
    through.  The chaos harness gates injection on this field, which is
    what makes every retry ladder converge.
    """
    if (
        dataclasses.is_dataclass(item)
        and hasattr(item, "attempt")
        and getattr(item, "attempt") != attempt
    ):
        return dataclasses.replace(item, attempt=attempt)
    return item


def _stamp_attempts(result: R, attempts: int) -> R:
    if hasattr(result, "attempts"):
        result.attempts = attempts
    return result


def _note_injected(exc: BaseException, stats: FaultStats) -> None:
    if getattr(exc, "injected", False):
        stats.injected += 1
        count("fault.injected")


def _run_retrying(
    fn: Callable[[T], R],
    item: T,
    ordinal: int,
    policy: RetryPolicy,
    stats: FaultStats,
    *,
    start_attempt: int = 1,
) -> R:
    """The serial rung: execute inline with the retry budget."""
    attempt = start_attempt
    while True:
        try:
            result = _call_tagged(fn, _with_attempt(item, attempt - 1), ordinal)
            return _stamp_attempts(result, attempt)
        except TRANSIENT_EXCEPTIONS as exc:
            _note_injected(exc, stats)
            if attempt >= policy.max_attempts:
                raise ShardExecutionError.wrap(item, ordinal, attempt, exc) from exc
            stats.retries += 1
            count("fault.retries")
            delay = policy.backoff_seconds(ordinal, attempt)
            with span("pool.retry", ordinal=ordinal, attempt=attempt, where="serial"):
                if delay:
                    time.sleep(delay)
            attempt += 1
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            raise ShardExecutionError.wrap(item, ordinal, attempt, exc) from exc


def _serial_chunks(
    fn: Callable[[T], R],
    chunks: list,
    policy: RetryPolicy,
    stats: FaultStats,
) -> Iterator[list[R]]:
    """Every chunk inline, in this process, with the retry budget."""
    ordinal = 0
    for chunk in chunks:
        yield [
            _run_retrying(fn, item, ordinal + offset, policy, stats)
            for offset, item in enumerate(chunk)
        ]
        ordinal += len(chunk)


def _pool_context():
    """The start method pool workers use: ``fork`` wherever the platform
    offers it, else the platform default (``None``).

    A forked worker inherits the parent's imported modules; a
    ``forkserver`` or ``spawn`` worker (Linux's default from Python 3.14
    on) would import ``repro.__main__``'s whole closure again, which
    costs about as much as a small command.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


@dataclass(eq=False)
class _Flight:
    """One item's journey through the pool: identity-based, mutable."""

    item: object
    ordinal: int
    #: dispatch count, 1-based; the item is stamped with ``attempt - 1``
    attempt: int = 1
    future: object | None = None


class _ResilientMap:
    """The chunk-streaming pool engine behind :func:`pmap_chunked`.

    One long-lived executor serves the whole sequence, at most two
    chunks in flight (peak memory O(chunk), workers never idle between
    chunks), results delivered strictly in submission order.  The
    ``live`` registry tracks every undelivered flight *across* chunks so
    a pool rebuild can requeue all of them — not just the chunk being
    drained — instead of letting the other in-flight chunk's stale
    futures break the fresh pool's healthy work.
    """

    def __init__(
        self,
        fn: Callable,
        chunks: list,
        chunk_size: int,
        workers: int,
        total: int,
        policy: RetryPolicy,
        stats: FaultStats,
    ):
        self.fn = fn
        self.chunks = chunks
        self.chunk_size = chunk_size
        self.workers = workers
        self.total = total
        self.policy = policy
        self.stats = stats
        self.pool: ProcessPoolExecutor | None = None
        self.live: list[_Flight] = []
        self.rebuilds = 0
        self.degraded = False

    # -- pool lifecycle -------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        from repro.chaos import mark_worker_process

        return ProcessPoolExecutor(
            max_workers=min(self.workers, self.total),
            mp_context=_pool_context(),
            initializer=mark_worker_process,
        )

    def _teardown_pool(self) -> None:
        """Kill the current pool's workers."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        for p in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                p.terminate()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _degrade(self) -> None:
        """Drop the remainder of the map down the workers→serial rung."""
        if self.degraded:
            return
        self.degraded = True
        self.stats.serial_hops += 1
        count("fault.serial_hops")
        self._teardown_pool()
        for flight in self.live:
            if not self._delivered_future(flight):
                flight.future = None

    @staticmethod
    def _delivered_future(flight: _Flight) -> bool:
        """True when the flight's future holds a retrievable result."""
        fut = flight.future
        return (
            fut is not None
            and fut.done()
            and not fut.cancelled()
            and fut.exception() is None
        )

    def _requeue(self, reason: str) -> None:
        """Rebuild the pool and resubmit every undelivered flight."""
        with span("pool.requeue", reason=reason, live=len(self.live)):
            self._teardown_pool()
            self.rebuilds += 1
            self.stats.rebuilds += 1
            count("fault.rebuilds")
            if self.rebuilds > self.policy.max_rebuilds:
                self._degrade()
                return
            try:
                self.pool = self._new_pool()
            except (OSError, PermissionError):
                self._degrade()
                return
            requeued = 0
            for flight in self.live:
                if self._delivered_future(flight):
                    continue
                flight.attempt += 1
                flight.future = self._submit_flight(flight)
                requeued += 1
            self.stats.requeues += requeued
            count("fault.requeues", requeued)

    # -- dispatch -------------------------------------------------------

    def _submit_flight(self, flight: _Flight):
        if self.degraded or self.pool is None:
            return None
        item = _with_attempt(flight.item, flight.attempt - 1)
        try:
            return self.pool.submit(_call_tagged, self.fn, item, flight.ordinal)
        except (OSError, PermissionError):
            self._degrade()
            return None
        except (BrokenExecutor, RuntimeError):
            # Pool already broken (or shut down under us) at submit
            # time; the drain requeues flights whose future is None.
            return None

    def _submit_chunk(self, index: int) -> list[_Flight]:
        chunk = self.chunks[index]
        base = index * self.chunk_size
        flights = []
        with span("pool.dispatch", chunk=index, items=len(chunk)):
            for offset, item in enumerate(chunk):
                flight = _Flight(item=item, ordinal=base + offset)
                self.live.append(flight)
                flight.future = self._submit_flight(flight)
                flights.append(flight)
        return flights

    # -- drain ----------------------------------------------------------

    def _serial_flight(self, flight: _Flight):
        result = _run_retrying(
            self.fn,
            flight.item,
            flight.ordinal,
            self.policy,
            self.stats,
            start_attempt=max(flight.attempt, 1),
        )
        self.live.remove(flight)
        return result

    def _deliver(self, flight: _Flight, result):
        self.live.remove(flight)
        return _stamp_attempts(result, flight.attempt)

    def _final_serial_rung(self, flight: _Flight):
        """Pool retries exhausted: one last inline attempt, then wrap."""
        self.stats.serial_hops += 1
        count("fault.serial_hops")
        attempt = flight.attempt + 1
        try:
            result = _call_tagged(
                self.fn, _with_attempt(flight.item, attempt - 1), flight.ordinal
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            raise ShardExecutionError.wrap(
                flight.item, flight.ordinal, attempt, exc
            ) from exc
        flight.attempt = attempt
        return self._deliver(flight, result)

    def _drain_flight(self, flight: _Flight):
        while True:
            if flight.future is None:
                if not self.degraded:
                    # Lost at submit time (broken pool): rebuild once,
                    # which resubmits this flight along with the rest.
                    self._requeue("lost-future")
                    if flight.future is not None:
                        continue
                return self._serial_flight(flight)
            try:
                result = flight.future.result(timeout=self.policy.timeout)
            except FutureTimeoutError:
                self.stats.timeouts += 1
                count("fault.timeouts")
                self._requeue("deadline")
                continue
            except (BrokenExecutor, CancelledError):
                self._requeue("broken-pool")
                continue
            except TRANSIENT_EXCEPTIONS as exc:
                _note_injected(exc, self.stats)
                if flight.attempt >= self.policy.max_attempts:
                    return self._final_serial_rung(flight)
                self.stats.retries += 1
                count("fault.retries")
                delay = self.policy.backoff_seconds(flight.ordinal, flight.attempt)
                with span("pool.retry", ordinal=flight.ordinal, attempt=flight.attempt):
                    if delay:
                        time.sleep(delay)
                flight.attempt += 1
                flight.future = self._submit_flight(flight)
                continue
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                raise ShardExecutionError.wrap(
                    flight.item, flight.ordinal, flight.attempt, exc
                ) from exc
            return self._deliver(flight, result)

    def run(self) -> Iterator[list]:
        try:
            # Everything the sandboxed-host failure can touch (executor
            # construction allocates the semaphores, the first
            # submissions spawn the workers) happens before anything is
            # yielded, so the serial fallback never skips or re-yields a
            # chunk.  Submit-time failures after start-up degrade via
            # flight.future = None instead of raising.
            self.pool = self._new_pool()
            in_flight: list[list[_Flight]] = []
            index = 0
            while index < len(self.chunks) and len(in_flight) < 2:
                in_flight.append(self._submit_chunk(index))
                index += 1
        except (OSError, PermissionError):
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
                self.pool = None
            self.live.clear()
            yield from _serial_chunks(self.fn, self.chunks, self.policy, self.stats)
            return
        try:
            while in_flight:
                with span("pool.drain", in_flight=len(in_flight)):
                    done = [self._drain_flight(f) for f in in_flight.pop(0)]
                if index < len(self.chunks):
                    in_flight.append(self._submit_chunk(index))
                    index += 1
                yield done
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=True, cancel_futures=True)
                self.pool = None


def pmap(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    stats: FaultStats | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving order.

    ``workers <= 1`` (or a single item) runs inline in this process;
    otherwise a resilient :class:`~concurrent.futures.ProcessPoolExecutor`
    with at most ``len(items)`` workers is used.  ``fn`` and every item
    must be picklable for the multi-process path.  Failures that survive
    the ``policy`` retry ladder raise
    :class:`~repro.errors.ShardExecutionError`.
    """
    out: list[R] = []
    for chunk in pmap_chunked(
        fn, items, workers=workers, policy=policy, stats=stats
    ):
        out.extend(chunk)
    return out


def pmap_chunked(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int = 1,
    chunk_size: int | None = None,
    policy: RetryPolicy | None = None,
    stats: FaultStats | None = None,
) -> Iterator[list[R]]:
    """Map ``fn`` over ``items`` one chunk at a time, preserving order.

    The streaming form of :func:`pmap` for work lists too large to hold
    results for all at once (an ensemble's worlds × cells): one
    long-lived pool serves the whole sequence (start-up is paid once,
    not per chunk), but at most two chunks are in flight at a time — so
    peak memory is O(chunk), not O(items), while workers never sit idle
    between chunks.  ``policy`` governs retries, deadlines, and the
    degradation ladder; recovery events accumulate into ``stats`` when
    given.  As with :func:`pmap`, ``workers <= 1`` (or at most one
    item: an empty work list starts no pool) runs inline, and a host
    without process support degrades to the same serial path.
    """
    if chunk_size is None:
        chunk_size = max(1, workers) * 4
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if policy is None:
        policy = RetryPolicy()
    if stats is None:
        stats = FaultStats()
    chunks = [items[start:start + chunk_size] for start in range(0, len(items), chunk_size)]
    if workers <= 1 or len(items) <= 1:
        yield from _serial_chunks(fn, chunks, policy, stats)
        return
    engine = _ResilientMap(fn, chunks, chunk_size, workers, len(items), policy, stats)
    yield from engine.run()


def execute_shards(
    shards: Sequence[T],
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    stats: FaultStats | None = None,
) -> list:
    """Execute study shards across ``workers`` processes, in plan order."""
    from repro.parallel.shard import execute_shard

    return pmap(execute_shard, shards, workers=workers, policy=policy, stats=stats)
