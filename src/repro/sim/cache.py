"""Content-addressed run cache: skip simulation for runs already done.

A full-size campaign re-executes the same ``(seed, environment, app,
scale, iteration)`` points every time a table or figure is re-rendered.
Since the engine is deterministic given those coordinates (plus the
engine options that shape the simulation), a run record can be cached
under a content hash of exactly that key and replayed on the next
request — re-renders and repeated experiments then skip simulation
entirely.

The cache is a plain directory of entry files fanned out by hash prefix
(``<key[:2]>/<key>.json``), so large campaigns don't produce a single
huge directory.  A study cell leaves two *columnar* entries: its run
envelope (:meth:`RunCache.batched`, every run of one (environment,
size) cell) and its cell entry (:meth:`RunCache.put_columns`).  Both are
:meth:`ResultStore.to_bytes <repro.core.results.ResultStore.to_bytes>`
output — one JSON header line, then the store's columns as raw bytes —
so a cold cached study writes each record once per level as column
bytes, with no per-record row or JSON.  World summaries, and run records
written outside an envelope, stay JSON documents.  Corrupt or unreadable
entries are treated as misses — the cache is an accelerator, never a
source of truth.

Version skew has one rule.  Keys incorporate :data:`CACHE_VERSION`, so
after a bump the code never addresses an entry an older version wrote:
the run misses (no hit, nothing invalid), re-simulates, and leaves the
old files untouched, so a ``--resume`` against an old cache attaches
nothing.  An entry found under a current key whose
header names another version is counted invalid under the label
``version skew`` (the message names both versions) and re-simulated.

Payload values (``phases``, ``extra``, ``failure_kind``) are stored in
the canonical form :func:`~repro.sim.run_result.jsonable` gives them:
a tuple (e.g. AMG's process topology) comes back as a list, and non-JSON
values come back as their ``str()``.  Every field the dataset CSV
exports is preserved exactly (floats round-trip bit for bit), so cached
and fresh campaigns produce identical artifacts — but code comparing
whole records or relying on ``extra`` value *types* should not mix
cached and fresh records.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.sim.run_result import RunRecord, RunState
from repro.sim.run_result import jsonable as _jsonable
from repro.telemetry import count as telemetry_count

if TYPE_CHECKING:
    from repro.core.results import ResultStore

logger = logging.getLogger(__name__)

#: distinct invalid-entry reasons kept per cache before folding into
#: the ``"other"`` bucket — degradation stays diagnosable without the
#: histogram growing unboundedly on pathological inputs
INVALID_REASON_CAP = 8

#: Bump to invalidate every existing cache entry (schema/semantics change).
#: v2: keys grew a scenario digest (repro.scenarios) so what-if worlds
#: never collide with the baseline or each other.
#: v3: run- and cell-level keys embed the *per-cell overlay footprint*
#: digest (:meth:`repro.scenarios.Scenario.footprint`) instead of the
#: whole-scenario digest — a cell a scenario cannot touch keys exactly
#: like the baseline cell, which is what incremental plan execution
#: (:mod:`repro.plan.diff`) reuses.  World-level keys keep the full
#: scenario digest (a world aggregates every cell).
#: v4: cell entries and run envelopes are columnar
#: (:meth:`~repro.core.results.ResultStore.to_bytes`), not JSON records.
CACHE_VERSION = 4

#: bytes of one run key in a run envelope's key blob (``run_key`` is
#: this many bytes of BLAKE2b, as hex)
_KEY_BYTES = 16


def run_key(
    *,
    seed: int,
    env_id: str,
    app: str,
    scale: int,
    iteration: int,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> str:
    """Content hash naming one deterministic run.

    ``engine_options`` must include everything that changes the engine's
    output beyond the coordinates — e.g. ``azure_ucx_tuned`` and the
    per-run ``options`` dict — so a changed option is a cache miss, not
    a stale hit.  ``scenario`` is the active scenario's digest
    (:meth:`repro.scenarios.Scenario.digest`), or ``None`` for the
    baseline world — an *empty* scenario keys identically to none.
    """
    payload = json.dumps(
        {
            "v": CACHE_VERSION,
            "seed": seed,
            "env": env_id,
            "app": app,
            "scale": scale,
            "iteration": iteration,
            "engine": _jsonable(dict(engine_options or {})),
            "scenario": scenario,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def run_key_block(
    *,
    seed: int,
    env_id: str,
    app: str,
    scale: int,
    iterations,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> list[str]:
    """:func:`run_key` for a whole (env, app, size) group at once.

    Only the iteration number varies inside a group, so the canonical
    JSON payload is serialized **once** and the per-iteration digests
    splice each iteration into the payload template — the key for
    iteration ``i`` is byte-identical to ``run_key(..., iteration=i)``.
    The split points come from diffing two rendered payloads (iteration
    0 vs 1), so the template never mis-splits even if some option value
    happens to contain ``"iteration"``.
    """
    fixed = dict(
        seed=seed, env_id=env_id, app=app, scale=scale,
        engine_options=engine_options, scenario=scenario,
    )

    def _payload(iteration: int) -> bytes:
        return json.dumps(
            {
                "v": CACHE_VERSION,
                "seed": fixed["seed"],
                "env": fixed["env_id"],
                "app": fixed["app"],
                "scale": fixed["scale"],
                "iteration": iteration,
                "engine": _jsonable(dict(fixed["engine_options"] or {})),
                "scenario": fixed["scenario"],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    a, b = _payload(0), _payload(1)
    lo = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    hi = next(i for i, (x, y) in enumerate(zip(a[::-1], b[::-1])) if x != y)
    prefix, suffix = a[:lo], a[len(a) - hi :]
    blake2b = hashlib.blake2b
    return [
        blake2b(
            prefix + str(int(i)).encode("ascii") + suffix, digest_size=16
        ).hexdigest()
        for i in iterations
    ]


def batch_key(
    *,
    seed: int,
    env_id: str,
    scale: int,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> str:
    """Content hash naming one cell's run-level *batch envelope*.

    Deliberately coarser than :func:`run_key`: no app list, no iteration
    count, no per-run options — every run of a ``(seed, env, scale,
    scenario)`` cell lands in the same envelope regardless of which apps
    or how many iterations produced it, so a re-run with a different
    app roster or a longer iteration axis still finds its earlier runs
    in one read.  The envelope's *entries* are keyed by full
    :func:`run_key`, so coarse envelope addressing never conflates
    distinct runs.
    """
    payload = json.dumps(
        {
            "v": CACHE_VERSION,
            "kind": "run-batch",
            "seed": seed,
            "env": env_id,
            "scale": scale,
            "engine": _jsonable(dict(engine_options or {})),
            "scenario": scenario,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def shard_key(
    *,
    seed: int,
    env_id: str,
    scale: int,
    apps: tuple[str, ...],
    iterations: int,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> str:
    """Content hash naming one whole (environment, size) study cell.

    A cell bundles every ``(seed, env, app, scale, iteration)`` run of a
    shard plus its provisioning by-products (incidents, spend, cluster
    count), all deterministic in these coordinates — so a cell-level hit
    can skip cluster bring-up as well as simulation.  ``scenario`` is
    the active scenario digest, as in :func:`run_key`.
    """
    payload = json.dumps(
        {
            "v": CACHE_VERSION,
            "kind": "shard",
            "seed": seed,
            "env": env_id,
            "scale": scale,
            "apps": list(apps),
            "iterations": iterations,
            "engine": _jsonable(dict(engine_options or {})),
            "scenario": scenario,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def world_key(
    *,
    seed: int,
    env_ids: tuple[str, ...],
    apps: tuple[str, ...],
    sizes: tuple[int, ...] | None,
    iterations: int,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> str:
    """Content hash naming one whole replica-world of an ensemble.

    The third cache level (:mod:`repro.ensemble`): a world is every cell
    of one campaign at one ``(seed, scenario)`` coordinate, and its
    *folded summary* (per-cell aggregates) is tiny compared to its
    records — a hit lets a warm ensemble re-run skip shard execution,
    record decoding, and the columnar fold entirely.  ``seed`` is the
    replica's own seed (``base_seed + replica``), so replica worlds
    never collide; ``scenario`` is the active scenario digest, as in
    :func:`run_key`.
    """
    payload = json.dumps(
        {
            "v": CACHE_VERSION,
            "kind": "world",
            "seed": seed,
            "envs": list(env_ids),
            "apps": list(apps),
            "sizes": None if sizes is None else list(sizes),
            "iterations": iterations,
            "engine": _jsonable(dict(engine_options or {})),
            "scenario": scenario,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def encode_record(record: RunRecord) -> dict[str, Any]:
    """A JSON-safe dict for one run record, keys in field order.

    Built field by field rather than through ``dataclasses.asdict``,
    which deep-copies every value only for :func:`_jsonable` to walk the
    copy again: ``state`` is its enum value and every other field goes
    through :func:`_jsonable` once.  The keys are :class:`RunRecord`'s
    fields in declaration order, so the JSON bytes (a run entry written
    outside an envelope, ``study --json``) match the ``asdict``
    encoding.  A dataclass nested in
    ``phases`` or ``extra`` is encoded as its ``str()`` like any other
    non-JSON value; no app puts one there.
    """
    return {
        "env_id": _jsonable(record.env_id),
        "app": _jsonable(record.app),
        "scale": _jsonable(record.scale),
        "nodes": _jsonable(record.nodes),
        "iteration": _jsonable(record.iteration),
        "state": record.state.value,
        "fom": _jsonable(record.fom),
        "fom_units": _jsonable(record.fom_units),
        "wall_seconds": _jsonable(record.wall_seconds),
        "hookup_seconds": _jsonable(record.hookup_seconds),
        "cost_usd": _jsonable(record.cost_usd),
        "phases": _jsonable(record.phases),
        "failure_kind": _jsonable(record.failure_kind),
        "extra": _jsonable(record.extra),
    }


def decode_record(data: dict[str, Any]) -> RunRecord:
    """Rebuild a :class:`RunRecord` from :func:`encode_record` output."""
    fields = dict(data)
    fields["state"] = RunState(fields["state"])
    return RunRecord(**fields)


def _decode_envelope(data: bytes) -> tuple["ResultStore", list[str]]:
    """(records, run keys) of a run envelope; ``ValueError`` if malformed."""
    # Deferred: repro.core imports this module.
    from repro.core.results import ResultStore

    store, _, blob = ResultStore.from_bytes(data, kind="batch", v=CACHE_VERSION)
    if len(blob) != _KEY_BYTES * len(store):
        raise ValueError(
            f"malformed batch entry: {len(blob)} key bytes for {len(store)} records"
        )
    hexed = blob.hex()
    step = 2 * _KEY_BYTES
    return store, [hexed[i : i + step] for i in range(0, len(hexed), step)]


class _CacheBatch:
    """One open run envelope: the records read at entry plus buffered
    writes.

    The envelope is one columnar entry holding a whole cell's runs, and
    a blob of their run keys: one read primes the overlay, every
    buffered :meth:`RunCache.put` or :meth:`RunCache.put_block` appends
    to ``pending``, and closing the batch writes the union back in
    **one** atomic write.
    """

    __slots__ = (
        "group_key", "level", "overlay", "index", "dirs",
        "pending", "pending_keys", "pending_index",
    )

    def __init__(
        self,
        group_key: str,
        level: str,
        overlay: "ResultStore | None",
        keys: list[str],
        dirs: frozenset[str] | None,
    ):
        from repro.core.results import ResultStore

        self.group_key = group_key
        self.level = level
        #: the envelope read at entry (``None`` when there was none)
        self.overlay = overlay
        #: run key -> overlay row (a repeated key resolves to its last row)
        self.index = {key: i for i, key in enumerate(keys)}
        #: the fan-out directories that existed at entry (``None`` when
        #: the root could not be listed): a key whose directory is not
        #: here had no file of its own then
        self.dirs = dirs
        self.pending = ResultStore()
        self.pending_keys: list[str] = []
        self.pending_index: dict[str, int] = {}

    def lookup(self, key: str) -> RunRecord | None:
        i = self.pending_index.get(key)
        if i is not None:
            return self.pending.row(i)
        i = self.index.get(key)
        return None if i is None else self.overlay.row(i)

    def add_keys(self, keys: list[str]) -> None:
        start = len(self.pending_keys)
        self.pending_index.update(zip(keys, range(start, start + len(keys))))
        self.pending_keys.extend(keys)


class RunCache:
    """Directory-backed cache of simulated run records.

    Every worker of a sharded study may point at the same directory.
    Each entry is written to a temporary file named for its process and
    thread, then atomically renamed into place, so a reader never sees a
    torn entry and concurrent writers of one key leave exactly one of
    their payloads (the last rename wins).

    Run envelopes (:meth:`batched`) lose no update: their key
    (:func:`batch_key`) ignores the app roster and the iteration count,
    so writers of one cell with different rosters share one envelope,
    and each writes back the union of what is on disk and what it
    added, under an exclusive lock (see :meth:`batched`).
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: ``root`` as a string: probes join and open plain strings
        #: rather than building a ``Path`` per key
        self._root = os.fspath(self.root)
        self.hits = 0
        self.misses = 0
        #: entries that *existed* but could not be used (corrupt bytes,
        #: version skew, schema mismatch, malformed payload); each one
        #: degrades the cache to re-simulation, so each one leaves a
        #: warning trace
        self.invalid = 0
        #: why entries were invalid: reason label → count, capped at
        #: :data:`INVALID_REASON_CAP` distinct labels (overflow folds
        #: into ``"other"``) so one corrupt directory cannot balloon it
        self.invalid_reasons: dict[str, int] = {}
        #: payload bytes read on hits / written on puts
        self.hit_bytes = 0
        self.put_bytes = 0
        #: envelope-granularity I/O counters (see :meth:`batched`);
        #: deliberately separate from the per-record hits/misses above,
        #: which keep counting at consumption time so batched and bare
        #: engines report probe-for-probe identical stats
        self.batch_hits = 0
        self.batch_misses = 0
        self.batch_puts = 0
        #: open batch per level (``"run"``/``"cell"``/``"world"``)
        self._batches: dict[str, _CacheBatch] = {}

    def note_invalid(self, key: str, reason: str) -> None:
        """Count one unusable entry and leave a one-line warning trace.

        The cache is an accelerator, never a source of truth — malformed
        entries always fall back to re-simulation — but silent
        degradation hides real problems (truncated writes, version
        skew), so every fallback is counted, binned by reason, and
        logged.  The histogram bins on the reason *label* (the text
        before the first ``:``), which is stable across entries while
        the exception detail varies.
        """
        self.invalid += 1
        label = reason.split(":", 1)[0].strip() or "other"
        if label not in self.invalid_reasons and len(self.invalid_reasons) >= INVALID_REASON_CAP:
            label = "other"
        self.invalid_reasons[label] = self.invalid_reasons.get(label, 0) + 1
        telemetry_count("cache.invalid")
        logger.warning(
            "cache entry %s under %s is invalid (%s); re-simulating",
            key, self.root, reason,
        )

    def path(self, key: str) -> Path:
        """The file of ``key``'s entry, JSON or columnar alike."""
        return Path(self._file(key))

    def _file(self, key: str) -> str:
        return os.path.join(self._root, key[:2], key + ".json")

    def _miss(self, level: str) -> None:
        self.misses += 1
        telemetry_count(f"cache.{level}.misses")

    def _hit(self, level: str, nbytes: int) -> None:
        self.hits += 1
        self.hit_bytes += nbytes
        telemetry_count(f"cache.{level}.hits")
        telemetry_count(f"cache.{level}.hit_bytes", nbytes)

    def get_json(self, key: str, *, level: str = "cell") -> Any | None:
        """The raw JSON payload for ``key``, or ``None`` on a miss.

        ``level`` labels the telemetry counters only (``"run"``,
        ``"cell"``, or ``"world"`` — whichever granularity the caller
        probes at); it never affects lookup or storage.
        """
        return self._read(key, level)

    def _read(self, key: str, level: str) -> Any | None:
        try:
            with open(self._file(key), "r", encoding="utf-8") as fh:
                text = fh.read()
            data = json.loads(text)
        except FileNotFoundError:
            return self._miss(level)
        except (OSError, ValueError) as exc:
            # The entry exists but cannot be read or parsed: a miss,
            # and a degradation worth a trace.
            self.note_invalid(key, f"unreadable or corrupt JSON: {exc}")
            return self._miss(level)
        self._hit(level, len(text))
        return data

    def put_json(self, key: str, data: Any, *, level: str = "cell") -> None:
        """Store a JSON payload under ``key`` (atomic, last-writer-wins)."""
        self._write(key, data, level)

    def _write(self, key: str, data: Any, level: str) -> None:
        self._store(key, json.dumps(data, separators=(",", ":")).encode("utf-8"), level)

    def get_columns(self, key: str, *, kind: str) -> "tuple[ResultStore, dict] | None":
        """``(store, header)`` of ``key``'s columnar entry, or ``None``.

        The entry must be ``kind`` at :data:`CACHE_VERSION`; anything
        else that exists there — unreadable bytes, another version, a
        malformed layout — is a miss that :meth:`note_invalid` records.
        Counted at cell level, like a cell probe of :meth:`get_json`.
        """
        from repro.core.results import ResultStore

        loaded = self._load(
            key, lambda data: ResultStore.from_bytes(data, kind=kind, v=CACHE_VERSION)
        )
        if loaded is None:
            return self._miss("cell")
        (store, header, _), nbytes = loaded
        self._hit("cell", nbytes)
        return store, header

    def _load(self, key: str, decode):
        """``(decode(data), len(data))`` for ``key``'s columnar entry, or
        ``None`` when there is none or it is unusable (then noted)."""
        try:
            with open(self._file(key), "rb") as fh:
                data = fh.read()
            return decode(data), len(data)
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.note_invalid(key, f"unreadable entry: {exc}")
        except ValueError as exc:
            self.note_invalid(key, str(exc))
        return None

    def put_columns(self, key: str, store: "ResultStore", *, kind: str, **fields) -> None:
        """Store ``store`` as a columnar ``kind`` entry under ``key``,
        with ``fields`` in its header (atomic, last-writer-wins; counted
        at cell level)."""
        self._store(key, store.to_bytes(kind=kind, v=CACHE_VERSION, **fields), "cell")

    def _store(self, key: str, payload: bytes, level: str) -> None:
        self._atomic_write(key, payload)
        self.put_bytes += len(payload)
        telemetry_count(f"cache.{level}.puts")
        telemetry_count(f"cache.{level}.put_bytes", len(payload))

    def poison(self, key: str) -> None:
        """Overwrite ``key``'s entry with undecodable bytes.

        The chaos harness's cache-corruption fault
        (:func:`repro.chaos.corrupt_after_store`): the next probe must
        degrade through :meth:`note_invalid` and re-simulate, never
        crash or silently trust the entry.  Testing hook only — nothing
        in the production path calls this.
        """
        self._atomic_write(key, b"\xff\xfechaos\x00 corrupted entry")

    def _atomic_write(self, key: str, payload: bytes) -> None:
        """Write ``key``'s entry through a temp file renamed into place.

        The temp name carries the process *and* thread id, so no two
        writers ever share one: a thread can neither rename another's
        half-written bytes into place nor lose its own temp file before
        its ``os.replace``.  The last rename wins.
        """
        path = self._file(key)
        directory, name = os.path.split(path)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(
            directory, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)

    # -- batched I/O (one envelope per cell) --------------------------------

    @contextlib.contextmanager
    def batched(self, group_key: str, *, level: str = "run"):
        """Group this scope's reads and writes into one *batch envelope*.

        On entry the envelope stored under ``group_key`` (if any) is
        read **once** and becomes a lookup overlay for every
        :meth:`get` inside the scope (a key it lacks falls through to
        the key's own file, if its fan-out directory existed at entry,
        so a cold probe costs no file system call); every :meth:`put` and
        :meth:`put_block` is buffered; on exit (including via an
        exception) the buffered records are written back in **one**
        atomic file write.  Per-record ``hits``/``misses`` keep counting
        at consumption time, so an engine running inside a batch reports
        stats probe-for-probe identical to a bare one — only the file
        I/O collapses, tracked separately by the ``batch_*`` counters.

        Reentrant per level: a nested ``batched`` reuses the open batch
        (the outer ``group_key`` wins) so helper layers can wrap
        defensively.  The write loses no update: under an exclusive
        ``flock`` on a hidden per-envelope lock file, it re-reads the
        envelope and writes the union of what is on disk and what this
        scope buffered, the buffered record winning for a key both
        hold.  Concurrent writers of one cell with different app rosters
        or iteration counts therefore keep each other's runs.
        """
        outer = self._batches.get(level)
        if outer is not None:
            yield outer
            return
        try:
            dirs = frozenset(os.listdir(self._root))
        except OSError:
            dirs = None
        batch = _CacheBatch(group_key, level, *self._read_envelope(group_key, level), dirs)
        self._batches[level] = batch
        try:
            yield batch
        finally:
            del self._batches[level]
            self._flush_envelope(batch)

    def _read_envelope(
        self, group_key: str, level: str
    ) -> "tuple[ResultStore | None, list[str]]":
        loaded = self._load(group_key, _decode_envelope)
        if loaded is None:
            self.batch_misses += 1
            telemetry_count(f"cache.{level}.batch_misses")
            return None, []
        (store, keys), nbytes = loaded
        self.batch_hits += 1
        self.hit_bytes += nbytes
        telemetry_count(f"cache.{level}.batch_hits")
        telemetry_count(f"cache.{level}.batch_hit_bytes", nbytes)
        return store, keys

    def _flush_envelope(self, batch: _CacheBatch) -> None:
        from repro.core.results import ResultStore

        if not batch.pending_keys:
            return
        path = self._file(batch.group_key)
        directory, name = os.path.split(path)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f".{name}.lock"), "ab") as lock:
            # Held until the file closes: a second writer re-reads only
            # after this one's union is in place.
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
            try:
                with open(path, "rb") as fh:
                    disk, disk_keys = _decode_envelope(fh.read())
            except (OSError, ValueError):
                # Nothing usable on disk (the entry probe counted any
                # invalid envelope): this scope's records are the union.
                disk, disk_keys = None, []
            kept = [i for i, key in enumerate(disk_keys) if key not in batch.pending_index]
            if len(kept) < len(disk_keys):
                # The buffered record wins for a key both sides hold.
                disk = ResultStore(disk.row(i) for i in kept)
            merged = ResultStore.merge([disk, batch.pending]) if kept else batch.pending
            keys = [disk_keys[i] for i in kept] + batch.pending_keys
            data = merged.to_bytes(
                kind="batch",
                v=CACHE_VERSION,
                blob=bytes.fromhex("".join(keys)),
            )
            self._atomic_write(batch.group_key, data)
        self.put_bytes += len(data)
        self.batch_puts += 1
        telemetry_count(f"cache.{batch.level}.batch_puts")
        telemetry_count(f"cache.{batch.level}.batch_put_bytes", len(data))

    def get_many(
        self, keys: Iterable[str], *, group_key: str | None = None, level: str = "run"
    ) -> list[RunRecord | None]:
        """Probe many keys with (at most) one envelope read.

        With ``group_key`` the probe runs inside :meth:`batched`; keys
        absent from the envelope still fall through to their individual
        files, so batched and unbatched caches interoperate.
        """
        if group_key is None:
            return [self.get(key) for key in keys]
        with self.batched(group_key, level=level):
            return [self.get(key) for key in keys]

    def put_many(
        self, entries: Mapping[str, RunRecord], *, group_key: str, level: str = "run"
    ) -> None:
        """Store many records in one envelope write."""
        with self.batched(group_key, level=level):
            for key, record in entries.items():
                self.put(key, record)

    # -- per-record probes --------------------------------------------------

    def get(self, key: str) -> RunRecord | None:
        """The cached record for ``key``, or ``None`` on a miss."""
        batch = self._batches.get("run")
        if batch is not None:
            record = batch.lookup(key)
            if record is not None:
                # The envelope's bytes were counted once at batch entry;
                # per-record accounting here is hits/misses only.
                self.hits += 1
                telemetry_count("cache.run.hits")
                return record
            if batch.dirs is not None and key[:2] not in batch.dirs:
                return self._miss("run")
            # fall through: a key the envelope doesn't know may still
            # exist as an individual file (unbatched writer)
        # _read, not get_json: tests stub the public JSON probes
        # (cell/world granularity) without touching the run-record path.
        data = self._read(key, level="run")
        if data is None:
            return None
        try:
            return decode_record(data)
        except (ValueError, TypeError, KeyError) as exc:
            # Schema-mismatched entry: count the earlier hit back as a miss.
            self.hits -= 1
            self.misses += 1
            telemetry_count("cache.run.hits", -1)
            telemetry_count("cache.run.misses")
            self.note_invalid(key, f"record schema mismatch: {exc}")
            return None

    def put(self, key: str, record: RunRecord) -> None:
        """Store ``record`` under ``key`` (atomic, last-writer-wins).

        Inside a :meth:`batched` scope the record is appended to the
        open envelope instead of touching its own file.
        """
        batch = self._batches.get("run")
        if batch is not None:
            batch.pending.add(record)
            batch.add_keys([key])
            telemetry_count("cache.run.puts")
            return
        self._write(key, encode_record(record), level="run")

    def put_block(self, keys: list[str], **block) -> None:
        """Store one simulated block: ``block`` holds
        :meth:`~repro.core.results.ResultStore.append_block`'s arguments
        and ``keys[i]`` names its record ``i``.

        Inside a :meth:`batched` scope the block is appended to the open
        envelope as columns; outside one, each record goes to its own
        file as :meth:`put` writes it.
        """
        batch = self._batches.get("run")
        if batch is None:
            from repro.core.results import ResultStore

            rows = ResultStore()
            rows.append_block(**block)
            for key, record in zip(keys, rows.records):
                self.put(key, record)
            return
        batch.pending.append_block(**block)
        batch.add_keys(keys)
        telemetry_count("cache.run.puts", len(keys))

    def __len__(self) -> int:
        """Entries on disk: JSON and columnar ones share one file rule."""
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> dict[str, Any]:
        """Hit/miss/invalid counts, byte totals, and the reason histogram."""
        batch_probes = self.batch_hits + self.batch_misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalid": self.invalid,
            "invalid_reasons": dict(self.invalid_reasons),
            "hit_bytes": self.hit_bytes,
            "put_bytes": self.put_bytes,
            "batch_hits": self.batch_hits,
            "batch_misses": self.batch_misses,
            "batch_puts": self.batch_puts,
            "batch_hit_rate": (
                self.batch_hits / batch_probes if batch_probes else 0.0
            ),
            "entries": len(self),
        }
