"""Content-addressed run cache: skip simulation for runs already done.

A full-size campaign re-executes the same ``(seed, environment, app,
scale, iteration)`` points every time a table or figure is re-rendered.
Since the engine is deterministic given those coordinates (plus the
engine options that shape the simulation), a run record can be cached
under a content hash of exactly that key and replayed on the next
request — re-renders and repeated experiments then skip simulation
entirely.

The cache is a plain directory of JSON files fanned out by hash prefix,
so large campaigns don't produce a single huge directory: run records
go one file per record, or one *batch envelope* per (environment, size)
cell (:meth:`RunCache.batched`), next to cell- and world-level
summaries.  Keys incorporate :data:`CACHE_VERSION`; bump it whenever the
record schema or the simulation semantics change so stale entries miss
instead of resurfacing.  Corrupt or unreadable entries are treated as
misses — the cache is an accelerator, never a source of truth.

A cold cached study encodes every record twice (once into its run
envelope, once into its cell entry), so the per-record path is kept to
the cost of building the JSON dict: :func:`encode_record` reads the
fields directly, :func:`_jsonable` passes exact JSON-native values
straight through, and miss probes open plain string paths.

Records round-trip through JSON, which canonicalizes container types:
a tuple in ``RunRecord.extra`` or ``phases`` (e.g. AMG's process
topology) comes back as a list, and non-JSON values come back as their
``str()``.  Every field the dataset CSV exports is preserved exactly
(floats round-trip bit-for-bit), so cached and fresh campaigns produce
identical artifacts — but code comparing whole records or relying on
``extra`` value *types* should not mix cached and fresh records.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import threading
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.sim.run_result import RunRecord, RunState
from repro.telemetry import count as telemetry_count

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
CACHE_VERSION = 3


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and other oddballs) into JSON-native types.

    Exact JSON-native types take the fast paths on ``type(value)``;
    subclasses, numpy scalars and everything else fall through to the
    ``isinstance`` chain below, so the result never depends on which
    path a value took.
    """
    kind = type(value)
    if kind is str or kind is float or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        return {str(k): _jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


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
    fields in declaration order, so the JSON bytes (and every cache
    entry) match the ``asdict`` encoding.  A dataclass nested in
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


class _CacheBatch:
    """One open batch envelope: a read overlay plus buffered writes.

    The envelope is a single JSON file holding ``{run_key: encoded
    record}`` for a whole cell — one read primes the overlay, every
    buffered :meth:`RunCache.put` lands in ``pending``, and closing the
    batch merges overlay + pending back into **one** atomic write (and
    one digest pass) instead of a file per run.
    """

    __slots__ = ("group_key", "level", "overlay", "pending")

    def __init__(self, group_key: str, level: str, overlay: dict[str, Any]):
        self.group_key = group_key
        self.level = level
        self.overlay = overlay
        self.pending: dict[str, Any] = {}

    def lookup(self, key: str) -> Any | None:
        data = self.pending.get(key)
        return data if data is not None else self.overlay.get(key)


class RunCache:
    """Directory-backed cache of simulated run records.

    Every worker of a sharded study may point at the same directory.
    Each entry is written to a temporary file named for its process and
    thread, then atomically renamed into place, so a reader never sees a
    torn entry and concurrent writers of one key leave exactly one of
    their payloads (the last rename wins).

    Run envelopes (:meth:`batched`) can lose updates, though: their key
    (:func:`batch_key`) ignores the app roster and the iteration count,
    so two writers of one cell with different app rosters (or iteration
    counts) each write back the envelope they read plus only their own
    entries, and the last writer drops the other's.  That costs re-simulating the dropped
    runs on a later probe, never wrong data — entries are keyed by full
    :func:`run_key`.  The fix is an open item (ROADMAP.md, item 2).
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: ``root`` as a string: probes join and open plain strings
        #: rather than building a ``Path`` per key
        self._root = os.fspath(self.root)
        self.hits = 0
        self.misses = 0
        #: entries that *existed* but could not be used (corrupt JSON,
        #: schema mismatch, malformed payload); each one degrades the
        #: cache to re-simulation, so each one leaves a warning trace
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
        return Path(self._file(key))

    def _file(self, key: str) -> str:
        return os.path.join(self._root, key[:2], key + ".json")

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
            self.misses += 1
            telemetry_count(f"cache.{level}.misses")
            return None
        except (OSError, ValueError) as exc:
            # The entry exists but cannot be read or parsed: a miss,
            # and a degradation worth a trace.
            self.misses += 1
            telemetry_count(f"cache.{level}.misses")
            self.note_invalid(key, f"unreadable or corrupt JSON: {exc}")
            return None
        self.hits += 1
        self.hit_bytes += len(text)
        telemetry_count(f"cache.{level}.hits")
        telemetry_count(f"cache.{level}.hit_bytes", len(text))
        return data

    def put_json(self, key: str, data: Any, *, level: str = "cell") -> None:
        """Store a JSON payload under ``key`` (atomic, last-writer-wins)."""
        self._write(key, data, level)

    def _write(self, key: str, data: Any, level: str) -> None:
        text = json.dumps(data, separators=(",", ":"))
        self._atomic_write(key, text.encode("utf-8"))
        self.put_bytes += len(text)
        telemetry_count(f"cache.{level}.puts")
        telemetry_count(f"cache.{level}.put_bytes", len(text))

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
        :meth:`get` inside the scope; every :meth:`put` is buffered; on
        exit (including via an exception) the merged entries are written
        back in **one** atomic file write.  Per-record ``hits``/
        ``misses`` keep counting at consumption time, so an engine
        running inside a batch reports stats probe-for-probe identical
        to a bare one — only the file I/O collapses, tracked separately
        by the ``batch_*`` counters.

        Reentrant per level: a nested ``batched`` reuses the open batch
        (the outer ``group_key`` wins) so helper layers can wrap
        defensively.  Entries are self-describing ``{run_key: payload}``
        maps and the write is last-writer-wins: concurrent writers of a
        cell with the *same* app roster and iteration count write
        identical envelopes, but a writer with a different roster (or
        iteration count) drops the entries the other added since it read
        the envelope.  Those
        runs re-simulate on a later probe; no entry is ever wrong (see
        the class docstring).
        """
        outer = self._batches.get(level)
        if outer is not None:
            yield outer
            return
        batch = _CacheBatch(group_key, level, self._read_envelope(group_key, level))
        self._batches[level] = batch
        try:
            yield batch
        finally:
            del self._batches[level]
            self._flush_envelope(batch)

    def _read_envelope(self, group_key: str, level: str) -> dict[str, Any]:
        try:
            with open(self._file(group_key), "r", encoding="utf-8") as fh:
                text = fh.read()
            data = json.loads(text)
        except FileNotFoundError:
            self.batch_misses += 1
            telemetry_count(f"cache.{level}.batch_misses")
            return {}
        except (OSError, ValueError) as exc:
            self.batch_misses += 1
            telemetry_count(f"cache.{level}.batch_misses")
            self.note_invalid(group_key, f"unreadable or corrupt JSON: {exc}")
            return {}
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, dict) or data.get("kind") != "batch":
            self.batch_misses += 1
            telemetry_count(f"cache.{level}.batch_misses")
            self.note_invalid(group_key, "batch envelope malformed")
            return {}
        self.batch_hits += 1
        self.hit_bytes += len(text)
        telemetry_count(f"cache.{level}.batch_hits")
        telemetry_count(f"cache.{level}.batch_hit_bytes", len(text))
        return entries

    def _flush_envelope(self, batch: _CacheBatch) -> None:
        if not batch.pending:
            return
        envelope = {
            "kind": "batch",
            "v": CACHE_VERSION,
            "entries": {**batch.overlay, **batch.pending},
        }
        text = json.dumps(envelope, separators=(",", ":"))
        self._atomic_write(batch.group_key, text.encode("utf-8"))
        self.put_bytes += len(text)
        self.batch_puts += 1
        telemetry_count(f"cache.{batch.level}.batch_puts")
        telemetry_count(f"cache.{batch.level}.batch_put_bytes", len(text))

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
        """Store many records in one envelope write (one digest pass)."""
        with self.batched(group_key, level=level):
            for key, record in entries.items():
                self.put(key, record)

    # -- per-record probes --------------------------------------------------

    def get(self, key: str) -> RunRecord | None:
        """The cached record for ``key``, or ``None`` on a miss."""
        batch = self._batches.get("run")
        if batch is not None:
            data = batch.lookup(key)
            if data is not None:
                # The envelope's bytes were counted once at batch entry;
                # per-record accounting here is hits/misses only.
                self.hits += 1
                telemetry_count("cache.run.hits")
                try:
                    return decode_record(data)
                except (ValueError, TypeError, KeyError) as exc:
                    self.hits -= 1
                    self.misses += 1
                    telemetry_count("cache.run.hits", -1)
                    telemetry_count("cache.run.misses")
                    self.note_invalid(key, f"record schema mismatch: {exc}")
                    return None
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

        Inside a :meth:`batched` scope the write is buffered into the
        open envelope instead of touching its own file.
        """
        batch = self._batches.get("run")
        if batch is not None:
            batch.pending[key] = encode_record(record)
            telemetry_count("cache.run.puts")
            return
        self._write(key, encode_record(record), level="run")

    def __len__(self) -> int:
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
