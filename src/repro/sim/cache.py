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
huge directory.  A study cell leaves one *columnar* entry
(:meth:`RunCache.put_columns`):
:meth:`ResultStore.to_bytes <repro.core.results.ResultStore.to_bytes>`
output — one JSON header line, then the store's columns as raw bytes —
so a cold cached study writes each record once, as column bytes, with no
per-record row or JSON.  A cell entry's key names its *batch* too
(``<batch>/<cell>``, see :func:`batch_key`), so it is filed at
``<batch[:2]>/<batch>/<cell>.json``.  Cells that differ only in app
roster or iteration count share that directory, and it is the run
level: a cell executing under :meth:`RunCache.batched` reuses every run
its sibling entries hold.  World summaries, and the single-run entries
of :meth:`ExecutionEngine.run <repro.sim.execution.ExecutionEngine.run>`,
stay JSON documents.  Corrupt or unreadable entries are treated as
misses — the cache is an accelerator, never a source of truth.

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
import hashlib
import json
import logging
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.sim.run_result import STATE_CODE, RunRecord, RunState
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
#: v4: cell entries are columnar
#: (:meth:`~repro.core.results.ResultStore.to_bytes`), not JSON records.
CACHE_VERSION = 4

_SKIPPED = STATE_CODE[RunState.SKIPPED]


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


def batch_key(
    *,
    seed: int,
    env_id: str,
    scale: int,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> str:
    """Content hash naming one cell's *batch*: the directory its cell
    entry is filed in.

    Deliberately coarser than :func:`shard_key`: no app list and no
    iteration count — every cell entry of one ``(seed, env, scale,
    engine options, scenario)`` tuple lands in the same directory,
    whichever apps and however many iterations produced it.  Inside that
    tuple a run depends only on its app and iteration (every draw is
    keyed on them), so a re-run with a different app roster or a longer
    iteration axis reuses the runs its siblings hold
    (:meth:`RunCache.batched`).
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
    fields in declaration order, so the JSON bytes (a single-run entry,
    ``study --json``) match the ``asdict`` encoding.  A dataclass nested in
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


class RunCache:
    """Directory-backed cache of simulated run records.

    Every worker of a sharded study may point at the same directory.
    Each entry is written to a temporary file named for its process and
    thread, then atomically renamed into place, so a reader never sees a
    torn entry and concurrent writers of one key leave exactly one of
    their payloads (the last rename wins).

    Writers of one cell with different app rosters or iteration counts
    write different files (one cell entry each, in their shared batch
    directory), so no entry is ever rewritten to add runs and nothing
    needs a lock.
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
        #: payload bytes read on hits (sibling entries included) /
        #: written on puts
        self.hit_bytes = 0
        self.put_bytes = 0
        #: the open :meth:`batched` scope's (batch, own entry file name),
        #: and its sibling runs once :meth:`sibling_runs` indexed them
        self._scope: tuple[str, str] | None = None
        self._runs: dict | None = None

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

    # -- the run level: a cell's sibling entries ----------------------------

    @contextlib.contextmanager
    def batched(self, cell_key: str):
        """Open the run level of the cell whose entry ``cell_key`` names.

        ``cell_key`` is ``<batch>/<cell>``
        (:func:`~repro.parallel.shard.shard_summary_key`).  Inside the
        scope, :meth:`sibling_runs` serves the runs of the *other* cell
        entries in the batch directory; the cell's own entry is skipped,
        because the plan executor already probed it.  Nothing is read on
        entry and nothing is written on exit: the cell's entry, written
        when the cell finishes (:meth:`put_columns`), is the run level of
        the cells after it.
        """
        batch, _, cell = cell_key.rpartition("/")
        outer = self._scope, self._runs
        self._scope, self._runs = (batch, cell + ".json"), None
        try:
            yield
        finally:
            self._scope, self._runs = outer

    def sibling_runs(self) -> "dict[tuple[str, int], tuple[ResultStore, int]] | None":
        """``(app, iteration) -> (store, row)`` over every non-skipped run
        of the open scope's sibling cell entries; ``None`` outside
        :meth:`batched`.

        The first call lists the batch directory once and decodes each
        sibling; a cold batch has no directory, so its index is empty
        and nothing more is read.  An unusable sibling is noted invalid
        (:meth:`note_invalid`) and serves nothing.  Loading a sibling is
        not a hit — hits count as runs are reused
        (:meth:`count_runs`) — but its bytes count as run-level bytes
        served.
        """
        if self._scope is not None and self._runs is None:
            self._runs = self._index_siblings(*self._scope)
        return self._runs

    def _index_siblings(self, batch: str, own: str) -> dict:
        from repro.core.results import ResultStore

        index: dict = {}
        try:
            names = sorted(os.listdir(os.path.join(self._root, batch[:2], batch)))
        except OSError:
            return index
        for name in names:
            if not name.endswith(".json") or name == own:
                continue
            loaded = self._load(
                f"{batch}/{name[:-5]}",
                lambda data: ResultStore.from_bytes(data, kind="cell", v=CACHE_VERSION)[0],
            )
            if loaded is None:
                continue
            store, nbytes = loaded
            self.hit_bytes += nbytes
            telemetry_count("cache.run.hit_bytes", nbytes)
            columns = store.frame_columns()
            apps, iterations = columns["app"], columns["iteration"]
            for i in np.flatnonzero(columns["state"] != _SKIPPED).tolist():
                index[str(apps[i]), int(iterations[i])] = (store, i)
        return index

    def count_runs(self, hits: int, misses: int) -> None:
        """Count run-level probes that :meth:`sibling_runs` answered."""
        self.hits += hits
        self.misses += misses
        if hits:
            telemetry_count("cache.run.hits", hits)
        if misses:
            telemetry_count("cache.run.misses", misses)

    # -- single-run entries (ExecutionEngine.run) ---------------------------

    def get(self, key: str) -> RunRecord | None:
        """The single-run entry for ``key``, or ``None`` on a miss."""
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
        """Store ``record`` as ``key``'s single-run entry (atomic,
        last-writer-wins)."""
        self._write(key, encode_record(record), level="run")

    def __len__(self) -> int:
        """Entries on disk: flat ones and cell entries in batch directories."""
        return sum(1 for pattern in ("*/*.json", "*/*/*.json") for _ in self.root.glob(pattern))

    def stats(self) -> dict[str, Any]:
        """Hit/miss/invalid counts, byte totals, and the reason histogram."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalid": self.invalid,
            "invalid_reasons": dict(self.invalid_reasons),
            "hit_bytes": self.hit_bytes,
            "put_bytes": self.put_bytes,
            "entries": len(self),
        }
