"""Result store: the study's dataset collection, columnar-native.

The paper reports 25,541 datasets (runs) of which 3,546 appear in the
paper.  :class:`ResultStore` is the in-memory analogue: every
:class:`~repro.sim.run_result.RunRecord` lands here, with query helpers
the experiments use and a CSV exporter for archival (the study pushed
job output to an OCI registry via ORAS; :meth:`to_artifact` produces
the equivalent payload).

Storage is columnar: records append into growing typed NumPy column
buffers (amortized-doubling capacity), plus parallel Python lists for
the string/dict payloads aggregations never touch.  That inverts the
seed design — a list of dataclasses converted to columns at every fold
(the former hot-path cost PR 3 measured) — into columns as the truth:

* :meth:`to_frame` hands :class:`~repro.ensemble.frame.ResultFrame`
  *views* of the buffers — zero copies, so aggregation starts
  immediately;
* CSV/artifact export walks the columns directly;
* legacy callers that want row objects (queries, iteration,
  ``store.records``) get :class:`RunRecord` instances materialized
  lazily and cached — built once, only when actually asked for;
* the run cache stores a store as bytes through :meth:`to_bytes` and
  :meth:`from_bytes` — the same columns and payload segments, never
  per-record rows.
"""

from __future__ import annotations

import csv
import io
import json
import mmap
import os
import re
import tempfile
from bisect import bisect_right
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.sim.run_result import (
    APP_NAME_WIDTH as _APP_WIDTH,
    ENV_ID_WIDTH as _ENV_WIDTH,
    STATE_CODE,
    STATE_ORDER,
    RunRecord,
    RunState,
    jsonable,
)


#: environment knob for the out-of-core threshold (megabytes); an env
#: var rather than plumbing because worker processes inherit it for free
SPILL_ENV = "REPRO_SPILL_MB"

#: where spill files land; default honors TMPDIR via tempfile
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

#: sentinel distinguishing "no limit passed" (read the environment) from
#: an explicit ``None`` ("never spill")
_SPILL_FROM_ENV = object()


def spill_limit_bytes():
    """The process-wide spill threshold in bytes, or ``None`` (in-RAM)."""
    raw = os.environ.get(SPILL_ENV)
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    if megabytes < 0:
        return None
    return int(megabytes * (1 << 20))


def set_spill_limit_mb(megabytes) -> None:
    """Set (or with ``None`` clear) the spill threshold for this process
    *and every worker it forks or spawns* — the CLI ``--spill-mb`` knob."""
    if megabytes is None:
        os.environ.pop(SPILL_ENV, None)
    else:
        os.environ[SPILL_ENV] = repr(float(megabytes))


class _ColumnBuffer:
    """One growing typed column: amortized-doubling NumPy storage.

    In-RAM (``np.empty``) below the spill threshold; above it the
    backing moves to an *unlinked* temp-file mmap, and fully-written
    pages are periodically synced and dropped from the page cache
    (``MADV_DONTNEED``), so a buffer's resident set stays a bounded
    window regardless of how many records it holds.  ``view()`` is a
    zero-copy slice either way — readers fault spilled pages back in on
    demand, which is exactly the working-set-only memory profile the
    out-of-core store promises.
    """

    __slots__ = ("_arr", "_n", "_spill", "_mmap", "_synced")

    #: release dirty spilled pages once this many bytes accumulate
    _SYNC_CHUNK = 1 << 20

    def __init__(self, dtype, spill_bytes=_SPILL_FROM_ENV):
        self._arr = np.empty(0, dtype=dtype)
        self._n = 0
        self._spill = (
            spill_limit_bytes() if spill_bytes is _SPILL_FROM_ENV else spill_bytes
        )
        self._mmap = None
        self._synced = 0

    def __len__(self) -> int:
        return self._n

    def view(self) -> np.ndarray:
        """The live column as a zero-copy view of the buffer."""
        return self._arr[: self._n]

    def _spill_alloc(self, capacity: int):
        """An ndarray over a fresh unlinked temp-file mapping, or ``None``
        if the filesystem refuses (the fallback rung: stay in RAM)."""
        dtype = self._arr.dtype
        nbytes = max(capacity * dtype.itemsize, mmap.PAGESIZE)
        try:
            fd, path = tempfile.mkstemp(
                prefix="repro-spill-", dir=os.environ.get(SPILL_DIR_ENV)
            )
            try:
                os.unlink(path)
                os.ftruncate(fd, nbytes)
                mapped = mmap.mmap(fd, nbytes)
            finally:
                os.close(fd)
        except OSError:
            return None
        self._mmap = mapped
        self._synced = 0
        return np.frombuffer(mapped, dtype=dtype, count=capacity)

    def _release(self, mapped, start: int, end: int) -> None:
        """Sync then drop the page-aligned byte range from RAM."""
        start = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
        end = (end // mmap.PAGESIZE) * mmap.PAGESIZE
        if end <= start:
            return
        try:
            mapped.flush(start, end - start)
            mapped.madvise(mmap.MADV_DONTNEED, start, end - start)
        except (OSError, ValueError, AttributeError):
            pass

    def _maybe_sync(self) -> None:
        if self._mmap is None:
            return
        written = self._n * self._arr.dtype.itemsize
        if written - self._synced < self._SYNC_CHUNK:
            return
        self._release(self._mmap, self._synced, written)
        self._synced = (written // mmap.PAGESIZE) * mmap.PAGESIZE

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need > len(self._arr):
            capacity = max(need, 2 * len(self._arr), 16)
            old_arr, old_mmap = self._arr, self._mmap
            grown = None
            if (
                self._spill is not None
                and capacity * self._arr.dtype.itemsize >= self._spill
            ):
                grown = self._spill_alloc(capacity)
            if grown is None:
                self._mmap, self._synced = None, 0
                grown = np.empty(capacity, dtype=old_arr.dtype)
                grown[: self._n] = old_arr[: self._n]
                self._arr = grown
                return
            # Spilled growth: copy in bounded windows, dropping each
            # window's pages (source and destination) as it completes,
            # so the copy itself never faults the whole column resident.
            itemsize = old_arr.dtype.itemsize
            step = max(self._SYNC_CHUNK // itemsize, 1)
            for start in range(0, self._n, step):
                stop = min(self._n, start + step)
                grown[start:stop] = old_arr[start:stop]
                self._release(self._mmap, start * itemsize, stop * itemsize)
                if old_mmap is not None:
                    self._release(old_mmap, start * itemsize, stop * itemsize)
            # The old mapping closes when its last array view is
            # collected — never explicitly, since callers may still hold
            # (now stale-capacity) views from before the growth.
            self._arr = grown

    def append(self, value) -> None:
        self._reserve(1)
        self._arr[self._n] = value
        self._n += 1
        self._maybe_sync()

    def extend(self, values) -> None:
        """Append a list (or ndarray) of values in one vectorized copy."""
        if len(values) == 0:
            return
        chunk = np.asarray(values, dtype=self._arr.dtype)
        self._reserve(len(chunk))
        self._arr[self._n : self._n + len(chunk)] = chunk
        self._n += len(chunk)
        self._maybe_sync()

    def fill(self, n: int, value) -> None:
        """Append ``n`` copies of one value (a broadcast store, no chunk
        allocation — block appends use this for the group-constant
        columns)."""
        if n <= 0:
            return
        self._reserve(n)
        self._arr[self._n : self._n + n] = value
        self._n += n
        self._maybe_sync()

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "_ColumnBuffer":
        """A buffer over an existing array, zero-copy: a column that
        arrived from another process, or one rebuilt from the cell
        labels.  Growth honors this process's spill threshold."""
        buf = cls.__new__(cls)
        buf._arr = arr
        buf._n = len(arr)
        buf._spill = spill_limit_bytes()
        buf._mmap = None
        buf._synced = 0
        return buf


def _has_array_leaf(template: dict) -> bool:
    """Does this payload template carry per-record array leaves?"""
    return any(
        isinstance(v, np.ndarray) or (isinstance(v, dict) and _has_array_leaf(v))
        for v in template.values()
    )


def _materialize_slot(template, i: int):
    """One record's payload out of a column-block template.

    Array leaves hold per-record values (``leaf[i]``); nested dicts
    recurse; anything else is a group-constant shared verbatim.
    """
    return {
        key: (
            value[i].item()
            if isinstance(value, np.ndarray)
            else _materialize_slot(value, i) if isinstance(value, dict) else value
        )
        for key, value in template.items()
    }


def payload_slot(payload, i: int):
    """Record ``i``'s value out of any block payload shape.

    Accepts the three shapes block producers hand around — a
    per-record list, a group-constant value, or a dict template whose
    array leaves hold per-record values — and returns what record ``i``
    of the block carries.
    """
    if isinstance(payload, (list, tuple)):
        return payload[i]
    if isinstance(payload, dict) and _has_array_leaf(payload):
        return _materialize_slot(payload, i)
    return payload


class _PayloadColumn:
    """Per-record Python payloads, stored as lazy segments.

    The typed columns cover everything aggregations touch; what remains
    (fom units, failure kinds, phase and extra dicts) is Python data.
    Row-by-row appends keep a plain list, but block appends store one
    *segment* — a shared constant or a dict template whose array leaves
    carry per-record values — so a 10k-iteration block costs O(1)
    Python objects until someone actually asks for row dicts, and shard
    transport pickles arrays instead of 10k dicts.
    """

    __slots__ = ("_segments", "_starts", "_n")

    #: segment kinds
    _ITEMS, _CONST, _COLS = 0, 1, 2

    def __init__(self):
        self._segments: list[tuple] = []  # (kind, n, payload)
        self._starts: list[int] = []  # cumulative start offset per segment
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _push(self, kind: int, n: int, payload) -> None:
        if n <= 0:
            return
        self._segments.append((kind, n, payload))
        self._starts.append(self._n)
        self._n += n

    def append(self, value) -> None:
        if self._segments and self._segments[-1][0] == self._ITEMS:
            kind, n, items = self._segments[-1]
            items.append(value)
            self._segments[-1] = (kind, n + 1, items)
            self._n += 1
        else:
            self._push(self._ITEMS, 1, [value])

    def extend(self, values) -> None:
        values = list(values)
        if not values:
            return
        if self._segments and self._segments[-1][0] == self._ITEMS:
            kind, n, items = self._segments[-1]
            items.extend(values)
            self._segments[-1] = (kind, n + len(values), items)
            self._n += len(values)
        else:
            self._push(self._ITEMS, len(values), values)

    def append_const(self, n: int, value) -> None:
        """``n`` records sharing one payload (group-constant dicts)."""
        self._push(self._CONST, n, value)

    def append_cols(self, n: int, template: dict) -> None:
        """``n`` records materialized lazily from array-leaf ``template``."""
        self._push(self._COLS, n, template)

    def extend_from(self, other: "_PayloadColumn") -> None:
        """Concatenate another column's segments (store merge)."""
        for kind, n, payload in other._segments:
            # Copy item lists so the source stays independent.
            self._push(kind, n, list(payload) if kind == self._ITEMS else payload)

    def __getitem__(self, i: int):
        if not -self._n <= i < self._n:
            raise IndexError(i)
        if i < 0:
            i += self._n
        seg = bisect_right(self._starts, i) - 1
        kind, _, payload = self._segments[seg]
        offset = i - self._starts[seg]
        if kind == self._ITEMS:
            return payload[offset]
        if kind == self._CONST:
            return payload
        return _materialize_slot(payload, offset)

    def __iter__(self):
        for kind, n, payload in self._segments:
            if kind == self._ITEMS:
                yield from payload
            elif kind == self._CONST:
                for _ in range(n):
                    yield payload
            else:
                for i in range(n):
                    yield _materialize_slot(payload, i)

    def __getstate__(self):
        return (self._segments, self._starts, self._n)

    def __setstate__(self, state):
        self._segments, self._starts, self._n = state


# -- the columnar byte codec ---------------------------------------------------
#
# An entry is one JSON header line, zero padding to the next multiple of
# _ALIGN, then the body: raw column bytes, each column starting on an
# _ALIGN boundary.  The header's "layout" lists every array in the body
# as [name, dtype, count, offset] (offset from the body's start); its
# "segments" hold the payload columns as [kind, n, payload] lists, and a
# dict template's array leaves sit in the layout, named by the template's
# [path, layout name] pairs.

#: every column of an entry's body starts on this byte boundary
_ALIGN = 8

#: the payload columns a store keeps as Python data
_PAYLOADS = ("fom_units", "failure_kind", "phases", "extra")

#: dtype kinds an array leaf may have: numbers and booleans, never objects
_LEAF_KINDS = "biuf"

#: the only dtype strings a layout may name: such a kind in numpy's
#: ``dtype.str`` form; anything else (an object dtype among them) is
#: refused before numpy parses it
_LAYOUT_DTYPE = re.compile(r"[<>|=][biuf][1-9][0-9]?")


def _leaf_arrays(template: dict) -> Iterator[np.ndarray]:
    for value in template.values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            yield from _leaf_arrays(value)


def _encode_template(template: dict, path: list, leaves: list, place) -> dict:
    """``template`` in its JSON form, each array leaf placed in the body
    and replaced by ``None``; ``leaves`` collects ``[path, name]``."""
    out = {}
    for key, value in template.items():
        key = str(key)  # the key ``jsonable`` would write
        if isinstance(value, np.ndarray):
            leaves.append([[*path, key], place(value)])
            out[key] = None
        elif isinstance(value, dict):
            out[key] = _encode_template(value, [*path, key], leaves, place)
        else:
            out[key] = jsonable(value)
    return out


def _encode_segments(column: _PayloadColumn, place) -> list:
    segments = []
    for kind, n, payload in column._segments:
        if kind != _PayloadColumn._COLS:
            segments.append([kind, n, jsonable(payload)])
        elif all(
            leaf.ndim == 1 and len(leaf) >= n and leaf.dtype.kind in _LEAF_KINDS
            for leaf in _leaf_arrays(payload)
        ):
            leaves: list = []
            template = _encode_template(
                payload, [], leaves, lambda leaf: place(leaf[:n])
            )
            segments.append([kind, n, template, leaves])
        else:
            # Leaves the body cannot carry: store the rows themselves.
            rows = [_materialize_slot(payload, i) for i in range(n)]
            segments.append([_PayloadColumn._ITEMS, n, jsonable(rows)])
    return segments


def _set_leaf(template: dict, path, leaf: np.ndarray) -> None:
    """Put ``leaf`` where ``path`` names a ``None`` placeholder."""
    if not isinstance(path, list) or not path or not all(isinstance(k, str) for k in path):
        raise ValueError(f"bad leaf path {path!r}")
    node = template
    for key in path[:-1]:
        node = node.get(key)
        if not isinstance(node, dict):
            raise ValueError(f"leaf path {path!r} leaves the template")
    if node.get(path[-1], 0) is not None:
        raise ValueError(f"leaf path {path!r} names no placeholder")
    node[path[-1]] = leaf


def _decode_segments(raw, n_total: int, arrays: dict, used: set) -> _PayloadColumn:
    if not isinstance(raw, list):
        raise ValueError("segments are not a list")
    column = _PayloadColumn()
    for segment in raw:
        if not isinstance(segment, list) or len(segment) not in (3, 4):
            raise ValueError(f"bad segment {segment!r}")
        kind, n, payload = segment[:3]
        if type(kind) is not int or type(n) is not int or n <= 0:
            raise ValueError(f"bad segment kind or length {kind!r}, {n!r}")
        if len(segment) == 4 and kind == _PayloadColumn._COLS and isinstance(payload, dict):
            if not isinstance(segment[3], list):
                raise ValueError("segment leaves are not a list")
            for leaf in segment[3]:
                path, name = leaf
                if name not in arrays or name in used:
                    raise ValueError(f"leaf {name!r} is not in the layout")
                used.add(name)
                if len(arrays[name]) != n:
                    raise ValueError(f"leaf {name!r} does not hold {n} values")
                _set_leaf(payload, path, arrays[name])
        elif len(segment) == 4 or kind not in (_PayloadColumn._ITEMS, _PayloadColumn._CONST):
            raise ValueError(f"bad segment kind {kind!r}")
        elif kind == _PayloadColumn._ITEMS and not (
            isinstance(payload, list) and len(payload) == n
        ):
            raise ValueError(f"an item segment does not hold {n} items")
        column._push(kind, n, payload)
    if len(column) != n_total:
        raise ValueError(f"segments hold {len(column)} records, not {n_total}")
    return column


def _split_entry(data: bytes) -> tuple[dict, memoryview]:
    """(header, body) of an entry; ``ValueError`` when there is none."""
    end = data.find(b"\n")
    if end < 0:
        raise ValueError("no header line")
    header = json.loads(data[:end])
    if not isinstance(header, dict):
        raise ValueError("the header is not an object")
    start = -(-(end + 1) // _ALIGN) * _ALIGN
    return header, memoryview(data)[start:]


def _body_arrays(layout, body: memoryview) -> dict[str, np.ndarray]:
    """Every array the layout names, as a read-only view of ``body``."""
    if not isinstance(layout, list):
        raise ValueError("the layout is not a list")
    arrays: dict[str, np.ndarray] = {}
    for entry in layout:
        name, dtype, count, offset = entry
        if not isinstance(name, str) or name in arrays:
            raise ValueError(f"bad layout entry {entry!r}")
        if not isinstance(dtype, str) or not _LAYOUT_DTYPE.fullmatch(dtype):
            raise ValueError(f"column {name!r} has dtype {dtype!r}")
        dtype = np.dtype(dtype)
        if type(count) is not int or type(offset) is not int or count < 0:
            raise ValueError(f"bad layout entry {entry!r}")
        if offset < 0 or offset % _ALIGN or offset + count * dtype.itemsize > len(body):
            raise ValueError(f"column {name!r} lies outside the body")
        arrays[name] = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
    return arrays


def _checked_cells(raw) -> list[tuple[str, str, int]]:
    if not isinstance(raw, list):
        raise ValueError("the cells are not a list")
    cells = []
    for cell in raw:
        env_id, app, scale = cell
        if not (
            isinstance(env_id, str) and len(env_id) <= _ENV_WIDTH
            and isinstance(app, str) and len(app) <= _APP_WIDTH
            and type(scale) is int and -(2**63) <= scale < 2**63
        ):
            raise ValueError(f"bad cell {cell!r}")
        cells.append((env_id, app, scale))
    if len(set(cells)) != len(cells):
        raise ValueError("the cells repeat")
    return cells


#: (column name, dtype, value extractor) for every typed buffer
_TYPED_COLUMNS: tuple[tuple[str, str, Callable[[RunRecord], Any]], ...] = (
    ("env", f"U{_ENV_WIDTH}", lambda r: r.env_id),
    ("app", f"U{_APP_WIDTH}", lambda r: r.app),
    ("scale", "i8", lambda r: r.scale),
    ("nodes", "i8", lambda r: r.nodes),
    ("iteration", "i8", lambda r: r.iteration),
    ("state", "i1", lambda r: STATE_CODE[r.state]),
    ("fom", "f8", lambda r: np.nan if r.fom is None else r.fom),
    ("wall_seconds", "f8", lambda r: r.wall_seconds),
    ("hookup_seconds", "f8", lambda r: r.hookup_seconds),
    ("cost_usd", "f8", lambda r: r.cost_usd),
)


class ResultStore:
    """Queryable columnar collection of run records."""

    def __init__(
        self,
        records: Iterable[RunRecord] | None = None,
        *,
        spill_bytes=_SPILL_FROM_ENV,
    ):
        self._cols: dict[str, _ColumnBuffer] = {
            name: _ColumnBuffer(dtype, spill_bytes) for name, dtype, _ in _TYPED_COLUMNS
        }
        #: explicit None mask for ``fom`` (NaN is the column encoding)
        self._fom_none = _ColumnBuffer("?", spill_bytes)
        #: incremental (env, app, scale) factorization: first-seen code
        #: per cell plus a per-record label column, so a frame never
        #: re-derives the group-by keys from the string columns
        self._cell_codes: dict[tuple[str, str, int], int] = {}
        self._labels = _ColumnBuffer("i8", spill_bytes)
        #: per-record Python payloads the columns don't carry (segmented
        #: so block appends stay O(1) in Python objects)
        self._fom_units = _PayloadColumn()
        self._failure_kind = _PayloadColumn()
        self._phases = _PayloadColumn()
        self._extra = _PayloadColumn()
        #: lazily materialized row objects (a prefix cache; appends
        #: extend it on the next access, not eagerly)
        self._rows: list[RunRecord] = []
        if records:
            self.extend(records)

    # -- building -----------------------------------------------------------

    @staticmethod
    def _check_widths(env_id: str, app: str) -> None:
        if len(env_id) > _ENV_WIDTH:
            raise ValueError(
                f"env id {env_id!r} exceeds the store's {_ENV_WIDTH}-char column"
            )
        if len(app) > _APP_WIDTH:
            raise ValueError(
                f"app name {app!r} exceeds the store's {_APP_WIDTH}-char column"
            )

    def _label_for(self, env_id: str, app: str, scale: int) -> int:
        codes = self._cell_codes
        key = (env_id, app, scale)
        code = codes.get(key)
        if code is None:
            code = codes[key] = len(codes)
        return code

    def add(self, record: RunRecord) -> None:
        self._check_widths(record.env_id, record.app)
        for name, _, extract in _TYPED_COLUMNS:
            self._cols[name].append(extract(record))
        self._fom_none.append(record.fom is None)
        self._labels.append(self._label_for(record.env_id, record.app, record.scale))
        self._fom_units.append(record.fom_units)
        self._failure_kind.append(record.failure_kind)
        self._phases.append(record.phases)
        self._extra.append(record.extra)

    def extend(self, records: Iterable[RunRecord]) -> None:
        records = list(records)
        if not records:
            return
        for r in records:
            self._check_widths(r.env_id, r.app)
        for name, _, extract in _TYPED_COLUMNS:
            self._cols[name].extend([extract(r) for r in records])
        self._fom_none.extend([r.fom is None for r in records])
        self._labels.extend(
            [self._label_for(r.env_id, r.app, r.scale) for r in records]
        )
        self._fom_units.extend(r.fom_units for r in records)
        self._failure_kind.extend(r.failure_kind for r in records)
        self._phases.extend(r.phases for r in records)
        self._extra.extend(r.extra for r in records)

    def append_block(
        self,
        *,
        env_id: str,
        app: str,
        scale: int,
        nodes: int,
        iteration: np.ndarray,
        state: np.ndarray,
        fom: np.ndarray,
        fom_none: np.ndarray,
        wall_seconds: np.ndarray,
        hookup_seconds: np.ndarray,
        cost_usd: np.ndarray,
        fom_units: str,
        failure_kind,
        phases,
        extra,
    ) -> None:
        """Append one (env, app, size) group's iterations straight into
        the typed buffers — the block path's sink, no per-run
        :class:`RunRecord` objects.

        The group coordinates are scalars; ``iteration``/``state``/the
        float columns are parallel arrays.  ``failure_kind`` is ``None``
        or one string shared by the whole block, or a per-record
        sequence; ``phases``/``extra`` are either one group-constant
        dict, a dict whose :class:`~numpy.ndarray` leaves hold
        per-record values (materialized lazily), or a per-record list.
        Appending a block of N is equivalent to N :meth:`add` calls with
        the records the block describes (``tests/test_results_block.py``
        pins this, empty and single-iteration blocks included).
        """
        n = len(iteration)
        if n == 0:
            return
        self._check_widths(env_id, app)
        cols = self._cols
        cols["env"].fill(n, env_id)
        cols["app"].fill(n, app)
        cols["scale"].fill(n, scale)
        cols["nodes"].fill(n, nodes)
        cols["iteration"].extend(np.asarray(iteration, dtype=np.int64))
        cols["state"].extend(np.asarray(state, dtype=np.int8))
        cols["fom"].extend(np.asarray(fom, dtype=np.float64))
        cols["wall_seconds"].extend(np.asarray(wall_seconds, dtype=np.float64))
        cols["hookup_seconds"].extend(np.asarray(hookup_seconds, dtype=np.float64))
        cols["cost_usd"].extend(np.asarray(cost_usd, dtype=np.float64))
        self._fom_none.extend(np.asarray(fom_none, dtype=bool))
        self._labels.fill(n, self._label_for(env_id, app, scale))
        self._fom_units.append_const(n, fom_units)
        for column, payload in (
            (self._failure_kind, failure_kind),
            (self._phases, phases),
            (self._extra, extra),
        ):
            if isinstance(payload, (list, tuple)):
                column.extend(payload)
            elif isinstance(payload, dict) and _has_array_leaf(payload):
                column.append_cols(n, payload)
            else:
                column.append_const(n, payload)

    def absorb(self, store: "ResultStore") -> None:
        """Concatenate another store's records onto this one, in order.

        Columns concatenate vectorized, payload segments are carried
        over intact, and the source's first-seen cell codes are remapped
        into this store's factorization.
        """
        for name in self._cols:
            self._cols[name].extend(store._cols[name].view())
        self._fom_none.extend(store._fom_none.view())
        if len(store):
            # Remap the source's first-seen cell codes into ours.
            remap = np.empty(len(store._cell_codes), dtype=np.int64)
            for key, code in store._cell_codes.items():
                remap[code] = self._label_for(*key)
            self._labels.extend(remap[store._labels.view()])
        self._fom_units.extend_from(store._fom_units)
        self._failure_kind.extend_from(store._failure_kind)
        self._phases.extend_from(store._phases)
        self._extra.extend_from(store._extra)

    @classmethod
    def merge(cls, stores: "Iterable[ResultStore]") -> "ResultStore":
        """Concatenate several stores (shard-then-merge) in given order.

        Record order is exactly the concatenation order, so merging
        per-shard stores in shard-plan order reproduces the serial
        campaign's dataset byte for byte (see :mod:`repro.parallel`).
        """
        merged = cls()
        for store in stores:
            merged.absorb(store)
        return merged

    # -- pickling (shard transport) -----------------------------------------

    #: columns reconstructed from (cells, labels) on unpickle — the
    #: fixed-width string columns dominate naive transport size and are
    #: fully derivable from the cell factorization
    _DERIVED_COLUMNS = ("env", "app", "scale")

    def _wire_columns(self) -> dict[str, np.ndarray]:
        """The numeric columns a pickle ships, as live-prefix views:
        every typed column but the derived ones, plus the ``fom`` None
        mask and the cell labels."""
        arrays = {
            name: buf.view()
            for name, buf in self._cols.items()
            if name not in self._DERIVED_COLUMNS
        }
        arrays["fom_none"] = self._fom_none.view()
        arrays["labels"] = self._labels.view()
        return arrays

    @property
    def wire_bytes(self) -> int:
        """Column bytes one pickle of this store ships (what
        :func:`repro.parallel.transport.attach_columns` counts as
        ``transport.bytes`` on arrival)."""
        return sum(arr.nbytes for arr in self._wire_columns().values())

    def __getstate__(self):
        """Columnar transport: column arrays and payload segments.

        Shard results cross the process boundary as this state — a
        handful of arrays (:mod:`repro.parallel.transport`) plus payload
        segments — never as a pickled list of per-record objects.  The
        lazily materialized row cache never ships, and neither do the
        env/app/scale columns (rebuilt from the cell labels with three
        vectorized gathers).
        """
        from repro.parallel import transport

        return {
            "columns": transport.pack_columns(self._wire_columns()),
            "cells": self._cells(),
            **{name: getattr(self, f"_{name}") for name in _PAYLOADS},
        }

    def __setstate__(self, state):
        from repro.parallel import transport

        self._restore(
            transport.attach_columns(state["columns"]),
            state["cells"],
            {name: state[name] for name in _PAYLOADS},
        )

    def _cells(self) -> list[tuple[str, str, int]]:
        """The cell factorization, in first-seen code order."""
        return sorted(self._cell_codes, key=self._cell_codes.get)

    def _restore(
        self,
        columns: dict[str, np.ndarray],
        cells: list[tuple[str, str, int]],
        payloads: dict[str, _PayloadColumn],
    ) -> None:
        """Become the store these wire columns, cells and payload columns
        describe — the one rebuild a pickle and a cache entry share."""
        cols = {name: _ColumnBuffer._wrap(arr) for name, arr in columns.items()}
        self._fom_none = cols.pop("fom_none")
        self._labels = cols.pop("labels")
        self._cell_codes = {key: code for code, key in enumerate(cells)}
        labels = self._labels.view()
        by_code = {
            "env": np.array([c[0] for c in cells] or [""], dtype=f"U{_ENV_WIDTH}"),
            "app": np.array([c[1] for c in cells] or [""], dtype=f"U{_APP_WIDTH}"),
            "scale": np.array([c[2] for c in cells] or [0], dtype=np.int64),
        }
        for name in self._DERIVED_COLUMNS:
            # The gather materializes a fresh array; wrap it as the
            # column's buffer directly rather than copying it again.
            cols[name] = _ColumnBuffer._wrap(by_code[name][labels])
        # Restore the schema's column order.
        self._cols = {name: cols[name] for name, _, _ in _TYPED_COLUMNS}
        for name in _PAYLOADS:
            setattr(self, f"_{name}", payloads[name])
        self._rows = []

    # -- the columnar byte codec (cache entries) -----------------------------

    def to_bytes(self, *, kind: str, v: int, blob: bytes = b"", **fields) -> bytes:
        """This store as one columnar cache entry.

        A JSON header line — ``kind``, ``v``, the caller's ``fields``,
        the cells, the layout and the payload segments — then the wire
        columns and every array leaf of a payload template as raw bytes,
        each on an 8-byte boundary, and last the caller's opaque
        ``blob``.  Payload values are stored as :func:`jsonable` makes
        them: a tuple comes back as a list.  Nothing is pickled.
        """
        chunks: list = []
        layout: list[list] = []
        size = 0

        def place(array: np.ndarray, name: str | None = None) -> str:
            nonlocal size
            array = np.ascontiguousarray(array)
            name = name or f"leaf{len(layout)}"
            offset = -(-size // _ALIGN) * _ALIGN
            if offset > size:
                chunks.append(bytes(offset - size))
            chunks.append(array.data)
            layout.append([name, array.dtype.str, len(array), offset])
            size = offset + array.nbytes
            return name

        for name, array in self._wire_columns().items():
            place(array, name)
        segments = {
            name: _encode_segments(getattr(self, f"_{name}"), place) for name in _PAYLOADS
        }
        place(np.frombuffer(blob, dtype=np.uint8), "blob")
        header = {
            "kind": kind,
            "v": v,
            **fields,
            "cells": self._cells(),
            "layout": layout,
            "segments": segments,
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
        return b"".join([head, bytes(-len(head) % _ALIGN), *chunks])

    @classmethod
    def from_bytes(cls, data: bytes, *, kind: str, v: int) -> tuple["ResultStore", dict, bytes]:
        """``(store, header, blob)`` back from :meth:`to_bytes` output.

        The columns are read-only views of ``data``.  Every check that
        fails raises ``ValueError`` naming the reason: a header ``v``
        other than ``v`` is ``"version skew"``, anything else — another
        ``kind``, a dtype other than the store schema's (so never an
        object), a count or offset past the body, a cell label or state
        code out of range, payload segments that do not add up — is a
        malformed entry.
        """
        try:
            header, body = _split_entry(data)
        except ValueError as exc:
            raise ValueError(f"malformed {kind} entry: {exc}") from None
        version = header.get("v")
        if type(version) is int and version != v:
            raise ValueError(f"version skew: entry v{version}, code v{v}")
        try:
            store, blob = cls._from_header(header, body, kind, v)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed {kind} entry: {exc}") from None
        return store, header, blob

    @classmethod
    def _from_header(cls, header: dict, body: memoryview, kind: str, v: int):
        if header["kind"] != kind or header["v"] != v:
            raise ValueError(f"{header['kind']!r} v{header['v']!r}, not {kind!r} v{v}")
        arrays = _body_arrays(header["layout"], body)
        schema = {
            name: np.dtype(dtype)
            for name, dtype, _ in _TYPED_COLUMNS
            if name not in cls._DERIVED_COLUMNS
        }
        schema.update(fom_none=np.dtype("?"), labels=np.dtype("i8"))
        wire = {}
        for name, dtype in schema.items():
            array = arrays.get(name)
            if array is None or array.dtype != dtype:
                raise ValueError(f"column {name!r} is missing or not {dtype}")
            wire[name] = array
        n = len(wire["labels"])
        short = [name for name, array in wire.items() if len(array) != n]
        if short:
            raise ValueError(f"columns {short} do not hold {n} records")
        cells = _checked_cells(header["cells"])
        for name, bound in (("labels", len(cells)), ("state", len(STATE_ORDER))):
            codes = wire[name]
            if n and (codes.min() < 0 or codes.max() >= bound):
                raise ValueError(f"a {name} code is outside 0..{bound - 1}")
        blob = arrays.get("blob")
        if blob is None or blob.dtype != np.uint8:
            raise ValueError("the blob is missing")
        segments = header["segments"]
        used = set(schema) | {"blob"}
        payloads = {
            name: _decode_segments(segments[name], n, arrays, used) for name in _PAYLOADS
        }
        store = cls.__new__(cls)
        store._restore(wire, cells, payloads)
        return store, blob.tobytes()

    def __len__(self) -> int:
        return len(self._fom_units)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    # -- lazy row materialization -------------------------------------------

    @property
    def records(self) -> list[RunRecord]:
        """Row objects for legacy callers, materialized lazily.

        The list is built from the columns on first access and cached;
        appends after that only materialize the new tail.  Treat it as
        read-only — mutate the store through :meth:`add`/:meth:`extend`.
        """
        n = len(self)
        if len(self._rows) < n:
            cols = {name: buf.view() for name, buf in self._cols.items()}
            fom_none = self._fom_none.view()
            self._rows.extend(
                self._row(cols, fom_none, i) for i in range(len(self._rows), n)
            )
        return self._rows

    def row(self, i: int) -> RunRecord:
        """Record ``i`` alone, without materializing the rows before it."""
        if i < len(self._rows):
            return self._rows[i]
        cols = {name: buf.view() for name, buf in self._cols.items()}
        return self._row(cols, self._fom_none.view(), i)

    def _row(self, cols: dict[str, np.ndarray], fom_none: np.ndarray, i: int) -> RunRecord:
        return RunRecord(
            env_id=str(cols["env"][i]),
            app=str(cols["app"][i]),
            scale=int(cols["scale"][i]),
            nodes=int(cols["nodes"][i]),
            iteration=int(cols["iteration"][i]),
            state=STATE_ORDER[cols["state"][i]],
            fom=None if fom_none[i] else float(cols["fom"][i]),
            fom_units=self._fom_units[i],
            wall_seconds=float(cols["wall_seconds"][i]),
            hookup_seconds=float(cols["hookup_seconds"][i]),
            cost_usd=float(cols["cost_usd"][i]),
            phases=self._phases[i],
            failure_kind=self._failure_kind[i],
            extra=self._extra[i],
        )

    # -- queries ------------------------------------------------------------

    def query(
        self,
        *,
        env_id: str | None = None,
        app: str | None = None,
        scale: int | None = None,
        state: RunState | None = None,
        predicate: Callable[[RunRecord], bool] | None = None,
    ) -> list[RunRecord]:
        out = []
        for r in self.records:
            if env_id is not None and r.env_id != env_id:
                continue
            if app is not None and r.app != app:
                continue
            if scale is not None and r.scale != scale:
                continue
            if state is not None and r.state != state:
                continue
            if predicate is not None and not predicate(r):
                continue
            out.append(r)
        return out

    def completed(self, **kwargs) -> list[RunRecord]:
        return self.query(state=RunState.COMPLETED, **kwargs)

    def foms(self, env_id: str, app: str, scale: int) -> list[float]:
        return [
            r.fom
            for r in self.completed(env_id=env_id, app=app, scale=scale)
            if r.fom is not None
        ]

    def environments(self) -> list[str]:
        return [str(v) for v in np.unique(self._cols["env"].view())]

    def apps(self) -> list[str]:
        return [str(v) for v in np.unique(self._cols["app"].view())]

    def scales(self, env_id: str, app: str) -> list[int]:
        mask = (self._cols["env"].view() == env_id) & (
            self._cols["app"].view() == app
        )
        return [int(v) for v in np.unique(self._cols["scale"].view()[mask])]

    def counts_by_state(self) -> dict[RunState, int]:
        codes, counts = np.unique(self._cols["state"].view(), return_counts=True)
        return {STATE_ORDER[code]: int(count) for code, count in zip(codes, counts)}

    def total_cost(self) -> float:
        return float(np.sum(self._cols["cost_usd"].view())) if len(self) else 0.0

    # -- columnar fast path --------------------------------------------------

    def frame_columns(self) -> dict[str, np.ndarray]:
        """The frame-schema columns as zero-copy views of the buffers."""
        return {name: buf.view() for name, buf in self._cols.items()}

    def cell_index(self) -> tuple[list[tuple[str, str, int]], np.ndarray]:
        """(sorted unique cells, per-record int64 labels), precomputed.

        The factorization is maintained incrementally at append time
        (first-seen codes), so producing the sorted view is one
        vectorized remap — no string sorting at fold time.
        """
        cells = sorted(self._cell_codes)
        remap = np.empty(max(len(cells), 1), dtype=np.int64)
        for sorted_index, key in enumerate(cells):
            remap[self._cell_codes[key]] = sorted_index
        return cells, remap[self._labels.view()]

    def to_frame(self):
        """A columnar :class:`~repro.ensemble.frame.ResultFrame` view.

        Zero-copy: the frame borrows views of this store's buffers (and
        the store's incremental cell factorization), so aggregation
        starts without a conversion pass.  (Appending to the store after
        taking a frame leaves the frame on its snapshot.)
        """
        from repro.ensemble.frame import ResultFrame

        cells, labels = self.cell_index()
        return ResultFrame.from_columns(
            self.frame_columns(), cells=cells, labels=labels
        )

    # -- export -------------------------------------------------------------

    CSV_FIELDS = (
        "env_id",
        "app",
        "scale",
        "nodes",
        "iteration",
        "state",
        "fom",
        "fom_units",
        "wall_seconds",
        "hookup_seconds",
        "cost_usd",
        "failure_kind",
    )

    #: rows whose columns :meth:`to_csv` holds as Python values at once
    _CSV_SLICE_ROWS = 1024

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.CSV_FIELDS)
        # Columns convert to Python values one slice of rows at a time:
        # indexing a NumPy buffer row by row boxes every element as a
        # NumPy scalar, and converting whole columns would hold every
        # value of the store as a Python object at once.
        fom_units, failure_kinds = iter(self._fom_units), iter(self._failure_kind)
        for start in range(0, len(self), self._CSV_SLICE_ROWS):
            part = slice(start, start + self._CSV_SLICE_ROWS)
            cols = {name: b.view()[part].tolist() for name, b in self._cols.items()}
            n = len(cols["env"])
            rows = zip(
                cols["env"], cols["app"], cols["scale"], cols["nodes"],
                cols["iteration"], cols["state"], cols["fom"],
                self._fom_none.view()[part].tolist(), islice(fom_units, n),
                cols["wall_seconds"], cols["hookup_seconds"], cols["cost_usd"],
                islice(failure_kinds, n),
            )
            writer.writerows(
                [
                    env, app, scale, nodes, iteration,
                    STATE_ORDER[state].value,
                    "" if fom_none else f"{fom:.6g}",
                    units,
                    f"{wall:.3f}",
                    f"{hookup:.3f}",
                    f"{cost:.4f}",
                    kind or "",
                ]
                for (
                    env, app, scale, nodes, iteration, state, fom, fom_none, units,
                    wall, hookup, cost, kind,
                ) in rows
            )
        return buf.getvalue()

    def to_artifact(self, name: str = "study-results") -> tuple[str, bytes]:
        """(artifact name, payload) for an ORAS registry push."""
        return f"{name}.csv", self.to_csv().encode("utf-8")
