"""Columnar result frames: typed NumPy column views of run records.

A :class:`~repro.core.results.ResultStore` keeps the dataset in growing
typed column buffers; a :class:`ResultFrame` is the aggregation view
over those columns.  ``store.to_frame()`` hands the frame *views* of the
store's buffers — zero copies — so the fold's hot path starts at the
aggregation itself: each record's (env, app, scale) is factorized into
an integer cell label, and every aggregation is a handful of
``np.bincount`` passes over int64 labels — no string comparisons on the
hot path.  Over a paper-scale store (25k+ records) the vectorized cell
aggregation is more than an order of magnitude faster than the
per-record Python loop it replaces (``benchmarks/test_bench_ensemble.py``
keeps the receipt), and the zero-copy conversion beats the seed's
row-based ``from_records`` pass by far more.

Frames can still be built from a list of :class:`RunRecord` dataclasses
(:meth:`ResultFrame.from_records` — the row-based path shard results
take) or from a raw structured array; either way the column storage and
the aggregation semantics are identical.

Float semantics are preserved exactly: ``np.bincount`` accumulates in
original record order, so every cell sum — and therefore every cell
mean — is bit-identical to the per-record loop, and matches ``np.mean``
of :meth:`ResultStore.foms` at study cell sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.sim.run_result import (
    APP_NAME_WIDTH,
    ENV_ID_WIDTH,
    STATE_CODE,
    STATE_ORDER,
    RunRecord,
    RunState,
)

_STATE_CODE = STATE_CODE  # the shared coding (repro.sim.run_result)

#: fixed string-column widths (shared with the store's buffers via
#: :mod:`repro.sim.run_result`); assignment beyond them would truncate
#: silently and merge distinct cells, so conversions refuse instead
ENV_WIDTH = ENV_ID_WIDTH
APP_WIDTH = APP_NAME_WIDTH

#: the frame's schema: one typed column per dataset CSV field that
#: aggregations touch (string payloads like ``failure_kind`` stay in the
#: store; the frame is a fold structure, not an archive)
FRAME_DTYPE = np.dtype(
    [
        ("env", f"U{ENV_WIDTH}"),
        ("app", f"U{APP_WIDTH}"),
        ("scale", "i8"),
        ("nodes", "i8"),
        ("iteration", "i8"),
        ("state", "i1"),
        ("fom", "f8"),
        ("wall_seconds", "f8"),
        ("hookup_seconds", "f8"),
        ("cost_usd", "f8"),
    ]
)

#: column names in schema order
FRAME_COLUMNS: tuple[str, ...] = tuple(FRAME_DTYPE.names)


def check_id_widths(envs: Iterable[str], apps: Iterable[str]) -> None:
    """Refuse env ids / app names wider than the frame's string columns."""
    for values, width, what in ((envs, ENV_WIDTH, "env id"), (apps, APP_WIDTH, "app name")):
        too_long = next((v for v in values if len(v) > width), None)
        if too_long is not None:
            raise ValueError(
                f"{what} {too_long!r} exceeds the frame's {width}-char column"
            )


@dataclass(frozen=True)
class CellAggregates:
    """Struct-of-arrays: one entry per (env, app, scale) cell.

    Cells are sorted by (env, app, scale); every array is parallel.
    ``fom_mean`` / ``wall_mean`` average *completed* runs and are NaN
    for cells with none; ``cost_total`` sums every record (skips cost
    nothing, failures bill what they consumed).
    """

    env: np.ndarray
    app: np.ndarray
    scale: np.ndarray
    records: np.ndarray
    completed: np.ndarray
    fom_mean: np.ndarray
    wall_mean: np.ndarray
    cost_total: np.ndarray
    state_counts: dict[RunState, np.ndarray]

    def __len__(self) -> int:
        return len(self.env)

    def rows(self) -> list[dict]:
        """Per-cell dicts (JSON-safe: NaN means become ``None``)."""
        out = []
        for i in range(len(self)):
            fom = float(self.fom_mean[i])
            wall = float(self.wall_mean[i])
            out.append(
                {
                    "env": str(self.env[i]),
                    "app": str(self.app[i]),
                    "scale": int(self.scale[i]),
                    "records": int(self.records[i]),
                    "completed": int(self.completed[i]),
                    "fom_mean": None if np.isnan(fom) else fom,
                    "wall_mean": None if np.isnan(wall) else wall,
                    "cost_total": float(self.cost_total[i]),
                }
            )
        return out


class ResultFrame:
    """A columnar view of run records.

    Internally the frame is a mapping of named typed columns — either
    views borrowed zero-copy from a columnar store, columns converted
    once from a record list, or the fields of a raw structured array.
    The structured-array form (:attr:`data`) is assembled lazily for
    callers that want one record-per-row value.
    """

    def __init__(
        self,
        data: np.ndarray | None = None,
        *,
        columns: Mapping[str, np.ndarray] | None = None,
        cells: list[tuple[str, str, int]] | None = None,
        labels: np.ndarray | None = None,
    ):
        if columns is None:
            if data is None:
                raise ValueError("a frame needs either data or columns")
            if data.dtype != FRAME_DTYPE:
                raise ValueError(f"frame data must have dtype {FRAME_DTYPE}")
            columns = {name: data[name] for name in FRAME_COLUMNS}
            self._data: np.ndarray | None = data
        else:
            missing = set(FRAME_COLUMNS) - set(columns)
            if missing:
                raise ValueError(f"frame columns missing {sorted(missing)}")
            lengths = {len(columns[name]) for name in FRAME_COLUMNS}
            if len(lengths) > 1:
                raise ValueError("frame columns must be parallel (equal lengths)")
            self._data = None
        self._columns = {name: columns[name] for name in FRAME_COLUMNS}
        # The cell factorization: ``cells`` lists the sorted unique
        # (env, app, scale) keys, ``labels`` maps each record to its
        # cell index.  from_records computes it during conversion; a
        # frame built from raw columns derives it lazily.
        self._cells = cells
        self._labels = labels
        # Contiguous copies of the numeric hot columns (field views into
        # a structured array are strided; reductions over them pay for
        # every cache miss).  Materialized once, on first aggregation.
        self._hot: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        *,
        cells: list[tuple[str, str, int]] | None = None,
        labels: np.ndarray | None = None,
    ) -> "ResultFrame":
        """Wrap already-typed parallel columns; no copies are made."""
        return cls(columns=columns, cells=cells, labels=labels)

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "ResultFrame":
        """One conversion pass: dataclass list → typed columns + labels."""
        records = list(records)
        envs = [r.env_id for r in records]
        apps = [r.app for r in records]
        check_id_widths(envs, apps)
        n = len(records)
        columns = {
            "env": np.array(envs, dtype="U32") if n else np.empty(0, dtype="U32"),
            "app": np.array(apps, dtype="U24") if n else np.empty(0, dtype="U24"),
            "scale": np.fromiter((r.scale for r in records), dtype=np.int64, count=n),
            "nodes": np.fromiter((r.nodes for r in records), dtype=np.int64, count=n),
            "iteration": np.fromiter(
                (r.iteration for r in records), dtype=np.int64, count=n
            ),
            "state": np.fromiter(
                (_STATE_CODE[r.state] for r in records), dtype=np.int8, count=n
            ),
            "fom": np.fromiter(
                (np.nan if r.fom is None else r.fom for r in records),
                dtype=np.float64,
                count=n,
            ),
            "wall_seconds": np.fromiter(
                (r.wall_seconds for r in records), dtype=np.float64, count=n
            ),
            "hookup_seconds": np.fromiter(
                (r.hookup_seconds for r in records), dtype=np.float64, count=n
            ),
            "cost_usd": np.fromiter(
                (r.cost_usd for r in records), dtype=np.float64, count=n
            ),
        }
        keys = [(r.env_id, r.app, r.scale) for r in records]
        cells = sorted(set(keys))
        index = {cell: i for i, cell in enumerate(cells)}
        labels = np.fromiter(
            (index[key] for key in keys), dtype=np.int64, count=len(keys)
        )
        return cls(columns=columns, cells=cells, labels=labels)

    @classmethod
    def from_store(cls, store) -> "ResultFrame":
        """Convert a :class:`~repro.core.results.ResultStore`.

        Columnar stores hand over buffer views (zero-copy); anything
        else falls back to the record-list conversion pass.
        """
        frame_columns = getattr(store, "frame_columns", None)
        if frame_columns is not None:
            return cls.from_columns(frame_columns())
        return cls.from_records(store.records)

    def __len__(self) -> int:
        return len(self._columns["state"])

    @property
    def data(self) -> np.ndarray:
        """The one-row-per-record structured array (assembled lazily)."""
        if self._data is None:
            arr = np.empty(len(self), dtype=FRAME_DTYPE)
            for name in FRAME_COLUMNS:
                arr[name] = self._columns[name]
            self._data = arr
        return self._data

    def column(self, name: str) -> np.ndarray:
        """One typed column (a view, not a copy)."""
        return self._columns[name]

    def states(self) -> list[RunState]:
        """Decoded run states, record order."""
        return [STATE_ORDER[code] for code in self._columns["state"]]

    def _hot_columns(self) -> tuple[np.ndarray, ...]:
        """(state_codes, fom, wall, cost, completed), all contiguous."""
        if self._hot is None:
            state = np.ascontiguousarray(self._columns["state"]).astype(np.int64)
            fom = np.ascontiguousarray(self._columns["fom"])
            wall = np.ascontiguousarray(self._columns["wall_seconds"])
            cost = np.ascontiguousarray(self._columns["cost_usd"])
            completed = (state == _STATE_CODE[RunState.COMPLETED]) & ~np.isnan(fom)
            self._hot = (state, fom, wall, cost, completed)
        return self._hot

    def completed_mask(self) -> np.ndarray:
        """Completed runs carrying a figure of merit."""
        return self._hot_columns()[4]

    # -- vectorized group-by ------------------------------------------------

    def cell_index(self) -> tuple[list[tuple[str, str, int]], np.ndarray]:
        """(sorted unique cells, per-record int64 cell labels).

        Computed during conversion for frames built via
        :meth:`from_records`; derived vectorized (a factorize per key
        column, then one dense composite code) for frames handed raw
        columns.  Either way the cell order is sorted (env, app, scale).
        """
        if self._labels is None:
            env_codes, env_inv = np.unique(self._columns["env"], return_inverse=True)
            app_codes, app_inv = np.unique(self._columns["app"], return_inverse=True)
            sc_codes, sc_inv = np.unique(self._columns["scale"], return_inverse=True)
            dense = (env_inv * len(app_codes) + app_inv) * len(sc_codes) + sc_inv
            present, labels = np.unique(dense, return_inverse=True)
            span = len(app_codes) * len(sc_codes)
            self._cells = [
                (
                    str(env_codes[code // span]),
                    str(app_codes[(code % span) // len(sc_codes)]),
                    int(sc_codes[code % len(sc_codes)]),
                )
                for code in present
            ]
            self._labels = labels.astype(np.int64)
        return self._cells, self._labels

    def cell_aggregates(self) -> CellAggregates:
        """Fold every (env, app, scale) cell in a few bincount passes.

        Group sums accumulate via ``np.bincount`` over the per-record
        labels, which adds in original record order — so every cell sum
        (and mean) is bit-identical to the per-record Python loop it
        replaces, and to ``np.mean`` of ``store.foms`` at study cell
        sizes.
        """
        cells, labels = self.cell_index()
        n_cells = len(cells)
        state, fom, wall, cost, completed = self._hot_columns()

        def _sums(values: np.ndarray) -> np.ndarray:
            return np.bincount(labels, weights=values, minlength=n_cells)

        records = np.bincount(labels, minlength=n_cells)
        n_completed = _sums(completed.astype(np.float64)).astype(np.int64)
        fom_sum = _sums(np.where(completed, fom, 0.0))
        wall_sum = _sums(np.where(completed, wall, 0.0))
        cost_total = _sums(cost)

        with np.errstate(invalid="ignore", divide="ignore"):
            fom_mean = np.where(n_completed > 0, fom_sum / n_completed, np.nan)
            wall_mean = np.where(n_completed > 0, wall_sum / n_completed, np.nan)

        # One pass for all states: a composite (cell, state) code.
        n_states = len(STATE_ORDER)
        per_state = np.bincount(
            labels * n_states + state,
            minlength=n_cells * n_states,
        ).reshape(n_cells, n_states)
        state_counts = {
            state: per_state[:, code] for code, state in enumerate(STATE_ORDER)
        }
        return CellAggregates(
            env=np.array([c[0] for c in cells], dtype="U32"),
            app=np.array([c[1] for c in cells], dtype="U24"),
            scale=np.array([c[2] for c in cells], dtype=np.int64),
            records=records,
            completed=n_completed,
            fom_mean=fom_mean,
            wall_mean=wall_mean,
            cost_total=cost_total,
            state_counts=state_counts,
        )
