"""The shard wire format: how a result store crosses the process pool.

A pool worker returns its cell's :class:`~repro.core.results.ResultStore`
by pickling it through the pool pipe.  The store's state is its numeric
column arrays, its cell factorization and its Python payload segments
(:meth:`~repro.core.results.ResultStore.__getstate__`).  The fixed-width
``env``/``app``/``scale`` columns never ship: the receiving side rebuilds
them from the cell labels.

Every store that crosses the pool goes through both functions here:
:func:`pack_columns` when the worker pickles it and
:func:`attach_columns` when the parent unpickles it.  The attach side
records a ``transport.attach`` span and counts the column bytes that
arrived as ``transport.bytes``, so a trace shows what shipping cost.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.tracer import count, span


def pack_columns(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The wire form of a store's numeric columns: the arrays themselves,
    pickled by value.

    Each array is its column's live prefix, so pickling copies the
    records and never the buffer's spare capacity.
    """
    return arrays


def attach_columns(packed: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The numeric columns of a store that arrived from another process,
    counted as ``transport.bytes``."""
    with span("transport.attach"):
        count("transport.bytes", sum(arr.nbytes for arr in packed.values()))
    return packed
