"""Run records: the study's unit dataset (the paper collected 25,541)."""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any


class RunState(enum.Enum):
    COMPLETED = "completed"
    FAILED = "failed"
    TIMEOUT = "timeout"
    SKIPPED = "skipped"  # environment undeployable or app unsupported


#: the canonical integer coding of :class:`RunState` shared by every
#: columnar structure (:class:`~repro.core.results.ResultStore` buffers,
#: :class:`~repro.ensemble.frame.ResultFrame` columns); index into
#: :data:`STATE_ORDER` to decode
STATE_ORDER: tuple[RunState, ...] = tuple(RunState)
STATE_CODE: dict[RunState, int] = {state: code for code, state in enumerate(STATE_ORDER)}

#: fixed widths of the columnar string key columns, shared by the store
#: buffers and the frame schema (this leaf module is importable by
#: both); ids wider than these would truncate silently and merge
#: distinct cells, so columnar appends refuse them instead
ENV_ID_WIDTH = 32
APP_NAME_WIDTH = 24


def jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and other oddballs) into JSON-native types.

    The one canonical form of a record's Python payloads (``phases``,
    ``extra``, ``failure_kind``) wherever they are stored: dict keys
    become ``str(key)``, tuples become lists, numpy scalars their
    ``item()``, anything else its ``str()``.  Exact JSON-native types
    take the fast paths on ``type(value)``; subclasses, numpy scalars
    and everything else fall through to the ``isinstance`` chain below,
    so the result never depends on which path a value took.
    """
    kind = type(value)
    if kind is str or kind is float or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        return {str(k): jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


@dataclass(frozen=True)
class RunRecord:
    """One application run in one environment at one scale."""

    env_id: str
    app: str
    scale: int  # nodes (CPU) or GPUs (GPU environments)
    nodes: int
    iteration: int
    state: RunState
    fom: float | None
    fom_units: str
    wall_seconds: float
    hookup_seconds: float
    cost_usd: float
    phases: dict[str, float] = field(default_factory=dict)
    failure_kind: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.state is RunState.COMPLETED and self.fom is not None

    @property
    def total_seconds(self) -> float:
        return self.wall_seconds + self.hookup_seconds
