"""Deterministic fault injection: prove the recovery invariants.

Fault tolerance that is merely *hoped for* rots; this module makes the
failure modes the resilient pool (:mod:`repro.parallel.pool`) and a
cached rerun (the executor attaches every cell entry already written)
recover from injectable on demand, from the same keyed RNG discipline the simulation itself
uses (:func:`repro.rng.stream`).  A :class:`FaultPlan` names per-fault
probabilities; every injection decision is a pure function of
``(plan.seed, fault kind, cell coordinates)`` — never of call order,
worker count, or wall clock — so a chaos run is exactly reproducible
and the tests can assert byte-identical results *through* the faults.

Fault kinds:

* ``kill`` — the worker process SIGKILLs itself before executing the
  cell.  The pool sees ``BrokenProcessPool``, rebuilds, and requeues.
  Only fires in pool worker processes (:func:`mark_worker_process` is
  installed as the pool initializer); inline execution skips it, so
  ``workers=1`` runs complete and the parent never shoots itself.
* ``transient`` — raise :class:`~repro.errors.TransientShardError`
  before executing; the pool retries with deterministic backoff.
* ``corrupt`` — after the cell's summary is cached, overwrite the entry
  with undecodable bytes; the next probe must degrade through
  :meth:`~repro.sim.cache.RunCache.note_invalid` and re-execute.
* ``delay`` — sleep ``delay_seconds`` before executing; with a
  per-shard deadline configured this turns the cell into a straggler
  the pool must kill and re-dispatch.
* ``abort`` — raise :class:`~repro.errors.ChaosAbortError`, which the
  pool classifies as *fatal*: the run dies mid-flight (the model of the
  driver itself being killed), leaving the cell entries it wrote
  behind for a ``--resume`` rerun to attach.

Convergence: injection is gated on the shard's ``attempt`` number
(``attempt <= max_attempt``, default 0 — first attempts only), so a
retried or requeued shard executes clean and every recovery ladder
terminates deterministically.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, fields

from repro.errors import ChaosAbortError, ConfigurationError, TransientShardError
from repro.rng import stream
from repro.telemetry import span

#: set by the pool's worker initializer; gates the ``kill`` fault so
#: inline (parent-process) execution never SIGKILLs the driver
_IN_WORKER = False


def mark_worker_process() -> None:
    """Record that this process is a pool worker (pool initializer)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    return _IN_WORKER


_RATE_FIELDS = ("kill", "transient", "corrupt", "delay", "abort")


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind fault probabilities, keyed off one chaos seed.

    A pure value: it rides on :class:`~repro.parallel.shard.StudyShard`
    like the ``trace`` flag does and never participates in
    cache keys or simulation — any plan yields byte-identical merged
    results to a fault-free run (that is the point).
    """

    kill: float = 0.0
    transient: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    abort: float = 0.0
    #: how long a ``delay`` fault stalls the cell
    delay_seconds: float = 0.05
    #: chaos RNG seed — independent of the study seed
    seed: int = 0
    #: inject only while ``shard.attempt <= max_attempt``; 0 means first
    #: attempts only, which guarantees retries converge
    max_attempt: int = 0

    def __post_init__(self):
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"chaos rate {name}={rate!r} must be within [0, 1]"
                )
        if self.delay_seconds < 0:
            raise ConfigurationError("chaos delay_seconds must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """A plan from a ``--chaos`` CLI spec: ``kill=0.1,transient=0.1,seed=7``.

        Keys are the dataclass fields; values parse as float (int for
        ``seed``/``max_attempt``).  Unknown keys and unparsable values
        raise :class:`~repro.errors.ConfigurationError` usage messages.
        """
        known = {f.name: f.type for f in fields(cls)}
        kwargs: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise ConfigurationError(
                    f"bad chaos spec entry {part!r}: expected key=value with "
                    f"key one of {', '.join(sorted(known))}"
                )
            try:
                if key in ("seed", "max_attempt"):
                    kwargs[key] = int(value)
                else:
                    kwargs[key] = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"bad chaos spec value {value!r} for {key}"
                ) from None
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def digest(self) -> str:
        """A short content digest of the plan (for artifacts and logs)."""
        import hashlib
        import json

        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()

    @property
    def any_faults(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    def _roll(self, kind: str, key: tuple) -> bool:
        """One keyed injection decision — pure in (seed, kind, key)."""
        rate = getattr(self, kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return float(stream(self.seed, "chaos", kind, *key).random()) < rate


def _cell_key(shard) -> tuple:
    return (
        getattr(shard, "env_id", None),
        getattr(shard, "scale", None),
        getattr(shard, "world", 0),
    )


def _armed(shard) -> "FaultPlan | None":
    plan = getattr(shard, "chaos", None)
    if plan is None or not plan.any_faults:
        return None
    if getattr(shard, "attempt", 0) > plan.max_attempt:
        return None
    return plan


def inject_before_execute(shard) -> None:
    """Fire pre-execution faults for ``shard``, per its plan.

    Order: delay (stall), then kill (die), then abort (fatal), then
    transient (retryable) — a cell drawn for several kinds exhibits the
    most destructive one that applies in this process.
    """
    plan = _armed(shard)
    if plan is None:
        return
    key = _cell_key(shard)
    if plan._roll("delay", key):
        with span("chaos.inject", kind="delay", env=shard.env_id, scale=shard.scale):
            time.sleep(plan.delay_seconds)
    if _IN_WORKER and plan._roll("kill", key):
        # No span: the process is gone before it could close.  The pool
        # observes BrokenProcessPool, rebuilds, and requeues.
        os.kill(os.getpid(), signal.SIGKILL)
    if plan._roll("abort", key):
        raise ChaosAbortError(
            f"chaos: injected fatal abort in cell ({shard.env_id}, "
            f"{shard.scale}) of world {shard.world}"
        )
    if plan._roll("transient", key):
        with span("chaos.inject", kind="transient", env=shard.env_id, scale=shard.scale):
            raise TransientShardError(
                f"chaos: injected transient fault in cell ({shard.env_id}, "
                f"{shard.scale}) of world {shard.world}",
                injected=True,
            )


def corrupt_after_store(shard, cache, key: str) -> None:
    """Maybe poison the cell entry just written under ``key``.

    Runs after :func:`~repro.parallel.shard._finish_shard` stores the
    summary: the *returned* result is untouched (byte-identity holds);
    only the next probe of this entry degrades — through
    ``note_invalid`` — and re-executes.
    """
    plan = _armed(shard)
    if plan is None:
        return
    if plan._roll("corrupt", _cell_key(shard)):
        with span("chaos.inject", kind="corrupt", env=shard.env_id, scale=shard.scale):
            cache.poison(key)
