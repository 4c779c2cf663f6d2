"""Deterministic chaos drills: the recovery invariants, proven.

Every test here injects faults through :mod:`repro.chaos` and asserts
the one property that matters: a campaign that *survives* its faults
produces bytes identical to a campaign that never saw them.  Injection
decisions are pure functions of (seed, kind, cell coordinates), so each
drill is exactly reproducible — no flaky retries, no timing luck.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import FaultPlan, in_worker_process, inject_before_execute
from repro.core.study import StudyConfig, StudyRunner
from repro.errors import (
    ChaosAbortError,
    ConfigurationError,
    ShardExecutionError,
    TransientShardError,
)
from repro.parallel.pool import FaultStats, RetryPolicy, pmap
from repro.plan import ExecutionOptions

pytestmark = pytest.mark.chaos


# -- the FaultPlan value ------------------------------------------------------


def test_parse_round_trip():
    plan = FaultPlan.parse("kill=0.1,transient=0.05,seed=7,max_attempt=1")
    assert plan.kill == 0.1
    assert plan.transient == 0.05
    assert plan.seed == 7
    assert plan.max_attempt == 1
    assert plan.corrupt == 0.0
    assert plan.any_faults


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="bad chaos spec entry"):
        FaultPlan.parse("explode=0.5")


def test_parse_rejects_unparsable_values():
    with pytest.raises(ConfigurationError, match="bad chaos spec value"):
        FaultPlan.parse("kill=often")


def test_rates_must_be_probabilities():
    with pytest.raises(ConfigurationError, match="within \\[0, 1\\]"):
        FaultPlan(transient=1.5)


def test_rolls_are_pure_in_coordinates():
    plan = FaultPlan(transient=0.5, seed=3)
    key = ("cpu-eks-aws", 32, 0)
    first = [plan._roll("transient", key) for _ in range(5)]
    assert len(set(first)) == 1  # same cell, same answer, every call
    # A different seed is a different (deterministic) universe.
    other = FaultPlan(transient=0.5, seed=4)
    keys = [("cpu-eks-aws", s, 0) for s in (8, 16, 32, 64, 128, 256)]
    assert [plan._roll("transient", k) for k in keys] != [
        other._roll("transient", k) for k in keys
    ]


def test_digest_is_stable_and_spec_sensitive():
    assert FaultPlan(kill=0.1).digest() == FaultPlan(kill=0.1).digest()
    assert FaultPlan(kill=0.1).digest() != FaultPlan(kill=0.2).digest()


def test_backoff_is_deterministic_and_capped():
    policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.4)
    first = policy.backoff_seconds("cell-3", 1)
    assert first == policy.backoff_seconds("cell-3", 1)
    assert 0.0 < first <= 0.4
    # Exponential growth until the cap wins.
    assert policy.backoff_seconds("cell-3", 20) == 0.4


def test_inline_kill_is_inert():
    """The kill fault only fires in pool workers — never in the parent."""
    assert not in_worker_process()

    @dataclasses.dataclass(frozen=True)
    class Shard:
        env_id: str = "cpu-eks-aws"
        scale: int = 32
        world: int = 0
        attempt: int = 0
        chaos: FaultPlan | None = FaultPlan(kill=1.0)

    inject_before_execute(Shard())  # a firing kill would end this process


def test_retried_attempts_run_clean():
    """Injection is gated on attempt <= max_attempt: retries converge."""

    @dataclasses.dataclass(frozen=True)
    class Shard:
        env_id: str = "cpu-eks-aws"
        scale: int = 32
        world: int = 0
        attempt: int = 1
        chaos: FaultPlan | None = FaultPlan(transient=1.0)

    inject_before_execute(Shard())  # attempt 1 > max_attempt 0: no fault


# -- the pool's retry ladder (plain mapped values) ----------------------------


@dataclasses.dataclass(frozen=True)
class _Item:
    value: int
    #: transient failures to throw before succeeding
    flaky: int = 0
    attempt: int = 0


def _flaky_square(item: _Item) -> int:
    if item.attempt < item.flaky:
        raise TransientShardError(f"flake {item.attempt} on {item.value}")
    return item.value * item.value


def _always_transient(item: _Item) -> int:
    raise TransientShardError(f"hopeless {item.value}")


@pytest.mark.parametrize("workers", [1, 4])
def test_transients_are_retried_to_success(workers):
    stats = FaultStats()
    items = [_Item(v, flaky=(1 if v % 2 else 0)) for v in range(6)]
    out = pmap(_flaky_square, items, workers=workers, stats=stats)
    assert out == [v * v for v in range(6)]
    assert stats.retries >= 3


def test_exhaustion_wraps_with_attempt_count():
    with pytest.raises(ShardExecutionError, match="after 2 attempt"):
        pmap(_always_transient, [_Item(1)], policy=RetryPolicy(max_attempts=2))


def test_pool_exhaustion_falls_to_final_serial_rung():
    """max_attempts=1 in the pool still succeeds via the inline rescue."""
    stats = FaultStats()
    items = [_Item(v, flaky=1) for v in range(4)]
    out = pmap(
        _flaky_square,
        items,
        workers=2,
        policy=RetryPolicy(max_attempts=1),
        stats=stats,
    )
    assert out == [v * v for v in range(4)]
    assert stats.serial_hops >= 1


# -- full campaigns under fault injection -------------------------------------


def _smoke_csv(**kwargs) -> tuple[str, FaultStats]:
    runner = StudyRunner(StudyConfig.smoke(), ExecutionOptions(**kwargs))
    report = runner.run()
    return report.store.to_csv(), report.faults


@pytest.fixture(scope="module")
def clean_csv() -> str:
    csv, faults = _smoke_csv()
    assert not faults.activity
    return csv


@pytest.mark.parametrize("workers", [1, 4])
def test_transient_chaos_is_byte_identical(clean_csv, workers):
    csv, _ = _smoke_csv(
        workers=workers, chaos=FaultPlan(transient=0.1, seed=11)
    )
    assert csv == clean_csv


@pytest.mark.parametrize("workers", [1, 4])
def test_certain_transients_are_survived_and_counted(clean_csv, workers):
    csv, faults = _smoke_csv(
        workers=workers, chaos=FaultPlan(transient=1.0, seed=0)
    )
    assert csv == clean_csv
    assert faults.injected >= 1
    assert faults.retries >= 1


def test_kill_chaos_is_byte_identical(clean_csv):
    csv, _ = _smoke_csv(workers=4, chaos=FaultPlan(kill=0.1, seed=5))
    assert csv == clean_csv


def test_certain_kills_break_and_rebuild_the_pool(clean_csv):
    csv, faults = _smoke_csv(workers=2, chaos=FaultPlan(kill=1.0, seed=0))
    assert csv == clean_csv
    assert faults.rebuilds >= 1
    assert faults.requeues >= 1


def test_kill_chaos_inline_never_shoots_the_driver(clean_csv):
    # workers=1 executes in the parent; the kill fault must stay inert.
    csv, faults = _smoke_csv(workers=1, chaos=FaultPlan(kill=1.0, seed=0))
    assert csv == clean_csv
    assert not faults.activity


def test_abort_surfaces_as_typed_error_naming_the_cell():
    runner = StudyRunner(
        StudyConfig.smoke(),
        ExecutionOptions(chaos=FaultPlan(abort=1.0, seed=0)),
    )
    with pytest.raises(ShardExecutionError, match=r"cell \(cpu-") as excinfo:
        runner.run()
    assert "world 0" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, ChaosAbortError)


def test_delay_chaos_is_byte_identical(clean_csv):
    csv, _ = _smoke_csv(
        workers=2,
        chaos=FaultPlan(delay=1.0, delay_seconds=0.01, seed=2),
    )
    assert csv == clean_csv


def test_corrupted_cache_entries_degrade_to_re_execution(tmp_path, clean_csv):
    cache = str(tmp_path / "cache")
    first, _ = _smoke_csv(cache_dir=cache, chaos=FaultPlan(corrupt=1.0))
    assert first == clean_csv  # poisoning happens *after* the result
    # The repeat campaign probes the poisoned entries, flags every one
    # invalid, and re-simulates back to the same bytes.
    runner = StudyRunner(StudyConfig.smoke(), ExecutionOptions(cache_dir=cache))
    report = runner.run()
    assert report.store.to_csv() == clean_csv
    assert report.cache_invalid >= 1
    assert report.cache_invalid_reasons
