"""Serial vs. sharded vs. cached study throughput.

The campaign's (environment, size) cells are independent (§2.9: one
cluster per size), so the study shards across a process pool and caches
finished runs content-addressed by their coordinates.  These benchmarks
put numbers on the three execution modes over the CLI's default campaign
config (every environment, every app, 2 iterations) so ``BENCH_*.json``
tracks the speedup, and assert the headline guarantees: identical
datasets in every mode, and a ≥2x wall-time win for a cache-warm
campaign over a cold serial one.

Worker count: the cold sharded benchmark uses 4 workers.  On a
multi-core host the pool buys wall time roughly linearly in cores; on a
single-core CI runner it only buys process overhead, which is why the
asserted ≥2x comes from the cache path — that one is hardware-
independent.  Both sides of the 2x gate are sub-second, so each is timed
as the fastest of ``REPEATS`` runs after one untimed warm-up: a single
timing on a shared host reads scheduler noise as a regression.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.registry import APPS
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.plan import ExecutionOptions

#: the CLI's default campaign (`python -m repro study`)
DEFAULT_CONFIG = StudyConfig(
    env_ids=tuple(ENVIRONMENTS),
    apps=tuple(APPS),
    sizes=None,
    iterations=2,
    seed=0,
)


#: each side of the 2x gate is timed as the fastest of this many runs
REPEATS = 3


def _run(workers: int = 1, cache_dir: str | None = None):
    return StudyRunner(
        DEFAULT_CONFIG,
        ExecutionOptions(workers=workers, cache_dir=cache_dir),
    ).run()


def test_bench_serial_study(benchmark):
    """Baseline: the whole campaign in one process, no cache."""
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert report.datasets > 1000


def test_bench_sharded_study(benchmark):
    """Sharded: (env, size) cells over 4 workers, no cache."""
    report = benchmark.pedantic(
        _run, kwargs={"workers": 4}, rounds=1, iterations=1
    )
    assert report.datasets > 1000


def test_bench_cached_study(benchmark, tmp_path):
    """Cache-warm: every cell replayed from the content-addressed cache."""
    _run(cache_dir=str(tmp_path))  # populate
    report = benchmark.pedantic(
        _run,
        kwargs={"workers": 4, "cache_dir": str(tmp_path)},
        rounds=1,
        iterations=1,
    )
    assert report.cache_hits == report.datasets


def _fastest(**kwargs):
    """Fastest of ``REPEATS`` timed ``_run(**kwargs)`` calls after one
    untimed warm-up, and the last call's result."""
    _run(**kwargs)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = _run(**kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_sharded_and_cached_studies_match_serial_with_2x_speedup(tmp_path):
    """Acceptance: identical datasets, ≥2x for the cache-warm campaign."""
    t_serial, serial = _fastest()

    sharded = _run(workers=4)
    assert sharded.store.to_csv() == serial.store.to_csv()
    assert sharded.spend_by_cloud == serial.spend_by_cloud

    # The warm-up run is the cold one that populates the cache.
    t_warm, warm = _fastest(workers=4, cache_dir=str(tmp_path))

    assert warm.store.to_csv() == serial.store.to_csv()
    assert warm.cache_hits == warm.datasets
    speedup = t_serial / t_warm
    print(f"\nserial {t_serial:.3f}s, cache-warm {t_warm:.3f}s -> {speedup:.1f}x")
    assert speedup >= 2.0, f"cache-warm speedup only {speedup:.2f}x"
