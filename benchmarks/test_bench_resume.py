"""Checkpoint/resume: the interrupted-campaign cost benchmark.

The resume claim, measured end to end: a campaign killed at ~50%
completion and resumed with ``--resume`` must finish in **at most 60%
of the cold-run wall time**, with a byte-identical dataset.  Every
executed cell writes its cell entry before its result returns, and the
rerun attaches every cell it finds cached, so the resumed run loads
the first half from the cache and pays simulation only for the half
the crash actually lost.  Each side is timed as the fastest of
three runs, each with its own fresh cache directory; the resumed side's
directory first holds the interrupted run, untimed.

The interruption is a deterministic chaos ``abort`` whose seed is
chosen against the compiled plan so the fault lands exactly past the
halfway shard — the same keyed-RNG discipline the chaos test suite
uses, which makes this benchmark exactly reproducible.

Results land in ``BENCH_resume.json`` (redirect with
``BENCH_RESUME_ARTIFACT``) and are gated against
``benchmarks/BASELINE_resume.json``: a resume-ratio regression of more
than 25% versus the committed baseline fails the benchmark job.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.conftest import record_timing
from repro.chaos import FaultPlan
from repro.core.study import StudyConfig, StudyRunner
from repro.errors import ShardExecutionError
from repro.plan import ExecutionOptions

#: where the machine-readable resume benchmark artifact lands
BENCH_RESUME_ARTIFACT = os.environ.get(
    "BENCH_RESUME_ARTIFACT", "BENCH_resume.json"
)

#: committed baseline numbers; >25% regression fails the job
BASELINE_PATH = Path(__file__).parent / "BASELINE_resume.json"
REGRESSION_TOLERANCE = 1.25

#: each side is timed as the fastest of this many runs
REPEATS = 3

#: the acceptance ceiling: resume after ~50% ≤ 60% of the cold run
ACCEPTANCE_RATIO = 0.60

#: one environment per cloud at the paper's largest scale — the regime
#: where losing a campaign to a crash actually hurts
_ENVS = ("cpu-eks-aws", "cpu-aks-az", "cpu-gke-g", "cpu-onprem-a")


def _fastest(run, before=None):
    """Fastest of ``REPEATS`` timed ``run(cache_dir)`` calls, each given
    its own fresh cache directory (first prepared, untimed, by
    ``before(cache_dir)``), and the last call's result."""
    best = float("inf")
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as cache_dir:
            if before is not None:
                before(cache_dir)
            start = time.perf_counter()
            result = run(cache_dir)
            best = min(best, time.perf_counter() - start)
    return best, result


def _config() -> StudyConfig:
    return StudyConfig(
        env_ids=_ENVS, apps=("amg2023", "lammps"), sizes=(128, 256),
        iterations=5, seed=0,
    )


def _halfway_abort_seed(shards) -> int:
    """A chaos seed whose only aborts land in the second half of the plan."""
    half = len(shards) // 2
    for seed in range(5000):
        plan = FaultPlan(abort=0.2, seed=seed)
        rolls = [
            plan._roll("abort", (s.env_id, s.scale, s.world)) for s in shards
        ]
        if not any(rolls[:half]) and rolls[half]:
            return seed
    raise AssertionError("no halfway-interrupting chaos seed found")


def test_bench_resume_after_interrupt_vs_cold():
    """Acceptance: resume at ~50% ≤ 60% of cold, byte-identical."""
    config = _config()
    shards = StudyRunner(config).compile().shards
    half = len(shards) // 2
    seed = _halfway_abort_seed(shards)

    # Warm lazy imports and first-call caches so neither timed side
    # pays the process's one-time costs.
    StudyRunner(StudyConfig.smoke()).run()

    def crash(cache_dir):
        # A deterministic abort just past the halfway shard.
        interrupted = StudyRunner(
            config,
            ExecutionOptions(cache_dir=cache_dir, chaos=FaultPlan(abort=0.2, seed=seed)),
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run()

    t_cold, cold = _fastest(
        lambda cache_dir: StudyRunner(
            config,
            ExecutionOptions(cache_dir=cache_dir),
        ).run()
    )
    t_resume, resumed = _fastest(
        lambda cache_dir: StudyRunner(
            config,
            ExecutionOptions(cache_dir=cache_dir, resume=True),
        ).run(),
        before=crash,
    )

    # Faster, not different: the resumed dataset is byte-identical.
    assert resumed.store.to_csv() == cold.store.to_csv()
    assert resumed.faults is not None
    assert resumed.faults.resumed >= half

    ratio = t_resume / t_cold
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    payload = {
        "schema": 1,
        "campaign": {
            "environments": list(_ENVS),
            "apps": ["amg2023", "lammps"],
            "sizes": [128, 256],
            "iterations": 5,
            "cells": len(shards),
            "interrupted_after": half,
        },
        "resume": {
            "cold_seconds": t_cold,
            "resume_seconds": t_resume,
            "ratio": ratio,
            "speedup": t_cold / t_resume,
            "cells_resumed": resumed.faults.resumed,
        },
        "byte_identical": True,
        "baseline": baseline,
    }
    with open(BENCH_RESUME_ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    record_timing(
        "resume::interrupted_campaign",
        t_resume,
        kind="cost-ratio-claim",
        cold_seconds=t_cold,
        ratio=ratio,
        cells_resumed=resumed.faults.resumed,
    )
    print(
        f"\nresume benchmark: cold {t_cold:.2f}s, resume {t_resume:.2f}s "
        f"-> ratio {ratio:.3f} ({resumed.faults.resumed} of {len(shards)} "
        f"cells re-attached)"
    )

    # The acceptance ceiling...
    assert ratio <= ACCEPTANCE_RATIO, (
        f"resume cost {ratio:.1%} of the cold run "
        f"(acceptance requires <= {ACCEPTANCE_RATIO:.0%})"
    )
    # ...and the CI regression gate against the committed baseline.
    ceiling = baseline["resume_ratio"] * REGRESSION_TOLERANCE
    assert ratio <= ceiling, (
        f"resume ratio {ratio:.3f} regressed more than 25% over the "
        f"committed baseline {baseline['resume_ratio']} (ceiling {ceiling:.3f})"
    )
