"""The vectorized iteration axis: block pipeline + component receipts.

PR 5's performance claim, measured on the same ≥10k-record campaign the
plan benchmarks use: the array-native block path —
:func:`~repro.rng.stream_block` batched keyed RNG,
:meth:`~repro.apps.base.AppModel.simulate_block` columnar app physics,
:meth:`~repro.sim.execution.ExecutionEngine.run_block` array pricing /
walltime / preemption, and :meth:`~repro.core.results.ResultStore.append_block`
straight into the typed buffers — is at least **6x** the seed
per-iteration path, with records and aggregates byte-identical (the
suite refuses to report speedups otherwise).

The seed side is one :meth:`~repro.sim.execution.ExecutionEngine.run`
call per record.  Each is a one-iteration block on the same physics,
so the ratio is what batching the iteration axis saves a caller that
loops over iterations one run at a time.

Results land in ``BENCH_vector.json`` (redirect with
``BENCH_VECTOR_ARTIFACT``) and are gated against
``benchmarks/BASELINE_vector.json``: a regression of more than 25%
versus the committed baseline speedups fails the benchmark job.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from benchmarks.conftest import record_timing
from repro.bench import render_table, run_bench, write_artifact

#: where the machine-readable vector benchmark artifact lands
BENCH_VECTOR_ARTIFACT = os.environ.get("BENCH_VECTOR_ARTIFACT", "BENCH_vector.json")

#: committed baseline numbers; >25% regression fails the job
BASELINE_PATH = Path(__file__).parent / "BASELINE_vector.json"
REGRESSION_TOLERANCE = 1.25

#: the acceptance floor for the block pipeline vs the seed path
BLOCK_SPEEDUP_FLOOR = 6.0


def test_bench_block_pipeline_vs_seed_path():
    """Acceptance: ≥6x block pipeline at ≥10k records, byte-identical."""
    payload = run_bench()
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    payload["baseline"] = baseline
    write_artifact(payload, BENCH_VECTOR_ARTIFACT)
    print()
    print(render_table(payload))

    pipeline = payload["pipeline"]
    assert payload["campaign"]["records"] >= 10_000
    assert payload["byte_identical"]

    record_timing(
        "vector::block_pipeline",
        pipeline["block_seconds"],
        kind="speedup-claim",
        records=payload["campaign"]["records"],
        seed_seconds=pipeline["seed_seconds"],
        speedup=pipeline["block_speedup"],
    )
    record_timing(
        "vector::stream_block",
        payload["rng"]["block_seconds"],
        kind="speedup-claim",
        scalar_seconds=payload["rng"]["scalar_seconds"],
        speedup=payload["rng"]["speedup"],
    )

    # The acceptance floor...
    assert pipeline["block_speedup"] >= BLOCK_SPEEDUP_FLOOR, (
        f"block pipeline only {pipeline['block_speedup']:.2f}x vs the seed path"
    )
    # ...and the CI regression gates against the committed baseline.
    floor = baseline["block_speedup"] / REGRESSION_TOLERANCE
    assert pipeline["block_speedup"] >= floor, (
        f"block hot path regressed: {pipeline['block_speedup']:.2f}x < "
        f"{floor:.2f}x (baseline {baseline['block_speedup']}x / 1.25)"
    )
    rng_floor = baseline["rng_speedup"] / REGRESSION_TOLERANCE
    assert payload["rng"]["speedup"] >= rng_floor, (
        f"stream_block regressed: {payload['rng']['speedup']:.2f}x < {rng_floor:.2f}x"
    )
    # Transport must stay columnar-compact: the store's pickle may never
    # fall back to per-record size.
    transport_floor = baseline["transport_bytes_ratio"] / REGRESSION_TOLERANCE
    assert payload["transport"]["bytes_ratio"] >= transport_floor, (
        f"shard transport regressed: {payload['transport']['bytes_ratio']:.2f}x "
        f"< {transport_floor:.2f}x smaller than record-list pickling"
    )
