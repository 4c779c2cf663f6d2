"""Shard transport round trip + out-of-core stores: the acceptance gate.

Measured on a ~1M-record columnar store built through the production
block path:

* the store survives the pool's wire format — pickled columns shipped
  through a socketpair and unpickled — with every column byte-identical;
  the worker-side pack and parent-side drain seconds are recorded;
* building the same store **spill-backed**
  (:data:`~repro.core.results.SPILL_ENV`) peaks at no more than **1/4**
  of the in-RAM build's resident set.

Results land in ``BENCH_transport.json`` (redirect with
``BENCH_TRANSPORT_ARTIFACT``) and are gated against
``benchmarks/BASELINE_transport.json``: a regression of more than 25%
versus the committed baseline fails the benchmark job.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from benchmarks.conftest import record_timing
from repro.bench import render_transport_table, run_transport_bench, write_artifact

#: where the machine-readable transport benchmark artifact lands
BENCH_TRANSPORT_ARTIFACT = os.environ.get(
    "BENCH_TRANSPORT_ARTIFACT", "BENCH_transport.json"
)

#: committed baseline numbers; >25% regression fails the job
BASELINE_PATH = Path(__file__).parent / "BASELINE_transport.json"
REGRESSION_TOLERANCE = 1.25

#: the spilled build's acceptance ceiling, as a fraction of the in-RAM
#: build's peak RSS
SPILL_RSS_CEILING = 0.25


def test_bench_transport_round_trip_and_spill():
    """Acceptance: byte-identical round trip at ~1M records, spill RSS ≤ 1/4."""
    payload = run_transport_bench(n_records=1_000_000)
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    payload["baseline"] = baseline
    write_artifact(payload, BENCH_TRANSPORT_ARTIFACT)
    print()
    print(render_transport_table(payload))

    assert payload["byte_identical"]

    record_timing(
        "transport::drain",
        payload["drain_seconds"],
        kind="measurement",
        records=payload["records"],
        pack_seconds=payload["pack_seconds"],
        pipe_bytes=payload["pipe_bytes"],
    )
    record_timing(
        "transport::spill_rss",
        payload["spill"]["spill_peak_kb"],
        kind="memory-claim",
        ram_peak_kb=payload["spill"]["ram_peak_kb"],
        rss_ratio=payload["spill"]["rss_ratio"],
    )

    # The acceptance ceiling...
    assert payload["spill"]["rss_ratio"] <= SPILL_RSS_CEILING, (
        f"spilled build peaked at {payload['spill']['rss_ratio']:.2f}x of "
        f"in-RAM (ceiling {SPILL_RSS_CEILING})"
    )
    # ...and the CI regression gate against the committed baseline.
    ceiling = baseline["spill_rss_ratio"] * REGRESSION_TOLERANCE
    assert payload["spill"]["rss_ratio"] <= ceiling, (
        f"spilled build regressed: RSS ratio {payload['spill']['rss_ratio']:.2f} "
        f"> {ceiling:.2f} (baseline {baseline['spill_rss_ratio']} * 1.25)"
    )
