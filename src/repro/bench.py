"""The vectorization benchmark suite (``repro bench``).

Measures the execution hot path against a caller that runs one record
at a time, on one paper-scale campaign (~10.5k records across 4
environments × all apps × the study's 4 sizes):

* **seed** — the per-iteration path: one :meth:`ExecutionEngine.run`
  call per record (each a one-iteration block on the same physics),
  row-based fold (``ResultFrame.from_records``);
* **block** — the array-native path: one :meth:`ExecutionEngine.run_block`
  per group (batched keyed RNG, columnar app physics, ``append_block``),
  zero-copy fold.

Both pipelines produce byte-identical records and aggregates — the
suite verifies that before it reports a single number — so the speedup
is what batching the iteration axis saves.  Component microbenchmarks (keyed-stream
seeding, store appends, shard transport pickling) localize where the
time went.

Used by the ``repro bench`` CLI subcommand and by
``benchmarks/test_bench_vector.py``, which gates the block-path
speedups against ``benchmarks/BASELINE_vector.json`` in CI.
"""

from __future__ import annotations

import json
import math
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.results import ResultStore
from repro.ensemble.frame import ResultFrame
from repro.envs.registry import ENVIRONMENTS
from repro.rng import stream, stream_block
from repro.sim.execution import ExecutionEngine
from repro.telemetry import span


@dataclass(frozen=True)
class BenchCampaign:
    """The campaign a benchmark run simulates."""

    envs: tuple[str, ...] = ("cpu-eks-aws", "cpu-onprem-a", "gpu-gke-g", "cpu-aks-az")
    scales: tuple[int, ...] = (32, 64, 128, 256)
    apps: tuple[str, ...] = ()  # empty = every registered app
    target_records: int = 10_500
    #: each side is the fastest of at least ``repeats`` runs, and of as
    #: many more as fit in ``min_seconds``: a short side (the block
    #: pipeline, ~0.1 s) is timed many times, the seed side ~3 times
    repeats: int = 3
    min_seconds: float = 1.0

    def resolved_apps(self) -> tuple[str, ...]:
        if self.apps:
            return self.apps
        from repro.apps.registry import APPS

        return tuple(APPS)

    def iterations(self) -> int:
        cells = len(self.envs) * len(self.resolved_apps()) * len(self.scales)
        return max(1, math.ceil(self.target_records / cells))

    def cells(self):
        for env_id in self.envs:
            env = ENVIRONMENTS[env_id]
            for app in self.resolved_apps():
                for scale in self.scales:
                    yield env, app, scale


#: a small campaign for smoke runs (``repro bench --quick``)
QUICK_CAMPAIGN = BenchCampaign(
    envs=("cpu-eks-aws", "cpu-aks-az"),
    scales=(32, 64),
    apps=("lammps", "amg2023", "osu"),
    target_records=240,
    repeats=1,
    min_seconds=0.0,
)


def _best_of(fn: Callable, repeats: int, min_seconds: float = 0.0):
    """``(fastest seconds, last result)`` of at least ``repeats`` calls,
    calling again until the calls add up to ``min_seconds``."""
    best, result, calls, spent = math.inf, None, 0, 0.0
    while calls < repeats or spent < min_seconds:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best, calls, spent = min(best, elapsed), calls + 1, spent + elapsed
    return best, result


def _seed_pipeline(campaign: BenchCampaign):
    engine = ExecutionEngine(seed=0)
    iterations = campaign.iterations()
    records = []
    for env, app, scale in campaign.cells():
        for i in range(iterations):
            records.append(engine.run(env, app, scale, iteration=i))
    return records, ResultFrame.from_records(records).cell_aggregates()


def _block_pipeline(campaign: BenchCampaign):
    engine = ExecutionEngine(seed=0)
    iterations = campaign.iterations()
    store = ResultStore()
    for env, app, scale in campaign.cells():
        engine.run_block(env, app, scale, iterations=iterations, store=store)
    return store, store.to_frame().cell_aggregates()


def _rng_bench(n: int = 5_000, repeats: int = 2, min_seconds: float = 0.0) -> dict:
    """Keyed-stream draws: per-iteration construction vs one block."""

    def _scalar():
        return np.array(
            [stream(0, "bench", "rng", i).normal(1.0, 0.1) for i in range(n)]
        )

    def _block():
        return stream_block(0, "bench", "rng", iterations=n).normal(1.0, 0.1)

    t_scalar, a = _best_of(_scalar, repeats, min_seconds)
    t_block, b = _best_of(_block, repeats, min_seconds)
    assert np.array_equal(a, b), "stream_block diverged from stream()"
    return {
        "streams": n,
        "scalar_seconds": t_scalar,
        "block_seconds": t_block,
        "speedup": t_scalar / t_block,
    }


def _transport_bench(store: ResultStore) -> dict:
    """Shard transport: columnar store pickle vs per-record pickle."""
    records = store.records
    t_records, payload_records = _best_of(lambda: pickle.dumps(records), 2)
    t_store, payload_store = _best_of(lambda: pickle.dumps(store), 2)
    assert pickle.loads(payload_store).records == records
    return {
        "records": len(records),
        "record_list_bytes": len(payload_records),
        "store_bytes": len(payload_store),
        "record_list_seconds": t_records,
        "store_seconds": t_store,
        "bytes_ratio": len(payload_records) / len(payload_store),
    }


# -- the shard-transport benchmark (``repro bench --transport``) ------------


def _synthetic_store(
    n_records: int, *, cells: int = 128, spill_bytes=None
) -> ResultStore:
    """A deterministic ~``n_records`` store built through the block path.

    ``cells`` synthetic (env, app, size) groups of equal iteration
    count, appended via :meth:`ResultStore.append_block` — the same sink
    a real campaign shard fills, so the transported payload has the
    production column layout (typed buffers plus segmented payload
    columns).
    """
    iterations = max(1, n_records // cells)
    store = ResultStore(spill_bytes=spill_bytes)
    iteration = np.arange(iterations, dtype=np.int64)
    state = np.zeros(iterations, dtype=np.int8)
    fom_none = np.zeros(iterations, dtype=bool)
    for cell in range(cells):
        rng = np.random.default_rng(cell)
        store.append_block(
            env_id=f"bench-{cell % 8}",
            app=f"app-{cell % 4}",
            scale=32 << (cell % 4),
            nodes=32 << (cell % 4),
            iteration=iteration,
            state=state,
            fom=rng.normal(100.0, 5.0, iterations),
            fom_none=fom_none,
            wall_seconds=rng.uniform(30.0, 90.0, iterations),
            hookup_seconds=rng.uniform(0.5, 3.0, iterations),
            cost_usd=rng.uniform(1.0, 8.0, iterations),
            fom_units="figure-of-merit/s",
            failure_kind=None,
            phases={"main": 1.0},
            extra={},
        )
    return store


def _ship(blob: bytes) -> bytes:
    """Ship ``blob`` through a socketpair, 1 MiB chunks, and collect it
    (a model of the pool's result pipe)."""
    import socket
    import threading

    rx, tx = socket.socketpair()
    def _send() -> None:
        try:
            tx.sendall(blob)
        finally:
            tx.close()

    sender = threading.Thread(target=_send)
    sender.start()
    chunks = []
    while True:
        chunk = rx.recv(1 << 20)
        if not chunk:
            break
        chunks.append(chunk)
    rx.close()
    sender.join()
    return b"".join(chunks)


def _vm_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _peak_rss_build(n_records: int, *, spill_bytes) -> int:
    """Peak resident-set growth (kB) while building one store.

    Meaningful only on a fresh heap — run it through
    :func:`_peak_rss_fresh`, which forks a clean interpreter, so freed
    arenas from earlier phases can't absorb the build's allocations and
    mask the growth.
    """
    base = _vm_rss_kb()
    peak = 0
    iterations = max(1, n_records // 128)
    store = ResultStore(spill_bytes=spill_bytes)
    iteration = np.arange(iterations, dtype=np.int64)
    state = np.zeros(iterations, dtype=np.int8)
    fom_none = np.zeros(iterations, dtype=bool)
    for cell in range(128):
        rng = np.random.default_rng(cell)
        store.append_block(
            env_id=f"bench-{cell % 8}",
            app=f"app-{cell % 4}",
            scale=32,
            nodes=32,
            iteration=iteration,
            state=state,
            fom=rng.normal(100.0, 5.0, iterations),
            fom_none=fom_none,
            wall_seconds=rng.uniform(30.0, 90.0, iterations),
            hookup_seconds=rng.uniform(0.5, 3.0, iterations),
            cost_usd=rng.uniform(1.0, 8.0, iterations),
            fom_units="figure-of-merit/s",
            failure_kind=None,
            phases={"main": 1.0},
            extra={},
        )
        peak = max(peak, _vm_rss_kb() - base)
    peak = max(peak, _vm_rss_kb() - base)
    del store
    return max(peak, 1)


def _peak_rss_fresh(n_records: int, *, spill_bytes) -> int:
    """Run :func:`_peak_rss_build` in a fresh interpreter; peak kB."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "from repro.bench import _peak_rss_build\n"
        f"print(_peak_rss_build({n_records}, spill_bytes={spill_bytes!r}))\n"
    )
    env = dict(os.environ)
    root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return int(out.stdout.strip().splitlines()[-1])


def run_transport_bench(
    n_records: int = 1_000_000, repeats: int = 3, spill_mb: float = 1.0
) -> dict:
    """The shard-transport benchmark: one store's trip across the pool.

    Round-trips one ~``n_records`` columnar store the way the pool ships
    a shard result — pickled, sent through a socketpair, unpickled — and
    asserts byte-identical columns before reporting numbers.  Worker-side
    *pack* time (overlapped across the pool in production) and
    parent-side *drain* time (the merge process's serial receive +
    materialize) are reported separately.  A second section builds the
    same store in-RAM and spill-backed and compares peak RSS.

    Used by ``repro bench --transport`` and gated in CI by
    ``benchmarks/test_bench_transport.py``.
    """
    with span("bench.transport", records=n_records):
        store = _synthetic_store(n_records)
        reference = {
            name: np.asarray(col) for name, col in store.frame_columns().items()
        }
        t_pack, blob = _best_of(lambda: pickle.dumps(store), repeats)
        t_drain = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            arrived = pickle.loads(_ship(blob))
            t_drain = min(t_drain, time.perf_counter() - start)
        for name, col in arrived.frame_columns().items():
            assert np.array_equal(np.asarray(col), reference[name]), (
                f"transport diverged on column {name!r}"
            )
        del arrived, reference, store

        ram_peak_kb = _peak_rss_fresh(n_records, spill_bytes=None)
        spill_peak_kb = _peak_rss_fresh(
            n_records, spill_bytes=int(spill_mb * 1e6)
        )

        return {
            "schema": 2,
            "records": n_records,
            "repeats": repeats,
            "pack_seconds": t_pack,
            "drain_seconds": t_drain,
            "pipe_bytes": len(blob),
            "byte_identical": True,
            "spill": {
                "threshold_mb": spill_mb,
                "ram_peak_kb": ram_peak_kb,
                "spill_peak_kb": spill_peak_kb,
                "rss_ratio": spill_peak_kb / ram_peak_kb,
            },
        }


def render_transport_table(payload: dict) -> str:
    """The human-readable section ``repro bench --transport`` prints."""
    sp = payload["spill"]
    return "\n".join([
        f"transport: {payload['records']} records round-tripped "
        f"(best of {payload['repeats']}; drain = the merge process's "
        "serial receive + materialize)",
        "",
        f"{'pack s':>10}{'drain s':>10}{'pipe bytes':>14}",
        f"{payload['pack_seconds']:>10.3f}{payload['drain_seconds']:>10.3f}"
        f"{payload['pipe_bytes']:>14,}",
        "columns byte-identical after the round trip",
        "",
        f"out-of-core build ({sp['threshold_mb']:g} MB spill threshold):",
        f"  in-RAM peak RSS : {sp['ram_peak_kb']:,} kB",
        f"  spilled peak RSS: {sp['spill_peak_kb']:,} kB "
        f"({sp['rss_ratio']:.2f}x of in-RAM)",
    ])


def run_bench(campaign: BenchCampaign | None = None) -> dict:
    """Run the suite; returns the JSON-safe payload the table renders.

    Verifies byte-identical records and aggregates across both
    pipelines before reporting the speedup.
    """
    campaign = campaign or BenchCampaign()
    with span("bench.run", records=campaign.target_records, repeats=campaign.repeats):
        at_least = (campaign.repeats, campaign.min_seconds)
        with span("bench.seed", repeats=campaign.repeats):
            t_seed, (records, agg_seed) = _best_of(lambda: _seed_pipeline(campaign), *at_least)
        with span("bench.block", repeats=campaign.repeats):
            t_block, (store_v, agg_v) = _best_of(lambda: _block_pipeline(campaign), *at_least)
        return _fold_bench(campaign, t_seed, t_block, records, store_v, agg_seed, agg_v)


def _fold_bench(campaign, t_seed, t_block, records, store_v, agg_seed, agg_v) -> dict:
    # Faster, not different.
    assert store_v.records == records, "block pipeline diverged from seed"
    assert agg_v.rows() == agg_seed.rows()

    with span("bench.rng"):
        rng = _rng_bench(min_seconds=campaign.min_seconds)
    with span("bench.transport", records=len(records)):
        transport = _transport_bench(store_v)

    return {
        "schema": 1,
        "campaign": {
            "records": len(records),
            "environments": list(campaign.envs),
            "apps": list(campaign.resolved_apps()),
            "scales": list(campaign.scales),
            "iterations": campaign.iterations(),
            "repeats": campaign.repeats,
            "min_seconds": campaign.min_seconds,
        },
        "pipeline": {
            "seed_seconds": t_seed,
            "block_seconds": t_block,
            "block_speedup": t_seed / t_block,
        },
        "rng": rng,
        "transport": transport,
        "byte_identical": True,
    }


def render_table(payload: dict) -> str:
    """The human-readable speedup table ``repro bench`` prints."""
    c = payload["campaign"]
    p = payload["pipeline"]
    r = payload["rng"]
    t = payload["transport"]
    lines = [
        f"campaign: {c['records']} records "
        f"({len(c['environments'])} envs x {len(c['apps'])} apps x "
        f"{len(c['scales'])} sizes x {c['iterations']} iterations)",
        "",
        f"{'pipeline':<28}{'seconds':>10}{'speedup':>10}",
        f"{'seed (per-iteration)':<28}{p['seed_seconds']:>10.3f}{1.0:>9.2f}x",
        f"{'block (run_block)':<28}{p['block_seconds']:>10.3f}{p['block_speedup']:>9.2f}x",
        "",
        f"{'component':<28}{'':>10}{'speedup':>10}",
        f"{'keyed rng (stream_block)':<28}{'':>10}{r['speedup']:>9.2f}x",
        f"{'transport bytes (columnar)':<28}{'':>10}{t['bytes_ratio']:>9.2f}x",
        "",
        "records and aggregates byte-identical across both pipelines",
    ]
    # Present only when the run was traced (`repro bench --trace FILE`).
    phases = payload.get("phases")
    if phases:
        lines.append("")
        lines.append(f"{'phase (self-time)':<28}{'seconds':>10}{'share':>10}")
        for row in phases:
            lines.append(
                f"{row['phase']:<28}{row['self_s']:>10.3f}"
                f"{row['self_pct']:>9.1f}%"
            )
    return "\n".join(lines)


def write_artifact(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
