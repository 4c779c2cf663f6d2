"""The span and counter registries: every name the codebase may emit.

One flat taxonomy keeps traces summarizable: ``repro trace summarize``
groups self-time by span name, so names must be stable string literals
(never interpolated — varying detail belongs in span *attributes*).  A
lint-style test (``tests/test_telemetry.py``) greps ``src/`` for
``span("...")`` call sites and fails on any name missing here, so the
registry and the instrumentation can never drift apart.  :data:`COUNTERS`
gets the same treatment for literal ``count("...")`` sites; counters
whose names are built per call (the ``cache.<level>.*`` and
``plan.reuse.<field>`` families) are enumerated explicitly below.

Naming convention: ``<layer>.<operation>``, layers ordered roughly by
call depth — campaign orchestration (``campaign``), front-end runners
(``study``/``sweep``/``ensemble``), the planner (``plan``), the process
pool (``pool``), per-cell execution (``shard``), the engine
(``engine``), and the benchmark suite (``bench``).
"""

from __future__ import annotations

#: span name → what the interval covers
SPANS: dict[str, str] = {
    # campaign orchestration (stage spans carry a `stage=...` attribute)
    "campaign.run": "one staged campaign: smoke -> grid -> ab -> select -> publish",
    "campaign.smoke": "the SMOKE stage: low-replica ensemble pruning the search space",
    "campaign.grid": "the GRID stage: full-replica ensemble over the survivors",
    "campaign.ab": "the AB stage: candidate-vs-baseline deltas with Student-t CIs",
    "campaign.select": "the SELECT stage: Pareto frontier and deterministic winner",
    "campaign.publish": "the PUBLISH stage: building the CampaignReport artifact",
    # front-end runners
    "study.run": "one full study campaign, compile through artifact push",
    "study.build_containers": "building and pushing the container matrix",
    "sweep.run": "a scenario sweep: every world, baseline first",
    "ensemble.run": "a Monte-Carlo ensemble: every replica-world, folded",
    "ensemble.world_probe": "probing the world-summary cache for one world",
    "ensemble.fold": "folding one world summary into the streaming stats",
    # the execution planner
    "plan.run": "executing one compiled RunPlan end to end",
    "plan.world": "one world: collecting its shard results (and the caller's fold)",
    "plan.diff": "diffing the plan against its baseline (incremental mode)",
    "plan.attach": "probing the cell cache for every reusable cell",
    "plan.merge": "merging one world's shard results in plan order",
    # the process pool
    "pool.dispatch": "submitting one chunk of shards to the worker pool",
    "pool.drain": "waiting on one in-flight chunk's results",
    "pool.retry": "backing off before re-dispatching a transiently failed shard",
    "pool.requeue": "rebuilding a dead pool and resubmitting undelivered flights",
    "transport.attach": "attaching one shard's shared-memory block as column views",
    # the chaos harness
    "chaos.inject": "injecting one deterministic fault (kind=... attribute)",
    # per-cell execution (worker side)
    "shard.execute": "one (environment, size) cell, start to finish",
    "shard.provision": "quota, cluster provisioning, and environment deploy",
    # the engine
    "engine.run_block": "one (env, app, size) group through the array-native path",
    "engine.resolve_group": "placement, fabric, ECC, and pricing resolution",
    "engine.rng": "batched keyed-stream seeding and hookup draws",
    "engine.physics": "the app model's columnar simulation",
    "engine.price": "walltime policy, spot preemption, and pricing as array math",
    "engine.cache_probe": "probing the run cache for a group's iterations",
    "engine.cache_put": "storing a group's simulated records in the run cache",
    # the benchmark suite
    "bench.run": "the whole benchmark suite",
    "bench.seed": "the per-iteration seed pipeline",
    "bench.block": "the array-native block pipeline",
    "bench.rng": "the keyed-rng component microbenchmark",
    "bench.transport": "the shard-transport component microbenchmark",
}

#: counter name → what it accumulates
COUNTERS: dict[str, str] = {
    # fault tolerance (the resilient pool and resume path)
    "fault.retries": "transient shard failures re-dispatched with backoff",
    "fault.requeues": "flights resubmitted after their pool died under them",
    "fault.rebuilds": "process-pool teardown/rebuild cycles",
    "fault.timeouts": "per-shard deadlines that expired on stragglers",
    "fault.serial_hops": "drops down the workers->serial degradation ladder",
    "fault.injected": "faults attributed to the chaos harness",
    "fault.resumed": "cells re-attached from the checkpoint journal",
    # shared-memory transport
    "transport.blocks": "shared-memory blocks attached by the parent",
    "transport.bytes": "column bytes crossing via shared memory",
    "transport.copied_bytes": "column bytes copied at attach time (zero-copy = 0)",
    "transport.reaped": "orphaned /dev/shm segments swept after dead workers",
    # the cache (levels: run / cell / world)
    "cache.invalid": "unusable cache entries degraded to re-simulation",
    "cache.run.hits": "run-level cache hits",
    "cache.run.misses": "run-level cache misses",
    "cache.run.puts": "run-level cache stores",
    "cache.run.put_bytes": "run-level bytes written",
    "cache.run.hit_bytes": "run-level bytes served",
    "cache.cell.hits": "cell-level cache hits",
    "cache.cell.misses": "cell-level cache misses",
    "cache.cell.puts": "cell-level cache stores",
    "cache.cell.put_bytes": "cell-level bytes written",
    "cache.cell.hit_bytes": "cell-level bytes served",
    "cache.world.hits": "world-summary cache hits",
    "cache.world.misses": "world-summary cache misses",
    "cache.world.puts": "world-summary cache stores",
    "cache.world.put_bytes": "world-summary bytes written",
    "cache.world.hit_bytes": "world-summary bytes served",
    # incremental reuse accounting (mirrors ReuseStats fields)
    "plan.reuse.planned_reusable": "cells the diff classified reusable",
    "plan.reuse.planned_dirty": "cells the diff classified dirty",
    "plan.reuse.attached": "cells attached from the cell-level cache",
    "plan.reuse.executed": "cells dispatched to shard execution",
    "plan.reuse.invalid": "malformed cell entries met on the reuse path",
}
