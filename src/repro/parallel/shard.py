"""Shard planning and execution: one (environment, cluster size) cell each.

The paper deployed a *separate cluster per size* (§2.9), which makes the
campaign embarrassingly parallel at the granularity of one environment
at one cluster size: each cell provisions its own cluster, runs every
configured app for every iteration, and releases the cluster.  Nothing
crosses cell boundaries —

* every stochastic draw is keyed by ``stream(seed, *key-path)`` on the
  cell's own coordinates, never on global call order;
* billing charges depend only on metered *durations*, so a per-cell
  clock starting at zero accrues the same dollars as the serial runner's
  per-cloud running clock;
* quota grants are keyed draws too (grants only ever grow, and every
  cell requests its own padded allocation).

A :class:`StudyShard` is therefore a pure value describing one cell, and
:func:`execute_shard` is a pure function from shard to
:class:`ShardResult` — safe to ship to a worker process and merge back
(:mod:`repro.parallel.merge`) into a result byte-identical to the
serial run.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.cloud.providers import get_provider
from repro.core.incidents import CATEGORIES, Incident, incident_from_fault
from repro.envs.environment import Environment, EnvironmentKind
from repro.envs.registry import ENVIRONMENTS
from repro.errors import ProvisioningError, QuotaError
from repro.k8s.cluster import KubernetesCluster
from repro.k8s.cni import CniConfig
from repro.k8s.daemonsets import (
    AKS_INFINIBAND_INSTALLER,
    EFA_DEVICE_PLUGIN,
    NVIDIA_DEVICE_PLUGIN,
)
from repro.k8s.flux_operator import FluxOperator, MiniClusterSpec
from repro.errors import ConfigurationError
from repro.core.results import ResultStore
from repro.scenarios.apply import overlay_provider
from repro.scenarios.spec import Scenario, active, footprint_digest
from repro.scheduler.queueing import OnPremQueueModel
from repro.sim.cache import RunCache, batch_key, shard_key
from repro.sim.execution import ExecutionEngine, HookupCutoff
from repro.sim.run_result import RunRecord
from repro.telemetry import Tracer, current_tracer, span, use_tracer


@dataclass(frozen=True)
class StudyShard:
    """One independent work unit: an environment at one cluster size."""

    index: int  # position in the serial campaign order
    env_id: str
    scale: int
    apps: tuple[str, ...]
    iterations: int
    seed: int
    cache_dir: str | None = None
    #: what-if overlay (:mod:`repro.scenarios`); ``None`` = baseline.
    #: A pure value like the rest of the shard, so it ships to worker
    #: processes with no extra machinery.
    scenario: Scenario | None = None
    #: which replica-world this cell belongs to when several campaigns
    #: share one flattened work list (:mod:`repro.ensemble`); a plain
    #: label — it never participates in cache keys or simulation.
    world: int = 0
    #: record spans while executing and ship them back on the result
    #: (:mod:`repro.telemetry`); an execution flag only — it never
    #: participates in cache keys or simulation.
    trace: bool = False
    #: 0-based retry attempt, stamped by the pool on re-dispatch; the
    #: chaos harness gates injection on it so retries converge.  Pure
    #: execution bookkeeping — never in cache keys or simulation.
    attempt: int = 0
    #: fault-injection plan (:class:`repro.chaos.FaultPlan`); ``None``
    #: almost always.  Another execution flag: any plan the run
    #: survives yields byte-identical merged results.
    chaos: object | None = None


@dataclass
class ShardResult:
    """Everything one cell produced, ready to merge.

    Run results live in a columnar :class:`ResultStore`: the worker
    fills typed buffers directly (:meth:`ExecutionEngine.run_cell`)
    and the store pickles as raw column arrays — shard transport never
    serializes per-record objects.  :attr:`records` materializes rows
    for callers that still want them.

    A front-end that keeps only per-cell aggregates folds the result
    where the shard ran (``execute_shard(shard, fold=...)``; the
    ensemble's :func:`~repro.ensemble.runner.fold_cells`): :attr:`cells`
    then holds the store's cell rows and :attr:`store` is ``None``, so
    no record crosses the pool.
    """

    index: int
    env_id: str
    scale: int
    world: int = 0
    store: ResultStore | None = field(default_factory=ResultStore)
    #: the store's per-cell aggregate rows, once a fold replaced it
    #: (:meth:`~repro.ensemble.frame.CellAggregates.rows`)
    cells: list[dict] | None = None
    incidents: list[Incident] = field(default_factory=list)
    spend_by_cloud: dict[str, float] = field(default_factory=dict)
    clusters_created: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: malformed cache entries encountered (and re-simulated around)
    cache_invalid: int = 0
    #: why those entries were invalid: reason label → count
    cache_invalid_reasons: dict[str, int] = field(default_factory=dict)
    #: which process executed the cell and in what dispatch order the
    #: pool handed it out (-1 = never went through the pool); pure
    #: observability — merges ignore them
    worker_pid: int = -1
    dispatch_ordinal: int = -1
    #: wall seconds the executing process spent on this cell (``None``
    #: until something measures it — 0.0 is a legitimate measurement)
    worker_seconds: float | None = None
    #: columnar span snapshot recorded while executing (``None`` unless
    #: the shard was dispatched with ``trace=True`` to another process)
    trace: dict | None = None
    #: how many dispatches it took to deliver this result (0 = never
    #: went through the pool's retry machinery); pure observability
    attempts: int = 0

    @property
    def records(self) -> list[RunRecord]:
        """Row objects, materialized lazily from the columnar store."""
        return self.store.records


def plan_shards(
    config,
    *,
    cache_dir: str | None = None,
    scenario: Scenario | None = None,
    world: int = 0,
) -> list[StudyShard]:
    """Split a :class:`~repro.core.study.StudyConfig` into cells.

    Shards are ordered exactly as the serial campaign iterates —
    environments in config order, sizes in environment order — so a
    merge in shard order reproduces the serial dataset ordering.

    ``scenario`` tags every cell with a what-if overlay; an *empty*
    scenario normalizes to ``None`` here, so a baseline-equivalent
    scenario plans (and caches) exactly like no scenario at all.
    ``world`` labels every cell with its replica-world when plans from
    several campaigns are flattened into one work list (the ensemble
    runner regroups results by it).

    One normalization relative to the pre-shard runner: undeployable
    environments used to emit their skip records app-major across sizes;
    as cells they now emit size-major like every deployable environment.
    The record *set* is unchanged, only its order within those rows.
    """
    scenario = active(scenario)
    shards: list[StudyShard] = []
    for env_id in config.env_ids:
        env = ENVIRONMENTS[env_id]
        sizes = config.sizes or env.sizes()
        for scale in sizes:
            shards.append(
                StudyShard(
                    index=len(shards),
                    env_id=env_id,
                    scale=scale,
                    apps=tuple(config.apps),
                    iterations=config.iterations,
                    seed=config.seed,
                    cache_dir=cache_dir,
                    scenario=scenario,
                    world=world,
                )
            )
    return shards


def _deploy_kubernetes(env: Environment, cluster) -> float:
    """Stand up K8s + daemonsets + MiniCluster; returns setup seconds."""
    try:
        kube = KubernetesCluster.create(cluster)
    except ConfigurationError:
        # The 256-node EKS CNI incident: patch for prefix delegation.
        kube = KubernetesCluster.create(
            cluster, cni=CniConfig("aws-vpc-cni", prefix_delegation=True)
        )
    if env.is_gpu:
        kube.deploy_daemonset(NVIDIA_DEVICE_PLUGIN)
    if env.cloud == "aws":
        kube.deploy_daemonset(EFA_DEVICE_PLUGIN)
    if env.cloud == "az":
        kube.deploy_daemonset(AKS_INFINIBAND_INSTALLER)
    operator = FluxOperator(kube)
    fabric_res = None
    if env.cloud == "aws":
        fabric_res = "vpc.amazonaws.com/efa"
    elif env.cloud == "az":
        fabric_res = "rdma/ib"
    spec = MiniClusterSpec(
        name=f"study-{env.env_id}",
        image="study-app-image",
        size=len(kube.nodes),
        tasks_per_node=env.instance().cores,
        gpu_per_pod=env.gpus_per_node if env.is_gpu else 0,
        fabric_resource=fabric_res,
    )
    mc = operator.create(spec)
    return kube.setup_seconds + mc.bringup_seconds


def shard_summary_key(shard: StudyShard, *, azure_ucx_tuned: bool = True) -> str:
    """The cache key of one shard's cell entry: ``<batch>/<cell>``.

    ``<cell>`` is the :func:`~repro.sim.cache.shard_key` of the whole
    cell and ``<batch>`` its :func:`~repro.sim.cache.batch_key` (the same
    coordinates without the app roster and iteration count), so the
    entry is filed in its batch's directory, where a cell of another
    roster reuses its runs (:meth:`~repro.sim.cache.RunCache.batched`).

    The scenario contribution is the shard's per-cell overlay
    *footprint* (:meth:`~repro.scenarios.spec.Scenario.footprint` for
    the cell's cloud), so a cell a scenario cannot touch keys exactly
    like the baseline cell: the executor attaches such a cell from the
    entry the baseline run wrote without dispatching it to a worker
    (:func:`attach_shard`), and :mod:`repro.plan.diff` predicts which
    cells those are.
    """
    coordinates = dict(
        seed=shard.seed,
        env_id=shard.env_id,
        scale=shard.scale,
        engine_options={"azure_ucx_tuned": azure_ucx_tuned},
        scenario=footprint_digest(shard.scenario, ENVIRONMENTS[shard.env_id].cloud),
    )
    cell = shard_key(apps=shard.apps, iterations=shard.iterations, **coordinates)
    return f"{batch_key(**coordinates)}/{cell}"


def _shard_cache_key(shard: StudyShard, engine: ExecutionEngine) -> str:
    # Derive the engine options from the engine actually executing the
    # cell so the cell-level key invalidates exactly when run-level keys
    # do.  The engine's scenario is the shard's own (execute_shard built
    # it that way), so the summary key *is* the cell key.
    return shard_summary_key(shard, azure_ucx_tuned=engine.azure_ucx_tuned)


def attach_shard(shard: StudyShard, cache: RunCache) -> ShardResult | None:
    """A shard's cached result, or ``None`` when it must execute.

    The one reader of a cell's own entry: the plan executor probes every
    cell of a cached plan here, in the parent, before dispatch
    (:meth:`~repro.plan.executor.PlanExecutor._attach`), and a hit
    rebuilds the :class:`ShardResult` without provisioning, simulation,
    or a worker round-trip.  A malformed entry flows through
    :meth:`RunCache.note_invalid` (the caller surfaces the counter) and
    returns ``None`` — reuse degrades to re-execution, never to silence.
    """
    cell_key = shard_summary_key(shard)
    cached = cache.get_columns(cell_key, kind="cell")
    if cached is None:
        return None
    try:
        return _decode_shard(shard, *cached)
    except (KeyError, TypeError, ValueError) as exc:
        cache.note_invalid(cell_key, f"study-cell entry malformed: {exc}")
        return None


def _encode_shard(result: ShardResult) -> dict:
    """The header fields a cell entry adds to the shard's columns."""
    return {
        "incidents": [
            {
                "env_ids": list(i.env_ids),
                "category": i.category,
                "effort_minutes": i.effort_minutes,
                "description": i.description,
                "source": i.source,
            }
            for i in result.incidents
        ],
        "spend_by_cloud": result.spend_by_cloud,
        "clusters_created": result.clusters_created,
    }


def _decode_incident(data: dict) -> Incident:
    incident = Incident(
        env_ids=tuple(data["env_ids"]),
        category=data["category"],
        effort_minutes=data["effort_minutes"],
        description=data["description"],
        source=data["source"],
    )
    texts = (*incident.env_ids, incident.description, incident.source)
    if (
        incident.category not in CATEGORIES
        or type(incident.effort_minutes) not in (int, float)
        or not all(isinstance(text, str) for text in texts)
    ):
        raise ValueError(f"bad incident {data!r}")
    return incident


def _decode_shard(shard: StudyShard, store: ResultStore, header: dict) -> ShardResult:
    """A cell entry's store and header as the shard's result; every header
    field is checked, so a malformed one raises ``ValueError``,
    ``TypeError`` or ``KeyError`` here rather than failing later."""
    clusters = header["clusters_created"]
    spend = dict(header["spend_by_cloud"])
    if type(clusters) is not int or not all(
        isinstance(cloud, str) and type(dollars) in (int, float)
        for cloud, dollars in spend.items()
    ):
        raise ValueError(f"clusters_created {clusters!r}, spend_by_cloud {spend!r}")
    return ShardResult(
        index=shard.index,
        env_id=shard.env_id,
        scale=shard.scale,
        world=shard.world,
        store=store,
        incidents=[_decode_incident(i) for i in header["incidents"]],
        spend_by_cloud=spend,
        clusters_created=clusters,
        cache_hits=len(store),
    )


def execute_shard(
    shard: StudyShard,
    fold: Callable[[ShardResult], ShardResult] | None = None,
) -> ShardResult:
    """Run one cell start to finish; pure in (shard) → (result).

    With a cache directory configured, the cell leaves one entry, under
    its :func:`shard_summary_key`, that serves two levels.  A repeat of
    the cell attaches it whole, in the parent, before the cell would
    dispatch (:func:`attach_shard`), skipping provisioning and
    Kubernetes bring-up too.  A later cell of the same batch, under
    another app roster or iteration count, reuses its runs: this
    function executes every cell inside the engine's
    :meth:`~repro.sim.execution.ExecutionEngine.cache_scope`.  The entry
    is only written here.

    ``fold`` reduces the result where the shard ran, after its cell
    entry is written and inside the ``shard.execute`` span: a pool
    worker returns only what the front-end keeps (the ensemble passes
    :func:`~repro.ensemble.runner.fold_cells`).

    When the shard is dispatched with ``trace=True`` and no tracer is
    active (i.e. in a worker process), a local
    :class:`~repro.telemetry.Tracer` records the cell and its snapshot
    rides back on the result; under an already-active tracer (inline
    execution in the parent) spans record directly into it instead.
    Timing never feeds the result — traced and untraced runs produce
    byte-identical stores.
    """
    if shard.chaos is not None:
        from repro.chaos import inject_before_execute

        inject_before_execute(shard)
    active = current_tracer()
    if shard.trace and (active is None or active.pid != os.getpid()):
        # No tracer here, or a stale one inherited across fork: this is
        # a worker process, so record locally and ship the snapshot back
        # on the result.  (Inline execution — same pid — records
        # straight into the parent's tracer instead.)
        tracer = Tracer(label=f"worker-{os.getpid()}")
        t0 = time.perf_counter()
        with use_tracer(tracer):
            result = _execute_and_fold(shard, fold)
        result.trace = tracer.snapshot()
        result.worker_seconds = time.perf_counter() - t0
        return result
    return _execute_and_fold(shard, fold)


def _execute_and_fold(shard: StudyShard, fold) -> ShardResult:
    with span("shard.execute", env=shard.env_id, scale=shard.scale,
              world=shard.world):
        result = _execute_shard_body(shard)
        return result if fold is None else fold(result)


def _execute_shard_body(shard: StudyShard) -> ShardResult:
    env = ENVIRONMENTS[shard.env_id]
    scn = active(shard.scenario)
    cache = RunCache(shard.cache_dir) if shard.cache_dir else None
    engine = ExecutionEngine(seed=shard.seed, cache=cache, scenario=scn)
    if cache is None:
        return _execute_shard_cell(shard, env, scn, cache, engine)
    # The cell's run level: run_cell reuses the runs the other cell
    # entries of its batch hold.
    with engine.cache_scope(_shard_cache_key(shard, engine)):
        return _execute_shard_cell(shard, env, scn, cache, engine)


def _execute_shard_cell(shard, env, scn, cache, engine) -> ShardResult:
    result = ShardResult(
        index=shard.index, env_id=shard.env_id, scale=shard.scale, world=shard.world
    )

    if not env.deployable:
        # Record one skip per app so the dataset shows the missing
        # environment.
        engine.run_cell(env, shard.apps, shard.scale, iterations=1, store=result.store)
        _finish_shard(shard, result, cache, engine)
        return result

    nodes = env.nodes_for(shard.scale)
    cloud = env.cloud
    now = 0.0
    provider = None
    cluster = None

    with span("shard.provision", env=env.env_id, scale=shard.scale):
        if cloud == "p":
            # On-prem: no provisioning; jobs wait in the shared queue.
            queue = OnPremQueueModel(
                cluster_nodes=1544 if not env.is_gpu else 795,
                seed=shard.seed,
            )
            now += queue.sample_wait(nodes)
        else:
            provider = overlay_provider(get_provider(cloud, seed=shard.seed), scn)
            itype = env.instance()
            # Quota requests are retried until granted — the paper's AWS
            # GPU saga (§3.1): the reservation was denied repeatedly and
            # "eventually" granted as a 48-hour block at month's end.  A
            # scenario that touches the cell caps the saga at 10 requests;
            # a cell it cannot touch shares the baseline cell's cache key,
            # so it must simulate exactly like it.
            capped = scn is not None and scn.footprint(cloud) is not None
            grant = None
            for attempt in range(10) if capped else itertools.count():
                try:
                    grant = provider.request_quota(itype.name, nodes + 1, attempt=attempt)
                    break
                except QuotaError:
                    pass
            if grant is None:
                # Under a quota-squeeze scenario a cell can be denied
                # outright; the counterfactual outcome is an abandoned cell
                # (skip records + an effort incident), not a crashed study.
                _abandon_cell_for_quota(shard, result, engine, env, itype.name, scn)
                _finish_shard(shard, result, cache, engine)
                return result
            if (
                scn is not None
                and scn.quota is not None
                and (scn.quota.clouds is None or cloud in scn.quota.clouds)
                and grant.delay_days > 0
            ):
                # A squeezed world charges the wait: daily status checks
                # while the grant sits in the cloud's queue (the paper's AWS
                # GPU request took weeks and landed as a 48-hour block).
                result.incidents.append(
                    Incident(
                        env_ids=(env.env_id,),
                        category="setup",
                        effort_minutes=15.0 * grant.delay_days,
                        description=(
                            f"waited {grant.delay_days:.1f} days for "
                            f"{itype.name} quota (checked in daily)"
                        ),
                        source=f"scenario:{scn.scenario_id}:quota-wait",
                    )
                )
            kind = "k8s" if env.kind is EnvironmentKind.K8S else "vm"
            try:
                cluster = provider.provision_cluster(
                    itype.name, nodes, environment_kind=kind, now=now
                )
            except ProvisioningError:
                # Retry once; the stall already charged the meter.
                cluster = provider.provision_cluster(
                    itype.name, nodes, environment_kind=kind, now=now, attempt=1
                )
            result.clusters_created += 1
            for event in cluster.fault_events:
                result.incidents.append(incident_from_fault(env.env_id, event))
            now += cluster.ready_time
            if env.kind is EnvironmentKind.K8S:
                now += _deploy_kubernetes(env, cluster)

    # §3.3: AKS CPU 256 ran a single iteration because hookup took
    # 8.82 minutes.
    aks_single_iteration = HookupCutoff(env_id="cpu-aks-az", scale=256, threshold_s=300.0)

    # One block for the cell's whole roster: the engine resolves
    # placement/fabric/pricing and seeds the keyed draws once, and
    # computes every app as array math straight into the shard's
    # columnar store.  The clock advances app by app, each by its runs'
    # record-order total, so billing sees the per-record floats.
    outcomes = engine.run_cell(
        env,
        shard.apps,
        shard.scale,
        iterations=shard.iterations,
        store=result.store,
        stop=aks_single_iteration,
    )
    for outcome in outcomes:
        now += outcome.total_seconds

    if scn is not None and scn.spot is not None:
        # Every reclaim cost somebody a resubmission: charge the effort.
        for record in result.records:
            if record.failure_kind == "spot-preemption":
                result.incidents.append(
                    Incident(
                        env_ids=(env.env_id,),
                        category="manual_intervention",
                        effort_minutes=20.0,
                        description=(
                            f"spot node reclaimed mid-run: {record.app} at "
                            f"scale {record.scale}, iteration {record.iteration}"
                        ),
                        source=f"scenario:{scn.scenario_id}:spot",
                    )
                )

    if provider is not None:
        provider.release_cluster(cluster, now=now)
        result.spend_by_cloud[cloud] = provider.spend()
        if (
            scn is not None
            and scn.reporting is not None
            and cloud in dict(scn.reporting.lag_hours)
        ):
            # §4.2: lagged reporting means dollars spent here are not
            # yet on the console at teardown — someone has to reconcile
            # the bill later (and eat any overspend meanwhile).  Only
            # clouds whose lag the scenario actually shifts are charged.
            unreported = provider.spend() - provider.meter.reported(now, cloud)
            if unreported > 0.005:
                result.incidents.append(
                    Incident(
                        env_ids=(env.env_id,),
                        category="manual_intervention",
                        effort_minutes=45.0,
                        description=(
                            f"${unreported:,.2f} of {cloud} spend invisible on "
                            f"the console at cluster teardown (reporting lag "
                            f"{provider.meter.lag_hours_for(cloud):.0f}h); "
                            "reconciled against receipts later"
                        ),
                        source=f"scenario:{scn.scenario_id}:billing-lag",
                    )
                )
    _finish_shard(shard, result, cache, engine)
    return result


def _abandon_cell_for_quota(
    shard: StudyShard,
    result: ShardResult,
    engine: ExecutionEngine,
    env: Environment,
    instance_type: str,
    scn: Scenario,
) -> None:
    """Record a cell whose quota was never granted under a scenario."""
    result.incidents.append(
        Incident(
            env_ids=(env.env_id,),
            category="manual_intervention",
            effort_minutes=240.0,
            description=(
                f"{instance_type} quota denied after 10 requests; "
                f"cell ({env.env_id}, {shard.scale}) abandoned"
            ),
            source=f"scenario:{scn.scenario_id}:quota",
        )
    )
    for app_name in shard.apps:
        result.store.add(
            engine.skipped(env, app_name, shard.scale, reason="quota denied")
        )


def _finish_shard(
    shard: StudyShard,
    result: ShardResult,
    cache: RunCache | None,
    engine: ExecutionEngine,
) -> None:
    if cache is None:
        return
    result.cache_hits = cache.hits
    result.cache_misses = cache.misses
    result.cache_invalid = cache.invalid
    result.cache_invalid_reasons = dict(cache.invalid_reasons)
    cell_key = _shard_cache_key(shard, engine)
    cache.put_columns(cell_key, result.store, kind="cell", **_encode_shard(result))
    if shard.chaos is not None:
        from repro.chaos import corrupt_after_store

        corrupt_after_store(shard, cache, cell_key)
