"""The execution engine: environment + app + scale → run record.

:class:`ExecutionEngine` performs, for each run, what the study's
orchestration did for each job:

1. resolve the environment's placement at this size (and hence the
   *effective* fabric via the topology model);
2. apply the container stack's fabric state (an untuned Azure UCX image
   carries the latency quirk; tuned images do not — the engine assumes
   the study's final, tuned containers unless told otherwise);
3. sample the hookup time (Azure's anomaly lives here);
4. run the application model;
5. apply the walltime policy (cloud runs had to finish within the
   budget-dictated window; §3.3 gives 15–20 minutes for Laghos) and
   the app's own failure modes;
6. price the run (nodes × instance cost × wall time).

Steps 1, 3 and 6's rate depend on no app, so the engine runs them once
per (environment, size) cell for all the cell's apps
(:meth:`ExecutionEngine.run_cell`), as the study deployed one cluster
per cell and ran every app in it (§2.9).  Engines are deterministic
given (seed, env, app, scale, iteration).
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.apps.base import AppModel, RunContext
from repro.apps.registry import app as app_lookup
from repro.cloud.catalog import effective_rate
from repro.cloud.placement import apply_placement
from repro.envs.environment import Environment, EnvironmentKind
from repro.machine.gpu import sample_ecc_settings
from repro.network.fabric import Fabric
from repro.network.hookup import hookup_block, hookup_stream_block
from repro.network.quirks import AZURE_UNTUNED_UCX
from repro.network.topology import effective_fabric
from repro.rng import StreamBlock, check_seeds, co_seed, stream_block
from repro.scenarios.apply import overlay_fabric
from repro.scenarios.market import preemption_block
from repro.scenarios.spec import Scenario, active, footprint_digest
from repro.sim.cache import RunCache, run_key
from repro.sim.run_result import STATE_CODE, STATE_ORDER, RunRecord, RunState
from repro.telemetry import span
from repro.units import HOUR

#: walltime ceiling for cloud runs (15–20 min; we use the upper bound
#: minus scheduling slack)
CLOUD_WALLTIME_S = 1000.0
#: on-prem queue-slot ceiling (center jobs ran under generous limits)
ONPREM_WALLTIME_S = 4 * 3600.0

_FAILED = STATE_CODE[RunState.FAILED]
_TIMEOUT = STATE_CODE[RunState.TIMEOUT]
_COMPLETED = STATE_CODE[RunState.COMPLETED]

#: the open :func:`shared_cells` scope's per-cell memos, one per
#: (seed, azure_ucx_tuned); ``None`` outside a scope
_SHARED_CELLS: ContextVar[dict | None] = ContextVar("repro_shared_cells", default=None)


@contextlib.contextmanager
def shared_cells():
    """Share the per-cell memo among the engines one command builds.

    Inside the ``with`` block, every :class:`ExecutionEngine` built
    without an active scenario adopts the scope's memo for its (seed,
    ``azure_ucx_tuned``) instead of starting an empty one of its own, so
    a command that builds many engines seeds each cell's streams and
    resolves its fabric once.  Every memo value is a function of the
    engine's seed, scenario and ``azure_ucx_tuned`` plus its key, so
    sharing changes no record; an engine with a scenario keeps a private
    memo.  The scope's memos are dropped when the block exits, by an
    exception too, and nothing carries over to the next scope.
    """
    token = _SHARED_CELLS.set({})
    try:
        yield
    finally:
        _SHARED_CELLS.reset(token)


@dataclass(frozen=True)
class HookupCutoff:
    """Stop policy: end each app's runs with the first record whose
    hookup exceeded a threshold.

    §3.3's single-iteration rule — AKS CPU at size 256 ran once because
    hookup took 8.82 minutes — as a *value* rather than a closure, so
    the block path can apply it vectorized, once per cell from the
    cell's hookup column (:meth:`stop_index`), while an app that mixes
    cache hits and misses calls it per record.
    """

    env_id: str
    scale: int
    threshold_s: float

    def __call__(self, record: RunRecord) -> bool:
        return (
            record.env_id == self.env_id
            and record.scale == self.scale
            and record.hookup_seconds > self.threshold_s
        )

    def stop_index(self, env_id: str, scale: int, hookup: np.ndarray) -> int | None:
        """Index of the first triggering record, or ``None``."""
        if env_id != self.env_id or scale != self.scale:
            return None
        idx = np.flatnonzero(hookup > self.threshold_s)
        return int(idx[0]) if idx.size else None


@dataclass
class BlockOutcome:
    """What one app of an :meth:`ExecutionEngine.run_cell` call produced."""

    #: records appended to the caller's store
    count: int
    #: wall + hookup seconds accumulated in record order (the shard
    #: clock advances by exactly this, record by record)
    total_seconds: float


@dataclass
class _BlockColumns:
    """One app's simulated iterations of a cell as parallel columns."""

    iteration: np.ndarray  # i8
    state: np.ndarray  # i1 codes
    fom: np.ndarray  # f8, NaN where the record has no FOM
    fom_none: np.ndarray  # bool
    wall: np.ndarray  # f8
    hookup: np.ndarray  # f8
    cost: np.ndarray  # f8
    failure_kind: Any  # None | str | list[str | None]
    phases: Any  # dict | list
    extra: Any  # dict | list

    def truncate(self, n: int) -> "_BlockColumns":
        """The first ``n`` iterations (an early-stop prefix)."""

        def _cut(payload):
            if isinstance(payload, list):
                return payload[:n]
            if isinstance(payload, dict):
                return {
                    k: (v[:n] if isinstance(v, np.ndarray) else _cut(v) if isinstance(v, dict) else v)
                    for k, v in payload.items()
                }
            return payload

        return _BlockColumns(
            iteration=self.iteration[:n],
            state=self.state[:n],
            fom=self.fom[:n],
            fom_none=self.fom_none[:n],
            wall=self.wall[:n],
            hookup=self.hookup[:n],
            cost=self.cost[:n],
            failure_kind=(
                self.failure_kind[:n]
                if isinstance(self.failure_kind, list)
                else self.failure_kind
            ),
            phases=_cut(self.phases),
            extra=_cut(self.extra),
        )


@dataclass(frozen=True)
class ResolvedCell:
    """Everything app- and iteration-independent about one (env, size) cell.

    Placement, effective fabric, ECC-conditioned node model, walltime
    limit and hourly rate depend only on the cell coordinates (plus the
    engine's seed/scenario), never on the app or the iteration, so a
    cell resolves them once and every app and iteration of it reuses
    them, one :class:`RunContext` included.  All members are immutable
    values or pure memos, safe to share across runs.
    """

    env: Environment
    scale: int
    nodes: int
    rate: float
    walltime_limit: float
    #: what every app of the cell sees (its collective memo is shared)
    context: RunContext


@dataclass
class ExecutionEngine:
    """Runs apps on environments deterministically."""

    seed: int = 0
    #: set False to simulate the study's *initial* Azure containers,
    #: before the UCX transport hunt of §3.1 succeeded
    azure_ucx_tuned: bool = True
    #: optional content-addressed run cache; hits skip simulation
    cache: RunCache | None = None
    #: optional what-if overlay (:mod:`repro.scenarios`): spot pricing
    #: and preemptions, price shocks, fabric degradation.  ``None`` or
    #: an empty scenario reproduces the baseline byte for byte.
    scenario: Scenario | None = None
    #: per-cell memo: the run/hookup stream keys name no app, so every
    #: app of one (env, size) cell draws the same streams (one
    #: :class:`~repro.rng.SeededStreams`, standard-normal prefix
    #: included) and the same hookup column, and resolves the same node
    #: model and effective fabric — compute once, reuse per cell (and,
    #: inside :func:`shared_cells`, across the command's engines)
    _block_memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        check_seeds(range(self.seed, self.seed + 1))
        memos = _SHARED_CELLS.get()
        if memos is not None and active(self.scenario) is None:
            self._block_memo = memos.setdefault((self.seed, self.azure_ucx_tuned), {})

    # -- fabric resolution ----------------------------------------------------

    #: cloud tenancy multiplies fabric jitter: the same interconnect shows
    #: more run-to-run variability under SR-IOV and shared switching than
    #: on a dedicated on-prem machine
    CLOUD_JITTER_MULTIPLIER = 1.5

    #: extra small-message latency on CycleCloud's tuned UCX transport
    #: (UCX_TLS=ud,shm,rc — §3.1): the unreliable-datagram path costs a
    #: little over AKS's unified `ib` transport, which is why AKS edges
    #: out CycleCloud on allreduce-bound codes (MiniFE, Figure 6)
    AZURE_VM_UD_PENALTY_US = 0.3

    def _effective_fabric(self, env: Environment, nodes: int) -> Fabric:
        # Scenario fabric degradation is a property of the counterfactual
        # world, so it applies to the base fabric before tenancy effects.
        base = overlay_fabric(env.base_fabric(), self.scenario, env.cloud)
        if env.cloud == "az" and env.kind is EnvironmentKind.VM:
            base = Fabric(
                name=base.name,
                latency_us=base.latency_us + self.AZURE_VM_UD_PENALTY_US,
                bandwidth_gbps=base.bandwidth_gbps,
                per_message_overhead_us=base.per_message_overhead_us,
                os_bypass=base.os_bypass,
                rdma=base.rdma,
                jitter_cv=base.jitter_cv,
                quirks=base.quirks,
            )
        if env.is_cloud:
            base = base.with_jitter(base.jitter_cv * self.CLOUD_JITTER_MULTIPLIER)
        if env.cloud == "az" and not self.azure_ucx_tuned:
            base = Fabric(
                name=base.name,
                latency_us=base.latency_us,
                bandwidth_gbps=base.bandwidth_gbps,
                per_message_overhead_us=base.per_message_overhead_us,
                os_bypass=base.os_bypass,
                rdma=base.rdma,
                jitter_cv=base.jitter_cv,
                quirks=base.quirks + (AZURE_UNTUNED_UCX,),
            )
        if env.kind is EnvironmentKind.ONPREM:
            return base
        placement = apply_placement(
            env.cloud,
            "k8s" if env.kind is EnvironmentKind.K8S else "vm",
            nodes,
            seed=self.seed,
        )
        return effective_fabric(base, env.cloud, placement)

    def _resolve_cell(self, env: Environment, nodes: int) -> tuple[Any, Fabric]:
        """(ECC-conditioned node model, effective fabric) at ``nodes``.

        Both are functions of the engine's seed, scenario and options
        plus (env, nodes) — never of the app or the iteration — so the
        placement sampling, the topology model and the ECC draw run
        once per cell and every app of the cell shares the values.
        """
        key = ("cell", env, nodes)
        cell = self._block_memo.get(key)
        if cell is None:
            ecc_on = True
            if env.is_gpu:
                # The node's ECC state: Azure fleets are mixed (§3.3).
                states = sample_ecc_settings(env.cloud, nodes, seed=self.seed)
                ecc_on = bool(states.all()) if states.size else True
            cell = self._block_memo[key] = (
                env.node_model(ecc_on=ecc_on),
                self._effective_fabric(env, nodes),
            )
        return cell

    # -- context construction --------------------------------------------------

    def resolve_cell(
        self,
        env: Environment,
        scale: int,
        *,
        options: dict[str, Any] | None = None,
    ) -> ResolvedCell:
        """Resolve everything app- and iteration-independent about a cell.

        Placement sampling, topology-effective fabric, ECC-conditioned
        node model, and pricing are functions of (seed, env, scale):
        :meth:`run_cell` resolves them once per cell for all its apps
        and iterations, with identical results.  Without ``options`` the
        resolved cell is memoized with the cell's streams.
        """
        key = None if options else ("resolved", env, scale)
        cell = self._block_memo.get(key) if key else None
        if cell is not None:
            return cell
        with span("engine.resolve_group", env=env.env_id, scale=scale):
            ctx = self.context(env, scale, options=options)
            itype = env.instance()
            rate = itype.cost_per_hour
            scn = active(self.scenario)
            if scn is not None:
                rate = effective_rate(itype, scn.price_multiplier(env.cloud, ctx.nodes))
            cell = ResolvedCell(
                env=env,
                scale=scale,
                nodes=ctx.nodes,
                rate=rate,
                walltime_limit=ONPREM_WALLTIME_S if env.cloud == "p" else CLOUD_WALLTIME_S,
                context=ctx,
            )
        if key:
            self._block_memo[key] = cell
        return cell

    def context(
        self,
        env: Environment,
        scale: int,
        *,
        options: dict[str, Any] | None = None,
    ) -> RunContext:
        """The :class:`RunContext` an app model sees at (env, scale),
        without resolving an app: placement, effective fabric and the
        ECC-conditioned node model."""
        nodes = env.nodes_for(scale)
        node_model, fabric = self._resolve_cell(env, nodes)
        return RunContext(
            env=env,
            scale=scale,
            nodes=nodes,
            ranks=env.ranks_for(scale),
            node_model=node_model,
            fabric=fabric,
            options=options or {},
        )

    def cell_streams(
        self, env: Environment, scale: int, iterations: np.ndarray
    ) -> tuple[StreamBlock, np.ndarray]:
        """One cell's keyed run streams over ``iterations``, and its
        hookup times.

        The run streams ``("run", env_id, scale, i)`` and the hookup
        streams name no app, so every app of a cell draws the same ones:
        the first call for a cell and iteration set seeds both families
        in one pass and memoizes the seeded run streams (standard-normal
        prefix included) and the hookup column; later calls install them.
        Returns a fresh, undrawn block each call.
        """
        nodes = env.nodes_for(scale)
        block = stream_block(self.seed, "run", env.env_id, scale, iterations=iterations)
        sig = block.iterations.tobytes()
        run_key_memo = ("run", env.env_id, scale, sig)
        hookup_memo = ("hookup", env.cloud, env.is_gpu, nodes, env.kind.value, sig)
        with span("engine.rng", env=env.env_id, iterations=len(block)):
            seeded = self._block_memo.get(run_key_memo)
            if seeded is not None:
                # A sibling app of this cell already seeded these streams;
                # its normal draws are this block's prefix too.
                block.install_states(seeded)
                hookup = self._block_memo.get(hookup_memo)
            else:
                hookup = None
            if hookup is None:
                hookup_streams = hookup_stream_block(
                    env.cloud,
                    env.is_gpu,
                    nodes,
                    environment_kind=env.kind.value,
                    seed=self.seed,
                    iterations=block.iterations,
                )
                if seeded is None:
                    # One seeding pass covers both stream families.
                    co_seed(block, hookup_streams)
                    self._block_memo[run_key_memo] = block.seeded_states()
                hookup = hookup_block(
                    env.cloud,
                    env.is_gpu,
                    nodes,
                    environment_kind=env.kind.value,
                    seed=self.seed,
                    iterations=block.iterations,
                    rng_block=hookup_streams,
                )
                self._block_memo[hookup_memo] = hookup
        return block, hookup

    # -- running ----------------------------------------------------------------

    def run(
        self,
        env: Environment,
        app: AppModel | str,
        scale: int,
        *,
        iteration: int = 0,
        options: dict[str, Any] | None = None,
    ) -> RunRecord:
        """Execute one run; never raises for in-study failure modes.

        A one-iteration cell of one app: every draw is keyed on the
        iteration, so the record equals row ``iteration`` of a
        :meth:`run_block` over the same group.
        """
        model = app_lookup(app) if isinstance(app, str) else app
        reason = self._skip_reason(env, model)
        if reason is not None:
            return self._skip(env, model, scale, iteration, reason)
        key = None
        if self.cache is not None:
            key = self._cache_key(env, model, scale, iteration, options)
            record = self.cache.get(key)
            if record is not None:
                return record
        cell = self.resolve_cell(env, scale, options=options)
        (cols,) = self._simulate_cell(cell, [model], np.array([iteration], dtype=np.int64))
        record = self._column_records(cell, model, cols)[0]
        if key is not None:
            self.cache.put(key, record)
        return record

    @staticmethod
    def _skip_reason(env: Environment, model: AppModel) -> str | None:
        """Why a run of ``model`` on ``env`` never executes, or ``None``."""
        if not env.deployable:
            return "environment undeployable"
        if not model.supports(env.accelerator):
            return model.unsupported_reason.get(env.accelerator, "unsupported")
        return None

    def _cache_key(
        self,
        env: Environment,
        model: AppModel,
        scale: int,
        iteration: int,
        options: dict[str, Any] | None,
    ) -> str:
        # Keys embed the scenario's per-cell *footprint* for this cloud,
        # not the whole-scenario digest: a cell the scenario cannot touch
        # keys exactly like the baseline cell (cross-world cache reuse).
        return run_key(
            seed=self.seed,
            env_id=env.env_id,
            app=model.name,
            scale=scale,
            iteration=iteration,
            engine_options={
                "azure_ucx_tuned": self.azure_ucx_tuned,
                "options": options or {},
            },
            scenario=footprint_digest(self.scenario, env.cloud),
        )

    def cache_scope(self, cell_key: str):
        """Open the run level of the cell whose entry ``cell_key`` names.

        Returns a context manager: inside it, :meth:`run_block` reuses
        every run the *other* cell entries of the cell's batch hold (see
        :meth:`RunCache.batched`; ``cell_key`` is ``<batch>/<cell>``,
        :func:`~repro.parallel.shard.shard_summary_key`), so a re-run
        with a different app roster or iteration count simulates only
        the runs no sibling has.  A no-op without a cache.
        """
        if self.cache is None:
            return contextlib.nullcontext()
        return self.cache.batched(cell_key)

    def skipped(
        self,
        env: Environment,
        app: AppModel | str,
        scale: int,
        *,
        iteration: int = 0,
        reason: str,
    ) -> RunRecord:
        """Record a run that never executed (e.g. a scenario denied quota)."""
        model = app_lookup(app) if isinstance(app, str) else app
        return self._skip(env, model, scale, iteration, reason)

    def _skip(
        self,
        env: Environment,
        model: AppModel,
        scale: int,
        iteration: int,
        reason: str,
    ) -> RunRecord:
        return RunRecord(
            env_id=env.env_id,
            app=model.name,
            scale=scale,
            nodes=env.nodes_for(scale) if env.gpus_per_node or not env.is_gpu else scale,
            iteration=iteration,
            state=RunState.SKIPPED,
            fom=None,
            fom_units=model.fom_units,
            wall_seconds=0.0,
            hookup_seconds=0.0,
            cost_usd=0.0,
            failure_kind="skipped",
            extra={"reason": reason},
        )

    # -- the array-native block path -------------------------------------------

    def _simulate_cell(
        self, cell: ResolvedCell, models: list[AppModel], iters: np.ndarray
    ) -> list[_BlockColumns]:
        """Simulate the given iterations of every app in ``models`` on a
        resolved cell, as one column block per app.

        The cell's streams are seeded once and each app draws from a
        fresh block over them (:meth:`cell_streams`); every app sees the
        cell's one context.  Walltime policy and pricing run as one
        array pass over every app's physics columns, failure kinds and
        spot preemption on each app's own rows.  Every draw is keyed on
        the iteration, so a column value depends neither on which other
        iterations nor on which other apps share the block.
        """
        env = cell.env
        n = len(iters)
        block, hookup = self.cell_streams(env, cell.scale, iters)
        results = []
        for k, model in enumerate(models):
            with span("engine.physics", env=env.env_id, app=model.name, iterations=n):
                results.append(model.simulate_block(cell.context, block.fresh() if k else block))

        with span("engine.price", env=env.env_id, apps=len(models), iterations=n):
            m = len(models)
            failed = np.zeros((m, n), dtype=bool)
            for a, result in enumerate(results):
                if result.failed is not None:
                    failed[a] = result.failed
            wall = np.array([result.wall for result in results], dtype=np.float64)
            fom = np.array([result.fom for result in results], dtype=np.float64)
            limit = cell.walltime_limit
            timeout = ~failed & (wall > limit)
            wall[timeout] = limit
            state = np.full((m, n), _COMPLETED, dtype=np.int8)
            state[timeout] = _TIMEOUT
            state[failed] = _FAILED
            fom_none = failed | timeout | np.isnan(fom)
            fom[fom_none] = np.nan

            any_failed = failed.any(axis=1)
            mixed = timeout.any(axis=1) | (any_failed & ~failed.all(axis=1))
            kinds: list[Any] = []
            for a, result in enumerate(results):
                if mixed[a]:
                    kinds.append([
                        result.failure_kind if failed[a, j] else ("walltime" if timeout[a, j] else None)
                        for j in range(n)
                    ])
                else:
                    kinds.append(result.failure_kind if any_failed[a] else None)
            extras = [result.extra for result in results]

            scn = active(self.scenario)
            if (
                scn is not None
                and scn.spot is not None
                and env.is_cloud
                and env.cloud in scn.spot.clouds
            ):
                from repro.core.results import payload_slot

                for a, model in enumerate(models):
                    # Spot preemption, on the app's own row: a reclaimed
                    # run dies partway through its window; the consumed
                    # node-time still bills.  Runs that already failed on
                    # their own keep their original cause.
                    eligible = np.flatnonzero(state[a] != _FAILED)
                    fracs = np.full(n, np.nan)
                    if eligible.size:
                        fracs[eligible] = preemption_block(
                            scn.spot,
                            self.seed,
                            scn.scenario_id,
                            env.env_id,
                            model.name,
                            cell.scale,
                            iters[eligible],
                            (wall[a] + hookup)[eligible],
                        )
                    hit = np.flatnonzero(~np.isnan(fracs))
                    if not hit.size:
                        continue
                    extra = [payload_slot(extras[a], j) for j in range(n)]
                    if not isinstance(kinds[a], list):
                        kinds[a] = [
                            kinds[a] if failed[a, j] else ("walltime" if timeout[a, j] else None)
                            for j in range(n)
                        ]
                    for j in hit:
                        slot = dict(extra[j])
                        slot["preempted_at_fraction"] = float(fracs[j])
                        extra[j] = slot
                        kinds[a][j] = "spot-preemption"
                    extras[a] = extra
                    wall[a, hit] = wall[a, hit] * fracs[hit]
                    state[a, hit] = _FAILED
                    fom[a, hit] = np.nan
                    fom_none[a, hit] = True

            cost = (cell.nodes * cell.rate) * (wall + hookup) / HOUR
        iteration = np.asarray(iters, dtype=np.int64)
        return [
            _BlockColumns(
                iteration=iteration,
                state=state[a],
                fom=fom[a],
                fom_none=fom_none[a],
                wall=wall[a],
                hookup=hookup,
                cost=cost[a],
                failure_kind=kinds[a],
                phases=result.phases,
                extra=extras[a],
            )
            for a, result in enumerate(results)
        ]

    def _column_records(
        self, cell: ResolvedCell, model: AppModel, cols: _BlockColumns
    ) -> list[RunRecord]:
        """Materialize a column block into per-run records (:meth:`run`'s
        one row, a group reusing sibling runs, and a ``stop`` without
        ``stop_index`` need row objects; the block fast path never calls
        this)."""
        from repro.core.results import payload_slot

        env_id = cell.env.env_id
        app = model.name
        units = model.fom_units
        records = []
        for j in range(len(cols.iteration)):
            records.append(
                RunRecord(
                    env_id=env_id,
                    app=app,
                    scale=cell.scale,
                    nodes=cell.nodes,
                    iteration=int(cols.iteration[j]),
                    state=STATE_ORDER[cols.state[j]],
                    fom=None if cols.fom_none[j] else float(cols.fom[j]),
                    fom_units=units,
                    wall_seconds=float(cols.wall[j]),
                    hookup_seconds=float(cols.hookup[j]),
                    cost_usd=float(cols.cost[j]),
                    phases=payload_slot(cols.phases, j),
                    failure_kind=payload_slot(cols.failure_kind, j),
                    extra=payload_slot(cols.extra, j),
                )
            )
        return records

    def run_block(
        self,
        env: Environment,
        app: AppModel | str,
        scale: int,
        *,
        iterations: int,
        store: "ResultStore",
        options: dict[str, Any] | None = None,
        stop: Callable[[RunRecord], bool] | None = None,
    ) -> BlockOutcome:
        """Run one (env, app, size) group: a one-app :meth:`run_cell`."""
        (outcome,) = self.run_cell(
            env, (app,), scale, iterations=iterations, store=store, stop=stop, options=options
        )
        return outcome

    def run_cell(
        self,
        env: Environment,
        apps: "Sequence[AppModel | str]",
        scale: int,
        *,
        iterations: int,
        store: "ResultStore",
        stop: Callable[[RunRecord], bool] | None = None,
        options: dict[str, Any] | None = None,
    ) -> list[BlockOutcome]:
        """Run every app of one (env, size) cell, as one block.

        The engine's block path.  The cell resolves once
        (:meth:`resolve_cell`), seeds its run and hookup streams once,
        and hands each app a fresh block over them; the apps' physics
        computes as columns (:meth:`~repro.apps.base.AppModel.simulate_block`),
        walltime policy and pricing apply as one array pass over every
        app, and each app's columns land in ``store`` via
        :meth:`~repro.core.results.ResultStore.append_block`, in roster
        order — no per-run :class:`RunRecord` on the fast path.  Records
        are byte-identical to per-app :meth:`run_block` calls, and to
        per-iteration :meth:`run` calls that end at the first record
        ``stop`` accepts.  Returns one :class:`BlockOutcome` per app.

        A :class:`HookupCutoff` ``stop`` applies once, from the cell's
        hookup column (every app draws the same one); any other callable
        sees each app's materialized rows in order.  An app that never
        executes (:meth:`_skip_reason`) records skips at its roster
        position.  With a cache configured, hit/miss stats match
        per-iteration :meth:`run` calls exactly: inside a cell scope
        (:meth:`cache_scope`) and without per-run ``options``, an app
        some of whose runs a sibling cell entry holds reuses them
        (:meth:`_run_block_reusing`) and the other apps simulate as the
        cell's block; anywhere else every app is per-iteration
        :meth:`run` calls, one single-run entry each (:meth:`_run_singly`).
        """
        models = [app_lookup(app) if isinstance(app, str) else app for app in apps]
        reasons = [self._skip_reason(env, model) for model in models]
        with span("engine.run_block", env=env.env_id, scale=scale, iterations=iterations):
            cache = self.cache
            singly = False
            found: dict[int, dict[int, tuple["ResultStore", int]]] = {}
            if cache is not None and any(reason is None for reason in reasons):
                with span("engine.cache_probe", env=env.env_id, probes=iterations * len(models)):
                    runs = None if options else cache.sibling_runs()
                    singly = runs is None
                    for a, model in enumerate(models):
                        if runs and reasons[a] is None:
                            hits = {
                                i: runs[model.name, i]
                                for i in range(iterations)
                                if (model.name, i) in runs
                            }
                            if hits:
                                found[a] = hits

            fused = [
                a for a in range(len(models))
                if reasons[a] is None and not singly and a not in found
            ]
            columns: dict[int, _BlockColumns] = {}
            if fused:
                cell = self.resolve_cell(env, scale, options=options)
                fused_models = [models[a] for a in fused]
                blocks = self._simulate_cell(
                    cell, fused_models, np.arange(iterations, dtype=np.int64)
                )
                columns = dict(zip(fused, self._apply_stop(cell, fused_models, blocks, stop)))
                if cache is not None:
                    cache.count_runs(0, sum(len(cols.iteration) for cols in columns.values()))

            outcomes = []
            for a, model in enumerate(models):
                if reasons[a] is not None:
                    outcome = self._add_skips(env, model, scale, iterations, reasons[a], stop, store)
                elif a in columns:
                    cols = columns[a]
                    store.append_block(**self._block_args(cell, model, cols))
                    outcome = BlockOutcome(count=len(cols.iteration), total_seconds=_block_total(cols))
                elif a in found:
                    outcome = self._run_block_reusing(
                        env, model, scale, iterations, stop, store, found[a]
                    )
                else:
                    outcome = self._run_singly(env, model, scale, iterations, options, stop, store)
                outcomes.append(outcome)
            return outcomes

    def _add_skips(
        self,
        env: Environment,
        model: AppModel,
        scale: int,
        iterations: int,
        reason: str,
        stop: Callable[[RunRecord], bool] | None,
        store: "ResultStore",
    ) -> BlockOutcome:
        """An app that never executes: one skip record per iteration, up
        to the first record ``stop`` accepts."""
        count = 0
        for iteration in range(iterations):
            record = self._skip(env, model, scale, iteration, reason)
            store.add(record)
            count += 1
            if stop is not None and stop(record):
                break
        return BlockOutcome(count=count, total_seconds=0.0)

    def _apply_stop(
        self,
        cell: ResolvedCell,
        models: list[AppModel],
        blocks: list[_BlockColumns],
        stop: Callable[[RunRecord], bool] | None,
    ) -> list[_BlockColumns]:
        """Each app's block up to and including the first record
        ``stop`` accepts."""
        if stop is None:
            return blocks
        stop_index = getattr(stop, "stop_index", None)
        if stop_index is not None:
            # Every app of the cell shares one hookup column.
            k = stop_index(cell.env.env_id, cell.scale, blocks[0].hookup)
            return blocks if k is None else [cols.truncate(k + 1) for cols in blocks]
        cut = []
        for model, cols in zip(models, blocks):
            records = self._column_records(cell, model, cols)
            k = next((j for j, record in enumerate(records) if stop(record)), None)
            cut.append(cols if k is None else cols.truncate(k + 1))
        return cut

    @staticmethod
    def _block_args(cell: ResolvedCell, model: AppModel, cols: _BlockColumns) -> dict[str, Any]:
        """:meth:`~repro.core.results.ResultStore.append_block`'s
        arguments for one app's column block of ``cell``."""
        return dict(
            env_id=cell.env.env_id,
            app=model.name,
            scale=cell.scale,
            nodes=cell.nodes,
            iteration=cols.iteration,
            state=cols.state,
            fom=cols.fom,
            fom_none=cols.fom_none,
            wall_seconds=cols.wall,
            hookup_seconds=cols.hookup,
            cost_usd=cols.cost,
            fom_units=model.fom_units,
            failure_kind=cols.failure_kind,
            phases=cols.phases,
            extra=cols.extra,
        )

    def _run_block_reusing(
        self,
        env: Environment,
        model: AppModel,
        scale: int,
        iterations: int,
        stop: Callable[[RunRecord], bool] | None,
        store: "ResultStore",
        found: dict[int, tuple["ResultStore", int]],
    ) -> BlockOutcome:
        """An app some of whose iterations a sibling cell entry holds.

        ``found`` maps each such iteration to its (sibling store, row);
        the other iterations simulate as a one-app cell.  Rows
        materialize, and hits and misses count only up to the first
        record ``stop`` accepts, as per-iteration :meth:`run` calls would
        probe them.
        """
        records = [
            found[i][0].row(found[i][1]) if i in found else None for i in range(iterations)
        ]
        missing = [i for i in range(iterations) if i not in found]
        if missing:
            cell = self.resolve_cell(env, scale)
            (cols,) = self._simulate_cell(cell, [model], np.asarray(missing, dtype=np.int64))
            for i, record in zip(missing, self._column_records(cell, model, cols)):
                records[i] = record
        prefix = iterations
        if stop is not None:
            prefix = next((j + 1 for j, r in enumerate(records) if stop(r)), iterations)
        hits = sum(1 for i in found if i < prefix)
        self.cache.count_runs(hits, prefix - hits)
        kept = records[:prefix]
        store.extend(kept)
        total = 0.0
        for record in kept:
            total = total + record.total_seconds
        return BlockOutcome(count=prefix, total_seconds=total)

    def _run_singly(
        self,
        env: Environment,
        model: AppModel,
        scale: int,
        iterations: int,
        options: dict[str, Any] | None,
        stop: Callable[[RunRecord], bool] | None,
        store: "ResultStore",
    ) -> BlockOutcome:
        """A cached app outside a cell scope, or with per-run
        ``options``: per-iteration :meth:`run` calls, each probing and
        storing its own single-run entry, up to the first record
        ``stop`` accepts."""
        count, total = 0, 0.0
        for iteration in range(iterations):
            record = self.run(env, model, scale, iteration=iteration, options=options)
            store.add(record)
            count += 1
            total = total + record.total_seconds
            if stop is not None and stop(record):
                break
        return BlockOutcome(count=count, total_seconds=total)


def _block_total(cols: _BlockColumns) -> float:
    """Wall plus hookup seconds of a block, accumulated in record order
    like the per-record shard clock."""
    total = 0.0
    for wall, hookup in zip(cols.wall.tolist(), cols.hookup.tolist()):
        total = total + (wall + hookup)
    return total
