"""run_cell ≡ run_block ≡ per-iteration runs, end to end.

Every draw is keyed on the iteration, so an n-iteration block — batched
keyed RNG, columnar app physics, array-native pricing / walltime /
preemption, ``append_block`` — is byte-identical to n per-iteration
:meth:`ExecutionEngine.run` calls (one-iteration blocks), over every
app, over cache states, over early-stop cutoffs, and over whole study /
scenario / ensemble plans at any worker count.  Every draw also names
no other app, so a cell's whole roster as one :meth:`ExecutionEngine.run_cell`
block equals one :meth:`ExecutionEngine.run_block` per app.  The
absolute anchor for all of them is the run goldens in
``tests/test_sim_execution.py`` and the cell-entry goldens in
``tests/test_sim_cache.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import RunContext
from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.parallel.shard import StudyShard, execute_shard, shard_summary_key
from repro.plan import ExecutionOptions
from repro.scenarios import ScenarioSweep
from repro.scenarios.presets import SCENARIOS
from repro.scenarios.presets import scenario as scenario_lookup
from repro.sim.cache import RunCache
from repro.sim.execution import ExecutionEngine, HookupCutoff
from repro.telemetry import Tracer, use_tracer


def _per_iteration_runs(engine, env, app, scale, *, iterations, stop=None):
    """One :meth:`ExecutionEngine.run` per iteration, ending with the
    first record ``stop`` accepts (the block path's stop rule)."""
    records = []
    for iteration in range(iterations):
        record = engine.run(env, app, scale, iteration=iteration)
        records.append(record)
        if stop is not None and stop(record):
            break
    return records


def _block_store(engine, env, app, scale, *, iterations, stop=None):
    store = ResultStore()
    engine.run_block(env, app, scale, iterations=iterations, store=store, stop=stop)
    return store


def _assert_equivalent(env_id, app, scale, *, iterations=6, scenario=None, stop=None):
    env = ENVIRONMENTS[env_id]
    per_run = ExecutionEngine(seed=0, scenario=scenario)
    block = ExecutionEngine(seed=0, scenario=scenario)
    reference = _per_iteration_runs(
        per_run, env, app, scale, iterations=iterations, stop=stop
    )
    store = _block_store(block, env, app, scale, iterations=iterations, stop=stop)
    assert store.records == reference


# ----------------------------------------------------------- per-group paths


@pytest.mark.parametrize("app", sorted(APPS))
def test_every_app_block_equals_scalar(app):
    """Every registered app: same records on both paths."""
    for env_id in ("cpu-eks-aws", "gpu-gke-g", "cpu-aks-az", "cpu-onprem-a"):
        _assert_equivalent(env_id, app, 64)


def test_one_engine_serves_every_app_of_a_cell_from_one_prefix():
    """Every app of a cell through one engine, in registry order, over
    three iteration sets: each app's normals are slices of the cell's
    shared standard-normal prefix (osu's and stream's rows widen it),
    with one prefix per iteration set.  Records equal per-iteration
    runs on fresh engines."""
    for env_id in ("cpu-eks-aws", "gpu-gke-g"):
        env = ENVIRONMENTS[env_id]
        engine = ExecutionEngine(seed=4)
        for iterations in (3, 5, 2):
            for app in APPS:
                store = _block_store(engine, env, app, 64, iterations=iterations)
                reference = _per_iteration_runs(
                    ExecutionEngine(seed=4), env, app, 64, iterations=iterations
                )
                assert store.records == reference


def test_failure_and_skip_groups():
    _assert_equivalent("gpu-gke-g", "kripke", 32)  # uniform misconfiguration
    _assert_equivalent("cpu-onprem-a", "minife", 32)  # uniform partial-output
    _assert_equivalent("gpu-gke-g", "laghos", 32)  # unsupported -> skips
    _assert_equivalent("gpu-parallelcluster-aws", "lammps", 32)  # undeployable


def test_spot_scenario_preemptions_match():
    scn = scenario_lookup("spot-everything")
    for env_id in ("cpu-eks-aws", "cpu-aks-az"):
        _assert_equivalent(env_id, "lammps", 64, iterations=16, scenario=scn)
        _assert_equivalent(env_id, "laghos", 128, iterations=8, scenario=scn)


def test_run_context_has_no_generator():
    # Per-iteration draws come only from the StreamBlock: a context has
    # no generator, so physics that reads ctx.rng raises instead of
    # drawing from one stream for the whole group.
    assert "rng" not in {f.name for f in dataclasses.fields(RunContext)}

    class ReadsRng(type(APPS["lammps"])):
        def simulate_block(self, ctx, block):
            return ctx.rng.normal(1.0, 0.1)

    for call in (
        lambda engine, app: engine.run_block(
            ENVIRONMENTS["cpu-eks-aws"], app, 64, iterations=2, store=ResultStore()
        ),
        lambda engine, app: engine.run(ENVIRONMENTS["cpu-eks-aws"], app, 64),
    ):
        with pytest.raises(AttributeError, match="rng"):
            call(ExecutionEngine(seed=0), ReadsRng())


def test_hookup_cutoff_truncates_identically():
    stop = HookupCutoff(env_id="cpu-aks-az", scale=256, threshold_s=300.0)
    _assert_equivalent("cpu-aks-az", "lammps", 256, iterations=5, stop=stop)
    _assert_equivalent("cpu-eks-aws", "lammps", 256, iterations=5, stop=stop)


def test_generic_stop_callable_still_works():
    calls = []

    def stop(record):
        calls.append(record.iteration)
        return record.iteration >= 2

    _assert_equivalent("cpu-eks-aws", "amg2023", 64, iterations=6, stop=stop)
    assert calls  # the block path evaluated the opaque callable per record


def test_cache_protocol_matches_scalar(tmp_path):
    env = ENVIRONMENTS["cpu-eks-aws"]
    per_run = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "a"))
    block = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "b"))
    for iterations in (6, 6, 9):  # cold, warm, mixed tail
        reference = _per_iteration_runs(per_run, env, "osu", 64, iterations=iterations)
        store = _block_store(block, env, "osu", 64, iterations=iterations)
        assert store.records == reference
        assert block.cache.hits == per_run.cache.hits
        assert block.cache.misses == per_run.cache.misses


def test_stop_truncation_realigns_invalid_counter(tmp_path):
    """A corrupt cache entry past the stop point is not a degradation.

    Per-iteration runs never probe beyond the stop, so they never see
    the corrupt entry, and neither may the block path: ``cache.invalid``
    (not just hits/misses) counts only the executed prefix.
    """
    env = ENVIRONMENTS["cpu-aks-az"]
    stop = HookupCutoff(env_id="cpu-aks-az", scale=256, threshold_s=300.0)
    warm = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "c"))
    _block_store(warm, env, "lammps", 256, iterations=5)  # populate entries
    # Corrupt the entry for an iteration the stop will cut off.
    from repro.sim.cache import run_key

    key = run_key(
        seed=0, env_id=env.env_id, app="lammps", scale=256, iteration=3,
        engine_options={"azure_ucx_tuned": True, "options": {}},
        scenario=None,
    )
    warm.cache.path(key).write_text("garbage", encoding="utf-8")

    per_run = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "c"))
    reference = _per_iteration_runs(per_run, env, "lammps", 256, iterations=5, stop=stop)
    block = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "c"))
    store = _block_store(block, env, "lammps", 256, iterations=5, stop=stop)
    assert store.records == reference
    assert block.cache.hits == per_run.cache.hits
    assert block.cache.misses == per_run.cache.misses
    assert block.cache.invalid == per_run.cache.invalid == 0


def test_block_and_scalar_caches_interchange(tmp_path):
    """Entries a block writes replay byte-identically in per-iteration runs."""
    env = ENVIRONMENTS["cpu-eks-aws"]
    shared = tmp_path / "shared"
    writer = ExecutionEngine(seed=0, cache=RunCache(shared))
    store = _block_store(writer, env, "amg2023", 64, iterations=4)
    reader = ExecutionEngine(seed=0, cache=RunCache(shared))
    replayed = _per_iteration_runs(reader, env, "amg2023", 64, iterations=4)
    assert reader.cache.hits == 4 and reader.cache.misses == 0
    # Cached records round-trip through JSON (tuples come back as
    # lists), so the interchange guarantee is on the exported dataset.
    assert ResultStore(replayed).to_csv() == store.to_csv()


def _typed(value):
    """``value`` with the type of every nested member spelled out."""
    if isinstance(value, dict):
        return ("dict", tuple((_typed(k), _typed(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_typed(v) for v in value))
    return (type(value).__name__, value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_row_equals_one_iteration_run(data):
    """Row k of an n-iteration block is ``run(iteration=k)``, field by
    field and type by type, for any seed, environment, app, size,
    scenario (or none) and AMG process topology."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    env = ENVIRONMENTS[data.draw(st.sampled_from(sorted(ENVIRONMENTS)), label="env")]
    app = data.draw(st.sampled_from(sorted(APPS)), label="app")
    scale = data.draw(st.sampled_from(env.sizes()), label="scale")
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(0, n - 1), label="k")
    name = data.draw(st.sampled_from([None, *sorted(SCENARIOS)]), label="scenario")
    options = None
    if app == "amg2023":
        topology = data.draw(st.sampled_from([None, (8, 4, 2), (4, 4, 4)]), label="-P")
        options = None if topology is None else {"process_topology": topology}
    scn = None if name is None else scenario_lookup(name)

    store = ResultStore()
    ExecutionEngine(seed=seed, scenario=scn).run_block(
        env, app, scale, iterations=n, store=store, options=options
    )
    row = store.records[k]
    record = ExecutionEngine(seed=seed, scenario=scn).run(
        env, app, scale, iteration=k, options=options
    )
    assert record == row
    for f in dataclasses.fields(record):
        assert _typed(getattr(record, f.name)) == _typed(getattr(row, f.name)), f.name


def test_block_outcome_totals_match_record_clock():
    env = ENVIRONMENTS["cpu-aks-az"]
    engine = ExecutionEngine(seed=0)
    store = ResultStore()
    outcome = engine.run_block(env, "lammps", 64, iterations=5, store=store)
    assert outcome.count == len(store)
    total = 0.0
    for record in store.records:
        total = total + record.total_seconds
    assert outcome.total_seconds == total


# ------------------------------------------------------------- whole cells

#: the shard's stop rule (§3.3: AKS CPU at 256 ran one iteration)
AKS_CUTOFF = HookupCutoff(env_id="cpu-aks-az", scale=256, threshold_s=300.0)


def _clock(outcomes):
    """The shard clock: advanced app by app by each outcome's total."""
    now = 0.0
    for outcome in outcomes:
        now += outcome.total_seconds
    return now


def _assert_cell_equals_groups(
    tmp_path, env_id, scale, *, iterations=3, scenario=None, stop=None, cache=None
):
    """The full roster as one ``run_cell`` against one ``run_block`` per
    app, each side on its own fresh engine: records and every payload
    type, per-app outcomes and the shard clock, and cache counts.

    ``cache`` is ``None`` (no cache), ``"scope"`` (an empty cache, inside
    the cell's scope, as a cold cached shard runs) or ``"unscoped"`` (an
    empty cache outside any scope: per-iteration single-run entries).
    """
    env = ENVIRONMENTS[env_id]
    shard = StudyShard(
        index=0, env_id=env_id, scale=scale, apps=tuple(APPS),
        iterations=iterations, seed=3, scenario=scenario,
    )
    sides = {}
    for side in ("groups", "cell"):
        engine = ExecutionEngine(
            seed=3,
            scenario=scenario,
            cache=None if cache is None else RunCache(tmp_path / side),
        )
        store = ResultStore()
        scope = (
            engine.cache_scope(shard_summary_key(shard))
            if cache == "scope"
            else contextlib.nullcontext()
        )
        with scope:
            if side == "groups":
                outcomes = [
                    engine.run_block(
                        env, app, scale, iterations=iterations, store=store, stop=stop
                    )
                    for app in APPS
                ]
            else:
                outcomes = engine.run_cell(
                    env, tuple(APPS), scale, iterations=iterations, store=store, stop=stop
                )
        sides[side] = (engine, store, outcomes)
    (groups, group_store, group_outcomes), (cell, cell_store, cell_outcomes) = (
        sides["groups"], sides["cell"]
    )
    assert cell_outcomes == group_outcomes
    assert _clock(cell_outcomes) == _clock(group_outcomes)
    records = cell_store.records
    assert records == group_store.records
    for record, reference in zip(records, group_store.records):
        for f in dataclasses.fields(record):
            assert _typed(getattr(record, f.name)) == _typed(getattr(reference, f.name)), f.name
    # Each app's outcome totals its own records, in record order.
    start = 0
    for outcome in cell_outcomes:
        total = 0.0
        for record in records[start : start + outcome.count]:
            total = total + record.total_seconds
        assert outcome.total_seconds == total
        start += outcome.count
    assert start == len(records)
    if cache is not None:
        assert (cell.cache.hits, cell.cache.misses) == (groups.cache.hits, groups.cache.misses)
        assert cell.cache.hits + cell.cache.misses == sum(
            1 for record in records if record.failure_kind != "skipped"
        )
    return records


@pytest.mark.parametrize("cache", [None, "scope", "unscoped"])
def test_every_environments_roster_as_one_cell(tmp_path, cache):
    """Every environment, smallest and largest size: unsupported apps
    skip mid-roster (laghos on GPUs), undeployable environments skip
    whole."""
    skipped_mid_roster = undeployable = 0
    for env_id in ENVIRONMENTS:
        for scale in (32, 256):
            records = _assert_cell_equals_groups(
                tmp_path / f"{env_id}-{scale}", env_id, scale, cache=cache
            )
            apps = [record.app for record in records if record.failure_kind == "skipped"]
            if ENVIRONMENTS[env_id].deployable:
                skipped_mid_roster += apps == ["laghos"] * 3
            else:
                undeployable += len(apps) == 3 * len(APPS)
    assert skipped_mid_roster == 2 * 6 and undeployable == 2


@pytest.mark.parametrize("cache", [None, "scope"])
def test_cutoff_cell_stops_every_app_at_one_hookup(tmp_path, cache):
    records = _assert_cell_equals_groups(
        tmp_path, "cpu-aks-az", 256, iterations=5, stop=AKS_CUTOFF, cache=cache
    )
    assert [record.iteration for record in records] == [0] * len(APPS)


@pytest.mark.parametrize("cache", [None, "scope"])
def test_spot_cell_preempts_each_app_on_its_own_rows(tmp_path, cache):
    spot = scenario_lookup("spot-everything")
    preempted = Counter()
    for env_id, scale in (("cpu-aks-az", 128), ("cpu-cyclecloud-az", 64), ("gpu-eks-aws", 256)):
        records = _assert_cell_equals_groups(
            tmp_path / env_id, env_id, scale, iterations=8, scenario=spot, cache=cache
        )
        preempted.update(
            (env_id, record.app) for record in records
            if record.failure_kind == "spot-preemption"
        )
    # Several apps of one cell, each on its own rows.
    assert {app for env_id, app in preempted if env_id == "cpu-aks-az"} >= {"laghos", "mixbench"}


def test_generic_stop_applies_to_each_app_of_a_cell(tmp_path):
    _assert_cell_equals_groups(
        tmp_path, "cpu-eks-aws", 64, iterations=5,
        stop=lambda record: record.iteration >= 1 and record.app != "osu",
    )


def test_cell_reuses_sibling_runs_at_their_roster_position(tmp_path):
    """In a warm batch, an app a sibling entry holds reuses its runs
    where it stands in the roster, and the others simulate as the
    cell's block."""
    first = StudyConfig(
        env_ids=("cpu-eks-aws",), apps=("lammps", "osu"), sizes=(32,), iterations=3, seed=3
    )
    for side in ("groups", "cell"):
        StudyRunner(first, ExecutionOptions(cache_dir=str(tmp_path / side))).run()
    records = _assert_cell_equals_groups(tmp_path, "cpu-eks-aws", 32, cache="scope")
    assert [r.app for r in records][::3] == list(APPS)


def test_traced_shard_spans_once_per_cell_and_physics_once_per_app():
    env = ENVIRONMENTS["gpu-eks-aws"]
    shard = StudyShard(
        index=0, env_id=env.env_id, scale=32, apps=tuple(APPS), iterations=2, seed=0
    )
    tracer = Tracer()
    with use_tracer(tracer):
        execute_shard(shard)
    names = Counter(tracer.names)
    for name in ("engine.run_block", "engine.resolve_group", "engine.rng", "engine.price"):
        assert names[name] == 1, name
    physics = [
        attrs["app"] for name, attrs in zip(tracer.names, tracer.attrs)
        if name == "engine.physics"
    ]
    assert physics == [app for app in APPS if APPS[app].supports(env.accelerator)]
    assert "laghos" not in physics


# ------------------------------------------------------------- whole plans


def _study_config(**overrides):
    fields = dict(
        env_ids=("cpu-eks-aws", "cpu-onprem-a", "gpu-cyclecloud-az"),
        apps=("lammps", "minife", "single-node"),
        sizes=(32, 64),
        iterations=2,
        seed=3,
    )
    fields.update(overrides)
    return StudyConfig(**fields)


def _per_iteration_reference(config):
    """The per-iteration reference dataset for one study campaign."""
    engine = ExecutionEngine(seed=config.seed)
    records = []
    for env_id in config.env_ids:
        env = ENVIRONMENTS[env_id]
        for scale in config.sizes:
            for app in config.apps:
                records.extend(
                    _per_iteration_runs(engine, env, app, scale, iterations=config.iterations)
                )
    return records


def test_study_plan_matches_per_iteration_reference():
    config = _study_config()
    report = StudyRunner(config).run()
    assert report.store.records == _per_iteration_reference(config)


def test_study_plan_workers_unchanged():
    config = _study_config()
    serial = StudyRunner(config).run()
    parallel = StudyRunner(config, ExecutionOptions(workers=4)).run()
    assert parallel.store.records == serial.store.records
    assert parallel.store.to_csv() == serial.store.to_csv()


def test_scenario_plan_workers_unchanged():
    config = _study_config(env_ids=("cpu-eks-aws",), apps=("lammps", "osu"))
    scenarios = [scenario_lookup("spot-everything")]
    serial = ScenarioSweep(config, scenarios).run()
    parallel = ScenarioSweep(config, scenarios, ExecutionOptions(workers=4)).run()
    for sid, report in serial.reports.items():
        assert parallel.reports[sid].store.records == report.store.records


def test_ensemble_plan_workers_unchanged():
    spec = EnsembleSpec(
        n_replicas=2,
        base_seed=3,
        env_ids=("cpu-eks-aws",),
        apps=("lammps", "amg2023"),
        sizes=(32,),
        iterations=2,
    )
    serial = EnsembleRunner(spec).run()
    parallel = EnsembleRunner(spec, ExecutionOptions(workers=4)).run()
    assert parallel.render() == serial.render()
    assert parallel.to_json() == serial.to_json()
