"""run_block ≡ the scalar per-iteration path, end to end.

The acceptance criterion of the vectorized iteration axis: the block
path — batched keyed RNG, columnar app physics, array-native pricing /
walltime / preemption, ``append_block`` — is byte-identical to the
scalar reference (per-iteration :meth:`ExecutionEngine.run` calls),
over every app, over cache states, over early-stop cutoffs, and over
whole study / scenario / ensemble plans at any worker count.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.plan import ExecutionOptions
from repro.scenarios import ScenarioSweep
from repro.scenarios.presets import scenario as scenario_lookup
from repro.sim.cache import RunCache
from repro.sim.execution import ExecutionEngine, HookupCutoff


def _scalar_runs(engine, env, app, scale, *, iterations, stop=None):
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
    scalar = ExecutionEngine(seed=0, scenario=scenario)
    block = ExecutionEngine(seed=0, scenario=scenario)
    reference = _scalar_runs(scalar, env, app, scale, iterations=iterations, stop=stop)
    store = _block_store(block, env, app, scale, iterations=iterations, stop=stop)
    assert store.records == reference


# ----------------------------------------------------------- per-group paths


@pytest.mark.parametrize("app", sorted(APPS))
def test_every_app_block_equals_scalar(app):
    """Every registered app: same records on both paths."""
    for env_id in ("cpu-eks-aws", "gpu-gke-g", "cpu-aks-az", "cpu-onprem-a"):
        _assert_equivalent(env_id, app, 64)


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
    scalar = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "a"))
    block = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "b"))
    for iterations in (6, 6, 9):  # cold, warm, mixed tail
        reference = _scalar_runs(scalar, env, "osu", 64, iterations=iterations)
        store = _block_store(block, env, "osu", 64, iterations=iterations)
        assert store.records == reference
        assert block.cache.hits == scalar.cache.hits
        assert block.cache.misses == scalar.cache.misses


def test_stop_truncation_realigns_invalid_counter(tmp_path):
    """A corrupt cache entry past the stop point is not a degradation.

    The scalar path never probes beyond the stop, so it never sees the
    corrupt entry; the block path probes up front and must re-align
    ``cache.invalid`` (not just hits/misses) to the executed prefix.
    """
    env = ENVIRONMENTS["cpu-aks-az"]
    stop = HookupCutoff(env_id="cpu-aks-az", scale=256, threshold_s=300.0)
    warm = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "c"))
    _block_store(warm, env, "lammps", 256, iterations=5)  # populate entries
    # Corrupt the entry for an iteration the stop will cut off.
    from repro.sim.cache import run_key_block

    keys = run_key_block(
        seed=0, env_id=env.env_id, app="lammps", scale=256,
        iterations=range(5),
        engine_options={"azure_ucx_tuned": True, "options": {}},
        scenario=None,
    )
    (warm.cache.path(keys[3])).write_text("garbage", encoding="utf-8")

    scalar = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "c"))
    reference = _scalar_runs(scalar, env, "lammps", 256, iterations=5, stop=stop)
    block = ExecutionEngine(seed=0, cache=RunCache(tmp_path / "c"))
    store = _block_store(block, env, "lammps", 256, iterations=5, stop=stop)
    assert store.records == reference
    assert block.cache.hits == scalar.cache.hits
    assert block.cache.misses == scalar.cache.misses
    assert block.cache.invalid == scalar.cache.invalid == 0


def test_block_and_scalar_caches_interchange(tmp_path):
    """Entries written by one path replay byte-identically in the other."""
    env = ENVIRONMENTS["cpu-eks-aws"]
    shared = tmp_path / "shared"
    writer = ExecutionEngine(seed=0, cache=RunCache(shared))
    store = _block_store(writer, env, "amg2023", 64, iterations=4)
    reader = ExecutionEngine(seed=0, cache=RunCache(shared))
    replayed = _scalar_runs(reader, env, "amg2023", 64, iterations=4)
    assert reader.cache.hits == 4 and reader.cache.misses == 0
    # Cached records round-trip through JSON (tuples come back as
    # lists), so the interchange guarantee is on the exported dataset.
    assert ResultStore(replayed).to_csv() == store.to_csv()


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


def _scalar_reference(config):
    """The per-iteration reference dataset for one study campaign."""
    engine = ExecutionEngine(seed=config.seed)
    records = []
    for env_id in config.env_ids:
        env = ENVIRONMENTS[env_id]
        for scale in config.sizes:
            for app in config.apps:
                records.extend(
                    _scalar_runs(engine, env, app, scale, iterations=config.iterations)
                )
    return records


def test_study_plan_matches_per_iteration_reference():
    config = _study_config()
    report = StudyRunner(config).run()
    assert report.store.records == _scalar_reference(config)


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
