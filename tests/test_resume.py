"""Checkpoint/resume: interrupted campaigns finish byte-identically.

The drill: run a campaign with a chaos ``abort`` fault armed on a late
cell (the model of the driver being killed mid-run), watch it die,
``resume`` against the same cache, and assert the finished dataset is
bit-for-bit the one an uninterrupted run produces — at workers 1 and 4.

Chaos rolls are pure functions of (seed, kind, cell coordinates), so
the tests *choose* their interruption point: they scan chaos seeds
against the compiled plan until the abort lands only after the first
chunk, deterministically.  A cell entry is its own record that the cell
completed: the rerun attaches every cell the interrupted run cached.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan
from repro.core.study import StudyConfig, StudyRunner
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.errors import ConfigurationError, ShardExecutionError
from repro.parallel.shard import attach_shard
from repro.plan import ExecutionOptions
from repro.sim.cache import RunCache

pytestmark = pytest.mark.chaos


def _interrupting_seed(shards, *, safe_until: int, rate: float = 0.1) -> int:
    """A chaos seed whose only aborts land at plan index >= safe_until.

    Every executed cell writes its entry before its result returns, so
    an abort in a later chunk leaves every earlier chunk's cells cached.
    """
    for seed in range(5000):
        plan = FaultPlan(abort=rate, seed=seed)
        rolls = [
            plan._roll("abort", (s.env_id, s.scale, s.world)) for s in shards
        ]
        if not any(rolls[:safe_until]) and any(rolls[safe_until:]):
            return seed
    raise AssertionError("no interrupting chaos seed found in range")


def _attachable(cache: str, shards) -> int:
    """How many of ``shards`` a rerun against ``cache`` would attach."""
    probe = RunCache(cache)
    return sum(attach_shard(shard, probe) is not None for shard in shards)


# -- study campaigns ----------------------------------------------------------

_STUDY = StudyConfig(
    env_ids=("cpu-eks-aws", "cpu-onprem-a"),
    apps=("lammps",),
    sizes=(16, 32, 64),
    iterations=2,
)


@pytest.fixture(scope="module")
def study_csv() -> str:
    return StudyRunner(_STUDY).run().store.to_csv()


def test_interrupted_study_resumes_byte_identically(tmp_path, study_csv):
    cache = str(tmp_path / "cache")
    shards = StudyRunner(_STUDY).compile().shards
    # workers=1 runs chunks of 4: an abort past index 4 leaves at least
    # the first chunk's four cells cached.
    seed = _interrupting_seed(shards, safe_until=4)
    interrupted = StudyRunner(
        _STUDY,
        ExecutionOptions(cache_dir=cache, chaos=FaultPlan(abort=0.1, seed=seed)),
    )
    with pytest.raises(ShardExecutionError):
        interrupted.run()
    assert _attachable(cache, shards) >= 4

    resumed = StudyRunner(_STUDY, ExecutionOptions(cache_dir=cache, resume=True)).run()
    assert resumed.store.to_csv() == study_csv
    assert resumed.faults is not None
    assert resumed.faults.resumed >= 4


def test_resume_of_a_finished_study_attaches_everything(tmp_path, study_csv):
    cache = str(tmp_path / "cache")
    StudyRunner(_STUDY, ExecutionOptions(cache_dir=cache)).run()
    resumed = StudyRunner(_STUDY, ExecutionOptions(cache_dir=cache, resume=True)).run()
    assert resumed.store.to_csv() == study_csv
    assert resumed.faults.resumed == len(_STUDY.env_ids) * len(_STUDY.sizes)


def test_resume_without_cache_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="cache"):
        StudyRunner(_STUDY, ExecutionOptions(resume=True)).run()


def test_every_cell_of_a_clean_cached_run_is_attachable(tmp_path):
    """Any cached run is resumable: every cell it ran left an entry."""
    cache = str(tmp_path / "cache")
    StudyRunner(_STUDY, ExecutionOptions(cache_dir=cache)).run()
    shards = StudyRunner(_STUDY).compile().shards
    assert len(shards) == len(_STUDY.env_ids) * len(_STUDY.sizes)
    assert _attachable(cache, shards) == len(shards)


# -- ensembles: interrupt after K of N worlds ---------------------------------

_SPEC = EnsembleSpec(
    n_replicas=20,
    base_seed=0,
    env_ids=("cpu-eks-aws",),
    apps=("lammps",),
    sizes=(32,),
    iterations=1,
)


@pytest.fixture(scope="module")
def ensemble_csv() -> str:
    return EnsembleRunner(_SPEC).run().distribution_table().to_csv()


@pytest.mark.parametrize("workers", [1, 4])
def test_interrupted_ensemble_resumes_byte_identically(
    tmp_path, ensemble_csv, workers
):
    cache = str(tmp_path / "cache")
    shards = EnsembleRunner(_SPEC).compile().shards
    assert len(shards) == 20  # one cell per world: world k is shard k
    # Chunks are 4*workers shards; an abort past index 16 interrupts
    # after at least one full chunk at either worker count.
    seed = _interrupting_seed(shards, safe_until=16)
    interrupted = EnsembleRunner(
        _SPEC,
        ExecutionOptions(
            workers=workers,
            cache_dir=cache,
            chaos=FaultPlan(abort=0.1, seed=seed),
        ),
    )
    with pytest.raises(ShardExecutionError):
        interrupted.run()
    # The interrupted run cached the cells it finished...
    assert _attachable(cache, shards) >= 4

    # ...and the resume completes the remaining worlds to the same bytes.
    # Recovery is two-layered: worlds the interrupted run *folded* replay
    # from the world-summary cache; cells cached but never folded attach
    # from the cell cache.  Both layers must engage.
    resumed_runner = EnsembleRunner(
        _SPEC,
        ExecutionOptions(workers=workers, cache_dir=cache, resume=True),
    )
    result = resumed_runner.run()
    assert result.distribution_table().to_csv() == ensemble_csv
    assert result.faults is not None
    assert result.faults.resumed >= 1
    assert result.world_cache_hits >= 16


def test_ensemble_resume_requires_cache():
    with pytest.raises(ConfigurationError, match="cache"):
        EnsembleRunner(_SPEC, ExecutionOptions(resume=True))
