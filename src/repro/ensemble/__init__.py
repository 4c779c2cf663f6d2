"""Monte-Carlo replication: distributions, not point estimates.

The paper's campaign is a single world — one seed, five iterations per
cell, a point estimate for every figure of merit, cost, and incident
count.  This package replicates the whole study across a seed grid × a
scenario grid and reports *distributions*: means with 95% confidence
intervals, exact percentiles, and exceedance probabilities against the
seed study's own point values.

* :mod:`~repro.ensemble.spec` — :class:`EnsembleSpec`, the declarative
  plan (replicas, base seed, scenarios, cell filters; dict/JSON
  loadable, stable digest);
* :mod:`~repro.ensemble.frame` — :class:`ResultFrame`, the columnar
  fast path: one NumPy structured array per store, vectorized
  (env, app, scale) group-by;
* :mod:`~repro.ensemble.stats` — :class:`StreamAccumulator` /
  :class:`CellStats`, streaming Welford moments, min/max, and exact
  small-N percentiles keyed by cell — O(cells) memory however many
  worlds run;
* :mod:`~repro.ensemble.runner` — :class:`EnsembleRunner`, a thin
  front-end over the shared execution planner (:mod:`repro.plan`): the
  grid compiles to one :class:`~repro.plan.ir.RunPlan`, worlds stream
  through the :class:`~repro.plan.executor.PlanExecutor`, each world
  folds on arrival, and per-world summaries are cached
  (:func:`repro.sim.cache.world_key`) so warm re-runs are nearly free.

Quickstart::

    from repro.ensemble import EnsembleRunner, EnsembleSpec
    from repro.plan import ExecutionOptions
    from repro.scenarios import scenario

    spec = EnsembleSpec(
        n_replicas=8,
        scenarios=(scenario("spot-everything"),),
        env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,),
    )
    result = EnsembleRunner(spec, ExecutionOptions(workers=4)).run()
    print(result.render())   # mean ± CI, p10/p50/p90, P(FOM ≥ baseline)
"""

from repro.ensemble.frame import FRAME_DTYPE, CellAggregates, ResultFrame
from repro.ensemble.runner import EnsembleResult, EnsembleRunner
from repro.ensemble.spec import EnsembleSpec
from repro.ensemble.stats import CellStats, StreamAccumulator, t_critical_95

__all__ = [
    "CellAggregates",
    "CellStats",
    "EnsembleResult",
    "EnsembleRunner",
    "EnsembleSpec",
    "FRAME_DTYPE",
    "ResultFrame",
    "StreamAccumulator",
    "t_critical_95",
]
