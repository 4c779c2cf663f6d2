"""One execution planner for every orchestration front-end.

``repro.plan`` is the compile→execute→merge pipeline the study, the
scenario sweep, and the ensemble all share:

* :mod:`repro.plan.ir` — the :class:`RunPlan` intermediate
  representation: worlds → shards → explicit :class:`PlannedRun` units;
* :mod:`repro.plan.compile` — compilers from each front-end's config;
* :mod:`repro.plan.executor` — the single :class:`PlanExecutor` that
  runs any plan serially or across the worker pool with byte-identical
  merge order, under one frozen :class:`ExecutionOptions` value;
* :mod:`repro.plan.diff` — cell-granular plan diffing: classify every
  (env, size) cell of a variant plan as *reusable* (attachable from the
  baseline's cache) or *dirty* (the scenario's overlay hooks touch it),
  powering the executor's incremental mode.

``repro plan show`` prints a compiled plan — worlds, shards, run
counts, digest — before anything executes; ``repro plan diff`` prints
the reusable/dirty classification the incremental mode would act on.
"""

from repro.plan.compile import compile_ensemble, compile_scenarios, compile_study
from repro.plan.diff import CellDiff, PlanDiff, diff_plans
from repro.plan.executor import ExecutionOptions, PlanExecutor, ReuseStats
from repro.plan.ir import PlannedRun, PlanWorld, RunPlan, planned_runs

__all__ = [
    "CellDiff",
    "ExecutionOptions",
    "PlanDiff",
    "PlanExecutor",
    "PlanWorld",
    "PlannedRun",
    "ReuseStats",
    "RunPlan",
    "compile_ensemble",
    "compile_scenarios",
    "compile_study",
    "diff_plans",
    "planned_runs",
]
