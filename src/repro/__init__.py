"""repro: a reproduction of "Usability Evaluation of Cloud for HPC
Applications" (Sochat et al., SC 2025).

The library simulates the paper's full study apparatus — three cloud
providers, six managed environments, two on-prem clusters, eleven HPC
proxy apps — and regenerates every table and figure of the evaluation.

Quickstart::

    from repro import ExecutionEngine, environment, app

    engine = ExecutionEngine(seed=7)
    env = environment("cpu-eks-aws")
    record = engine.run(env, app("amg2023"), scale=32)
    print(record.fom, record.fom_units)

See ``examples/`` for complete scenarios and ``repro.experiments`` for
the per-table/figure harnesses.
"""

from repro.apps import APPS, AppModel, RunContext, app
from repro.cloud import (
    AWS,
    Azure,
    CloudProvider,
    GoogleCloud,
    OnPrem,
    get_provider,
    instance,
)
from repro.core import (
    ResultStore,
    StudyConfig,
    StudyRunner,
    amg_cost_table,
    assess_environment,
    usability_table,
)
from repro.ensemble import EnsembleRunner, EnsembleSpec, ResultFrame
from repro.envs import ENVIRONMENTS, Environment, environment
from repro.network import FABRICS, fabric, hookup_time
from repro.parallel import StudyShard, execute_shards, merge_shard_results, plan_shards
from repro.plan import (
    ExecutionOptions,
    PlanExecutor,
    PlannedRun,
    PlanWorld,
    RunPlan,
    compile_ensemble,
    compile_scenarios,
    compile_study,
)
from repro.scenarios import SCENARIOS, Scenario, ScenarioSweep, scenario
from repro.sim import ExecutionEngine, RunCache, RunRecord, RunState
from repro.workflows import Component, ComponentKind, PortabilityScorer, Workflow

__version__ = "1.0.0"

__all__ = [
    "APPS",
    "AWS",
    "AppModel",
    "Azure",
    "CloudProvider",
    "Component",
    "ComponentKind",
    "ENVIRONMENTS",
    "EnsembleRunner",
    "EnsembleSpec",
    "Environment",
    "ExecutionEngine",
    "ExecutionOptions",
    "FABRICS",
    "GoogleCloud",
    "OnPrem",
    "PlanExecutor",
    "PlanWorld",
    "PlannedRun",
    "PortabilityScorer",
    "ResultFrame",
    "RunPlan",
    "ResultStore",
    "RunCache",
    "RunContext",
    "RunRecord",
    "RunState",
    "SCENARIOS",
    "Scenario",
    "ScenarioSweep",
    "StudyConfig",
    "StudyRunner",
    "StudyShard",
    "Workflow",
    "compile_ensemble",
    "compile_scenarios",
    "compile_study",
    "execute_shards",
    "merge_shard_results",
    "plan_shards",
    "amg_cost_table",
    "app",
    "assess_environment",
    "environment",
    "fabric",
    "scenario",
    "get_provider",
    "hookup_time",
    "instance",
    "usability_table",
    "__version__",
]
