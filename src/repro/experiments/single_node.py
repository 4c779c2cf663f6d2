"""§3.3 Single Node Benchmark: the supermarket fish problem.

The study's per-node inventory found machines consistent everywhere
except one AKS instance reporting two processors.  This harness surveys
large simulated fleets per environment and flags anomalies: one
single-node benchmark run per environment.
"""

from __future__ import annotations

from repro.envs.registry import cpu_environments, gpu_environments
from repro.experiments.base import ExperimentOutput
from repro.reporting.compare import Expectation
from repro.reporting.tables import Table
from repro.sim.execution import ExecutionEngine

SURVEY_NODES = 256


def run(seed: int = 0, iterations: int = 1) -> ExperimentOutput:
    engine = ExecutionEngine(seed=seed)
    table = Table(
        title="Single-node benchmark survey",
        columns=("Environment", "Nodes surveyed", "Anomalous nodes"),
        caption="Anomaly = node whose inventory deviates from the cluster mode "
        "(the supermarket fish problem).",
    )
    anomalies: dict[str, int] = {}
    for env in cpu_environments() + gpu_environments():
        record = engine.run(env, "single-node", SURVEY_NODES)
        anomalies[env.env_id] = int(record.fom)
        table.add(env.env_id, record.extra["nodes_surveyed"], int(record.fom))

    def only_aks_fishy() -> bool:
        for env_id, n in anomalies.items():
            if "aks" in env_id:
                continue  # may or may not surface at this sample size
            if n != 0:
                return False
        return sum(n for e, n in anomalies.items() if "aks" in e) >= 1

    expectations = [
        Expectation("nodebench",
                    "anomalous nodes occur on AKS and nowhere else",
                    only_aks_fishy, "§3.3 Single Node Benchmark"),
    ]
    return ExperimentOutput(
        experiment_id="nodebench",
        title="Single-node benchmark",
        table=table,
        expectations=expectations,
    )
