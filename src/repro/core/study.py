"""Study orchestration: the full experimental campaign of §2.

:class:`StudyRunner` reproduces the study's workflow end to end:

1. request quotas per cloud and instance type (padding GPU requests — the
   33-for-32 trick);
2. build and push the container matrix for the configured apps and
   environments (recording build failures as incidents);
3. for each environment and cluster size: provision a cluster (charging
   the billing meter, recording provisioning faults), deploy the
   environment (Kubernetes: cluster + daemonsets + Flux Operator
   MiniCluster; VM: Singularity pulls; on-prem: queue waits), run each
   app for ``iterations`` iterations, release the cluster;
4. collect every run in a :class:`~repro.core.results.ResultStore` and
   every effort event in the incident log.

The paper created separate clusters per size for cost efficiency
(§2.9); so does the runner — and that per-size independence is what
makes the campaign shardable.  Step 3 is planned as one
:class:`~repro.parallel.shard.StudyShard` per (environment, size) cell
and executed through :mod:`repro.parallel`: serially for ``workers=1``,
across a process pool otherwise, with per-cell keyed seeds so any worker
count produces a byte-identical dataset.  An optional content-addressed
run cache (:mod:`repro.sim.cache`) lets repeated campaigns skip
simulation for runs already recorded.

A full-size study produces tens of thousands of records (the paper:
25,541); the default config is sized for CI while
`StudyConfig.full_study()` matches the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.registry import APPS
from repro.containers.builder import AZURE_UCX_SETTINGS, ContainerBuilder
from repro.containers.recipe import recipe_for
from repro.containers.registry import Registry
from repro.core.incidents import (
    Incident,
    incident_from_build_failure,
)
from repro.core.results import ResultStore
from repro.envs.environment import EnvironmentKind
from repro.envs.registry import ENVIRONMENTS
from repro.parallel.merge import TransportStats
from repro.parallel.pool import FaultStats
from repro.errors import ConfigurationError
from repro.telemetry import span

if TYPE_CHECKING:  # repro.plan sits above this module in the import graph
    from repro.plan.executor import ExecutionOptions


@dataclass
class StudyConfig:
    """What to run."""

    env_ids: tuple[str, ...]
    apps: tuple[str, ...]
    sizes: tuple[int, ...] | None = None  # None -> each env's study sizes
    iterations: int = 5
    seed: int = 0

    @classmethod
    def smoke(cls, seed: int = 0) -> "StudyConfig":
        """A small configuration for tests: two envs, two apps, one size."""
        return cls(
            env_ids=("cpu-eks-aws", "cpu-onprem-a"),
            apps=("amg2023", "lammps"),
            sizes=(32,),
            iterations=2,
            seed=seed,
        )

    @classmethod
    def full_study(cls, seed: int = 0) -> "StudyConfig":
        """The paper's campaign: all environments, all apps, 5 iterations."""
        return cls(
            env_ids=tuple(ENVIRONMENTS),
            apps=tuple(APPS),
            sizes=None,
            iterations=5,
            seed=seed,
        )


@dataclass
class StudyReport:
    """Everything a campaign produced."""

    store: ResultStore
    incidents: dict[str, list[Incident]]
    spend_by_cloud: dict[str, float]
    containers_built: int
    containers_failed: int
    clusters_created: int
    cache_hits: int = 0
    cache_misses: int = 0
    #: malformed cache entries encountered (each re-simulated, each
    #: leaving a one-line warning — see :mod:`repro.sim.cache`)
    cache_invalid: int = 0
    #: why those entries were invalid: reason label → count (capped per
    #: shard at :data:`~repro.sim.cache.INVALID_REASON_CAP` labels)
    cache_invalid_reasons: dict[str, int] = field(default_factory=dict)
    #: how shard result stores crossed back from the worker pool
    #: (``None`` only for reports predating transport accounting)
    transport: TransportStats | None = None
    #: recovery events the execution path survived (retries, requeues,
    #: rebuilds, resumed cells); ``None`` when nothing happened —
    #: faults never change the dataset, only this accounting
    faults: FaultStats | None = None

    @property
    def datasets(self) -> int:
        return len(self.store)

    def to_json_dict(self) -> dict:
        """A JSON-safe snapshot: campaign summary plus every record."""
        from repro.sim.cache import encode_record

        summary = {
            "datasets": self.datasets,
            "clusters_created": self.clusters_created,
            "containers_built": self.containers_built,
            "containers_failed": self.containers_failed,
            "spend_by_cloud": dict(sorted(self.spend_by_cloud.items())),
            "incidents": sum(len(i) for i in self.incidents.values()),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "invalid": self.cache_invalid,
            },
        }
        if self.faults is not None and self.faults.activity:
            # Only when something actually happened: a clean run's
            # snapshot stays byte-identical to pre-fault-tolerance ones.
            summary["faults"] = self.faults.to_dict()
        return {
            "summary": summary,
            "records": [encode_record(r) for r in self.store],
        }


class StudyRunner:
    """Executes a :class:`StudyConfig`.

    ``options`` (:class:`~repro.plan.executor.ExecutionOptions`) says
    how: worker processes for the campaign's (environment, size) cells,
    the content-addressed cache, the retry ladder, fault injection and
    resume.  None of them changes the dataset (see :mod:`repro.parallel`).

    ``scenario`` runs the whole campaign under a what-if overlay
    (:mod:`repro.scenarios`); ``None`` — or an empty scenario — is the
    baseline world, byte for byte.
    """

    def __init__(
        self,
        config: StudyConfig,
        options: ExecutionOptions | None = None,
        *,
        scenario=None,
    ):
        from repro.plan.executor import ExecutionOptions

        self.config = config
        self.options = options if options is not None else ExecutionOptions()
        self.scenario = scenario
        self.registry = Registry()
        self.builder = ContainerBuilder()
        self.store = ResultStore()
        self.incidents: dict[str, list[Incident]] = {}
        self.clusters_created = 0

    # -- pieces -------------------------------------------------------------

    def _note_incident(self, env_id: str, incident: Incident) -> None:
        self.incidents.setdefault(env_id, []).append(incident)

    def build_containers(self) -> None:
        """Build the container matrix for configured apps/environments."""
        with span("study.build_containers", envs=len(self.config.env_ids)):
            self._build_containers()

    def _build_containers(self) -> None:
        built_tags: set[str] = set()
        for env_id in self.config.env_ids:
            env = ENVIRONMENTS[env_id]
            if env.container_runtime is None:
                continue
            ucx = None
            if env.cloud == "az":
                kind = "k8s" if env.kind is EnvironmentKind.K8S else "vm"
                ucx = AZURE_UCX_SETTINGS[kind]
            for app_name in self.config.apps:
                if app_name not in APPS:
                    raise ConfigurationError(f"unknown app {app_name!r}")
                model = APPS[app_name]
                if not model.supports(env.accelerator):
                    # Attempt anyway when the failure is a *build* failure
                    # (Laghos GPU) so the incident gets recorded.
                    if env.accelerator == "gpu" and app_name == "laghos":
                        recipe = recipe_for(app_name, env.cloud, gpu=True)
                        result = self.builder.try_build(recipe, ucx_tls=ucx)
                        if not result.ok:
                            self._note_incident(
                                env_id, incident_from_build_failure(env_id, result)
                            )
                    continue
                recipe = recipe_for(app_name, env.cloud, gpu=env.is_gpu)
                if recipe.tag in built_tags:
                    continue
                result = self.builder.try_build(recipe, ucx_tls=ucx)
                built_tags.add(recipe.tag)
                if result.ok:
                    self.registry.push(result.image)
                else:
                    self._note_incident(
                        env_id, incident_from_build_failure(env_id, result)
                    )

    # -- campaign ----------------------------------------------------------------

    def compile(self):
        """The campaign as a :class:`~repro.plan.ir.RunPlan` (one world)."""
        from repro.plan import compile_study

        return compile_study(
            self.config, cache_dir=self.options.cache_dir, scenario=self.scenario
        )

    def run(self) -> StudyReport:
        """Execute the configured campaign through the shared planner."""
        from repro.plan import PlanExecutor
        from repro.scenarios.spec import active

        with span("study.run", seed=self.config.seed, workers=self.options.workers):
            self.build_containers()

            scn = active(self.scenario)
            executor = PlanExecutor(self.compile(), self.options)
            ((_, merged),) = executor.run(seed_incidents=self.incidents)

            self.store = merged.store
            self.incidents = merged.incidents
            self.clusters_created = merged.clusters_created

            # §2.9: job output is pushed to the registry (ORAS-style).
            artifact = f"study-seed{self.config.seed}"
            if scn is not None:
                artifact += f"-{scn.scenario_id}"
            name, payload = self.store.to_artifact(artifact)
            self.registry.push_artifact(name, payload)

            return StudyReport(
                store=self.store,
                incidents=self.incidents,
                spend_by_cloud=merged.spend_by_cloud,
                containers_built=self.builder.built,
                containers_failed=self.builder.failed,
                clusters_created=self.clusters_created,
                cache_hits=merged.cache_hits,
                cache_misses=merged.cache_misses,
                cache_invalid=merged.cache_invalid,
                cache_invalid_reasons=merged.cache_invalid_reasons,
                transport=merged.transport,
                faults=executor.faults,
            )
