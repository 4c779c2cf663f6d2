"""Exception hierarchy for the repro library.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without masking programming errors.  Several
exceptions model *study-visible* failures from the paper: quota denials,
capacity stalls, placement-group caps, container build conflicts.  Those
carry enough structure for the usability scorer to convert them into
incident records.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """A study or environment configuration is internally inconsistent."""


class CatalogError(ReproError):
    """Unknown instance type, processor, or fabric."""


class QuotaError(ReproError):
    """A quota request was denied or exceeded.

    Attributes
    ----------
    cloud:
        Cloud short name (``aws``, ``az``, ``g``, ``p``).
    resource:
        The resource class the quota covers (e.g. instance type name).
    requested, granted:
        Requested and currently granted quantities.
    """

    def __init__(self, cloud: str, resource: str, requested: int, granted: int):
        self.cloud = cloud
        self.resource = resource
        self.requested = requested
        self.granted = granted
        super().__init__(
            f"quota denied on {cloud} for {resource}: "
            f"requested {requested}, granted {granted}"
        )


class ProvisioningError(ReproError):
    """Cluster bring-up failed (partially or totally).

    ``nodes_acquired`` records how many instances were running when the
    failure was detected; billing continues to accrue for them until the
    caller releases the cluster, which is exactly the failure mode the
    paper hit on EKS at 256 nodes (charged ~$2.5k waiting for capacity).
    """

    def __init__(self, message: str, nodes_acquired: int = 0, cost_accrued: float = 0.0):
        self.nodes_acquired = nodes_acquired
        self.cost_accrued = cost_accrued
        super().__init__(message)


class PlacementError(ReproError):
    """A placement-group request could not be honoured."""


class SchedulingError(ReproError):
    """A job could not be scheduled (bad spec, no feasible nodes)."""


class ContainerBuildError(ReproError):
    """A container recipe could not be built.

    Carries the conflicting requirement pair when the failure is a
    dependency conflict (e.g. the paper's Laghos GPU build, where two
    dependencies required different CUDA versions).
    """

    def __init__(self, message: str, conflicts: tuple[str, ...] = ()):
        self.conflicts = conflicts
        super().__init__(message)


class EnvironmentUnavailableError(ReproError):
    """The environment cannot be deployed at all.

    The paper reduced its assessment from 12 to 11 cloud environments
    because AWS ParallelCluster GPU required a custom build combining
    newer orchestration software with older drivers, which was not
    possible.  That environment raises this error on deploy.
    """


class BudgetExceededError(ReproError):
    """The study budget guard tripped."""

    def __init__(self, cloud: str, budget: float, spent: float):
        self.cloud = cloud
        self.budget = budget
        self.spent = spent
        super().__init__(
            f"budget exceeded on {cloud}: spent ${spent:,.2f} of ${budget:,.2f}"
        )


class ExecutionError(ReproError):
    """An application run failed (segfault, timeout, misconfiguration)."""

    def __init__(self, message: str, *, kind: str = "error"):
        #: failure kind: "segfault", "timeout", "misconfiguration", "error"
        self.kind = kind
        super().__init__(message)


class TransientShardError(ReproError):
    """A shard failed for a reason worth retrying.

    The resilient pool (:mod:`repro.parallel.pool`) re-dispatches shards
    that raise this (or another transient class) with exponential
    backoff, instead of failing the campaign.  ``injected`` marks faults
    raised by the chaos harness (:mod:`repro.chaos`), so retry
    accounting can attribute them.
    """

    def __init__(self, message: str, *, injected: bool = False):
        self.injected = injected
        super().__init__(message)


class ChaosAbortError(ReproError):
    """A chaos-injected *fatal* failure (models the driver being killed).

    Never retried: the run stops with a :class:`ShardExecutionError`
    naming the cell, and every cell entry already written survives for
    a rerun (``--resume``) to attach.
    """


class ShardExecutionError(ReproError):
    """A shard exhausted its retries (or failed fatally) in the pool.

    The typed wrapper every pool-surfaced failure crosses the CLI
    boundary in: it names the shard's world, cell, and attempt count,
    and chains the underlying exception as ``__cause__`` — no raw
    worker tracebacks escape :func:`~repro.parallel.pool.pmap`.
    """

    def __init__(
        self,
        message: str,
        *,
        env_id: str | None = None,
        scale: int | None = None,
        world: int | None = None,
        attempts: int = 1,
    ):
        self.env_id = env_id
        self.scale = scale
        self.world = world
        self.attempts = attempts
        super().__init__(message)

    @classmethod
    def wrap(cls, item: object, ordinal: int, attempts: int, cause: BaseException) -> "ShardExecutionError":
        """Build the error for ``item`` (a shard, or any mapped value)."""
        env_id = getattr(item, "env_id", None)
        scale = getattr(item, "scale", None)
        world = getattr(item, "world", None)
        if env_id is not None:
            where = f"cell ({env_id}, {scale}) of world {world}"
        else:
            where = f"pool item {ordinal}"
        noun = "attempt" if attempts == 1 else "attempts"
        return cls(
            f"{where} failed after {attempts} {noun}: {cause}",
            env_id=env_id,
            scale=scale if isinstance(scale, int) else None,
            world=world if isinstance(world, int) else None,
            attempts=attempts,
        )
