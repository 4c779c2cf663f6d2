"""Application-model framework.

An :class:`AppModel` turns a :class:`RunContext` (environment, scale,
effective fabric, node model, RNG) into an :class:`AppResult` (FOM,
phase timings, failure state).  The performance decomposition is::

    wall = setup + n_iters * (t_compute + t_comm)

with compute from the machine model and communication from the
collective cost models.  Two shared effects live here because every
latency-sensitive app needs them:

``straggler_factor``
    Collectives complete when the *slowest* rank arrives.  OS noise and
    shared-tenancy jitter make the expected maximum over ``p`` ranks
    grow with ``jitter_cv * log2(p)`` (extreme-value scaling of
    per-message delays).  Dedicated OS-bypass fabrics (jitter_cv ≈ 0.03)
    barely feel this; kernel-path cloud networking (0.10–0.18) pays an
    order of magnitude at thousands of ranks.  This is the mechanism
    behind the paper's observation that latency-bound apps (Laghos,
    MiniFE) collapse on cloud while surviving on-prem.

``strong_scaling_efficiency``
    When the per-rank working set shrinks below a kernel's efficient
    size, vectorisation and cache reuse die; modelled as
    ``w / (w + w_half)`` (the classic n_1/2 curve).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.envs.environment import Environment
from repro.machine.node import NodeModel
from repro.machine.rates import KernelClass
from repro.network.collectives import CollectiveModel
from repro.network.fabric import Fabric

#: Weight of the jitter term in the straggler factor (calibrated so EFA
#: at ~3k ranks pays ~10x while Omni-Path pays ~4x, matching the
#: on-prem/cloud FOM gaps of Figures 3 and 6).
STRAGGLER_WEIGHT = 8.0

#: Reference frequency per architecture at which ARCH_RATES were
#: calibrated; clock-sensitive kernels scale with nominal_ghz / ref.
REF_GHZ = {
    "sapphire_rapids": 2.9,
    "milan": 3.125,  # EPYC 7R13 as shipped on Hpc6a
    "power9": 2.9,
    "skylake": 2.8,
    "haswell": 2.3,
}


def straggler_factor(fabric: Fabric, ranks: int) -> float:
    """Expected slowdown of a latency-bound collective from jitter."""
    if ranks < 2:
        return 1.0
    return 1.0 + STRAGGLER_WEIGHT * fabric.jitter_cv * math.log2(ranks)


def strong_scaling_efficiency(work_per_rank: float, half_work: float) -> float:
    """Fraction of peak sustained when per-rank work shrinks (n_1/2)."""
    if work_per_rank <= 0:
        return 0.0
    return work_per_rank / (work_per_rank + half_work)


@dataclass
class RunContext:
    """Everything an app model may consult for one run."""

    env: Environment
    scale: int  # nodes (CPU) or GPUs (GPU environments)
    nodes: int
    ranks: int
    node_model: NodeModel
    fabric: Fabric  # effective fabric after topology degradation
    rng: np.random.Generator
    iteration: int = 0
    #: app-specific options (e.g. AMG process topology "-P 8 4 2")
    options: dict[str, Any] = field(default_factory=dict)
    #: shared memoized collective model; a resolved group
    #: (:meth:`ExecutionEngine.resolve_group`) passes one model to every
    #: context it builds so distinct collectives price once per group
    comm_model: CollectiveModel | None = field(default=None, repr=False, compare=False)
    #: group-scoped memo for :meth:`once`; a resolved group shares one
    #: dict across its contexts, a standalone context gets its own
    group_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def comm(self) -> CollectiveModel:
        if self.comm_model is None:
            self.comm_model = CollectiveModel(self.fabric)
        return self.comm_model

    def once(self, key: tuple, fn):
        """Compute a group-deterministic value once per batched group.

        ``fn`` must be pure in the group coordinates (env, app, scale,
        options) — in particular it must never touch :attr:`rng`, which
        is per-iteration.  Outside a batch the memo is per-context, so
        values (and rng call patterns) are identical either way.
        """
        value = self.group_memo.get(key)
        if value is None:
            value = self.group_memo[key] = fn()
        return value

    def straggler(self) -> float:
        return straggler_factor(self.fabric, self.ranks)

    # -- rates ------------------------------------------------------------------

    def node_rate_gflops(self, kernel_class: KernelClass) -> float:
        """Effective per-node rate including frequency and env derates."""
        env = self.env
        if env.is_gpu:
            rate = self.node_model.gpu_rate_gflops(kernel_class)
            return rate * env.compute_efficiency * env.gpu_efficiency
        rate = self.node_model.cpu_rate_gflops(kernel_class)
        if kernel_class is not KernelClass.MEMORY:
            proc = env.instance().processor
            rate *= proc.nominal_ghz / REF_GHZ.get(proc.arch, proc.nominal_ghz)
        return rate * env.compute_efficiency

    def cluster_rate_gflops(self, kernel_class: KernelClass) -> float:
        return self.nodes * self.node_rate_gflops(kernel_class)

    def compute_time(self, gflops: float, kernel_class: KernelClass) -> float:
        """Seconds for the whole allocation to do ``gflops`` of work."""
        if gflops < 0:
            raise ValueError("work must be non-negative")
        return gflops / self.cluster_rate_gflops(kernel_class)


@dataclass
class AppBlockResult:
    """Columnar outcome of every iteration of one group.

    Parallel arrays over the block's iterations; scalar fields mean
    "the same for every iteration" (the common case — apps fail
    uniformly per group, never per iteration).

    * ``fom`` — float column, NaN where the scalar path yields ``None``;
    * ``wall`` — wall seconds per iteration;
    * ``failed`` — bool column, or ``None`` when no iteration failed;
    * ``failure_kind`` — one kind shared by every failed iteration;
    * ``phases`` / ``extra`` — either one dict shared by every
      iteration (group-constant payloads), a dict whose array leaves
      hold per-iteration values (materialized lazily by the store), or
      an explicit per-iteration list.
    """

    app: str
    fom: np.ndarray
    fom_units: str
    wall: np.ndarray
    failed: np.ndarray | None = None
    failure_kind: str | None = None
    phases: dict | list = field(default_factory=dict)
    extra: dict | list = field(default_factory=dict)


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    fom: float | None
    fom_units: str
    wall_seconds: float
    phases: dict[str, float] = field(default_factory=dict)
    failed: bool = False
    failure_kind: str | None = None  # "segfault" | "misconfiguration" | ...
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed and self.fom is not None


class AppModel(abc.ABC):
    """One study application."""

    #: registry key, matching the container recipe name
    name: str = ""
    display_name: str = ""
    fom_name: str = ""
    fom_units: str = ""
    higher_is_better: bool = True
    scaling: str = "strong"  # or "weak"
    supports_cpu: bool = True
    supports_gpu: bool = True
    #: populated when a platform is unsupported, mirroring the paper
    unsupported_reason: dict[str, str] = {}

    def supports(self, accelerator: str) -> bool:
        return self.supports_gpu if accelerator == "gpu" else self.supports_cpu

    @abc.abstractmethod
    def simulate(self, ctx: RunContext) -> AppResult:
        """Produce the run outcome for one (environment, scale) point."""

    @abc.abstractmethod
    def simulate_block(self, ctx: RunContext, block) -> AppBlockResult:
        """Columnar outcome for a whole group of iterations at once.

        ``ctx`` is the group's shared context (its ``rng``/``iteration``
        are ignored here — per-iteration randomness comes from
        ``block``, a :class:`~repro.rng.StreamBlock` whose stream ``j``
        is iteration ``block.iterations[j]``'s keyed stream).  Must be
        bit-identical to :meth:`simulate` replayed per iteration through
        the block's streams.
        """

    # -- helpers ----------------------------------------------------------------

    def _noisy(self, ctx: RunContext, value: float, cv: float | None = None) -> float:
        """Apply run-to-run noise scaled to the fabric's jitter."""
        cv = cv if cv is not None else ctx.fabric.jitter_cv
        return value * float(max(0.1, ctx.rng.normal(1.0, cv)))

    def _noisy_factors(
        self, ctx: RunContext, block, cv: float | None = None
    ) -> np.ndarray:
        """Vectorized :meth:`_noisy` noise factors, one per iteration.

        ``cv`` may be a scalar (shape ``(n,)``) or a sequence of ``k``
        per-draw coefficients (shape ``(n, k)``, matching ``k``
        sequential :meth:`_noisy` calls per iteration).
        """
        if cv is None:
            cv = ctx.fabric.jitter_cv
        return np.maximum(0.1, block.normal(1.0, cv))

    def _block_failure(self, block, *, wall: float, failure_kind: str, extra: dict) -> AppBlockResult:
        """Every iteration fails identically (the paper's per-group
        failure modes: unreported results, misconfigurations)."""
        n = len(block)
        return AppBlockResult(
            app=self.name,
            fom=np.full(n, np.nan),
            fom_units=self.fom_units,
            wall=np.full(n, wall),
            failed=np.ones(n, dtype=bool),
            failure_kind=failure_kind,
            phases={},
            extra=extra,
        )

    def _result(
        self,
        ctx: RunContext,
        *,
        fom: float | None,
        wall: float,
        phases: dict[str, float] | None = None,
        failed: bool = False,
        failure_kind: str | None = None,
        extra: dict[str, Any] | None = None,
    ) -> AppResult:
        return AppResult(
            app=self.name,
            fom=fom,
            fom_units=self.fom_units,
            wall_seconds=wall,
            phases=phases or {},
            failed=failed,
            failure_kind=failure_kind,
            extra=extra or {},
        )
