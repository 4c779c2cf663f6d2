"""The spot/preemptible instance market: discount curve + keyed preemptions.

None of the study's clouds were used with spot pricing — the paper ran
everything on-demand so a preempted cluster could never corrupt a
result.  §4.2's cost discussion is exactly why the counterfactual is
interesting: spot capacity trades a steep discount (historically 60–90%
off on-demand) for the risk of reclamation mid-run.  This module models
that trade as two curves:

* a **discount curve** — the spot discount shrinks as the requested
  pool grows (large contiguous pools are scarcer, so the market prices
  them closer to on-demand);
* a **preemption process** — reclamations arrive as a Poisson process
  per wall-clock hour of exposure; a reclaimed run dies partway through
  and its FOM is lost, but the consumed node-hours are still billed.

Every preemption draw comes from the keyed stream
``(seed, "scenario", scenario_id, "preempt", env, app, scale, it)`` —
keyed on the run's own coordinates, never on call order — so a spot
scenario is byte-identical for any worker count, exactly like the
baseline study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import stream_block
from repro.units import HOUR


@dataclass(frozen=True)
class SpotMarket:
    """A spot market replacing on-demand capacity on selected clouds."""

    #: the overlay hooks this perturbation activates (incremental diffing)
    hook = "price_overlay + keyed preemptions"

    #: cloud short names bought on the spot market ("p" is meaningless
    #: here: on-prem capacity has no market)
    clouds: tuple[str, ...] = ("aws", "az", "g")
    #: discount off on-demand for a single node (fraction in [0, 1))
    base_discount: float = 0.65
    #: pool size at which the discount has fallen to half of base
    discount_halving_nodes: float = 512.0
    #: mean reclamations per node-pool per wall-clock hour of exposure
    preemptions_per_hour: float = 0.12

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_discount < 1.0:
            raise ConfigurationError("spot base_discount must be in [0, 1)")
        if self.discount_halving_nodes <= 0:
            raise ConfigurationError("spot discount_halving_nodes must be positive")
        if self.preemptions_per_hour < 0:
            raise ConfigurationError("spot preemptions_per_hour must be non-negative")

    def touches(self, cloud: str) -> bool:
        """Whether the market can change a cell on ``cloud`` at all."""
        return cloud != "p" and cloud in self.clouds

    def discount_for(self, nodes: int) -> float:
        """Spot discount for a pool of ``nodes`` (shrinks with size)."""
        if nodes < 0:
            raise ValueError("pool size must be non-negative")
        return self.base_discount / (1.0 + nodes / self.discount_halving_nodes)

    def price_multiplier(self, nodes: int) -> float:
        """Hourly-rate multiplier vs on-demand for a pool of ``nodes``."""
        return 1.0 - self.discount_for(nodes)


def preemption_block(
    spot: SpotMarket,
    seed: int,
    scenario_id: str,
    env_id: str,
    app: str,
    scale: int,
    iterations,
    durations: np.ndarray,
) -> np.ndarray:
    """Keyed preemption draws for a group's runs, one per iteration.

    Returns the fraction of each run's wall time that elapsed before
    its reclaim, NaN for survivors.  A run of ``durations[j]`` seconds
    survives with probability ``exp(-rate × hours)`` — a Poisson
    arrival process over its wall-clock exposure — and the reclaim
    instant, when one arrives, is uniform over the run.  Entry ``j``
    draws only from iteration ``iterations[j]``'s stream (the second
    draw only on a reclaim); all streams are seeded in one pass.
    """
    iterations = np.asarray(iterations, dtype=np.int64)
    out = np.full(len(iterations), np.nan)
    if spot.preemptions_per_hour <= 0:
        return out
    block = stream_block(
        seed, "scenario", scenario_id, "preempt", env_id, app, scale,
        iterations=iterations,
    )
    for j in range(len(iterations)):
        rng = block.generator(j)
        hit = 1.0 - math.exp(-spot.preemptions_per_hour * float(durations[j]) / HOUR)
        if rng.random() < hit:
            out[j] = float(rng.uniform(0.05, 0.95))
    return out
