"""Plan diffing: which cells of a variant plan can reuse the baseline?

Incremental execution rests on one observation: a scenario perturbs a
cell only through a fixed set of overlay hooks (``effective_rate``,
``Fabric.overlaid``, ``friction_overrides``, ``lag_overrides``,
``price_overlay``/``fault_scale``, ``probability_scale``), and every
:class:`~repro.scenarios.spec.Perturbation` type declares — via its
``touches(cloud)`` predicate and ``hook`` label — exactly which cell
coordinates it can reach.  A cell on a cloud no perturbation touches is
*byte-identical* to the baseline cell (the overlays configure nothing
there — see :func:`~repro.scenarios.apply.overlay_provider`), so its
folded summary can be attached straight from the cache instead of
re-simulated.

:func:`diff_plans` makes that decision auditable.  Given two compiled
:class:`~repro.plan.ir.RunPlan`\\ s it intersects their cells on the
coordinates a :class:`~repro.plan.ir.PlannedRun` carries — (seed, env,
apps, scale, iterations) — via the content-addressed cell summary key
(:func:`~repro.parallel.shard.shard_summary_key`, which embeds the
per-cell overlay *footprint* rather than the whole scenario), and
classifies every variant cell:

* **reusable** — a baseline cell shares the summary key, so the cached
  summary the baseline wrote is the variant cell's result, bit for bit;
* **dirty** — the scenario's footprint touches the cell (the diff names
  the hooks), or no baseline cell matches the coordinates at all.

The classification is *conservative by construction*: the summary key
hashes everything that determines a cell's output, so two cells share a
key only when they share a result.  A diff of a plan against itself is
therefore 100% reusable, and mutating any perturbation field dirties
exactly the cells whose footprint digest changes
(``tests/test_plan_diff.py`` fuzzes both properties).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.envs.registry import ENVIRONMENTS
from repro.parallel.shard import shard_summary_key
from repro.plan.ir import RunPlan
from repro.scenarios.spec import active


@dataclass(frozen=True)
class CellDiff:
    """One variant cell's classification against the baseline plan."""

    #: the variant shard's global plan index
    shard_index: int
    #: the variant world the cell belongs to
    world: int
    env_id: str
    scale: int
    #: the cell's cloud — the coordinate ``touches`` predicates test
    cloud: str
    #: the variant world's scenario label (``None`` = baseline world)
    scenario_id: str | None
    #: must this cell re-simulate?
    dirty: bool
    #: overlay hooks the scenario activates *on this cell's cloud*
    #: (empty for reusable cells)
    hooks: tuple[str, ...]
    #: one human-readable line justifying the classification
    reason: str
    #: the matching baseline shard's index, ``None`` when unmatched
    baseline_index: int | None


@dataclass(frozen=True)
class PlanDiff:
    """Every variant cell classified; the incremental executor's input."""

    baseline_digest: str
    variant_digest: str
    cells: tuple[CellDiff, ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def reusable(self) -> tuple[CellDiff, ...]:
        return tuple(c for c in self.cells if not c.dirty)

    @property
    def dirty(self) -> tuple[CellDiff, ...]:
        return tuple(c for c in self.cells if c.dirty)

    @property
    def n_reusable(self) -> int:
        return sum(1 for c in self.cells if not c.dirty)

    @property
    def n_dirty(self) -> int:
        return sum(1 for c in self.cells if c.dirty)

    def describe(self) -> dict:
        """A JSON-safe description (``repro plan diff --json``)."""
        return {
            "baseline_digest": self.baseline_digest,
            "variant_digest": self.variant_digest,
            "totals": {
                "cells": self.n_cells,
                "reusable": self.n_reusable,
                "dirty": self.n_dirty,
            },
            "cells": [
                {
                    "index": c.shard_index,
                    "world": c.world,
                    "scenario": c.scenario_id,
                    "env": c.env_id,
                    "scale": c.scale,
                    "cloud": c.cloud,
                    "dirty": c.dirty,
                    "hooks": list(c.hooks),
                    "reason": c.reason,
                    "baseline_index": c.baseline_index,
                }
                for c in self.cells
            ],
        }

    def render(self) -> str:
        """The diff as fixed-width text (``repro plan diff``)."""
        lines = [
            f"plan diff: {self.baseline_digest} -> {self.variant_digest}",
            f"cells: {self.n_cells}  reusable: {self.n_reusable}  "
            f"dirty: {self.n_dirty}",
            "",
        ]
        for c in self.cells:
            mark = "dirty   " if c.dirty else "reusable"
            label = c.scenario_id or "baseline"
            lines.append(
                f"  [{mark}] world {c.world:>3} ({label}) "
                f"{c.env_id} @ {c.scale}: {c.reason}"
            )
        return "\n".join(lines)


def diff_plans(baseline: RunPlan, variant: RunPlan) -> PlanDiff:
    """Classify every cell of ``variant`` against ``baseline``.

    The intersection runs on content, not labels: a variant cell is
    reusable exactly when some baseline cell shares its summary key —
    the hash of every :class:`~repro.plan.ir.PlannedRun` coordinate the
    cell groups (seed, env, apps, scale, iterations) plus the per-cell
    overlay footprint.  Matching keys means matching results, so the
    classification can never reuse a cell the scenario touches: a
    touched cell's footprint digest differs from the baseline's, the
    keys diverge, and the cell lands in the dirty set with its active
    hooks named.
    """
    baseline_by_key = {
        shard_summary_key(shard): shard.index for shard in baseline.shards
    }
    cells: list[CellDiff] = []
    for shard in variant.shards:
        cloud = ENVIRONMENTS[shard.env_id].cloud
        scn = active(shard.scenario)
        hooks = scn.touched_hooks(cloud) if scn is not None else ()
        base_index = baseline_by_key.get(shard_summary_key(shard))
        if base_index is not None:
            dirty = False
            reason = "summary key matches baseline cell " + (
                "(identical footprint)" if hooks else "(footprint empty)"
            )
        elif hooks:
            dirty = True
            reason = "scenario touches this cloud via " + ", ".join(hooks)
        else:
            dirty = True
            reason = "no baseline cell with matching coordinates"
        cells.append(
            CellDiff(
                shard_index=shard.index,
                world=shard.world,
                env_id=shard.env_id,
                scale=shard.scale,
                cloud=cloud,
                scenario_id=scn.scenario_id if scn is not None else None,
                dirty=dirty,
                hooks=hooks,
                reason=reason,
                baseline_index=base_index,
            )
        )
    return PlanDiff(
        baseline_digest=baseline.digest(),
        variant_digest=variant.digest(),
        cells=tuple(cells),
    )
