"""The campaign runner: sequence the stages, account for everything.

:class:`CampaignRunner` executes a :class:`~repro.campaigns.spec.CampaignSpec`
as the five-stage pipeline:

1. **SMOKE** — a ``smoke.replicas``-deep incremental ensemble over the
   *full* scenario grid.  Candidates are gated at the margin-relaxed
   SLA; configs that miss even the relaxed bar are pruned.
2. **GRID** — a ``grid.replicas``-deep ensemble over the surviving
   scenarios, incremental against both its own baseline replicas *and*
   the smoke stage's plan (threaded through
   ``EnsembleRunner(baseline_plan=...)``): worlds the smoke stage
   already folded replay from the world cache, and any cell either pass
   simulated attaches from the cell cache instead of re-executing.
3. **AB** — every surviving config against its baseline cell, with
   Student-t confidence intervals on the deltas.
4. **SELECT** — the Pareto frontier of cost vs performance, and the
   cheapest-per-FOM config that passes the full-strictness SLA.
5. **PUBLISH** — the :class:`~repro.campaigns.report.CampaignReport`
   JSON artifact, per-stage wall-clock taken from the ``campaign.*``
   telemetry spans.

Both ensemble stages share one cache directory (a private temporary one
when the caller passes none — incremental execution requires it), one
``base_seed``, and one ``iterations`` count, so every cache key lines
up across stages.  Everything decision-bearing is deterministic in the
spec: the report's core is byte-identical for any worker count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
import time
from dataclasses import dataclass, field

from repro.campaigns.frontier import (
    Candidate,
    evaluate_candidates,
    pareto_frontier,
    select_winner,
)
from repro.campaigns.report import CampaignReport, build_report
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.stages import (
    StageRecord,
    ab_rows,
    ensemble_accounting,
    partition_survivors,
    surviving_scenarios,
)
from repro.ensemble.runner import EnsembleResult, EnsembleRunner
from repro.plan import ExecutionOptions
from repro.telemetry import Tracer, current_tracer, enabled, span, use_tracer


@dataclass
class CampaignResult:
    """Everything the pipeline produced, typed stage by stage."""

    spec: CampaignSpec
    smoke: EnsembleResult
    grid: EnsembleResult
    smoke_candidates: list[Candidate] = field(default_factory=list)
    pruned: list[Candidate] = field(default_factory=list)
    survivors: list[Candidate] = field(default_factory=list)
    grid_candidates: list[Candidate] = field(default_factory=list)
    ab: list[dict] = field(default_factory=list)
    frontier: list[Candidate] = field(default_factory=list)
    winner: Candidate | None = None
    stage_records: list[StageRecord] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    report: CampaignReport | None = None

    def render(self) -> str:
        """The campaign as fixed-width tables (CLI output)."""
        from repro.reporting.frontier import render_campaign

        return render_campaign(self)


class CampaignRunner:
    """Executes a :class:`CampaignSpec`; see the module docstring."""

    def __init__(self, spec: CampaignSpec, options: ExecutionOptions | None = None):
        self.spec = spec
        self.options = options if options is not None else ExecutionOptions()

    def run(self) -> CampaignResult:
        spec = self.spec
        with contextlib.ExitStack() as stack:
            options = self.options
            if options.cache_dir is None:
                options = dataclasses.replace(
                    options,
                    cache_dir=stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="repro-campaign-")
                    ),
                )
            # Stage timings come from the campaign.* spans, so a tracer
            # must exist; install a private one unless the caller (e.g.
            # `repro campaign run --trace`) already did.  Telemetry
            # never feeds results, so this changes no folded byte.
            if not enabled():
                stack.enter_context(use_tracer(Tracer()))
            tracer = current_tracer()
            with span("campaign.run", digest=spec.digest(), workers=options.workers):
                # ---------------------------------------------- SMOKE
                with span("campaign.smoke", stage="smoke"):
                    smoke_runner = EnsembleRunner(
                        spec.smoke_spec(), options, incremental=True
                    )
                    smoke = smoke_runner.run()
                    smoke_candidates = evaluate_candidates(
                        smoke, spec, margin=spec.smoke.margin
                    )
                    survivors, pruned = partition_survivors(smoke_candidates)

                # ----------------------------------------------- GRID
                with span("campaign.grid", stage="grid"):
                    alive = surviving_scenarios(spec.scenarios, survivors)
                    grid_runner = EnsembleRunner(
                        spec.grid_spec(alive),
                        options,
                        incremental=True,
                        baseline_plan=smoke_runner.compile(),
                    )
                    grid = grid_runner.run()
                    grid_candidates = evaluate_candidates(grid, spec, margin=1.0)

                # ------------------------------------------------- AB
                with span("campaign.ab", stage="ab"):
                    ab = ab_rows(grid_candidates)

                # --------------------------------------------- SELECT
                with span("campaign.select", stage="select"):
                    frontier = pareto_frontier(grid_candidates)
                    survivor_keys = frozenset(c.key for c in survivors)
                    winner = select_winner(
                        grid_candidates, eligible_keys=survivor_keys
                    )

                # -------------------------------------------- PUBLISH
                with span("campaign.publish", stage="publish"):
                    publish_start = time.perf_counter()
                    records = [
                        StageRecord(
                            "smoke",
                            {
                                **ensemble_accounting(smoke),
                                "candidates": len(smoke_candidates),
                                "pruned": len(pruned),
                                "survivors": len(survivors),
                                "margin": spec.smoke.margin,
                            },
                        ),
                        StageRecord(
                            "grid",
                            {
                                **ensemble_accounting(grid),
                                "scenarios": len(alive),
                                "candidates": len(grid_candidates),
                            },
                        ),
                        StageRecord("ab", {"rows": len(ab)}),
                        StageRecord(
                            "select",
                            {
                                "frontier": len(frontier),
                                "eligible": sum(
                                    1
                                    for c in grid_candidates
                                    if c.sla_ok and c.key in survivor_keys
                                ),
                                "winner": winner.key if winner else None,
                            },
                        ),
                        StageRecord("publish", {"artifact": "campaign report v1"}),
                    ]
                    stage_seconds = _stage_seconds(tracer)
                    # Recovery accounting from both ensemble stages goes
                    # into the report's profile section (execution-shaped,
                    # like timings — never part of the decision core).
                    from repro.parallel.pool import FaultStats

                    faults = FaultStats()
                    for stage_result in (smoke, grid):
                        if stage_result.faults is not None:
                            faults.add(stage_result.faults)
                    report = build_report(
                        spec=spec,
                        stage_records=records,
                        pruned=pruned,
                        candidates=grid_candidates,
                        ab=ab,
                        frontier=frontier,
                        winner=winner,
                        stage_seconds=stage_seconds,
                        faults=faults.to_dict() if faults.activity else None,
                    )
                    # The publish span is still open here; close the
                    # loop with a direct measurement of the build.
                    stage_seconds["publish"] = time.perf_counter() - publish_start

        return CampaignResult(
            spec=spec,
            smoke=smoke,
            grid=grid,
            smoke_candidates=smoke_candidates,
            pruned=pruned,
            survivors=survivors,
            grid_candidates=grid_candidates,
            ab=ab,
            frontier=frontier,
            winner=winner,
            stage_records=records,
            stage_seconds=stage_seconds,
            report=report,
        )


def _stage_seconds(tracer: Tracer) -> dict[str, float]:
    """Closed ``campaign.<stage>`` span durations, by stage name."""
    out: dict[str, float] = {}
    for name, start, end in zip(tracer.names, tracer.starts, tracer.ends):
        if name.startswith("campaign.") and name != "campaign.run" and end:
            stage = name.split(".", 1)[1]
            out[stage] = out.get(stage, 0.0) + (end - start)
    return out
