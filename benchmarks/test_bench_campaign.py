"""Staged campaigns: the prune-early cost benchmark.

The campaign pipeline's acceptance claim, measured end to end: a
campaign over **8 scenarios on 4 environments** — six single-cloud
fabric degradations that miss the SLA and two price cuts that survive
it — must cost **at most 50% of the naive full-grid ensemble** at the
same final fidelity, while producing byte-identical folded statistics
for every cell both sides simulated.

The naive side runs every scenario at full replica depth with no
cache: the cost of not triaging.  The campaign side starts from a
*cold* cache and pays for everything the pipeline is made of — the
one-replica smoke pass over the full grid, cache writes, diff probes,
and the full-depth grid pass over the survivors — and still has to win
on the strength of pruning plus smoke-to-grid reuse alone.  Cells run
at scale 256 (the paper's largest), where bringing up a cell's cluster
— provisioning plus one Kubernetes pod per node, linear in node count
— still costs more than simulating the cell.  Each side is timed as
the fastest of three runs, each with its own fresh cache directory.

Results land in ``BENCH_campaign.json`` (redirect with
``BENCH_CAMPAIGN_ARTIFACT``) and are gated against
``benchmarks/BASELINE_campaign.json``: a cost-ratio regression of more
than 25% versus the committed baseline fails the benchmark job.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import record_timing
from repro.campaigns import CampaignRunner, CampaignSpec, SlaGate, StageBudget
from repro.ensemble import EnsembleRunner
from repro.plan import ExecutionOptions
from repro.scenarios.spec import FabricDegradation, PriceShock, Scenario

#: where the machine-readable campaign benchmark artifact lands
BENCH_CAMPAIGN_ARTIFACT = os.environ.get(
    "BENCH_CAMPAIGN_ARTIFACT", "BENCH_campaign.json"
)

#: committed baseline numbers; >25% regression fails the job
BASELINE_PATH = Path(__file__).parent / "BASELINE_campaign.json"
REGRESSION_TOLERANCE = 1.25

#: each side is timed as the fastest of this many runs
REPEATS = 3

#: the acceptance floor: campaign ≤ 50% of the naive full-grid ensemble
ACCEPTANCE_RATIO = 0.50

#: one environment per cloud; at scale 256 cluster bring-up is the
#: largest part of a cell's cost
_ENVS = ("cpu-eks-aws", "cpu-aks-az", "cpu-gke-g", "cpu-onprem-a")
_CLOUDS = ("aws", "az", "g", "p")
N_PRUNED = 6


def _fastest(run):
    """Fastest of ``REPEATS`` timed ``run(cache_dir)`` calls, each given
    its own fresh cache directory, and the last call's result."""
    best = float("inf")
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as cache_dir:
            start = time.perf_counter()
            result = run(cache_dir)
            best = min(best, time.perf_counter() - start)
    return best, result


def _scenarios() -> tuple[Scenario, ...]:
    """Six SLA-missing fabric degradations plus two surviving price cuts.

    The fabric scenarios sink the touched cloud's FOM below the
    seed-study anchor, so their exceedance is 0 and SMOKE prunes them
    even at the relaxed margin.  The price cuts leave physics untouched
    (exceedance 1) and only move dollars, so they reach the grid stage.
    """
    pruned = [
        Scenario(
            scenario_id=f"fabric-{i:02d}",
            fabric=FabricDegradation(
                latency_multiplier=2.0 + 0.5 * i,
                clouds=(_CLOUDS[i % len(_CLOUDS)],),
            ),
        )
        for i in range(N_PRUNED)
    ]
    survivors = [
        Scenario(
            scenario_id="cheap-aws",
            price_shocks=(PriceShock(cloud="aws", multiplier=0.85),),
        ),
        Scenario(
            scenario_id="cheap-gcp",
            price_shocks=(PriceShock(cloud="g", multiplier=0.9),),
        ),
    ]
    return tuple(pruned + survivors)


def _spec() -> CampaignSpec:
    # min_completion sits below the Azure cells' 20% completion rate at
    # scale 256 — this benchmark measures pruning economics, and the
    # fabric scenarios must prune on *exceedance*, not on a baseline
    # quirk of one cloud's completion physics.
    return CampaignSpec(
        sla=SlaGate(min_exceedance=0.5, min_completion=0.1),
        scenarios=_scenarios(),
        env_ids=_ENVS,
        apps=("amg2023",),
        sizes=(256,),
        iterations=5,
        smoke=StageBudget(replicas=1, margin=0.5),
        grid=StageBudget(replicas=3),
    )


def _cell_signature(stats) -> tuple:
    """The folded statistics a cell publishes, exact to the bit."""
    return (
        stats.worlds,
        stats.cost.count, stats.cost.mean, stats.cost.std,
        stats.fom.count, stats.fom.mean, stats.fom.std,
        stats.completed.count, stats.completed.mean,
    )


def test_bench_campaign_vs_naive_full_grid():
    """Acceptance: ≤50% of the naive cost, byte-identical shared cells."""
    spec = _spec()
    naive_spec = spec.grid_spec(spec.scenarios)

    # Warm lazy imports and first-call caches on a small slice so
    # neither timed side pays the process's one-time costs.
    CampaignRunner(
        CampaignSpec(
            sla=spec.sla,
            scenarios=spec.scenarios[:1],
            env_ids=_ENVS[:1],
            apps=("amg2023",),
            sizes=(32,),
            iterations=2,
        )
    ).run()

    t_naive, naive = _fastest(lambda _: EnsembleRunner(naive_spec).run())
    t_campaign, campaign = _fastest(
        lambda cache_dir: CampaignRunner(
            spec,
            ExecutionOptions(cache_dir=cache_dir),
        ).run()
    )

    # The pipeline behaved as designed: every fabric scenario pruned at
    # SMOKE, both price cuts reached the grid, one of them won.
    pruned_ids = {c.scenario_id for c in campaign.pruned}
    assert pruned_ids == {s.scenario_id for s in spec.scenarios[:N_PRUNED]}
    grid_ids = {c.scenario_id for c in campaign.grid_candidates}
    assert grid_ids == {"baseline", "cheap-aws", "cheap-gcp"}
    # The winner is the cheapest-per-FOM SLA-passing config (here the
    # on-prem baseline: on-prem compute costs no cloud dollars at all).
    assert campaign.winner is not None
    eligible = [c for c in campaign.grid_candidates
                if c.sla_ok and c.cost_per_fom is not None]
    assert campaign.winner.cost_per_fom == min(c.cost_per_fom for c in eligible)

    # Cheaper, not different: every cell the grid stage folded is
    # bit-identical to the naive ensemble's fold of the same cell.
    shared = set(campaign.grid.cells) & set(naive.cells)
    assert shared == set(campaign.grid.cells)
    for key in sorted(shared):
        assert _cell_signature(campaign.grid.cells[key]) == _cell_signature(
            naive.cells[key]
        ), f"campaign grid diverged from the naive ensemble at {key}"

    ratio = t_campaign / t_naive
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    payload = {
        "schema": 1,
        "campaign": {
            "environments": list(_ENVS),
            "scenarios": len(spec.scenarios),
            "pruned_at_smoke": len(pruned_ids),
            "grid_replicas": spec.grid.replicas,
            "scale": 256,
            "iterations": 5,
            "digest": spec.digest(),
        },
        "cost": {
            "naive_seconds": t_naive,
            "campaign_seconds": t_campaign,
            "ratio": ratio,
            "speedup": t_naive / t_campaign,
        },
        "stages": {rec.name: rec.detail for rec in campaign.stage_records},
        "byte_identical_shared_cells": True,
        "baseline": baseline,
    }
    with open(BENCH_CAMPAIGN_ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    record_timing(
        "campaign::staged_vs_naive_grid",
        t_campaign,
        kind="cost-ratio-claim",
        naive_seconds=t_naive,
        ratio=ratio,
        pruned=len(pruned_ids),
        survivors=len(grid_ids) - 1,
    )
    print(
        f"\nstaged campaign: naive {t_naive:.2f}s, campaign "
        f"{t_campaign:.2f}s -> ratio {ratio:.3f} "
        f"({len(pruned_ids)} scenarios pruned at smoke)"
    )

    # The acceptance floor...
    assert ratio <= ACCEPTANCE_RATIO, (
        f"campaign cost {ratio:.1%} of the naive full grid "
        f"(acceptance requires <= {ACCEPTANCE_RATIO:.0%})"
    )
    # ...and the CI regression gate against the committed baseline.
    ceiling = baseline["campaign_ratio"] * REGRESSION_TOLERANCE
    assert ratio <= ceiling, (
        f"campaign execution regressed: cost ratio {ratio:.3f} > "
        f"{ceiling:.3f} (baseline {baseline['campaign_ratio']} x 1.25)"
    )
