"""Distribution reports: CIs, percentiles, and exceedance probabilities.

An ensemble (:mod:`repro.ensemble`) folds worlds × runs into streaming
per-cell statistics; this module renders them as the study's usual
:class:`~repro.reporting.tables.Table`:

* :func:`distribution_table` — one row per (scenario, env, app, scale)
  cell: replica count, FOM mean ± 95% CI (Student's t), exact
  p10/p50/p90, mean wall seconds, mean cell cost, and the probability
  that a replica-world's FOM meets the seed study's matched point value
  (``P(FOM >= base)``);
* :func:`exceedance_table` — the per-scenario fold of those
  probabilities: how often a counterfactual world keeps up with the
  numbers the paper actually published.

Both tables are deterministic in the ensemble's fold order, so a
rendered report is byte-identical for any worker count.
"""

from __future__ import annotations

import math

from repro.reporting.tables import Table


def _fmt_or_na(value: float) -> object:
    return "n/a" if value is None or (isinstance(value, float) and math.isnan(value)) else value


def distribution_table(result) -> Table:
    """Per-cell distribution rows for an :class:`EnsembleResult`."""
    from repro.ensemble.stats import percentile_rows

    table = Table(
        title="Ensemble distributions (per cell)",
        columns=(
            "scenario", "env", "app", "scale", "n",
            "FOM mean", "FOM ±95%", "FOM p10", "FOM p50", "FOM p90",
            "wall mean s", "cost mean $", "P(FOM>=base)",
        ),
        caption=(
            "n counts replica-worlds with completed runs in the cell; "
            "±95% is a Student-t confidence half-width over those worlds; "
            "percentiles are exact; P(FOM>=base) is the fraction of worlds "
            "meeting the seed study's point estimate for the same cell."
        ),
    )
    cells = list(result.cells.items())
    percentiles = percentile_rows([stats.fom for _, stats in cells], (10.0, 50.0, 90.0))
    for ((sid, env, app, scale), stats), (p10, p50, p90) in zip(cells, percentiles):
        fom = stats.fom
        threshold = result.threshold_for(env, app, scale)
        if fom.count == 0:
            exceed = "n/a"
        elif threshold is None:
            exceed = "n/a"
        else:
            exceed = fom.exceedance(threshold)
        table.add(
            sid, env, app, int(scale), fom.count,
            _fmt_or_na(fom.mean if fom.count else math.nan),
            _fmt_or_na(fom.ci95_halfwidth() if fom.count else math.nan),
            _fmt_or_na(p10),
            _fmt_or_na(p50),
            _fmt_or_na(p90),
            _fmt_or_na(stats.wall.mean if stats.wall.count else math.nan),
            _fmt_or_na(stats.cost.mean if stats.cost.count else math.nan),
            exceed,
        )
    return table


def exceedance_table(result) -> Table:
    """Per-scenario exceedance of the seed study's matched FOM values."""
    table = Table(
        title="Per-scenario exceedance vs the seed study",
        columns=(
            "scenario", "cells", "mean P(FOM>=base)", "min P(FOM>=base)",
            "spend mean $", "incidents mean",
        ),
        caption=(
            "Cells are those matched against a seed-study threshold; the "
            "probabilities fold every replica-world of the scenario."
        ),
    )
    for sid in result.scenario_ids():
        probabilities = []
        for (cell_sid, env, app, scale), stats in result.cells.items():
            if cell_sid != sid or stats.fom.count == 0:
                continue
            threshold = result.threshold_for(env, app, scale)
            if threshold is None:
                continue
            probabilities.append(stats.fom.exceedance(threshold))
        spend = result.spend.get(sid)
        incidents = result.incidents.get(sid)
        table.add(
            sid,
            len(probabilities),
            _fmt_or_na(
                sum(probabilities) / len(probabilities) if probabilities else math.nan
            ),
            _fmt_or_na(min(probabilities) if probabilities else math.nan),
            _fmt_or_na(spend.mean if spend and spend.count else math.nan),
            _fmt_or_na(incidents.mean if incidents and incidents.count else math.nan),
        )
    return table


def render_distributions(result) -> str:
    """Both distribution tables as fixed-width text."""
    from repro.reporting.tables import render_table

    return "\n\n".join(
        (render_table(distribution_table(result)), render_table(exceedance_table(result)))
    )
