"""Registry of every experiment harness."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    container_matrix,
    ecc_survey,
    fig1_kripke,
    fig2_amg,
    fig3_laghos,
    fig4_lammps,
    fig5_osu,
    fig6_minife,
    fig7_mtgemm,
    fig8_quicksilver,
    hookup_times,
    single_node,
    stream_triad,
    study_costs,
    table1_environments,
    table2_nodes,
    table3_usability,
    table4_amg_costs,
)
from repro.experiments.base import ExperimentOutput
from repro.rng import check_seeds

EXPERIMENTS: dict[str, Callable[..., ExperimentOutput]] = {
    "table1": table1_environments.run,
    "table2": table2_nodes.run,
    "table3": table3_usability.run,
    "table4": table4_amg_costs.run,
    "fig1": fig1_kripke.run,
    "fig2": fig2_amg.run,
    "fig3": fig3_laghos.run,
    "fig4": fig4_lammps.run,
    "fig5": fig5_osu.run,
    "fig6": fig6_minife.run,
    "fig7": fig7_mtgemm.run,
    "fig8": fig8_quicksilver.run,
    "hookup": hookup_times.run,
    "stream": stream_triad.run,
    "ecc": ecc_survey.run,
    "nodebench": single_node.run,
    "costs": study_costs.run,
    "containers": container_matrix.run,
}


def run_experiment(experiment_id: str, *, seed: int = 0, iterations: int | None = None) -> ExperimentOutput:
    """Run one experiment by id."""
    check_seeds(range(seed, seed + 1))
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    kwargs = {"seed": seed}
    if iterations is not None:
        kwargs["iterations"] = iterations
    return runner(**kwargs)


def run_all(*, seed: int = 0, iterations: int | None = None) -> dict[str, ExperimentOutput]:
    """Regenerate the full evaluation section."""
    return {
        exp_id: run_experiment(exp_id, seed=seed, iterations=iterations)
        for exp_id in EXPERIMENTS
    }
