"""Shared experiment machinery."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.analysis import fom_series
from repro.core.results import ResultStore
from repro.envs.environment import Environment
from repro.reporting.compare import Expectation, ExpectationResult, check_expectations
from repro.reporting.series import Series
from repro.reporting.tables import Table
from repro.sim.execution import ExecutionEngine


@dataclass
class ExperimentOutput:
    """What an experiment harness returns."""

    experiment_id: str
    title: str
    table: Table | None = None
    series: list[Series] = field(default_factory=list)
    store: ResultStore | None = None
    expectations: list[Expectation] = field(default_factory=list)
    notes: str = ""

    def check(self) -> list[ExpectationResult]:
        return check_expectations(self.expectations)

    def all_hold(self) -> bool:
        return all(r.holds for r in self.check())


def run_matrix(
    envs: Iterable[Environment],
    apps: Iterable[str],
    *,
    sizes: Callable[[Environment], Iterable[int]] | None = None,
    iterations: int = 5,
    seed: int = 0,
    options: dict[str, Any] | None = None,
) -> ResultStore:
    """Run apps × environments × sizes × iterations into a store.

    Each (environment, app, size) group is one
    :meth:`~repro.sim.execution.ExecutionEngine.run_block` call, so the
    records equal per-iteration :meth:`ExecutionEngine.run` calls in
    environment, app, size, iteration order.
    """
    apps = tuple(apps)
    engine = ExecutionEngine(seed=seed)
    store = ResultStore()
    for env in envs:
        env_sizes = tuple(sizes(env)) if sizes else tuple(env.sizes())
        for app_name in apps:
            for scale in env_sizes:
                engine.run_block(
                    env, app_name, scale, iterations=iterations, store=store, options=options
                )
    return store


def series_from_store(
    store: ResultStore,
    app: str,
    *,
    title: str,
    y_label: str,
    x_label: str = "scale (nodes or GPUs)",
    higher_is_better: bool = True,
) -> Series:
    """Build a figure-style series (one line per environment)."""
    series = Series(
        title=title,
        x_label=x_label,
        y_label=y_label,
        higher_is_better=higher_is_better,
    )
    for env_id in store.environments():
        for scale, stat in fom_series(store, env_id, app).items():
            series.add_point(env_id, scale, stat.mean, stat.std)
    return series
