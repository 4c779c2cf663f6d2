"""Streaming statistics: fold worlds one at a time, keep O(cells) state.

An ensemble visits worlds sequentially and must never hold
O(worlds × runs) records.  Each world is reduced to one scalar per
(cell, measure) by the columnar frame; this module accumulates those
scalars:

* **Welford mean/variance** — numerically stable single-pass moments,
  no sample list needed;
* **min/max** — running extremes;
* **exact small-N percentiles** — the per-world samples themselves are
  retained (one float per world per cell — O(cells × replicas), *not*
  O(worlds × runs)), because at ensemble sizes (tens of replicas) exact
  order statistics beat any sketch and cost nothing.

Confidence intervals use Student's t (two-sided 95%) so small replica
counts widen honestly instead of pretending to normality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: two-sided 95% Student-t critical values for df 1..30; beyond that the
#: normal approximation (1.960) is within half a percent
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.960


class StreamAccumulator:
    """Single-pass moments plus exact small-N order statistics."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum", "_samples")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples: list[float] = []

    def push(self, value: float) -> None:
        """Fold one per-world scalar (Welford update)."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self._samples.append(value)

    # -- moments ------------------------------------------------------------

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 below two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean; 0.0 below two samples."""
        if self.count < 2:
            return 0.0
        return self.std / math.sqrt(self.count)

    def ci95_halfwidth(self) -> float:
        """Half-width of the two-sided 95% CI on the mean (Student's t)."""
        if self.count < 2:
            return 0.0
        return t_critical_95(self.count - 1) * self.sem

    # -- order statistics ---------------------------------------------------

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (linear interpolation); NaN when empty."""
        if not self._samples:
            return math.nan
        return float(np.percentile(np.asarray(self._samples, dtype=np.float64), q))

    def exceedance(self, threshold: float) -> float:
        """Fraction of samples ``>= threshold``; NaN when empty."""
        if not self._samples:
            return math.nan
        return sum(1 for x in self._samples if x >= threshold) / self.count

    def summary(self) -> dict:
        """JSON-safe snapshot of every statistic."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "ci95": self.ci95_halfwidth(),
            "min": self.minimum,
            "max": self.maximum,
            "p10": self.percentile(10.0),
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
        }


def percentile_rows(
    accumulators: "list[StreamAccumulator]", qs: tuple[float, ...]
) -> list[tuple[float, ...]]:
    """Each accumulator's exact ``qs`` percentiles, as
    :meth:`StreamAccumulator.percentile` gives them one at a time (NaN
    when empty), from one ``np.percentile`` call per distinct sample
    count instead of one per accumulator and percentile."""
    rows: list[tuple[float, ...]] = [(math.nan,) * len(qs)] * len(accumulators)
    by_count: dict[int, list[int]] = {}
    for i, acc in enumerate(accumulators):
        if acc._samples:
            by_count.setdefault(len(acc._samples), []).append(i)
    for members in by_count.values():
        samples = np.array([accumulators[i]._samples for i in members], dtype=np.float64)
        values = np.percentile(samples, qs, axis=1).T.tolist()
        for i, row in zip(members, values):
            rows[i] = tuple(row)
    return rows


@dataclass
class CellStats:
    """Streaming distribution state for one (scenario, env, app, scale).

    Each accumulator folds one scalar per world: the cell's mean FOM
    over completed runs, mean wall seconds, total dollar cost, and
    completed-run count.  Worlds where the cell completed nothing push
    to ``cost``/``completed`` but not ``fom``/``wall`` — ``worlds``
    counts every visit so the gap is visible.
    """

    worlds: int = 0
    fom: StreamAccumulator = field(default_factory=StreamAccumulator)
    wall: StreamAccumulator = field(default_factory=StreamAccumulator)
    cost: StreamAccumulator = field(default_factory=StreamAccumulator)
    completed: StreamAccumulator = field(default_factory=StreamAccumulator)

    def fold_cell(self, cell: dict) -> None:
        """Fold one world's per-cell summary row (see frame.rows())."""
        self.worlds += 1
        if cell["fom_mean"] is not None:
            self.fom.push(cell["fom_mean"])
        if cell["wall_mean"] is not None:
            self.wall.push(cell["wall_mean"])
        self.cost.push(cell["cost_total"])
        self.completed.push(cell["completed"])
