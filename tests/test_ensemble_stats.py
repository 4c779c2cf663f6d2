"""Streaming accumulators: Welford moments, order statistics, CIs."""

import math

import numpy as np
import pytest

from repro.ensemble.stats import CellStats, StreamAccumulator, percentile_rows, t_critical_95


def _filled(values):
    acc = StreamAccumulator()
    for v in values:
        acc.push(v)
    return acc


def test_welford_matches_numpy():
    values = [3.2, -1.5, 0.0, 7.75, 2.125, 9.0, -4.0]
    acc = _filled(values)
    assert acc.count == len(values)
    assert acc.mean == pytest.approx(np.mean(values), rel=1e-12)
    assert acc.variance == pytest.approx(np.var(values, ddof=1), rel=1e-12)
    assert acc.std == pytest.approx(np.std(values, ddof=1), rel=1e-12)
    assert acc.minimum == min(values)
    assert acc.maximum == max(values)


def test_welford_is_stable_at_large_offsets():
    # The naive sum-of-squares formula loses everything at this offset.
    values = [1e9 + x for x in (0.1, 0.2, 0.3, 0.4)]
    acc = _filled(values)
    assert acc.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6)


def test_percentiles_are_exact():
    values = list(range(1, 11))  # 1..10
    acc = _filled([float(v) for v in values])
    for q in (10.0, 50.0, 90.0):
        assert acc.percentile(q) == float(np.percentile(values, q))


def test_percentile_rows_equal_per_cell_percentiles():
    """One call per sample count gives every cell's per-cell
    ``np.percentile`` values bit for bit: cells of 0, 1, 2 and 8
    samples, ties included, interleaved."""
    rng = np.random.default_rng(7)
    cells = []
    for count in (8, 0, 2, 1, 8, 2, 0, 1, 8):
        values = rng.choice([0.5, 1.25, 3.0, 1e9 + 0.1], size=count).tolist()
        cells.append(_filled(values))
    qs = (10.0, 50.0, 90.0)
    rows = percentile_rows(cells, qs)
    assert len(rows) == len(cells)
    for acc, row in zip(cells, rows):
        if acc.count == 0:
            assert all(math.isnan(value) for value in row)
        else:
            samples = np.asarray(acc._samples, dtype=np.float64)
            assert row == tuple(float(np.percentile(samples, q)) for q in qs)
            assert all(type(value) is float for value in row)


def test_single_sample():
    acc = _filled([5.0])
    assert acc.mean == 5.0
    assert acc.variance == 0.0
    assert acc.sem == 0.0
    assert acc.ci95_halfwidth() == 0.0
    assert acc.percentile(50.0) == 5.0


def test_empty_accumulator():
    acc = StreamAccumulator()
    assert acc.count == 0
    assert math.isnan(acc.percentile(50.0))
    assert math.isnan(acc.exceedance(0.0))
    assert acc.summary() == {"count": 0}


def test_ci95_uses_student_t():
    acc = _filled([1.0, 2.0, 3.0, 4.0, 5.0])  # n=5, df=4
    expected = 2.776 * acc.sem
    assert acc.ci95_halfwidth() == pytest.approx(expected)


def test_t_critical_values():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(4) == pytest.approx(2.776)
    assert t_critical_95(30) == pytest.approx(2.042)
    assert t_critical_95(1000) == pytest.approx(1.960)
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_exceedance():
    acc = _filled([1.0, 2.0, 3.0, 4.0])
    assert acc.exceedance(2.0) == 0.75  # >= is inclusive
    assert acc.exceedance(5.0) == 0.0
    assert acc.exceedance(-1.0) == 1.0


def test_summary_is_json_safe():
    import json

    acc = _filled([1.0, 2.0, 3.0])
    summary = acc.summary()
    json.dumps(summary)
    assert summary["count"] == 3
    assert summary["p50"] == 2.0


def test_cell_stats_fold_skips_missing_fom():
    stats = CellStats()
    stats.fold_cell({"fom_mean": 2.0, "wall_mean": 1.0, "cost_total": 5.0,
                     "completed": 4})
    stats.fold_cell({"fom_mean": None, "wall_mean": None, "cost_total": 1.0,
                     "completed": 0})
    assert stats.worlds == 2
    assert stats.fom.count == 1
    assert stats.wall.count == 1
    assert stats.cost.count == 2
    assert stats.completed.count == 2
    assert stats.completed.mean == 2.0
