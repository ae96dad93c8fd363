import numpy as np
import pytest

from vuprop import (
    BenchResult,
    BenchRow,
    Dim,
    GridSpec,
    MeasurementScenario,
    Thresholds,
    assert_complexity,
    builtin,
    make_grid,
    run_sweep,
)
from vuprop.bench import _mc_row, _scaled_spec
from vuprop.errors import GridError


def _template():
    return GridSpec((Dim("x", -5, 5, 20), Dim("a", -1, 1, 10, "alpha")))


def test_scaled_spec_hits_target_and_keeps_proportions():
    spec = _scaled_spec(_template(), 20_000)
    assert spec.size == pytest.approx(20_000, rel=0.05)
    nx, na = spec.counts
    assert nx / na == pytest.approx(2.0, rel=0.1)
    same = _scaled_spec(_template(), _template().size)
    assert same.counts == _template().counts


def test_bench_row_validates_median_bounds():
    with pytest.raises(GridError):
        BenchRow("vup", 10, 1, 3, median_s=5.0, min_s=1.0, max_s=2.0, breakdown={})


def test_lookup_missing_row():
    result = BenchResult(())
    with pytest.raises(GridError):
        result.lookup("vup", 10, 1)


def test_run_sweep_requires_three_reps():
    sc = MeasurementScenario(np.linspace(-3, 3, 5), 0.5, 0.25)
    with pytest.raises(GridError, match="repetitions"):
        run_sweep(builtin("bench2d"), _template(), [200], [1], sc, 10, repetitions=2)


def test_small_sweep_rows_and_phases():
    sc = MeasurementScenario(np.linspace(-3, 3, 4), 0.5, 0.25)
    result = run_sweep(
        builtin("bench2d"), _template(), [200, 800], [1, 4], sc, K=10,
        repetitions=3, seed=0,
    )
    assert len(result.rows) == 8  # 2 grids x 2 L values x 2 methods
    ns = sorted({row.N for row in result.rows})
    assert len(ns) == 2
    vup = result.lookup("vup", ns[0], 4)
    assert vup.repetitions == 3
    assert vup.min_s <= vup.median_s <= vup.max_s
    assert set(vup.breakdown) == {"matrix_build_s", "pdf_build_s", "propagate_s"}
    mc = result.lookup("mc", ns[0], 4)
    assert set(mc.breakdown) == {"sample_s", "eval_s", "bin_s"}


def test_assert_complexity_reports_from_synthetic_rows():
    # Hand-built timings with the expected cost structure: vup flat in L,
    # MC linear in L, crossover at L = 2.
    def row(method, L, t):
        return BenchRow(method, 1000, L, 3, t, t, t, {})

    rows = []
    for L in (1, 2, 5, 100):
        rows.append(row("vup", L, 1.0 + 0.001 * L))
        rows.append(row("mc", L, 1.1 * L))
    report = assert_complexity(BenchResult(tuple(rows)), Thresholds())
    assert report.passed
    text = list(report.lines())
    assert len(text) == 4
    assert all(line.startswith("PASS") for line in text)


def test_assert_complexity_flags_linear_vup():
    def row(method, L, t):
        return BenchRow(method, 1000, L, 3, t, t, t, {})

    rows = []
    for L in (1, 2, 5, 100):
        rows.append(row("vup", L, 1.0 * L))  # linear: bad
        rows.append(row("mc", L, 1.1 * L))
    report = assert_complexity(BenchResult(tuple(rows)))
    assert not report.passed
    assert not report.checks["vup_sublinear"][0]


def test_mc_row_rejects_two_x_dims():
    grid = make_grid(GridSpec((Dim("x1", 0, 1, 4), Dim("x2", 0, 1, 4))))
    with pytest.raises(GridError, match="one x dimension"):
        _mc_row(builtin("bench2d"), grid, MeasurementScenario([0.5], 0.1, 0.1), 10, 3, 0)
