import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vuprop import (
    Dim,
    GridSpec,
    MeasurementScenario,
    ModelFunction,
    OutputBinning,
    OutputProbabilityMatrix,
    SparseModelMatrix,
    builtin,
    deviation_statistic_matrix,
    gaussian_on_grid,
    make_grid,
    output_matrix,
    parse_expression,
    propagate,
    reference_curve,
    summarize,
    to_deviations,
)
from vuprop.distributions import scenario_factors, scenario_sigma
from vuprop.ipsa import IpsaMatrix, _shortest_interval
from vuprop.errors import EvaluationError, GridError

from ipsa_dense import dense_values


def _grid(nx=160, na=40):
    return make_grid(GridSpec((Dim("x", -5, 5, nx), Dim("a", -1, 1, na, "alpha"))))


def _scenario(locations=(-2.0, 0.0, 1.5), s_ell=0.4, s_alpha=0.25):
    return MeasurementScenario(np.asarray(locations), s_ell, s_alpha)


def test_output_matrix_columns_normalized():
    out = output_matrix(builtin("ipsa2d"), _grid(), _scenario(), 60)
    assert out.values.shape == (60, 3)
    for i in range(3):
        assert math.fsum(out.values[:, i]) == pytest.approx(1.0, abs=1e-9)


def test_output_matrix_per_location_path_matches_shared_coarsely():
    # Both paths estimate the same distribution; with sigma_ell well above the
    # grid step they agree to a few percent in TVD.
    model = builtin("ipsa2d")
    sc = _scenario(s_ell=0.8)
    shared = output_matrix(model, _grid(), sc, 40, shared_matrix=True)
    local = output_matrix(model, _grid(), sc, 40, shared_matrix=False)
    # Rebin both into coarse common bins for comparison.
    lo = min(shared.binning.y_min, local.binning.y_min)
    hi = max(shared.binning.y_max, local.binning.y_max)
    coarse = OutputBinning(10, lo, hi)
    for i in range(3):
        a = np.bincount(coarse.assign(shared.binning.centers),
                        weights=shared.values[:, i], minlength=10)
        b = np.bincount(coarse.assign(local.binning.centers),
                        weights=local.values[:, i], minlength=10)
        assert 0.5 * np.abs(a - b).sum() < 0.1


def test_reference_curve_default_alpha_mode():
    model = builtin("ipsa2d")
    ells = np.array([-1.0, 0.0, 2.0])
    ref = reference_curve(model, ells)
    assert np.allclose(ref, ells ** 2 + 5 * np.sin(3 * ells))
    ref2 = reference_curve(model, ells, alpha_ref=0.5)
    assert np.allclose(ref2, ref + 0.5)
    with pytest.raises(GridError):
        reference_curve(model, ells, alpha_ref=(0.1, 0.2))


def test_to_deviations_preserves_mass_and_shifts_mean():
    model = builtin("ipsa2d")
    sc = _scenario()
    out = output_matrix(model, _grid(), sc, 80)
    y_ref = reference_curve(model, sc.locations)
    dev = to_deviations(out, y_ref)
    dense = dense_values(dev)
    assert dev.bin_width == out.binning.width
    for i in range(3):
        assert math.fsum(dense[:, i]) == pytest.approx(
            math.fsum(out.values[:, i]), abs=1e-12
        )
        mean_abs = out.values[:, i] @ out.binning.centers
        mean_dev = dense[:, i] @ dev.delta_centers
        # Re-binning moves each center by at most half a bin.
        assert mean_dev == pytest.approx(mean_abs - y_ref[i], abs=out.binning.width)


def test_to_deviations_rejects_wrong_reference_length():
    out = output_matrix(builtin("ipsa2d"), _grid(), _scenario(), 20)
    with pytest.raises(GridError):
        to_deviations(out, np.zeros(5))


def _interval(masses, level):
    """_shortest_interval of one column, as a pair of ints."""
    lo, hi = _shortest_interval(np.asarray(masses, float)[:, None], level)
    return int(lo[0]), int(hi[0])


def test_shortest_interval_examples():
    assert _interval([0.1, 0.8, 0.1], 0.8) == (1, 1)
    assert _interval([0.1, 0.8, 0.1], 0.85) == (0, 1)  # tie -> lower
    assert _interval([0.25, 0.25, 0.25, 0.25], 0.5) == (0, 1)
    assert _interval([0.04, 0.46, 0.46, 0.04], 0.9) == (1, 2)
    assert _interval(np.ones(4) / 4, 1.0) == (0, 3)


def test_shortest_interval_takes_every_column_at_once():
    # One (K, L) batch: a three-way tie, a two-way tie, a column whose mass
    # never reaches the level (the whole axis), and a single bin.
    masses = np.array([[0.3, 0.02, 0.1, 0.0],
                       [0.2, 0.46, 0.1, 0.0],
                       [0.3, 0.46, 0.1, 0.95],
                       [0.2, 0.06, 0.1, 0.05]])
    lo, hi = _shortest_interval(masses, 0.5)
    assert list(zip(lo.tolist(), hi.tolist())) == [(0, 1), (1, 2), (0, 3), (2, 2)]
    for i in range(masses.shape[1]):
        assert (lo[i], hi[i]) == _shortest_interval_loop(masses[:, i], 0.5)


def test_summarize_fields_against_direct_formulas():
    model = builtin("ipsa2d")
    sc = _scenario()
    out = output_matrix(model, _grid(), sc, 80)
    dev = to_deviations(out, reference_curve(model, sc.locations))
    s = summarize(dev, level=0.9)
    c = dev.delta_centers
    dense = dense_values(dev)
    for i in range(3):
        p = dense[:, i]
        assert s.mean[i] == pytest.approx(p @ c, abs=1e-12)
        assert s.variance[i] == pytest.approx(p @ c**2 - (p @ c) ** 2, abs=1e-10)
        assert s.variance[i] == pytest.approx(_two_pass_fsum(p, c, s.mean[i]), rel=1e-12)
        assert s.argmax[i] == c[np.argmax(p)]
        lo = np.searchsorted(c, s.ci_lower[i])
        hi = np.searchsorted(c, s.ci_upper[i])
        assert math.fsum(p[lo:hi + 1]) >= 0.9 - 1e-12
    assert math.fsum(s.global_marginal) == pytest.approx(1.0, abs=1e-9)
    # Uniform weights: the marginal is the row mean, renormalized.
    expect = dense.mean(axis=1)
    expect /= math.fsum(expect)
    assert np.allclose(s.global_marginal, expect, atol=1e-12)


def _two_pass_fsum(p, c, mean):
    return math.fsum(p * (c - mean) ** 2)


@pytest.mark.parametrize("deviation", ["mode", "alpha-matched"])
def test_summarize_variance_is_never_negative(deviation):
    # exp(12 x) puts each column's mass near a delta-y of 1e18, where the
    # moment difference E[c^2] - mean^2 cancelled to negatives: -2.1e21 and
    # -1.2e21 with the mode reference, -3.1e58 alpha-matched.
    grid = make_grid(GridSpec((Dim("x", -4, 4, 200), Dim("a", -1, 1, 20, "alpha"))))
    model = parse_expression("exp(12*x) + a", ["x", "a"])
    sc = _scenario(locations=(-3.0, 0.0, 3.5))
    if deviation == "mode":
        dev = to_deviations(output_matrix(model, grid, sc, 100),
                            reference_curve(model, sc.locations))
    else:
        dev = deviation_statistic_matrix(model, grid, sc, 100)
    s = summarize(dev, level=0.9)
    c = dev.delta_centers
    assert (s.variance >= 0).all()
    for i in range(3):
        p = dense_values(dev)[:, i]
        assert s.mean[i] == pytest.approx(math.fsum(p * c), rel=1e-12)
        # The second pass around the mean summarize returns, summed exactly.
        assert s.variance[i] == pytest.approx(_two_pass_fsum(p, c, s.mean[i]), rel=1e-12)


def test_summarize_names_the_location_whose_squared_deviations_overflow():
    # Bins 1.5e154 apart: squared deviations from a mean near either end
    # overflow, from one in the middle they do not. Times a zero mass the
    # overflow is nan (location 2.0), times a positive one inf (3.0).
    dev = IpsaMatrix(np.array([[0.5, 1.0, 0.99], [0.5, 0.0, 0.01]]), np.array([0.0, 1.5e154]),
                     1.5e154, np.array([-1.0, 2.0, 3.0]), np.zeros(3, np.int64))
    with pytest.raises(EvaluationError, match=r"overflow at location 2\.0$"):
        summarize(dev, level=0.9)
    assert summarize(replace(dev, values=dev.values[:, :1], locations=dev.locations[:1],
                             row_offset=dev.row_offset[:1]), level=0.9).variance[0] > 0


def test_summarize_validation():
    out = output_matrix(builtin("ipsa2d"), _grid(40, 10), _scenario(), 10)
    dev = to_deviations(out, np.zeros(3))
    with pytest.raises(GridError):
        summarize(dev, level=1.5)
    with pytest.raises(GridError):
        summarize(dev, level=0.9, weights=np.ones(7))


def test_linear_model_deviation_statistic_is_gaussian_like():
    # For M = 2x + a the alpha-matched statistic is exactly 2 * x-deviation:
    # mean ~ 0 and variance ~ 4 sigma_ell^2, independent of location.
    g = make_grid(GridSpec((Dim("x", -3, 3, 400), Dim("a", -1, 1, 11, "alpha"))))
    model = parse_expression("2*x + a", ["x", "a"])
    sc = MeasurementScenario([0.0, 5.0, -7.0], 0.5, 0.25)
    dev = deviation_statistic_matrix(model, g, sc, 200)
    s = summarize(dev, level=0.9)
    assert np.allclose(s.mean, 0.0, atol=0.02)
    assert np.allclose(s.variance, 4 * 0.5**2, atol=0.02)
    # Location-independent by construction: columns are identical.
    assert np.allclose(dev.values[:, 0], dev.values[:, 1], atol=1e-12)


def test_deviation_statistic_alpha_cancels():
    # M = x^2 + a: the statistic (ell+x)^2 - ell^2 has no alpha dependence at
    # all, unlike the mode-referenced path where alpha spreads the deviation.
    g = make_grid(GridSpec((Dim("x", -2, 2, 200), Dim("a", -5, 5, 21, "alpha"))))
    model = parse_expression("x^2 + a", ["x", "a"])
    sc = MeasurementScenario([1.0], 0.3, 2.0)  # huge alpha uncertainty
    dev = deviation_statistic_matrix(model, g, sc, 150)
    s = summarize(dev, level=0.9)
    # E[(ell+x)^2 - ell^2] = 2*ell*E[x] + E[x^2] ~ sigma_ell^2 at ell=1.
    assert s.mean[0] == pytest.approx(0.3**2, abs=0.02)
    assert s.variance[0] == pytest.approx(4 * 1.0**2 * 0.3**2 + 2 * 0.3**4, rel=0.1)


def test_output_matrix_rejects_two_x_dims():
    g = make_grid(GridSpec((Dim("x1", 0, 1, 4), Dim("x2", 0, 1, 4))))
    with pytest.raises(GridError):
        output_matrix(builtin("bench2d"), g, _scenario(), 10)


# --- vectorised shortest interval against the two-pointer loop ---------------

def _shortest_interval_loop(masses, level):
    """Reference two-pointer scan over start and end bins."""
    K = masses.size
    prefix = np.concatenate([[0.0], np.cumsum(masses)])
    best = (K, 0)  # (length, start)
    lo = 0
    for hi in range(1, K + 1):
        while prefix[hi] - prefix[lo + 1] >= level:
            lo += 1
        if prefix[hi] - prefix[lo] >= level:
            length = hi - lo
            if length < best[0]:
                best = (length, lo)
    if best[0] > K:
        return 0, K - 1
    return best[1], best[1] + best[0] - 1


_mass = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([1e-300, 1e-17, 0.5]))
_level = st.one_of(st.floats(1e-9, 1.0), st.floats(1.0 - 1e-9, 1.0), st.just(1.0),
                   st.sampled_from([0.5, 0.9, 0.95, 0.99]))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.data(), _level, st.booleans())
def test_shortest_interval_matches_loop(K, L, data, level, normalize):
    # A (K, L) batch, every column against the loop on its own.
    masses = np.array(data.draw(st.lists(_mass, min_size=K * L, max_size=K * L))).reshape(K, L)
    if normalize:
        assume((masses.sum(axis=0) > 0).all())
        masses = masses / masses.sum(axis=0)
    lo, hi = _shortest_interval(masses, level)
    for i in range(L):
        assert (lo[i], hi[i]) == _shortest_interval_loop(masses[:, i], level)


def test_shortest_interval_matches_loop_on_binned_columns():
    # Gaussian-like columns with zero-mass tails and gaps, as binning leaves
    # them, three to a batch.
    rng = np.random.default_rng(5)
    for _ in range(100):
        K = int(rng.integers(1, 300))
        c = np.arange(K)[:, None]
        cols = np.exp(-0.5 * ((c - rng.uniform(0, K, 3)) / rng.uniform(0.3, K, 3)) ** 2)
        cols[rng.random((K, 3)) < 0.3] = 0.0
        cols = cols[:, cols.sum(axis=0) > 0]
        if cols.size == 0:
            continue
        cols /= cols.sum(axis=0)
        for level in (0.5, 0.9, 0.95, 1.0 - 1e-12):
            lo, hi = _shortest_interval(cols, level)
            for i in range(cols.shape[1]):
                assert (lo[i], hi[i]) == _shortest_interval_loop(cols[:, i], level)


# --- deviation statistic matrix: two sweeps, same columns --------------------

def _deviation_statistic_all_stats(model, grid, scenario, K, base_col=None):
    """Reference version: every location's N-float statistic held at once.
    The column is the scenario factors' at location 0 unless base_col is given."""
    xd = grid.spec.x_index()
    if base_col is None:
        at_zero = replace(scenario, locations=[0.0], weights=None)
        base_col = scenario_factors(grid, at_zero).column(0)
    stats = []
    for ell in scenario.locations:
        shifted = [grid.nodes[:, d] + ell if d == xd else grid.nodes[:, d] for d in range(grid.ndim)]
        ref = [np.full(grid.size, ell) if d == xd else grid.nodes[:, d] for d in range(grid.ndim)]
        stats.append(np.broadcast_to(model.raw(*shifted) - model.raw(*ref), (grid.size,)))
    s_min = min(float(s.min()) for s in stats)
    s_max = max(float(s.max()) for s in stats)
    binning = OutputBinning(K if s_max > s_min else 1, s_min, s_max)
    values = np.empty((binning.K, scenario.n_locations))
    for i, s in enumerate(stats):
        values[:, i] = propagate(SparseModelMatrix(binning.assign(s), binning, grid), base_col)
    return values, binning


@pytest.mark.parametrize("dims", [
    (Dim("x", -1.6, 1.6, 90), Dim("a", -1, 1, 30, "alpha")),
    (Dim("a", -1, 1, 30, "alpha"), Dim("x", -1.6, 1.6, 90)),
])
def test_deviation_statistic_matrix_equals_all_stats_version(dims):
    grid = make_grid(GridSpec(dims))
    model = parse_expression("x^2 + 5*sin(3*x) + a*x", [d.name for d in dims])
    sc = _scenario(locations=(-2.7, -0.4, 0.0, 1.3, 3.1))
    dev = deviation_statistic_matrix(model, grid, sc, 120)
    values, binning = _deviation_statistic_all_stats(model, grid, sc, 120)
    assert np.array_equal(dev.values, values)
    assert np.array_equal(dev.delta_centers, binning.centers)
    assert dev.bin_width == binning.width


def test_deviation_statistic_matrix_memory_is_independent_of_L():
    # N = 2e5, L = 50: holding every statistic would take 8 * N * L = 80 MB.
    grid = make_grid(GridSpec((Dim("x", -1.6, 1.6, 1000), Dim("a", -1, 1, 200, "alpha"))))
    sc = _scenario(locations=np.linspace(-3, 3, 50))
    tracemalloc.start()
    try:
        deviation_statistic_matrix(builtin("ipsa2d"), grid, sc, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * grid.size


# --- output matrix on local grids: two sweeps, same columns ------------------

def _output_matrix_all_outputs(model, grid, scenario, K, gaussian=False):
    """Reference version: every location's local grid and outputs held at once.
    Column i is row i of the scenario factors on the windows' x nodes, or with
    gaussian=True the Gaussian assembled on window i's grid."""
    xd = grid.spec.x_index()
    x_dim = grid.spec.dims[xd]
    half = 4.0 * scenario.sigma_ell
    grids = []
    for ell in scenario.locations:
        dims = list(grid.spec.dims)
        dims[xd] = Dim(x_dim.name, max(ell - half, x_dim.lower), min(ell + half, x_dim.upper),
                       x_dim.count, "x")
        grids.append(make_grid(GridSpec(tuple(dims))))
    outputs = [np.broadcast_to(model.raw(*(g.nodes[:, d] for d in range(g.ndim))), (g.size,))
               for g in grids]
    y_min = min(float(y.min()) for y in outputs)
    y_max = max(float(y.max()) for y in outputs)
    binning = OutputBinning(K if y_max > y_min else 1, y_min, y_max)
    sigma = scenario_sigma(grid, scenario)
    factors = scenario_factors(grid, scenario, np.stack([g.axes[xd] for g in grids]))
    values = np.empty((binning.K, scenario.n_locations))
    for i, (ell, g, y) in enumerate(zip(scenario.locations, grids, outputs)):
        mean = np.zeros(grid.ndim)
        mean[xd] = ell
        matrix = SparseModelMatrix(binning.assign(y), binning, g)
        column = gaussian_on_grid(g, mean, sigma) if gaussian else factors.column(i)
        values[:, i] = propagate(matrix, column)
    return values, binning


@pytest.mark.parametrize("dims", [
    (Dim("x", -4, 4, 90), Dim("a", -1, 1, 30, "alpha")),
    (Dim("a", -1, 1, 30, "alpha"), Dim("x", -4, 4, 90)),
])
def test_local_output_matrix_equals_all_outputs_version(dims):
    grid = make_grid(GridSpec(dims))
    model = parse_expression("x^2 + 5*sin(3*x) + a*x", [d.name for d in dims])
    # -3.9 and 3.5 clip their windows at the grid's x extent.
    sc = _scenario(locations=(-3.9, -0.4, 0.0, 1.3, 3.5))
    out = output_matrix(model, grid, sc, 120, shared_matrix=False)
    values, binning = _output_matrix_all_outputs(model, grid, sc, 120)
    assert np.array_equal(out.values, values)
    assert out.binning == binning


@pytest.mark.parametrize("text", ["1/x + a", "sqrt(x - 1) * a"])
def test_local_output_matrix_evaluates_only_window_nodes(text):
    # Undefined at x = 0, which this grid leaves out: no window may evaluate
    # the model there.
    grid = make_grid(GridSpec((Dim("x", 1, 5, 90), Dim("a", -1, 1, 30, "alpha"))))
    model = parse_expression(text, ["x", "a"])
    sc = _scenario(locations=(1.2, 3.0, 4.9))
    out = output_matrix(model, grid, sc, 120, shared_matrix=False)
    values, binning = _output_matrix_all_outputs(model, grid, sc, 120)
    assert np.array_equal(out.values, values)
    assert out.binning == binning


def _assert_close_per_cell(values, expected, rel=1e-14):
    assert values.shape == expected.shape
    assert np.all(np.abs(values - expected) <= rel * np.abs(expected))


@pytest.mark.parametrize("dims", [
    (Dim("x", -4, 4, 90), Dim("a", -1, 1, 30, "alpha")),
    (Dim("a", -1, 1, 30, "alpha"), Dim("x", -4, 4, 90)),
])
def test_per_location_modes_match_gaussian_on_grid_columns(dims):
    # gaussian_on_grid normalizes an assembled column by one sum over its N
    # cells, each scenario factor by its own sum: the same weights up to
    # rounding, added into the same bins in the same order.
    grid = make_grid(GridSpec(dims))
    model = parse_expression("x^2 + 5*sin(3*x) + a*x", [d.name for d in dims])
    sc = _scenario(locations=(-3.9, -0.4, 0.0, 1.3, 3.5))
    out = output_matrix(model, grid, sc, 120, shared_matrix=False)
    values, binning = _output_matrix_all_outputs(model, grid, sc, 120, gaussian=True)
    assert out.binning == binning
    _assert_close_per_cell(out.values, values)
    dev = deviation_statistic_matrix(model, grid, sc, 120)
    base_col = gaussian_on_grid(grid, np.zeros(grid.ndim), scenario_sigma(grid, sc))
    values, binning = _deviation_statistic_all_stats(model, grid, sc, 120, base_col)
    assert np.array_equal(dev.delta_centers, binning.centers)
    _assert_close_per_cell(dev.values, values)


def test_local_window_outside_the_grid_names_its_location():
    calls = []
    model = parse_expression("x^2 + a", ["x", "a"])
    counted = ModelFunction(model.name, 2, lambda *a: calls.append(a) or model.fn(*a))
    sc = _scenario(locations=(0.0, 6.0, 7.0))
    grid = make_grid(GridSpec((Dim("x", -4, 4, 40), Dim("a", -1, 1, 10, "alpha"))))
    with pytest.raises(GridError, match=r"^location 6\.0: its \+-4 sigma_ell window "
                       r"\[4\.4, 7\.6\] misses the grid's x extent \[-4\.0, 4\.0\]$"):
        output_matrix(counted, grid, sc, 40, shared_matrix=False)
    assert calls == []
    # A window that reaches into the grid is clipped to it.
    out = output_matrix(model, grid, _scenario(locations=(0.0, 5.0)), 40, shared_matrix=False)
    assert abs(math.fsum(out.values[:, 1]) - 1.0) <= 1e-9


def test_local_output_matrix_memory_is_independent_of_L():
    # N = 2e5, L = 20: holding every location's grid and outputs took about
    # 64 * 8 * N bytes (103 MB); two sweeps need about 10 * 8 * N.
    grid = make_grid(GridSpec((Dim("x", -4, 4, 1000), Dim("a", -1, 1, 200, "alpha"))))
    sc = _scenario(locations=np.linspace(-3, 3, 20))
    tracemalloc.start()
    try:
        output_matrix(builtin("ipsa2d"), grid, sc, 500, shared_matrix=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * grid.size


@pytest.mark.parametrize("local", [True, False])
def test_per_location_sweeps_hold_one_location_at_a_time(local):
    # N = 2e5, L = 20. Alive at the peak: one location's outputs, its bins and
    # the bincount's index copy, and the one input column (a local window
    # writes each of its columns into one array): about 2.6 * 8 * N. With
    # the range sweep's last outputs kept alive it is about 3.6 * 8 * N.
    x = (-4, 4) if local else (-1.6, 1.6)
    grid = make_grid(GridSpec((Dim("x", *x, 1000), Dim("a", -1, 1, 200, "alpha"))))
    sc = _scenario(locations=np.linspace(-3, 3, 20))
    tracemalloc.start()
    try:
        if local:
            output_matrix(builtin("ipsa2d"), grid, sc, 500, shared_matrix=False)
        else:
            deviation_statistic_matrix(builtin("ipsa2d"), grid, sc, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * grid.size


# --- to_deviations: every column moves down whole rows ------------------------

def _is_shift(column, source, offset):
    """column equals source moved down offset rows, bit for bit, +0.0 elsewhere."""
    expected = np.zeros(column.size)
    expected[offset:offset + source.size] = source
    return np.array_equal(np.ascontiguousarray(column).view(np.int64), expected.view(np.int64))


def _check_row_offsets(out, ipsa, y_ref):
    K = out.values.shape[0]
    assert ipsa.values is out.values  # the output matrix's own columns, not a copy
    assert ipsa.row_offset.shape == (out.n_locations,) and ipsa.row_offset.dtype == np.int64
    assert ipsa.row_offset.min() == 0 and ipsa.delta_centers.size == ipsa.row_offset.max() + K
    dense = dense_values(ipsa)
    for i, offset in enumerate(ipsa.row_offset.tolist()):
        assert _is_shift(dense[:, i], out.values[:, i], offset)
        # Each bin lands within half a bin of its exact deviation.
        exact = out.binning.centers - y_ref[i]
        assert np.abs(ipsa.delta_centers[offset:offset + K] - exact).max() <= (
            0.5 + 1e-9) * ipsa.bin_width + 1e-9 * np.abs(exact).max()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 25), st.floats(-50, 50), st.floats(1e-3, 10.0), st.data())
def test_to_deviations_row_offsets_reproduce_pure_shifts(K, lo, width, data):
    # References sit a whole number of bins plus a fraction away from lo, ties
    # included, anywhere within K bins of the output range [lo, lo + K * width]:
    # each column still moves as a whole, onto at most 4K + 1 rows.
    binning = OutputBinning(K, lo, lo + K * width)
    b = binning.width
    floor, ceiling = binning.y_min - K * b, binning.y_max + K * b
    shifts = data.draw(st.lists(
        st.tuples(st.integers(-K, 2 * K),
                  st.one_of(st.floats(0, 1),
                            st.sampled_from([0.0, 0.5, 0.5 - 1e-12, 0.5 + 1e-12]))),
        min_size=1, max_size=8))
    y_ref = np.clip([lo + n * b + frac * b for n, frac in shifts], floor, ceiling)
    L = y_ref.size
    masses = data.draw(st.lists(st.floats(1e-300, 1.0), min_size=K * L, max_size=K * L))
    out = OutputProbabilityMatrix(np.reshape(masses, (K, L)), binning,
                                  np.arange(L, dtype=float))
    ipsa = to_deviations(out, y_ref)
    _check_row_offsets(out, ipsa, y_ref)
    assert ipsa.delta_centers.size <= 4 * K + 1
    # One reference just beyond the bound, on either side, is refused by location.
    i = data.draw(st.integers(0, L - 1))
    y_ref[i] = data.draw(st.sampled_from([np.nextafter(floor, -np.inf),
                                          np.nextafter(ceiling, np.inf)]))
    with pytest.raises(EvaluationError, match=f"at location {float(i)!r} lies more than K = {K} "):
        to_deviations(out, y_ref)


def test_to_deviations_moves_half_bin_ties_and_negative_zero_whole():
    # Centers 0.5 .. 3.5. Column 0 (y_ref 0) sits half a bin from columns 1
    # and 2 (y_ref 0.5): it moves as a whole onto rows 0 .. 3 instead of
    # rounding its bins half to even onto rows 0, 2, 2, 4. Column 2 keeps
    # its -0.0.
    binning = OutputBinning(4, 0.0, 4.0)
    values = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, -0.0], [0.3, 0.3, 0.5], [0.4, 0.4, 0.4]])
    out = OutputProbabilityMatrix(values, binning, np.array([0.0, 1.0, 2.0]))
    y_ref = [0.0, 0.5, 0.5]
    ipsa = to_deviations(out, y_ref)
    assert ipsa.row_offset.tolist() == [0, 0, 0]
    assert ipsa.delta_centers.tolist() == [0.0, 1.0, 2.0, 3.0]
    dense = dense_values(ipsa)
    assert dense[:, 0].tolist() == [0.1, 0.2, 0.3, 0.4]
    assert np.signbit(dense[1, 2]) and np.signbit(dense).sum() == 1
    _check_row_offsets(out, ipsa, y_ref)


def test_deviation_statistic_matrix_has_no_row_offsets():
    dev = deviation_statistic_matrix(builtin("ipsa2d"), _grid(40, 10), _scenario(), 30)
    assert dev.row_offset.dtype == np.int64 and dev.row_offset.tolist() == [0, 0, 0]
    assert dev.delta_centers.size == dev.values.shape[0] == 30


# --- summarize on the (K, L) columns against the dense formulas --------------

def _dense_summary(ipsa, level, weights):
    """The summary fields computed on the dense (n_rows, L) scatter."""
    c = ipsa.delta_centers
    dense = dense_values(ipsa)
    mean = dense.T @ c
    variance = np.array([col @ (c - m) ** 2 for col, m in zip(dense.T, mean)])
    argmax = c[np.argmax(dense, axis=0)]
    ci = [_interval(col, level) for col in dense.T]
    marginal = dense @ weights
    return mean, variance, argmax, c[[lo for lo, _ in ci]], c[[hi for _, hi in ci]], (
        marginal / math.fsum(marginal))


@pytest.mark.parametrize("deviation", ["mode", "alpha-matched"])
def test_summarize_matches_the_dense_formulas(deviation):
    model = builtin("ipsa2d")
    sc = _scenario(locations=np.linspace(-3.5, 3.5, 9))
    if deviation == "mode":
        dev = to_deviations(output_matrix(model, _grid(), sc, 80),
                            reference_curve(model, sc.locations))
        assert dev.row_offset.max() > 0
    else:
        dev = deviation_statistic_matrix(model, _grid(), sc, 80)
    weights = np.linspace(1.0, 2.0, 9)
    s = summarize(dev, 0.9, weights)
    mean, variance, argmax, ci_lo, ci_hi, marginal = _dense_summary(dev, 0.9, weights)
    assert np.array_equal(s.argmax, argmax)
    assert np.array_equal(s.ci_lower, ci_lo) and np.array_equal(s.ci_upper, ci_hi)
    assert np.array_equal(s.global_axis, dev.delta_centers)
    scale = max(1.0, float(np.max(variance + mean ** 2)))
    assert np.abs(s.mean - mean).max() <= 1e-12 * scale
    assert np.abs(s.variance - variance).max() <= 1e-12 * scale
    assert np.abs(s.global_marginal - marginal).max() <= 1e-12


def test_summarize_memory_does_not_grow_with_the_reference_spread():
    # K = 20,000, L = 20, offsets up to 5e4 rows, every reference within K
    # bins of the output range: the dense (n_rows, L) scatter would grow by
    # 8 MB between the spreads; the columns and their centers take K * L cells
    # whatever the spread, and the delta-y axis and the marginal n_rows each.
    K, L = 20_000, 20
    binning = OutputBinning(K, 0.0, 1.0)
    rng = np.random.default_rng(3)
    values = rng.random((K, L))
    values /= values.sum(axis=0)
    out = OutputProbabilityMatrix(values, binning, np.arange(L, dtype=float))
    peaks = {}
    for spread in (10, 50_000):
        y_ref = binning.y_max + K * binning.width - binning.width * np.linspace(0, spread, L)
        tracemalloc.start()
        try:
            dev = to_deviations(out, y_ref)
            summarize(dev, 0.9)
            _, peaks[spread] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dev.row_offset.max() == spread
    added_rows = 50_000 - 10  # the bound of K = 100 (6 * 8 * 50,100 bytes), not looser
    assert peaks[50_000] - peaks[10] < 6 * 8 * added_rows < 8 * added_rows * L / 3


# --- to_deviations bounds the delta-y axis ------------------------------------

def _four_bins(locations=(0.0, 1.0)):
    # Centers 0.5 .. 3.5 on [0, 4], K = 4: references within [-4, 8] pass.
    values = np.full((4, len(locations)), 0.25)
    return OutputProbabilityMatrix(values, OutputBinning(4, 0.0, 4.0), np.asarray(locations))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
def test_to_deviations_rejects_a_non_finite_or_huge_reference(bad):
    message = f"reference {float(bad)!r} at location 1.0 lies more than K = 4 bins outside"
    with pytest.raises(EvaluationError, match=re.escape(message)):
        to_deviations(_four_bins(), [0.5, bad])


@pytest.mark.parametrize("bad", [np.nextafter(-4.0, -np.inf), np.nextafter(8.0, np.inf)])
def test_to_deviations_rejects_a_reference_just_beyond_k_bins(bad):
    with pytest.raises(EvaluationError, match=r"at location 2\.5 lies more than K = 4 bins "
                                              r"outside the output range \[0\.0, 4\.0\]"):
        to_deviations(_four_bins((-1.0, 2.5)), [0.5, bad])


def test_to_deviations_accepts_references_exactly_k_bins_outside():
    out = _four_bins()
    ipsa = to_deviations(out, [-4.0, 8.0])
    assert ipsa.row_offset.tolist() == [12, 0] and ipsa.delta_centers.size == 16
    _check_row_offsets(out, ipsa, [-4.0, 8.0])
