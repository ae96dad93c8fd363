import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vuprop import (
    Dim,
    GridSpec,
    MeasurementScenario,
    OutputBinning,
    build_model_matrix,
    builtin,
    gaussian_on_grid,
    invert,
    load_matrix,
    make_grid,
    matrix_from_model,
    parse_expression,
    posterior,
    propagate,
    propagate_many,
    propagate_scenario,
    save_matrix,
    scenario_matrix,
)
from vuprop import grid as grid_module
from vuprop.distributions import scenario_factors
from vuprop.engine import _propagate_folded, _propagate_streamed, reconstruct_prior
from vuprop.errors import (
    DegenerateDistributionError,
    EvaluationError,
    GridError,
    NoSupportError,
    SidecarFormatError,
)
from vuprop.models import _eval_broadcast


def _grid(lower=-4.0, upper=4.0, count=64):
    return make_grid(GridSpec((Dim("x", lower, upper, count),)))


# --- binning -----------------------------------------------------------------

def test_binning_assign_examples():
    b = OutputBinning(4, 0.0, 4.0)
    assert b.assign(np.array([0.0, 0.9, 1.0, 3.999, 4.0])).tolist() == [0, 0, 1, 3, 3]
    assert b.width == 1.0
    assert b.centers.tolist() == [0.5, 1.5, 2.5, 3.5]
    assert b.edges.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_binning_clamps_out_of_range():
    b = OutputBinning(3, 0.0, 3.0)
    assert b.assign(np.array([-5.0, 99.0])).tolist() == [0, 2]


def test_binning_clamps_huge_finite_values_to_the_nearest_end(recwarn):
    # Clamped before the integer cast: 1e300 / b overflows int64.
    b = OutputBinning(10, 0.0, 1.0)
    assert b.assign(np.array([1e300, -1e300, 1.7e308, 0.55])).tolist() == [9, 0, 9, 5]
    assert not recwarn.list


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
@pytest.mark.parametrize("K", [1, 2, 10, 500, 1 << 16, (1 << 16) + 1])
def test_binning_assign_in_blocks_is_the_one_shot_formula(block, K, monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK", block)
    b = OutputBinning(K, -2.0, 3.0)
    rng = np.random.default_rng(5)
    y = np.concatenate([
        [1e300, -1e300, 1.7e308, -1.7e308, b.y_min, b.y_max],
        b.edges, np.nextafter(b.edges, np.inf), np.nextafter(b.edges, -np.inf),
        rng.uniform(-3.0, 4.0, 23),
    ])
    before = y.copy()
    with np.errstate(over="ignore"):
        expected = np.clip(np.floor((y - b.y_min) / ((b.y_max - b.y_min) / K)), 0, K - 1)
    for values, want in ((y, expected), (y.reshape(-1, 1), expected.reshape(-1, 1)),
                         (y[::2], expected[::2])):
        bins = b.assign(values)
        # Two bytes a node while every index fits, else four.
        assert bins.dtype == (np.uint16 if K <= 1 << 16 else np.uint32)
        assert np.array_equal(bins, want)
    assert np.array_equal(y, before)
    assert b.assign(np.array([b.y_max]))[0] == K - 1


def test_invert_round_trip_with_two_byte_indices_at_65536_bins():
    # K = 2^16 is the largest K with uint16 indices; its last bin is 65535.
    g = _grid(-1.0, 1.0, 1 << 17)
    m = matrix_from_model(parse_expression("x", ["x"]), g, 1 << 16)
    assert m.bin_of.dtype == np.uint16 and int(m.bin_of.max()) == (1 << 16) - 1
    prior = gaussian_on_grid(g, (0.2,), (0.4,))
    inv = invert(m, prior)
    assert len(inv.rows) == 1 << 16
    assert inv.rows[-1][0].tolist() == [(1 << 17) - 2, (1 << 17) - 1]
    assert np.allclose(reconstruct_prior(inv), prior.values, rtol=0, atol=1e-15)


def test_identity_model_two_bins():
    # Four nodes 0.5..3.5 mapped through y = x into K = 2 bins of the range
    # [0.5, 3.5]: the lower two nodes land in bin 0, the upper two in bin 1.
    g = _grid(0.0, 4.0, 4)
    m = matrix_from_model(parse_expression("x", ["x"]), g, 2)
    assert m.bin_of.tolist() == [0, 0, 1, 1]
    assert m.binning.y_min == 0.5 and m.binning.y_max == 3.5


def test_matrix_bins_match_pointwise_rule():
    g = make_grid(GridSpec((Dim("x", -3, 3, 41), Dim("a", -1, 1, 17, "alpha"))))
    model = builtin("ipsa2d")
    m = matrix_from_model(model, g, 25)
    y = np.array([model(*node) for node in g.nodes])
    b = (m.binning.y_max - m.binning.y_min) / m.K
    for j in range(g.size):
        expect = min(int((y[j] - m.binning.y_min) // b), m.K - 1)
        assert m.bin_of[j] == expect


def test_constant_model_collapses_to_one_bin():
    g = _grid()
    m = matrix_from_model(parse_expression("2", ["x"]), g, 100)
    assert m.K == 1
    assert np.all(m.bin_of == 0)
    out = propagate(m, gaussian_on_grid(g, 0.0, 1.0))
    assert out.tolist() == pytest.approx([1.0], abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite_outputs_anywhere(bad):
    for j in (0, 3, 7):
        outputs = np.arange(8.0)
        outputs[j] = bad
        with pytest.raises(EvaluationError, match="non-finite model outputs"):
            build_model_matrix(outputs, 4)


def test_build_rejects_bad_inputs():
    with pytest.raises(EvaluationError):
        build_model_matrix(np.array([]), 5)
    with pytest.raises(EvaluationError):
        build_model_matrix(np.array([1.0, np.nan]), 5)
    with pytest.raises(EvaluationError):
        build_model_matrix(np.array([1.0]), 0)


# --- propagation -------------------------------------------------------------

def test_propagate_matches_dense_oracle():
    g = make_grid(GridSpec((Dim("x", -3, 3, 30), Dim("a", -1, 1, 10, "alpha"))))
    m = matrix_from_model(builtin("bench2d"), g, 40)
    p = gaussian_on_grid(g, (0.5, 0.0), (0.8, 0.3))
    out = propagate(m, p)
    # Dense 0/1 matrix product as the oracle.
    A = np.zeros((m.K, m.N))
    A[m.bin_of, np.arange(m.N)] = 1.0
    assert np.allclose(out, A @ p.values, rtol=0, atol=1e-12)
    assert abs(math.fsum(out) - 1.0) <= 1e-9


def test_propagate_is_linear():
    g = _grid(count=50)
    m = matrix_from_model(parse_expression("sin(x)", ["x"]), g, 11)
    p1 = gaussian_on_grid(g, -1.0, 0.5).values
    p2 = gaussian_on_grid(g, 2.0, 0.7).values
    combo = propagate(m, 0.3 * p1 + 0.7 * p2)
    parts = 0.3 * propagate(m, p1) + 0.7 * propagate(m, p2)
    assert np.allclose(combo, parts, rtol=0, atol=1e-15)


def test_propagate_length_mismatch():
    m = matrix_from_model(parse_expression("x", ["x"]), _grid(count=8), 4)
    with pytest.raises(GridError):
        propagate(m, np.ones(9) / 9)


def test_propagate_many_reuses_one_matrix_bitwise():
    g = make_grid(GridSpec((Dim("x", -5, 5, 60), Dim("a", -1, 1, 12, "alpha"))))
    m = matrix_from_model(builtin("ipsa2d"), g, 30)
    sc = MeasurementScenario(np.linspace(-3, 3, 7), 0.5, 0.25)
    P = scenario_matrix(g, sc)
    out = propagate_many(m, P)
    assert out.values.shape == (30, 7)
    for i in range(7):
        assert np.array_equal(out.values[:, i], propagate(m, P.columns[:, i]))
    sums = [math.fsum(out.values[:, i]) for i in range(7)]
    assert max(abs(s - 1.0) for s in sums) <= 1e-9


# --- separable scenario propagation -----------------------------------------

_LAYOUTS = {
    # name: (dims as (name, lower, upper, role), expression)
    "1d": ((("x", -3.0, 3.0, "x"),), "sin(3*x) + x^2/4"),
    "x_first": ((("x", -3.0, 3.0, "x"), ("a", -1.0, 1.0, "alpha")), "sin(3*x) + x*a"),
    "x_last": ((("a", -1.0, 1.0, "alpha"), ("x", -3.0, 3.0, "x")), "x^2 + 2*a"),
    "x_middle": (
        (("a", -1.0, 1.0, "alpha"), ("x", -3.0, 3.0, "x"), ("b", -0.5, 0.5, "alpha")),
        "sin(2*x) + a*b + x*a",
    ),
}


@given(
    layout=st.sampled_from(sorted(_LAYOUTS)),
    counts=st.lists(st.integers(1, 12), min_size=3, max_size=3),
    K=st.integers(1, 40),
    locations=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
    sigma_ell=st.floats(0.2, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_propagate_scenario_matches_column_path(layout, counts, K, locations, sigma_ell):
    dims, expression = _LAYOUTS[layout]
    g = make_grid(GridSpec(tuple(
        Dim(name, lo, hi, count, role) for (name, lo, hi, role), count in zip(dims, counts)
    )))
    m = matrix_from_model(parse_expression(expression, [d[0] for d in dims]), g, K)
    sc = MeasurementScenario(locations, sigma_ell, 0.3)
    expected = propagate_many(m, scenario_matrix(g, sc)).values
    factors = scenario_factors(g, sc)
    folded = _propagate_folded(m, factors)
    streamed = _propagate_streamed(m, factors)
    assert np.array_equal(streamed, expected)
    for values in (folded, propagate_scenario(m, sc).values):
        assert values.shape == expected.shape
        assert np.max(np.abs(values - expected)) <= 1e-12
        assert np.max(np.abs(values.sum(axis=0) - 1.0)) <= 1e-9


def test_propagate_scenario_stream_branch_is_bitwise_column_path():
    # L < 3 selects the stream branch.
    g = make_grid(GridSpec((Dim("x", -5, 5, 60), Dim("a", -1, 1, 12, "alpha"))))
    m = matrix_from_model(builtin("ipsa2d"), g, 30)
    for locations in ([0.7], [-2.0, 1.5]):
        sc = MeasurementScenario(locations, 0.5, 0.25)
        out = propagate_scenario(m, sc)
        assert np.array_equal(out.values, propagate_many(m, scenario_matrix(g, sc)).values)
        assert out.locations.tolist() == locations
        assert out.binning == m.binning


def test_propagate_scenario_matches_literal_quadrature_oracle():
    grid = make_grid(GridSpec((
        Dim("x", -5.0, 5.0, 100), Dim("alpha", -1.0, 1.0, 100, "alpha"),
    )))
    K = 200
    locations = [1.0, -2.5, 0.25, 3.0]
    matrix = matrix_from_model(builtin("ipsa2d"), grid, K)
    sc = MeasurementScenario(locations, 0.5, 0.25)
    factors = scenario_factors(grid, sc)
    results = [propagate_scenario(matrix, sc).values,
               _propagate_folded(matrix, factors), _propagate_streamed(matrix, factors)]
    y_min = y_max = None
    for i, ell in enumerate(locations):
        # Literal loops, scalar math only, own weights and own binning.
        ys, ws = [], []
        for x in grid.axes[0]:
            for a in grid.axes[1]:
                ys.append(x * x + 5 * math.sin(3 * x) + a)
                ws.append(math.exp(-0.5 * ((x - ell) / 0.5) ** 2)
                          * math.exp(-0.5 * (a / 0.25) ** 2))
        y_min, y_max = min(ys), max(ys)
        b = (y_max - y_min) / K
        total = math.fsum(ws)
        oracle = [0.0] * K
        for y, w in zip(ys, ws):
            oracle[min(int((y - y_min) // b), K - 1)] += w / total
        for values in results:
            assert float(np.abs(values[:, i] - np.array(oracle)).max()) < 1e-12


def test_propagate_scenario_far_location_raises_like_scenario_matrix():
    g = make_grid(GridSpec((Dim("x", -2, 2, 40), Dim("a", -1, 1, 8, "alpha"))))
    m = matrix_from_model(builtin("bench2d"), g, 10)
    sc = MeasurementScenario([0.0, 1e3, 1.0], 0.1, 0.25)
    with pytest.raises(DegenerateDistributionError) as expected:
        scenario_matrix(g, sc)
    with pytest.raises(DegenerateDistributionError) as found:
        propagate_scenario(m, sc)
    assert str(found.value) == str(expected.value)


def test_propagate_scenario_needs_grid_matrix():
    g = _grid(count=8)
    m = build_model_matrix(np.arange(8.0), 4)  # no grid attached
    with pytest.raises(GridError):
        propagate_scenario(m, MeasurementScenario([0.0], 0.5, 0.5))


def test_propagate_scenario_memory_independent_of_locations():
    # N = 2e5, L = 200: the dense (N, L) input matrix would take 320 MB.
    g = make_grid(GridSpec((Dim("x", -4, 4, 1000), Dim("a", -1, 1, 200, "alpha"))))
    m = matrix_from_model(builtin("ipsa2d"), g, 500)
    sc = MeasurementScenario(np.linspace(-3.5, 3.5, 200), 0.4, 0.25)
    dense_bytes = 8 * g.size * sc.n_locations
    factors = scenario_factors(g, sc)
    for run in (lambda: propagate_scenario(m, sc), lambda: _propagate_streamed(m, factors)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 10


def _folded_in_one_bincount(matrix, f):
    """The fold's operator from one weighted bincount over all N nodes,
    applied over the blocks of x rows that `_propagate_folded` uses."""
    nx, K = f.x_block.shape[1], matrix.K
    shape = (f.pre.size, nx, f.post.size)
    index = matrix.bin_of.reshape(shape) + (K * np.arange(nx))[None, :, None]
    weights = np.broadcast_to(np.multiply.outer(f.pre, f.post)[:, None, :], shape)
    A = np.bincount(index.ravel(), weights=weights.ravel(), minlength=nx * K).reshape(nx, K)
    step = max(1, grid_module.BLOCK // (f.pre.size * f.post.size))
    out = np.zeros((f.x_block.shape[0], K))
    for x0 in range(0, nx, step):
        out += f.x_block[:, x0:x0 + step] @ A[x0:x0 + step]
    return out.T


@pytest.mark.parametrize("block", [1, 30, 50, 200, 1 << 16])
def test_fold_in_blocks_of_x_rows_is_the_one_bincount_fold(block, monkeypatch):
    # x in the middle, so every x row is pre.size = 6 runs of post.size = 4
    # nodes; a block of 50 holds two x rows, and the last block one.
    g = make_grid(GridSpec((Dim("a", -1, 1, 6, "alpha"), Dim("x", -3, 3, 9, "x"),
                            Dim("b", -0.5, 0.5, 4, "alpha"))))
    m = matrix_from_model(parse_expression("sin(2*x) + a*b + x*a", ["a", "x", "b"]), g, 7)
    f = scenario_factors(g, MeasurementScenario([-1.0, 0.3, 2.0, 2.5], 0.7, 0.3))
    assert f.pre.size > 1
    monkeypatch.setattr(grid_module, "BLOCK", block)
    assert np.array_equal(_propagate_folded(m, f), _folded_in_one_bincount(m, f))


def test_build_under_12_and_fold_under_6_bytes_per_node():
    # N = 1e6: the build holds N outputs, N two-byte bins and one block; the
    # fold the N bins, one block and its (L, K) result. No (N, 2) node array,
    # no nx * K = N operator and no N-sized temporary.
    g = make_grid(GridSpec((Dim("x", -4, 4, 2000), Dim("a", -1, 1, 500, "alpha"))))
    sc = MeasurementScenario(np.linspace(-3.5, 3.5, 50), 0.4, 0.25)
    tracemalloc.start()
    try:
        m = matrix_from_model(builtin("ipsa2d"), g, 500)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        propagate_scenario(m, sc)
        _, fold_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak < 12 * g.size
    assert fold_peak < 6 * g.size


def _shifted_matrix(model, grid, ell, K):
    """Matrix of x -> M(ell + x, alpha) on a grid in deviation coordinates."""
    shifted = _eval_broadcast(model, grid, grid.axes[grid.spec.x_index()] + ell)
    return build_model_matrix(shifted.ravel(), K, grid=grid)


def test_shifted_matrix_matches_absolute_convention():
    # Dyadic parameters so ell + x is exact: shifting the evaluation points
    # must reproduce the absolute-coordinate matrix bit for bit.
    ell = 1.0
    g_abs = make_grid(GridSpec((
        Dim("x", -4 + ell, 4 + ell, 64), Dim("a", -1, 1, 16, "alpha"),
    )))
    g_dev = make_grid(GridSpec((Dim("x", -4, 4, 64), Dim("a", -1, 1, 16, "alpha"))))
    model = builtin("ipsa2d")
    m_abs = matrix_from_model(model, g_abs, 32)
    m_dev = _shifted_matrix(model, g_dev, ell, 32)
    assert np.array_equal(m_abs.bin_of, m_dev.bin_of)
    assert m_abs.binning == m_dev.binning


def _shifted_matrix_full_columns(model, grid, ell, K):
    """Reference shifted matrix: the model on all N full-length columns."""
    xd = grid.spec.x_index()
    args = [grid.nodes[:, d] + ell if d == xd else grid.nodes[:, d] for d in range(grid.ndim)]
    return build_model_matrix(np.broadcast_to(model.raw(*args), (grid.size,)), K, grid=grid)


@pytest.mark.parametrize("dims", [
    (Dim("x", -3, 3, 50), Dim("a", -1, 1, 9, "alpha"), Dim("b", 0, 1, 4, "alpha")),
    (Dim("a", -1, 1, 9, "alpha"), Dim("x", -3, 3, 50), Dim("b", 0, 1, 4, "alpha")),
    (Dim("a", -1, 1, 9, "alpha"), Dim("b", 0, 1, 4, "alpha"), Dim("x", -3, 3, 50)),
])
def test_shifted_matrix_bins_unchanged(dims):
    grid = make_grid(GridSpec(dims))
    model = parse_expression("x^2 + 5*sin(3*x)*b + a", [d.name for d in dims])
    for ell in (-1.37, 0.0, 2.9):
        got = _shifted_matrix(model, grid, ell, 40)
        want = _shifted_matrix_full_columns(model, grid, ell, 40)
        assert np.array_equal(got.bin_of, want.bin_of)
        assert got.binning == want.binning


# --- Bayes inversion ---------------------------------------------------------

def test_invert_round_trip_reconstructs_prior():
    g = make_grid(GridSpec((Dim("x", -3, 3, 25), Dim("a", -1, 1, 9, "alpha"))))
    m = matrix_from_model(builtin("bench2d"), g, 20)
    prior = gaussian_on_grid(g, (0.0, 0.0), (1.0, 0.4))
    inv = invert(m, prior)
    rec = reconstruct_prior(inv)
    assert np.allclose(rec, prior.values, rtol=0, atol=1e-12)


def test_posteriors_are_normalized_and_supported():
    g = _grid(count=40)
    m = matrix_from_model(parse_expression("x^2", ["x"]), g, 10)
    prior = gaussian_on_grid(g, 0.0, 1.5)
    inv = invert(m, prior)
    for r in range(m.K):
        if inv.output[r] > 0:
            post = posterior(inv, r)
            assert abs(math.fsum(post.values) - 1.0) <= 1e-12
            # Support only where the model lands in bin r.
            assert np.all(m.bin_of[post.values > 0] == r)


def test_posterior_empty_bin_raises():
    g = _grid(0.0, 4.0, 4)
    m = matrix_from_model(parse_expression("x", ["x"]), g, 4)
    prior = np.zeros(4)
    prior[0] = 1.0
    from vuprop.distributions import ProbabilityVector

    inv = invert(m, ProbabilityVector(prior, g))
    with pytest.raises(NoSupportError):
        posterior(inv, 3)
    with pytest.raises(GridError):
        posterior(inv, 99)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_invert_round_trip_random_priors(seed):
    g = _grid(count=30)
    m = matrix_from_model(parse_expression("sin(3*x)+x/2", ["x"]), g, 8)
    rng = np.random.default_rng(seed)
    v = rng.random(30)
    v /= math.fsum(v)
    from vuprop.distributions import ProbabilityVector

    inv = invert(m, ProbabilityVector(v, g))
    assert np.allclose(reconstruct_prior(inv), v, rtol=0, atol=1e-12)


# --- sidecar -----------------------------------------------------------------

def test_sidecar_round_trip(tmp_path):
    g = make_grid(GridSpec((Dim("x", -2, 2, 20), Dim("a", -1, 1, 8, "alpha"))))
    m = matrix_from_model(builtin("bench2d"), g, 16)
    path = tmp_path / "m.vupm"
    save_matrix(path, m)
    back = load_matrix(path, grid=g, model_name=m.model_name)
    assert np.array_equal(back.bin_of, m.bin_of)
    assert back.binning == m.binning
    p = gaussian_on_grid(g, (0.0, 0.0), (0.5, 0.3))
    assert np.array_equal(propagate(back, p), propagate(m, p))


def test_sidecar_body_is_the_indices_as_little_endian_u4(tmp_path):
    g = make_grid(GridSpec((Dim("x", -2, 2, 20), Dim("a", -1, 1, 8, "alpha"))))
    m = matrix_from_model(builtin("bench2d"), g, 16)
    assert m.bin_of.dtype == np.uint16
    header = b"VUPM" + struct.pack("<IQQdd", 1, m.N, m.K, m.binning.y_min, m.binning.y_max)
    path = tmp_path / "m.vupm"
    save_matrix(path, m)
    assert path.read_bytes() == header + m.bin_of.astype("<u4").tobytes()


def test_loaded_indices_are_a_read_only_view(tmp_path):
    g = make_grid(GridSpec((Dim("x", -2, 2, 20), Dim("a", -1, 1, 8, "alpha"))))
    path = tmp_path / "m.vupm"
    save_matrix(path, matrix_from_model(builtin("bench2d"), g, 16))
    bin_of = load_matrix(path, grid=g).bin_of
    assert bin_of.dtype == np.dtype("<u4")
    assert not bin_of.flags.writeable and not bin_of.flags.owndata


@pytest.mark.parametrize("locations", [[0.7, -1.0], np.linspace(-3.0, 3.0, 9)])
def test_loaded_u4_and_built_u2_indices_propagate_bit_for_bit(tmp_path, locations):
    # Two locations take the stream branch, nine the fold.
    g = make_grid(GridSpec((Dim("x", -5, 5, 60), Dim("a", -1, 1, 12, "alpha"))))
    m = matrix_from_model(builtin("ipsa2d"), g, 30)
    path = tmp_path / "m.vupm"
    save_matrix(path, m)
    back = load_matrix(path, grid=g)
    sc = MeasurementScenario(locations, 0.5, 0.25)
    assert np.array_equal(propagate_scenario(back, sc).values, propagate_scenario(m, sc).values)


def test_sidecar_bad_magic(tmp_path):
    path = tmp_path / "junk.vupm"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SidecarFormatError, match="magic"):
        load_matrix(path)


def test_sidecar_truncated(tmp_path):
    g = _grid(count=10)
    m = matrix_from_model(parse_expression("x", ["x"]), g, 4)
    path = tmp_path / "t.vupm"
    save_matrix(path, m)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(SidecarFormatError, match="bytes"):
        load_matrix(path)


def test_sidecar_grid_size_mismatch(tmp_path):
    g = _grid(count=10)
    m = matrix_from_model(parse_expression("x", ["x"]), g, 4)
    path = tmp_path / "t.vupm"
    save_matrix(path, m)
    with pytest.raises(SidecarFormatError, match="grid"):
        load_matrix(path, grid=_grid(count=11))


def test_output_binning_spanning_collapses_a_constant_range():
    assert OutputBinning.spanning(10, 2.0, 2.0) == OutputBinning(1, 2.0, 2.0)
    assert OutputBinning.spanning(10, -1.0, 2.0) == OutputBinning(10, -1.0, 2.0)


@pytest.mark.parametrize("K, y_min, y_max", [
    (0, 0.0, 1.0), (True, 0.0, 1.0), (2.0, 0.0, 1.0),  # K is an integer >= 1
    (3, 1.0, 0.0),  # y_min <= y_max
    (3, 1.0, 1.0),  # a constant range is one bin
    (1, math.nan, math.nan), (2, 0.0, math.inf), (2, -math.inf, 0.0),  # finite
])
def test_output_binning_checks_its_invariant(K, y_min, y_max):
    with pytest.raises(GridError, match="output binning needs"):
        OutputBinning(K, y_min, y_max)


def test_one_bin_over_a_constant_range():
    b = OutputBinning(1, 2.0, 2.0)
    assert b.centers.tolist() == [2.0]
    assert b.edges.tolist() == [2.0, 2.0]
    assert b.width == 1.0
    assert b.assign(np.array([1.0, 2.0, 3.0])).tolist() == [0, 0, 0]


def test_sidecar_with_a_swapped_range_is_rejected(tmp_path):
    g = _grid(count=10)
    path = tmp_path / "t.vupm"
    save_matrix(path, matrix_from_model(parse_expression("x", ["x"]), g, 4))
    blob = path.read_bytes()  # y_min, y_max are the f64s at bytes 24 and 32
    path.write_bytes(blob[:24] + blob[32:40] + blob[24:32] + blob[40:])
    with pytest.raises(SidecarFormatError, match="y_min <= y_max"):
        load_matrix(path, grid=g)
