import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vuprop import (
    Dim,
    GridSpec,
    MeasurementScenario,
    builtin,
    gaussian_on_grid,
    generalized_expectation,
    integrated_variogram,
    ivars_weights,
    local_square_deviation,
    make_grid,
    parse_expression,
    variogram,
    vars_weights,
)
from vuprop.distributions import scenario_sigma
from vuprop.errors import EvaluationError, GridError
from vuprop.models import ModelFunction
from vuprop.variogram import _row_fsums

# The module: the package's `variogram` attribute is the function.
variogram_module = importlib.import_module("vuprop.variogram")


def _ell_grid(lower=0.0, upper=10.0, count=500):
    return make_grid(GridSpec((Dim("ell", lower, upper, count),)))


def test_linear_model_variogram_closed_form():
    # M = a*ell: gamma(v) = a^2 v^2 / 2 exactly, for any location average.
    g = _ell_grid()
    model = parse_expression("3*x", ["x"])
    for v in (0.0, 0.5, 2.0):
        assert variogram(model, g, v) == pytest.approx(9 * v**2 / 2, rel=1e-12)


def test_constant_model_zero_variogram():
    assert variogram(parse_expression("7", ["x"]), _ell_grid(), 1.3) == 0.0


def test_variogram_shrinks_ell_range():
    # v near the domain width: only the leftmost nodes have ell + v inside.
    g = _ell_grid(0, 10, 100)
    model = parse_expression("x^2", ["x"])
    v = 9.9
    ell = g.axes[0]
    valid = ell[ell + v <= 10.0]
    expect = math.fsum(((valid + v) ** 2 - valid**2) ** 2) / (2 * valid.size)
    assert variogram(model, g, v) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(GridError):
        variogram(model, g, 11.0)
    with pytest.raises(GridError):
        variogram(model, g, -0.1)
    # ell + v == upper exactly (9.5 + 0.5) is inside: the last location counts.
    ell = _ell_grid(0, 10, 10).axes[0]
    assert variogram(model, _ell_grid(0, 10, 10), 0.5) == (
        math.fsum(((ell + 0.5) ** 2 - ell**2) ** 2) / 20)


def test_integrated_variogram_linear_closed_form():
    # Gamma(V) = integral of a^2 v^2/2 = a^2 V^3 / 6. The midpoint rule on a
    # quadratic has error O(dv^2); 2000 nodes gives ~1e-7 relative.
    g = _ell_grid()
    model = parse_expression("3*x", ["x"])
    res = integrated_variogram(model, g, V=2.0, v_count=2000)
    assert res.Gamma == pytest.approx(9 * 2.0**3 / 6, rel=1e-6)
    assert res.expectation == pytest.approx(res.Gamma / 2.0, rel=1e-15)
    assert res.v_grid.size == 2000
    with pytest.raises(GridError):
        integrated_variogram(model, g, V=0.0, v_count=10)
    with pytest.raises(GridError):
        integrated_variogram(model, g, V=1.0, v_count=0)


def test_ivars_weights_recover_integrated_variogram_exactly():
    g = _ell_grid(0, 10, 200)
    model = builtin("ipsa2d")
    res = integrated_variogram(model, g, V=3.0, v_count=40, alpha_ref=0.0)
    v_nodes, w = ivars_weights(g, V=3.0, v_count=40)
    assert math.fsum(w.ravel()) == pytest.approx(1.0, abs=1e-12)
    got = generalized_expectation(model, g, v_nodes, w, alpha_ref=0.0)
    assert got == pytest.approx(res.expectation, abs=1e-12)


def test_vars_weights_recover_plain_variogram_exactly():
    g = _ell_grid(0, 10, 200)
    model = builtin("ipsa2d")
    v_nodes, _ = ivars_weights(g, V=3.0, v_count=40)
    v_prime = float(v_nodes[17])
    w = vars_weights(g, v_nodes, v_prime)
    got = generalized_expectation(model, g, v_nodes, w, alpha_ref=0.0)
    assert got == pytest.approx(variogram(model, g, v_prime, alpha_ref=0.0), abs=1e-12)


def test_generalized_expectation_validation():
    g = _ell_grid(count=10)
    model = parse_expression("x", ["x"])
    v_nodes = np.array([0.5, 1.0])
    with pytest.raises(GridError, match="shape"):
        generalized_expectation(model, g, v_nodes, np.ones((3, 10)) / 30)
    with pytest.raises(GridError, match="non-negative"):
        w = np.full((2, 10), 0.15)
        w[0, 0] = -0.1
        w[1, 0] = 0.1 - 1.0  # keep the sum at 1
        generalized_expectation(model, g, v_nodes, w)
    with pytest.raises(GridError, match="sum"):
        generalized_expectation(model, g, v_nodes, np.full((2, 10), 0.1))
    with pytest.raises(GridError, match="finite"):
        generalized_expectation(model, g, np.array([0.5, np.nan]), np.full((2, 10), 0.05))


def test_alpha_ref_threading():
    g = _ell_grid()
    model = builtin("ipsa2d")  # x^2 + 5 sin(3x) + a; additive alpha cancels
    assert variogram(model, g, 1.0, alpha_ref=0.3) == pytest.approx(
        variogram(model, g, 1.0, alpha_ref=-0.8), rel=1e-12
    )
    with pytest.raises(GridError, match="arity"):
        variogram(model, g, 1.0)  # missing alpha_ref for a 2-input model


def test_local_square_deviation_linear_closed_form():
    # M = a*x + alpha with the statistic alpha-matched: the expected half
    # squared deviation is a^2 sigma_ell^2 / 2 (truncation at 6 sigma is
    # negligible at 1e-6).
    grid = make_grid(GridSpec((
        Dim("x", -3.0, 3.0, 1200), Dim("alpha", -1, 1, 11, "alpha"),
    )))
    model = parse_expression("4*x + a", ["x", "a"])
    sc = MeasurementScenario([123.0], 0.5, 0.25)
    (got,) = local_square_deviation(model, grid, sc)
    assert got == pytest.approx(16 * 0.5**2 / 2, rel=1e-3)


def test_local_square_deviation_matches_brute_force():
    grid = make_grid(GridSpec((
        Dim("x", -2.0, 2.0, 60), Dim("alpha", -1, 1, 15, "alpha"),
    )))
    model = builtin("ipsa2d")
    sc = MeasurementScenario([1.0], 0.4, 0.3)
    (got,) = local_square_deviation(model, grid, sc)
    # Independent loop over all grid cells.
    from vuprop import gaussian_on_grid

    p = gaussian_on_grid(grid, (0.0, 0.0), (0.4, 0.3))
    acc = 0.0
    for j in range(grid.size):
        x, a = grid.nodes[j]
        acc += p.values[j] * (model(1.0 + x, a) - model(1.0, a)) ** 2 / 2
    assert got == pytest.approx(acc, rel=1e-10)


def test_local_square_deviation_leaves_grid_axes_alone():
    # With one x node, the model "a" returns the alpha axis itself at full
    # size: squaring in place there would overwrite the grid.
    grid = make_grid(GridSpec((Dim("x", -1, 1, 1), Dim("a", -1, 1, 5, "alpha"))))
    axes = [a.copy() for a in grid.axes]
    sc = MeasurementScenario(np.array([0.3]), 0.4, 0.25)
    assert local_square_deviation(parse_expression("a", ["x", "a"]), grid, sc).tolist() == [0.0]
    assert all(np.array_equal(a, b) for a, b in zip(axes, grid.axes))


def test_local_square_deviation_is_per_location():
    # Each entry is its own location's value, whatever the others are.
    grid = make_grid(GridSpec((Dim("x", -1.5, 1.5, 31), Dim("a", -1, 1, 5, "alpha"))))
    model = builtin("ipsa2d")
    sc = MeasurementScenario([99.0, 3.0, -0.5], 0.5, 0.25)
    alone = [local_square_deviation(model, grid, sc.at(ell))[0] for ell in sc.locations]
    assert local_square_deviation(model, grid, sc).tolist() == alone
    assert len(set(alone)) == 3


def test_local_square_deviation_names_the_location_whose_square_overflows():
    # Beyond x = 1 the deviations are 1e200 times larger: finite, but their
    # squares are not, at the location 3.0 only.
    grid = make_grid(GridSpec((Dim("x", -1.6, 1.6, 32), Dim("a", -1, 1, 5, "alpha"))))
    model = ModelFunction("steep", 2, lambda x, a: np.where(x > 1.0, 1e200, 1.0) * x + a)
    sc = MeasurementScenario([-1.0, 3.0], 0.4, 0.25)
    assert np.isfinite(local_square_deviation(model, grid, sc.at(-1.0))).all()
    with pytest.raises(EvaluationError, match=r"'steep': squared deviation overflows at ell=3\.0$"):
        local_square_deviation(model, grid, sc)


def test_variogram_requires_1d_grid():
    g = make_grid(GridSpec((Dim("x", 0, 1, 4), Dim("a", 0, 1, 4, "alpha"))))
    with pytest.raises(GridError):
        variogram(parse_expression("x", ["x"]), g, 0.1)


# --- one-sweep quadratures against their per-call fsum forms -----------------

def _local_square_deviation_fsum(model, ell, scenario, grid):
    """Reference quadrature: the full Gaussian vector, both model sweeps on
    all N nodes, and an exact fsum over N."""
    xd = grid.spec.x_index()
    sigma = scenario_sigma(grid, scenario)
    p = gaussian_on_grid(grid, np.zeros(grid.ndim), sigma)
    shifted = [grid.nodes[:, d] + ell if d == xd else grid.nodes[:, d] for d in range(grid.ndim)]
    ref = [np.full(grid.size, ell) if d == xd else grid.nodes[:, d] for d in range(grid.ndim)]
    sq = (np.broadcast_to(model.raw(*shifted), (grid.size,))
          - np.broadcast_to(model.raw(*ref), (grid.size,))) ** 2
    return math.fsum(p.values * sq / 2.0)


_LAYOUTS = {
    "1-D": ((Dim("x", -1.6, 1.6, 301),), "x^3 - 2*x + sin(5*x)"),
    "x-first": ((Dim("x", -1.2, 1.2, 41), Dim("a", -1, 1, 7, "alpha"),
                 Dim("b", 0, 2, 5, "alpha")), "sin(3*x)*exp(a) + x^2*b + a*b"),
    "x-middle": ((Dim("a", -1, 1, 7, "alpha"), Dim("x", -1.2, 1.2, 41),
                  Dim("b", 0, 2, 5, "alpha")), "sin(3*x)*exp(a) + x^2*b + a*b"),
    "x-last": ((Dim("a", -1, 1, 7, "alpha"), Dim("b", 0, 2, 5, "alpha"),
                Dim("x", -1.2, 1.2, 41)), "sin(3*x)*exp(a) + x^2*b + a*b"),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_local_square_deviation_matches_fsum_quadrature(layout):
    dims, text = _LAYOUTS[layout]
    grid = make_grid(GridSpec(dims))
    model = parse_expression(text, [d.name for d in dims])
    sc = MeasurementScenario([-2.3, 0.0, 0.7, 1.9], 0.3, 0.6)
    got = local_square_deviation(model, grid, sc)
    want = [_local_square_deviation_fsum(model, ell, sc, grid) for ell in sc.locations]
    assert got.shape == (4,)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def _gamma_fsum(model, ell_grid, v, alpha_ref):
    """Reference per-scale variogram: two model calls and one fsum per v."""
    ell = ell_grid.axes[0]
    ell = ell[ell + v <= ell_grid.spec.dims[0].upper]
    alpha = [np.full_like(ell, a) for a in np.atleast_1d(alpha_ref)] if alpha_ref is not None else []
    sq = (model.raw(ell + v, *alpha) - model.raw(ell, *alpha)) ** 2
    return math.fsum(np.broadcast_to(sq, ell.shape)) / (2.0 * ell.size)


@pytest.mark.parametrize("model, alpha_ref", [
    (builtin("ipsa2d"), 0.3),
    (parse_expression("x^3 - 4*sin(x)", ["x"]), None),
    (parse_expression("7", ["x"]), None),
])
def test_integrated_variogram_gamma_is_bitwise_per_scale(model, alpha_ref):
    g = _ell_grid(0, 10, 333)
    res = integrated_variogram(model, g, V=9.9, v_count=97, alpha_ref=alpha_ref)
    per_scale = [variogram(model, g, v, alpha_ref) for v in res.v_grid]
    oracle = [_gamma_fsum(model, g, v, alpha_ref) for v in res.v_grid]
    assert np.array_equal(res.gamma, per_scale)
    assert np.array_equal(res.gamma, oracle)


# --- blocks of scale rows: the same gamma at every block size ---------------

# 333 locations: one-row blocks, three-row blocks ending in a partial one of
# two rows (197 = 65 * 3 + 2), and the default's 98-row blocks ending in one
# of a single row.
_BLOCK_CELLS = [333, 3 * 333, variogram_module._CELLS]


@pytest.mark.parametrize("cells", _BLOCK_CELLS)
@pytest.mark.parametrize("model, alpha_ref", [
    (builtin("ipsa2d"), 0.3),
    (parse_expression("x^3 - 4*sin(x)", ["x"]), None),
])
def test_gamma_is_bitwise_at_every_block_size(monkeypatch, cells, model, alpha_ref):
    monkeypatch.setattr(variogram_module, "_CELLS", cells)
    g = _ell_grid(0, 10, 333)
    res = integrated_variogram(model, g, V=9.9, v_count=197, alpha_ref=alpha_ref)
    oracle = [_gamma_fsum(model, g, v, alpha_ref) for v in res.v_grid]
    assert np.array_equal(res.gamma, oracle)
    assert np.array_equal(res.gamma, [variogram(model, g, v, alpha_ref) for v in res.v_grid])


@pytest.mark.parametrize("cells", _BLOCK_CELLS)
def test_generalized_expectation_counts_every_weighted_pair(monkeypatch, cells):
    # Weights on pairs beyond the grid count too: the blocks run unbounded.
    monkeypatch.setattr(variogram_module, "_CELLS", cells)
    g = _ell_grid(0, 10, 333)
    model = parse_expression("x^3 - 4*sin(x)", ["x"])
    v_nodes = np.linspace(0.0, 12.0, 197)
    weights = np.random.default_rng(5).random((197, 333))
    weights[::4] = 0.0
    weights /= weights.sum()
    ell = g.axes[0]
    sq = (model.raw(ell[None, :] + v_nodes[:, None]) - model.raw(ell)) ** 2
    want = math.fsum((weights * sq / 2.0).ravel())
    assert generalized_expectation(model, g, v_nodes, weights) == want


def _model(name, fn):
    return ModelFunction(name, 1, fn)


@pytest.mark.parametrize("cells", _BLOCK_CELLS)
def test_model_non_finite_only_beyond_the_grid_is_accepted(monkeypatch, cells):
    # nan for x > 10: pairs ell + v beyond the grid, evaluated inside a block
    # of rows wider than their own valid prefix, but masked out.
    monkeypatch.setattr(variogram_module, "_CELLS", cells)
    g = _ell_grid(0, 10, 333)
    model = _model("edge", lambda x: np.where(x <= 10.0, x * x, np.nan))
    res = integrated_variogram(model, g, V=9.9, v_count=197)
    assert np.isfinite(res.gamma).all()
    assert np.array_equal(res.gamma, [_gamma_fsum(model, g, v, None) for v in res.v_grid])


@pytest.mark.parametrize("cells", _BLOCK_CELLS)
def test_in_grid_non_finite_and_overflow_keep_their_messages(monkeypatch, cells):
    monkeypatch.setattr(variogram_module, "_CELLS", cells)
    g = _ell_grid(0, 10, 333)
    node = g.axes[0][330]  # 9.925...: a valid location for v <= 0.075 only
    with pytest.raises(EvaluationError, match=r"at scale v = 0\.0251.* sum to nan"):
        integrated_variogram(_model("hole", lambda x: np.where(x == node, np.nan, x)),
                             g, V=9.9, v_count=197)
    # Each (1e153 v)^2 is finite, but their sum overflows from v = 0.779 on.
    # The nan rows (v = 0.025 and 0.075) come first, in earlier blocks when
    # blocks are small, and overflow is still the error; alone, they give the
    # nan message.
    steep = _model("steep", lambda x: np.where(x == node, np.nan, 1e153 * x))
    with pytest.raises(EvaluationError, match="squared differences overflow"):
        integrated_variogram(steep, g, V=9.9, v_count=197)
    with pytest.raises(EvaluationError, match=r"at scale v = 0\.025 sum to nan"):
        integrated_variogram(steep, g, V=0.1, v_count=2)


def test_integrated_variogram_memory_does_not_grow_with_v_count():
    g = _ell_grid(-4.0, 4.0, 1000)
    model = parse_expression("x^2 + 5*sin(3*x) + a", ["x", "a"])
    peaks = []
    for v_count in (200, 2000):
        integrated_variogram(model, g, V=4.0, v_count=v_count, alpha_ref=[0.0])
        tracemalloc.start()
        try:
            integrated_variogram(model, g, V=4.0, v_count=v_count, alpha_ref=[0.0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # A few scale-long arrays grow with v_count (about 80 bytes a scale
    # here), nothing with v_count * n_ell: one (v_count, n_ell) float array
    # would add 8,000 bytes a scale.
    assert peaks[1] - peaks[0] <= 100 * 1800, peaks


# --- _row_fsums: the vectorised sum behind gamma, against math.fsum ----------

def _fsum_rows(x, valid):
    return np.array([math.fsum(row[ok]) for row, ok in zip(x, valid)])


def _assert_bitwise_fsum(x, valid):
    try:
        want = _fsum_rows(x, valid)
    except OverflowError:
        with pytest.raises(OverflowError):
            _row_fsums(x, valid)
        return
    got = _row_fsums(x, valid)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1000, 2.0**-53, 2.0**-54,
            1.0, -1.0, 3.0, 1e300, -1e300, 2.0**1000]


@st.composite
def _rows(draw):
    """Rows of one width, with a mask: arbitrary finite values (ties,
    subnormals and huge exponents mixed in), and cancelling rows that hold
    each value and its negation, shuffled, plus one term when n is odd."""
    n = draw(st.integers(1, 40))
    count = draw(st.integers(1, 4))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_SPECIAL),
                       st.floats(-1e-300, 1e-300),
                       st.floats(-1e3, 1e3))
    rows = []
    for _ in range(count):
        if draw(st.booleans()):
            half = draw(st.lists(values, min_size=n // 2, max_size=n // 2))
            extra = draw(st.lists(values, min_size=n - 2 * (n // 2), max_size=n - 2 * (n // 2)))
            row = draw(st.permutations(half + [-v for v in half] + extra))
        else:
            row = draw(st.lists(values, min_size=n, max_size=n))
        rows.append(row)
    valid = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                          min_size=count, max_size=count))
    return np.array(rows, float), np.array(valid, bool)


@given(_rows())
@example((np.array([[1.0, 2.0**-54, 2.0**-54]]), np.ones((1, 3), bool)))  # a tie
@example((np.array([[5e-324, 5e-324, 2.0**-1070], [-0.0, -0.0, -0.0]]),
          np.ones((2, 3), bool)))
@example((np.array([[3.5], [2.0]]), np.array([[True], [False]])))
@settings(deadline=None, max_examples=150)
def test_row_fsums_is_bitwise_fsum(case):
    _assert_bitwise_fsum(*case)


def test_row_fsums_bitwise_on_wide_rows():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 127, 128, 129, 1000, 1024, 1200):
        x = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-300, 300, (6, 1))
        x[1] = rng.standard_normal(n) ** 2
        x[2] = np.abs(x[2]) * 2.0**-1070  # subnormal terms
        x[3] = -0.0
        valid = rng.random((6, n)) < 0.8
        _assert_bitwise_fsum(x, valid)
        _assert_bitwise_fsum(x, np.ones_like(valid))


def _counting_fsum(monkeypatch):
    calls = []
    fsum = math.fsum

    def counted(values):
        calls.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    return calls


def test_row_fsums_tie_rows_take_the_fallback(monkeypatch):
    # 1 + 2^-53 lies halfway between 1 and its successor: fsum rounds to even.
    # In the second row 2^-106 breaks the tie upward, and the tree's own
    # result 1.0 would be one ulp off.
    x = np.array([[1.0, 2.0**-54, 2.0**-54, 0.0],
                  [1.0, 2.0**-53, 2.0**-106, 0.0],
                  [1.0, 2.0**-20, 3.0, 0.5]])
    valid = np.ones(x.shape, bool)
    want = _fsum_rows(x, valid)
    assert want.tolist() == [1.0, 1.0 + 2.0**-52, 4.5 + 2.0**-20]
    calls = _counting_fsum(monkeypatch)
    assert _row_fsums(x, valid).tolist() == want.tolist()
    assert calls == [4, 4]


# Near ties that hi + err puts on the wrong side by the rounding of err
# alone, found by searching random rows of near-tie terms. Without the bound
# B the first two, and without the smaller gap below a power of two the
# third, would come out one double away from fsum.
_ERR_ROUNDING_ROWS = [
    [-6.84227765783602e-49, 4.6222318665293654e-33, -31.999999999999996,
     -1.0263416486754031e-48, 5.551115123125782e-17, 31.999999999999996,
     6.933347799794049e-33, 4.6222318665293674e-33, 1.232595164407831e-32],
    [-1.1102230246251565e-16, 1.3866695599588098e-32, -1.6653345369377348e-16,
     -1.0263416486754031e-48, 1.5, 5.551115123125782e-17, 1.1102230246251562e-16,
     9.244463733058732e-33, 1.8488927466117464e-32],
    [5.551115123125784e-17, -1.2325951644078308e-32, -9.244463733058732e-33,
     -6.842277657836021e-49, -1.6653345369377348e-16, -0.9999999999999999,
     5.551115123125784e-17],
]


@pytest.mark.parametrize("row", _ERR_ROUNDING_ROWS)
def test_row_fsums_bound_catches_rounding_in_err(monkeypatch, row):
    x = np.array([row])
    valid = np.ones(x.shape, bool)
    want = _fsum_rows(x, valid)
    calls = _counting_fsum(monkeypatch)
    assert _row_fsums(x, valid).tolist() == want.tolist()
    assert calls == [len(row)]


def test_row_fsums_overflow_raises_like_fsum():
    # fsum raises on an intermediate overflow, even where the total is finite.
    for row in ([1e308, 1e308], [1e308, 1e308, -1e308], [0.0, 1e308, 1e308, -1e308]):
        x = np.array([row, [1.0] * len(row)])
        with pytest.raises(OverflowError):
            math.fsum(x[0])
        with pytest.raises(OverflowError):
            _row_fsums(x, np.ones(x.shape, bool))



def test_row_fsums_rows_near_overflow_take_the_fallback(monkeypatch):
    x = np.array([[0.75 * 2.0**1023, 0.75 * 2.0**1023], [1.0, 2.0]])
    calls = _counting_fsum(monkeypatch)
    assert _row_fsums(x, np.ones(x.shape, bool)).tolist() == [1.5 * 2.0**1023, 3.0]
    assert calls == [2]


def test_vars_gamma_rows_need_no_fallback(monkeypatch):
    # The perfbench vars-local rows: every one is proven by the certificate.
    g = _ell_grid(-4.0, 4.0, 1000)
    model = parse_expression("x^2 + 5*sin(3*x) + a", ["x", "a"])
    calls = _counting_fsum(monkeypatch)
    for frac in (0.1, 0.3, 0.5):
        integrated_variogram(model, g, V=8.0 * frac, v_count=200, alpha_ref=[0.0])
    assert len(calls) == 3  # the Gamma fsum of each scale, over its 200 gammas
