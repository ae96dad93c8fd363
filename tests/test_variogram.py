import math

import numpy as np
import pytest

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
from vuprop.errors import GridError


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
    sc = MeasurementScenario([0.0], 0.5, 0.25)
    got = local_square_deviation(model, 123.0, sc, grid)
    assert got == pytest.approx(16 * 0.5**2 / 2, rel=1e-3)


def test_local_square_deviation_matches_brute_force():
    grid = make_grid(GridSpec((
        Dim("x", -2.0, 2.0, 60), Dim("alpha", -1, 1, 15, "alpha"),
    )))
    model = builtin("ipsa2d")
    sc = MeasurementScenario([1.0], 0.4, 0.3)
    got = local_square_deviation(model, 1.0, sc, grid)
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
    assert local_square_deviation(parse_expression("a", ["x", "a"]), 0.3, sc, grid) == 0.0
    assert all(np.array_equal(a, b) for a, b in zip(axes, grid.axes))


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
    sc = MeasurementScenario([0.0], 0.3, 0.6)
    for ell in (-2.3, 0.0, 0.7, 1.9):
        got = local_square_deviation(model, ell, sc, grid)
        want = _local_square_deviation_fsum(model, ell, sc, grid)
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
