import math

import numpy as np
import pytest

from vuprop import (
    Dim,
    GridSpec,
    MeasurementScenario,
    gaussian_on_grid,
    make_grid,
    scenario_matrix,
)
from vuprop.distributions import (
    SUM_TOL,
    ProbabilityVector,
    _normalize,
    deviation_grid,
    scenario_factors,
)
from vuprop.errors import DegenerateDistributionError, GridError


def _grid_1d(lower=-5.0, upper=5.0, count=101):
    return make_grid(GridSpec((Dim("x", lower, upper, count),)))


def test_gaussian_sums_to_one():
    g = _grid_1d()
    p = gaussian_on_grid(g, 0.0, 1.0)
    assert abs(math.fsum(p.values) - 1.0) <= SUM_TOL
    assert (p.values >= 0).all()


def test_gaussian_symmetric_is_palindromic():
    # Centered mean on a symmetric grid: exact mirror symmetry, bit for bit.
    g = _grid_1d(count=101)
    p = gaussian_on_grid(g, 0.0, 0.7)
    assert np.array_equal(p.values, p.values[::-1])


def test_gaussian_mode_at_mean():
    g = _grid_1d()
    p = gaussian_on_grid(g, 1.3, 0.5)
    node = g.nodes[np.argmax(p.values), 0]
    assert abs(node - 1.3) <= g.spec.dims[0].step


def test_gaussian_huge_sigma_near_uniform():
    g = _grid_1d(count=50)
    p = gaussian_on_grid(g, 0.0, 1e6)
    ratio = p.values.max() / p.values.min()
    assert ratio < 1 + 1e-9


def test_gaussian_truncated_at_edge_renormalizes():
    # Mean sits on the boundary: half the mass is cut, rest renormalized.
    g = _grid_1d(0.0, 5.0, 100)
    p = gaussian_on_grid(g, 0.0, 1.0)
    assert abs(math.fsum(p.values) - 1.0) <= SUM_TOL
    assert np.argmax(p.values) == 0


def test_gaussian_no_mass_raises():
    g = _grid_1d(0.0, 1.0, 10)
    with pytest.raises(DegenerateDistributionError, match="mean"):
        gaussian_on_grid(g, 1e6, 1e-3)


def test_gaussian_2d_is_separable_product():
    g = make_grid(GridSpec((Dim("x", -2, 2, 7), Dim("a", -1, 1, 5, "alpha"))))
    p = gaussian_on_grid(g, (0.3, -0.1), (0.8, 0.4))
    gx = gaussian_on_grid(make_grid(GridSpec((Dim("x", -2, 2, 7),))), 0.3, 0.8)
    ga = gaussian_on_grid(make_grid(GridSpec((Dim("a", -1, 1, 5, "alpha"),))), -0.1, 0.4)
    outer = np.outer(gx.values, ga.values).ravel()
    assert np.allclose(p.values, outer, rtol=1e-13, atol=0)


def test_gaussian_validation():
    g = _grid_1d()
    with pytest.raises(GridError):
        gaussian_on_grid(g, (0.0, 0.0), 1.0)
    with pytest.raises(GridError):
        gaussian_on_grid(g, 0.0, -1.0)


def test_scenario_validation():
    with pytest.raises(GridError):
        MeasurementScenario([], 0.5, 0.25)
    with pytest.raises(GridError):
        MeasurementScenario([0.0], 0.0, 0.25)
    with pytest.raises(GridError):
        MeasurementScenario([0.0, 1.0], 0.5, 0.25, weights=[0.9, 0.2])
    s = MeasurementScenario([0.0, 1.0], 0.5, 0.25)
    assert np.allclose(s.location_weights(), [0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scenario_rejects_non_finite_locations(bad):
    with pytest.raises(GridError, match=rf"location {bad!r} \(index 1\) is not finite"):
        MeasurementScenario([0.5, bad, np.nan], 0.3, 0.2)


def test_scenario_matrix_absolute_columns():
    g = make_grid(GridSpec((Dim("x", -5, 5, 50), Dim("a", -1, 1, 20, "alpha"))))
    sc = MeasurementScenario([-1.0, 0.0, 2.0], 0.5, 0.25)
    P = scenario_matrix(g, sc)
    assert P.columns.shape == (1000, 3)
    for i, ell in enumerate(sc.locations):
        ref = gaussian_on_grid(g, (ell, 0.0), (0.5, 0.25))
        # Same values up to summation-order rounding in the normalizer.
        assert np.allclose(P.columns[:, i], ref.values, rtol=1e-13, atol=0)
        assert abs(math.fsum(P.columns[:, i]) - 1.0) <= SUM_TOL


def test_scenario_matrix_many_columns_all_normalized():
    g = make_grid(GridSpec((Dim("x", -10, 10, 200), Dim("a", -1, 1, 20, "alpha"))))
    sc = MeasurementScenario(np.linspace(-8, 8, 1000), 0.5, 0.25)
    P = scenario_matrix(g, sc)
    sums = [math.fsum(P.columns[:, i]) for i in range(P.n_locations)]
    assert max(abs(s - 1.0) for s in sums) <= SUM_TOL


def test_scenario_matrix_rejects_bad_grid():
    g = make_grid(GridSpec((Dim("x", 0, 1, 3), Dim("y", 0, 1, 3))))
    with pytest.raises(GridError, match="one x dimension"):
        scenario_matrix(g, MeasurementScenario([0.5], 0.1, 0.1))


@pytest.mark.parametrize("dims", [
    (Dim("x", -5, 5, 50), Dim("a", -1, 1, 20, "alpha")),
    (Dim("a", -1, 1, 20, "alpha"), Dim("x", -5, 5, 50)),
])
def test_scenario_factors_on_given_x_nodes(dims):
    g = make_grid(GridSpec(dims))
    sc = MeasurementScenario([-1.0, 0.0, 2.0], 0.5, 0.25)
    xd = g.spec.x_index()
    default = scenario_factors(g, sc)
    # The grid's own axis on every row: the default factors, bit for bit.
    f = scenario_factors(g, sc, np.tile(g.axes[xd], (3, 1)))
    assert np.array_equal(f.x_block, default.x_block)
    assert np.array_equal(f.pre, default.pre) and np.array_equal(f.post, default.post)
    # Row i on its own nodes: location i alone on those nodes.
    x_nodes = np.stack([np.linspace(ell - 1.0, ell + 1.0, 50) for ell in sc.locations])
    f = scenario_factors(g, sc, x_nodes)
    for i, ell in enumerate(sc.locations):
        one = scenario_factors(g, sc.at(ell), x_nodes[i:i + 1])
        assert np.array_equal(f.x_block[i], one.x_block[0])
        assert abs(math.fsum(f.column(i)) - 1.0) <= SUM_TOL
        out = np.empty(g.size)  # the same column, written into a given array
        assert np.array_equal(f.column(i, out), f.column(i)) and np.array_equal(out, f.column(i))
    for shape in ((2, 50), (3, 49), (50, 3), (3, 50, 1), (50,), (150,)):
        with pytest.raises(GridError, match="x_nodes has shape"):
            scenario_factors(g, sc, np.zeros(shape))


def test_scenario_at_one_location():
    g = make_grid(GridSpec((Dim("x", -2, 2, 40), Dim("a", -1, 1, 20, "alpha"))))
    sc = MeasurementScenario([-1.0, 1.5], 0.5, 0.25, weights=[0.3, 0.7])
    one = sc.at(0.0)
    assert one.locations.tolist() == [0.0] and one.weights is None
    assert (one.sigma_ell, one.sigma_alpha) == (0.5, 0.25)
    col = scenario_factors(g, one).column(0)
    ref = gaussian_on_grid(g, (0.0, 0.0), (0.5, 0.25)).values
    assert np.allclose(col, ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("xd", [0, 1, 2])
def test_deviation_grid_replaces_only_x(xd):
    alphas = [Dim("a", -1.0, 1.0, 5, "alpha"), Dim("b", 0.0, 3.0, 4, "alpha")]
    x = Dim("ell", 2.0, 9.0, 7, "x")
    dims = alphas[:xd] + [x] + alphas[xd:]
    dev = deviation_grid(make_grid(GridSpec(tuple(dims))), MeasurementScenario([5.0], 0.3, 0.2))
    others = [d for i, d in enumerate(dev.spec.dims) if i != xd]
    assert len(others) == 2 and all(d is a for d, a in zip(others, alphas))
    assert dev.spec.dims[xd] == Dim("ell", -4 * 0.3, 4 * 0.3, 7, "x")


@pytest.mark.parametrize("roles", [("alpha", "alpha"), ("x", "x")])
def test_deviation_grid_needs_one_x_dimension(roles):
    grid = make_grid(GridSpec((Dim("a", -1.0, 1.0, 3, roles[0]), Dim("b", -1.0, 1.0, 3, roles[1]))))
    with pytest.raises(GridError, match="exactly one x dimension"):
        deviation_grid(grid, MeasurementScenario([0.0], 0.3, 0.2))


def test_normalize_is_idempotent():
    rng = np.random.default_rng(7)
    v = _normalize(rng.random(1000))
    again = _normalize(v)
    assert np.allclose(again, v, rtol=1e-15, atol=0)


def test_probability_vector_checks():
    g = _grid_1d(0, 1, 4)
    with pytest.raises(GridError):
        ProbabilityVector(np.ones(3), g)


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan]])
def test_scenario_rejects_nan_weights(weights):
    with pytest.raises(GridError, match="weights must be non-negative and sum to 1"):
        MeasurementScenario([0.0, 1.0], 0.4, 0.25, weights=weights)
