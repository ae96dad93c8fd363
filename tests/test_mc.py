import math

import numpy as np
import pytest

from vuprop import (
    Dim,
    GridSpec,
    McConfig,
    MeasurementScenario,
    OutputBinning,
    builtin,
    gaussian_sampler,
    make_grid,
    matrix_from_model,
    mc_propagate,
    mc_propagate_many,
    parse_expression,
    propagate_many,
    scenario_matrix,
)
from vuprop.mc import draw_samples, location_seed
from vuprop.errors import DegenerateDistributionError, GridError


def _grid2d():
    return make_grid(GridSpec((Dim("x", -4, 4, 40), Dim("a", -1, 1, 20, "alpha"))))


def test_samples_reproducible_and_inside_bounds():
    g = _grid2d()
    s = gaussian_sampler(g, (0.0, 0.0), (1.0, 0.4))
    a = draw_samples(s, 5000, seed=42)
    b = draw_samples(s, 5000, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (5000, 2)
    assert np.all((a[:, 0] >= -4) & (a[:, 0] <= 4))
    assert np.all((a[:, 1] >= -1) & (a[:, 1] <= 1))
    c = draw_samples(s, 5000, seed=43)
    assert not np.array_equal(a, c)


def test_gaussian_sample_moments():
    g = make_grid(GridSpec((Dim("x", -50, 50, 10),)))
    s = gaussian_sampler(g, 1.0, 2.0)
    x = draw_samples(s, 200_000, seed=1)[:, 0]
    # Effectively untruncated at +-25 sigma-equivalents.
    assert x.mean() == pytest.approx(1.0, abs=0.02)
    assert x.std() == pytest.approx(2.0, abs=0.02)


def _draw_in_chunks(sampler, n, seed):
    """Truncated-Gaussian rejection as one list of per-batch chunks, the
    accepted rows concatenated and cut to n: the reference for the Philox
    stream and the samples of draw_samples."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo, hi = np.array(sampler.bounds).T
    chunks, n_accepted = [], 0
    while n_accepted < n:
        need = n - n_accepted
        batch = max(need + need // 16 + 1000, 10_000)
        cols = [rng.standard_normal(batch) * sampler.sigma[d] + sampler.mean[d]
                for d in range(sampler.ndim)]
        keep = np.logical_and.reduce([(c >= lo[d]) & (c <= hi[d]) for d, c in enumerate(cols)])
        chunks.append(np.column_stack([c[keep] for c in cols]))
        n_accepted += chunks[-1].shape[0]
    return np.concatenate(chunks)[:n]


@pytest.mark.parametrize("mean, batches", [(0.0, 1), (3.7, 2)])
def test_gaussian_draws_are_the_chunked_rejection_bit_for_bit(mean, batches):
    # sigma 0.4 on [-4, 4]: about 77 % of the proposals at mean 3.7 are
    # inside, too few for one batch of n + n/16 + 1000.
    g = _grid2d()
    s = gaussian_sampler(g, (mean, 0.0), (0.4, 0.3))
    n = 50_000
    p_inside = 0.5 * (1 + math.erf((4 - mean) / (0.4 * math.sqrt(2))))
    assert (p_inside * (n + n // 16 + 1000) < n) == (batches == 2)
    for seed in ((5, 0), (5, 3)):
        got = draw_samples(s, n, seed)
        assert got.shape == (n, 2)
        assert np.array_equal(got, _draw_in_chunks(s, n, seed))


def test_rejection_budget_exhausted():
    g = make_grid(GridSpec((Dim("x", 0, 1, 5),)))
    s = gaussian_sampler(g, 1e6, 1e-3)  # essentially zero acceptance
    with pytest.raises(DegenerateDistributionError, match="budget"):
        draw_samples(s, 100, seed=0)


def test_mc_propagate_normalized_own_range():
    g = _grid2d()
    probs, binning = mc_propagate(
        builtin("bench2d"),
        gaussian_sampler(g, (0.0, 0.0), (1.0, 0.4)),
        McConfig(50_000, 30, seed=7),
    )
    assert probs.shape == (30,)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    assert binning.K == 30


def test_mc_delta_all_in_one_bin():
    g = make_grid(GridSpec((Dim("x", -4, 4, 8),)))
    probs, binning = mc_propagate(
        parse_expression("0*x + 1.5", ["x"]), gaussian_sampler(g, 0.0, 1.0),
        McConfig(1000, 10, seed=0)
    )
    assert binning.K == 1  # constant output collapses the range
    assert probs.tolist() == [1.0]


def test_mc_matches_matrix_propagation():
    # TVD between MC (1e5 samples) and the matrix route on a shared binning.
    g = make_grid(GridSpec((Dim("x", -4, 4, 120), Dim("a", -1, 1, 40, "alpha"))))
    model = builtin("ipsa2d")
    m = matrix_from_model(model, g, 40)
    sc = MeasurementScenario([0.5], 0.6, 0.3)
    exact = propagate_many(m, scenario_matrix(g, sc)).values[:, 0]
    probs, _ = mc_propagate(
        model,
        gaussian_sampler(g, (0.5, 0.0), (0.6, 0.3)),
        McConfig(100_000, 40, seed=11, binning=m.binning),
    )
    tvd = 0.5 * np.abs(probs - exact).sum()
    assert tvd < 0.03


def test_mc_many_needs_fixed_binning():
    g = _grid2d()
    sc = MeasurementScenario([0.0, 1.0], 0.5, 0.25)
    with pytest.raises(GridError, match="fixed"):
        mc_propagate_many(builtin("bench2d"), sc, McConfig(100, 10, seed=0), g)


def test_mc_many_columns_independent_seeds():
    g = _grid2d()
    sc = MeasurementScenario([0.0, 0.0], 0.5, 0.25)  # identical locations
    binning = OutputBinning(15, -2.0, 9.0)
    out = mc_propagate_many(
        builtin("bench2d"), sc, McConfig(5000, 15, seed=9, binning=binning), g
    )
    assert out.values.shape == (15, 2)
    # Same location but different per-column streams, keyed (seed, index).
    assert not np.array_equal(out.values[:, 0], out.values[:, 1])
    # Column 0 reproduces a standalone run with the same seed.
    solo, _ = mc_propagate(
        builtin("bench2d"),
        gaussian_sampler(g, (0.0, 0.0), (0.5, 0.25)),
        McConfig(5000, 15, seed=9, binning=binning),
    )
    assert np.array_equal(out.values[:, 0], solo)


def test_mc_many_reports_the_mass_clamped_at_each_edge():
    # y = x on a binning of [-1, 2]: column i's mass below and above it is
    # its share of samples with x < -1 and x > 2, counted from the same draws.
    g = _grid2d()
    sc = MeasurementScenario([-1.5, 0.5, 2.5], 0.8, 0.25)
    binning = OutputBinning(6, -1.0, 2.0)
    out = mc_propagate_many(parse_expression("x + 0*a", ["x", "a"]), sc,
                            McConfig(4000, 6, seed=2, binning=binning), g)
    for i, ell in enumerate(sc.locations):
        x = draw_samples(gaussian_sampler(g, (ell, 0.0), (0.8, 0.25)), 4000,
                         location_seed(2, i))[:, 0]
        assert out.clamped[:, i].tolist() == [np.count_nonzero(x < -1.0) / 4000,
                                              np.count_nonzero(x > 2.0) / 4000]
    assert out.clamped[0, 0] > 0.5 and out.clamped[1, 2] > 0.5
    assert out.values[0, 0] >= out.clamped[0, 0] and out.values[-1, 2] >= out.clamped[1, 2]
    inside = mc_propagate_many(parse_expression("x + 0*a", ["x", "a"]), sc,
                               McConfig(4000, 6, seed=2, binning=OutputBinning(6, -4, 4)), g)
    assert not inside.clamped.any()


def test_mc_many_streams_distinct_across_seeds():
    # Under the old seed ^ index keys, column 1 at seed 0 and column 0 at
    # seed 1 drew the same stream.
    g = _grid2d()
    binning = OutputBinning(15, -2.0, 9.0)
    model = builtin("bench2d")

    def run(seed, locations):
        sc = MeasurementScenario(locations, 0.5, 0.25)
        return mc_propagate_many(model, sc, McConfig(5000, 15, seed=seed, binning=binning), g)

    seed0 = run(0, [0.0, 0.0]).values
    seed1 = run(1, [0.0]).values
    assert not np.array_equal(seed0[:, 1], seed1[:, 0])
    assert location_seed(0, 1) != location_seed(1, 0)
    sampler = gaussian_sampler(g, (0.0, 0.0), (0.5, 0.25))
    assert not np.array_equal(draw_samples(sampler, 100, location_seed(0, 1)),
                              draw_samples(sampler, 100, location_seed(1, 0)))


def test_mc_config_validation():
    with pytest.raises(GridError):
        McConfig(0, 10)
    with pytest.raises(GridError):
        McConfig(10, 0)
