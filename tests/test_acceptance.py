"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single machine-readable pass/fail line (bypassing
pytest capture) so the run log doubles as an acceptance report.
"""

import math
import sys
import time

import numpy as np
import pytest

from vuprop import (
    Dim,
    GridSpec,
    MeasurementScenario,
    Thresholds,
    assert_complexity,
    builtin,
    deviation_statistic_matrix,
    gaussian_on_grid,
    gaussian_sampler,
    generalized_expectation,
    integrated_variogram,
    invert,
    ivars_weights,
    local_square_deviation,
    make_grid,
    matrix_from_model,
    output_matrix,
    parse_expression,
    propagate,
    propagate_many,
    reference_curve,
    run_sweep,
    scenario_matrix,
    summarize,
    to_deviations,
    variogram,
    vars_weights,
)
from vuprop.distributions import ProbabilityVector
from vuprop.engine import reconstruct_prior
from vuprop.mc import draw_samples
from vuprop.models import builtin as builtin_model
from vuprop.variogram import VariogramResult  # noqa: F401  (re-exported type)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _report_capture(capfd):
    """Expose the capture handle so _report can write past pytest's
    file-descriptor capture; the report lines then reach the real stdout
    and show up in piped/teed run logs."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"acceptance {tag}: {name}{suffix}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _reference_setting():
    grid = make_grid(GridSpec((
        Dim("x", -5.0, 5.0, 100), Dim("alpha", -1.0, 1.0, 100, "alpha"),
    )))
    scenario = MeasurementScenario([1.0], 0.5, 0.25)
    return builtin("ipsa2d"), grid, scenario


def test_propagation_matches_literal_quadrature_oracle():
    """Matrix propagation agrees with an independent double-sum quadrature
    to 1e-12 per output bin, in under a second."""
    t0 = time.perf_counter()
    model, grid, scenario = _reference_setting()
    K = 200
    matrix = matrix_from_model(model, grid, K)
    column = gaussian_on_grid(grid, (1.0, 0.0), (0.5, 0.25))
    vup = propagate(matrix, column)

    # Oracle: literal loops, scalar math only; its own Gaussian weights,
    # its own output range and floor-rule binning.
    x_axis = grid.axes[0]
    a_axis = grid.axes[1]
    ys = []
    ws = []
    for x in x_axis:
        for a in a_axis:
            ys.append(x * x + 5 * math.sin(3 * x) + a)
            ws.append(
                math.exp(-0.5 * ((x - 1.0) / 0.5) ** 2)
                * math.exp(-0.5 * (a / 0.25) ** 2)
            )
    y_min, y_max = min(ys), max(ys)
    b = (y_max - y_min) / K
    total = math.fsum(ws)
    oracle = [0.0] * K
    for y, w in zip(ys, ws):
        k = min(int((y - y_min) // b), K - 1)
        oracle[k] += w / total
    elapsed = time.perf_counter() - t0

    err = float(np.abs(vup - np.array(oracle)).max())
    ok = err < 1e-12 and elapsed < 1.0
    _report("quadrature-oracle equivalence", ok,
            f"max bin error {err:.2e}, {elapsed:.2f} s")
    assert err < 1e-12
    assert elapsed < 1.0


def test_monte_carlo_agrees_with_matrix_propagation():
    """1e6-sample MC on the matrix's binning lands within 0.02 total
    variation distance, in under 30 seconds.

    The samples are snapped to the nearest grid cell before evaluation, so
    MC estimates the same cell-discretized distribution the matrix
    propagates; without the snap, the residual is the grid-discretization
    error rather than the MC error this test bounds."""
    t0 = time.perf_counter()
    model, grid, _ = _reference_setting()
    matrix = matrix_from_model(model, grid, 200)
    column = gaussian_on_grid(grid, (1.0, 0.0), (0.5, 0.25))
    vup = propagate(matrix, column)

    samples = draw_samples(
        gaussian_sampler(grid, (1.0, 0.0), (0.5, 0.25)), 1_000_000, seed=2024
    )
    snapped = []
    for d, dim in enumerate(grid.spec.dims):
        idx = np.clip(
            np.floor((samples[:, d] - dim.lower) / dim.step).astype(np.int64),
            0, dim.count - 1,
        )
        snapped.append(grid.axes[d][idx])
    y = model.raw(*snapped)
    mc = np.bincount(matrix.binning.assign(y), minlength=200) / samples.shape[0]
    elapsed = time.perf_counter() - t0
    tvd = 0.5 * float(np.abs(mc - vup).sum())
    ok = tvd < 0.02 and elapsed < 30.0
    _report("Monte Carlo agreement", ok, f"TVD {tvd:.4f}, {elapsed:.1f} s")
    assert tvd < 0.02
    assert elapsed < 30.0


def test_shared_matrix_is_sublinear_in_locations():
    """At N = 1e5, K = 500: reusing one matrix keeps the 100-location cost
    under 50x the single-location cost, while per-location MC scales
    linearly; the crossover happens by L = 20 and the L = 1 costs are
    within a factor of 5 of each other."""
    template = GridSpec((
        Dim("x", -5.0, 5.0, 20), Dim("alpha", -1.0, 1.0, 10, "alpha"),
    ))
    scenario = MeasurementScenario(np.linspace(-3.0, 3.0, 2), 0.5, 0.25)
    result = run_sweep(
        builtin("bench2d"), template, [100_000], [1, 2, 5, 10, 20, 100],
        scenario, K=500, repetitions=3, seed=0,
    )
    report = assert_complexity(result, Thresholds())
    detail = "; ".join(report.lines())
    _report("sublinear scaling in location count", report.passed, detail)
    assert report.passed, detail


def test_nonuniform_expectation_recovers_special_cases():
    """Uniform scale/location weights reproduce the integrated-variogram
    expectation and delta weights reproduce the plain variogram, both to
    1e-12 on shared grids."""
    ell_grid = make_grid(GridSpec((Dim("ell", 0.0, 10.0, 200),)))
    model = builtin("ipsa2d")
    V, v_count = 3.0, 50

    reference = integrated_variogram(model, ell_grid, V, v_count, alpha_ref=0.0)
    v_nodes, uniform_w = ivars_weights(ell_grid, V, v_count)
    got_uniform = generalized_expectation(model, ell_grid, v_nodes, uniform_w,
                                          alpha_ref=0.0)
    err_uniform = abs(got_uniform - reference.expectation)

    v_prime = float(v_nodes[31])
    delta_w = vars_weights(ell_grid, v_nodes, v_prime)
    got_delta = generalized_expectation(model, ell_grid, v_nodes, delta_w,
                                        alpha_ref=0.0)
    err_delta = abs(got_delta - variogram(model, ell_grid, v_prime, alpha_ref=0.0))

    ok = err_uniform < 1e-12 and err_delta < 1e-12
    _report("special-case recovery of (integrated) variogram", ok,
            f"uniform err {err_uniform:.2e}, delta err {err_delta:.2e}")
    assert err_uniform < 1e-12
    assert err_delta < 1e-12


def test_linear_model_analytic_variogram_values():
    """For M = a*ell: gamma(v) = a^2 v^2 / 2 and Gamma(V) = a^2 V^3 / 6
    within 1e-9 relative; the local expected square deviation equals
    a^2 sigma_ell^2 / 2 within 1e-4 relative on a +-6 sigma grid."""
    a = 3.0
    ell_grid = make_grid(GridSpec((Dim("ell", 0.0, 10.0, 500),)))
    model_1d = parse_expression("3*x", ["x"])

    gamma_errs = [
        abs(variogram(model_1d, ell_grid, v) / (a**2 * v**2 / 2) - 1.0)
        for v in (0.25, 1.0, 2.5)
    ]
    V = 2.0
    res = integrated_variogram(model_1d, ell_grid, V, v_count=20_000)
    gamma_int_err = abs(res.Gamma / (a**2 * V**3 / 6) - 1.0)

    sigma_ell = 0.5
    dev_grid = make_grid(GridSpec((
        Dim("x", -6 * sigma_ell, 6 * sigma_ell, 4000),
        Dim("alpha", -1.0, 1.0, 5, "alpha"),
    )))
    model_2d = parse_expression("3*x + 0*a", ["x", "a"])
    scenario = MeasurementScenario([7.0], sigma_ell, 0.25)
    (delta_sq,) = local_square_deviation(model_2d, dev_grid, scenario)
    delta_err = abs(delta_sq / (a**2 * sigma_ell**2 / 2) - 1.0)

    ok = max(gamma_errs) < 1e-9 and gamma_int_err < 1e-9 and delta_err < 1e-4
    _report("analytic variogram values for a linear model", ok,
            f"gamma rel {max(gamma_errs):.1e}, Gamma rel {gamma_int_err:.1e}, "
            f"delta-sq rel {delta_err:.1e}")
    assert max(gamma_errs) < 1e-9
    assert gamma_int_err < 1e-9
    assert delta_err < 1e-4


def test_bayes_inversion_round_trip():
    """Mixing the row posteriors by the propagated output reconstructs 50
    random priors to 1e-12 per element."""
    grid = make_grid(GridSpec((
        Dim("x", -3.0, 3.0, 40), Dim("alpha", -1.0, 1.0, 15, "alpha"),
    )))
    matrix = matrix_from_model(builtin("bench2d"), grid, 30)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        v = rng.random(grid.size)
        v /= math.fsum(v)
        prior = ProbabilityVector(v, grid)
        rec = reconstruct_prior(invert(matrix, prior))
        worst = max(worst, float(np.abs(rec - v).max()))
    ok = worst < 1e-12
    _report("Bayes inversion round trip", ok, f"max element error {worst:.2e}")
    assert worst < 1e-12


def test_every_probability_column_is_normalized():
    """500 randomized grid/model/scenario combinations: every column
    produced anywhere is non-negative and sums to 1 within 1e-9."""
    rng = np.random.default_rng(7)
    models = [
        builtin_model("ipsa2d"),
        builtin_model("bench2d"),
        parse_expression("sin(x)*a + x^2", ["x", "a"]),
        parse_expression("abs(x) - a", ["x", "a"]),
        parse_expression("exp(x/4) + cos(2*a)", ["x", "a"]),
    ]
    worst = 0.0
    for case in range(500):
        x_lo = rng.uniform(-6, 0)
        x_hi = x_lo + rng.uniform(1, 8)
        a_half = rng.uniform(0.3, 2.0)
        grid = make_grid(GridSpec((
            Dim("x", x_lo, x_hi, int(rng.integers(5, 40))),
            Dim("alpha", -a_half, a_half, int(rng.integers(3, 20)), "alpha"),
        )))
        L = int(rng.integers(1, 6))
        scenario = MeasurementScenario(
            rng.uniform(x_lo, x_hi, size=L),
            rng.uniform(0.05, 2.0),
            rng.uniform(0.05, 1.0),
        )
        model = models[case % len(models)]
        P = scenario_matrix(grid, scenario)
        assert np.all(P.columns >= 0)
        matrix = matrix_from_model(model, grid, int(rng.integers(1, 60)))
        out = propagate_many(matrix, P)
        assert np.all(out.values >= 0)
        for block in (P.columns, out.values):
            for i in range(block.shape[1]):
                worst = max(worst, abs(math.fsum(block[:, i]) - 1.0))
    ok = worst < 1e-9
    _report("normalization across 500 random cases", ok,
            f"worst column-sum error {worst:.2e}")
    assert worst < 1e-9


def test_sensitivity_fields_track_model_and_widen_with_uncertainty():
    """Desk-scale sensitivity batch (L = 200, N = 1e4, K = 500): at
    sigma_ell = 0.05 the per-location argmax output follows
    y = ell^2 + 5 sin(3 ell) within one bin for >= 95% of locations, and
    the deviation variance is non-decreasing across
    sigma_ell in {0.05, 0.25, 0.5, 1.0, 3.0} for >= 95% of locations;
    the whole batch finishes in under a minute.

    Per-location matrices on +-4 sigma_ell windows resolve the tight
    sigma_ell = 0.05 columns that a 1e4-cell shared grid cannot; "within
    one bin" means the argmax bin is at most one bin index away from the
    bin holding y(ell)."""
    t0 = time.perf_counter()
    model = builtin("ipsa2d")
    grid = make_grid(GridSpec((
        Dim("x", -8.0, 8.0, 125), Dim("alpha", -1.0, 1.0, 80, "alpha"),
    )))
    locations = np.linspace(-7.5, 7.5, 200)
    K = 500
    sigmas = (0.05, 0.25, 0.5, 1.0, 3.0)

    variances = []
    argmax_hits = None
    for s in sigmas:
        scenario = MeasurementScenario(locations, s, 0.25)
        out = output_matrix(model, grid, scenario, K, shared_matrix=False)
        y_ref = reference_curve(model, locations)
        if s == sigmas[0]:
            k_peak = np.argmax(out.values, axis=0)
            k_ref = out.binning.assign(y_ref)
            argmax_hits = np.abs(k_peak - k_ref) <= 1
        dev = to_deviations(out, y_ref)
        variances.append(summarize(dev, level=0.9).variance)
    elapsed = time.perf_counter() - t0

    hit_rate = float(np.mean(argmax_hits))
    mono = np.ones(locations.size, dtype=bool)
    for lo, hi in zip(variances[:-1], variances[1:]):
        mono &= hi >= lo * (1 - 1e-9)
    mono_rate = float(np.mean(mono))
    ok = hit_rate >= 0.95 and mono_rate >= 0.95 and elapsed < 60.0
    _report("sensitivity fields track the model and widen with uncertainty", ok,
            f"argmax hit rate {hit_rate:.1%}, variance monotone {mono_rate:.1%}, "
            f"{elapsed:.1f} s")
    assert hit_rate >= 0.95
    assert mono_rate >= 0.95
    assert elapsed < 60.0


def test_deviation_moments_consistent_with_local_square_deviation():
    """Half the second raw moment of each alpha-matched deviation column
    equals the quadrature-computed expected square deviation at that
    location, within the tolerance induced by two bin widths."""
    model = builtin("ipsa2d")
    sigma_ell, sigma_alpha = 0.5, 0.25
    grid = make_grid(GridSpec((
        Dim("x", -4 * sigma_ell, 4 * sigma_ell, 400),
        Dim("alpha", -1.0, 1.0, 50, "alpha"),
    )))
    rng = np.random.default_rng(13)
    locations = np.sort(rng.uniform(-3.0, 3.0, size=20))
    scenario = MeasurementScenario(locations, sigma_ell, sigma_alpha)
    dev = deviation_statistic_matrix(model, grid, scenario, 500)

    c = dev.delta_centers
    b = dev.bin_width
    targets = local_square_deviation(model, grid, scenario)
    worst = 0.0
    all_ok = True
    for i, target in enumerate(targets):
        p = dev.values[:, i]
        half_second_moment = 0.5 * float(p @ (c * c))
        # Binning moves each sample of the statistic by at most b/2; the
        # induced bound on the (half) second moment uses two bin widths.
        tol = b * float(p @ np.abs(c)) + b * b
        err = abs(half_second_moment - target)
        worst = max(worst, err / tol)
        all_ok &= err <= tol
    _report("deviation moments match the local square deviation", all_ok,
            f"worst error at {worst:.2f}x the bin-induced tolerance")
    assert all_ok
