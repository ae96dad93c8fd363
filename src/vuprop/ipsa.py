"""Input-probability sensitivity analysis on top of the propagation engine.

Produces per-location output distributions, shifts them into deviation
coordinates (a common delta-y axis), and reduces them to summary fields and
a global marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MeasurementScenario, TRUNCATION_SIGMAS, scenario_factors
from .engine import OutputBinning, OutputProbabilityMatrix, matrix_from_model, propagate_scenario
from .errors import EvaluationError, GridError
from .grid import Dim, Grid
from .models import ModelFunction, _eval_broadcast, eval_at_locations, eval_deviation


@dataclass(frozen=True)
class IpsaMatrix:
    """Deviation probabilities p(delta-y | location) on one shared axis: bin k
    of column i is row row_offset[i] + k, and other rows have no mass."""

    values: np.ndarray  # (K, L) each location's output bins
    delta_centers: np.ndarray  # (n_rows,) common delta-y bin centers
    bin_width: float
    locations: np.ndarray  # (L,)
    row_offset: np.ndarray  # (L,) int64

    @property
    def n_locations(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SummaryFields:
    locations: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    argmax: np.ndarray  # delta-y with maximum probability, per location
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    global_axis: np.ndarray
    global_marginal: np.ndarray


def output_matrix(
    model: ModelFunction,
    grid: Grid,
    scenario: MeasurementScenario,
    K: int,
    shared_matrix: bool = True,
) -> OutputProbabilityMatrix:
    """Distribution of the model output for every measurement location.

    shared_matrix=True (default): one model matrix on the absolute grid is
    reused for all locations; columns are Gaussians with the mean shifted to
    each location. This is the sublinear-in-L path.

    shared_matrix=False: column i is location i's `scenario_factors` row on
    its own window of +-4 sigma_ell in x, clipped to the grid's x extent,
    with the grid's x node count; all columns share one output binning.
    Slower, but resolves narrow measurement uncertainties far below the grid
    step. A window that misses the grid fails before any model call.
    """
    if shared_matrix:
        return propagate_scenario(matrix_from_model(model, grid, K), scenario)

    x_dim = grid.spec.dims[grid.spec.x_index()]
    half = TRUNCATION_SIGMAS * scenario.sigma_ell
    ells = scenario.locations
    lower, upper = np.maximum(ells - half, x_dim.lower), np.minimum(ells + half, x_dim.upper)
    if not (lower < upper).all():
        ell = float(ells[np.argmin(lower < upper)])
        raise GridError(f"location {ell!r}: its +-{TRUNCATION_SIGMAS:g} sigma_ell window "
                        f"[{ell - half!r}, {ell + half!r}] misses the grid's x extent "
                        f"[{float(x_dim.lower)!r}, {float(x_dim.upper)!r}]")

    windows = np.stack([Dim(x_dim.name, lo, hi, x_dim.count).nodes()
                        for lo, hi in zip(lower, upper)])  # (L, nx)
    factors = scenario_factors(grid, scenario, windows)
    weights = np.empty(grid.size)  # one array for every column: fresh ones were faulted in anew
    values, binning = _binned_sweep(
        ells, K, lambda i: _eval_broadcast(model, grid, windows[i]).ravel(),
        lambda i: factors.column(i, weights))
    return OutputProbabilityMatrix(values, binning, ells.copy())


def _binned_sweep(locations, K: int, evaluate, column) -> tuple[np.ndarray, OutputBinning]:
    """One propagated column per location, all on one shared binning.

    evaluate(i) gives location i's model outputs and column(i) their input
    weights, both N floats in one flat order. Two sweeps keep memory at O(N)
    whatever L is: the first finds the global output range that the binning
    spans, and exits on the first location with a non-finite output; the
    second evaluates each location again, bins, and adds each weight into
    its output bin. The binning spans every output, so none is clamped.
    """
    y_min, y_max = math.inf, -math.inf
    for i, ell in enumerate(locations):
        y = evaluate(i)
        lo, hi = float(y.min()), float(y.max())  # a nan reaches both
        del y  # one location's outputs alive at a time, in both sweeps
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise EvaluationError(f"non-finite model outputs at location {ell}")
        y_min, y_max = min(y_min, lo), max(y_max, hi)
    binning = OutputBinning.spanning(K, y_min, y_max)
    values = np.empty((binning.K, locations.size))
    for i in range(locations.size):  # the outputs go once binned, the bins once counted
        values[:, i] = np.bincount(binning.assign(evaluate(i)), weights=column(i),
                                   minlength=binning.K)
    return values, binning


def reference_curve(model: ModelFunction, locations, alpha_ref=None) -> np.ndarray:
    """y_ref[i] = M(location_i, alpha_ref); alpha_ref defaults to zeros.

    Zero is the mode of the centered alpha-Gaussian, matching the
    maximum-input-probability reference. The location is the model's first
    input (`models.x_first` moves the grid's x there). A non-finite reference
    is an EvaluationError naming its location.
    """
    locations = np.atleast_1d(np.asarray(locations, float))
    alpha = np.zeros(model.arity - 1) if alpha_ref is None else alpha_ref
    y_ref = np.array(eval_at_locations(model, locations, alpha))
    bad = np.flatnonzero(~np.isfinite(y_ref))
    if bad.size:
        raise EvaluationError(f"model {model.name!r} is {y_ref[bad[0]]} "
                              f"at location {locations[bad[0]]}")
    return y_ref


def to_deviations(out: OutputProbabilityMatrix, y_ref) -> IpsaMatrix:
    """Shift each column's axis by its reference value onto a common uniform
    delta-y axis of the same bin width, starting at lo = min(centers[0] - y_ref).
    Column i moves as a whole, down row_offset[i] = round((centers[0] - y_ref[i]
    - lo) / b) rows, so no bins merge. The columns are out's own values.

    Every reference must lie within K bins of the output range, which bounds
    the axis at 4K + 1 rows; one that does not, nan included, is an
    EvaluationError naming its location."""
    y_ref = np.atleast_1d(np.asarray(y_ref, float))
    if y_ref.size != out.n_locations:
        raise GridError(
            f"y_ref has {y_ref.size} entries, output matrix has {out.n_locations} columns"
        )
    binning, b = out.binning, out.binning.width
    reach = binning.K * b
    far = np.flatnonzero(~((binning.y_min - reach <= y_ref) & (y_ref <= binning.y_max + reach)))
    if far.size:
        i = int(far[0])
        raise EvaluationError(f"reference {float(y_ref[i])!r} at location "
                              f"{float(out.locations[i])!r} lies more than K = {binning.K} bins "
                              f"outside the output range [{binning.y_min!r}, {binning.y_max!r}]")
    first = binning.centers[0] - y_ref
    lo = float(first.min())
    row_offset = np.round((first - lo) / b).astype(np.int64)
    common = lo + np.arange(int(row_offset.max()) + binning.K) * b
    return IpsaMatrix(out.values, common, b, out.locations.copy(), row_offset)


# Masses per `_shortest_interval` call in `summarize`: its (L, K) temporaries
# stay this size however many columns there are.
_INTERVAL_CELLS = 1 << 15


def _shortest_interval(masses: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """First and last bin of each column's shortest contiguous run of bins
    with mass >= level, for (K, L) masses; ties -> lower start, and the
    whole axis where no run is shorter.

    Bins [lo, hi) qualify when prefix[hi] - prefix[lo] >= level in floating
    point. That difference is monotone in prefix[hi], so for every start the
    threshold prefix[lo] + level is moved by single ulps, in all columns at
    once, to the least value that passes, and one searchsorted per column
    gives the least qualifying end.
    """
    K, L = masses.shape
    prefix = np.zeros((L, K + 1))  # one contiguous row per column, for searchsorted
    np.cumsum(masses.T, axis=1, out=prefix[:, 1:])
    start = prefix[:, :K]
    v = start + level

    def passes_below(at):  # the next lower threshold still passes
        return np.nextafter(v[at], -np.inf) - start[at] >= level

    def fails(at):
        return v[at] - start[at] < level

    # Down while the next lower value passes, then up until it passes; past
    # one test of every threshold, only the ones still moving are tested.
    for direction, moving in ((-np.inf, passes_below), (np.inf, fails)):
        at = np.nonzero(moving(...))
        while at[0].size:
            v[at] = np.nextafter(v[at], direction)
            keep = moving(at)
            at = tuple(a[keep] for a in at)
    hi = np.stack([np.searchsorted(p, t) for p, t in zip(prefix, v)])  # K + 1 where none
    lengths = np.where(hi <= K, hi - np.arange(K), K + 1)
    lo = np.argmin(lengths, axis=1)  # first minimum: the lower start wins ties
    length = lengths[np.arange(L), lo]
    whole = length >= K  # no run shorter than the whole axis
    return np.where(whole, 0, lo), np.where(whole, K - 1, lo + length - 1)


def summarize(ipsa: IpsaMatrix, level: float, weights=None) -> SummaryFields:
    """Per-location moments, argmax and confidence interval over each column's
    own K bins, plus the location-weighted global marginal on the delta-y axis."""
    if not 0.0 < level < 1.0:
        raise GridError(f"confidence level must be in (0, 1), got {level}")
    L = ipsa.n_locations
    if weights is None:
        weights = np.full(L, 1.0 / L)
    else:
        weights = np.asarray(weights, float)
        if weights.shape != (L,):
            raise GridError(f"weights need length {L}")
    p = ipsa.values
    rows = np.arange(p.shape[0])[:, None] + ipsa.row_offset
    c = ipsa.delta_centers[rows]  # (K, L): each column's own centers
    mean = np.einsum("kl,kl->l", p, c)
    # Two-pass variance (Chan, Golub & LeVeque 1983): a sum of non-negative
    # terms, where E[c^2] - mean^2 can cancel to a negative.
    d = c - mean
    variance = np.einsum("kl,kl->l", p, d * d)
    argmax = c[np.argmax(p, axis=0), np.arange(L)]
    lo, hi = np.empty(L, np.intp), np.empty(L, np.intp)
    step = max(1, _INTERVAL_CELLS // p.shape[0])
    for j in range(0, L, step):
        lo[j:j + step], hi[j:j + step] = _shortest_interval(p[:, j:j + step], level)
    ci_lo, ci_hi = c[lo, np.arange(L)], c[hi, np.arange(L)]
    marginal = np.bincount(rows.ravel(), weights=(p * weights).ravel(),
                           minlength=ipsa.delta_centers.size)
    total = math.fsum(marginal)
    if total > 0:
        marginal = marginal / total
    return SummaryFields(ipsa.locations.copy(), mean, variance, argmax, ci_lo, ci_hi,
                         ipsa.delta_centers.copy(), marginal)


def deviation_statistic_matrix(
    model: ModelFunction,
    grid: Grid,
    scenario: MeasurementScenario,
    K: int,
) -> IpsaMatrix:
    """Alpha-matched deviation distributions: the propagated statistic is
    M(ell + x, alpha) - M(ell, alpha) itself, so the alpha offset cancels
    against a reference at the same alpha instead of the alpha mode.

    The grid's x-coordinate is the deviation from the location, so every
    location propagates the Gaussian centred at x = 0, on one binning. The
    CLI passes `distributions.deviation_grid(grid, scenario)`.
    """
    base_col = scenario_factors(grid, scenario.at(0.0)).column(0)
    values, binning = _binned_sweep(
        scenario.locations, K,
        lambda i: eval_deviation(model, grid, scenario.locations[i]).ravel(), lambda i: base_col)
    # The statistic is already a deviation: no shift.
    return IpsaMatrix(values, binning.centers, binning.width, scenario.locations.copy(),
                      np.zeros(scenario.n_locations, np.int64))
