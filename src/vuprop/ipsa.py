"""Input-probability sensitivity analysis on top of the propagation engine.

Produces per-location output distributions, shifts them into deviation
coordinates (a common delta-y axis), and reduces them to summary fields and
a global marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MeasurementScenario, gaussian_on_grid, scenario_sigma
from .engine import (
    OutputBinning,
    OutputProbabilityMatrix,
    SparseModelMatrix,
    matrix_from_model,
    propagate,
    propagate_scenario,
)
from .errors import EvaluationError, GridError
from .grid import Dim, Grid, GridSpec, make_grid
from .models import ModelFunction, _eval_broadcast, eval_at_locations, eval_shifted


@dataclass(frozen=True)
class IpsaMatrix:
    """Deviation probabilities p(delta-y | location) on one shared axis."""

    values: np.ndarray  # (K, L)
    delta_centers: np.ndarray  # (K,) common delta-y bin centers
    bin_width: float
    y_ref: np.ndarray  # (L,) reference curve
    locations: np.ndarray  # (L,)
    row_offset: np.ndarray | None = None  # (L,) row of output bin 0; None if not re-binned

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
    level: float
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

    shared_matrix=False: one matrix per location, built on a local deviation
    window of +-4 sigma_ell around the location (clipped to the grid's x
    extent), all sharing one output binning. Slower, but resolves narrow
    measurement uncertainties far below the absolute grid step.
    """
    if shared_matrix:
        return propagate_scenario(matrix_from_model(model, grid, K), scenario)

    xd = grid.spec.x_index()
    x_dim = grid.spec.dims[xd]
    half = 4.0 * scenario.sigma_ell
    sigma = scenario_sigma(grid, scenario)

    def evaluate(ell: float) -> tuple[Grid, np.ndarray]:
        dims = list(grid.spec.dims)
        dims[xd] = Dim(x_dim.name, max(ell - half, x_dim.lower),
                       min(ell + half, x_dim.upper), x_dim.count, "x")
        g = make_grid(GridSpec(tuple(dims)))
        return g, _eval_broadcast(model, g, g.axes[xd]).ravel()

    def column(ell: float, g: Grid):
        mean = np.zeros(grid.ndim)
        mean[xd] = ell
        return gaussian_on_grid(g, mean, sigma)

    values, binning = _binned_sweep(scenario.locations, K, evaluate, column)
    return OutputProbabilityMatrix(values, binning, scenario.locations.copy())


def _binned_sweep(locations, K: int, evaluate, column) -> tuple[np.ndarray, OutputBinning]:
    """One propagated column per location, all on one shared binning.

    evaluate(ell) gives a grid and the outputs at its nodes, in flat order;
    column(ell, grid) gives the input distribution on that grid. Two sweeps
    keep memory at O(N) whatever L is: the first finds the global output
    range that the binning spans, and exits on the first location with a
    non-finite output; the second evaluates each location again, bins and
    propagates. The binning spans every output, so none is clamped.
    """
    y_min = math.inf
    y_max = -math.inf
    for ell in locations:
        y = evaluate(ell)[1]
        lo, hi = float(y.min()), float(y.max())  # a nan reaches both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise EvaluationError(f"non-finite model outputs at location {ell}")
        y_min = min(y_min, lo)
        y_max = max(y_max, hi)
    binning = OutputBinning.spanning(K, y_min, y_max)
    values = np.empty((binning.K, locations.size))
    for i, ell in enumerate(locations):
        g, y = evaluate(ell)
        matrix = SparseModelMatrix(binning.assign(y), binning, g)
        values[:, i] = propagate(matrix, column(ell, g))
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
    - lo) / b) rows, bit for bit with +0.0 elsewhere, so no bins merge."""
    y_ref = np.atleast_1d(np.asarray(y_ref, float))
    if y_ref.size != out.n_locations:
        raise GridError(
            f"y_ref has {y_ref.size} entries, output matrix has {out.n_locations} columns"
        )
    b = out.binning.width
    first = out.binning.centers[0] - y_ref
    lo = float(first.min())
    row_offset = np.round((first - lo) / b).astype(np.int64)
    K, L = out.values.shape
    values = np.zeros((int(row_offset.max()) + K, L))
    values[np.arange(K)[:, None] + row_offset, np.arange(L)] = out.values
    common = lo + np.arange(values.shape[0]) * b
    return IpsaMatrix(values, common, b, y_ref, out.locations.copy(), row_offset)


def _shortest_interval(masses: np.ndarray, level: float) -> tuple[int, int]:
    """Shortest contiguous bin run with mass >= level; ties -> lower start.

    Bins [lo, hi) qualify when prefix[hi] - prefix[lo] >= level in floating
    point. That difference is monotone in prefix[hi], so for every start the
    threshold prefix[lo] + level is moved by single ulps to the least value
    that passes, and one searchsorted gives the least qualifying end.
    """
    K = masses.size
    prefix = np.concatenate([[0.0], np.cumsum(masses)])
    start = prefix[:K]
    v = start + level
    while (down := np.nextafter(v, -np.inf) - start >= level).any():
        v = np.where(down, np.nextafter(v, -np.inf), v)
    while (up := v - start < level).any():
        v = np.where(up, np.nextafter(v, np.inf), v)
    hi = np.searchsorted(prefix, v)  # K + 1 where no end qualifies
    lengths = np.where(hi <= K, hi - np.arange(K), K + 1)
    lo = int(np.argmin(lengths))  # first minimum: the lower start wins ties
    if lengths[lo] >= K:  # no run shorter than the whole axis
        return 0, K - 1
    return lo, lo + int(lengths[lo]) - 1


def summarize(ipsa: IpsaMatrix, level: float, weights=None) -> SummaryFields:
    """Per-location moments, argmax and confidence interval, plus the
    location-weighted global marginal."""
    if not 0.0 < level < 1.0:
        raise GridError(f"confidence level must be in (0, 1), got {level}")
    L = ipsa.n_locations
    if weights is None:
        weights = np.full(L, 1.0 / L)
    else:
        weights = np.asarray(weights, float)
        if weights.shape != (L,):
            raise GridError(f"weights need length {L}")
    c = ipsa.delta_centers
    mean = ipsa.values.T @ c
    argmax = c[np.argmax(ipsa.values, axis=0)]
    # Column i holds mass on its K rows from offset[i] on, +0.0 elsewhere.
    offset = np.zeros(L, np.int64) if ipsa.row_offset is None else ipsa.row_offset
    K = ipsa.values.shape[0] - int(offset.max())
    variance = np.empty(L)
    ci_lo = np.empty(L)
    ci_hi = np.empty(L)
    for i in range(L):
        # Two-pass variance (Chan, Golub & LeVeque 1983): a sum of
        # non-negative terms, where E[c^2] - mean^2 can cancel to a negative.
        rows = slice(offset[i], offset[i] + K)
        d = c[rows] - mean[i]
        variance[i] = ipsa.values[rows, i] @ (d * d)
        lo, hi = _shortest_interval(ipsa.values[:, i], level)
        ci_lo[i] = c[lo]
        ci_hi[i] = c[hi]
    marginal = ipsa.values @ weights
    total = math.fsum(marginal)
    if total > 0:
        marginal = marginal / total
    return SummaryFields(
        ipsa.locations.copy(), mean, variance, argmax, ci_lo, ci_hi, level, c.copy(), marginal
    )


def deviation_statistic_matrix(
    model: ModelFunction,
    grid: Grid,
    scenario: MeasurementScenario,
    K: int,
) -> IpsaMatrix:
    """Alpha-matched deviation distributions: the propagated statistic is
    M(ell + x, alpha) - M(ell, alpha) itself, so the alpha offset cancels
    against a reference at the same alpha instead of the alpha mode.

    The grid's x-coordinate is the deviation from the location. One column
    per location; columns share one binning spanning the global range.
    """
    base_col = gaussian_on_grid(grid, np.zeros(grid.ndim), scenario_sigma(grid, scenario))

    def evaluate(ell: float) -> tuple[Grid, np.ndarray]:
        shifted, ref = eval_shifted(model, grid, ell)
        return grid, (shifted - ref).ravel()

    values, binning = _binned_sweep(scenario.locations, K, evaluate,
                                    lambda ell, g: base_col)
    y_ref = np.zeros(scenario.n_locations)  # statistic is already a deviation
    return IpsaMatrix(values, binning.centers, binning.width, y_ref,
                      scenario.locations.copy())
