"""Discrete input probability vectors and per-location probability matrices.

All distributions are truncated at the grid boundary (mass outside is zero)
and renormalized to sum to one. Normalization totals use numpy's pairwise
summation, whose ~1e-15 relative error keeps the 1e-9 column-sum invariant
safe on grids of 1e6+ cells without a per-element Python loop.

A measurement location's column is a Gaussian centered at x = ell on the
grid itself, or on a local window's own x nodes. Deviation coordinates arise
only where a caller shifts the model's input (`models.eval_deviation`), never
in a column. Every command's column is a row of `scenario_factors`;
`gaussian_on_grid`, normalized over an assembled column, is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDistributionError, GridError
from .grid import Grid, GridSpec, make_grid

SUM_TOL = 1e-9

# Half-width, in sigmas, of every window and default grid cut around a location
TRUNCATION_SIGMAS = 4.0


def _normalize(values: np.ndarray) -> np.ndarray:
    total = float(values.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("all probability mass is zero on the grid")
    return values / total


@dataclass(frozen=True)
class ProbabilityVector:
    """Per-cell probability masses on a grid; non-negative, sums to one."""

    values: np.ndarray
    grid: Grid = field(repr=False)

    def __post_init__(self):
        if self.values.shape != (self.grid.size,):
            raise GridError(
                f"probability vector has length {self.values.shape}, grid has {self.grid.size} cells"
            )


@dataclass(frozen=True)
class ProbabilityMatrix:
    """L input probability vectors sharing one grid, one column per location."""

    columns: np.ndarray  # (N, L)
    locations: np.ndarray  # (L,)
    grid: Grid = field(repr=False)

    @property
    def n_locations(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class MeasurementScenario:
    """Measurement locations with uniform Gaussian uncertainty per location."""

    locations: np.ndarray
    sigma_ell: float
    sigma_alpha: float
    weights: np.ndarray | None = None  # rho(ell); defaults to uniform

    def __post_init__(self):
        object.__setattr__(self, "locations", np.atleast_1d(np.asarray(self.locations, float)))
        if self.locations.size < 1:
            raise GridError("scenario needs at least one location")
        bad = np.flatnonzero(~np.isfinite(self.locations))
        if bad.size:
            raise GridError(f"location {float(self.locations[bad[0]])!r} "
                            f"(index {bad[0]}) is not finite")
        if not self.sigma_ell > 0:
            raise GridError(f"sigma_ell must be > 0, got {self.sigma_ell}")
        if not self.sigma_alpha > 0:
            raise GridError(f"sigma_alpha must be > 0, got {self.sigma_alpha}")
        if self.weights is not None:
            w = np.asarray(self.weights, float)
            if w.shape != self.locations.shape:
                raise GridError("weights length must match locations")
            if not ((w >= 0).all() and abs(math.fsum(w) - 1.0) <= SUM_TOL):  # nan fails both
                raise GridError("weights must be non-negative and sum to 1")
            object.__setattr__(self, "weights", w)

    @property
    def n_locations(self) -> int:
        return self.locations.size

    def location_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        return np.full(self.n_locations, 1.0 / self.n_locations)

    def at(self, ell: float) -> MeasurementScenario:
        """The one location ell, with these widths and no weights."""
        return replace(self, locations=ell, weights=None)


def _axis_gaussian(axis: np.ndarray, mean, sigma) -> np.ndarray:
    """Unnormalized Gaussian density exp(-z^2 / 2) at the nodes of an axis."""
    z = (axis - mean) / sigma
    return np.exp(-0.5 * z * z)


def gaussian_on_grid(grid: Grid, mean, sigma) -> ProbabilityVector:
    """Truncated product Gaussian: density at cell centers, renormalized."""
    mean = np.atleast_1d(np.asarray(mean, float))
    sigma = np.atleast_1d(np.asarray(sigma, float))
    if mean.size != grid.ndim or sigma.size != grid.ndim:
        raise GridError(
            f"mean/sigma need {grid.ndim} components, got {mean.size}/{sigma.size}"
        )
    if np.any(sigma <= 0):
        raise GridError("sigma components must be > 0")
    # Separable: per-axis factors, combined by outer product. Keeps symmetric
    # axes exactly palindromic and costs O(sum of axis lengths) exp calls.
    factors = [_axis_gaussian(grid.axes[d], mean[d], sigma[d]) for d in range(grid.ndim)]
    dens = factors[0]
    for f in factors[1:]:
        dens = np.multiply.outer(dens, f)
    values = dens.ravel()
    try:
        values = _normalize(values)
    except DegenerateDistributionError:
        raise DegenerateDistributionError(
            f"Gaussian at mean {tuple(mean)} carries no mass on {grid!r} "
            "(mean too far outside the grid)"
        ) from None
    return ProbabilityVector(values, grid)


def deviation_grid(grid: Grid, scenario: MeasurementScenario) -> Grid:
    """The grid with x the deviation from a location: +-TRUNCATION_SIGMAS sigma_ell
    around 0 at the same count, name and role; the other dims are the same
    objects. Both deviation sweeps (`vars`, alpha-matched `ipsa`) run on it."""
    xd = grid.spec.x_index()
    half = TRUNCATION_SIGMAS * scenario.sigma_ell
    dims = list(grid.spec.dims)
    dims[xd] = replace(dims[xd], lower=-half, upper=half)
    return make_grid(GridSpec(tuple(dims)))


def scenario_sigma(grid: Grid, scenario: MeasurementScenario) -> np.ndarray:
    """Per-dimension Gaussian widths: sigma_ell on x, sigma_alpha on alpha."""
    sigma = np.full(grid.ndim, scenario.sigma_alpha)
    sigma[grid.spec.x_index()] = scenario.sigma_ell
    return sigma


@dataclass(frozen=True)
class ScenarioFactors:
    """Scenario columns in separable form.

    On the grid viewed as (n_pre, nx, n_post) -- the alpha dims before x,
    x, the alpha dims after x -- column i is
    pre[:, None, None] * x_block[i][None, :, None] * post[None, None, :].
    pre, post and each x_block row sum to 1, so every column does.
    """

    pre: np.ndarray  # (n_pre,) outer product of the alpha factors before x
    x_block: np.ndarray  # (L, nx)
    post: np.ndarray  # (n_post,) outer product of the alpha factors after x

    def column(self, i: int, out=None) -> np.ndarray:
        """Column i, flattened row-major (N floats), written into out if given."""
        shape = (self.pre.size, self.x_block.shape[1], self.post.size)
        return np.multiply(self.pre[:, None, None] * self.x_block[i][None, :, None],
                           self.post, out=None if out is None else out.reshape(shape)).ravel()


def scenario_factors(grid: Grid, scenario: MeasurementScenario, x_nodes=None) -> ScenarioFactors:
    """Per-axis factors of every scenario column, each normalized by its own sum.

    Row i of the x factor is at x_nodes[i] ((L, nx); by default the grid's x
    axis). Costs O(N / nx + L * nx): only the x factor depends on the location.
    Each x row is exp(-(z^2 - min z^2) / 2), relative to its nearest node, so
    its largest entry is 1 and its sum never leaves the normal range however
    far the location lies. A location carries no mass when its unshifted
    largest entry exp(-min z^2 / 2) underflows to 0 (beyond about 38.6
    sigma_ell), as does every location when an alpha factor sums to 0.
    """
    xd = grid.spec.x_index()
    sigma = scenario_sigma(grid, scenario)
    if x_nodes is None:
        x_nodes = grid.axes[xd]
    elif np.shape(x_nodes) != (scenario.n_locations, grid.spec.counts[xd]):
        raise GridError(f"x_nodes has shape {np.shape(x_nodes)}, expected (L, nx) = "
                        f"({scenario.n_locations}, {grid.spec.counts[xd]})")
    alpha = [_axis_gaussian(grid.axes[d], 0.0, sigma[d]) for d in range(grid.ndim) if d != xd]
    z = (x_nodes - scenario.locations[:, None]) / sigma[xd]  # (L, nx)
    sq = z * z
    nearest = sq.min(axis=1)
    bad = np.flatnonzero(np.exp(-0.5 * nearest) == 0.0)
    if bad.size or any(f.sum() == 0.0 for f in alpha):
        raise DegenerateDistributionError(
            f"location ell={scenario.locations[bad[0] if bad.size else 0]} carries no mass "
            f"on {grid!r} (mean too far outside the grid)"
        )
    x_block = np.exp(-0.5 * (sq - nearest[:, None]))
    x_block /= x_block.sum(axis=1)[:, None]
    return ScenarioFactors(_outer(alpha[:xd]), x_block, _outer(alpha[xd:]))


def _outer(factors) -> np.ndarray:
    """Flattened outer product of axis factors, each normalized by its own sum."""
    out = np.ones(1)
    for f in factors:
        out = np.multiply.outer(out, f / f.sum()).ravel()
    return out


def scenario_matrix(grid: Grid, scenario: MeasurementScenario) -> ProbabilityMatrix:
    """Per-location input probability matrix of truncated Gaussians, (N, L):
    the column for location ell is centered at x = ell on the grid.

    The matrix holds N * L floats; engine.propagate_scenario propagates a
    scenario without forming it.
    """
    f = scenario_factors(grid, scenario)
    # Assemble with the location axis first, then expose the transposed view:
    # each column is then contiguous in memory, which downstream per-column
    # scatter-adds reward with a ~2x throughput gain.
    dens = (f.pre[None, :, None, None] * f.x_block[:, None, :, None]
            * f.post[None, None, None, :])
    cols = dens.reshape(scenario.n_locations, grid.size).T
    return ProbabilityMatrix(cols, scenario.locations.copy(), grid)
