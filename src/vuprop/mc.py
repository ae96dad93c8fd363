"""Simple Monte Carlo propagation: correctness oracle and timing baseline.

Sampling uses a counter-based generator (Philox) so per-location streams are
independent and reproducible regardless of draw order or parallel split:
location i of a run with seed s draws from the stream keyed (s, i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import OutputBinning, OutputProbabilityMatrix
from .errors import DegenerateDistributionError, EvaluationError, GridError
from .grid import Grid
from .models import ModelFunction
from .distributions import MeasurementScenario, scenario_sigma

_RETRY_FACTOR = 1000  # total proposal budget = _RETRY_FACTOR * n_samples
_KEY_MASK = 2 ** 64 - 1


@dataclass(frozen=True)
class SamplerSpec:
    """Product Gaussian truncated to bounds, drawn by rejection: the
    continuous counterpart of `distributions.gaussian_on_grid`."""

    bounds: tuple  # ((lo, hi), ...) per dimension
    mean: np.ndarray
    sigma: np.ndarray

    @property
    def ndim(self) -> int:
        return len(self.bounds)


def gaussian_sampler(grid: Grid, mean, sigma) -> SamplerSpec:
    bounds = tuple((d.lower, d.upper) for d in grid.spec.dims)
    return SamplerSpec(bounds, np.atleast_1d(np.asarray(mean, float)),
                       np.atleast_1d(np.asarray(sigma, float)))


def location_sampler(grid: Grid, scenario: MeasurementScenario, ell: float) -> SamplerSpec:
    """The truncated Gaussian of location ell: centred at x = ell, 0 elsewhere."""
    mean = np.zeros(grid.ndim)
    mean[grid.spec.x_index()] = ell
    return gaussian_sampler(grid, mean, scenario_sigma(grid, scenario))


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    K: int
    seed: int | tuple = 0  # run seed, or a location_seed pair
    binning: OutputBinning | None = None  # fixed binning; None = own range

    def __post_init__(self):
        if self.n_samples < 1:
            raise GridError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.K < 1:
            raise GridError(f"K must be >= 1, got {self.K}")


def location_seed(seed: int, i: int) -> tuple[int, int]:
    """Philox key of location i's stream in a run with the given seed.

    Distinct (seed, i) pairs never share a stream. Philox pads an integer key
    with a zero word, so location 0 reproduces a standalone run at `seed`.
    """
    return (seed & _KEY_MASK, i)


def _rng(seed) -> np.random.Generator:
    key = seed if isinstance(seed, tuple) else seed & _KEY_MASK
    return np.random.Generator(np.random.Philox(key=key))


def draw_samples(sampler: SamplerSpec, n: int, seed) -> np.ndarray:
    """(n, ndim) i.i.d. samples; deterministic given the seed."""
    rng = _rng(seed)
    nd = sampler.ndim
    lo = np.array([b[0] for b in sampler.bounds])
    hi = np.array([b[1] for b in sampler.bounds])
    out = np.empty((n, nd))
    normals = keep = inside = None  # batch buffers, sized by the first batch
    n_accepted = 0
    proposed = 0
    budget = _RETRY_FACTOR * n
    while n_accepted < n:
        # Oversample mildly so high-acceptance cases finish in one batch. No
        # later batch is larger than the first.
        need = n - n_accepted
        batch = min(max(need + need // 16 + 1000, 10_000), budget - proposed)
        if batch <= 0:
            rate = n_accepted / max(proposed, 1)
            raise DegenerateDistributionError(
                f"truncated-Gaussian rejection exhausted its budget "
                f"({proposed} proposals, acceptance rate {rate:.2e})"
            )
        if normals is None:
            normals = np.empty((nd, batch))
            keep, inside = np.empty(batch, bool), np.empty(batch, bool)
        # Generate and bounds-check one contiguous 1-D block per dimension,
        # in place; this avoids strided access over a (batch, ndim) layout.
        cols, kept, hits = normals[:, :batch], keep[:batch], inside[:batch]
        for d in range(nd):
            col = cols[d]
            rng.standard_normal(out=col)
            np.multiply(col, sampler.sigma[d], out=col)
            np.add(col, sampler.mean[d], out=col)
            if d == 0:
                np.greater_equal(col, lo[d], out=kept)
            else:
                kept &= np.greater_equal(col, lo[d], out=hits)
            kept &= np.less_equal(col, hi[d], out=hits)
        proposed += batch
        take = min(int(np.count_nonzero(kept)), need)
        for d in range(nd):  # the first `take` accepted rows, in draw order
            out[n_accepted:n_accepted + take, d] = cols[d][kept][:take]
        n_accepted += take
    return out


def mc_propagate(
    model: ModelFunction, sampler: SamplerSpec, cfg: McConfig,
    clamped: np.ndarray | None = None,
) -> tuple[np.ndarray, OutputBinning]:
    """Sample, evaluate, bin, normalize. Returns (probabilities, binning).
    A non-finite output raises EvaluationError: no binning can place it.

    A fixed binning clamps samples outside it into its end bins; clamped, if
    given (an array of two floats), receives the mass below its y_min and
    above its y_max."""
    samples = draw_samples(sampler, cfg.n_samples, cfg.seed)
    y = model.raw(*(samples[:, d] for d in range(sampler.ndim)))
    y = np.broadcast_to(y, (cfg.n_samples,))
    # Every output is finite iff both extremes are (a nan reaches both); no
    # n-sized temporary is made to find out.
    y_min, y_max = float(y.min()), float(y.max())
    if not (math.isfinite(y_min) and math.isfinite(y_max)):
        raise EvaluationError(f"model {model.name!r} produced "
                              f"{np.count_nonzero(~np.isfinite(y))} non-finite outputs "
                              f"in {cfg.n_samples} samples")
    binning = cfg.binning
    if binning is None:
        binning = OutputBinning.spanning(cfg.K, y_min, y_max)
    if clamped is not None:
        below = np.count_nonzero(y < binning.y_min) if y_min < binning.y_min else 0
        above = np.count_nonzero(y > binning.y_max) if y_max > binning.y_max else 0
        clamped[:] = below / cfg.n_samples, above / cfg.n_samples
    counts = np.bincount(binning.assign(y), minlength=binning.K)
    return counts / cfg.n_samples, binning


def mc_propagate_many(
    model: ModelFunction,
    scenario: MeasurementScenario,
    cfg: McConfig,
    grid: Grid,
) -> OutputProbabilityMatrix:
    """One independent MC run per location, column i keyed location_seed(seed, i).

    Deliberately reuses nothing across columns: this is the L * C_MC baseline.
    A fixed binning is required so the columns share one output axis; the
    result's `clamped` holds each column's mass below and above it.
    """
    if cfg.binning is None:
        raise GridError("mc_propagate_many needs a fixed OutputBinning so columns share one axis")
    out = np.empty((cfg.binning.K, scenario.n_locations))
    clamped = np.empty((2, scenario.n_locations))
    for i, ell in enumerate(scenario.locations):
        sampler = location_sampler(grid, scenario, ell)
        col_cfg = McConfig(cfg.n_samples, cfg.K, location_seed(cfg.seed, i), cfg.binning)
        try:
            out[:, i], _ = mc_propagate(model, sampler, col_cfg, clamped[:, i])
        except EvaluationError as exc:
            raise EvaluationError(f"location {ell}: {exc}") from None
    return OutputProbabilityMatrix(out, cfg.binning, scenario.locations.copy(), clamped)
