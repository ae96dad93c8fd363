"""Variogram, integrated variogram, generalized nonuniform expectation, and
the per-location expected square deviation under measurement uncertainty.

All quadratures use the same midpoint rule as the propagation grids, so the
uniform- and delta-weight special cases recover the integrated/plain
variogram exactly (as finite sums), not just approximately.

When ell + v would leave the grid, the ell-integration range shrinks to
[lower, upper - v]: only pairs with both points inside the domain count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MeasurementScenario, gaussian_on_grid, scenario_sigma
from .errors import GridError
from .grid import Grid
from .models import ModelFunction


@dataclass(frozen=True)
class VariogramResult:
    v_grid: np.ndarray  # midpoint nodes in [0, V]
    gamma: np.ndarray  # gamma(v) per node
    V: float
    Gamma: float  # integral of gamma over [0, V]
    expectation: float  # Gamma / V


def _ell_axis(ell_grid: Grid) -> np.ndarray:
    if ell_grid.ndim != 1:
        raise GridError("variogram location grid must be one-dimensional")
    return ell_grid.axes[0]


def _eval_1d(model: ModelFunction, ell: np.ndarray, alpha_ref) -> np.ndarray:
    """Model along the location axis with parameter inputs fixed."""
    alpha_ref = () if alpha_ref is None else tuple(np.atleast_1d(alpha_ref))
    if model.arity != 1 + len(alpha_ref):
        raise GridError(
            f"model arity {model.arity} needs {model.arity - 1} alpha_ref components"
        )
    args = [ell] + [np.full_like(ell, a) for a in alpha_ref]
    return np.broadcast_to(model.raw(*args), ell.shape)


def _squared_diffs(model, ell_grid: Grid, v: float, alpha_ref) -> np.ndarray:
    """(M(ell+v) - M(ell))^2 over the (possibly shrunk) set of valid nodes."""
    ell = _ell_axis(ell_grid)
    upper = ell_grid.spec.dims[0].upper
    if v < 0:
        raise GridError(f"scale v must be >= 0, got {v}")
    valid = ell + v <= upper
    ell = ell[valid]
    if ell.size == 0:
        raise GridError(f"scale v = {v} leaves no locations inside the grid")
    return (_eval_1d(model, ell + v, alpha_ref) - _eval_1d(model, ell, alpha_ref)) ** 2


def variogram(model: ModelFunction, ell_grid: Grid, v: float, alpha_ref=None) -> float:
    """Half the midpoint-rule average of (M(ell+v) - M(ell))^2 over locations."""
    sq = _squared_diffs(model, ell_grid, v, alpha_ref)
    return math.fsum(sq) / (2.0 * sq.size)


def integrated_variogram(
    model: ModelFunction, ell_grid: Grid, V: float, v_count: int, alpha_ref=None
) -> VariogramResult:
    """Midpoint quadrature of gamma over v in [0, V]; expectation = Gamma / V."""
    if not V > 0:
        raise GridError(f"scale limit V must be > 0, got {V}")
    if v_count < 1:
        raise GridError(f"v_count must be >= 1, got {v_count}")
    dv = V / v_count
    v_nodes = (np.arange(v_count) + 0.5) * dv
    gamma = np.array([variogram(model, ell_grid, v, alpha_ref) for v in v_nodes])
    Gamma = math.fsum(gamma) * dv
    return VariogramResult(v_nodes, gamma, V, Gamma, Gamma / V)


def ivars_weights(ell_grid: Grid, V: float, v_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(v_nodes, weights) recovering the integrated-variogram expectation:
    uniform over scales, conditionally uniform over the valid locations of
    each scale. weights[i, j] is the mass at (v_i, ell_j); rows of invalid
    pairs are zero; the whole matrix sums to 1."""
    dv = V / v_count
    v_nodes = (np.arange(v_count) + 0.5) * dv
    ell = _ell_axis(ell_grid)
    upper = ell_grid.spec.dims[0].upper
    w = np.zeros((v_count, ell.size))
    for i, v in enumerate(v_nodes):
        valid = ell + v <= upper
        n = int(valid.sum())
        if n == 0:
            raise GridError(f"scale v = {v} leaves no locations inside the grid")
        w[i, valid] = 1.0 / (v_count * n)
    return v_nodes, w


def vars_weights(
    ell_grid: Grid, v_nodes: np.ndarray, v_prime: float
) -> np.ndarray:
    """Delta-at-one-scale weights (uniform over valid locations) recovering
    the plain variogram at the v-node nearest to v_prime."""
    v_nodes = np.asarray(v_nodes, float)
    i = int(np.argmin(np.abs(v_nodes - v_prime)))
    ell = _ell_axis(ell_grid)
    upper = ell_grid.spec.dims[0].upper
    valid = ell + v_nodes[i] <= upper
    w = np.zeros((v_nodes.size, ell.size))
    w[i, valid] = 1.0 / int(valid.sum())
    return w


def generalized_expectation(
    model: ModelFunction,
    ell_grid: Grid,
    v_nodes: np.ndarray,
    weights: np.ndarray,
    alpha_ref=None,
) -> float:
    """Sum over (v, ell) of weight * (M(ell+v) - M(ell))^2 / 2 for an
    arbitrary joint probability over scales and locations."""
    v_nodes = np.asarray(v_nodes, float)
    ell = _ell_axis(ell_grid)
    weights = np.asarray(weights, float)
    if weights.shape != (v_nodes.size, ell.size):
        raise GridError(
            f"weights shape {weights.shape} != (n_v, n_ell) = ({v_nodes.size}, {ell.size})"
        )
    if np.any(weights < 0):
        raise GridError("weights must be non-negative")
    total = math.fsum(weights.ravel())
    if abs(total - 1.0) > 1e-6:
        raise GridError(f"weights sum to {total}, expected 1 within 1e-6")
    m_ell = _eval_1d(model, ell, alpha_ref)
    terms = []
    for i, v in enumerate(v_nodes):
        row = weights[i]
        if not row.any():
            continue
        sq = (_eval_1d(model, ell + v, alpha_ref) - m_ell) ** 2
        terms.extend(row * sq / 2.0)
    return math.fsum(terms)


def local_square_deviation(
    model: ModelFunction, ell: float, scenario: MeasurementScenario, grid: Grid
) -> float:
    """Expected squared deviation of the response at one location under the
    truncated-Gaussian measurement uncertainty, by midpoint quadrature over
    a deviation-coordinate (x, alpha) grid."""
    x_dims = [d for d, dim in enumerate(grid.spec.dims) if dim.role == "x"]
    if len(x_dims) != 1:
        raise GridError("local_square_deviation needs exactly one x dimension")
    xd = x_dims[0]
    p = gaussian_on_grid(grid, np.zeros(grid.ndim), scenario_sigma(grid, scenario))
    shifted = [grid.column(d) + ell if d == xd else grid.column(d)
               for d in range(grid.ndim)]
    ref = [np.full(grid.size, ell) if d == xd else grid.column(d)
           for d in range(grid.ndim)]
    sq = (np.broadcast_to(model.raw(*shifted), (grid.size,))
          - np.broadcast_to(model.raw(*ref), (grid.size,))) ** 2
    return math.fsum(p.values * sq / 2.0)
