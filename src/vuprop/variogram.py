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

from .distributions import MeasurementScenario, scenario_factors
from .errors import EvaluationError, GridError
from .grid import Grid
from .models import ModelFunction, eval_at_locations, eval_deviation


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


# (v, ell) cells per block of the variogram sweep, in whole scale rows: 32
# rows of 1000 locations, 256 KB per temporary where a whole 200-row sweep
# held 1.6 MB, so a block's temporaries fit a 2 MB L2 and the sweep's memory
# does not grow with v_count.
_CELLS = 1 << 15


def _square_diff_blocks(model, ell: np.ndarray, v_nodes: np.ndarray, alpha_ref, upper: float):
    """(rows, valid, sq) for each block of scale rows, in order: the slice of
    v_nodes it covers, its (rows, w) mask of the pairs with ell + v <= upper,
    and (M(ell + v) - M(ell))^2 on those first w locations, shape (rows, w).

    ell ascends, so each row's valid pairs are a prefix of it, and w, the
    block's widest valid row, bounds them all: no block evaluates the model
    beyond it, and nothing of size n_v * n_ell is held. M(ell) is evaluated
    once per call. Every row must hold a valid pair (`_check_scales`)."""
    alpha = () if alpha_ref is None else alpha_ref
    m_ell = eval_at_locations(model, ell, alpha)
    step = max(1, _CELLS // ell.size)
    for start in range(0, v_nodes.size, step):
        rows = slice(start, start + step)
        v = v_nodes[rows, None]
        valid = ell + v <= upper
        w = int(valid.sum(axis=1).max())
        sq = eval_at_locations(model, ell[:w] + v, alpha) - m_ell[:w]
        yield rows, valid[:, :w], np.square(sq, out=sq)


def _check_scales(ell_grid: Grid, v_nodes: np.ndarray) -> None:
    """Raise when some scale leaves no location ell with ell + v inside the
    grid. That is the first node's test: fl(ell + v) rises with ell."""
    empty = ~(_ell_axis(ell_grid)[0] + v_nodes <= ell_grid.spec.dims[0].upper)
    if empty.any():
        raise GridError(f"scale v = {v_nodes[np.argmax(empty)]} leaves no locations "
                        "inside the grid")


def _valid_pairs(ell_grid: Grid, v_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n_v, n_ell) mask of the pairs with ell + v inside the grid, and its row counts."""
    _check_scales(ell_grid, v_nodes)
    valid = _ell_axis(ell_grid)[None, :] + v_nodes[:, None] <= ell_grid.spec.dims[0].upper
    return valid, valid.sum(axis=1)


_U = 2.0 ** -53  # unit roundoff of float64


def _two_sum(a, b):
    """Knuth's TwoSum: s = fl(a + b) and its error e, with s + e = a + b
    exactly when nothing overflows."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _row_fsums(x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """math.fsum(row[ok]) for every row of x and of the mask valid, bit for
    bit: one vectorised error-free sum over all rows, with fsum run only on
    the rows whose rounding it cannot prove.

    The sum (Ogita, Rump & Oishi, "Accurate sum and dot product", 2005). The
    invalid entries are zeroed and each row is padded with +0.0 to m = 2^D
    columns, D = ceil(log2 n). Each of the D levels adds the row's two halves
    with Knuth's TwoSum, s + e = a + b exactly, and adds the level's errors
    into err. So the exact row sum is S = hi + (sum of all e), hi being the
    last level's s.

    The bound. Let u = 2^-53, gamma_k = ku / (1 - ku) and T = sum |x|. In
    round-to-nearest |e| <= u|s|, and a level-k sum is at most (1 + u)^k
    times the |x| of its subtree, so sum |e| <= u D (1 + u)^D T. err sums
    those errors in float: a level's e.sum() rounds at most m/2 - 1 < n
    times on the way of any term, adding it into err at most D - 1 times
    more. So |err - sum e| <= gamma_{n+D} sum |e|, about (n + D) D u^2 T.
    T is bounded by A = fl(sum |x|) (1 + 2nu), as a float sum of at most n
    nonzero terms is off by at most gamma_{n-1} T. For n far below 2^50,
    B = 4 (n + D)(D + 1) u^2 A exceeds that error bound with room for every
    rounding of A and B themselves, so |hi + err - S| <= B.

    The certificate. TwoSum(hi, err) gives r + d = hi + err exactly, so
    |S - r| <= |d| + B. Let g be the smaller gap from |r| to its neighbouring
    doubles. If fl(|d| + B) < g/2, then |d| + B < g/2 too, because rounding
    is monotone and g/2 is exact, so S rounds to r: fsum's correctly rounded
    result. g/2 underflows to 0 when |r| < 2^-1021, so zero and tiny sums
    always fall back (and fsum decides the sign of a zero), as do rows
    holding inf or nan. A < 2^1023 keeps the tree and fsum's own partial
    sums far from overflow, so a row where fsum would raise OverflowError
    falls back and raises it there.
    """
    rows, n = x.shape
    depth = (n - 1).bit_length()
    tree = np.zeros((rows, 1 << depth))
    np.copyto(tree[:, :n], x, where=valid)
    err = np.zeros(rows)
    with np.errstate(all="ignore"):
        A = np.abs(tree).sum(axis=1) * (1 + 2 * n * _U)
        while tree.shape[1] > 1:
            half = tree.shape[1] // 2
            tree, e = _two_sum(tree[:, :half], tree[:, half:])
            err += e.sum(axis=1)
        r, d = _two_sum(tree[:, 0], err)
        B = (4 * (n + depth) * (depth + 1) * _U * _U) * A
        mag = np.abs(r)
        gap = np.minimum(np.spacing(mag), mag - np.nextafter(mag, 0.0))
        proven = (A < 2.0 ** 1023) & (np.abs(d) + B < 0.5 * gap)
    for i in np.flatnonzero(~proven):
        r[i] = math.fsum(x[i][valid[i]])
    return r


def _gammas(model, ell_grid: Grid, v_nodes: np.ndarray, alpha_ref) -> np.ndarray:
    """gamma at every scale: half the fsum-exact mean of each row of squared
    differences over its valid locations, one block of rows at a time. A row
    whose exact sum overflows is an error, in whichever block; then so is a
    non-finite row (pairs beyond the grid may be evaluated, but are masked)."""
    if np.any(v_nodes < 0):
        raise GridError(f"scale v must be >= 0, got {v_nodes.min()}")
    _check_scales(ell_grid, v_nodes)
    sums = np.empty(v_nodes.size)
    counts = np.empty(v_nodes.size, np.int64)
    blocks = _square_diff_blocks(model, _ell_axis(ell_grid), v_nodes, alpha_ref,
                                 ell_grid.spec.dims[0].upper)
    for rows, valid, sq in blocks:
        counts[rows] = valid.sum(axis=1)
        try:
            sums[rows] = _row_fsums(sq, valid)
        except OverflowError:  # a row's exact sum is beyond the float range
            raise EvaluationError(f"model {model.name!r}: squared differences overflow") from None
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise EvaluationError(f"model {model.name!r}: squared differences at scale "
                              f"v = {v_nodes[bad[0]]} sum to {sums[bad[0]]}")
    return sums / (2.0 * counts)


def variogram(model: ModelFunction, ell_grid: Grid, v: float, alpha_ref=None) -> float:
    """Half the midpoint-rule average of (M(ell+v) - M(ell))^2 over locations.
    ell is the model's first input (`models.x_first` moves x there)."""
    return float(_gammas(model, ell_grid, np.array([float(v)]), alpha_ref)[0])


def scale_nodes(V: float, v_count: int) -> np.ndarray:
    """The v_count midpoint nodes of [0, V], the scales of the quadrature."""
    return (np.arange(v_count) + 0.5) * (V / v_count)


def integrated_variogram(
    model: ModelFunction, ell_grid: Grid, V: float, v_count: int, alpha_ref=None
) -> VariogramResult:
    """Midpoint quadrature of gamma over v in [0, V]; expectation = Gamma / V.
    ell is the model's first input, as in `variogram`."""
    if not V > 0:
        raise GridError(f"scale limit V must be > 0, got {V}")
    if v_count < 1:
        raise GridError(f"v_count must be >= 1, got {v_count}")
    v_nodes = scale_nodes(V, v_count)
    gamma = _gammas(model, ell_grid, v_nodes, alpha_ref)
    Gamma = math.fsum(gamma) * (V / v_count)
    return VariogramResult(v_nodes, gamma, V, Gamma, Gamma / V)


def ivars_weights(ell_grid: Grid, V: float, v_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(v_nodes, weights) recovering the integrated-variogram expectation:
    uniform over scales, conditionally uniform over the valid locations of
    each scale. weights[i, j] is the mass at (v_i, ell_j); rows of invalid
    pairs are zero; the whole matrix sums to 1."""
    v_nodes = scale_nodes(V, v_count)
    valid, counts = _valid_pairs(ell_grid, v_nodes)
    return v_nodes, valid / (v_count * counts[:, None])


def vars_weights(
    ell_grid: Grid, v_nodes: np.ndarray, v_prime: float
) -> np.ndarray:
    """Delta-at-one-scale weights (uniform over valid locations) recovering
    the plain variogram at the v-node nearest to v_prime."""
    v_nodes = np.asarray(v_nodes, float)
    i = int(np.argmin(np.abs(v_nodes - v_prime)))
    valid, counts = _valid_pairs(ell_grid, v_nodes[i:i + 1])
    w = np.zeros((v_nodes.size, valid.shape[1]))
    w[i] = valid[0] / counts[0]
    return w


def generalized_expectation(
    model: ModelFunction,
    ell_grid: Grid,
    v_nodes: np.ndarray,
    weights: np.ndarray,
    alpha_ref=None,
) -> float:
    """Sum over (v, ell) of weight * (M(ell+v) - M(ell))^2 / 2 for an
    arbitrary joint probability over scales and locations. ell is the
    model's first input, as in `variogram`."""
    v_nodes = np.asarray(v_nodes, float)
    ell = _ell_axis(ell_grid)
    weights = np.asarray(weights, float)
    if weights.shape != (v_nodes.size, ell.size):
        raise GridError(
            f"weights shape {weights.shape} != (n_v, n_ell) = ({v_nodes.size}, {ell.size})"
        )
    if not np.isfinite(v_nodes).all():
        raise GridError("scale nodes must be finite")
    if np.any(weights < 0):
        raise GridError("weights must be non-negative")
    total = math.fsum(weights.ravel())
    if abs(total - 1.0) > 1e-6:
        raise GridError(f"weights sum to {total}, expected 1 within 1e-6")
    used = weights.any(axis=1)
    weights = weights[used]
    products = np.empty_like(weights)
    # Weights may sit on pairs beyond the grid too: no upper bound, every pair.
    for rows, _, sq in _square_diff_blocks(model, ell, v_nodes[used], alpha_ref, math.inf):
        products[rows] = weights[rows] * sq / 2.0
    return math.fsum(products.ravel())


def local_square_deviation(
    model: ModelFunction, grid: Grid, scenario: MeasurementScenario
) -> np.ndarray:
    """Expected squared deviation of the response at each of the scenario's
    locations under its truncated-Gaussian measurement uncertainty, (L,), by
    midpoint quadrature over a deviation-coordinate (x, alpha) grid; the CLI
    passes `distributions.deviation_grid(grid, scenario)`.

    The Gaussian is separable and the same at every location in deviation
    coordinates, so half the sum of p * s^2 contracts s^2 with one set of
    per-axis factors (scenario_factors at the single location 0, already
    normalized), built once: no N-length weight vector and no fsum over N.
    """
    f = scenario_factors(grid, scenario.at(0.0))
    out = np.empty(scenario.n_locations)
    for i, ell in enumerate(scenario.locations):
        # Squared in place: one N-sized array per location, not three.
        sq = eval_deviation(model, grid, ell)
        sq *= sq
        out[i] = 0.5 * float(f.pre @ (sq @ f.post) @ f.x_block[0])
    return out
