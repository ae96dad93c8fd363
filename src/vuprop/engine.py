"""Sparse model matrix: build, propagate, Bayes-invert, serialize.

The matrix of the discretized deterministic propagator has exactly one
nonzero (a 1) per input column, so it is stored as an index map
input-cell -> output-bin and the matrix product degenerates to a scatter-add
of cost O(N) per propagated column (`propagate`, `propagate_many`). A model
matrix is always binned over its outputs' own exact range; binning onto a
fixed axis is `OutputBinning.assign` alone.

A measurement scenario needs no per-column pass over the grid:
`propagate_scenario` propagates all L locations in O(N + L * nx * K) time
(nx x nodes, K bins) and O(N + L * (nx + K)) memory, independent of N * L.

A bin index is stored in 2 bytes (uint16) when K <= 2^16 and in 4 (uint32)
otherwise; a loaded sidecar's indices are a read-only view of its u32 bytes.
Every loop over the N nodes runs in blocks of about `grid.BLOCK` consecutive
nodes, so the build holds N outputs, N bin indices and one block of
temporaries, and the fold holds the N indices, one block and its (L, K)
result: each block of x rows is folded into the result as it is made, so the
nx * K operator is never held whole.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import grid as grid_module
from .distributions import (
    MeasurementScenario,
    ProbabilityMatrix,
    ProbabilityVector,
    ScenarioFactors,
    scenario_factors,
)
from .errors import EvaluationError, GridError, NoSupportError, SidecarFormatError
from .grid import Grid
from .models import ModelFunction, eval_on_grid

_MAGIC = b"VUPM"
_VERSION = 1


@dataclass(frozen=True)
class OutputBinning:
    """K uniform bins spanning [y_min, y_max], half-open with the last closed."""

    K: int
    y_min: float
    y_max: float

    def __post_init__(self):
        K, lo, hi = self.K, self.y_min, self.y_max
        if not (isinstance(K, (int, np.integer)) and not isinstance(K, bool) and K >= 1
                and math.isfinite(lo) and math.isfinite(hi) and (lo < hi or lo == hi and K == 1)):
            raise GridError(f"output binning needs an integer K >= 1 and finite y_min <= y_max "
                            f"(one bin when equal), got K = {K!r} on [{lo!r}, {hi!r}]")

    @classmethod
    def spanning(cls, K: int, y_min: float, y_max: float) -> "OutputBinning":
        """K bins over [y_min, y_max]; a constant range collapses to one bin."""
        return cls(K if y_max > y_min else 1, y_min, y_max)

    @property
    def width(self) -> float:
        if self.K == 1:
            return 1.0 if self.y_max == self.y_min else self.y_max - self.y_min
        return (self.y_max - self.y_min) / self.K

    @property
    def centers(self) -> np.ndarray:
        b = (self.y_max - self.y_min) / self.K
        return self.y_min + (np.arange(self.K) + 0.5) * b

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.K + 1)

    def assign(self, y: np.ndarray) -> np.ndarray:
        """Bin index per value: floor((y - y_min)/b), clamped into [0, K-1].

        The values must be finite; every caller checks. Clamped before the
        integer cast, so a huge finite value lands in the end bin nearest it;
        of the callers only `mc` can pass values outside [y_min, y_max].
        Indices are uint16 when K <= 2^16, else uint32. Works in place in
        one block-sized buffer; y is never written."""
        y = np.asarray(y, float)
        dtype = np.uint16 if self.K <= 1 << 16 else np.uint32
        if self.K == 1:
            return np.zeros(y.shape, dtype=dtype)
        b = (self.y_max - self.y_min) / self.K
        out = np.empty(y.shape, dtype=dtype)
        flat, flat_out = y.reshape(-1), out.reshape(-1)
        block = grid_module.BLOCK
        buf = np.empty(min(flat.size, block))
        with np.errstate(over="ignore"):  # an infinite quotient clamps like any other
            for start in range(0, flat.size, block):
                t = buf[:flat.size - start]
                np.subtract(flat[start:start + t.size], self.y_min, out=t)
                np.divide(t, b, out=t)
                np.floor(t, out=t)
                np.clip(t, 0, self.K - 1, out=t)
                flat_out[start:start + t.size] = t
        return out


@dataclass(frozen=True)
class SparseModelMatrix:
    bin_of: np.ndarray  # (N,) unsigned int, bin index per node
    binning: OutputBinning
    grid: Grid = field(repr=False)
    model_name: str = ""

    @property
    def N(self) -> int:
        return self.bin_of.size

    @property
    def K(self) -> int:
        return self.binning.K


@dataclass(frozen=True)
class OutputProbabilityMatrix:
    values: np.ndarray  # (K, L)
    binning: OutputBinning
    locations: np.ndarray  # (L,)
    # (2, L) mass clamped into the end bins from below y_min and above y_max;
    # None where no value can fall outside the binning
    clamped: np.ndarray | None = None

    @property
    def n_locations(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class InvertedModelMatrix:
    """Row-wise Bayes posteriors over inputs, conditioned on one prior."""

    rows: tuple  # per output bin: (input index array, posterior prob array)
    output: np.ndarray  # propagated prior, length K
    prior: ProbabilityVector = field(repr=False)
    matrix: SparseModelMatrix = field(repr=False)


def build_model_matrix(
    outputs: np.ndarray,
    K: int,
    grid: Grid | None = None,
    model_name: str = "",
) -> SparseModelMatrix:
    """Bin model outputs into K uniform bins spanning their exact range.

    A constant-output model collapses to K = 1.
    """
    outputs = np.asarray(outputs, float)
    if outputs.size == 0:
        raise EvaluationError("no model outputs to bin")
    if K < 1:
        raise EvaluationError(f"bin count must be >= 1, got {K}")
    # Every output is finite iff both extremes are (a nan reaches both).
    y_min, y_max = float(outputs.min()), float(outputs.max())
    if not (math.isfinite(y_min) and math.isfinite(y_max)):
        raise EvaluationError("non-finite model outputs")
    binning = OutputBinning.spanning(K, y_min, y_max)
    return SparseModelMatrix(binning.assign(outputs), binning, grid, model_name)


def matrix_from_model(model: ModelFunction, grid: Grid, K: int) -> SparseModelMatrix:
    return build_model_matrix(eval_on_grid(model, grid), K, grid=grid, model_name=model.name)


def propagate(matrix: SparseModelMatrix, p: ProbabilityVector | np.ndarray) -> np.ndarray:
    """Scatter-add input masses into their output bins; returns length-K vector."""
    values = p.values if isinstance(p, ProbabilityVector) else np.asarray(p, float)
    if values.shape != (matrix.N,):
        raise GridError(
            f"input vector length {values.shape} does not match matrix N = {matrix.N}"
        )
    return np.bincount(matrix.bin_of, weights=values, minlength=matrix.K)


def propagate_many(matrix: SparseModelMatrix, P: ProbabilityMatrix) -> OutputProbabilityMatrix:
    """Propagate every column through the one shared matrix."""
    if matrix.grid is not None and P.grid.size != matrix.N:
        raise GridError("probability matrix grid does not match model matrix grid")
    out = np.empty((matrix.K, P.n_locations))
    for i in range(P.n_locations):
        out[:, i] = propagate(matrix, P.columns[:, i])
    return OutputProbabilityMatrix(out, matrix.binning, P.locations.copy())


# Branch rule of propagate_scenario. Measured on a 2-vCPU Xeon VM (numpy
# 2.4.6, one BLAS thread, medians of 9) at N = 1e6: the blocked fold costs
# 5.3-5.6 ms, and at L = 2 it already beats the stream (5.4 against 14.7 ms),
# so the threshold could drop to 2; it has not been moved. L = 1 stays
# streamed whatever it becomes: bench's t_vup(1) feeds the single-pdf parity
# gate. The cap bounds the fold's block of A, min(nx, BLOCK // n_alpha) * K
# cells, by nx * K <= 4 * N: past it, a 1-D grid at K = 500 would fold
# 2^16 * 500 cells (262 MB) at a time.
_FOLD_MIN_L = 3
_FOLD_MAX_RATIO = 4


def propagate_scenario(
    matrix: SparseModelMatrix, scenario: MeasurementScenario
) -> OutputProbabilityMatrix:
    """Propagate every location of a scenario.

    Equals propagate_many(matrix, scenario_matrix(matrix.grid, scenario))
    without forming the (N, L) input matrix. Only the x factor of a column
    depends on its location, so one of two branches runs, chosen by shape:

    - fold (L >= 3 and nx * K <= 4 * N): the alpha factors and the bin index
      collapse into the operator A[x, k] = sum_alpha w(alpha) [bin(x, alpha)
      = k] by one weighted bincount per block of whole x rows, and each
      block of A is added into out.T as x_block[:, rows] @ A[rows] before the
      next is made. Sums run in another order, so results can differ from the
      column path by a few ULP.
    - stream (otherwise): each column is built from the factors (N transient
      floats) and propagated; bit-identical to the column path.
    """
    grid = matrix.grid
    if grid is None or grid.size != matrix.N:
        raise GridError("propagate_scenario needs a model matrix built on the scenario's grid")
    factors = scenario_factors(grid, scenario)
    L, nx = factors.x_block.shape
    if L >= _FOLD_MIN_L and nx * matrix.K <= _FOLD_MAX_RATIO * matrix.N:
        out = _propagate_folded(matrix, factors)
    else:
        out = _propagate_streamed(matrix, factors)
    return OutputProbabilityMatrix(out, matrix.binning, scenario.locations.copy())


def _propagate_folded(matrix: SparseModelMatrix, f: ScenarioFactors) -> np.ndarray:
    # A block holds whole x rows (every alpha node of its x nodes), so each
    # cell of A receives its terms in flat order, as one bincount over N
    # would add them. Its rows of A are folded into out at once and dropped.
    L, nx = f.x_block.shape
    K = matrix.K
    bins = matrix.bin_of.reshape(f.pre.size, nx, f.post.size)
    weights = np.multiply.outer(f.pre, f.post)[:, None, :]
    step = max(1, grid_module.BLOCK // weights.size)
    out = np.zeros((L, K))
    product = np.empty((L, K))
    for x0 in range(0, nx, step):
        rows = bins[:, x0:x0 + step]
        index = rows + (K * np.arange(rows.shape[1]))[None, :, None]
        A = np.bincount(
            index.ravel(), weights=np.broadcast_to(weights, index.shape).ravel(),
            minlength=index.shape[1] * K,
        ).reshape(-1, K)
        out += np.matmul(f.x_block[:, x0:x0 + rows.shape[1]], A, out=product)
    return out.T


def _propagate_streamed(matrix: SparseModelMatrix, f: ScenarioFactors) -> np.ndarray:
    out = np.empty((matrix.K, f.x_block.shape[0]))
    column = np.empty(matrix.N)  # one array for every column: fresh ones were faulted in anew
    for i in range(out.shape[1]):
        out[:, i] = propagate(matrix, f.column(i, column))
    return out


def invert(matrix: SparseModelMatrix, prior: ProbabilityVector) -> InvertedModelMatrix:
    """Bayes posteriors p(input | output bin) under the given prior."""
    out = propagate(matrix, prior)
    order = np.argsort(matrix.bin_of, kind="stable")
    sorted_bins = matrix.bin_of[order]
    boundaries = np.searchsorted(sorted_bins, np.arange(matrix.K + 1))
    rows = []
    for r in range(matrix.K):
        members = order[boundaries[r]:boundaries[r + 1]]
        if out[r] > 0.0:
            rows.append((members, prior.values[members] / out[r]))
        else:
            rows.append((members[:0], np.empty(0)))
    return InvertedModelMatrix(tuple(rows), out, prior, matrix)


def posterior(inv: InvertedModelMatrix, bin: int) -> ProbabilityVector:
    """Dense posterior over inputs for one output bin."""
    if not 0 <= bin < len(inv.rows):
        raise GridError(f"bin {bin} outside [0, {len(inv.rows)})")
    members, probs = inv.rows[bin]
    if probs.size == 0:
        raise NoSupportError(f"output bin {bin} has zero probability under the prior")
    values = np.zeros(inv.matrix.N)
    values[members] = probs
    return ProbabilityVector(values, inv.prior.grid)


def reconstruct_prior(inv: InvertedModelMatrix) -> np.ndarray:
    """Sum of out[r] * posterior_r; equals the prior (Bayes round trip)."""
    values = np.zeros(inv.matrix.N)
    for r, (members, probs) in enumerate(inv.rows):
        if probs.size:
            values[members] += inv.output[r] * probs
    return values


# --- binary sidecar ----------------------------------------------------------
# Header: magic "VUPM", u32 version, u64 N, u64 K, f64 y_min, f64 y_max,
# then N little-endian u32 bin indices.

def save_matrix(path, matrix: SparseModelMatrix) -> None:
    header = _MAGIC + struct.pack(
        "<IQQdd", _VERSION, matrix.N, matrix.K, matrix.binning.y_min, matrix.binning.y_max
    )
    body = np.ascontiguousarray(matrix.bin_of, dtype="<u4")  # no copy if already u4
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)  # through the buffer protocol: no bytes copy


def load_matrix(path, grid: Grid | None = None, model_name: str = "") -> SparseModelMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise SidecarFormatError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    try:
        version, n, k, y_min, y_max = struct.unpack("<IQQdd", blob[4:40])
    except struct.error:
        raise SidecarFormatError(f"{path}: truncated header") from None
    if version != _VERSION:
        raise SidecarFormatError(f"{path}: unsupported version {version}")
    if len(blob) - 40 != 4 * n:
        raise SidecarFormatError(f"{path}: expected {4 * n} index bytes, got {len(blob) - 40}")
    try:
        binning = OutputBinning(int(k), y_min, y_max)
    except GridError as exc:
        raise SidecarFormatError(f"{path}: {exc}") from None
    bin_of = np.frombuffer(blob, dtype="<u4", offset=40)  # a read-only view, no copy
    if bin_of.size and bin_of.max() >= k:
        raise SidecarFormatError(f"{path}: bin index out of range")
    if grid is not None and grid.size != n:
        raise SidecarFormatError(f"{path}: matrix N = {n} does not match grid size {grid.size}")
    return SparseModelMatrix(bin_of, binning, grid, model_name)


def matrix_manifest(matrix: SparseModelMatrix) -> dict:
    """A sidecar's build record, as JSON: `build-matrix` writes it into
    manifest.json, and `propagate --matrix` checks its grid and model."""
    manifest = {
        "model": matrix.model_name,
        "N": matrix.N,
        "K": matrix.K,
        "y_min": matrix.binning.y_min,
        "y_max": matrix.binning.y_max,
    }
    if matrix.grid is not None:
        manifest["grid"] = [
            {"name": d.name, "lower": d.lower, "upper": d.upper, "count": d.count, "role": d.role}
            for d in matrix.grid.spec.dims
        ]
    return manifest
