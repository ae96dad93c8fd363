"""Uniform midpoint-rule grids over the joint (x, alpha) input space.

A grid is flattened row-major with the first dimension varying slowest, so
listing data-like dimensions before parameter-like ones gives contiguous
alpha-blocks per x node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError

# Nodes per block in the loops that walk a grid in flat order
# (`Grid.node_blocks`, `OutputBinning.assign`, the fold of
# `engine.propagate_scenario`): a block-sized float column is 512 KiB, so a
# block's few temporaries stay in cache and none of them grows with N.
BLOCK = 1 << 16


@dataclass(frozen=True)
class Dim:
    """One grid dimension: half-open cells on [lower, upper] with midpoint nodes."""

    name: str
    lower: float
    upper: float
    count: int
    role: str = "x"  # "x" (data-like) or "alpha" (parameter-like)

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise GridError(f"dimension {self.name!r}: bounds must be finite")
        if self.lower >= self.upper:
            raise GridError(
                f"dimension {self.name!r}: lower ({self.lower}) must be < upper ({self.upper})"
            )
        if self.count < 1:
            raise GridError(f"dimension {self.name!r}: count must be >= 1, got {self.count}")
        if self.role not in ("x", "alpha"):
            raise GridError(f"dimension {self.name!r}: role must be 'x' or 'alpha'")

    @property
    def step(self) -> float:
        return (self.upper - self.lower) / self.count

    def nodes(self) -> np.ndarray:
        # Centered construction: node_i = center + (2i + 1 - count) * step/2.
        # Equal to lower + (i + 0.5)*step, but makes symmetric grids exactly
        # antisymmetric about their center in floating point.
        center = 0.5 * (self.lower + self.upper)
        offsets = 2 * np.arange(self.count, dtype=np.int64) + 1 - self.count
        return center + offsets * (self.step / 2.0)


@dataclass(frozen=True)
class GridSpec:
    dims: tuple[Dim, ...]

    def __post_init__(self):
        if not self.dims:
            raise GridError("grid needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise GridError(f"duplicate dimension names: {names}")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(d.count for d in self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.counts, dtype=np.int64))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def x_index(self) -> int:
        """Position of the single x dimension; GridError unless there is exactly one."""
        found = [d for d, dim in enumerate(self.dims) if dim.role == "x"]
        if len(found) != 1:
            raise GridError(f"needs exactly one x dimension, got {len(found)}")
        return found[0]


class Grid:
    """Realized grid: node coordinates, per-dimension steps, cell volume."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.axes = [d.nodes() for d in spec.dims]
        self.steps = np.array([d.step for d in spec.dims])
        self.cell_volume = float(np.prod(self.steps))

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """(N, ndim) node coordinates, row-major: first dimension slowest.
        A convenience for tests and library callers: no command builds it,
        because `node_blocks` and the broadcast `axes` give the same values
        without an N-sized array."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def node_blocks(self):
        """(start, columns) for consecutive blocks of at most BLOCK flat
        nodes: columns[d] holds the block's values of `nodes[:, d]`. A block
        is a run of whole rows over the trailing dimensions, the shortest
        trailing run that fits in BLOCK nodes (a single node if none does)."""
        counts = self.spec.counts
        lead = next(d for d in range(self.ndim + 1) if math.prod(counts[d:]) <= BLOCK)
        row = math.prod(counts[lead:])
        tail = [m.ravel() for m in np.meshgrid(*self.axes[lead:], indexing="ij")]
        n_rows = math.prod(counts[:lead])
        per_block = BLOCK // row
        for first in range(0, n_rows, per_block):
            rows = np.arange(first, min(first + per_block, n_rows))
            columns = [np.repeat(self.axes[d][rows // math.prod(counts[d + 1:lead]) % counts[d]],
                                 row) for d in range(lead)]
            yield first * row, columns + [np.tile(t, rows.size) for t in tail]

    @property
    def size(self) -> int:
        return self.spec.size

    @property
    def ndim(self) -> int:
        return self.spec.ndim

    def __repr__(self):
        dims = ", ".join(
            f"{d.name}[{d.lower}, {d.upper}]x{d.count}" for d in self.spec.dims
        )
        return f"Grid({dims})"


def make_grid(spec: GridSpec) -> Grid:
    return Grid(spec)


def flat_index(grid: Grid, multi_index) -> int:
    """Row-major flat index of a multi-index; rejects out-of-range components."""
    counts = grid.spec.counts
    multi = tuple(int(m) for m in multi_index)
    if len(multi) != len(counts):
        raise GridError(f"multi-index has {len(multi)} components, grid has {len(counts)}")
    for d, (m, c) in enumerate(zip(multi, counts)):
        if not 0 <= m < c:
            raise GridError(f"multi-index component {d} = {m} outside [0, {c})")
    return int(np.ravel_multi_index(multi, counts))


def multi_index(grid: Grid, flat: int) -> tuple[int, ...]:
    """Inverse of flat_index."""
    if not 0 <= flat < grid.size:
        raise GridError(f"flat index {flat} outside [0, {grid.size})")
    return tuple(int(i) for i in np.unravel_index(flat, grid.spec.counts))
