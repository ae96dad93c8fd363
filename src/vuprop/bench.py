"""Wall-clock scaling harness: MC vs shared-matrix propagation across L and N.

Measurements are medians over repetitions with one discarded warm-up run.
Computed outputs are deterministic; only the timing fields vary. Assertions
are about ratios, never absolute seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .distributions import MeasurementScenario, scenario_factors
from .engine import OutputBinning, matrix_from_model, propagate_scenario
from .errors import GridError
from .grid import Dim, Grid, GridSpec, make_grid
from .mc import McConfig, draw_samples, location_sampler, location_seed, mc_propagate
from .models import ModelFunction


@dataclass(frozen=True)
class BenchRow:
    method: str  # "mc" or "vup"
    N: int
    L: int
    repetitions: int
    median_s: float
    min_s: float
    max_s: float
    breakdown: dict  # per-phase seconds (medians)

    def __post_init__(self):
        if not (self.min_s <= self.median_s <= self.max_s):
            raise GridError("median time must lie within [min, max]")


@dataclass(frozen=True)
class BenchResult:
    rows: tuple

    def lookup(self, method: str, N: int, L: int) -> BenchRow:
        for row in self.rows:
            if row.method == method and row.N == N and row.L == L:
                return row
        raise GridError(f"no bench row for ({method}, N={N}, L={L})")


@dataclass(frozen=True)
class Thresholds:
    """Ratio thresholds; defaults sized for a desk-scale CPU run."""

    vup_ratio_max: float = 50.0
    mc_ratio_min: float = 50.0
    mc_ratio_max: float = 200.0
    crossover_max: int = 20
    single_pdf_factor: float = 5.0
    ratio_L: int = 100  # the L whose time is compared against L = 1


@dataclass(frozen=True)
class ComplexityReport:
    checks: dict  # name -> (passed, detail)

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def lines(self):
        for name, (ok, detail) in self.checks.items():
            yield f"{'PASS' if ok else 'FAIL'} {name}: {detail}"


def _scaled_spec(template: GridSpec, target_n: int) -> GridSpec:
    """Scale every dimension count by a common factor so the total node count
    approximates target_n (dimension proportions preserved)."""
    base_n = template.size
    factor = (target_n / base_n) ** (1.0 / template.ndim)
    dims = tuple(
        Dim(d.name, d.lower, d.upper, max(1, round(d.count * factor)), d.role)
        for d in template.dims
    )
    return GridSpec(dims)


def _timed(fn, repetitions: int):
    """Median/min/max seconds over repetitions, after one discarded warm-up."""
    fn()
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), min(times), max(times)


def _vup_row(model, grid: Grid, scenario, K, repetitions) -> BenchRow:
    build = _timed(lambda: matrix_from_model(model, grid, K), repetitions)
    matrix = matrix_from_model(model, grid, K)
    pdf = _timed(lambda: scenario_factors(grid, scenario), repetitions)
    prop = _timed(lambda: propagate_scenario(matrix, scenario), repetitions)

    def full():
        propagate_scenario(matrix_from_model(model, grid, K), scenario)

    med, lo, hi = _timed(full, repetitions)
    return BenchRow(
        "vup", grid.size, scenario.n_locations, repetitions, med, lo, hi,
        {"matrix_build_s": build[0], "pdf_build_s": pdf[0], "propagate_s": prop[0]},
    )


def _mc_row(model, grid: Grid, scenario, K, repetitions, seed) -> BenchRow:
    n_samples = grid.size

    def full():
        for idx, ell in enumerate(scenario.locations):
            mc_propagate(model, location_sampler(grid, scenario, ell),
                         McConfig(n_samples, K, location_seed(seed, idx)))

    med, lo, hi = _timed(full, repetitions)
    # Phase breakdown measured once on the first location.
    sampler = location_sampler(grid, scenario, scenario.locations[0])
    sample = _timed(lambda: draw_samples(sampler, n_samples, seed), max(1, repetitions // 2))
    samples = draw_samples(sampler, n_samples, seed)
    eval_t = _timed(lambda: model.raw(*(samples[:, d] for d in range(grid.ndim))),
                    max(1, repetitions // 2))
    y = np.asarray(model.raw(*(samples[:, d] for d in range(grid.ndim))))
    y_min, y_max = float(y.min()), float(y.max())
    bin_t = _timed(lambda: np.bincount(OutputBinning.spanning(K, y_min, y_max).assign(y)),
                   max(1, repetitions // 2))  # the binning mc_propagate runs
    return BenchRow(
        "mc", grid.size, scenario.n_locations, repetitions, med, lo, hi,
        {"sample_s": sample[0], "eval_s": eval_t[0], "bin_s": bin_t[0]},
    )


def run_sweep(
    model: ModelFunction,
    grid_template: GridSpec,
    grid_sizes,
    L_values,
    scenario_template: MeasurementScenario,
    K: int,
    repetitions: int = 3,
    seed: int = 0,
) -> BenchResult:
    """Time both methods for every (N, L) pair; one warm-up discarded per cell."""
    if repetitions < 3:
        raise GridError(f"repetitions must be >= 3, got {repetitions}")
    rows = []
    for target_n in grid_sizes:
        spec = _scaled_spec(grid_template, target_n)
        grid = make_grid(spec)
        for L in L_values:
            lo, hi = scenario_template.locations.min(), scenario_template.locations.max()
            ells = np.linspace(lo, hi, L) if L > 1 else np.array([(lo + hi) / 2.0])
            scenario = replace(scenario_template, locations=ells, weights=None)
            rows.append(_vup_row(model, grid, scenario, K, repetitions))
            rows.append(_mc_row(model, grid, scenario, K, repetitions, seed))
    return BenchResult(tuple(rows))


def assert_complexity(result: BenchResult, thresholds: Thresholds = Thresholds()) -> ComplexityReport:
    """Check sublinearity of the shared-matrix method, linearity of MC, the
    crossover point, and the single-distribution cost parity."""
    t = thresholds
    checks = {}
    n = max(row.N for row in result.rows)  # evaluate at the largest grid in the sweep
    vup1 = result.lookup("vup", n, 1).median_s
    mc1 = result.lookup("mc", n, 1).median_s
    vupL = result.lookup("vup", n, t.ratio_L).median_s
    mcL = result.lookup("mc", n, t.ratio_L).median_s

    ratio = vupL / vup1
    checks["vup_sublinear"] = (
        ratio < t.vup_ratio_max,
        f"t_vup({t.ratio_L})/t_vup(1) = {ratio:.2f} (limit {t.vup_ratio_max})",
    )
    ratio = mcL / mc1
    checks["mc_linear"] = (
        t.mc_ratio_min <= ratio <= t.mc_ratio_max,
        f"t_mc({t.ratio_L})/t_mc(1) = {ratio:.2f} (range [{t.mc_ratio_min}, {t.mc_ratio_max}])",
    )
    crossover = next((L for L in sorted({row.L for row in result.rows})
                      if result.lookup("vup", n, L).median_s < result.lookup("mc", n, L).median_s),
                     None)
    checks["crossover"] = (
        crossover is not None and crossover <= t.crossover_max,
        f"first L with t_vup < t_mc: {crossover} (limit {t.crossover_max})",
    )
    factor = max(vup1 / mc1, mc1 / vup1)
    checks["single_pdf_parity"] = (
        factor <= t.single_pdf_factor,
        f"t_vup(1) vs t_mc(1) factor = {factor:.2f} (limit {t.single_pdf_factor})",
    )
    return ComplexityReport(checks)
