"""Vectorized uncertainty propagation and input-probability sensitivity analysis.

Builds a reusable sparse model matrix from grid evaluations of a deterministic
model, propagates many discretized input distributions through it at once, and
layers variogram-based and per-location sensitivity analysis on top, with a
Monte Carlo baseline and a scaling benchmark harness.
"""

__version__ = "0.1.0"

from .grid import Dim, Grid, GridSpec, make_grid
from .models import ModelFunction, builtin, eval_on_grid, parse_expression
from .distributions import (
    MeasurementScenario,
    ProbabilityMatrix,
    ProbabilityVector,
    gaussian_on_grid,
    scenario_matrix,
)
from .engine import (
    InvertedModelMatrix,
    OutputBinning,
    OutputProbabilityMatrix,
    SparseModelMatrix,
    build_model_matrix,
    invert,
    load_matrix,
    matrix_from_model,
    posterior,
    propagate,
    propagate_many,
    propagate_scenario,
    save_matrix,
)
from .mc import McConfig, gaussian_sampler, mc_propagate, mc_propagate_many
from .ipsa import (
    IpsaMatrix,
    SummaryFields,
    deviation_statistic_matrix,
    output_matrix,
    reference_curve,
    summarize,
    to_deviations,
)
from .variogram import (
    VariogramResult,
    generalized_expectation,
    integrated_variogram,
    ivars_weights,
    local_square_deviation,
    variogram,
    vars_weights,
)
from .bench import BenchResult, BenchRow, Thresholds, assert_complexity, run_sweep
