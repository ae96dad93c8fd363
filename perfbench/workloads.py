"""The benchmark's workloads: seeded run-configs, the `vuprop` command
sequence each one runs, the set-up each one pays before its first location,
and the checks on the files the commands write.

Every workload uses the same grid roles (x on [-4, 4], alpha on [-1, 1]),
sigma_ell = 0.4, sigma_alpha = 0.25 and K = 500. Locations are drawn from the
workload seed inside the x extent; the program receives only the YAML config.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

X_EXTENT = (-4.0, 4.0)
ALPHA_EXTENT = (-1.0, 1.0)
SIGMA_ELL = 0.4
SIGMA_ALPHA = 0.25
K = 500

SUM_TOL = 1e-9  # column sums, as vuprop.distributions.SUM_TOL
MATCH_TOL = 1e-12  # recomputed propagation columns
MOMENT_TOL = 1e-9  # summary moments, relative to max(1, |E[d^2]|)
DELTA_SQ_RTOL = 1e-4  # local square deviation, the acceptance-suite bound
MC_TV_MAX = 0.02  # MC against matrix propagation, the acceptance-suite bound

EXPRESSION = "x^2 + 5*sin(3*x) + a"


def ipsa2d(x, a):
    """The model of both the builtin `ipsa2d` and EXPRESSION, written out
    independently of vuprop for the reference quadrature."""
    return x ** 2 + 5 * np.sin(3 * x) + a


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "propagate" | "ipsa" | "vars" | "reuse"
    nx: int
    na: int
    n_locations: int
    why: str
    expression: bool = False  # model given as EXPRESSION instead of the builtin
    mc_samples: int = 0

    @property
    def n_nodes(self) -> int:
        return self.nx * self.na

    @property
    def largest_array_bytes(self) -> int:
        """The dense (N, L) float64 input matrix; vars-local builds none, and
        its largest array is the (N, 2) node array of the deviation grid."""
        if self.command == "vars":
            return 16 * self.n_nodes
        return 8 * self.n_nodes * self.n_locations


WORKLOADS = {w.name: w for w in (
    Workload(
        "prop-wide", "propagate", 2000, 500, 100,
        "propagate ipsa2d, N=1e6 (2000x500), L=100, K=500: the 800 MB (N, L) pdf matrix is "
        "7.6x the 105 MB L3, so pdf build and scatter-add propagation dominate",
    ),
    Workload(
        "ipsa-report", "ipsa", 1000, 200, 200,
        "ipsa ipsa2d, N=2e5 (1000x200), L=200, K=500, mode reference: CSV result writing is "
        "about half the run, then summaries, re-binning and YAML parsing",
    ),
    Workload(
        "vars-local", "vars", 1000, 200, 16,
        "vars on the ipsa-report grid, L=16, model as an expression: variogram quadrature and "
        "2*N*L parsed-model points, no model matrix; bypasses engine",
        expression=True,
    ),
    Workload(
        "reuse-narrow", "reuse", 2000, 500, 4,
        "build-matrix, propagate --matrix, mc --fixed-binning-from at N=1e6, L=4, 2.5e5 MC "
        "samples: the small-L regime where build, sidecar I/O and MC cost alike",
        mc_samples=250_000,
    ),
)}


# --- inputs ------------------------------------------------------------------

def locations(workload: Workload, seed: int) -> list[float]:
    """Sorted measurement locations drawn uniformly inside the x extent."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    return sorted(float(v) for v in rng.uniform(*X_EXTENT, workload.n_locations))


def make_config(workload: Workload, seed: int) -> dict:
    if workload.expression:
        model = {"expression": EXPRESSION, "variables": ["x", "a"]}
    else:
        model = {"builtin": "ipsa2d"}
    config = {
        "seed": seed,
        "model": model,
        "scenario": {"locations": locations(workload, seed),
                     "sigma_ell": SIGMA_ELL, "sigma_alpha": SIGMA_ALPHA},
        "grid": {"dims": [
            {"name": "x", "lower": X_EXTENT[0], "upper": X_EXTENT[1],
             "count": workload.nx, "role": "x"},
            {"name": "a", "lower": ALPHA_EXTENT[0], "upper": ALPHA_EXTENT[1],
             "count": workload.na, "role": "alpha"},
        ]},
        "output": {"k": K},
    }
    if workload.mc_samples:
        config["mc"] = {"n_samples": workload.mc_samples}
    return config


def write_config(workload: Workload, seed: int, path: Path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(make_config(workload, seed), fh)


def commands(workload: Workload, config: Path, out_dir: Path) -> list[list[str]]:
    """argv lists for `vuprop.cli.main`, run in order, each after the last ends."""
    base = ["--config", str(config), "--out-dir", str(out_dir)]
    if workload.command != "reuse":
        return [[workload.command] + base]
    return [
        ["build-matrix"] + base,
        ["propagate"] + base + ["--matrix", str(out_dir / "model_matrix.vupm")],
        ["mc"] + base + ["--fixed-binning-from", str(out_dir / "output_matrix.csv")],
    ]


def setup(kind: str, config: Path, out_dir: Path) -> None:
    """What is paid once before the first location: load the config, realise
    the grid, and build the model matrix (load it, for reuse-narrow; none for
    vars-local). Imports vuprop itself, so a fresh interpreter times the
    import too."""
    from vuprop.config import RunConfig
    from vuprop.engine import load_matrix, matrix_from_model
    from vuprop.grid import make_grid

    cfg = RunConfig.load(config)
    model = cfg.model()
    grid = make_grid(cfg.grid_spec())
    if kind == "reuse":
        load_matrix(out_dir / "model_matrix.vupm", grid=grid, model_name=model.name)
    elif kind != "vars":
        matrix_from_model(model, grid, cfg.output()["k"])


# --- output checks -----------------------------------------------------------

def read_heatmap(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(column labels, row labels, (rows, cols) values) of a vuprop heatmap CSV."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return np.array([float(v) for v in header[1:]]), body[:, 0], body[:, 1:]


def read_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def column_sum_errors(values: np.ndarray, what: str) -> list[str]:
    errors = []
    for i in range(values.shape[1]):
        total = math.fsum(values[:, i])
        if not abs(total - 1.0) <= SUM_TOL:
            errors.append(f"{what} column {i} sums to {total!r}")
    return errors


def _locations_errors(found: np.ndarray, expected: list[float], what: str) -> list[str]:
    if found.shape != (len(expected),) or not np.array_equal(found, expected):
        return [f"{what}: locations differ from the config"]
    return []


def delta_sq_reference(workload: Workload, ell: float) -> float:
    """Expected squared deviation at ell by direct midpoint quadrature over
    the deviation grid (x within 4 sigma_ell, alpha over its extent), with the
    truncated product Gaussian renormalised on the grid."""
    half = 4 * SIGMA_ELL
    x = -half + (np.arange(workload.nx) + 0.5) * (2 * half / workload.nx)
    width = ALPHA_EXTENT[1] - ALPHA_EXTENT[0]
    a = ALPHA_EXTENT[0] + (np.arange(workload.na) + 0.5) * (width / workload.na)
    w = np.outer(np.exp(-0.5 * (x / SIGMA_ELL) ** 2), np.exp(-0.5 * (a / SIGMA_ALPHA) ** 2))
    sq = (ipsa2d(ell + x[:, None], a[None, :]) - ipsa2d(ell, a[None, :])) ** 2
    return math.fsum((w * sq).ravel()) / (2 * math.fsum(w.ravel()))


class Checker:
    """Checks one workload's outputs. References are computed once per run
    and reused for every command sequence."""

    def __init__(self, workload: Workload, seed: int, config: Path):
        self.workload = workload
        self.seed = seed
        self.config = config
        self.locations = locations(workload, seed)

    @functools.cached_property
    def reference(self):
        from vuprop.config import RunConfig
        from vuprop.distributions import gaussian_on_grid, scenario_matrix
        from vuprop.engine import matrix_from_model, propagate, propagate_many
        from vuprop.grid import make_grid

        w = self.workload
        rng = np.random.default_rng([self.seed, 7])
        if w.command == "vars":
            picks = sorted(int(i) for i in rng.choice(w.n_locations, 2, replace=False))
            return {i: delta_sq_reference(w, self.locations[i]) for i in picks}
        if w.command == "ipsa":
            return None
        cfg = RunConfig.load(self.config)
        grid = make_grid(cfg.grid_spec())
        matrix = matrix_from_model(cfg.model(), grid, K)
        if w.command == "reuse":
            return propagate_many(matrix, scenario_matrix(grid, cfg.scenario())).values
        picks = sorted(int(i) for i in rng.choice(w.n_locations, 3, replace=False))
        return {i: propagate(matrix, gaussian_on_grid(
            grid, (self.locations[i], 0.0), (SIGMA_ELL, SIGMA_ALPHA))) for i in picks}

    def check(self, out_dir: Path) -> dict[int, list[str]]:
        """Failed checks keyed by the index of the command whose output failed."""
        failures = {}
        checks = {
            "propagate": [self._check_propagate],
            "ipsa": [self._check_ipsa],
            "vars": [self._check_vars],
            "reuse": [self._check_sidecar, self._check_reuse_propagate, self._check_mc],
        }[self.workload.command]
        for index, check in enumerate(checks):
            try:
                errors = check(out_dir)
            except (OSError, ValueError, StopIteration, IndexError) as exc:
                errors = [f"{check.__name__}: unreadable output: {exc!r}"]
            if errors:
                failures[index] = errors
        return failures

    def _check_propagate(self, out_dir: Path) -> list[str]:
        locs, _, values = read_heatmap(out_dir / "output_matrix.csv")
        errors = _locations_errors(locs, self.locations, "output_matrix.csv")
        errors += column_sum_errors(values, "output_matrix.csv")
        for i, expected in self.reference.items():
            if values.shape[0] != expected.size:
                errors.append(f"output_matrix.csv has {values.shape[0]} bins, expected {expected.size}")
                break
            err = float(np.max(np.abs(values[:, i] - expected)))
            if not err <= MATCH_TOL:
                errors.append(f"output_matrix.csv column {i} differs from "
                              f"gaussian_on_grid + propagate by {err:.3g}")
        return errors

    def _check_ipsa(self, out_dir: Path) -> list[str]:
        _, _, out = read_heatmap(out_dir / "output_matrix.csv")
        locs, centers, values = read_heatmap(out_dir / "ipsa_matrix.csv")
        errors = _locations_errors(locs, self.locations, "ipsa_matrix.csv")
        errors += column_sum_errors(out, "output_matrix.csv")
        errors += column_sum_errors(values, "ipsa_matrix.csv")
        summary = read_rows(out_dir / "summary.csv")
        if summary.shape[0] != values.shape[1]:
            return errors + [f"summary.csv has {summary.shape[0]} rows, expected {values.shape[1]}"]
        for i in range(values.shape[1]):
            p = values[:, i]
            mean = math.fsum(p * centers)
            ex2 = math.fsum(p * centers * centers)
            var = math.fsum(p * (centers - mean) ** 2)
            scale = max(1.0, ex2)
            if not (abs(summary[i, 1] - mean) <= MOMENT_TOL * scale
                    and abs(summary[i, 2] - var) <= MOMENT_TOL * scale):
                errors.append(f"summary.csv row {i}: mean/var {summary[i, 1:3]} but "
                              f"ipsa_matrix.csv gives {mean!r}/{var!r}")
        marginal = read_rows(out_dir / "global_marginal.csv")
        errors += column_sum_errors(marginal[:, 1:2], "global_marginal.csv")
        return errors

    def _check_vars(self, out_dir: Path) -> list[str]:
        rows = read_rows(out_dir / "delta_sq.csv")
        errors = _locations_errors(rows[:, 0], self.locations, "delta_sq.csv")
        if errors:
            return errors
        for i, expected in self.reference.items():
            found = rows[i, 1]
            if not abs(found - expected) <= DELTA_SQ_RTOL * abs(expected):
                errors.append(f"delta_sq.csv row {i}: {found!r}, direct quadrature {expected!r}")
        gamma = read_rows(out_dir / "gamma.csv")
        if gamma.size == 0 or not np.all(gamma[:, 1] >= 0):
            errors.append("gamma.csv: empty or negative variogram values")
        return errors

    def _check_sidecar(self, out_dir: Path) -> list[str]:
        size = os.path.getsize(out_dir / "model_matrix.vupm")
        expected = 40 + 4 * self.workload.n_nodes
        return [] if size == expected else [f"model_matrix.vupm: {size} bytes, expected {expected}"]

    def _check_reuse_propagate(self, out_dir: Path) -> list[str]:
        locs, _, values = read_heatmap(out_dir / "output_matrix.csv")
        errors = _locations_errors(locs, self.locations, "output_matrix.csv")
        errors += column_sum_errors(values, "output_matrix.csv")
        expected = self.reference
        if values.shape != expected.shape:
            return errors + [f"output_matrix.csv shape {values.shape}, expected {expected.shape}"]
        err = float(np.max(np.abs(values - expected)))
        if not err <= MATCH_TOL:
            errors.append(f"propagation from the sidecar differs from a fresh build by {err:.3g}")
        return errors

    def _check_mc(self, out_dir: Path) -> list[str]:
        locs, _, mc = read_heatmap(out_dir / "mc_matrix.csv")
        errors = _locations_errors(locs, self.locations, "mc_matrix.csv")
        errors += column_sum_errors(mc, "mc_matrix.csv")
        expected = self.reference
        if mc.shape != expected.shape:
            return errors + [f"mc_matrix.csv shape {mc.shape}, expected {expected.shape}"]
        for i in range(mc.shape[1]):
            tv = 0.5 * float(np.abs(mc[:, i] - expected[:, i]).sum())
            if not tv <= MC_TV_MAX:
                errors.append(f"mc_matrix.csv column {i}: total variation {tv:.4f} "
                              f"from matrix propagation")
        return errors
