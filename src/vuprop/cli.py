"""Command-line frontend: build-matrix | propagate | ipsa | vars | mc | bench.

Every subcommand reads one YAML run-config, writes CSVs and a manifest.json
under --out-dir, and is deterministic given (config, seed) apart from
wall-clock fields, for one BLAS build, kernel and thread count: the fold's
BLAS product moves last digits (1,276 of prop-wide's 50,000 output cells
between 1 and 2 OpenBLAS threads, 9,445-26,321 between kernels; README).
Exit codes: 0 success, 1 runtime error, 2 config error.

Every float CSV (the heatmaps and the summary, marginal, variogram and
square-deviation tables) is written in binary mode, one line at a time: its
fields are the bytes of `floatrepr.repr_table`, joined with commas, lines end
in CRLF. Those are the bytes csv.writer wrote over the same floats, which no
field needs quoting for. csv.writer is left only for bench.csv, whose method
names and JSON breakdowns it quotes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import Thresholds, assert_complexity, run_sweep
from .config import RunConfig
from .distributions import deviation_grid
from .engine import (
    OutputBinning,
    load_matrix,
    matrix_from_model,
    matrix_manifest,
    propagate_scenario,
    save_matrix,
)
from .errors import ConfigError, GridError, VupropError
from .floatrepr import repr_table
from .grid import GridSpec, make_grid
from .ipsa import (
    deviation_statistic_matrix,
    output_matrix,
    reference_curve,
    summarize,
    to_deviations,
)
from .mc import McConfig, mc_propagate_many
from .models import eval_on_grid, x_first
from .variogram import integrated_variogram, local_square_deviation


def _write_heatmap(path, col_labels, row_labels, values):
    """First row: column labels (locations); first column: row labels (bin
    centers); body: probabilities. Fields are the repr of each float, lines
    end in CRLF: the bytes of csv.writer, as no such field needs quoting."""
    _write_heatmap_rows(path, col_labels, row_labels, _joined(repr_table(values)))


def _write_heatmap_rows(path, col_labels, row_labels, bodies):
    """_write_heatmap with each row's body (its joined fields) given."""
    header = [b""] + repr_table(col_labels).tolist()
    lines = (b"%s,%s\r\n" % line for line in zip(repr_table(row_labels).tolist(), bodies))
    _write_lines(path, header, lines)


def _write_table(path, header, values):
    """A CSV of float columns (values[:, j] under header[j]): the bytes of
    csv.writer over the same floats, whose fields are their repr."""
    _write_lines(path, [name.encode() for name in header],
                 (body + b"\r\n" for body in _joined(repr_table(values))))


def _write_lines(path, header, lines):
    """The header fields and then the lines (each with its CRLF), in binary
    mode: one line at a time in memory, never the whole file."""
    with open(path, "wb") as fh:
        fh.write(b",".join(header) + b"\r\n")
        fh.writelines(lines)


def _joined(table):
    """Each row of an S24 repr table as its comma-separated bytes."""
    for row in table:
        yield b",".join(row.tolist())


def _write_ipsa(out_dir, ipsa, out=None):
    """ipsa_matrix.csv and, given the output matrix whose columns ipsa holds,
    output_matrix.csv, from one repr table: the bytes _write_heatmap writes."""
    table = repr_table(ipsa.values)
    if out is not None:
        _write_heatmap_rows(out_dir / "output_matrix.csv", out.locations, out.binning.centers,
                            _joined(table))
    _write_heatmap_rows(out_dir / "ipsa_matrix.csv", ipsa.locations, ipsa.delta_centers,
                        _ipsa_bodies(table, ipsa))


_GATHER_CELLS = 1 << 14  # cells of ipsa_matrix.csv gathered at a time


def _ipsa_bodies(table, ipsa):
    """Rows of ipsa_matrix.csv, gathered from the repr table of ipsa.values in
    blocks of about _GATHER_CELLS cells: column i holds its bin k on row
    row_offset[i] + k and 0.0 elsewhere (`ipsa.IpsaMatrix`)."""
    K, L = table.shape
    n_rows = ipsa.delta_centers.size
    cols = np.arange(L)
    step = max(1, _GATHER_CELLS // L)
    for j0 in range(0, n_rows, step):
        src = np.arange(j0, min(j0 + step, n_rows))[:, None] - ipsa.row_offset
        block = table[src.clip(0, K - 1), cols]
        block[(src < 0) | (src >= K)] = b"0.0"
        yield from _joined(block)


def _manifest(out_dir: Path, cfg: RunConfig, command: str, extra: dict, t0: float):
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg.raw,
        "seed": cfg.seed,
        "elapsed_s": time.perf_counter() - t0,
    }
    manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def cmd_build_matrix(cfg: RunConfig, out_dir: Path, args) -> dict:
    model = cfg.model()
    grid = make_grid(cfg.grid_spec())
    matrix = matrix_from_model(model, grid, cfg.output()["k"])
    sidecar = out_dir / "model_matrix.vupm"
    save_matrix(sidecar, matrix)
    return {"sidecar": sidecar.name, "matrix": matrix_manifest(matrix)}


def _build_record(matrix_path, matrix) -> dict | None:
    """The sidecar's build record from the manifest.json beside it, its grid
    and model checked against `matrix_manifest` of the sidecar as loaded on
    the config's grid and model; None (with a warning) if either is absent."""
    manifest_path = Path(matrix_path).parent / "manifest.json"
    record = {}
    if manifest_path.exists():
        with open(manifest_path) as fh:
            try:
                manifest = json.load(fh)
            except ValueError as exc:
                raise VupropError(f"{manifest_path}: unreadable manifest: {exc}") from None
        if isinstance(manifest, dict) and isinstance(manifest.get("matrix"), dict):
            record = manifest["matrix"]
    expected, checked = matrix_manifest(matrix), ("grid", "model")
    for key in checked:
        if key in record and record[key] != expected[key]:
            raise VupropError(f"{matrix_path}: sidecar was built on a different "
                              f"{key} than the config")
    if not all(key in record for key in checked):
        print(f"warning: no build record for {matrix_path} in {manifest_path}; "
              "its grid and model are unchecked", file=sys.stderr)
        return None
    return record


def cmd_propagate(cfg: RunConfig, out_dir: Path, args) -> dict:
    model = cfg.model()
    grid = make_grid(cfg.grid_spec())
    scenario = cfg.scenario()
    k = cfg.output()["k"]
    extra = {}
    if args.matrix is None:
        matrix = matrix_from_model(model, grid, k)
        extra["matrix_source"] = "built"
    else:
        matrix = load_matrix(args.matrix, grid=grid, model_name=model.name)
        extra["matrix_source"] = "loaded"
        record = _build_record(args.matrix, matrix)
        # A constant-output build collapses to one bin, whatever K it was asked for.
        if matrix.K != k and not (matrix.K == 1 and matrix.binning.y_min == matrix.binning.y_max):
            raise ConfigError(f"{args.matrix}: sidecar has K = {matrix.K} output bins, "
                              f"the config's output.k is {k}")
        if record is not None:
            # Carried forward so a later run reading this directory's
            # manifest still finds the record.
            extra["matrix"] = record
    out = propagate_scenario(matrix, scenario)
    _write_heatmap(out_dir / "output_matrix.csv", out.locations,
                   out.binning.centers, out.values)
    return {**extra, "K": out.binning.K, "L": out.n_locations}


def cmd_ipsa(cfg: RunConfig, out_dir: Path, args) -> dict:
    model = cfg.model()
    grid = make_grid(cfg.grid_spec())
    scenario = cfg.scenario()
    opts = cfg.output()
    xd = grid.spec.x_index()
    if opts["deviation_reference"] == "alpha-matched":
        out, ipsa = None, deviation_statistic_matrix(model, deviation_grid(grid, scenario),
                                                     scenario, opts["k"])
    else:
        step = grid.spec.dims[xd].step  # only shared-matrix columns sit on the x nodes
        if opts["shared_matrix"] and scenario.sigma_ell < step / 10:
            print(f"warning: sigma_ell = {scenario.sigma_ell} is below a tenth of the grid step "
                  f"{step}; columns degenerate toward deltas; set output.shared_matrix: false",
                  file=sys.stderr)
        out = output_matrix(model, grid, scenario, opts["k"],
                            shared_matrix=opts["shared_matrix"])
        ipsa = to_deviations(out, reference_curve(x_first(model, xd), scenario.locations))
    summary = summarize(ipsa, opts["level"], scenario.location_weights())
    _write_ipsa(out_dir, ipsa, out)
    _write_table(out_dir / "summary.csv", ["ell", "mean", "var", "argmax", "ci_lo", "ci_hi"],
                 np.column_stack([summary.locations, summary.mean, summary.variance,
                                  summary.argmax, summary.ci_lower, summary.ci_upper]))
    _write_table(out_dir / "global_marginal.csv", ["delta_y", "probability"],
                 np.column_stack([summary.global_axis, summary.global_marginal]))
    return {"K": ipsa.delta_centers.size, "L": ipsa.n_locations,
            "reference": opts["deviation_reference"]}


def cmd_vars(cfg: RunConfig, out_dir: Path, args) -> dict:
    model = cfg.model()
    grid = make_grid(cfg.grid_spec())
    scenario = cfg.scenario()
    opts = cfg.vars(args.scales)
    xd = grid.spec.x_index()
    x_dim = grid.spec.dims[xd]
    x_model = x_first(model, xd)
    ell_grid = make_grid(GridSpec((x_dim,)))
    extent = x_dim.upper - x_dim.lower
    alpha_ref = [0.0] * (model.arity - 1)
    results = {}
    gamma_rows = []
    for frac in opts["scales"]:
        res = integrated_variogram(x_model, ell_grid, frac * extent,
                                   opts["v_count"], alpha_ref)
        results[f"scale_{frac}"] = {"V": res.V, "Gamma": res.Gamma,
                                    "expectation": res.expectation}
        gamma_rows.extend(zip(res.v_grid, res.gamma))
    delta_sq = local_square_deviation(model, deviation_grid(grid, scenario), scenario)
    _write_table(out_dir / "gamma.csv", ["v", "gamma"],
                 np.array(sorted(set(gamma_rows)), float).reshape(-1, 2))
    _write_table(out_dir / "delta_sq.csv", ["ell", "delta_sq"],
                 np.column_stack([scenario.locations, delta_sq]))
    return {"integrated": results}


def cmd_mc(cfg: RunConfig, out_dir: Path, args) -> dict:
    model = cfg.model()
    grid = make_grid(cfg.grid_spec())
    scenario = cfg.scenario()
    opts = cfg.mc()
    k = cfg.output()["k"]
    if args.fixed_binning_from:
        binning, centers = _binning_from_csv(args.fixed_binning_from)
    else:
        y = eval_on_grid(model, grid)
        binning = OutputBinning.spanning(k, float(y.min()), float(y.max()))
        centers = binning.centers
    mc_cfg = McConfig(opts["n_samples"], k, cfg.seed, binning)
    out = mc_propagate_many(model, scenario, mc_cfg, grid)
    _write_heatmap(out_dir / "mc_matrix.csv", out.locations, centers, out.values)
    below, above = out.clamped
    lost = below + above
    if lost.any():
        i = int(np.argmax(lost))
        print(f"warning: samples outside the binning [{binning.y_min!r}, {binning.y_max!r}] "
              f"were clamped into its end bins in {np.count_nonzero(lost)} of "
              f"{out.n_locations} columns, up to {float(lost[i])!r} of the mass at location "
              f"{float(out.locations[i])!r}; see clamped_mass in manifest.json", file=sys.stderr)
    return {"n_samples": opts["n_samples"], "K": out.binning.K, "L": out.n_locations,
            "clamped_mass": {"below": below.tolist(), "above": above.tolist()}}


def _binning_from_csv(path):
    """The binning whose bin centers are the first column of a heatmap CSV,
    and those centers as read, to label its rows with. The first two centers
    set its width; every center must lie within a millionth of a bin width
    of its place on the axis. One center c is one bin, labelled c, that takes
    every sample. Only each line's first field is read, up to its first
    comma: vuprop writes no quoted fields."""
    with open(path, "rb") as fh:
        fh.readline()  # the header: the locations
        firsts = [line.split(b",", 1)[0] for line in fh]
    try:
        c = [float(first.decode()) for first in firsts]
        if not c:
            raise GridError("need at least one bin center to infer a binning")
        half = (c[1] - c[0]) / 2 if len(c) > 1 else 0.0
        binning = OutputBinning(len(c), c[0] - half, c[-1] + half)
        off = np.abs(binning.centers - c)
        if not (off <= 1e-6 * binning.width).all():
            raise GridError(f"{c[int(np.argmax(off))]!r} is off the evenly spaced axis "
                            f"from {c[0]!r} to {c[-1]!r}")
        return binning, np.array(c)
    except (ValueError, GridError) as exc:
        raise VupropError(f"{path}: bin centers: {exc}") from None


def cmd_bench(cfg: RunConfig, out_dir: Path, args) -> dict:
    model = cfg.model()
    opts = cfg.bench(args.n, args.l_values, args.k, args.reps)
    scenario = cfg.scenario()
    result = run_sweep(model, cfg.grid_spec(), opts["n_values"], opts["l_values"], scenario,
                       opts["k"], opts["reps"], cfg.seed)
    with open(out_dir / "bench.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "N", "L", "reps", "median_s", "min_s", "max_s",
                         "breakdown_json"])
        writer.writerows((r.method, r.N, r.L, r.repetitions, r.median_s, r.min_s, r.max_s,
                          json.dumps(r.breakdown)) for r in result.rows)
    report = assert_complexity(result, Thresholds(**opts["thresholds"]))
    for line in report.lines():
        print(line)
    return {"complexity_checks": {k: {"passed": ok, "detail": d}
                                  for k, (ok, d) in report.checks.items()}}


_COMMANDS = {
    "build-matrix": cmd_build_matrix,
    "propagate": cmd_propagate,
    "ipsa": cmd_ipsa,
    "vars": cmd_vars,
    "mc": cmd_mc,
    "bench": cmd_bench,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and kept: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vuprop",
        description="Propagate input probability distributions through "
                    "discretized models and analyze input-probability sensitivity.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run-config path")
        p.add_argument("--out-dir", default=".", help="output directory")
    sub.choices["propagate"].add_argument("--matrix", help="model-matrix sidecar to reuse")
    sub.choices["vars"].add_argument("--scales", help="comma-separated domain fractions")
    sub.choices["mc"].add_argument("--fixed-binning-from",
                                   help="CSV whose bin centers fix the output binning")
    bench = sub.choices["bench"]
    bench.add_argument("--n", help="comma-separated grid sizes")
    bench.add_argument("--l-values", help="comma-separated location counts")
    bench.add_argument("--k", help="output bin count")
    bench.add_argument("--reps", help="timing repetitions")
    bench.add_argument("--seed", help="override config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, getattr(args, "seed", None))
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        extra = _COMMANDS[args.command](cfg, out_dir, args)
        _manifest(out_dir, cfg, args.command, extra, t0)
    except (VupropError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
