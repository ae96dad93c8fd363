import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
import yaml

from vuprop import grid as grid_module
from vuprop.cli import _parser, _write_heatmap, _write_ipsa, _write_table, main
from vuprop.config import RunConfig
from vuprop.distributions import SUM_TOL, deviation_grid
from vuprop.engine import OutputBinning, OutputProbabilityMatrix, matrix_from_model
from vuprop.grid import GridSpec, make_grid
from vuprop.ipsa import (
    deviation_statistic_matrix,
    output_matrix,
    reference_curve,
    summarize,
    to_deviations,
)
from vuprop.mc import McConfig, mc_propagate_many
from vuprop.models import x_first
from vuprop.variogram import integrated_variogram, local_square_deviation

from ipsa_dense import dense_values


CONFIG = """
seed: 7
model:
  builtin: ipsa2d
scenario:
  locations: [-1.0, 0.0, 1.0]
  sigma_ell: 0.4
  sigma_alpha: 0.25
grid:
  dims:
    - {name: x, lower: -4.0, upper: 4.0, count: 80}
    - {name: alpha, lower: -1.0, upper: 1.0, count: 20, role: alpha}
output:
  k: 40
mc:
  n_samples: 2000
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG)
    return path


def _with_output(text, option):
    """The config text with one more line in its output section."""
    return text.replace("output:\n  k: 40", f"output:\n  k: 40\n  {option}")


def _read_heatmap(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = np.array([float(v) for v in rows[0][1:]])
    centers = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return cols, centers, values


def test_build_matrix_writes_sidecar_and_manifest(config, tmp_path):
    out = tmp_path / "out"
    assert main(["build-matrix", "--config", str(config), "--out-dir", str(out)]) == 0
    assert (out / "model_matrix.vupm").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "build-matrix"
    assert manifest["seed"] == 7
    assert manifest["matrix"]["N"] == 80 * 20
    assert manifest["matrix"]["K"] == 40
    record = manifest["matrix"]
    assert record["grid"] == [
        {"name": "x", "lower": -4.0, "upper": 4.0, "count": 80, "role": "x"},
        {"name": "alpha", "lower": -1.0, "upper": 1.0, "count": 20, "role": "alpha"},
    ]
    assert record["model"] == "builtin:ipsa2d"
    assert not [key for key in record if key.endswith("_hash")]


def test_propagate_columns_normalized(config, tmp_path):
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(config), "--out-dir", str(out)]) == 0
    locs, centers, values = _read_heatmap(out / "output_matrix.csv")
    assert locs.tolist() == [-1.0, 0.0, 1.0]
    assert values.shape == (40, 3)
    for i in range(3):
        assert math.fsum(values[:, i]) == pytest.approx(1.0, abs=1e-9)


def test_propagate_reuses_sidecar(config, tmp_path):
    build_dir = tmp_path / "build"
    main(["build-matrix", "--config", str(config), "--out-dir", str(build_dir)])
    out = tmp_path / "out"
    rc = main([
        "propagate", "--config", str(config), "--out-dir", str(out),
        "--matrix", str(build_dir / "model_matrix.vupm"),
    ])
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["matrix_source"] == "loaded"
    # Bitwise identical to the built-in-place route.
    fresh = tmp_path / "fresh"
    main(["propagate", "--config", str(config), "--out-dir", str(fresh)])
    assert (out / "output_matrix.csv").read_text() == (fresh / "output_matrix.csv").read_text()


def test_propagate_rejects_mismatched_sidecar(config, tmp_path, capsys):
    build_dir = tmp_path / "build"
    main(["build-matrix", "--config", str(config), "--out-dir", str(build_dir)])
    other = tmp_path / "other.yaml"
    other.write_text(CONFIG.replace("count: 80", "count: 81"))
    rc = main([
        "propagate", "--config", str(other), "--out-dir", str(tmp_path / "o"),
        "--matrix", str(build_dir / "model_matrix.vupm"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("edit", [
    # Model and grid both differ, at the same node counts.
    {"builtin: ipsa2d": "builtin: bench2d", "lower: -4.0, upper: 4.0": "lower: -2.0, upper: 2.0"},
    {"builtin: ipsa2d": "builtin: bench2d"},
    {"lower: -4.0, upper: 4.0": "lower: -2.0, upper: 2.0"},
], ids=["model-and-grid", "model", "grid"])
def test_propagate_rejects_sidecar_of_other_model_or_grid(config, tmp_path, capsys, edit):
    build_dir = tmp_path / "build"
    main(["build-matrix", "--config", str(config), "--out-dir", str(build_dir)])
    text = CONFIG
    for old, new in edit.items():
        text = text.replace(old, new)
    other = tmp_path / "other.yaml"
    other.write_text(text)
    rc = main([
        "propagate", "--config", str(other), "--out-dir", str(tmp_path / "o"),
        "--matrix", str(build_dir / "model_matrix.vupm"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_propagate_rejects_sidecar_of_other_k(config, tmp_path, capsys):
    build_dir = tmp_path / "build"
    main(["build-matrix", "--config", str(config), "--out-dir", str(build_dir)])
    other = tmp_path / "other.yaml"
    other.write_text(CONFIG.replace("k: 40", "k: 7"))
    rc = main([
        "propagate", "--config", str(other), "--out-dir", str(tmp_path / "o"),
        "--matrix", str(build_dir / "model_matrix.vupm"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "K = 40" in err and "output.k is 7" in err
    assert not (tmp_path / "o" / "output_matrix.csv").exists()


def test_propagate_accepts_constant_sidecar_collapsed_to_one_bin(tmp_path):
    # A constant model's matrix has one bin whatever output.k asked for.
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG.replace("builtin: ipsa2d", 'expression: "3"\n  variables: [x, alpha]'))
    build_dir = tmp_path / "build"
    assert main(["build-matrix", "--config", str(config), "--out-dir", str(build_dir)]) == 0
    assert json.loads((build_dir / "manifest.json").read_text())["matrix"]["K"] == 1
    out = tmp_path / "o"
    assert main(["propagate", "--config", str(config), "--out-dir", str(out),
                 "--matrix", str(build_dir / "model_matrix.vupm")]) == 0
    _, centers, values = _read_heatmap(out / "output_matrix.csv")
    assert centers.tolist() == [3.0]
    assert values == pytest.approx(np.ones((1, 3)), abs=1e-12)


def test_propagate_carries_build_record_forward(config, tmp_path, capsys):
    # propagate overwrites the build's manifest when both share a directory;
    # the copied record keeps later runs checked.
    work = tmp_path / "work"
    main(["build-matrix", "--config", str(config), "--out-dir", str(work)])
    built = json.loads((work / "manifest.json").read_text())["matrix"]
    args = ["--out-dir", str(work), "--matrix", str(work / "model_matrix.vupm")]
    assert main(["propagate", "--config", str(config)] + args) == 0
    assert json.loads((work / "manifest.json").read_text())["matrix"] == built
    assert main(["propagate", "--config", str(config)] + args) == 0
    assert "warning" not in capsys.readouterr().err
    other = tmp_path / "other.yaml"
    other.write_text(CONFIG.replace("builtin: ipsa2d", "builtin: bench2d"))
    assert main(["propagate", "--config", str(other)] + args) == 1


def test_propagate_warns_without_build_record(config, tmp_path, capsys):
    build_dir = tmp_path / "build"
    main(["build-matrix", "--config", str(config), "--out-dir", str(build_dir)])
    (build_dir / "manifest.json").unlink()
    rc = main([
        "propagate", "--config", str(config), "--out-dir", str(tmp_path / "o"),
        "--matrix", str(build_dir / "model_matrix.vupm"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:") and len(err.strip().splitlines()) == 1
    assert "matrix" not in json.loads((tmp_path / "o" / "manifest.json").read_text())


def test_propagate_checks_a_record_with_hash_keys_by_its_grid_and_model(config, tmp_path,
                                                                        capsys):
    # Earlier versions wrote SHA-256 hashes of the record's grid and model next
    # to them (these are CONFIG's); those keys are ignored, and the fields
    # themselves are checked.
    build_dir = tmp_path / "build"
    main(["build-matrix", "--config", str(config), "--out-dir", str(build_dir)])
    manifest = json.loads((build_dir / "manifest.json").read_text())
    manifest["matrix"].update(
        grid_hash="55be301b7614713130197628be8422b1c36f548bf2a38b10b0524c0c9c9f3a47",
        model_hash="02bc93d9a0f209955bc70e4347b69cf1416d01f4e54c2dc5f0d01d937a5a7157")
    (build_dir / "manifest.json").write_text(json.dumps(manifest))
    matrix = ["--matrix", str(build_dir / "model_matrix.vupm")]
    assert main(["propagate", "--config", str(config), "--out-dir", str(tmp_path / "o")]
                + matrix) == 0
    assert capsys.readouterr().err == ""
    other = tmp_path / "other.yaml"
    other.write_text(CONFIG.replace("lower: -4.0, upper: 4.0", "lower: -4.0, upper: 4.5"))
    assert main(["propagate", "--config", str(other), "--out-dir", str(tmp_path / "p")]
                + matrix) == 1
    assert "sidecar was built on a different grid than the config" in capsys.readouterr().err


# Grids on which the x row's or the whole product of the factor sums leaves
# the normal range: a row whose nearest node lies 38.5 sigma_ell away, and a
# row of sum 2.6e-18 against an alpha factor of sum 4.3e-306.
_SUBNORMAL_TOTALS = {
    "x-row": {
        "model": {"expression": "a - abs(-a)", "variables": ["x", "a"]},
        "scenario": {"locations": [67.98, 67.9365], "sigma_ell": 0.4, "sigma_alpha": 0.01},
        "grid": {"dims": [{"name": "x", "lower": 0.001, "upper": 100.001, "count": 3},
                          {"name": "a", "lower": 0.0, "upper": 0.1, "count": 2,
                           "role": "alpha"}]},
        "output": {"k": 50},
    },
    "product": {
        "model": {"builtin": "ipsa2d"},
        "scenario": {"locations": [0.23, 0.23, 0.23], "sigma_ell": 0.03, "sigma_alpha": 0.02},
        "grid": {"dims": [{"name": "x", "lower": -4.0, "upper": 4.0, "count": 8},
                          {"name": "a", "lower": 0.5, "upper": 1.5, "count": 2,
                           "role": "alpha"}]},
        "output": {"k": 5},
    },
}


@pytest.mark.parametrize("case", sorted(_SUBNORMAL_TOTALS))
@pytest.mark.parametrize("command, csv_name", [("propagate", "output_matrix.csv"),
                                               ("ipsa", "ipsa_matrix.csv")])
def test_columns_sum_to_one_where_the_factor_sums_leave_the_normal_range(tmp_path, case,
                                                                       command, csv_name):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(_SUBNORMAL_TOTALS[case]))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out-dir", str(out)]) == 0
    _, _, values = _read_heatmap(out / csv_name)
    for column in values.T:
        assert abs(math.fsum(column) - 1.0) <= SUM_TOL


def test_ipsa_outputs(config, tmp_path):
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
    locs, dcenters, values = _read_heatmap(out / "ipsa_matrix.csv")
    for i in range(3):
        assert math.fsum(values[:, i]) == pytest.approx(1.0, abs=1e-9)
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ell", "mean", "var", "argmax", "ci_lo", "ci_hi"]
    assert len(rows) == 4
    with open(out / "global_marginal.csv", newline="") as fh:
        marg = [float(r[1]) for r in list(csv.reader(fh))[1:]]
    assert math.fsum(marg) == pytest.approx(1.0, abs=1e-9)


def test_ipsa_warns_on_tiny_sigma(config, tmp_path, capsys):
    narrow = tmp_path / "narrow.yaml"
    # Below a tenth of the x step (0.1) but still wide enough to put nonzero
    # mass on the nearest node.
    narrow.write_text(CONFIG.replace("sigma_ell: 0.4", "sigma_ell: 0.009"))
    assert main(["ipsa", "--config", str(narrow), "--out-dir", str(tmp_path / "o")]) == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["shared_matrix: false", "deviation_reference: alpha-matched"])
def test_ipsa_tiny_sigma_off_the_shared_matrix_is_silent(tmp_path, capsys, option):
    # Local windows and the deviation grid both span 8 sigma_ell with the
    # grid's x count, so their step is sigma_ell-sized however fine sigma_ell is.
    config = tmp_path / "run.yaml"
    text = CONFIG.replace("sigma_ell: 0.4", "sigma_ell: 0.0005").replace(
        "lower: -4.0, upper: 4.0, count: 80", "lower: -2.0, upper: 2.0, count: 400")
    config.write_text(_with_output(text, option))
    assert main(["ipsa", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_ipsa_alpha_matched_reference(config, tmp_path):
    amatched = tmp_path / "am.yaml"
    amatched.write_text(CONFIG.replace(
        "output:\n  k: 40", "output:\n  k: 40\n  deviation_reference: alpha-matched"
    ))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(amatched), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reference"] == "alpha-matched"


def test_mc_fixed_binning_matches_propagate_axis(config, tmp_path):
    config = config.parent / "mc20k.yaml"
    config.write_text(CONFIG.replace("n_samples: 2000", "n_samples: 20000"))
    prop = tmp_path / "prop"
    main(["propagate", "--config", str(config), "--out-dir", str(prop)])
    out = tmp_path / "mc"
    rc = main([
        "mc", "--config", str(config), "--out-dir", str(out),
        "--fixed-binning-from", str(prop / "output_matrix.csv"),
    ])
    assert rc == 0
    _, centers_p, values_p = _read_heatmap(prop / "output_matrix.csv")
    _, centers_m, values_m = _read_heatmap(out / "mc_matrix.csv")
    assert np.allclose(centers_m, centers_p, rtol=0, atol=1e-12)
    # Coarse agreement between the continuous MC estimate and the discretized
    # matrix route: compare on bins merged 5-fold so the grid-discretization
    # shift (a fraction of a fine bin) stops dominating.
    coarse_m = values_m.reshape(8, 5, -1).sum(axis=1)
    coarse_p = values_p.reshape(8, 5, -1).sum(axis=1)
    tvd = 0.5 * np.abs(coarse_m - coarse_p).sum(axis=0)
    assert np.all(tvd < 0.1)


def test_mc_sort_flag_is_gone(config, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--mc-sort"])
    assert exc.value.code == 2


def test_mc_deterministic_given_seed(config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["mc", "--config", str(config), "--out-dir", str(a)])
    main(["mc", "--config", str(config), "--out-dir", str(b)])
    assert (a / "mc_matrix.csv").read_text() == (b / "mc_matrix.csv").read_text()


def test_vars_outputs(config, tmp_path):
    out = tmp_path / "out"
    rc = main(["vars", "--config", str(config), "--out-dir", str(out),
               "--scales", "0.2,0.4"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["integrated"]) == {"scale_0.2", "scale_0.4"}
    for entry in manifest["integrated"].values():
        assert entry["expectation"] == pytest.approx(entry["Gamma"] / entry["V"])
    with open(out / "delta_sq.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + one row per location
    assert all(float(r[1]) >= 0 for r in rows[1:])


def test_bench_small_sweep(config, tmp_path, capsys):
    bench_cfg = tmp_path / "bench.yaml"
    bench_cfg.write_text(CONFIG + """
bench:
  thresholds:
    ratio_L: 4
    vup_ratio_max: 1000.0
    mc_ratio_min: 0.01
    mc_ratio_max: 1000.0
    crossover_max: 100
    single_pdf_factor: 1000.0
""")
    out = tmp_path / "out"
    rc = main(["bench", "--config", str(bench_cfg), "--out-dir", str(out),
               "--n", "400", "--l-values", "1,4", "--k", "10", "--reps", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.split()[0] in ("PASS", "FAIL") for line in lines)
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2 L-values x 2 methods
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["complexity_checks"]) == {
        "vup_sublinear", "mc_linear", "crossover", "single_pdf_parity",
    }


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {}\n")
    rc = main(["propagate", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_config_exit_code(tmp_path, capsys):
    rc = main(["propagate", "--config", str(tmp_path / "nope.yaml"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def _write_heatmap_csv(path, col_labels, row_labels, values):
    """Reference writer: csv.writer over per-float repr strings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + [repr(float(v)) for v in col_labels])
        for label, row in zip(row_labels, values):
            writer.writerow([repr(float(label))] + [repr(float(v)) for v in row])


_EDGE = [-0.0, 5e-324, 1e16, 1.0, 0.1, 1 / 3, -2.5e-7, 123456789.125]


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 5)])
def test_write_heatmap_bytes_match_csv_writer(tmp_path, shape):
    n_rows, n_cols = shape
    values = np.resize(np.array(_EDGE), shape)
    col_labels = np.resize(np.array(_EDGE), n_cols)
    row_labels = np.resize(np.array(_EDGE[1:] + _EDGE[:1]), n_rows)
    _write_heatmap(tmp_path / "new.csv", col_labels, row_labels, values)
    _write_heatmap_csv(tmp_path / "ref.csv", col_labels, row_labels, values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("shared", [True, False])
def test_ipsa_heatmaps_bytes_match_csv_writer(tmp_path, shared):
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG.replace("output:\n  k: 40",
                                     f"output:\n  k: 40\n  shared_matrix: {str(shared).lower()}"))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
    cfg = RunConfig.load(config)
    model, scenario = cfg.model(), cfg.scenario()
    om = output_matrix(model, make_grid(cfg.grid_spec()), scenario, 40, shared_matrix=shared)
    ipsa = to_deviations(om, reference_curve(model, scenario.locations))
    _write_heatmap_csv(tmp_path / "om.csv", om.locations, om.binning.centers, om.values)
    _write_heatmap_csv(tmp_path / "ipsa.csv", ipsa.locations, ipsa.delta_centers,
                       dense_values(ipsa))
    assert (out / "output_matrix.csv").read_bytes() == (tmp_path / "om.csv").read_bytes()
    assert (out / "ipsa_matrix.csv").read_bytes() == (tmp_path / "ipsa.csv").read_bytes()


def test_alpha_matched_ipsa_heatmap_bytes_match_csv_writer(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(_with_output(CONFIG, "deviation_reference: alpha-matched"))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
    cfg = RunConfig.load(config)
    grid = deviation_grid(make_grid(cfg.grid_spec()), cfg.scenario())
    ipsa = deviation_statistic_matrix(cfg.model(), grid, cfg.scenario(), 40)
    _write_heatmap_csv(tmp_path / "ipsa.csv", ipsa.locations, ipsa.delta_centers, ipsa.values)
    assert (out / "ipsa_matrix.csv").read_bytes() == (tmp_path / "ipsa.csv").read_bytes()
    assert not (out / "output_matrix.csv").exists()


def test_ipsa_writer_gathers_half_bin_ties_and_negative_zero(tmp_path):
    # Column 0 sits half a bin from the others and moves as a whole; column 2
    # keeps its -0.0. Both files are the bytes of csv.writer.
    values = np.array([[0.1, 0.1, 0.1], [0.2, 1e16, -0.0], [0.3, 5e-324, 0.5], [0.4, 1 / 3, 0.4]])
    out = OutputProbabilityMatrix(values, OutputBinning(4, 0.0, 4.0), np.array([0.0, 1.0, 2.0]))
    ipsa = to_deviations(out, [0.0, 0.5, 0.5])
    _write_ipsa(tmp_path, ipsa, out)
    _write_heatmap_csv(tmp_path / "om.csv", out.locations, out.binning.centers, out.values)
    _write_heatmap_csv(tmp_path / "ipsa.csv", ipsa.locations, ipsa.delta_centers,
                       dense_values(ipsa))
    assert (tmp_path / "output_matrix.csv").read_bytes() == (tmp_path / "om.csv").read_bytes()
    assert (tmp_path / "ipsa_matrix.csv").read_bytes() == (tmp_path / "ipsa.csv").read_bytes()
    assert b",-0.0" in (tmp_path / "ipsa_matrix.csv").read_bytes()


def _write_rows_csv(path, header, columns):
    """Reference writer of the float tables: csv.writer over numpy float64
    scalars, whose str is the repr of the float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


_TABLE_EDGE = [-0.0, 5e-324, 2.0 ** 54, 1e16, np.nan, np.inf, -np.inf, 0.0, 0.1, 1 / 3,
               -2.5e-7, 123456789.125, 2.0 ** 54 + 2, -1.7976931348623157e308]


@pytest.mark.parametrize("header", [["ell", "mean", "var", "argmax", "ci_lo", "ci_hi"],
                                    ["delta_y", "probability"], ["ell", "delta_sq"],
                                    ["v", "gamma"]])
@pytest.mark.parametrize("n_rows", [0, 1, 14, 40])
def test_float_tables_bytes_match_csv_writer(tmp_path, header, n_rows):
    # summary.csv, global_marginal.csv, delta_sq.csv and gamma.csv, each
    # column a shuffle of the edge values.
    rng = np.random.default_rng(len(header) * 100 + n_rows)
    columns = [rng.permutation(np.resize(np.array(_TABLE_EDGE), n_rows)) for _ in header]
    _write_table(tmp_path / "new.csv", header, np.column_stack(columns))
    _write_rows_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_ipsa_and_vars_tables_bytes_match_csv_writer(tmp_path, config):
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
    assert main(["vars", "--config", str(config), "--out-dir", str(out)]) == 0
    cfg = RunConfig.load(config)
    model, grid, scenario = cfg.model(), make_grid(cfg.grid_spec()), cfg.scenario()
    ipsa = to_deviations(output_matrix(model, grid, scenario, 40),
                         reference_curve(model, scenario.locations))
    s = summarize(ipsa, cfg.output()["level"], scenario.location_weights())
    _write_rows_csv(tmp_path / "summary.csv", ["ell", "mean", "var", "argmax", "ci_lo", "ci_hi"],
                    [s.locations, s.mean, s.variance, s.argmax, s.ci_lower, s.ci_upper])
    _write_rows_csv(tmp_path / "global_marginal.csv", ["delta_y", "probability"],
                    [s.global_axis, s.global_marginal])
    x_dim = grid.spec.dims[grid.spec.x_index()]
    opts = cfg.vars(None)
    gamma_rows = set()
    for frac in opts["scales"]:
        res = integrated_variogram(x_first(model, grid.spec.x_index()),
                                   make_grid(GridSpec((x_dim,))),
                                   frac * (x_dim.upper - x_dim.lower), opts["v_count"],
                                   [0.0] * (model.arity - 1))
        gamma_rows |= set(zip(res.v_grid, res.gamma))
    _write_rows_csv(tmp_path / "gamma.csv", ["v", "gamma"], list(zip(*sorted(gamma_rows))))
    _write_rows_csv(tmp_path / "delta_sq.csv", ["ell", "delta_sq"],
                    [scenario.locations,
                     local_square_deviation(model, deviation_grid(grid, scenario), scenario)])
    for name in ("summary.csv", "global_marginal.csv", "gamma.csv", "delta_sq.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_write_ipsa_peaks_below_the_file_it_writes(tmp_path):
    # References spread up to K bins either side of the output range widen
    # the delta-y axis to about 4K rows. The writer holds the S24 table of the
    # K x L values and one block of rows at a time: never the file itself.
    K, L = 200, 1500
    rng = np.random.default_rng(3)
    values = rng.random((K, L))
    values /= values.sum(axis=0)
    out = OutputProbabilityMatrix(values, OutputBinning(K, 0.0, 1.0), np.linspace(0.0, 1.0, L))
    ipsa = to_deviations(out, rng.uniform(-0.999, 1.999, L))
    _write_ipsa(tmp_path, ipsa)  # the cached tables of the first call
    tracemalloc.start()
    try:
        _write_ipsa(tmp_path, ipsa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "ipsa_matrix.csv").stat().st_size


def test_ipsa_of_a_linear_model_agrees_at_a_half_bin_location(tmp_path):
    # y = x on a dyadic grid, bin width 0.125: the reference at 0.0625 sits
    # half a bin off the others. Its column moves whole, so it has no empty
    # row inside its support and its variance is the others'.
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({
        "model": {"expression": "x + 0*a", "variables": ["x", "a"]},
        "scenario": {"locations": [0.0, 0.0625, 1.0], "sigma_ell": 0.4, "sigma_alpha": 0.25},
        "grid": {"dims": [{"name": "x", "lower": -4.0, "upper": 4.0, "count": 64},
                          {"name": "a", "lower": -1.0, "upper": 1.0, "count": 16,
                           "role": "alpha"}]},
        "output": {"k": 63},
    }))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
    _, _, values = _read_heatmap(out / "ipsa_matrix.csv")
    for column in values.T:
        support = np.flatnonzero(column)
        assert (column[support[0]:support[-1] + 1] > 0).all()
    variance = _read_numbers(out / "summary.csv")[:, 2]
    assert np.ptp(variance) <= 1e-9


def test_no_command_builds_grid_nodes(config, tmp_path, monkeypatch):
    def no_nodes(self):
        raise AssertionError("Grid.nodes was built")

    monkeypatch.setattr(grid_module.Grid, "nodes", property(no_nodes))
    build, prop = tmp_path / "build", tmp_path / "prop"
    assert main(["build-matrix", "--config", str(config), "--out-dir", str(build)]) == 0
    assert main(["propagate", "--config", str(config), "--out-dir", str(build)]) == 0
    assert main(["propagate", "--config", str(config), "--out-dir", str(prop),
                 "--matrix", str(build / "model_matrix.vupm")]) == 0
    assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "mc"),
                 "--fixed-binning-from", str(prop / "output_matrix.csv")]) == 0
    assert main(["vars", "--config", str(config), "--out-dir", str(tmp_path / "vars")]) == 0
    assert main(["ipsa", "--config", str(config), "--out-dir", str(tmp_path / "ipsa")]) == 0
    for mode in ("shared_matrix: false", "deviation_reference: alpha-matched"):
        other = tmp_path / "ipsa.yaml"
        other.write_text(_with_output(CONFIG, mode))
        assert main(["ipsa", "--config", str(other), "--out-dir", str(tmp_path / "ipsa")]) == 0


_X_DIM = "    - {name: x, lower: -4.0, upper: 4.0, count: 80}\n"
_A_DIM = "    - {name: alpha, lower: -1.0, upper: 1.0, count: 20, role: alpha}\n"


def _read_numbers(path):
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])


@pytest.mark.parametrize("shared", [True, False])
def test_x_slot_follows_the_grid_not_the_model_signature(tmp_path, shared):
    # The same model on [x, alpha] and on [alpha, x], its variables in grid
    # order: the location must reach the model's x input in both.
    runs = {}
    for name, dims in (("x_first", _X_DIM + _A_DIM), ("x_last", _A_DIM + _X_DIM)):
        variables = "[x, alpha]" if name == "x_first" else "[alpha, x]"
        text = CONFIG.replace("builtin: ipsa2d",
                              f'expression: "x^2 + 10*alpha"\n  variables: {variables}')
        text = _with_output(text.replace(_X_DIM + _A_DIM, dims),
                            f"shared_matrix: {str(shared).lower()}")
        config = tmp_path / f"{name}.yaml"
        config.write_text(text)
        out = tmp_path / name
        assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
        assert main(["vars", "--config", str(config), "--out-dir", str(out)]) == 0
        runs[name] = out
    for csv_name in ("summary.csv", "gamma.csv", "delta_sq.csv"):
        a = _read_numbers(runs["x_first"] / csv_name)
        b = _read_numbers(runs["x_last"] / csv_name)
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12), csv_name


@pytest.mark.parametrize("shared", [True, False])
def test_ipsa_constant_model(tmp_path, shared):
    config = tmp_path / "run.yaml"
    text = CONFIG.replace("builtin: ipsa2d", 'expression: "3"\n  variables: [x, alpha]')
    config.write_text(_with_output(text, f"shared_matrix: {str(shared).lower()}"))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
    _, _, values = _read_heatmap(out / "ipsa_matrix.csv")
    assert values.shape == (1, 3)
    for i in range(3):
        assert math.fsum(values[:, i]) == pytest.approx(1.0, abs=1e-9)


def test_ipsa_local_windows_on_a_grid_without_x_zero(tmp_path):
    # 1/x is undefined at x = 0, which the grid's x range [1, 5] leaves out.
    config = tmp_path / "run.yaml"
    text = CONFIG.replace("builtin: ipsa2d", 'expression: "1/x + alpha"\n  variables: [x, alpha]')
    text = text.replace("locations: [-1.0, 0.0, 1.0]", "locations: [1.5, 3.0, 4.5]")
    text = text.replace("lower: -4.0, upper: 4.0", "lower: 1.0, upper: 5.0")
    config.write_text(_with_output(text, "shared_matrix: false"))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0
    _, _, values = _read_heatmap(out / "output_matrix.csv")
    assert values.shape == (40, 3)
    for i in range(3):
        assert math.fsum(values[:, i]) == pytest.approx(1.0, abs=1e-9)


def test_ipsa_alpha_matched_with_shared_matrix_false_exits_2(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(_with_output(CONFIG, "deviation_reference: alpha-matched\n"
                                           "  shared_matrix: false"))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "output.shared_matrix" in err and "output.deviation_reference" in err
    assert not (out / "summary.csv").exists()


def test_ipsa_local_window_off_the_grid_names_its_location(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    text = CONFIG.replace("locations: [-1.0, 0.0, 1.0]", "locations: [0.0, 6.0]")
    config.write_text(_with_output(text, "shared_matrix: false"))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: location 6.0: its +-4 sigma_ell window [4.4, 7.6] misses the grid's "
        "x extent [-4.0, 4.0]\n")
    # The shared matrix keeps its truncated Gaussian on the grid.
    config.write_text(text)
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 0


@pytest.mark.parametrize("flag, yaml_scales", [
    ("--scales=0", "[0]"),
    ("--scales=-0.5", "[-0.5]"),
    ("--scales=nan", "[.nan]"),
    ("--scales=1.5", "[1.5]"),
    ("--scales=0.2,2", "[0.2, 2]"),
])
def test_vars_scales_outside_unit_interval_are_config_errors(config, tmp_path, capsys,
                                                             flag, yaml_scales):
    # The flag and the config key share one rule and one exit code.
    out = str(tmp_path / "out")
    assert main(["vars", "--config", str(config), "--out-dir", out, flag]) == 2
    assert "--scales: fractions must be in (0, 1]" in capsys.readouterr().err
    other = tmp_path / "scales.yaml"
    other.write_text(CONFIG + f"vars:\n  scales: {yaml_scales}\n")
    assert main(["vars", "--config", str(other), "--out-dir", out]) == 2
    assert "vars.scales: fractions must be in (0, 1]" in capsys.readouterr().err


def test_mc_fixed_binning_from_one_bin_csv(tmp_path):
    # A constant model propagates into one bin at 3.0; MC on that binning
    # writes what plain MC writes.
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG.replace("builtin: ipsa2d",
                                     'expression: "3 + 0*x + 0*a"\n  variables: [x, a]'))
    base = ["--config", str(config), "--out-dir"]
    prop, fixed, plain = tmp_path / "prop", tmp_path / "fixed", tmp_path / "plain"
    assert main(["propagate", *base, str(prop)]) == 0
    _, centers, _ = _read_heatmap(prop / "output_matrix.csv")
    assert centers.tolist() == [3.0]
    assert main(["mc", *base, str(fixed),
                 "--fixed-binning-from", str(prop / "output_matrix.csv")]) == 0
    assert main(["mc", *base, str(plain)]) == 0
    assert (fixed / "mc_matrix.csv").read_bytes() == (plain / "mc_matrix.csv").read_bytes()
    _, centers, values = _read_heatmap(fixed / "mc_matrix.csv")
    assert centers.tolist() == [3.0]
    assert values.tolist() == [[1.0, 1.0, 1.0]]


def _expression_config(tmp_path, name, expression, extra=""):
    path = tmp_path / name
    path.write_text(CONFIG.replace("builtin: ipsa2d",
                                   f'expression: "{expression}"\n  variables: [x, a]') + extra)
    return path


def test_mc_fixed_binning_puts_huge_outputs_in_the_last_bin(tmp_path, capsys):
    # exp(100 x) is finite on the whole grid but far above the binning of x:
    # its mass belongs in the top bin, not the bottom one, and is reported.
    prop, mc = tmp_path / "prop", tmp_path / "mc"
    assert main(["propagate", "--config", str(_expression_config(tmp_path, "x.yaml", "x + 0*a")),
                 "--out-dir", str(prop)]) == 0
    config = _expression_config(tmp_path, "exp.yaml", "exp(100*x) + a")
    capsys.readouterr()
    assert main(["mc", "--config", str(config), "--out-dir", str(mc),
                 "--fixed-binning-from", str(prop / "output_matrix.csv")]) == 0
    locs, _, values = _read_heatmap(mc / "mc_matrix.csv")
    assert locs.tolist() == [-1.0, 0.0, 1.0]
    # ell = 1: all but the samples below x = 0.014 (0.7 % at sigma 0.4) land
    # above the top edge, 4; the cast to int64 had sent them to bin 0.
    assert values[-1, 2] > 0.99
    assert values[0, 2] == 0.0
    clamped = json.loads((mc / "manifest.json").read_text())["clamped_mass"]
    assert clamped["above"][2] > 0.99
    assert clamped["above"][2] <= values[-1, 2]
    assert len(clamped["below"]) == 3
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "clamped into its end bins" in err and "at location 1.0" in err


def test_mc_fixed_binning_rejects_non_finite_outputs(tmp_path, capsys):
    # sqrt(x) is nan for x < 0: plain mc fails on the grid, and the fixed
    # binning must not bin the nan samples silently either.
    prop, mc = tmp_path / "prop", tmp_path / "mc"
    assert main(["propagate", "--config", str(_expression_config(tmp_path, "x.yaml", "x + 0*a")),
                 "--out-dir", str(prop)]) == 0
    config = _expression_config(tmp_path, "sqrt.yaml", "sqrt(x) + a")
    assert main(["mc", "--config", str(config), "--out-dir", str(mc),
                 "--fixed-binning-from", str(prop / "output_matrix.csv")]) == 1
    err = capsys.readouterr().err
    assert "location -1.0:" in err and "non-finite outputs in 2000 samples" in err
    assert not (mc / "mc_matrix.csv").exists()
    assert main(["mc", "--config", str(config), "--out-dir", str(mc)]) == 1


@pytest.mark.parametrize("scales", ["[1.0]", "[0.5, 0.9963]"])
def test_vars_fraction_beyond_the_last_usable_scale_is_a_config_error(config, tmp_path,
                                                                      capsys, scales):
    # 80 x nodes, 200 scale nodes: the last node of V = f * extent leaves the
    # first location a partner only for f <= (1 - 1/160) / (1 - 1/400) = 0.99624.
    other = tmp_path / "scales.yaml"
    other.write_text(CONFIG + f"vars:\n  scales: {scales}\n")
    assert main(["vars", "--config", str(other), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "vars.scales: fraction" in err and "largest usable fraction is 0.9962" in err
    assert main(["vars", "--config", str(config), "--out-dir", str(tmp_path / "flag"),
                 "--scales", "1"]) == 2
    assert "--scales: fraction 1.0 leaves no location" in capsys.readouterr().err
    other.write_text(CONFIG + "vars:\n  scales: [0.9962]\n")
    assert main(["vars", "--config", str(other), "--out-dir", str(tmp_path / "ok")]) == 0


def test_vars_scales_reject_yaml_bools(tmp_path, capsys):
    other = _expression_config(tmp_path, "bool.yaml", "x + a", "vars:\n  scales: [true]\n")
    assert main(["vars", "--config", str(other), "--out-dir", str(tmp_path / "out")]) == 2
    assert "vars.scales: fractions must be in (0, 1], got True" in capsys.readouterr().err


# --- every run setting through one reader -------------------------------------

def _run_with(tmp_path, command, path, value, extra=()):
    """main(command) on CONFIG with the key at `path` set to value."""
    raw = yaml.safe_load(CONFIG)
    raw["bench"] = {"n_values": [400], "l_values": [1, 4], "reps": 3, "thresholds": {"ratio_L": 4}}
    raw["vars"] = {"scales": [0.5], "v_count": 20}
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(raw))
    return main([command, "--config", str(config), "--out-dir", str(tmp_path / "out"),
                 *extra])


_INTEGER_KEYS = [
    # (command, where the value goes, the name its errors carry, least value)
    ("propagate", ("seed",), "seed", 0),
    ("propagate", ("scenario", "locations"), "scenario.locations.num", 1),
    ("propagate", ("grid", "dims", 1, "count"), "grid.dims[1].count", 1),
    ("propagate", ("output", "k"), "output.k", 1),
    ("mc", ("mc", "n_samples"), "mc.n_samples", 1),
    ("vars", ("vars", "v_count"), "vars.v_count", 1),
    ("bench", ("bench", "n_values"), "bench.n_values[0]", 1),
    ("bench", ("bench", "l_values"), "bench.l_values[1]", 1),
    ("bench", ("bench", "k"), "bench.k", 1),
    ("bench", ("bench", "reps"), "bench.reps", 3),
    ("bench", ("bench", "thresholds", "ratio_L"), "bench.thresholds.ratio_L", 1),
    ("bench", ("bench", "thresholds", "crossover_max"), "bench.thresholds.crossover_max", 1),
]


@pytest.mark.parametrize("command, path, name, least, bad", [
    (*key, bad) for key in _INTEGER_KEYS for bad in [True, False, 0, -1, 1.5, "x", None]
    if not (key[2] == "seed" and type(bad) is int and bad == 0)  # seed 0 is valid
])
def test_integer_keys_reject_bools_and_non_integers(tmp_path, capsys, command, path, name,
                                                    least, bad):
    # A list key gets the value as one of its items, a location range as its num.
    value = {"n_values": [bad], "l_values": [1, bad]}.get(path[-1], bad)
    if path[-1] == "locations":
        value = {"start": -1, "stop": 1, "num": bad}
    assert _run_with(tmp_path, command, path, value) == 2
    assert f"error: {name}: expected an integer >= {least}" in capsys.readouterr().err


_FLAGS = [
    ("vars", "--scales", ["abc", "0.5,x", "true", "", "1,]"]),
    ("bench", "--n", ["abc", "0", "-5", "1.5", "true", "400,x", ""]),
    ("bench", "--l-values", ["1,x", "0,4", "1,true", "1,4]"]),
    ("bench", "--k", ["abc", "0", "-3", "1.5", "true"]),
    ("bench", "--reps", ["abc", "0", "2", "true"]),
    ("bench", "--seed", ["abc", "-1", "1.5", "true"]),
]


@pytest.mark.parametrize("command, flag, text",
                         [(c, f, t) for c, f, texts in _FLAGS for t in texts])
def test_malformed_overrides_are_config_errors_naming_the_flag(tmp_path, capsys, command,
                                                               flag, text):
    assert _run_with(tmp_path, command, ("seed",), 7, [f"{flag}={text}"]) == 2
    err = capsys.readouterr().err  # a list flag's item is named by its index: --n[0]
    assert err.startswith(f"error: {flag}: ") or err.startswith(f"error: {flag}[")


@pytest.mark.parametrize("command, path, value, name", [
    ("propagate", ("scenario", "locations"), ["a"], "scenario.locations[0]"),
    ("propagate", ("scenario", "locations"), [-1.0, True, 1.0], "scenario.locations[1]"),
    ("propagate", ("scenario", "weights"), [0.5, "x", 0.5], "scenario.weights[1]"),
    ("propagate", ("scenario", "weights"), [True, 0.0, 0.0], "scenario.weights[0]"),
    # A nan location propagated into a nan column, an infinite sigma_ell into
    # one uniform column per location, and a nan weight passed the sum check.
    ("propagate", ("scenario", "locations"), [-1.0, math.nan, 1.0], "scenario.locations[1]"),
    ("propagate", ("scenario", "sigma_ell"), math.inf, "scenario.sigma_ell"),
    ("propagate", ("scenario", "weights"), [0.5, math.nan, 0.5], "scenario.weights[1]"),
    ("vars", ("vars", "scales"), [0.5, "x"], "vars.scales"),
    ("bench", ("bench", "thresholds"), {"foo": 1}, "bench.thresholds.foo"),
    ("bench", ("bench", "thresholds"), {"vup_ratio_max": "x"}, "bench.thresholds.vup_ratio_max"),
    # The complexity checks compare L = 1 with L = ratio_L (100 by default).
    ("bench", ("bench", "thresholds"), {}, "bench.l_values"),
    ("bench", ("bench", "l_values"), [2, 4], "bench.l_values"),
])
def test_malformed_settings_are_config_errors_naming_the_key(tmp_path, capsys, command,
                                                             path, value, name):
    assert _run_with(tmp_path, command, path, value) == 2
    assert f"error: {name}: " in capsys.readouterr().err


def test_l_values_without_ratio_L_fail_before_the_sweep(tmp_path, capsys, monkeypatch):
    import vuprop.cli

    monkeypatch.setattr(vuprop.cli, "run_sweep", lambda *a, **k: pytest.fail("swept"))
    assert _run_with(tmp_path, "bench", ("seed",), 7, ["--l-values", "1,2"]) == 2
    assert "--l-values: the complexity checks need L = 1 and L = 4" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [12, 20])
def test_ipsa_reference_far_outside_the_output_range_is_a_runtime_error(tmp_path, capsys, rate):
    # x in [-4, 4]: the reference exp(rate * 4.6) lies far above every output.
    # Re-binned, exp(12*x) + a took 170,375 delta-y rows and exp(20*x) + a
    # asked for 24,280,262.
    config = tmp_path / "far.yaml"
    config.write_text(yaml.safe_dump({
        "model": {"expression": f"exp({rate}*x) + a", "variables": ["x", "a"]},
        "scenario": {"locations": [-3.0, 0.0, 4.6], "sigma_ell": 0.4, "sigma_alpha": 0.25},
        "grid": {"dims": [{"name": "x", "lower": -4.0, "upper": 4.0, "count": 200},
                          {"name": "a", "lower": -1.0, "upper": 1.0, "count": 20,
                           "role": "alpha"}]},
        "output": {"k": 100},
    }))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "at location 4.6 lies more than K = 100 bins outside the output range" in err
    assert not (out / "ipsa_matrix.csv").exists()


def test_ipsa_reference_at_a_pole_is_a_runtime_error(tmp_path, capsys):
    # 1/x is finite on every grid node (none is 0) but not at the location 0.
    config = _expression_config(tmp_path, "pole.yaml", "1/x + a")
    assert main(["ipsa", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
    assert "at location 0.0" in capsys.readouterr().err


def test_vars_with_infinite_squared_differences_is_a_runtime_error(tmp_path, capsys):
    # The x node 3.95 is a pole: gamma rows holding it are inf.
    config = _expression_config(tmp_path, "pole.yaml", "1/(x - 3.95) + a")
    out = tmp_path / "out"
    assert main(["vars", "--config", str(config), "--out-dir", str(out)]) == 1
    assert "squared differences at scale v = " in capsys.readouterr().err
    assert not (out / "gamma.csv").exists()


def test_vars_ignores_nan_beyond_the_grid(tmp_path):
    # sqrt(4.05 - x) is nan only for x > 4.05, at pairs ell + v beyond the
    # grid that the quadrature evaluates but masks out.
    config = _expression_config(tmp_path, "sqrt.yaml", "sqrt(4.05 - x) + a")
    out = tmp_path / "out"
    assert main(["vars", "--config", str(config), "--out-dir", str(out)]) == 0
    assert np.isfinite(_read_numbers(out / "gamma.csv")).all()


def test_propagate_rejects_a_sidecar_with_a_swapped_range(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["build-matrix", "--config", str(config), "--out-dir", str(out)]) == 0
    sidecar = out / "model_matrix.vupm"
    blob = sidecar.read_bytes()
    sidecar.write_bytes(blob[:24] + blob[32:40] + blob[24:32] + blob[40:])
    assert main(["propagate", "--config", str(config), "--out-dir", str(out),
                 "--matrix", str(sidecar)]) == 1
    assert f"error: {sidecar}: output binning needs" in capsys.readouterr().err


@pytest.mark.parametrize("centers", [["abc", "1.0"], ["nan"], ["0.5", "nan"], ["2.0", "1.0"],
                                     [], ['"0.5"', '"1.5"'], ["0.5", ""]])
def test_mc_fixed_binning_from_a_bad_csv_names_the_file(config, tmp_path, capsys, centers):
    csv_path = tmp_path / "bins.csv"
    csv_path.write_text(",-1.0,0.0,1.0\r\n" + "".join(f"{c},0.5,0.5,0.5\r\n" for c in centers))
    assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                 "--fixed-binning-from", str(csv_path)]) == 1
    assert f"error: {csv_path}: bin centers: " in capsys.readouterr().err


def test_mc_fixed_binning_from_an_undecodable_center_names_the_file(config, tmp_path, capsys):
    csv_path = tmp_path / "bins.csv"
    csv_path.write_bytes(b",-1.0,0.0,1.0\r\n\xff0.5,0.5,0.5,0.5\r\n")
    assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                 "--fixed-binning-from", str(csv_path)]) == 1
    assert f"error: {csv_path}: bin centers: " in capsys.readouterr().err


def test_mc_fixed_binning_from_unevenly_spaced_centers_names_the_file(config, tmp_path,
                                                                     capsys):
    csv_path = tmp_path / "bins.csv"
    csv_path.write_text(",-1.0,0.0,1.0\r\n" + "".join(f"{c},0.5,0.5,0.5\r\n"
                                                     for c in ["0.5", "1.5", "10.0"]))
    assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                 "--fixed-binning-from", str(csv_path)]) == 1
    assert capsys.readouterr().err == (f"error: {csv_path}: bin centers: 1.5 is off the "
                                       "evenly spaced axis from 0.5 to 10.0\n")
    assert not (tmp_path / "out" / "mc_matrix.csv").exists()


def test_mc_fixed_binning_from_a_500_bin_output_matrix(config, tmp_path):
    # The reuse workload's shape: 500 centers written by propagate all lie on
    # the axis inferred from the first two and the last. On this grid that
    # axis recomputes 398 of them with other last bits.
    config.write_text(CONFIG.replace("k: 40", "k: 500").replace("count: 80}", "count: 81}")
                      .replace("count: 20,", "count: 21,"))
    prop, out = tmp_path / "prop", tmp_path / "mc"
    assert main(["propagate", "--config", str(config), "--out-dir", str(prop)]) == 0
    assert main(["mc", "--config", str(config), "--out-dir", str(out),
                 "--fixed-binning-from", str(prop / "output_matrix.csv")]) == 0
    _, centers_p, _ = _read_heatmap(prop / "output_matrix.csv")
    _, centers_m, values_m = _read_heatmap(out / "mc_matrix.csv")
    assert centers_p.size == 500
    assert np.allclose(values_m.sum(axis=0), 1.0)
    # Each row keeps the label it was given: the first column of mc_matrix.csv
    # is that of output_matrix.csv, byte for byte.
    labels = [[row.split(b",", 1)[0] for row in (path / name).read_bytes().split(b"\r\n")]
              for path, name in ((prop, "output_matrix.csv"), (out, "mc_matrix.csv"))]
    assert labels[0] == labels[1]


def test_bench_seed_flag_is_the_seed_the_manifest_records(tmp_path):
    assert _run_with(tmp_path, "bench", ("seed",), 7, ["--seed", "5"]) == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] == 5


def test_flags_of_one_main_call_do_not_reach_the_next(tmp_path):
    # One parser serves every call in a process; each call parses afresh.
    assert _parser() is _parser()
    manifest = tmp_path / "out" / "manifest.json"
    assert _run_with(tmp_path, "vars", ("vars", "scales"), [0.5], ["--scales", "0.2,0.4"]) == 0
    assert set(json.loads(manifest.read_text())["integrated"]) == {"scale_0.2", "scale_0.4"}
    assert _run_with(tmp_path, "vars", ("vars", "scales"), [0.5]) == 0
    assert set(json.loads(manifest.read_text())["integrated"]) == {"scale_0.5"}
    assert _run_with(tmp_path, "bench", ("seed",), 7, ["--seed", "5"]) == 0
    assert _run_with(tmp_path, "bench", ("seed",), 7) == 0
    assert json.loads(manifest.read_text())["seed"] == 7


SQRT_CONFIG = """
seed: 1
model:
  expression: "sqrt(x - 1) + a"
  variables: [x, a]
scenario:
  locations: {locations}
  sigma_ell: 0.3
  sigma_alpha: 0.25
grid:
  dims:
    - {{name: x, lower: 0.0, upper: 5.0, count: 50}}
    - {{name: a, lower: -1.0, upper: 1.0, count: 10, role: alpha}}
output:
  k: 20
  shared_matrix: false
"""


@pytest.mark.parametrize("locations", ["[0.5, 0.6]", "[3.0, 0.5, 4.0]"])
def test_local_windows_with_nan_outputs_name_the_first_bad_location(tmp_path, capsys,
                                                                    locations):
    # sqrt(x - 1) is nan for x < 1, which every window around 0.5 holds: the
    # range sweep stops there, whether or not a finite window came first.
    config = tmp_path / "run.yaml"
    config.write_text(SQRT_CONFIG.format(locations=locations))
    out = tmp_path / "out"
    assert main(["ipsa", "--config", str(config), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: non-finite model outputs at location 0.5\n"
    assert not (out / "output_matrix.csv").exists()


def test_plain_mc_builds_no_model_matrix(config, tmp_path, monkeypatch):
    # The binning spans the grid outputs' range, as matrix_from_model's does.
    import vuprop.cli

    cfg = RunConfig.load(config)
    grid = make_grid(cfg.grid_spec())
    binning = matrix_from_model(cfg.model(), grid, 40).binning
    want = mc_propagate_many(cfg.model(), cfg.scenario(), McConfig(2000, 40, 7, binning), grid)
    _write_heatmap(tmp_path / "want.csv", want.locations, binning.centers, want.values)
    monkeypatch.setattr(vuprop.cli, "matrix_from_model",
                        lambda *a, **k: pytest.fail("built a model matrix"))
    out = tmp_path / "out"
    assert main(["mc", "--config", str(config), "--out-dir", str(out)]) == 0
    assert (out / "mc_matrix.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _deviation_run(tmp_path, name, x_first, x_range):
    """alpha-matched ipsa and vars on one scenario, with x on x_range (None:
    no grid section) and the default grid's counts and alpha extent."""
    variables = ["x", "alpha"] if x_first else ["alpha", "x"]
    config = {
        "model": {"expression": "x^2 + 5*sin(3*x) + alpha", "variables": variables},
        "scenario": {"locations": [2.0, 2.5, 3.0, 3.5], "sigma_ell": 0.1, "sigma_alpha": 0.25},
        "output": {"k": 200, "deviation_reference": "alpha-matched"},
    }
    if x_range is not None:
        x = {"name": "x", "lower": x_range[0], "upper": x_range[1], "count": 200}
        alpha = {"name": "alpha", "lower": -1.0, "upper": 1.0, "count": 50, "role": "alpha"}
        config["grid"] = {"dims": [x, alpha] if x_first else [alpha, x]}
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / name
    for command in ("ipsa", "vars"):
        assert main([command, "--config", str(path), "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("x_first", [True, False])
def test_alpha_matched_ipsa_runs_on_the_deviation_grid_of_vars(tmp_path, x_first):
    # The grid's x range only says where the locations may lie: the deviations
    # of alpha-matched ipsa, like those of vars, span +-4 sigma_ell around 0.
    runs = [_deviation_run(tmp_path, f"x{i}", x_first, r)
            for i, r in enumerate([(1.0, 5.0), (-2.0, 2.0)] + [None] * x_first)]
    for name in ("ipsa_matrix.csv", "summary.csv"):
        for other in runs[1:]:
            assert (other / name).read_bytes() == (runs[0] / name).read_bytes(), name
    _, centers, values = _read_heatmap(runs[0] / "ipsa_matrix.csv")
    b = centers[1] - centers[0]
    summary = _read_numbers(runs[0] / "summary.csv")
    delta_sq = _read_numbers(runs[0] / "delta_sq.csv")
    assert np.array_equal(summary[:, 0], delta_sq[:, 0])
    for i, (mean, var, target) in enumerate(zip(summary[:, 1], summary[:, 2], delta_sq[:, 1])):
        # The bound of the acceptance suite's deviation-moment check.
        tol = b * float(values[:, i] @ np.abs(centers)) + b * b
        assert abs(0.5 * (var + mean * mean) - target) <= tol, (i, 0.5 * (var + mean * mean), target)
