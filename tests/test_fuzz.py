"""Small random configs through every propagating command, held to the
invariants of its outputs: a clean exit code, finite fields, probability
columns that sum to 1, non-negative variances and ordered intervals.

The draws are derandomized, so every run checks the same configs.
"""

import csv
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from vuprop.cli import main
from vuprop.distributions import SUM_TOL

# Model expressions over (x, a): smooth, periodic, kinked, constant, and
# with poles and domain edges that can make an output non-finite.
EXPRESSIONS = [
    "x^2 + 5*sin(3*x) + a",
    "a - abs(-a)",
    "exp(x/4)*cos(a) - x",
    "sqrt(abs(x*a)) + x/3",
    "1/(x - a)",
    "3",
]

IPSA_MODES = [
    {"deviation_reference": "mode"},
    {"deviation_reference": "mode", "shared_matrix": False},
    {"deviation_reference": "alpha-matched"},
]

# Heatmaps whose every column is one location's probabilities
PROBABILITY_FILES = ("output_matrix.csv", "ipsa_matrix.csv", "mc_matrix.csv")


@st.composite
def configs(draw):
    x_lo = draw(st.floats(-10, 10))
    x_hi = x_lo + draw(st.floats(0.01, 20))
    a_lo = draw(st.floats(-3, 3))
    a_hi = a_lo + draw(st.floats(0.01, 6))
    x = {"name": "x", "lower": x_lo, "upper": x_hi, "count": draw(st.integers(1, 40))}
    a = {"name": "a", "lower": a_lo, "upper": a_hi, "count": draw(st.integers(1, 20)),
         "role": "alpha"}
    dims = [x, a] if draw(st.booleans()) else [a, x]
    # Locations inside, at and beyond the x bounds
    where = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.5, 1.5))
    locations = [x_lo + f * (x_hi - x_lo) for f in draw(st.lists(where, min_size=1, max_size=4))]
    return {
        "seed": 3,
        "model": {"expression": draw(st.sampled_from(EXPRESSIONS)),
                  "variables": [d["name"] for d in dims]},
        "scenario": {"locations": locations, "sigma_ell": draw(st.floats(1e-3, 5)),
                     "sigma_alpha": draw(st.floats(1e-3, 3))},
        "grid": {"dims": dims},
        "output": {"k": draw(st.integers(1, 50)), **draw(st.sampled_from(IPSA_MODES))},
        "mc": {"n_samples": 200},
        "vars": {"scales": [0.25], "v_count": 20},
    }


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _check_outputs(out: Path):
    for path in out.glob("*.csv"):
        rows = _rows(path)
        body = [[float(v) for v in row] for row in rows[1:]]
        assert all(math.isfinite(v) for row in body for v in row), path.name
        if path.name in PROBABILITY_FILES:
            for column in zip(*(row[1:] for row in body)):
                assert abs(math.fsum(column) - 1.0) <= SUM_TOL, path.name
        columns = dict(zip(rows[0], zip(*body)))
        if path.name == "global_marginal.csv":
            assert abs(math.fsum(columns["probability"]) - 1.0) <= SUM_TOL
        if path.name == "summary.csv":
            assert min(columns["var"]) >= 0.0
            assert all(lo <= hi for lo, hi in zip(columns["ci_lo"], columns["ci_hi"]))
        for name in ("delta_sq", "gamma"):
            assert min(columns.get(name, [0.0])) >= 0.0, path.name


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_commands_keep_their_output_invariants(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.yaml"
        config.write_text(yaml.safe_dump(cfg))
        for command in ("propagate", "ipsa", "vars", "mc"):
            out = Path(tmp) / command
            assert main([command, "--config", str(config), "--out-dir", str(out)]) in (0, 1, 2)
            _check_outputs(out)
