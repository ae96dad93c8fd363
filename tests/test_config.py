import numpy as np
import pytest
import yaml

from vuprop.config import RunConfig
from vuprop.errors import ConfigError


def _load(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return RunConfig.load(path)


BASE = """
seed: 42
model:
  builtin: ipsa2d
scenario:
  locations: {start: -3.0, stop: 3.0, num: 7}
  sigma_ell: 0.5
  sigma_alpha: 0.25
"""


def test_load_basics(tmp_path):
    cfg = _load(tmp_path, BASE)
    assert cfg.seed == 42
    assert cfg.model().name == "builtin:ipsa2d"
    sc = cfg.scenario()
    assert np.allclose(sc.locations, np.linspace(-3, 3, 7))
    assert sc.sigma_ell == 0.5


def test_default_grid_from_scenario(tmp_path):
    cfg = _load(tmp_path, BASE)
    spec = cfg.grid_spec()
    x, alpha = spec.dims
    assert (x.lower, x.upper) == (-5.0, 5.0)  # locations widened by 4 sigma_ell
    assert (alpha.lower, alpha.upper) == (-1.0, 1.0)  # +-4 sigma_alpha
    assert x.count == 200 and alpha.count == 50
    assert alpha.role == "alpha"


def test_explicit_grid_and_expression_model(tmp_path):
    cfg = _load(tmp_path, """
model:
  expression: "x^2 + a"
  variables: [x, a]
scenario:
  locations: [0.0, 1.0]
  sigma_ell: 0.1
  sigma_alpha: 0.1
grid:
  dims:
    - {name: x, lower: -2.0, upper: 2.0, count: 16}
    - {name: a, lower: -1.0, upper: 1.0, count: 8, role: alpha}
""")
    spec = cfg.grid_spec()
    assert spec.counts == (16, 8)
    assert cfg.model()(2.0, 1.0) == 5.0


def test_section_defaults(tmp_path):
    cfg = _load(tmp_path, BASE)
    assert cfg.output() == {"k": 500, "level": 0.9,
                            "deviation_reference": "mode", "shared_matrix": True}
    assert cfg.mc() == {"n_samples": 100_000}
    assert cfg.vars() == {"scales": [0.1, 0.3, 0.5], "v_count": 200}
    bench = cfg.bench()
    assert bench["l_values"] == [1, 2, 5, 10, 20, 100]
    assert bench["reps"] == 3


@pytest.mark.parametrize("snippet,match", [
    ("model: {}", "model"),
    ("model:\n  builtin: nope", "model.builtin"),
    ("model:\n  expression: x\n  variables: x", "model.variables"),
    ("output:\n  level: 1.5", "output.level"),
    ("output:\n  deviation_reference: sideways", "deviation_reference"),
    ("vars:\n  scales: [2.0]", "vars.scales"),
    ("bench:\n  reps: 1", "bench.reps"),
    ("mc:\n  n_samples: -5", "mc.n_samples"),
])
def test_validation_errors_name_the_key(tmp_path, snippet, match):
    cfg = _load(tmp_path, BASE + snippet)
    with pytest.raises(ConfigError, match=match.replace(".", r"\.")):
        cfg.model()
        cfg.output()
        cfg.mc()
        cfg.vars()
        cfg.bench()


@pytest.mark.parametrize("shared", ["true", None])
def test_alpha_matched_accepts_shared_matrix_true_or_absent(tmp_path, shared):
    snippet = "output:\n  deviation_reference: alpha-matched\n"
    if shared is not None:
        snippet += f"  shared_matrix: {shared}\n"
    assert _load(tmp_path, BASE + snippet).output()["shared_matrix"] is True


def test_alpha_matched_rejects_shared_matrix_false(tmp_path):
    # The alpha-matched sweep never reads the key: false would be ignored.
    cfg = _load(tmp_path, BASE + "output:\n  deviation_reference: alpha-matched\n"
                                 "  shared_matrix: false\n")
    with pytest.raises(ConfigError, match=r"output\.shared_matrix: false .*"
                                          r"output\.deviation_reference: alpha-matched"):
        cfg.output()


def test_bad_seed_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        _load(tmp_path, BASE + "seed: maybe")


def test_scenario_errors(tmp_path):
    cfg = _load(tmp_path, """
model: {builtin: ipsa2d}
scenario:
  locations: [0.0]
  sigma_ell: -1.0
  sigma_alpha: 0.1
""")
    with pytest.raises(ConfigError, match="sigma_ell"):
        cfg.scenario()
    cfg = _load(tmp_path, """
model: {builtin: ipsa2d}
scenario:
  locations: {start: 0.0, stop: 1.0}
  sigma_ell: 0.1
  sigma_alpha: 0.1
""")
    with pytest.raises(ConfigError, match="num"):
        cfg.scenario()


def test_not_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("model: [unclosed")
    with pytest.raises(ConfigError, match="YAML"):
        RunConfig.load(path)
    with pytest.raises(ConfigError):
        RunConfig.load(tmp_path / "missing.yaml")
    path2 = tmp_path / "list.yaml"
    path2.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        RunConfig.load(path2)


def test_c_and_python_loaders_agree(tmp_path):
    text = BASE + """
grid:
  dims:
    - {name: x, lower: -4, upper: 4.0e+0, count: 80}
    - {name: a, lower: -1.5e-3, upper: .5, count: 20, role: alpha}
nested: [[1, 2.5, -3], [[0.1, 1e-300, 123456789.125]], []]
flags: {on: true, off: false, nothing: null}
"""
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with open(path) as fh:
        pure = yaml.load(fh, Loader=yaml.SafeLoader)
    raw = RunConfig.load(path).raw
    assert raw == pure
    assert repr(raw) == repr(pure)  # same types too: int stays int, float stays float


def test_flag_text_is_read_by_its_key_reader_without_touching_raw(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE + "bench:\n  thresholds: {ratio_L: 4}\n")
    cfg = RunConfig.load(path, seed="5")
    raw = yaml.safe_dump(cfg.raw)
    assert cfg.seed == 5
    bench = cfg.bench(n="400", l_values="1, 4", k="10", reps="3")
    assert (bench["n_values"], bench["l_values"], bench["k"], bench["reps"]) == ([400], [1, 4],
                                                                                 10, 3)
    assert cfg.vars(scales="0.2,0.4")["scales"] == [0.2, 0.4]
    assert yaml.safe_dump(cfg.raw) == raw
    for call, name in [(lambda: cfg.bench(k="0"), "--k"),
                       (lambda: cfg.bench(n="1,true"), r"--n\[1\]"),
                       (lambda: cfg.vars(scales="2"), "--scales")]:
        with pytest.raises(ConfigError, match=name):
            call()
