"""Run-config loading and validation.

One YAML file drives every subcommand; sections are validated lazily so a
config only needs the sections its subcommand uses. Validation errors carry
the config path of the offending key. A CLI flag that replaces a key is
read from its text by the key's reader, and its errors name the flag.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .bench import Thresholds
from .distributions import MeasurementScenario, TRUNCATION_SIGMAS
from .errors import ConfigError, GridError, ExpressionError, EvaluationError
from .grid import Dim, GridSpec
from .models import ModelFunction, builtin, parse_expression
from .variogram import scale_nodes


# libyaml's parser when PyYAML was built with it, same result.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _name(path, key) -> str:  # path.key, path[i] for a list item, key at the top level
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else str(key)


def _require(mapping, key, path, kind=None, default=None):
    """mapping[key], or `default` when the key is absent and one is given."""
    if not isinstance(mapping, dict) or key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"{_name(path, key)}: required key missing")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{_name(path, key)}: expected a {kind.__name__}, got {value!r}")
    return value


def _is_number(value) -> bool:  # a YAML bool is an int to Python, but not a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(mapping, key, path, default=None) -> float:
    value = _require(mapping, key, path, default=default)
    if not (_is_number(value) and abs(value) <= sys.float_info.max):  # fails for nan, inf, 10**400
        raise ConfigError(f"{_name(path, key)}: expected a finite number, got {value!r}")
    return float(value)


def _integer(mapping, key, path, default=None, least=1) -> int:
    value = _require(mapping, key, path, default=default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{_name(path, key)}: expected an integer >= {least}, got {value!r}")
    return value


def _items(mapping, key, path, read, default=None) -> list:
    """A non-empty list, each item read by `read` and named by its index."""
    values = _require(mapping, key, path, default=default)
    name = _name(path, key)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{name}: expected a non-empty list, got {values!r}")
    items = dict(enumerate(values))
    return [read(items, i, name) for i in items]


def _flag(section, key, path, flag, text, split=False):
    """Where `key` is read from: the section, or the text of the CLI flag that
    replaces it, parsed as YAML (a flow list of its comma-separated items when
    `split`). The key's reader then checks the flag as the key, by its name."""
    if text is None:
        return section, key, path
    try:
        value = yaml.load(f"[{text}]" if split else text, Loader=_LOADER)
    except yaml.YAMLError:
        raise ConfigError(f"{flag}: not a YAML {'list' if split else 'value'}: {text!r}") from None
    return {flag: value}, flag, ""


@dataclass
class RunConfig:
    raw: dict
    seed: int = 0

    # Cached sections, built on first access.
    _model: ModelFunction | None = field(default=None, repr=False)
    _scenario: MeasurementScenario | None = field(default=None, repr=False)

    @classmethod
    def load(cls, path, seed=None) -> "RunConfig":
        """The config at path; `seed` is the text of a --seed flag, which
        replaces the config's seed."""
        try:
            with open(path) as fh:
                raw = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        return cls(raw, _integer(*_flag(raw, "seed", "", "--seed", seed), default=0, least=0))

    # --- model ---------------------------------------------------------------

    def model(self) -> ModelFunction:
        if self._model is not None:
            return self._model
        section = _require(self.raw, "model", "", dict)
        if "builtin" in section:
            try:
                self._model = builtin(section["builtin"])
            except EvaluationError as exc:
                raise ConfigError(f"model.builtin: {exc}") from None
        elif "expression" in section:
            variables = _items(section, "variables", "model",
                               lambda items, i, name: _require(items, i, name, str))
            try:
                self._model = parse_expression(section["expression"], variables)
            except ExpressionError as exc:
                raise ConfigError(f"model.expression: {exc}") from None
        else:
            raise ConfigError("model: needs either 'builtin' or 'expression'")
        return self._model

    # --- scenario ------------------------------------------------------------

    def scenario(self) -> MeasurementScenario:
        if self._scenario is not None:
            return self._scenario
        section = _require(self.raw, "scenario", "", dict)
        locs = _require(section, "locations", "scenario")
        if isinstance(locs, dict):
            path = "scenario.locations"
            locations = np.linspace(_number(locs, "start", path), _number(locs, "stop", path),
                                    _integer(locs, "num", path))
        elif isinstance(locs, list):
            locations = np.array(_items(section, "locations", "scenario", _number))
        else:
            raise ConfigError("scenario.locations: expected a list or {start, stop, num}")
        weights = (None if section.get("weights") is None
                   else np.array(_items(section, "weights", "scenario", _number)))
        try:
            self._scenario = MeasurementScenario(
                locations,
                _number(section, "sigma_ell", "scenario"),
                _number(section, "sigma_alpha", "scenario"),
                weights,
            )
        except GridError as exc:
            raise ConfigError(f"scenario: {exc}") from None
        return self._scenario

    # --- grid ----------------------------------------------------------------

    DEFAULT_X_COUNT = 200
    DEFAULT_ALPHA_COUNT = 50

    def grid_spec(self) -> GridSpec:
        """Explicit grid section, or defaults derived from the scenario:
        x spans the locations widened by 4 sigma_ell, alpha spans +-4 sigma_alpha."""
        section = self.raw.get("grid")
        if section is not None:
            def dim(items, i, name):
                d, path = _require(items, i, name, dict), _name(name, i)
                try:
                    return Dim(_require(d, "name", path, str), _number(d, "lower", path),
                               _number(d, "upper", path), _integer(d, "count", path),
                               d.get("role", "x"))
                except GridError as exc:
                    raise ConfigError(f"{path}: {exc}") from None

            try:
                return GridSpec(tuple(_items(section, "dims", "grid", dim)))
            except GridError as exc:
                raise ConfigError(f"grid: {exc}") from None
        scenario = self.scenario()
        lo = float(scenario.locations.min()) - TRUNCATION_SIGMAS * scenario.sigma_ell
        hi = float(scenario.locations.max()) + TRUNCATION_SIGMAS * scenario.sigma_ell
        a = TRUNCATION_SIGMAS * scenario.sigma_alpha
        return GridSpec((Dim("x", lo, hi, self.DEFAULT_X_COUNT, "x"),
                         Dim("alpha", -a, a, self.DEFAULT_ALPHA_COUNT, "alpha")))

    # --- output --------------------------------------------------------------

    def output(self) -> dict:
        section = _require(self.raw, "output", "", dict, {})
        k = _integer(section, "k", "output", default=500)
        level = _number(section, "level", "output", default=0.9)
        if not 0.0 < level < 1.0:
            raise ConfigError(f"output.level: must be in (0, 1), got {level}")
        reference = section.get("deviation_reference", "mode")
        if reference not in ("mode", "alpha-matched"):
            raise ConfigError("output.deviation_reference: expected 'mode' or "
                              f"'alpha-matched', got {reference!r}")
        shared = _require(section, "shared_matrix", "output", bool, True)
        if reference == "alpha-matched" and not shared:
            raise ConfigError("output.shared_matrix: false has no effect with output."
                              "deviation_reference: alpha-matched; remove the key")
        return {"k": k, "level": level, "deviation_reference": reference, "shared_matrix": shared}

    # --- mc ------------------------------------------------------------------

    def mc(self) -> dict:
        return {"n_samples": _integer(_require(self.raw, "mc", "", dict, {}), "n_samples", "mc",
                                      default=100_000)}

    # --- vars ----------------------------------------------------------------

    def vars(self, scales=None) -> dict:
        """Scales are fractions f of the x extent in (0, 1] whose last scale node
        leaves the first x node a partner in the grid: f (1 - 1/(2 v_count))
        <= 1 - 1/(2 nx). `scales` is the text of --scales, replacing vars.scales."""
        section = _require(self.raw, "vars", "", dict, {})
        v_count = _integer(section, "v_count", "vars", default=200)
        spec = self.grid_spec()
        x_dim = spec.dims[spec.x_index()]

        def fraction(items, i, name):
            f = items[i]
            if not (_is_number(f) and 0 < f <= 1):
                raise ConfigError(f"{name}: fractions must be in (0, 1], got {f!r}")
            extent = x_dim.upper - x_dim.lower
            if x_dim.nodes()[0] + scale_nodes(f * extent, v_count)[-1] > x_dim.upper:
                limit = (1 - 1 / (2 * x_dim.count)) / (1 - 1 / (2 * v_count))
                raise ConfigError(
                    f"{name}: fraction {float(f)} leaves no location inside the grid at "
                    f"the last of {v_count} scale nodes on {x_dim.count} x nodes; "
                    f"the largest usable fraction is {math.floor(limit * 1e4) / 1e4}")
            return float(f)

        scales = _items(*_flag(section, "scales", "vars", "--scales", scales, split=True),
                        fraction, default=[0.1, 0.3, 0.5])
        return {"scales": scales, "v_count": v_count}

    # --- bench ---------------------------------------------------------------

    def bench(self, n=None, l_values=None, k=None, reps=None) -> dict:
        """Each argument is the text of the flag (--n, --l-values, --k, --reps)
        replacing its key. The complexity checks need L = 1 and L = ratio_L."""
        section = _require(self.raw, "bench", "", dict, {})
        thresholds = _require(section, "thresholds", "bench", dict, {})
        defaults = {f.name: f.default for f in fields(Thresholds)}
        for key in thresholds:
            if key not in defaults:
                raise ConfigError(f"bench.thresholds.{key}: not a threshold; "
                                  f"expected one of {', '.join(defaults)}")
        thresholds = {key: (_integer if isinstance(defaults[key], int) else _number)(
                      thresholds, key, "bench.thresholds") for key in thresholds}
        l_map, l_key, l_path = _flag(section, "l_values", "bench", "--l-values", l_values,
                                     split=True)
        opts = {
            "n_values": _items(*_flag(section, "n_values", "bench", "--n", n, split=True),
                               _integer, default=[100_000]),
            "l_values": _items(l_map, l_key, l_path, _integer, default=[1, 2, 5, 10, 20, 100]),
            "k": _integer(*_flag(section, "k", "bench", "--k", k), default=500),
            "reps": _integer(*_flag(section, "reps", "bench", "--reps", reps), default=3, least=3),
            "thresholds": thresholds,
        }
        ratio_L = thresholds.get("ratio_L", Thresholds.ratio_L)
        if not {1, ratio_L} <= set(opts["l_values"]):
            raise ConfigError(f"{_name(l_path, l_key)}: the complexity checks need L = 1 and "
                              f"L = {ratio_L} (bench.thresholds.ratio_L), got {opts['l_values']}")
        return opts
