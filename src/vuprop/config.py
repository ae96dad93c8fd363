"""Run-config loading and validation.

One YAML file drives every subcommand; sections are validated lazily so a
config only needs the sections its subcommand uses. Validation errors carry
the config path of the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .distributions import MeasurementScenario
from .errors import ConfigError, GridError, ExpressionError, EvaluationError
from .grid import Dim, GridSpec
from .models import ModelFunction, builtin, parse_expression


def _require(mapping, key, path, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}.{key}: required key missing")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _number(mapping, key, path, default=None):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: required key missing")
    value = mapping[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def scale_fractions(scales, path) -> list[float]:
    """The variogram scales as floats: a non-empty list of fractions of the
    x extent, each in (0, 1]. `path` names where they came from."""
    if not isinstance(scales, list) or not scales:
        raise ConfigError(f"{path}: expected a non-empty list of domain fractions")
    for s in scales:
        # A YAML bool is an int to Python; `true` is not the fraction 1.
        if isinstance(s, bool) or not isinstance(s, (int, float)) or not 0 < s <= 1:
            raise ConfigError(f"{path}: fractions must be in (0, 1], got {s!r}")
    return [float(s) for s in scales]


@dataclass
class RunConfig:
    raw: dict
    seed: int = 0

    # Cached sections, built on first access.
    _model: ModelFunction | None = field(default=None, repr=False)
    _scenario: MeasurementScenario | None = field(default=None, repr=False)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                # libyaml's parser when PyYAML was built with it, same result.
                raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("seed: expected an integer")
        return cls(raw, seed)

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
            variables = section.get("variables")
            if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
                raise ConfigError("model.variables: expected a list of variable names")
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
            start = _number(locs, "start", "scenario.locations")
            stop = _number(locs, "stop", "scenario.locations")
            num = locs.get("num")
            if not isinstance(num, int) or num < 1:
                raise ConfigError("scenario.locations.num: expected a positive integer")
            locations = np.linspace(start, stop, num)
        elif isinstance(locs, list):
            locations = np.asarray(locs, dtype=float)
        else:
            raise ConfigError("scenario.locations: expected a list or {start, stop, num}")
        weights = section.get("weights")
        if weights is not None:
            if not isinstance(weights, list):
                raise ConfigError("scenario.weights: expected a list or null")
            weights = np.asarray(weights, dtype=float)
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
            dims_raw = _require(section, "dims", "grid", list)
            dims = []
            for i, d in enumerate(dims_raw):
                path = f"grid.dims[{i}]"
                if not isinstance(d, dict):
                    raise ConfigError(f"{path}: expected a mapping")
                try:
                    dims.append(Dim(
                        _require(d, "name", path, str),
                        _number(d, "lower", path),
                        _number(d, "upper", path),
                        _require(d, "count", path, int),
                        d.get("role", "x"),
                    ))
                except GridError as exc:
                    raise ConfigError(f"{path}: {exc}") from None
            try:
                return GridSpec(tuple(dims))
            except GridError as exc:
                raise ConfigError(f"grid: {exc}") from None
        scenario = self.scenario()
        lo = float(scenario.locations.min()) - 4 * scenario.sigma_ell
        hi = float(scenario.locations.max()) + 4 * scenario.sigma_ell
        a = 4 * scenario.sigma_alpha
        return GridSpec((
            Dim("x", lo, hi, self.DEFAULT_X_COUNT, "x"),
            Dim("alpha", -a, a, self.DEFAULT_ALPHA_COUNT, "alpha"),
        ))

    # --- output --------------------------------------------------------------

    def output(self) -> dict:
        section = self.raw.get("output", {})
        if not isinstance(section, dict):
            raise ConfigError("output: expected a mapping")
        k = section.get("k", 500)
        if not isinstance(k, int) or k < 1:
            raise ConfigError("output.k: expected a positive integer")
        level = _number(section, "level", "output", default=0.9)
        if not 0.0 < level < 1.0:
            raise ConfigError(f"output.level: must be in (0, 1), got {level}")
        reference = section.get("deviation_reference", "mode")
        if reference not in ("mode", "alpha-matched"):
            raise ConfigError(
                f"output.deviation_reference: expected 'mode' or 'alpha-matched', got {reference!r}"
            )
        shared = section.get("shared_matrix", True)
        if not isinstance(shared, bool):
            raise ConfigError("output.shared_matrix: expected a boolean")
        return {"k": k, "level": level, "deviation_reference": reference,
                "shared_matrix": shared}

    # --- mc ------------------------------------------------------------------

    def mc(self) -> dict:
        section = self.raw.get("mc", {})
        if not isinstance(section, dict):
            raise ConfigError("mc: expected a mapping")
        n = section.get("n_samples", 100_000)
        if not isinstance(n, int) or n < 1:
            raise ConfigError("mc.n_samples: expected a positive integer")
        return {"n_samples": n}

    # --- vars ----------------------------------------------------------------

    def vars(self) -> dict:
        section = self.raw.get("vars", {})
        if not isinstance(section, dict):
            raise ConfigError("vars: expected a mapping")
        scales = scale_fractions(section.get("scales", [0.1, 0.3, 0.5]), "vars.scales")
        v_count = section.get("v_count", 200)
        if not isinstance(v_count, int) or v_count < 1:
            raise ConfigError("vars.v_count: expected a positive integer")
        return {"scales": scales, "v_count": v_count}

    # --- bench ---------------------------------------------------------------

    def bench(self) -> dict:
        section = self.raw.get("bench", {})
        if not isinstance(section, dict):
            raise ConfigError("bench: expected a mapping")
        n_values = section.get("n_values", [100_000])
        l_values = section.get("l_values", [1, 2, 5, 10, 20, 100])
        for key, values in (("n_values", n_values), ("l_values", l_values)):
            if not isinstance(values, list) or not all(
                isinstance(v, int) and v >= 1 for v in values
            ):
                raise ConfigError(f"bench.{key}: expected a list of positive integers")
        k = section.get("k", 500)
        if not isinstance(k, int) or k < 1:
            raise ConfigError("bench.k: expected a positive integer")
        reps = section.get("reps", 3)
        if not isinstance(reps, int) or reps < 3:
            raise ConfigError("bench.reps: expected an integer >= 3")
        thresholds = section.get("thresholds", {})
        if not isinstance(thresholds, dict):
            raise ConfigError("bench.thresholds: expected a mapping")
        return {"n_values": n_values, "l_values": l_values, "k": k, "reps": reps,
                "thresholds": thresholds}
