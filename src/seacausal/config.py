"""Run configuration: flat key=value files with command-line overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .quadrature import check_region_lambda


class ConfigError(ValueError):
    """Malformed or invalid configuration (CLI exit code 2)."""


@dataclass
class RunConfig:
    mass: float = 1.0
    epsilon: float = 0.1
    region_lambda: float = 0.85
    quad_rel_tol: float = 0.005
    quad_max_panels: int = 20000
    truncation_T: float = 40.0
    truncation_R: float = 48.0
    seed: int = 12345
    output_path: str = "-"

    def validate(self) -> "RunConfig":
        for key in ("mass", "epsilon", "quad_rel_tol", "truncation_T",
                    "truncation_R"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError("%s must be finite" % key)
        if not self.mass > 0:
            raise ConfigError("mass must be positive")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")
        try:
            check_region_lambda(self.region_lambda)
        except ValueError as exc:
            raise ConfigError("region_lambda: %s" % exc) from exc
        if not self.quad_rel_tol > 0:
            raise ConfigError("quad_rel_tol must be positive")
        if self.quad_max_panels < 1:
            raise ConfigError("quad_max_panels must be positive")
        if not (self.truncation_T > 0 and self.truncation_R > 0):
            raise ConfigError("truncation radii must be positive")
        if not (-2 ** 63 <= int(self.seed) < 2 ** 63):
            raise ConfigError("seed must fit in 64 bits")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    try:
        if typ in ("int", int):
            return int(raw)
        if typ in ("float", float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError("invalid value for %s: %r" % (key, raw)) from exc


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("line %d: expected key = value" % lineno)
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError("unknown config key: %s" % key)
            values[key] = _coerce(key, raw)
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values = parse_config_file(path) if path else {}
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError("unknown config key: %s" % key)
        values[key] = val
    return RunConfig(**values).validate()
