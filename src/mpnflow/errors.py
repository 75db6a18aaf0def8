"""Exception types shared across the package, the one text-file reader, the
one config-section check, and the range checks of a user-set number: its
sign, a lower bound and an interval.  No other module spells a range
message."""

import math
from dataclasses import fields


class MpnflowError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(MpnflowError):
    """A configuration value is missing, unknown, or out of range."""


class ParseError(MpnflowError):
    """An input file could not be parsed; the message names the line."""


class ShapeError(MpnflowError):
    """Tensor shapes do not line up for the requested operation."""


class GradientError(MpnflowError):
    """A gradient is missing, non-finite, or not a scalar where required."""


class CheckpointError(MpnflowError):
    """A parameter file is malformed or does not match the model."""


class FeasibilityError(MpnflowError):
    """An edge labelling violates the flow constraints where it must not."""


class TrainingError(MpnflowError):
    """Training aborted, e.g. on a non-finite loss."""


class MetricsError(MpnflowError):
    """Metric inputs are degenerate (e.g. empty ground truth)."""


def read_text(path) -> str:
    """The whole of a UTF-8 text file; undecodable bytes are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


# accepted value types per declared field type; a bool is never an int or a float
_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
          "int | None": (int, type(None)), "dict": (dict,)}


def check_config(section: str, raw: dict, declared: dict[str, str]) -> None:
    """Reject keys of a config section that are not declared, and values
    that are not of their key's declared type."""
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {unknown}")
    for key, value in raw.items():
        kinds = _KINDS[declared[key]]
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise ConfigError(f"{section} config key {key!r} must be {declared[key]}, "
                              f"got {value!r}")


def check_finite_sign(name: str, value: float, *, positive: bool = False) -> None:
    """A ConfigError naming the key unless value is finite and >= 0 (> 0 if
    positive); NaN and inf would pass a comparison alone."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ConfigError(f"{name} must be finite and {'>' if positive else '>='} 0, "
                          f"got {value}")


def check_at_least(name: str, value, low) -> None:
    """A ConfigError naming the key unless value >= low; NaN fails."""
    if not value >= low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def check_in(name: str, value, low, high, *, open_low: bool = False,
             open_high: bool = False) -> None:
    """A ConfigError naming the key unless low <= value <= high, each bound
    excluded if open; NaN fails."""
    if not ((value > low if open_low else value >= low)
            and (value < high if open_high else value <= high)):
        raise ConfigError(f"{name} must be in {'(' if open_low else '['}{low}, {high}"
                          f"{')' if open_high else ']'}, got {value}")


def config_from_dict(cls, section: str, raw: dict):
    """The validated config dataclass cls built from one type-checked section."""
    check_config(section, raw, {f.name: f.type for f in fields(cls)})
    cfg = cls(**raw)
    cfg.validate()
    return cfg
