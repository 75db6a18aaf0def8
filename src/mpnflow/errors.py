"""Exception types shared across the package, and the one text-file reader."""


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
