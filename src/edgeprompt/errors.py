"""Exception hierarchy shared across the package.

CLI exit-code mapping: ConfigError and its subclasses (bad usage, bad
inputs, incompatible artifacts) exit with status 2; any other
EdgePromptError exits with status 1.
"""


class EdgePromptError(Exception):
    """Base class for all package errors."""


class ShapeError(EdgePromptError, ValueError):
    """Operand dimensions do not line up; the message names both shapes."""


class ConfigError(EdgePromptError, ValueError):
    """Invalid configuration, arguments, or incompatible artifacts."""


class DatasetError(ConfigError):
    """A dataset container failed to parse or validate."""


class InsufficientDataError(DatasetError):
    """A class has fewer labeled instances than the requested shot count."""


class CompatibilityError(ConfigError):
    """Checkpoint / prompt-file digests or model kinds do not match."""


class FormatError(EdgePromptError, ValueError):
    """A file's contents are malformed: an artifact's magic, version or
    header, or a dataset entry that is not an object or not finite."""


class NonFiniteError(EdgePromptError, ValueError):
    """A value is NaN or Inf: a tensor's data, a softmax input, or a
    tuning loss or gradient (then the message names method and epoch)."""


class NotFittedError(EdgePromptError, RuntimeError):
    """An estimator method requiring a completed fit was called first."""
