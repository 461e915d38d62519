"""Exception taxonomy shared across the toolkit, and the one loader that
turns a JSON object into a config."""

import math
import types
import typing
from dataclasses import MISSING, fields


class DPTailsError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(DPTailsError):
    """Invalid configuration value; message names the offending field."""


def check_keys(raw, allowed, required, where):
    """Raise ConfigurationError naming `where` and the keys if `raw` is not
    a JSON object, has a key outside `allowed` or lacks one of `required`."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}: must be a JSON object")
    for problem, keys in (("unknown", set(raw) - set(allowed)),
                          ("missing", set(required) - set(raw))):
        if keys:
            raise ConfigurationError(f"{where}: {problem} key(s): "
                                     f"{sorted(keys)}")


def _fits(value, hint):
    """Whether `value` fits the annotation `hint`: an int is a float, a bool
    is neither, `X | None` admits None, `list[X]` a list of X,
    `tuple[X, ...]` a tuple of X and `tuple[X, Y]` a pair (X, Y)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0])
                                               for v in value)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(
            _fits(v, h) for v, h in zip(value, args))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _non_finite(value):
    """Whether `value` is, or is a list or tuple that holds, a NaN or
    infinite float (JSON's NaN and Infinity, or a number such as 1e400)."""
    return any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, (list, tuple))
                         else [value]))


def config_from_dict(cls, raw, where):
    """The config dataclass `cls` built from the JSON object `raw`, the one
    place a JSON object becomes a config. Each value must fit its field's
    annotation and be free of NaN and infinities; range checks stay in
    cls.__post_init__."""
    check_keys(raw, [f.name for f in fields(cls)],
               [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING],
               where)
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        hint = hints[key]
        if not _fits(value, hint):
            raise ConfigurationError(
                f"{where}: {key!r} must be "
                f"{hint.__name__ if isinstance(hint, type) else hint}, "
                f"got {type(value).__name__}")
        if _non_finite(value):
            raise ConfigurationError(
                f"{where}: {key!r} must be finite, got NaN or an infinity")
    return cls(**raw)


class SplitError(DPTailsError):
    """Yearly split cannot be constructed (missing pivot or no prior data)."""


class ParseError(DPTailsError):
    """Cohort file violates the CSV schema."""

    def __init__(self, message, row=None, column=None):
        loc = ""
        if row is not None:
            loc += f" (row {row}"
            loc += f", column {column})" if column is not None else ")"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class ShapeError(DPTailsError):
    """Array dimensions do not match the model family."""


class DomainError(DPTailsError):
    """Input outside the operation's domain (empty subset, k < 1, ...)."""


class UnsupportedFamilyError(DPTailsError):
    """Operation only defined for a subset of model families."""


class NumericError(DPTailsError):
    """Non-finite values where finite ones are required."""


class TrainingError(DPTailsError):
    """Training diverged; carries the epoch index."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class OptimizationError(DPTailsError):
    """Deterministic solver failed to reach tolerance within its cap."""


class InfinitePrivacyLossError(DPTailsError):
    """No finite RDP bound exists (sigma = 0 with positive sampling rate)."""


class InsufficientDataError(DPTailsError):
    """Too few records to run the audit."""


class UndefinedMetricError(DPTailsError):
    """Metric undefined for the given label composition."""


class UndefinedCorrelationError(DPTailsError):
    """Correlation undefined (zero variance input)."""


class ConditioningError(DPTailsError):
    """Linear system too ill-conditioned to solve at zero damping."""
