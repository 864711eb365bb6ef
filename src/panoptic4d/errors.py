"""Exception types shared across the pipeline, and the one range rule of
the config dataclasses.

Everything derives from ValueError so callers that do not care about the
distinction can catch the usual thing. A config field declares its range
once, as `dataclasses.field(default=..., metadata=domain(...))`, and the
class's `__post_init__` calls `check_fields(self)`, which raises
`ParameterError` naming the key of the first float that is not finite or
value outside its domain.
"""

import dataclasses
import math


class ParameterError(ValueError):
    """An argument is outside its documented domain (bad size, range, count)."""


class ArityError(ParameterError):
    """Paired inputs have mismatched lengths."""


class InvalidPoseError(ParameterError):
    """Rotation matrix is not orthonormal with determinant +1."""


class EmptyInstanceError(ParameterError):
    """An operation that needs a non-empty point set got an empty one."""


class ShapeError(ValueError):
    """Array shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """Inputs violate a documented precondition that is not a plain parameter."""


class CapacityError(ContractError):
    """More targets than available slots (e.g. ground-truth segments than queries)."""


class MissingLabelsError(ContractError):
    """A frame that must be labelled has no label file; names the frame and path."""


class FormatError(ValueError):
    """A file does not follow its documented binary or text layout."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


def domain(lo, hi=None, *, above: bool = False, below: bool = False) -> dict:
    """Field metadata: the value (each entry, for a tuple) lies in [lo, hi],
    with no upper end when hi is None; `above` excludes lo, `below` excludes hi."""
    return {"domain": (lo, hi, above, below)}


def _describe(lo, hi, above: bool, below: bool) -> str:
    if hi is None:
        return f"{'>' if above else '>='} {lo}"
    return f"in {'(' if above else '['}{lo}, {hi}{')' if below else ']'}"


def check_fields(obj) -> None:
    """Every float field of dataclass obj is finite and every field with a
    domain lies in it, a tuple field entry by entry; else a ParameterError
    "{key} must be ..., got {value}"."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        bounds = f.metadata.get("domain")
        for v in value if isinstance(value, tuple) else (value,):
            if "float" in f.type and not math.isfinite(v):
                raise ParameterError(f"{f.name} must be finite, got {v}")
            if bounds is None:
                continue
            lo, hi, above, below = bounds
            if (v <= lo if above else v < lo) or (
                hi is not None and (v >= hi if below else v > hi)
            ):
                raise ParameterError(f"{f.name} must be {_describe(*bounds)}, got {v}")
