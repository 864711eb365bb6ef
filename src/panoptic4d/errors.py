"""Exception types shared across the pipeline.

Everything derives from ValueError so callers that do not care about the
distinction can catch the usual thing.
"""


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
