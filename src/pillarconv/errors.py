"""Exception hierarchy for pillarconv.

Everything raised on purpose derives from PillarConvError so callers can
catch one type at the CLI boundary.
"""

from __future__ import annotations


class PillarConvError(Exception):
    """Base class for all pillarconv errors."""


class DuplicateCoordError(PillarConvError):
    """Two entries share the same (row, col) coordinate."""


class OutOfBoundsError(PillarConvError):
    """A coordinate lies outside the grid."""


class BadVectorLengthError(PillarConvError):
    """A feature vector does not match the tensor's channel count."""


class UnsortedInputError(PillarConvError):
    """Entries arrived out of their required strict order (coords row-major, tuples offset-major)."""


class FormatError(PillarConvError):
    """A file does not conform to its declared format."""


class BadKernelShapeError(PillarConvError):
    """Kernel shape is not one of the supported forms."""


class StrideUnsupportedError(PillarConvError):
    """Operation does not support the requested stride."""


class ShapeMismatchError(PillarConvError):
    """Array shapes or index ranges are inconsistent."""


class SelectionNotSubsetError(PillarConvError):
    """A selection names coordinates that are not active."""


class EmptyCalibrationPoolError(PillarConvError):
    """Threshold calibration was given no scores."""


class NonFiniteValueError(PillarConvError):
    """A value that must be finite is NaN or infinite."""


class SpecMismatchError(PillarConvError):
    """A network spec is inconsistent with its input or with itself."""


class DensityOverflowError(PillarConvError):
    """Requested active count exceeds the number of grid cells."""
