"""Exception hierarchy shared by all bandedgf modules."""


class BandedGFError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(BandedGFError):
    """Two operands live over different coefficient fields."""


class ShapeError(BandedGFError):
    """Matrix or vector dimensions do not match."""


class NonUnitError(BandedGFError):
    """Inversion of a series or matrix whose constant term is not invertible."""


class UnsupportedSqrtError(BandedGFError):
    """Square root of a series whose constant term is not exactly 1."""


class UnsupportedCharacteristicError(BandedGFError):
    """Operation not available in the coefficient field's characteristic."""


class ResourceLimitError(BandedGFError):
    """Requested work exceeds one of the package's ceilings, refused up front."""


class InvalidBlockSizeError(BandedGFError):
    """Proposed block size fails the corner/periodicity conditions.

    Carries the first offending position in ``position``.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class RouteMismatchError(BandedGFError):
    """Two independent computations of the same series disagree.

    ``order`` is the first differing z-order.
    """

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class InsufficientPrecisionError(BandedGFError):
    """Series is not known to a high enough order for the request."""


class SpecFormatError(BandedGFError):
    """Input document (JSON spec, weights, recursion) failed to parse or validate."""
