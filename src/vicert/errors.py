"""Exception types shared across the package."""


class VicertError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(VicertError):
    pass


class NonFinite(VicertError, ValueError):
    """An inf or nan entry, given as input or from a float64 overflow."""


class SingularMatrix(VicertError):
    pass


class NoConvergence(VicertError):
    pass


class NotSymmetric(VicertError):
    pass


class NoAnalyticJacobian(VicertError):
    pass


class NotAffine(VicertError):
    pass


class OffTable(VicertError):
    pass


class BadParameters(VicertError):
    pass


class PreconditionViolated(VicertError):
    pass


class NoViolatingPair(VicertError):
    pass
