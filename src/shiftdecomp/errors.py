"""Exception types shared across the toolkit."""


class ShiftDecompError(Exception):
    """Base class for every error raised by this package."""


class NotPrimeError(ShiftDecompError):
    """The requested modulus is composite."""


class OutOfRangeError(ShiftDecompError):
    """A prime or parameter falls outside the configured bounds."""


class NotADivisorError(ShiftDecompError):
    """Requested subgroup order does not divide p - 1."""


class NotASubgroupError(ShiftDecompError):
    """A set given as a subgroup of F_p^* is not one."""


class ZeroElementError(ShiftDecompError):
    """A set that must avoid zero contains it."""


class ModulusMismatchError(ShiftDecompError):
    """Two operands live over different moduli."""


class ZeroDivisorError(ShiftDecompError):
    """Division by a set or element containing zero."""


class ZeroScaleError(ShiftDecompError):
    """A target requested with scale factor zero."""


class ZeroParameterError(ShiftDecompError):
    """A shift or scale parameter that must be nonzero is zero."""


class ZeroInTargetError(ShiftDecompError):
    """A multiplicative target set contains zero."""


class MissingZeroError(ShiftDecompError):
    """A difference-set target is missing the mandatory zero."""


class InternalMismatchError(ShiftDecompError):
    """Two independent computations of the same value disagree."""


class ZeroPolynomialError(ShiftDecompError):
    """Operation undefined for the zero polynomial."""


class HypothesisViolatedError(ShiftDecompError):
    """Audit inputs do not satisfy the required containment hypothesis."""


class BoundViolationError(ShiftDecompError):
    """A verified bound or factorization claim failed on concrete inputs."""


class UnexpectedRootError(ShiftDecompError):
    """The evaluation point must not be a root of the cofactor polynomial."""


class FactorialOverflowError(ShiftDecompError):
    """A required factorial order reaches the modulus, so it vanishes mod p."""


class NonInvertibleIndexError(ShiftDecompError):
    """A Newton recursion index is not invertible modulo p."""


class DegenerateInputError(ShiftDecompError):
    """A geometric construction received coincident points."""


class TheoremViolation(ShiftDecompError):
    """An audited prediction failed; carries the offending report record.

    ``violations`` lists every offending record (``record`` is the first) and
    ``records`` every record of the audit that raised, violating or not.
    """

    def __init__(self, message, record=None, *, violations=None, records=None):
        super().__init__(message)
        self.record = record
        if violations is None:
            violations = [] if record is None else [record]
        self.violations = violations
        self.records = [] if records is None else records
