"""Exception hierarchy shared by all diagquartic modules."""


class DiagQuarticError(Exception):
    """Base class for all library errors."""


class NotPrimeError(DiagQuarticError):
    """The characteristic is not an odd prime."""


class FieldTooLargeError(DiagQuarticError):
    """p^m exceeds the field-size bound, field.DEFAULT_FIELD_BOUND."""


class FieldMismatchError(DiagQuarticError):
    """Operands belong to different fields."""


class ZeroHasNoIndexError(DiagQuarticError):
    """Discrete log of 0 requested."""


class NotInPrimeSubfieldError(DiagQuarticError):
    """Element is not of the form c*1 for a prime-field residue c."""


class BadOrderError(DiagQuarticError):
    """Cyclotomic order k does not divide q - 1."""


class TooLargeError(DiagQuarticError):
    """Enumeration cost exceeds the configured guard."""


class NonIntegralError(DiagQuarticError):
    """A closed-form numerator failed its divisibility assertion."""


class WrongResidueClassError(DiagQuarticError):
    """Operation requires a different residue class of q mod 4."""


class ZeroRHSError(DiagQuarticError):
    """Closed form requested for c = 0 where only c != 0 is covered."""


class QuarticYError(DiagQuarticError):
    """Twist coefficient y is a fourth power (or zero)."""


class NotNearIntegerError(DiagQuarticError):
    """Floating-point reconstruction did not land near an integer."""


class ResidualTooLargeError(DiagQuarticError):
    """A Gauss-sum polynomial residual exceeded its tolerance."""


class BadDenominatorError(DiagQuarticError):
    """Rational part denominator does not have constant term 1."""


class MethodNotApplicableError(DiagQuarticError):
    """The requested counting route does not cover this count."""


class InvariantError(DiagQuarticError):
    """An internal invariant failed: a defect in the library, not bad input."""
