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


class BadDenominatorError(DiagQuarticError):
    """Rational part denominator does not have constant term 1."""


class InvariantError(DiagQuarticError):
    """An internal invariant failed: a defect in the library, not bad input."""
