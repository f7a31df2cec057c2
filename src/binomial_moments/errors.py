"""Exception hierarchy shared by all modules.

Everything derives from MomentsError so callers (in particular the CLI)
can distinguish domain failures from genuine bugs.
"""

from fractions import Fraction


class MomentsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MomentsError):
    """An argument is outside the domain of the requested operation."""


def require_ints(where: str, **values: object) -> None:
    """Raise DomainError unless every value is exactly an int.

    bool is an int subclass and a float is inexact; both are rejected.
    """
    for name, v in values.items():
        if type(v) is not int:
            raise DomainError(f"{where}: {name} must be an int, got {v!r}")


def require_rationals(where: str, **values: object) -> None:
    """Raise DomainError unless every value is an int or a Fraction.

    bool, float (NaN included) and every other type are rejected, so no
    binary approximation ever enters exact arithmetic.
    """
    for name, v in values.items():
        if type(v) is not int and not isinstance(v, Fraction):
            raise DomainError(f"{where}: {name} must be an int or a Fraction, got {v!r}")


class NegativeIndexPole(DomainError):
    """Negative-index factorial extension hit a zero in its denominator."""


class OrderMismatch(MomentsError):
    """Arithmetic between truncated series of different orders."""


class IndexOutOfOrder(MomentsError):
    """Coefficient index beyond the truncation order."""


class DuplicateAbscissa(MomentsError):
    """Interpolation points with repeated x values."""


class ConsistencyError(MomentsError):
    """Data that must agree exactly does not."""


class DenominatorPole(MomentsError):
    """The explicit symmetric-function formula was evaluated at a pole."""


class NoClosedFormKnown(MomentsError):
    """Requested a closed form for a family/parity that has none (open case)."""


class PreconditionViolated(MomentsError):
    """A closed-form evaluator was called outside its validity guard."""


class NotTabulated(MomentsError):
    """No printed simplified formula exists for this family/exponent."""


class GuardViolated(MomentsError):
    """A printed simplified formula was evaluated below its guard."""


class SingularSystem(MomentsError):
    """Exact linear solve has no unique solution."""


class Inconsistent(MomentsError):
    """Overdetermined exact linear system has contradictory rows."""
