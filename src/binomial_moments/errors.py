"""Exception hierarchy shared by all modules.

Everything derives from MomentsError so callers (in particular the CLI)
can distinguish domain failures from genuine bugs.
"""

from collections import abc
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


# Iterables whose items do not come in the caller's order (a mapping yields
# its keys, a set its members in hash order) or are characters or byte
# values rather than numbers.
_UNORDERED = (abc.Mapping, abc.Set, str, bytes, bytearray)


def is_ordered(v: object, kind: type = abc.Iterable) -> bool:
    """Whether v is a ``kind`` (by default any iterable) that is not a
    mapping, a set or frozenset, or a str, bytes or bytearray.

    Lists, tuples, ranges and generators are ordered.
    """
    if type(v) is list or type(v) is tuple:
        return True
    return isinstance(v, kind) and not isinstance(v, _UNORDERED)


def require_ordered(where: str, name: str, v: object, kind: type = abc.Iterable) -> None:
    """Raise DomainError naming v unless ``is_ordered(v, kind)``."""
    if not is_ordered(v, kind):
        raise DomainError(
            f"{where}: {name} must be an ordered {kind.__name__.lower()}"
            f" (not a mapping, set, str or bytes), got {v!r}"
        )


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
