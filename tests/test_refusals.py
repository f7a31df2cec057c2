"""The refusal property over the public surface: every public callable,
given junk, either answers or raises a ``MomentsError``.

The surface is the package's ``__all__``, every public function and class
that ``moments`` and ``conjecture`` define, and ``verify``'s entry points.
Each is called with every combination of 0, 1 and 2 positional arguments
from a fixed junk list that its signature admits.  The one other
exception allowed is ``oracle``'s documented ``TypeError`` on an
unhashable query, raised by its cache.  ``verify.check_*`` are left out:
their one caller, ``run_verification``, checks the config first.
"""

import inspect
import itertools
import math
from fractions import Fraction

import pytest

import binomial_moments
from binomial_moments import conjecture, moments, verify
from binomial_moments.errors import MomentsError

JUNK = (0, 1, -1, 3, True, 1.5, 2.0, math.nan, None, "2", [1], Fraction(1, 2), Fraction(-3, 2))


def _entry_points(module) -> list:
    """(name, callable) for each public function and class that ``module`` defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    return [
        (f"{short}.{name}", obj)
        for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and obj.__module__ == module.__name__
    ]


SURFACE = [(f"package.{n}", getattr(binomial_moments, n)) for n in binomial_moments.__all__]
SURFACE += _entry_points(moments) + _entry_points(conjecture)
SURFACE += [("verify.run_verification", verify.run_verification)]
SURFACE += [("verify.VerifyConfig", verify.VerifyConfig)]
# Each callable once, under the first name that reaches it.
CALLABLES = {}
for name, obj in SURFACE:
    if callable(obj) and all(obj is not seen for seen in CALLABLES.values()):
        CALLABLES[name] = obj


def _allowed(fn, exc: Exception) -> bool:
    if isinstance(exc, MomentsError):
        return True
    return fn is moments.oracle and isinstance(exc, TypeError) and "unhashable" in str(exc)


def test_surface_is_covered():
    names = set(CALLABLES)
    exported = [getattr(binomial_moments, n) for n in binomial_moments.__all__]
    assert all(any(obj is fn for fn in CALLABLES.values()) for obj in exported if callable(obj))
    assert {"moments.family_ansatz", "moments.AnsatzTerm", "conjecture.explore_D_even"} <= names
    assert {"conjecture.solve_exact", "verify.run_verification", "verify.VerifyConfig"} <= names
    assert not any(name.startswith("verify.check_") for name in names)


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_junk_is_refused_with_a_moments_error(name):
    fn = CALLABLES[name]
    signature = inspect.signature(fn)
    escaped = []
    for arity in range(3):
        for args in itertools.product(JUNK, repeat=arity):
            try:
                signature.bind(*args)
            except TypeError:
                continue
            try:
                fn(*args)
            except Exception as exc:
                if not _allowed(fn, exc):
                    escaped.append(f"{name}{args!r}: {type(exc).__name__}: {exc}")
    assert escaped == []
