"""The refusal property over the public surface: every public callable,
given junk, either answers or raises a ``MomentsError``.

The surface is the package's ``__all__``, every public function and class
that ``moments`` and ``conjecture`` define, and ``verify``'s entry points.
Each is called with every combination of 0, 1 and 2 positional arguments
from a fixed junk list that its signature admits.  The one other
exception allowed is ``oracle``'s documented ``TypeError`` on an
unhashable query, raised by its cache.  ``verify.check_*`` are left out:
their one caller, ``run_verification``, checks the config first.

The formula records ``ClosedFormCandidate`` and ``PrintedForm`` take more
arguments than the property reaches; an explicit table of malformed
fields pins their refusals and exact messages.
"""

import dataclasses
import inspect
import itertools
import math
from fractions import Fraction

import pytest

import binomial_moments
from binomial_moments import conjecture, moments, verify
from binomial_moments.errors import DomainError, MomentsError

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


# The formula records take 5-8 fields, out of the junk property's reach.
# Each malformed field is refused at construction, with its exact message.
# Before, a float coefficient entered a candidate's value as its binary
# fraction, and the rest raised TypeError or AttributeError or were
# accepted and failed later.
TERM = moments.AnsatzTerm("central", 1)
SHAPE = moments.Ansatz((TERM,))
A2 = moments.COROLLARIES[("A", 2)]
B2 = moments.COROLLARIES[("B", 2)]
CANDIDATE = ("D", 0, SHAPE, (1, Fraction(1, 2)), (1, 2), (3,), "refuted", 3)


def candidate(**fields):
    names = [f.name for f in dataclasses.fields(conjecture.ClosedFormCandidate)]
    return conjecture.ClosedFormCandidate(**{**dict(zip(names, CANDIDATE)), **fields})


MALFORMED_RECORDS = [
    (
        "candidate-float-coefficient",
        lambda: candidate(coefficients=(0.1, 2)),
        "ClosedFormCandidate: coefficient must be an int or a Fraction, got 0.1",
    ),
    (
        "candidate-str-coefficient",
        lambda: candidate(coefficients=("1", 2)),
        "ClosedFormCandidate: coefficient must be an int or a Fraction, got '1'",
    ),
    (
        "candidate-bool-coefficient",
        lambda: candidate(coefficients=(True, 2)),
        "ClosedFormCandidate: coefficient must be an int or a Fraction, got True",
    ),
    (
        "candidate-too-few-coefficients",
        lambda: candidate(coefficients=(1,)),
        "ClosedFormCandidate: needs a tuple of 2 coefficients, got (1,)",
    ),
    (
        "candidate-coefficient-list",
        lambda: candidate(coefficients=[1, 2]),
        "ClosedFormCandidate: needs a tuple of 2 coefficients, got [1, 2]",
    ),
    (
        "candidate-ansatz",
        lambda: candidate(ansatz=TERM),
        f"ClosedFormCandidate: ansatz must be an Ansatz, got {TERM!r}",
    ),
    (
        "candidate-family",
        lambda: candidate(family="E"),
        "ClosedFormCandidate: family must be one of ('A', 'B', 'C', 'D'), got 'E'",
    ),
    (
        "candidate-power",
        lambda: candidate(power=2.0),
        "ClosedFormCandidate: power must be an int, got 2.0",
    ),
    (
        "candidate-nodes",
        lambda: candidate(fitted_on=5),
        "ClosedFormCandidate: fitted_on and verified_on must be tuples of ints, got 5 and (3,)",
    ),
    (
        "candidate-node",
        lambda: candidate(verified_on=(3.0,)),
        "ClosedFormCandidate: fitted_on and verified_on must be tuples of ints, "
        "got (1, 2) and (3.0,)",
    ),
    (
        "candidate-status",
        lambda: candidate(status="maybe"),
        "ClosedFormCandidate: status must be verified or refuted, got 'maybe'",
    ),
    (
        "candidate-first-mismatch",
        lambda: candidate(first_mismatch="3"),
        "ClosedFormCandidate: first_mismatch must be an int, got '3'",
    ),
    (
        "printed-str-denominator",
        lambda: dataclasses.replace(A2, denominators=("1",)),
        "A2: denominators[0] must be an int, got '1'",
    ),
    (
        "printed-int-numerator",
        lambda: dataclasses.replace(A2, numerators=(5,)),
        "A2: numerators must be a tuple of tuples, got (5,)",
    ),
    (
        "printed-float-coefficient",
        lambda: dataclasses.replace(A2, numerators=((0, 1.0),)),
        "A2: numerators[0][1] must be an int, got 1.0",
    ),
    (
        "printed-ansatz",
        lambda: dataclasses.replace(A2, ansatz=TERM),
        f"A2: ansatz must be an Ansatz, got {TERM!r}",
    ),
    (
        "printed-str-min-n",
        lambda: dataclasses.replace(A2, min_n="x"),
        "A2: min_n must be an int, got 'x'",
    ),
    (
        "printed-float-point-value",
        lambda: dataclasses.replace(B2, points=((1, 1.5),)),
        "B2: points[0][1] must be an int, got 1.5",
    ),
    (
        "printed-point-not-a-pair",
        lambda: dataclasses.replace(B2, points=((1,),)),
        "B2: points must be a tuple of pairs (n, v), got ((1,),)",
    ),
    (
        "printed-min-n-below-one",
        lambda: dataclasses.replace(A2, min_n=0),
        "A2: needs power >= 0 and min_n >= 1, got 2 and 0",
    ),
    (
        "printed-family",
        lambda: dataclasses.replace(A2, family="E"),
        "E2: family must be one of ('A', 'B', 'C', 'D'), got 'E'",
    ),
    (
        "printed-denominators-list",
        lambda: dataclasses.replace(A2, denominators=[1]),
        "A2: denominators must be a tuple, got [1]",
    ),
]


def test_well_formed_records_are_accepted():
    assert candidate().value_at(3) == SHAPE.value((2, 1), 3, 2)
    assert dataclasses.replace(A2) == A2


@pytest.mark.parametrize(
    "build, message",
    [build_message for _, *build_message in MALFORMED_RECORDS],
    ids=[name for name, _, _ in MALFORMED_RECORDS],
)
def test_malformed_record_fields_are_refused(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message
