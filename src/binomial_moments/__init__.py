"""Exact evaluation, cross-verification, and rediscovery of closed forms
for four families of binomial moment sums.

The package is organised by layer:

* :mod:`~binomial_moments.exact`      -- rational scalars, Pochhammer symbols,
  generalized binomials, half-integer brackets;
* :mod:`~binomial_moments.series`     -- truncated formal power series,
  polynomials, exact interpolation;
* :mod:`~binomial_moments.sigma`      -- complete symmetric functions: a
  one-pass row for production and three independently implemented forms;
* :mod:`~binomial_moments.moments`    -- the moment families with oracle,
  closed-form, and printed-formula routes; the printed formulas themselves,
  one table of ansatz-plus-coefficient records;
* :mod:`~binomial_moments.conjecture` -- exact ansatz fitting: rediscovers the
  printed formulas from oracle data and searches the open even-D case;
* :mod:`~binomial_moments.verify`     -- the invariant suite behind
  ``moments verify``;
* :mod:`~binomial_moments.cli`        -- the ``moments`` command line.
"""

from . import errors
from .exact import binomial, bracket, central_binomial, falling, rising
from .moments import (
    COROLLARIES,
    EvalResult,
    MomentQuery,
    closed_form,
    corollary_value,
    evaluate,
    lambda_check,
    lemma1_residual,
    oracle,
)
from .series import (
    Polynomial,
    TruncatedSeries,
    geometric,
    poly_interpolate,
    series_mul,
)
from .sigma import sigma_explicit, sigma_monomial, sigma_poly, sigma_row, sigma_series

__all__ = [
    "COROLLARIES",
    "EvalResult",
    "MomentQuery",
    "Polynomial",
    "TruncatedSeries",
    "binomial",
    "bracket",
    "central_binomial",
    "closed_form",
    "corollary_value",
    "errors",
    "evaluate",
    "falling",
    "geometric",
    "lambda_check",
    "lemma1_residual",
    "oracle",
    "poly_interpolate",
    "rising",
    "series_mul",
    "sigma_explicit",
    "sigma_monomial",
    "sigma_poly",
    "sigma_row",
    "sigma_series",
]

__version__ = "0.1.0"
