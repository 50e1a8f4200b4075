"""Exact rational scalars.

Every computation in this package runs over the rationals with zero
tolerance.  This module pins the scalar constructor used everywhere:
gmpy2's mpq when available (much faster), with fractions.Fraction as a
drop-in fallback.  Both keep a canonical reduced form with positive
denominator and expose .numerator / .denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction

ZERO = Q(0)
ONE = Q(1)
HALF = Q(1, 2)


def as_integers(vec):
    """(ints, d) with vec[k] == ints[k] / d, d the lcm of the denominators;
    None when an entry is not a rational (int, Q) but, say, a polynomial."""
    try:
        den = lcm(*(x.denominator for x in vec))
    except AttributeError:
        return None
    return [x.numerator * (den // x.denominator) for x in vec], den


def lowest_terms(ints, den):
    """(ints, den) for integers over a positive den, divided by
    gcd(den, *ints): the same rationals in lowest terms, ints a tuple."""
    g = gcd(den, *ints)
    return (tuple(ints), den) if g == 1 else (tuple(c // g for c in ints), den // g)


def from_integers(ints, den):
    """The rationals ints[k] / den, one Q per nonzero entry."""
    return [Q(x, den) if x else ZERO for x in ints]


def qstr(x) -> str:
    """Canonical string form: "a" for integers, else "a/b" with b > 0."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def parse_rational(text: str):
    """Parse "a" or "a/b" into an exact rational."""
    t = text.strip()
    try:
        if "/" in t:
            num, den = t.split("/", 1)
            return Q(int(num.strip()), int(den.strip()))
        return Q(int(t))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational literal: {text!r}")
