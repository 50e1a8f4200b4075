import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaline.jets import Jet1
from metaline.polynomials import (
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_TERMS,
    Poly,
    PolyParseError,
    _height,
    parse_poly,
)
from metaline.scalars import Q, qstr

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12).map(
    lambda f: Q(f.numerator, f.denominator)
)


def p(text, variables=("x", "y")):
    return parse_poly(text, list(variables))


def test_parser_basics():
    assert p("x + y") == Poly.var(0, 2) + Poly.var(1, 2)
    assert p("3") == Poly.const(3, 2)
    assert p("-x") == -Poly.var(0, 2)
    assert p("2*x*y - y^2") == 2 * p("x*y") - p("y") ** 2
    assert p("x**3") == p("x^3")
    assert p("(x + y)^2") == p("x^2 + 2*x*y + y^2")
    assert p("1/2 * x") == Q(1, 2) * Poly.var(0, 2)
    assert p("x/2") == Q(1, 2) * Poly.var(0, 2)


def test_parser_rejects():
    for bad in ("x +* 2", "z", "x^y", "(x", "x/(y)", ""):
        with pytest.raises(PolyParseError):
            p(bad)


def test_parser_caps_nesting_depth():
    assert p("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == Poly.var(0, 2)
    assert p("-" * MAX_NESTING + "x") == (-1) ** MAX_NESTING * Poly.var(0, 2)
    for deep in (
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "(" * 5000 + "x" + ")" * 5000,
        "-" * 5000 + "x",
        "-(" * 2500 + "x" + ")" * 2500,
    ):
        with pytest.raises(PolyParseError, match="nested"):
            p(deep)


def test_parser_caps_degree():
    half = MAX_DEGREE // 2
    assert p(f"x^{MAX_DEGREE}").total_degree() == MAX_DEGREE
    assert p(f"(1+x)^{half}*y^{half}").total_degree() == MAX_DEGREE
    assert p(f"2^{MAX_DEGREE}") == Poly.const(2**MAX_DEGREE, 2)
    for big in (
        f"x^{MAX_DEGREE + 1}",
        f"(x*y)^{half + 1}",
        f"x^{MAX_DEGREE}*y",
        f"2^{MAX_DEGREE + 1}",
        "x^100000",
        "(1+x)^3000",
    ):
        with pytest.raises(PolyParseError, match="exceeds the cap"):
            p(big)


def test_exponent_is_read_without_its_leading_zeros():
    """A zero-padded exponent is its value, however long the padding; one
    with more digits than the cap is refused by its digit count before it
    is converted (int() refuses strings of over 4,300 digits)."""
    assert p("x^" + "0" * 5000 + "2") == p("x^2")
    assert p(f"x^00{MAX_DEGREE}").total_degree() == MAX_DEGREE
    with pytest.raises(PolyParseError, match=f"exponent {MAX_DEGREE + 1} exceeds"):
        p(f"x^000{MAX_DEGREE + 1}")
    with pytest.raises(PolyParseError, match=f"of 4401 digits exceeds the cap of {MAX_DEGREE}$"):
        p("x^" + "1" * 4401)


def test_parser_caps_terms():
    """Sums, products and powers are rejected on a term bound before they
    are formed: a + b, a * b and C(a + e - 1, e) for a- and b-term inputs."""
    assert MAX_TERMS == 1000  # the inputs below sit at the cap and just past it

    def powers(name, count):
        return "(" + "+".join(f"{name}^{i}" for i in range(count)) + ")"

    def grid(count):
        return "(" + "+".join(f"x^{i % 11}*y^{i // 11}" for i in range(count)) + ")"

    assert len(p(powers("x", 40) + "*" + powers("y", 25)).terms) == MAX_TERMS
    assert len(p("+".join(f"x^{i % 32}*y^{i // 32}" for i in range(MAX_TERMS))).terms) == MAX_TERMS
    assert len(p(grid(44) + "^2").terms) == 21 * 7  # bound C(45, 2) = 990
    assert p("(1+x)^64") == (1 + Poly.var(0, 2)) ** 64
    for big in (
        powers("x", 41) + "*" + powers("y", 25),
        "+".join(f"x^{i % 32}*y^{i // 32}" for i in range(MAX_TERMS + 1)),
        grid(45) + "^2",
        "(1+x+y)^44",
    ):
        with pytest.raises(PolyParseError, match="terms exceeds the cap"):
            p(big)
    with pytest.raises(PolyParseError, match="terms exceeds the cap"):
        p("(1+x+y+z)^64", "xyz")


def _bits(poly):
    """The largest bit length of a numerator or denominator of poly."""
    coeffs = poly.terms.values()
    return max((max(abs(c.numerator), c.denominator).bit_length() for c in coeffs), default=0)


def test_parser_caps_coefficient_bits():
    """Literals, sums, products, quotients and powers are rejected on a
    coefficient bit bound before they are formed; below the cap every
    coefficient prints."""
    assert MAX_COEFFICIENT_BITS == 1024  # the inputs below sit at the cap and just past it
    big = "(2^31)^16*(2^31)^16"  # 2^992: factors of 497 bits, bound 994
    for text in (
        str(10**305),  # 306 digits, bound 1021
        "(2^15)^64",  # 16 bits, bound 64 * 16
        big + "*x + y/2^29",  # bound 993 + 30 + 1
        "x/(2^31)^16/(2^31)^16",  # denominators of 497 bits, bound 994
    ):
        poly = p(text)
        assert 0 < _bits(poly) <= MAX_COEFFICIENT_BITS, text
        assert all(qstr(c) for c in poly.terms.values())
    for text in (
        str(2**1024),
        "(2^16)^64",  # 17 bits, bound 64 * 17
        "(2^32)^16*(2^32)^16",  # factors of 513 bits
        big + "*x + y/2^31",  # bound 993 + 32 + 1
        "x/(2^32)^16/(2^32)^16",
        "((2^64)^64)^64*x",
    ):
        with pytest.raises(PolyParseError, match="bits exceed the cap of 1024"):
            p(text)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    max_size=6,
).map(lambda terms: Poly(2, terms))


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, st.integers(1, 4))
def test_coefficient_bit_bounds_hold(a, b, k):
    """The parser's bounds, from the heights (bits of the numerators over
    one common denominator, bits of that denominator), bound the sum, the
    product and the power."""
    (n, d), (m, e) = _height(a), _height(b)
    shorter = min(len(a.terms), len(b.terms))
    assert _bits(a + b) <= max(n + e + 1, m + d + 1, d + e)
    assert _bits(a * b) <= max(n + m + (shorter - 1).bit_length(), d + e)
    assert _bits(a**k) <= k * max(n + (len(a.terms) - 1).bit_length(), d)


def test_parser_rejects_division_by_zero():
    for text in ("x/0", "x/(1-1)", "1/0*y"):
        with pytest.raises(PolyParseError, match="division by zero"):
            p(text)


def test_evaluate_matches_hand_value():
    q = p("x^2*y - 3*y + 1/2")
    assert q.evaluate((Q(2), Q(3))) == 4 * 3 - 9 + Q(1, 2)


def test_diff():
    q = p("x^3*y^2 + 5*x")
    assert q.diff(0) == p("3*x^2*y^2 + 5")
    assert q.diff(1) == p("2*x^3*y")
    assert p("7").diff(0).terms == {}


def test_evaluate_on_jets_matches_diff():
    q = p("x^2*y + y^3 - 4")
    point = (Q(3), Q(-2))
    jets = [Jet1(point[0], (Q(1), Q(0))), Jet1(point[1], (Q(0), Q(1)))]
    out = q.evaluate(jets, zero=Jet1.const(0, 2))
    assert out.val == q.evaluate(point)
    assert out.eps == (q.diff(0).evaluate(point), q.diff(1).evaluate(point))


def test_constant_polynomial_evaluates_to_a_jet_on_jets():
    """Evaluation starts its sum at zero, so a polynomial with only a
    constant term gives an element of the jets' ring, not a bare scalar."""
    jets = [Jet1(Q(3), (Q(1),)), Jet1(Q(-2), (Q(0),))]
    for text, value in (("7/2", Q(7, 2)), ("0", Q(0))):
        out = p(text).evaluate(jets, zero=Jet1.const(0, 1))
        assert isinstance(out, Jet1) and (out.val, out.eps) == (value, (Q(0),))


def test_compose_is_substitution():
    q = p("x^2 + y")
    s = parse_poly("t + 1", ["t"])
    r = parse_poly("t^2", ["t"])
    assert q.compose([s, r]) == parse_poly("t^2 + 2*t + 1 + t^2", ["t"])
    for text, value in (("5/3", Q(5, 3)), ("0", Q(0))):  # a constant composes to a Poly
        out = p(text).compose([s, r])
        assert isinstance(out, Poly) and out == Poly.const(value, 1)


def test_division_only_by_constants():
    assert p("(x + y)/2") == Q(1, 2) * p("x + y")
    assert p("x/(5/3)") == Q(3, 5) * p("x")
    for text in ("x/y", "1/(x - x + y)", "x/(y^2)"):
        with pytest.raises(PolyParseError, match="^division only by rational constants$"):
            p(text)


def test_constant_queries():
    assert Poly.zero(2).terms == {}


def test_degrees():
    q = p("x^3*y + y^2")
    assert q.total_degree() == 4
    assert q.degree_in(0) == 3 and q.degree_in(1) == 2


def test_format_round_trip():
    q = p("x^2 - 1/3*x*y + 2")
    assert parse_poly(q.format(["x", "y"]), ["x", "y"]) == q


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, rationals)
def test_ring_homomorphism_of_evaluation(a, b, c):
    """Evaluation commutes with + and * at any rational point."""
    f = p("x^2 - y")
    g = p("x*y + 3")
    point = (a, b + c)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


def test_pow_matches_repeated_product():
    q = p("x + 2*y")
    assert q ** 3 == q * q * q
    assert q ** 0 == Poly.const(1, 2)
