import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaline.jets import Jet1
from metaline.scalars import Q

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20).map(
    lambda f: Q(f.numerator, f.denominator)
)


def jet(v, dv):
    return Jet1(Q(v), (Q(dv),))


def test_constructors():
    c = Jet1.const(Q(3, 2), 2)
    assert c.val == Q(3, 2) and c.eps == (0, 0)
    x = Jet1(Q(5), (Q(0), Q(1), Q(0)))
    assert x.val == 5 and x.eps == (0, 1, 0)


def test_sum_and_difference():
    a, b = jet(2, 3), jet(5, 7)
    assert (a + b) == jet(7, 10)
    assert (a - b) == jet(-3, -4)
    assert (1 + a) == jet(3, 3)
    assert (1 - a) == jet(-1, -3)
    assert -a == jet(-2, -3)


def test_product_rule():
    a, b = jet(2, 3), jet(5, 7)
    # (fg)' = f'g + fg'
    assert a * b == jet(10, 3 * 5 + 2 * 7)
    assert 4 * a == jet(8, 12)


def test_quotient_rule():
    a, b = jet(2, 3), jet(5, 7)
    q = a / b
    assert q.val == Q(2, 5)
    assert q.eps[0] == Q(3 * 5 - 2 * 7, 25)
    assert (1 / b).eps[0] == Q(-7, 25)
    with pytest.raises(ZeroDivisionError):
        a / jet(0, 1)


def test_a_scalar_divisor_takes_the_quotient_rule():
    for a in (jet(5, 7), Jet1(Q(2), (Q(3), Q(-1, 4)))):
        for c in (2, Q(-5, 3)):
            assert a / c == a / Jet1.const(c, len(a.eps))
            assert a / c == Jet1(a.val / c, tuple(da / c for da in a.eps))
        for zero in (0, Q(0)):
            with pytest.raises(ZeroDivisionError):
                a / zero


def test_power_rule():
    x = jet(3, 1)
    assert x ** 4 == jet(81, 4 * 27)
    assert x ** 0 == jet(1, 0)
    with pytest.raises(ValueError):
        x ** -1


def test_scalar_equality():
    assert Jet1.const(5, 2) == 5
    assert jet(5, 1) != 5


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_chain_through_polynomial_expression(a, da, b, db):
    """d(x^2 y + y) must match the hand derivative for any jets."""
    x, y = jet(a, da), jet(b, db)
    expr = x ** 2 * y + y
    assert expr.val == a * a * b + b
    assert expr.eps[0] == 2 * a * b * da + (a * a + 1) * db


def _dense_product(x, y):
    return Jet1(x.val * y.val, tuple(x.val * db + y.val * da for da, db in zip(x.eps, y.eps)))


sparse_rationals = st.one_of(st.just(Q(0)), rationals)


@settings(max_examples=100, deadline=None)
@given(rationals, st.lists(sparse_rationals, min_size=4, max_size=4), rationals, rationals)
def test_arithmetic_with_zero_partials_matches_dense(a, da, b, c):
    """Jets whose partials are all or partly zero, on either side, give
    the same product, sum and difference as the dense formulas."""
    x = Jet1(a, da)
    const = Jet1.const(b, 4)
    for left, right in ((x, const), (const, x), (x, x), (const, const)):
        product = left * right
        assert product.val == left.val * right.val
        assert product.eps == _dense_product(left, right).eps
        assert (left + right).eps == tuple(p + q for p, q in zip(left.eps, right.eps))
        assert (left - right).eps == tuple(p - q for p, q in zip(left.eps, right.eps))
    assert (x * c).eps == tuple(c * d for d in da)
    assert (c * x).eps == tuple(c * d for d in da)
    assert (x * 0).eps == (0, 0, 0, 0)
    assert (c - x).eps == tuple(-d for d in da)
