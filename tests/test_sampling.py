from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaline import metabelian as meta
from metaline.runner import _sample_element, form_and_dimensions
from metaline.sampling import DENOMINATOR_BOUND, NUMERATOR_BOUND, RationalSampler
from metaline.scalars import Q
from metaline.varieties import builtin_chart, builtin_names


def test_same_seed_same_stream():
    a = RationalSampler(42)
    b = RationalSampler(42)
    assert [a.rational() for _ in range(20)] == [b.rational() for _ in range(20)]


def test_different_seeds_differ():
    a = RationalSampler(1)
    b = RationalSampler(2)
    assert [a.rational() for _ in range(10)] != [b.rational() for _ in range(10)]


def test_derive_streams_are_independent():
    base = RationalSampler(42)
    first = base.derive("alpha")
    # consuming one stream must not advance a sibling stream
    _ = [first.rational() for _ in range(50)]
    assert base.derive("beta").rational() == RationalSampler(42).derive("beta").rational()
    assert base.derive("alpha").vector(4) != base.derive("beta").vector(4)


def test_bounds():
    sampler = RationalSampler(7)
    for _ in range(200):
        value = sampler.rational()
        assert abs(value.numerator) <= NUMERATOR_BOUND
        assert 1 <= value.denominator <= DENOMINATOR_BOUND


def test_nonzero_variants():
    sampler = RationalSampler(9)
    assert all(sampler.nonzero_rational() != 0 for _ in range(50))
    assert any(c != 0 for c in sampler.nonzero_vector(3))


def test_distinct_rationals():
    values = RationalSampler(5).distinct_rationals(8)
    assert len(set(values)) == 8


def test_integer_bound():
    sampler = RationalSampler(3)
    assert all(0 <= sampler.integer(7) < 7 for _ in range(100))


seeds = st.integers(min_value=0, max_value=2**64)


@settings(max_examples=300, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=8))
def test_integers_are_the_draws_of_vector(seed, length):
    """integers(n) gives vector(n) of a twin stream as integers over one
    positive denominator, and leaves its stream where the twin's is."""
    sampler, twin = RationalSampler(seed), RationalSampler(seed)
    ints, den = sampler.integers(length)
    assert den > 0 and len(ints) == length and all(type(c) is int for c in ints)
    assert tuple(Q(c, den) for c in ints) == twin.vector(length)
    assert sampler.state == twin.state
    assert sampler.rational() == twin.rational()


@cache
def _builtin_form(name):
    return form_and_dimensions(*builtin_chart(name))[0]


@pytest.mark.parametrize("name", builtin_names())
@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_a_sampled_element_is_the_element_of_two_vectors(name, seed):
    """A sampled base point, drawn as integers, is the element of the W and
    U vectors that a twin stream draws, in lowest terms, on every builtin
    form: flat-conic's has dim_u = 0."""
    omega = _builtin_form(name)
    sampler, twin = RationalSampler(seed), RationalSampler(seed)
    x = _sample_element(sampler, omega)
    expected = meta.element(omega, twin.vector(omega.dim_w), twin.vector(omega.dim_u))
    assert (x.w, x.u) == (expected.w, expected.u) and x.coords == expected.coords
    assert sampler.state == twin.state
    assert name != "flat-conic" or x.u == ((), 1)
