import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HEISENBERG as HEIS
from metaline import metabelian as meta
from metaline.jets import Jet1
from metaline.linalg import pair_count, pair_index, wedge
from metaline.metabelian import (
    GroupElement,
    InternalConsistencyError,
    OmegaForm,
    associativity_holds,
    commutator_matches_bracket,
    element,
    identity_element,
    inverse,
    levi_tensor,
    maurer_cartan_log_derivative,
    multiply,
    one_parameter_subgroup_holds,
)
from metaline.omega_builder import build_omega
from metaline.polynomials import Poly
from metaline.sampling import RationalSampler
from metaline.scalars import Q, as_integers
from metaline.varieties import builtin_chart, builtin_names, chart_from_json, omega_from_json

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8).map(
    lambda f: Q(f.numerator, f.denominator)
)



def test_form_table_and_values():
    form = OmegaForm.from_entries(3, 2, [(0, 2, (1, 0)), (1, 2, (0, Q(1, 2)))])
    assert form.table[pair_index(0, 2, 3)] == (1, 0)
    assert form.table[pair_index(0, 1, 3)] == (0, 0)
    assert form.apply((1, 0, 0), (0, 0, 1)) == [1, 0]
    assert form.apply((0, 0, 1), (1, 0, 0)) == [-1, 0]
    assert form.apply((0, 1, 0), (0, 1, 0)) == [0, 0]
    assert form.apply((0, 1, 0), (0, 0, 2)) == [0, 1]
    with pytest.raises(ValueError):
        OmegaForm.from_entries(3, 1, [(2, 1, (1,))])


def test_heisenberg_product():
    a = element(HEIS, (1, 0), (0,))
    b = element(HEIS, (0, 1), (0,))
    assert multiply(HEIS, a, b) == element(HEIS, (1, 1), (Q(1, 2),))
    assert multiply(HEIS, b, a) == element(HEIS, (1, 1), (Q(-1, 2),))


def test_identity_and_inverse():
    x = element(HEIS, (3, Q(1, 2)), (Q(-2, 3),))
    e = identity_element(HEIS)
    assert multiply(HEIS, x, e) == x and multiply(HEIS, e, x) == x
    assert multiply(HEIS, x, inverse(x)) == e
    assert multiply(HEIS, inverse(x), x) == e


def _bracket(omega, a, b):
    """Lie bracket in log coordinates: W-part zero, U-part the form value."""
    return element(omega, (0,) * omega.dim_w, omega.apply(a.w_part, b.w_part))


def test_bracket_and_commutator():
    a = element(HEIS, (1, 0))
    b = element(HEIS, (0, 1))
    assert _bracket(HEIS, a, b) == element(HEIS, (0, 0), (1,))
    comm = multiply(HEIS, multiply(HEIS, multiply(HEIS, a, b), inverse(a)), inverse(b))
    assert comm == _bracket(HEIS, a, b)
    assert comm.u_part == (1,)


def test_center_is_central():
    x = element(HEIS, (2, 3), (5,))
    z = element(HEIS, (0, 0), (7,))
    assert multiply(HEIS, x, z) == multiply(HEIS, z, x)


def test_symbolic_proofs_heisenberg():
    assert associativity_holds(HEIS)
    assert commutator_matches_bracket(HEIS)
    assert one_parameter_subgroup_holds(HEIS)


def test_symbolic_proofs_wider_form():
    form = OmegaForm.from_entries(
        4, 2, [(0, 1, (1, 0)), (0, 3, (0, Q(-1, 3))), (2, 3, (Q(2), 1))]
    )
    assert associativity_holds(form)
    assert commutator_matches_bracket(form)
    assert one_parameter_subgroup_holds(form)


def test_maurer_cartan_closed_form():
    # at x = (a, b | c), direction v: result is (v | (1/2)(a v2 - b v1))
    x = element(HEIS, (3, 5), (7,))
    out = maurer_cartan_log_derivative(HEIS, x, (2, 4))
    assert out.w_part == (2, 4)
    assert out.u_part == (Q(3 * 4 - 5 * 2, 2),)


def test_maurer_cartan_catches_a_wrong_product(monkeypatch):
    """The oracle holds multiply against the closed-form field: a product
    that doubles its U correction (1/2) form(a_w, b_w) makes it raise."""
    product = meta.multiply

    def doubled(omega, a, b):
        out = product(omega, a, b)
        u = [2 * c - p - q for c, p, q in zip(out.u_part, a.u_part, b.u_part)]
        return element(omega, out.w_part, u)

    monkeypatch.setattr(meta, "multiply", doubled)
    x = element(HEIS, (3, 5), (7,))
    with pytest.raises(InternalConsistencyError, match="disagree"):
        maurer_cartan_log_derivative(HEIS, x, (2, 4))
    assert maurer_cartan_log_derivative(HEIS, x, (3, 5)).u_part == (0,)  # form(x_w, v) = 0


def test_maurer_cartan_is_identity_at_origin():
    e = identity_element(HEIS)
    out = maurer_cartan_log_derivative(HEIS, e, (1, 1))
    assert out == element(HEIS, (1, 1), (0,))


def test_levi_tensor_equals_form():
    sampler = RationalSampler(21)
    form = OmegaForm.from_entries(3, 2, [(0, 1, (1, 0)), (1, 2, (0, 1)), (0, 2, (1, 1))])
    for _ in range(10):
        x = element(form, sampler.vector(3), sampler.vector(2))
        u = sampler.vector(3)
        v = sampler.vector(3)
        assert levi_tensor(form, x, u, v) == tuple(form.apply(u, v))


def test_levi_tensor_needs_no_polynomial_calculus(twisted_cubic, monkeypatch):
    """The bracket is taken on jets: with Poly.diff and Poly.compose made
    to raise, the tensor still equals the form."""
    _, form, _ = twisted_cubic

    def calculus(*_):
        raise AssertionError("levi_tensor reached polynomial calculus")

    monkeypatch.setattr(Poly, "diff", calculus)
    monkeypatch.setattr(Poly, "compose", calculus)
    sampler = RationalSampler(23)
    x = element(form, sampler.vector(form.dim_w), sampler.vector(form.dim_u))
    u, v = sampler.vector(form.dim_w), sampler.vector(form.dim_w)
    assert levi_tensor(form, x, u, v) == tuple(form.apply(u, v))


def test_levi_tensor_basepoint_independent():
    u, v = (1, 2), (3, 4)
    at_origin = levi_tensor(HEIS, identity_element(HEIS), u, v)
    elsewhere = levi_tensor(HEIS, element(HEIS, (5, -7), (Q(1, 3),)), u, v)
    assert at_origin == elsewhere == (1 * 4 - 2 * 3,)


def test_internal_consistency_error_is_assertion():
    assert issubclass(InternalConsistencyError, AssertionError)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=6, max_size=6))
def test_associativity_on_random_points(coords):
    a = element(HEIS, coords[0:2], coords[2:3])
    b = element(HEIS, coords[3:5], coords[5:6])
    c = element(HEIS, (coords[0] + coords[3], coords[1]), (coords[5],))
    lhs = multiply(HEIS, multiply(HEIS, a, b), c)
    rhs = multiply(HEIS, a, multiply(HEIS, b, c))
    assert lhs == rhs


def test_group_element_hashable():
    x = element(HEIS, (1, 2), (3,))
    y = element(HEIS, (1, 2), (3,))
    assert len({x, y}) == 1
    assert isinstance(x, GroupElement)


def test_jacobi_identity_on_random_triples():
    # depth 2 makes every double bracket central, so the cyclic sum is 0
    form = OmegaForm.from_entries(
        4, 2, [(0, 1, (Q(1), Q(0))), (1, 3, (Q(0), Q(1, 2))), (2, 3, (Q(-2), Q(3)))]
    )
    sampler = RationalSampler(13)
    zero = identity_element(form)
    for _ in range(20):
        a, b, c = (
            element(form, sampler.vector(4), sampler.vector(2)) for _ in range(3)
        )
        cyclic = (
            _bracket(form, _bracket(form, a, b), c),
            _bracket(form, _bracket(form, b, c), a),
            _bracket(form, _bracket(form, c, a), b),
        )
        total = zero
        for term in cyclic:
            total = element(
                form,
                tuple(x + y for x, y in zip(total.w_part, term.w_part)),
                tuple(x + y for x, y in zip(total.u_part, term.u_part)),
            )
        assert total == zero


def test_levi_tensor_degenerate_arguments():
    sampler = RationalSampler(17)
    x = element(HEIS, sampler.vector(2), sampler.vector(1))
    u = sampler.vector(2)
    assert levi_tensor(HEIS, x, u, u) == (Q(0),)
    flat = OmegaForm.from_entries(3, 0, [])
    y = element(flat, sampler.vector(3))
    assert levi_tensor(flat, y, sampler.vector(3), sampler.vector(3)) == ()


_FIXTURE_DIR = Path(__file__).parent / "fixtures"
_FORM_SOURCES = [f"builtin:{name}" for name in builtin_names()] + sorted(
    p.name for p in _FIXTURE_DIR.glob("*.json")
)


@functools.cache
def _form_of(source):
    """The explicit form of a builtin or fixture file, else the constructed one."""
    if source.startswith("builtin:"):
        chart, omega = builtin_chart(source[len("builtin:") :])
    else:
        data = json.loads((_FIXTURE_DIR / source).read_text())
        chart = chart_from_json(data)
        omega = omega_from_json(chart.ambient_dim, data["omega"]) if "omega" in data else None
    return omega if omega is not None else build_omega(chart).omega


def _dense_on_wedge(form, vector):
    """Oracle: every entry of the table contracted with every coordinate."""
    out = [Q(0)] * form.dim_u
    for minor, row in zip(vector, form.table, strict=True):
        for c, coeff in enumerate(row):
            out[c] = out[c] + minor * coeff
    return out


def _on_wedge(form, vector):
    """on_wedge on a rational vector, passed as its nonzero entries scaled
    to integers, {pair index: integer}, and read back as rationals."""
    ints, scale = as_integers(vector)
    out = form.on_wedge({k: x for k, x in enumerate(ints) if x})
    assert all(type(x) is int for x in out)
    return [Q(x, scale * form.den) for x in out]


@pytest.mark.parametrize("source", _FORM_SOURCES)
def test_sparse_contraction_matches_dense_table(source):
    form = _form_of(source)
    m = form.dim_w
    sampler = RationalSampler(5).derive(source)
    units = [tuple(Q(int(k == i)) for k in range(m)) for i in range(m)]
    vectors = units + [(Q(0),) * m] + [sampler.vector(m) for _ in range(4)]
    for u in vectors:
        for v in vectors:
            assert form.apply(u, v) == _dense_on_wedge(form, wedge(u, v))
    for _ in range(4):
        minors = sampler.vector(pair_count(m))
        assert _on_wedge(form, minors) == _dense_on_wedge(form, minors)


@pytest.mark.parametrize("source", _FORM_SOURCES)
def test_sparse_contraction_on_polynomials_and_jets(source):
    form = _form_of(source)
    m = form.dim_w
    sampler = RationalSampler(6).derive(source)
    z = [Poly.var(i, 2 * m) for i in range(m)]
    y = [Poly.var(m + i, 2 * m) for i in range(m)]
    constant = [Poly.const(c, 2 * m) for c in sampler.vector(m)]
    for u, v in ((z, y), (z, constant), (constant, z)):
        assert form.apply(u, v) == _dense_on_wedge(form, wedge(u, v))
    ju = [Jet1(a, (b,)) for a, b in zip(sampler.vector(m), sampler.vector(m))]
    jv = [Jet1(a, (b,)) for a, b in zip(sampler.vector(m), sampler.vector(m))]
    assert form.apply(ju, jv) == _dense_on_wedge(form, wedge(ju, jv))
    iu, iv = ([sampler.integer(7) - 3 for _ in range(m)] for _ in "uv")
    assert _on_wedge(form, wedge(iu, iv)) == _dense_on_wedge(form, wedge(iu, iv))


@pytest.mark.parametrize("source", _FORM_SOURCES)
def test_columns_contract_to_apply(source):
    """One pass over the form gives form(x, e_k) for every k, x scaled to
    integers: contracting those columns with v is apply(x, v)."""
    form = _form_of(source)
    m = form.dim_w
    sampler = RationalSampler(8).derive(source)
    units = [tuple(Q(int(k == i)) for k in range(m)) for i in range(m)]
    vectors = units[:2] + [(Q(0),) * m] + [sampler.vector(m) for _ in range(4)]
    for x in vectors:
        ints, scale = as_integers(x)
        cols, den = form.columns(ints)
        assert len(cols) == m and all(len(col) == form.dim_u for col in cols)
        cols = [[Q(c, scale * den) for c in col] for col in cols]
        for v in vectors:
            contracted = [
                sum((v[k] * col[c] for k, col in enumerate(cols)), Q(0))
                for c in range(form.dim_u)
            ]
            assert form.apply(x, v) == contracted
    with pytest.raises(ValueError):
        form.columns((1,) * (m + 1))
