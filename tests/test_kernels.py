"""The integer scalar kernels against rational references.

OmegaForm.apply and OmegaForm.columns on rational operands, chart_block
and lines.translate all compute in Python integers over one denominator
per operand.  Each is compared here with the plain rational formula it
replaces, on random forms, including dim_u = 0, zero vectors, int
entries and large denominators.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaline import family_geometry as fam
from metaline.jets import Jet1
from metaline.linalg import pair_count
from metaline.lines import translate
from metaline.metabelian import OmegaForm, element, multiply
from metaline.polynomials import Poly
from metaline.runner import run_verification
from metaline.scalars import Q
from metaline.varieties import builtin_chart, builtin_names

large_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**15).map(
    lambda f: Q(f.numerator, f.denominator)
)
scalars = st.one_of(st.just(0), st.just(Q(0)), st.integers(-50, 50), large_rationals)


def _vectors(n):
    return st.lists(scalars, min_size=n, max_size=n)


@st.composite
def forms(draw):
    dim_w = draw(st.integers(0, 5))
    dim_u = draw(st.integers(0, 3))
    rows = st.lists(st.one_of(st.just(0), scalars), min_size=dim_u, max_size=dim_u)
    table = draw(st.lists(rows, min_size=pair_count(dim_w), max_size=pair_count(dim_w)))
    return OmegaForm(dim_w, dim_u, table)


@st.composite
def forms_and_vectors(draw):
    form = draw(forms())
    return form, draw(_vectors(form.dim_w)), draw(_vectors(form.dim_w))


def _generic_apply(form, u, v):
    """The contraction that polynomials and jets take, on the same vectors."""
    return form._contract((u[i] * v[j] - u[j] * v[i], row) for _, i, j, row in form.terms)


@settings(max_examples=300, deadline=None)
@given(forms_and_vectors())
def test_integer_apply_matches_the_generic_contraction(case):
    form, u, v = case
    got = form.apply(u, v)
    assert got == _generic_apply(form, u, v)
    assert len(got) == form.dim_u and all(type(x) is Q for x in got)
    zero = [0] * form.dim_w
    assert form.apply(zero, v) == form.apply(u, zero) == [Q(0)] * form.dim_u


@settings(max_examples=200, deadline=None)
@given(forms_and_vectors())
def test_columns_contract_to_apply(case):
    form, x, v = case
    cols = form.columns(x)
    assert len(cols) == form.dim_w and all(type(e) is Q for col in cols for e in col)
    contracted = [
        sum((v[k] * col[c] for k, col in enumerate(cols)), Q(0)) for c in range(form.dim_u)
    ]
    assert form.apply(x, v) == contracted


def test_polynomial_and_jet_operands_take_the_generic_loop(monkeypatch):
    """Rational operands reach the contraction as integer minors; any
    polynomial or jet operand keeps them in its own ring."""
    form = OmegaForm.from_entries(3, 2, [(0, 1, (1, Q(2, 3))), (1, 2, (0, -5))])
    minor_types = []
    contract = OmegaForm._contract

    def recording(self, minors, *zero):
        minors = list(minors)
        minor_types.append({type(minor) for minor, _ in minors})
        return contract(self, minors, *zero)

    monkeypatch.setattr(OmegaForm, "_contract", recording)
    rational = [Q(1, 2), 3, Q(-7, 5)]
    z = [Poly.var(i, 3) for i in range(3)]
    jets = [Jet1(Q(c), (Q(1),)) for c in (1, 2, 3)]
    cases = (
        (rational, [Q(2), 0, Q(1, 9)], int),
        (z, z[::-1], Poly),
        (rational, z, Poly),
        (z, rational, Poly),
        (jets, jets[::-1], Jet1),
    )
    for u, v, ring in cases:
        expected = _generic_apply(form, u, v)
        del minor_types[:]
        assert form.apply(u, v) == expected
        assert minor_types == [{ring}]


@pytest.mark.parametrize("name", builtin_names())
def test_levi_tensor_check_passes_on_every_builtin(name):
    """The check compares the Poly field bracket (generic path) with the
    integer apply on rational vectors."""
    chart, omega = builtin_chart(name)
    report = run_verification(chart, omega, samples=3, checks=["levi-tensor"])
    assert [(c.name, c.passes, c.failures) for c in report.checks] == [("levi-tensor", 3, 0)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chart_block_matches_the_rational_formula(data):
    ncols = data.draw(st.integers(2, 7))
    rows = data.draw(st.lists(_vectors(ncols), min_size=2, max_size=2))
    c1 = data.draw(st.integers(0, ncols - 2))
    c2 = data.draw(st.integers(c1 + 1, ncols - 1))
    if data.draw(st.booleans()):  # a singular pivot minor: row 1 is k times row 0 there
        k = data.draw(scalars)
        rows[1][c1], rows[1][c2] = k * rows[0][c1], k * rows[0][c2]
    (a, b), (c, d) = ((Q(row[c1]), Q(row[c2])) for row in rows)
    det = a * d - b * c
    if det == 0:
        with pytest.raises(fam.ChartMiss) as err:
            fam.chart_block(rows, (c1, c2))
        assert str(err.value) == f"pivot columns {(c1, c2)} are singular here"
        return
    inv = ((d / det, -b / det), (-c / det, a / det))
    block = [
        [i0 * p + i1 * q for col, (p, q) in enumerate(zip(*rows)) if col not in (c1, c2)]
        for i0, i1 in inv
    ]
    got_inv, got_block = fam.chart_block(rows, (c1, c2))
    assert (got_inv, got_block) == (inv, block)
    assert all(type(e) is Q for row in (*got_inv, *got_block) for e in row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_translate_is_the_group_product(data):
    form = data.draw(forms())
    x = element(form, data.draw(_vectors(form.dim_w)), data.draw(_vectors(form.dim_u)))
    w = data.draw(_vectors(form.dim_w))
    t = data.draw(scalars)
    assert translate(form, x, w, t) == multiply(form, x, element(form, [t * c for c in w]))
    assert translate(form, x, w, 0) is x
    assert translate(form, x, [0] * form.dim_w, t) is x
