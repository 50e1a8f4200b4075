"""The integer kernels against rational references kept only in the tests.

OmegaForm.apply and OmegaForm.columns, chart_block, the block variation
of family_geometry (_moved_rows, _block_variation), the Schur slide solve,
lines.translate / canonical_rep, the compiled chart evaluator and the
rational group product all compute in Python integers, one positive scale
per row or vector, and build a Q only for what they return.  Each is
compared here with the plain Fraction formula it replaces: on random
forms, charts, rows and pivot pairs (including dim_u = 0, zero vectors,
int entries and large denominators), and the slide solve and the chart
evaluator on every builtin and fixture chart.
"""

import pickle
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_CHARTS,
    chart_and_form,
    form_from_table,
    line_rows,
    pivot_planes,
    rational_block_variation,
    rational_chart,
    rational_moved,
    solve_outcome,
)
from metaline import family_geometry as fam
from metaline import lines as lin
from metaline import metabelian as meta
from metaline.jets import Jet1
from metaline.linalg import (
    Mat,
    integer_rref,
    pair_count,
    solve_in_span,
    wedge,
)
from metaline.lines import canonical_rep, line_through, translate
from metaline.metabelian import (
    GroupElement,
    OmegaForm,
    element,
    identity_element,
    inverse,
    multiply,
)
from metaline.omega_builder import build_omega
from metaline.polynomials import Poly
from metaline.runner import run_verification
from metaline.sampling import RationalSampler
from metaline.scalars import HALF, ONE, Q, ZERO, as_integers
from metaline.varieties import (
    affine_tangent_frame,
    builtin_chart,
    builtin_names,
    make_chart,
)

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
    return form_from_table(dim_w, dim_u, table)


@st.composite
def forms_and_vectors(draw):
    form = draw(forms())
    return form, draw(_vectors(form.dim_w)), draw(_vectors(form.dim_w))


def _generic_apply(form, u, v):
    """The form on the same vectors in their own ring, each coefficient
    read as Q(x, form.den)."""
    out = [Q(0)] * form.dim_u
    for _, i, j, row in form.terms:
        for c, x in row:
            out[c] = out[c] + (u[i] * v[j] - u[j] * v[i]) * Q(x, form.den)
    return out


@st.composite
def sparse_tables(draw):
    """(dim_w, dim_u, table): a pair's U-vector is zero at random, and the
    others have zero coordinates at random."""
    dim_w = draw(st.integers(0, 6))
    dim_u = draw(st.integers(0, 4))
    row = st.one_of(st.just([0] * dim_u), _vectors(dim_u))
    count = pair_count(dim_w)
    return dim_w, dim_u, draw(st.lists(row, min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(sparse_tables(), st.data())
def test_every_constructor_stores_one_sparse_form(case, data):
    """from_entries (zero pairs given or left out, in any order) and the
    constructor on sparse rows, which build_omega fills from the span's
    rows, store one form: the same table, terms, equality and hash.  A
    changed coefficient makes another form."""
    dim_w, dim_u, table = case
    pairs = list(combinations(range(dim_w), 2))
    dense = form_from_table(dim_w, dim_u, table)
    entries = [(i, j, r) for (i, j), r in zip(pairs, table) if any(r) or data.draw(st.booleans())]
    sparse = OmegaForm.from_entries(dim_w, dim_u, data.draw(st.permutations(entries)))
    built = OmegaForm(dim_w, dim_u, [[(c, Q(x)) for c, x in enumerate(r) if x] for r in table])
    expected = tuple(tuple(Q(x) for x in r) for r in table)
    for form in (dense, sparse, built):
        assert form.table == expected
        assert form.terms == dense.terms
        assert form == dense and hash(form) == hash(dense)
    for k, i, j, row in dense.terms:
        coefficients = tuple((c, Q(x, dense.den)) for c, x in row)
        assert pairs[k] == (i, j) and all(type(x) is int for _, x in row)
        assert coefficients == tuple((c, x) for c, x in enumerate(expected[k]) if x)
    if dense.terms:
        k, _, _, ((c, x), *_) = dense.terms[0]
        changed = [list(r) for r in table]
        changed[k][c] = Q(x, dense.den) + 1
        assert form_from_table(dim_w, dim_u, changed) != dense


@settings(max_examples=300, deadline=None)
@given(forms_and_vectors())
def test_integer_apply_matches_the_generic_contraction(case):
    form, u, v = case
    got = form.apply(u, v)
    assert got == _generic_apply(form, u, v)
    assert len(got) == form.dim_u and all(type(x) is Q for x in got)
    zero = [0] * form.dim_w
    assert form.apply(zero, v) == form.apply(u, zero) == [Q(0)] * form.dim_u


@settings(max_examples=300, deadline=None)
@given(forms_and_vectors())
@example((OmegaForm.from_entries(3, 0, []), [Q(5, 3), Q(-7, 3), 1], [Q(1, 3), 0, Q(-2, 3)]))
def test_invariant_field_is_the_rational_field(case):
    """invariant_field over its scale is (v, (1/2) form(x_w, v)), the form
    read from its rational table in Fractions; dim_u 0 included."""
    form, x, v = case
    (iw, dw), (iv, dv) = as_integers(x), as_integers(v)
    ints, scale = meta.invariant_field(form, iw, dw, iv, dv)
    assert scale > 0 and len(ints) == form.dim_w + form.dim_u
    xf, vf = [Fraction(c) for c in x], [Fraction(c) for c in v]
    half_form = [Fraction(0)] * form.dim_u
    for (i, j), row in zip(combinations(range(form.dim_w), 2), form.table):
        for c, coeff in enumerate(row):
            half_form[c] += (xf[i] * vf[j] - xf[j] * vf[i]) * Fraction(coeff) / 2
    assert [Fraction(c, scale) for c in ints] == vf + half_form


@settings(max_examples=200, deadline=None)
@given(forms_and_vectors())
def test_columns_contract_to_apply(case):
    form, x, v = case
    ints, scale = as_integers(x)
    cols, den = form.columns(ints)
    assert len(cols) == form.dim_w and all(type(e) is int for col in cols for e in col)
    assert den > 0 and (den, scale) == (form.apply_integers(ints, ints)[1], scale)
    contracted = [
        sum((v[k] * Q(col[c], scale * den) for k, col in enumerate(cols)), Q(0))
        for c in range(form.dim_u)
    ]
    assert form.apply(x, v) == contracted


@settings(max_examples=200, deadline=None)
@given(forms_and_vectors())
def test_integer_apply_is_apply_over_one_denominator(case):
    form, u, v = case
    (iu, du), (iv, dv) = as_integers(u), as_integers(v)
    ints, den = form.apply_integers(iu, iv)
    assert all(type(e) is int for e in ints) and den > 0
    assert [Q(e, du * dv * den) for e in ints] == _generic_apply(form, u, v)


def test_polynomial_and_jet_operands_take_the_generic_loop(monkeypatch):
    """Rational operands are contracted as integer minors in
    apply_integers' own loop and never reach _contract; any polynomial or
    jet operand is contracted there, in its own ring."""
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
        (rational, [Q(2), 0, Q(1, 9)], []),
        (z, z[::-1], [{Poly}]),
        (rational, z, [{Poly}]),
        (z, rational, [{Poly}]),
        (jets, jets[::-1], [{Jet1}]),
    )
    for u, v, contracted in cases:
        expected = _generic_apply(form, u, v)
        del minor_types[:]
        assert form.apply(u, v) == expected
        assert minor_types == contracted


@pytest.mark.parametrize("name", builtin_names())
def test_levi_tensor_check_passes_on_every_builtin(name):
    """The check compares the Poly field bracket (generic path) with the
    integer apply on rational vectors."""
    chart, omega = builtin_chart(name)
    report = run_verification(chart, omega, samples=3, checks=["levi-tensor"])
    assert [(c.name, c.passes, c.failures) for c in report.checks] == [("levi-tensor", 3, 0)]


@pytest.mark.parametrize("name", builtin_names())
def test_the_element_oracles_build_no_jet(name, monkeypatch):
    """Guard: the maps that maurer-cartan and levi-tensor differentiate are
    affine, so both take exact increments and build no Jet1."""
    built = []
    init = Jet1.__init__
    monkeypatch.setattr(Jet1, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    chart, omega = builtin_chart(name)
    report = run_verification(chart, omega, samples=3, checks=["maurer-cartan", "levi-tensor"])
    assert report.passed and [c.passes for c in report.checks] == [3, 3]
    assert built == []


@st.composite
def planes(draw, singular=True):
    """Two rational rows, a pivot pair, and, at random, a singular pivot
    minor (row 1 is k times row 0 there)."""
    ncols = draw(st.integers(2, 7))
    rows = draw(st.lists(_vectors(ncols), min_size=2, max_size=2))
    c1 = draw(st.integers(0, ncols - 2))
    c2 = draw(st.integers(c1 + 1, ncols - 1))
    if singular and draw(st.booleans()):
        k = draw(scalars)
        rows[1][c1], rows[1][c2] = k * rows[0][c1], k * rows[0][c2]
    return rows, (c1, c2)


def _integer_plane(rows, pivots):
    scaled = [as_integers(row) for row in rows]
    ints = tuple(row for row, _ in scaled)
    scales = tuple(scale for _, scale in scaled)
    return fam._Plane(None, ints, scales, pivots, *fam.chart_block(ints, pivots))


@settings(max_examples=300, deadline=None)
@given(planes())
def test_chart_block_matches_the_rational_formula(case):
    """On the rows scaled to integers, one positive scale l_r each:
    P^-1 = adj diag(l_0, l_1) / det and B = block / det, with det > 0;
    a singular minor raises ChartMiss with its message."""
    rows, pivots = case
    expected = rational_chart(rows, pivots)
    if expected is None:
        with pytest.raises(fam.ChartMiss) as err:
            _integer_plane(rows, pivots)
        assert str(err.value) == f"pivot columns {pivots} are singular here"
        return
    plane = _integer_plane(rows, pivots)
    l0, l1 = plane.scales
    assert plane.det > 0 and all(type(e) is int for e in (*plane.adj[0], *plane.adj[1]))
    inv = tuple((Q(i0 * l0, plane.det), Q(i1 * l1, plane.det)) for i0, i1 in plane.adj)
    block = [[Q(b, plane.det) for b in row] for row in plane.block]
    assert (inv, block) == expected


@settings(max_examples=300, deadline=None)
@given(planes(), st.data())
def test_block_variation_matches_the_rational_formula(case, data):
    """P dB = dN - dP B (_moved_rows) and dB = P^-1 (dN - dP B)
    (_block_variation), from integer drows with their scales, equal the
    Fraction formulas on random rows, drows and pivot pairs."""
    rows, pivots = case
    ncols = len(rows[0])
    drows = data.draw(st.lists(_vectors(ncols), min_size=2, max_size=2))
    if rational_chart(rows, pivots) is None:
        with pytest.raises(fam.ChartMiss) as err:
            _integer_plane(rows, pivots)
        assert str(err.value) == f"pivot columns {pivots} are singular here"
        return
    plane = _integer_plane(rows, pivots)
    scaled = [as_integers(drow) for drow in drows]
    moved = fam._moved_rows(plane, scaled)
    assert [[Q(v, scale) for v in row] for row, scale in moved] == rational_moved(
        rows, pivots, drows
    )
    dB, scale = fam._block_variation(plane, scaled)
    assert scale > 0 and all(type(v) is int for row in dB for v in row)
    assert [[Q(v, scale) for v in row] for row in dB] == rational_block_variation(
        rows, pivots, drows
    )


def _rational_basepoint_variation(omega, x, w, pivots):
    """The full basepoint variation in Fractions: one column per algebra
    direction a, the point row moved by (a_w, (1/2) form(x_w, a_w) + a_u, 0)
    and the direction row by (0, (1/2) form(a_w, w), 0)."""
    rows = line_rows(omega, x, w)
    dim_w, width = omega.dim_w, len(rows[0])
    cols = []
    for k in range(dim_w + omega.dim_u):
        d_point, d_dir = [ZERO] * width, [ZERO] * width
        d_point[k] = ONE
        if k < dim_w:
            unit = [ONE if i == k else ZERO for i in range(dim_w)]
            d_point[dim_w:-1] = [HALF * c for c in _generic_apply(omega, x.w_part, unit)]
            d_dir[dim_w:-1] = [HALF * c for c in _generic_apply(omega, unit, w)]
        moved = rational_block_variation(rows, pivots, [d_point, d_dir])
        cols.append(moved[0] + moved[1])
    return Mat.from_cols(cols)


def _assert_frame_wedges_are_symbolic(chart, pairs):
    """VarietyChart.frame_wedges at the index pairs (k, i, j) against
    linalg.wedge on the symbolic frame at those pairs: per frame pair the
    same monomials in the same order, and integer vectors that are one
    positive multiple of the rational coefficient vectors."""
    symbolic = [chart.coords, *chart.partials]
    for a, b in combinations(range(len(symbolic)), 2):
        minors = wedge(symbolic[a], symbolic[b])
        minors = {k: minors[k] for k, _, _ in pairs}
        monomials = sorted({e for p in minors.values() for e in p.terms})
        vectors = chart.frame_wedges(a, b, pairs)
        assert [e for e, _ in vectors] == monomials
        scales = set()
        for e, vec in vectors:
            assert all(type(v) is int and v for v in vec.values())
            assert set(vec) == {k for k, p in minors.items() if e in p.terms}
            scales |= {Q(v) / minors[k].terms[e] for k, v in vec.items()}
        assert len(scales) <= 1 and all(s > 0 for s in scales)


@pytest.mark.parametrize("name", ALL_CHARTS)
def test_integer_wedges_are_the_symbolic_wedges(name):
    """build_omega's monomial vectors: frame_wedges over every index pair."""
    chart, _ = chart_and_form(name)
    pairs = [(k, i, j) for k, (i, j) in enumerate(combinations(range(chart.ambient_dim), 2))]
    _assert_frame_wedges_are_symbolic(chart, pairs)


@pytest.mark.parametrize("name", ["nonisotropic-cubic", "veronese-2-4-summed-form.json"])
def test_frame_wedges_at_a_sparse_forms_pairs_are_the_symbolic_wedges(name):
    """The certificate's monomial vectors: frame_wedges at exactly the
    nonzero pairs of an explicit sparse form."""
    chart, omega = chart_and_form(name)
    pairs = [(k, i, j) for k, i, j, _ in omega.terms]
    assert 0 < len(pairs) < pair_count(chart.ambient_dim)
    _assert_frame_wedges_are_symbolic(chart, pairs)


@pytest.mark.parametrize("name", ALL_CHARTS)
def test_built_form_is_its_dense_table(name):
    """build_omega's sparse form equals the form of its own dense table."""
    chart, _ = chart_and_form(name)
    omega = build_omega(chart).omega
    dense = form_from_table(omega.dim_w, omega.dim_u, omega.table)
    assert dense == omega and hash(dense) == hash(omega) and dense.terms == omega.terms


@pytest.mark.parametrize("name", ALL_CHARTS)
def test_slide_solve_matches_the_rational_full_solve(name):
    """solve_basepoint_variation, on integer rows, against solve_in_span on
    the Fraction basepoint variation, at every pivot kind: on the slide
    shift, on a combination of the columns and on a shift moved off the
    span, the same coefficients or the same NotInSpan residual."""
    chart, omega = chart_and_form(name)
    sampler = RationalSampler(107).derive(name)
    param = sampler.vector(chart.param_dim)
    x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
    delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
    w = chart.evaluate(param)
    seen = set()
    frame = chart.frame_integers(param)
    for kind, plane in pivot_planes(omega, x, w).items():
        j_t = fam.direction_variation(omega, frame, plane, delta, t)
        j_0 = fam.direction_variation(omega, frame, plane, delta, 0)
        shift = [a - b for ra, rb in zip(j_t.entries, j_0.entries) for a, b in zip(ra, rb)]
        full = _rational_basepoint_variation(omega, x, w, plane.pivots)
        assert fam.basepoint_variation(omega, plane) == full, kind
        combination = list(full.times_vector(sampler.vector(full.ncols)))
        off_span = [shift[0] + 1] + shift[1:]
        for target in (shift, combination, off_span):
            expected = solve_outcome(solve_in_span, full, target)
            got = solve_outcome(fam.solve_basepoint_variation, omega, plane, as_integers(target))
            assert got == expected, kind
            assert all(type(v) is Q for v in got[1]), kind
            seen.add(expected[0])
    assert seen == {"coefficients", "residual"}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_translate_is_the_group_product(data):
    form = data.draw(forms())
    x = element(form, data.draw(_vectors(form.dim_w)), data.draw(_vectors(form.dim_u)))
    w = data.draw(_vectors(form.dim_w))
    t = data.draw(scalars)
    row = as_integers(w)
    assert translate(form, x, row, t) == multiply(form, x, element(form, [t * c for c in w]))
    assert translate(form, x, row, 0) is x
    assert translate(form, x, ([0] * form.dim_w, 1), t) is x


@pytest.mark.parametrize("dim_u", [0, 2])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_translate_is_the_product_by_the_step_element(dim_u, data):
    """translate along an integer row over a den > 1, not always in lowest
    terms, is multiply by the step element built from Fractions, on forms
    with dim_u 0 and 2; and the integer kernel gives that product on
    unreduced parts as on the same parts in lowest terms."""
    dim_w = data.draw(st.integers(1, 5))
    count = pair_count(dim_w)
    table = data.draw(st.lists(_vectors(dim_u), min_size=count, max_size=count))
    form = form_from_table(dim_w, dim_u, table)
    x = element(form, data.draw(_vectors(dim_w)), data.draw(_vectors(dim_u)))
    ints = data.draw(st.lists(st.integers(-60, 60), min_size=dim_w, max_size=dim_w))
    den, t = data.draw(st.integers(2, 60)), data.draw(scalars)
    step = element(form, [Q(t) * Q(c, den) for c in ints])
    product = multiply(form, x, step)
    assert translate(form, x, (ints, den), t) == product
    parts = x.w, x.u, step.w, step.u
    factors = data.draw(st.lists(st.integers(1, 12), min_size=4, max_size=4))
    unreduced = [([c * k for c in part], d * k) for (part, d), k in zip(parts, factors)]
    assert meta.integer_product(form, *unreduced) == meta.integer_product(form, *parts) == product


def test_sliding_is_one_group_product(monkeypatch):
    """translate by a nonzero t along a nonzero w and canonical_rep with a
    nonzero shift each make one call of the integer product kernel; the
    shortcuts for a zero t, w or shift make none."""
    calls = []

    def counted(*args):
        calls.append(args)
        return meta.integer_product(*args)

    monkeypatch.setattr(lin, "integer_product", counted)
    form = form_from_table(2, 1, [[1]])
    x = element(form, (1, 2), (3,))
    half, step = Q(1, 2), element(form, (Q(1, 3), Q(-2, 3)))  # (1/2) (2, -4) / 3
    assert translate(form, x, ([2, -4], 3), half) == multiply(form, x, step)
    assert len(calls) == 1
    assert canonical_rep(form, x, [{0: 1, 1: 2}], [0]) == translate(form, x, ([1, 2], 1), -1)
    assert len(calls) == 3
    assert translate(form, x, ([2, -4], 3), 0) is x
    assert translate(form, x, ([0, 0], 1), half) is x
    on_pivots = element(form, (0, 2), (3,))
    assert canonical_rep(form, on_pivots, [{0: 1, 1: 2}], [0]) is on_pivots
    assert len(calls) == 3


def _rational_canonical_rep(form, x, reduced_rows, pivots):
    """x * exp(-shift), shift = sum of x_w[pivot] * row, in Fractions."""
    shift = [Q(0)] * form.dim_w
    for row, pivot in zip(reduced_rows, pivots):
        shift = [s + x.w_part[pivot] * r for s, r in zip(shift, row)]
    correction = _generic_apply(form, x.w_part, shift)
    return GroupElement(
        tuple(a - s for a, s in zip(x.w_part, shift)),
        tuple(a - HALF * c for a, c in zip(x.u_part, correction)),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_rep_matches_the_rational_formula(data):
    """On random forms (dim_u 0 included) and spans given as the sparse
    integer pivot rows of integer_rref: the canonical representative is
    the Fraction formula on the rational reduced rows, vanishes at the
    pivots, and is x itself when x_w vanishes at every pivot."""
    form = data.draw(forms().filter(lambda f: f.dim_w > 0))
    dim_w = form.dim_w
    spanning = data.draw(st.lists(_vectors(dim_w), min_size=1, max_size=dim_w))
    reduced, pivots = Mat(spanning).rref()
    reduced = reduced.entries[: len(pivots)]
    rows, row_pivots = integer_rref([as_integers(v)[0] for v in spanning], dim_w)
    assert row_pivots == pivots
    x = element(form, data.draw(_vectors(dim_w)), data.draw(_vectors(form.dim_u)))
    if data.draw(st.booleans()):  # x_w zero at every pivot
        x = element(form, [0 if k in pivots else c for k, c in enumerate(x.w_part)], x.u_part)
    got = canonical_rep(form, x, rows, pivots)
    assert got == _rational_canonical_rep(form, x, reduced, pivots)
    assert all(got.w_part[p] == 0 for p in pivots)
    assert all(type(c) is Q for c in got.coords)
    if all(x.w_part[p] == 0 for p in pivots):
        assert got is x


# The compiled chart evaluator against Poly.evaluate.


@st.composite
def charts(draw):
    """A chart with d = 1 or 2 and up to 5 coordinates: random rational
    polynomials of degree at most 3 in each variable, at random with one
    coordinate zero."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(d + 1, 5))
    exponents = st.tuples(*[st.integers(0, 3)] * d)
    coefficients = st.one_of(st.integers(-9, 9), large_rationals)
    polys = st.dictionaries(exponents, coefficients, max_size=4).map(lambda t: Poly(d, t))
    coords = draw(st.lists(polys, min_size=n, max_size=n))
    if draw(st.booleans()):
        coords[draw(st.integers(0, n - 1))] = Poly.zero(d)
    return make_chart("random", coords)


def _assert_compiled_matches_poly_evaluate(chart, point, delta):
    """evaluate, frame_integers and family_geometry's tangent of the frame
    against Poly.evaluate of the coordinates and the partials at one point."""
    values = tuple(poly.evaluate(point) for poly in chart.coords)
    partials = [tuple(poly.evaluate(point) for poly in row) for row in chart.partials]
    assert chart.evaluate(point) == values
    rows = chart.frame_integers(point)
    assert [tuple(Q(v, scale) for v in ints) for ints, scale in rows] == [values, *partials]
    assert all(scale > 0 and all(type(v) is int for v in ints) for ints, scale in rows)
    tangent = tuple(sum((c * v for c, v in zip(delta, col)), ZERO) for col in zip(*partials))
    ints, scale = fam._tangent(rows, delta)
    assert scale > 0 and tuple(Q(v, scale) for v in ints) == tangent
    assert all(type(c) is Q for c in chart.evaluate(point))


@settings(max_examples=300, deadline=None)
@given(charts(), st.data())
def test_compiled_chart_matches_poly_evaluate(chart, data):
    point = data.draw(_vectors(chart.param_dim))
    delta = data.draw(_vectors(chart.param_dim))
    _assert_compiled_matches_poly_evaluate(chart, point, delta)


@pytest.mark.parametrize("name", ALL_CHARTS)
def test_compiled_chart_matches_poly_evaluate_on_every_chart(name):
    chart, _ = chart_and_form(name)
    sampler = RationalSampler(109).derive(name)
    d = chart.param_dim
    points = [sampler.vector(d) for _ in range(3)]
    points += [(0,) * d, tuple(range(-1, d - 1)), (Q(10**6 + 1, 10**12 - 11),) * d]
    for point in points:
        _assert_compiled_matches_poly_evaluate(chart, point, sampler.nonzero_vector(d))


# The rational group product against x + y + (1/2) form(x_w, y_w).


def _generic_multiply(form, a, b):
    correction = _generic_apply(form, a.w_part, b.w_part)
    return GroupElement(
        tuple(x + y for x, y in zip(a.w_part, b.w_part)),
        tuple(x + y + HALF * c for x, y, c in zip(a.u_part, b.u_part, correction)),
    )


@st.composite
def element_pairs(draw):
    """A form (dim_u 0 included) and two elements, each at random with a
    zero W-part."""
    form = draw(forms())

    def one():
        w = [0] * form.dim_w if draw(st.booleans()) else draw(_vectors(form.dim_w))
        return element(form, w, draw(_vectors(form.dim_u)))

    return form, one(), one()


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_rational_multiply_matches_the_generic_formula(case):
    form, a, b = case
    got = multiply(form, a, b)
    assert got == _generic_multiply(form, a, b)
    assert all(type(c) is Q for c in got.coords)
    # coordinates that cancel: a's inverse, and b with W-part -a_w
    assert multiply(form, a, inverse(a)) == identity_element(form)
    cancelling = GroupElement(inverse(a).w_part, b.u_part)
    assert multiply(form, a, cancelling) == _generic_multiply(form, a, cancelling)


# The rational group element: integers over one lowest-terms denominator
# per part, its Q coordinates built only on read.


def _assert_lowest_terms(x):
    for ints, den in (x.w, x.u):
        assert den > 0 and gcd(den, *ints) == 1 and all(type(c) is int for c in ints)


@settings(max_examples=300, deadline=None)
@given(element_pairs(), st.data())
def test_an_element_built_from_qs_equals_the_one_built_in_integers(case, data):
    """multiply, inverse, translate and canonical_rep write integers over
    one lowest-terms denominator per part.  The element built from the Q
    coordinates of each result equals it, hashes like it and holds the same
    integers, and the coordinates read back as the same Qs."""
    form, a, b = case
    w, t = as_integers(data.draw(_vectors(form.dim_w))), data.draw(scalars)
    spanning = data.draw(st.lists(_vectors(form.dim_w), min_size=1, max_size=max(1, form.dim_w)))
    span = integer_rref([as_integers(v)[0] for v in spanning], form.dim_w)
    results = [multiply(form, a, b), inverse(a), translate(form, a, w, t), identity_element(form)]
    results.append(canonical_rep(form, b, *span))
    for x in results:
        _assert_lowest_terms(x)
        built = GroupElement(x.w_part, x.u_part)
        assert built == x and hash(built) == hash(x) and (built.w, built.u) == (x.w, x.u)
        assert element(form, x.w_part, x.u_part) == x
        assert built.coords == x.coords and all(type(c) is Q for c in x.coords)


@pytest.mark.parametrize("read_first", [False, True])
def test_a_rational_element_survives_pickling(twisted_cubic, read_first):
    """The --jobs pool pickles the sampled elements into its workers: an
    element comes back equal, with the same integers, hash and coordinates,
    whether or not its Q coordinates were read before."""
    _, omega, _ = twisted_cubic
    a = element(omega, (1, Q(1, 2), 0, -3), (Q(2, 3),))
    x = multiply(omega, a, element(omega, (Q(5, 7), 0, 1, 1), (4,)))
    if read_first:
        assert x.coords
    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x) and (y.w, y.u) == (x.w, x.u)
    assert y.coords == x.coords


def test_the_group_kernels_take_no_q_round_trip(twisted_cubic, monkeypatch):
    """Guard: once the sampled elements and the chart frame exist, the
    rational product, inverse, slide, coset normal form, canonical line and
    line plane read and write integers alone: with as_integers made to
    raise in metabelian, lines and family_geometry they give the results
    they give before."""
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(113)
    x, g = (element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u)) for _ in "xg")
    param, t = sampler.vector(chart.param_dim), sampler.nonzero_rational()
    frame = chart.frame_integers(param)
    tangent, value = affine_tangent_frame(frame, param), frame[0]

    def kernels():
        return (
            multiply(omega, g, x),
            inverse(x),
            translate(omega, x, value, t),
            canonical_rep(omega, x, *tangent),
            line_through(omega, x, value),
            next(fam.line_planes(omega, x, value)),
        )

    expected = kernels()

    def as_integers_raising(*_):
        raise AssertionError("a kernel scaled Qs back to integers")

    for module in (meta, lin, fam):
        monkeypatch.setattr(module, "as_integers", as_integers_raising, raising=False)
    assert kernels() == expected


# Backend parity: a stand-in for gmpy2's mpq.


class _Mpz(int):
    """An integer whose type is not int, as gmpy2's mpz is not."""


class _Mpq(Fraction):
    """A rational whose numerator and denominator are _Mpz."""

    @property
    def numerator(self):
        return _Mpz(super().numerator)

    @property
    def denominator(self):
        return _Mpz(super().denominator)


def _stand_in(values):
    return tuple(_Mpq(c) for c in values)


@settings(max_examples=100, deadline=None)
@given(charts(), element_pairs(), st.data())
def test_integer_paths_take_an_mpz_like_backend(chart, case, data):
    """The compiled evaluator and the rational multiply read a rational
    only through .numerator and .denominator, and combine those with
    Python integers.  On _Mpq, whose numerator and denominator are an int
    subclass as gmpy2's mpz is not an int at all, they give the Fraction
    results.  This is evidence that the mpq backend gives the same
    results, not a proof of it: mpz is no int subclass, and gmpy2 is no
    dependency of the test suite."""
    point = data.draw(_vectors(chart.param_dim))
    delta = data.draw(_vectors(chart.param_dim))
    assert chart.evaluate(_stand_in(point)) == chart.evaluate(point)
    stand_frame, frame = chart.frame_integers(_stand_in(point)), chart.frame_integers(point)
    assert stand_frame == frame
    assert fam._tangent(stand_frame, _stand_in(delta)) == fam._tangent(frame, delta)
    form, a, b = case
    stand_a = GroupElement(_stand_in(a.w_part), _stand_in(a.u_part))
    stand_b = GroupElement(_stand_in(b.w_part), _stand_in(b.u_part))
    assert multiply(form, stand_a, stand_b) == multiply(form, a, b)
    assert type(_Mpq(1, 2).numerator) is _Mpz and not type(_Mpq(1, 2).denominator) is int
