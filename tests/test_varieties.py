import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaline import family_geometry as fam
from metaline.linalg import Mat, NotInSpan, pair_index, rational_rows, solve_in_span
from metaline.metabelian import OmegaForm
from metaline.omega_builder import build_omega
from metaline.polynomials import Poly, parse_poly
from metaline.sampling import RationalSampler
from metaline.scalars import Q, from_integers
from metaline.varieties import (
    _grid_by_sum,
    FrameDegenerate,
    IsotropyCertificate,
    IsotropyWitness,
    affine_tangent_frame,
    builtin_chart,
    builtin_names,
    certify_isotropic,
    chart_from_json,
    compose_veronese3,
    in_tangent_span,
    make_chart,
    omega_from_json,
    veronese_chart,
)


def test_veronese_values():
    cubic = veronese_chart(2, 3)
    assert cubic.param_dim == 1 and cubic.ambient_dim == 4
    assert cubic.evaluate((Q(2),)) == (1, 2, 4, 8)
    surface = veronese_chart(3, 2)
    assert surface.ambient_dim == 6
    # monomials of (1, p, q) of degree 2, descending lex in exponents
    assert surface.evaluate((Q(2), Q(3))) == (1, 2, 3, 4, 6, 9)


def test_linear_chart():
    chart = veronese_chart(3, 1)
    assert chart.evaluate((Q(5), Q(7))) == (1, 5, 7)
    assert chart.param_dim == 2
    assert chart.coords == (Poly.const(1, 2), Poly.var(0, 2), Poly.var(1, 2))


def test_tangent_vector_matches_partials():
    chart = veronese_chart(2, 3)
    point = (Q(3),)
    tangent = from_integers(*fam._tangent(chart.frame_integers(point), (Q(2),)))
    assert tangent == [0, 2, 2 * 2 * 3, 2 * 3 * 9]
    assert tangent == [2 * p.evaluate(point) for p in chart.partials[0]]


def _frame_rows(chart, point):
    """The chart value, then the d partials, at the point, by Poly.evaluate."""
    return [tuple(p.evaluate(point) for p in row) for row in (chart.coords, *chart.partials)]


def test_affine_tangent_frame_rank():
    chart = veronese_chart(3, 2)
    rows, pivots = affine_tangent_frame(chart.frame_integers((Q(1), Q(2))), (Q(1), Q(2)))
    assert len(rows) == 3 and len(pivots) == 3


@pytest.mark.parametrize("name", builtin_names())
def test_affine_tangent_frame_is_the_rref_of_the_frame(name):
    chart, _ = builtin_chart(name)
    sampler = RationalSampler(11).derive(name)
    for _ in range(10):
        point = sampler.vector(chart.param_dim)
        frame = Mat(_frame_rows(chart, point))
        reduced, pivots = frame.rref()
        if len(pivots) < chart.param_dim + 1:
            with pytest.raises(FrameDegenerate):
                affine_tangent_frame(chart.frame_integers(point), point)
        else:
            rows, frame_pivots = affine_tangent_frame(chart.frame_integers(point), point)
            assert frame_pivots == pivots
            assert all(type(v) is int for row in rows for v in row.values())
            assert Mat(rational_rows(rows, pivots, chart.ambient_dim)) == reduced


@pytest.mark.parametrize("name", builtin_names())
def test_in_tangent_span_matches_the_frame_solve(name):
    """Oracle: the vector is in the span exactly when the frame's columns
    solve for it."""
    chart, _ = builtin_chart(name)
    sampler = RationalSampler(13).derive(name)
    m = chart.ambient_dim
    for _ in range(5):
        point = sampler.vector(chart.param_dim)
        rows = _frame_rows(chart, point)
        try:
            frame = affine_tangent_frame(chart.frame_integers(point), point)
        except FrameDegenerate:
            continue
        combination = Mat.from_cols(rows).times_vector(sampler.vector(len(rows)))
        units = [tuple(Q(int(j == i)) for j in range(m)) for i in range(m)]
        for vector in [combination, sampler.vector(m), *units]:
            try:
                solve_in_span(Mat.from_cols(rows), vector)
                expected = True
            except NotInSpan:
                expected = False
            assert in_tangent_span(frame, vector) == expected


def test_frame_degenerate():
    vars1 = ["t"]
    cusp = make_chart(
        "cusp", [parse_poly(s, vars1) for s in ("1", "t^2", "t^3")]
    )
    with pytest.raises(FrameDegenerate):
        affine_tangent_frame(cusp.frame_integers((Q(0),)), (Q(0),))
    assert affine_tangent_frame(cusp.frame_integers((Q(1),)), (Q(1),))[1] == (0, 1)


def test_certify_isotropic_positive(twisted_cubic):
    chart, omega, _ = twisted_cubic
    cert = certify_isotropic(chart, omega)
    assert cert.proven and cert.witness is None
    assert cert.pairs_checked == 1


def test_certify_isotropic_negative(adversarial):
    chart, omega, _ = adversarial
    cert = certify_isotropic(chart, omega)
    assert not cert.proven
    witness = cert.witness
    assert witness is not None
    # the witness point really does violate vanishing
    frame = _frame_rows(chart, witness.point)
    i, j = witness.pair
    values = omega.apply(frame[i], frame[j])
    assert tuple(values) == witness.values
    assert any(v != 0 for v in values)


def test_certify_flat_cases(flat_conic, flat_linear):
    for chart, omega, _ in (flat_conic, flat_linear):
        assert certify_isotropic(chart, omega).proven


def test_dimension_mismatch_rejected():
    chart = veronese_chart(2, 3)
    with pytest.raises(ValueError):
        certify_isotropic(chart, OmegaForm.from_entries(3, 1, []))


def test_compose_veronese3_values():
    conic = veronese_chart(2, 2)
    sextic = compose_veronese3(conic)
    assert sextic.ambient_dim == 10
    value = sextic.evaluate((Q(2),))
    # cubes of monomials of (1, 2, 4) of degree 3, descending lex
    assert value == (1, 2, 4, 4, 8, 16, 8, 16, 32, 64)


def test_builtin_catalog():
    names = builtin_names()
    assert "veronese-2-3" in names and "nonisotropic-cubic" in names
    chart, explicit = builtin_chart("nonisotropic-cubic")
    assert explicit is not None and explicit.dim_u == 1
    with pytest.raises(KeyError):
        builtin_chart("nope")


def test_chart_from_json():
    chart = chart_from_json(
        {
            "label": "lifted",
            "variables": ["a", "b"],
            "coordinates": ["1", "a", "b", "a*b - 1/2"],
        }
    )
    assert chart.evaluate((Q(2), Q(3))) == (1, 2, 3, Q(11, 2))


def test_omega_from_json():
    form = omega_from_json(
        3, {"dimU": 2, "entries": [{"i": 0, "j": 2, "uVector": ["1/2", -3]}]}
    )
    assert form.table[pair_index(0, 2, 3)] == (Q(1, 2), -3)
    assert form.table[pair_index(1, 2, 3)] == (0, 0)
    with pytest.raises(ValueError):
        omega_from_json(3, {"dimU": 1, "entries": [{"i": 0, "j": 1, "uVector": [1.5]}]})


def test_make_chart_rejects_mixed_arity():
    with pytest.raises(ValueError):
        make_chart("bad", [Poly.var(0, 1), Poly.var(0, 2)])


def test_frame_rank_on_builtin_charts_100_points():
    from metaline.sampling import RationalSampler

    for name in builtin_names():
        chart, _ = builtin_chart(name)
        sampler = RationalSampler(29).derive(name)
        seen = 0
        while seen < 100:
            p = sampler.vector(chart.param_dim)
            try:
                frame = affine_tangent_frame(chart.frame_integers(p), p)
            except FrameDegenerate:
                continue
            assert len(frame[1]) == chart.param_dim + 1
            seen += 1


def test_constructed_form_isotropic_on_every_builtin(fixture_cache):
    from metaline.omega_builder import build_omega

    for name in builtin_names():
        chart, explicit = builtin_chart(name)
        if explicit is None:
            chart, omega, _ = fixture_cache(name)
        else:
            omega = build_omega(chart, seed=42).omega
        assert certify_isotropic(chart, omega).proven, name


def _substituted_chart(chart, matrix):
    d = chart.param_dim
    subs = []
    for i in range(d):
        terms = {}
        for j in range(d):
            if matrix[i][j]:
                exps = tuple(1 if k == j else 0 for k in range(d))
                terms[exps] = Q(matrix[i][j])
        subs.append(Poly(d, terms))
    coords = [c.compose(subs) for c in chart.coords]
    return make_chart(f"{chart.label}-subst", coords)


def test_isotropy_invariant_under_reparametrization(veronese33, adversarial):
    from metaline.sampling import RationalSampler

    chart, omega, _ = veronese33
    d = chart.param_dim
    sampler = RationalSampler(37)
    for _ in range(5):
        # a product of random integer shears: determinant 1
        m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(6):
            i, j = sampler.integer(d), sampler.integer(d)
            if i != j:
                factor = sampler.integer(5) - 2
                m[i] = [a + factor * b for a, b in zip(m[i], m[j])]
        again = certify_isotropic(_substituted_chart(chart, m), omega)
        assert again.proven
    bad_chart, bad_omega, _ = adversarial
    for m in ([[1]], [[-1]], [[3]]):
        again = certify_isotropic(_substituted_chart(bad_chart, m), bad_omega)
        assert not again.proven and again.witness is not None


def test_grid_by_sum_is_the_sorted_grid():
    for n, c in itertools.product(range(5), repeat=2):
        grid = itertools.product(range(c + 1), repeat=n)
        assert list(_grid_by_sum(n, c)) == sorted(grid, key=lambda t: (sum(t), t)), (n, c)


def test_make_chart_caps_the_coordinate_count():
    moment = [Poly.var(0, 1) ** k for k in range(33)]
    assert make_chart("moment-31", moment[:32]).ambient_dim == 32
    with pytest.raises(ValueError, match="33 coordinates, more than 32"):
        make_chart("moment-32", moment)


def _reference_certificate(chart, omega):
    """The certificate by Poly arithmetic, as an independent reference: the
    form contracted on the symbolic frame rows (chart.coords, then each of
    chart.partials) by OmegaForm.apply, and a failing pair's witness the
    first point of _grid_by_sum at which Poly.evaluate reads a nonzero
    value."""
    frame = [chart.coords, *chart.partials]
    for pairs, (a, b) in enumerate(itertools.combinations(range(len(frame)), 2), 1):
        values = omega.apply(frame[a], frame[b])
        polys = [v if isinstance(v, Poly) else Poly.const(v, chart.param_dim) for v in values]
        if not any(p.terms for p in polys):
            continue
        degree = max(p.degree_in(i) for p in polys for i in range(chart.param_dim))
        for raw in _grid_by_sum(chart.param_dim, degree):
            point = tuple(Q(c) for c in raw)
            values = tuple(p.evaluate(point) for p in polys)
            if any(v != 0 for v in values):
                witness = IsotropyWitness((a, b), point, values)
                return IsotropyCertificate(chart.label, False, pairs, witness)
        raise AssertionError("nonzero polynomial vanished on a full grid")
    return IsotropyCertificate(chart.label, True, pairs, None)


def _same_certificate(chart, omega):
    """certify_isotropic against the reference: proven, pairs_checked and
    the exact witness description agree.  Returns the certificate."""
    got, want = certify_isotropic(chart, omega), _reference_certificate(chart, omega)
    assert (got.proven, got.pairs_checked) == (want.proven, want.pairs_checked)
    describe = [c.witness.describe() if c.witness else None for c in (got, want)]
    assert describe[0] == describe[1]
    assert got == want
    return got


_COEFFICIENTS = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _charts(draw):
    """A chart in d = 1 or 2 variables with d+1 to 4 coordinates, each of up
    to three terms of degree at most 3 in each variable, with rational
    coefficients (so the compiled frame rows carry scales)."""
    d = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 3)] * d)
    terms = st.dictionaries(exponents, _COEFFICIENTS, max_size=3)
    n = draw(st.integers(d + 1, 4))
    return make_chart(f"random-{d}", [Poly(d, draw(terms)) for _ in range(n)])


@st.composite
def _forms(draw, chart):
    """An explicit form on the chart's W: the derived form composed with a
    random map of U (isotropic), plus, when drawn, random entries at a few
    index pairs (then most often not isotropic)."""
    derived = build_omega(chart).omega
    dim_u = draw(st.integers(0, 3))

    def vectors(size):
        return st.lists(_COEFFICIENTS, min_size=size, max_size=size)

    mix = [draw(vectors(derived.dim_u)) for _ in range(dim_u)]
    pairs = list(itertools.combinations(range(chart.ambient_dim), 2))
    extra = draw(st.dictionaries(st.sampled_from(pairs), vectors(dim_u), max_size=2))
    entries = []
    for (i, j), row in zip(pairs, derived.table):
        vec = [sum((m * x for m, x in zip(line, row)), Q(0)) for line in mix]
        vec = [a + b for a, b in zip(vec, extra.get((i, j), [Q(0)] * dim_u))]
        if any(vec):
            entries.append((i, j, vec))
    return OmegaForm.from_entries(chart.ambient_dim, dim_u, entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_certificate_matches_the_poly_reference(data):
    chart = data.draw(_charts())
    _same_certificate(chart, data.draw(_forms(chart)))


@pytest.mark.parametrize(
    "variables, coordinates, entries, pair",
    [
        (["t"], ["1", "t", "t^2", "t^3"], [(0, 1, ["1"])], (0, 1)),
        (["t"], ["1/2", "t/3", "t^2", "t^3"], [(1, 3, ["2/5", "0"]), (2, 3, ["0", "-1"])], (0, 1)),
        (["p", "q"], ["1", "p", "q", "p*q"], [(0, 1, ["1"]), (1, 2, ["1"])], (0, 1)),
        (["p", "q"], ["1", "p", "q", "p*q"], [(1, 3, ["-2"])], (0, 2)),
        (["p", "q"], ["1", "p/2", "q", "p^2/3 + q^2"], [(2, 3, ["3/4", "1"])], (0, 1)),
        (["p", "q"], ["1", "p/2", "q", "p*q/3"], [(1, 3, ["-2", "5/7"])], (0, 2)),
    ],
)
def test_failing_certificates_match_the_poly_reference(variables, coordinates, entries, pair):
    """Failing certificates at d = 1 and at d = 2, at either pair with the
    chart value (a form that vanishes on both pairs (0, 1) and (0, 2)
    vanishes on (1, 2) too: differentiate them in the other variable)."""
    chart = chart_from_json({"label": "c", "variables": variables, "coordinates": coordinates})
    omega = omega_from_json(chart.ambient_dim, {
        "dimU": len(entries[0][2]),
        "entries": [{"i": i, "j": j, "uVector": vec} for i, j, vec in entries],
    })
    cert = _same_certificate(chart, omega)
    assert not cert.proven and cert.witness.pair == pair


_SUMMED_FORM = Path(__file__).parent / "fixtures" / "veronese-2-4-summed-form.json"


def test_certificate_and_self_check_build_no_poly_product_and_no_rational_apply(monkeypatch):
    """build_omega and certify_isotropic run in integers: with Poly
    products, differences and evaluation and OmegaForm.apply refused,
    every derived form is built and proven isotropic, as is the summed
    form, and the non-isotropic cubic still gives its witness."""
    sources = [builtin_chart(name) for name in builtin_names()]
    data = json.loads(_SUMMED_FORM.read_text())
    summed = chart_from_json(data)
    sources.append((summed, omega_from_json(summed.ambient_dim, data["omega"])))

    def refuse(*_):
        raise AssertionError("a proof reached Poly arithmetic or the rational apply")

    for owner, attr in (
        (Poly, "__mul__"),
        (Poly, "__rmul__"),
        (Poly, "__sub__"),
        (Poly, "evaluate"),
        (OmegaForm, "apply"),
    ):
        monkeypatch.setattr(owner, attr, refuse)
    for chart, explicit in sources:
        derived = build_omega(chart).omega
        cert = certify_isotropic(chart, explicit or derived)
        if chart.label == "nonisotropic-cubic":
            assert not cert.proven and cert.pairs_checked == 1
            assert cert.witness.describe() == "frame pair (0, 1) at point (0) maps to (1)"
        else:
            assert cert.proven, chart.label
