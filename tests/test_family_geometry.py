import json
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HEISENBERG as HEIS
from conftest import (
    ALL_CHARTS,
    FIXTURE_DIR,
    chart_and_form,
    line_rows,
    pivot_planes,
    plane_at,
    rational_block_variation,
    solve_outcome,
)
from metaline import family_geometry as fam
from metaline.jets import Jet1
from metaline.linalg import Mat, NotInSpan, solve_in_span
from metaline.lines import translate
from metaline.metabelian import GroupElement, OmegaForm, element, multiply
from metaline.omega_builder import build_omega
from metaline.polynomials import Poly
from metaline.runner import run_verification
from metaline.sampling import RationalSampler
from metaline.scalars import HALF, ONE, Q, ZERO, as_integers, from_integers
from metaline.varieties import (
    VarietyChart,
    affine_tangent_frame,
    builtin_names,
    chart_from_json,
    in_tangent_span,
    veronese_chart,
)


def test_primary_and_next_pivots(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (0, 1, 0, 0), (0,))
    w = chart.evaluate((Q(1),))
    planes = fam.line_planes(omega, x, as_integers(w))
    primary, alt = next(planes), next(planes)
    assert primary.pivots[0] < primary.pivots[1] and primary.pivots < alt.pivots
    assert primary.x is x and alt.x is x and alt.rows == primary.rows
    with pytest.raises(fam.ChartMiss, match="line span is degenerate"):
        next(fam.line_planes(omega, x, ([0] * 4, 1)))


def _minor_scan(rows, exclude):
    """The first pair (lex order) but exclude whose 2 x 2 minor is
    nonzero, or None."""
    ncols = len(rows[0])
    for i in range(ncols):
        for j in range(i + 1, ncols):
            if (i, j) == tuple(exclude):
                continue
            if rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i] != 0:
                return (i, j)
    return None


_plane_entries = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=5).map(
        lambda f: Q(f.numerator, f.denominator)
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(_plane_entries, min_size=n, max_size=n), min_size=2, max_size=2
        )
    ),
    st.booleans(),
    st.data(),
)
def test_pivot_pair_scan_matches_rref_and_minor_scan(rows, parallel, data):
    """On 2-row planes of every rank: line_planes yields its first plane
    at the echelon pivot pair of the plane, none when its rank is below 2,
    and ChartMiss at once when the second row is zero; the first of its
    pairs but any one is the minor scan."""
    if parallel:
        rows = [rows[0], [Q(3, 2) * c for c in rows[0]]]
    _, echelon = Mat(rows).rref()
    with patch.object(fam, "line_matrix_rows", lambda *args: [(row, 1) for row in rows]):
        planes = fam.line_planes(None, None, None)
        if not any(rows[1]):
            with pytest.raises(fam.ChartMiss):
                next(planes)
            return
        pairs = [plane.pivots for plane in planes]
    assert pairs[:1] == ([echelon] if len(echelon) == 2 else [])
    ncols = len(rows[0])
    exclude = data.draw(
        st.sampled_from([(i, j) for i in range(ncols) for j in range(i + 1, ncols)])
    )
    assert next((pair for pair in pairs if pair != exclude), None) == _minor_scan(rows, exclude)


def test_chart_block_normalizes_pivots():
    """On integer rows: P^-1 = adj / det and B = block / det, with det
    kept positive by negating the adjugate with it."""
    rows = ([2, 0, 4, 6], [0, 3, 3, 9])
    adj, det, block = fam.chart_block(rows, (0, 1))
    assert (adj, det) == (((3, 0), (0, 2)), 6)
    assert tuple(tuple(Q(a, det) for a in row) for row in adj) == ((Q(1, 2), 0), (0, Q(1, 3)))
    assert [[Q(b, det) for b in row] for row in block] == [[2, 3], [1, 3]]
    assert fam.chart_block(rows[::-1], (0, 1))[:2] == (((0, 3), (2, 0)), 6)
    with pytest.raises(fam.ChartMiss):
        fam.chart_block([[1, 2, 0], [2, 4, 1]], (0, 1))


def test_direction_variation_frozen_heisenberg():
    """Hand-computed control values on the flat projective line."""
    chart = veronese_chart(2, 1, "p1")
    x = element(HEIS, (0, 1), (0,))
    frame = chart.frame_integers((Q(0),))
    plane = next(fam.line_planes(HEIS, x, frame[0]))
    assert plane.pivots == (0, 1)
    j2 = fam.direction_variation(HEIS, frame, plane, (Q(1),), Q(2))
    j0 = fam.direction_variation(HEIS, frame, plane, (Q(1),), Q(0))
    assert j2 == Mat([[1, -1], [-2, 2]])
    assert j0 == Mat([[0, -1], [0, 0]])


def test_slide_identity_fails_off_isotropy():
    """The Heisenberg form does not vanish on the flat line's tangents,
    and the identity genuinely breaks there (negative control)."""
    chart = veronese_chart(2, 1, "p1")
    x = element(HEIS, (0, 1), (0,))
    frame = chart.frame_integers((Q(0),))
    plane = plane_at(HEIS, x, frame[0], (0, 1))
    result = fam.check_slide_identity(HEIS, frame, plane, (Q(1),), Q(2))
    assert not result.ok
    assert any(c != 0 for c in result.residual)


def _recording_solve(monkeypatch):
    """The coefficients each solve_basepoint_variation call returns."""
    solved = []
    original = fam.solve_basepoint_variation

    def recording(*args):
        solved.append(original(*args))
        return solved[-1]

    monkeypatch.setattr(fam, "solve_basepoint_variation", recording)
    return solved


def _force_mismatch(monkeypatch):
    """Move the limit column that check_slide_identity compares against by
    one unit, so that every slide check takes its failure path."""
    original = fam._pencil_columns

    def moved(*args):
        col_0, (col_inf, scale) = original(*args)
        return col_0, ([col_inf[0] + 1, *col_inf[1:]], scale)

    monkeypatch.setattr(fam, "_pencil_columns", moved)


def test_tangent_span_check_rejects_a_u_component(monkeypatch):
    """Off isotropy the pulled-back shift gains a U-component, while its
    W-part stays in the tangent span (here all of W)."""
    chart = veronese_chart(2, 1, "p1")
    x = element(HEIS, (0, 1), (0,))
    solved = _recording_solve(monkeypatch)
    frame = chart.frame_integers((Q(0),))
    plane = plane_at(HEIS, x, frame[0], (0, 1))
    result = fam.check_slide_identity(HEIS, frame, plane, (Q(1),), Q(2))
    assert solved == [(0, -2, -2)]
    point = (Q(0),)
    assert in_tangent_span(affine_tangent_frame(chart.frame_integers(point), point), solved[0][:2])
    assert not result.tangent_span_ok


def test_tangent_span_check_rejects_a_w_part_off_the_frame(twisted_cubic, monkeypatch):
    """With a zero U-component, the W-part alone decides: a chart value
    passes, a vector outside the tangent frame's span does not."""
    chart, omega, _ = twisted_cubic
    param, x, delta = (Q(2),), element(omega, (1, 2, 3, 4), (5,)), (Q(1),)
    frame = chart.frame_integers(param)
    plane = next(fam.line_planes(omega, x, frame[0]))
    _force_mismatch(monkeypatch)
    for coeffs, inside in (((1, 2, 4, 8, 0), True), ((1, 0, 0, 0, 0), False)):
        monkeypatch.setattr(fam, "solve_basepoint_variation", lambda *args, c=coeffs: c)
        result = fam.check_slide_identity(omega, frame, plane, delta, Q(3))
        assert result.tangent_span_ok is inside


def test_slide_identity_frozen_flat_conic(flat_conic, monkeypatch):
    chart, omega, _ = flat_conic
    x = element(omega, (0, 0, 1))
    param, delta, t = (Q(1),), (Q(1),), Q(1)
    frame = chart.frame_integers(param)
    plane = next(fam.line_planes(omega, x, frame[0]))
    j1 = fam.direction_variation(omega, frame, plane, delta, t)
    j0 = fam.direction_variation(omega, frame, plane, delta, Q(0))
    shift = [a - b for ra, rb in zip(j1.entries, j0.entries) for a, b in zip(ra, rb)]
    assert shift == [1, -2, -1, 2]
    solved = _recording_solve(monkeypatch)
    result = fam.check_slide_identity(omega, frame, plane, delta, t)
    assert result.ok and result.tangent_span_ok
    assert solved == []  # the passing product check solves nothing
    assert fam.solve_basepoint_variation(omega, plane, as_integers(shift)) == (2, 1, 0)
    assert all(r == 0 for r in result.residual)
    assert fam.solve_slide_identity(omega, frame, plane, delta, t) == result


def test_basepoint_variation_kernel_is_line_direction(flat_conic):
    chart, omega, _ = flat_conic
    x = element(omega, (0, 0, 1))
    w = chart.evaluate((Q(1),))
    bvm = fam.basepoint_variation(omega, next(fam.line_planes(omega, x, as_integers(w))))
    n = omega.dim_w + omega.dim_u
    # rank n - 1 leaves a one-dimensional kernel, and the line direction lies in it
    assert bvm.rank() == n - 1
    w_full = list(w) + [ZERO] * omega.dim_u
    assert any(c != 0 for c in w_full)
    assert bvm.times_vector(w_full) == (0,) * bvm.nrows


def test_slide_identity_on_samples(twisted_cubic, quartic):
    for chart, omega, _ in (twisted_cubic, quartic):
        sampler = RationalSampler(29)
        for _ in range(10):
            param = sampler.vector(chart.param_dim)
            x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
            delta = sampler.nonzero_vector(chart.param_dim)
            t = sampler.nonzero_rational()
            frame = chart.frame_integers(param)
            plane = next(fam.line_planes(omega, x, frame[0]))
            result = fam.check_slide_identity(omega, frame, plane, delta, t)
            assert result.ok and result.tangent_span_ok


def test_slide_identity_in_second_chart(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(31)
    checked = 0
    while checked < 5:
        param = sampler.vector(1)
        x = element(omega, sampler.vector(4), sampler.vector(1))
        frame = chart.frame_integers(param)
        planes = fam.line_planes(omega, x, frame[0])
        next(planes)
        alt = next(planes, None)
        if alt is None:
            continue
        result = fam.check_slide_identity(omega, frame, alt, (Q(1),), sampler.nonzero_rational())
        assert result.ok and result.tangent_span_ok
        checked += 1


# A passing slide check is one product of integer rows.  The solve explains
# a failure and is the oracle of slide-identity-symbolic.


@pytest.mark.parametrize("name", [n for n in builtin_names() if n != "nonisotropic-cubic"])
def test_a_passing_slide_check_eliminates_nothing(name, monkeypatch):
    """Guard: the first slide sample of each isotropic builtin passes at the
    primary and at the alt plane with the slide solve and solve_in_span
    made to raise."""

    def eliminate(*_):
        raise AssertionError("a passing slide check ran an elimination")

    monkeypatch.setattr(fam, "solve_basepoint_variation", eliminate)
    monkeypatch.setattr(fam, "solve_in_span", eliminate)
    chart, omega = chart_and_form(name)
    checks = ["slide-identity", "slide-identity-alt-chart"]
    report = run_verification(chart, omega, seed=42, samples=1, checks=checks)
    assert [(c.name, c.passes) for c in report.checks] == [(check, 1) for check in checks]


def _slide_verdict(check, omega, frame, plane, delta, t):
    """The check's SlideCheckResult, or the residual of its NotInSpan."""
    try:
        return check(omega, frame, plane, delta, t)
    except NotInSpan as exc:
        return "residual", exc.residual


def _slid_variation_off_by_one(plane):
    """_tangent_variation with the last entry moved by one unit at every
    plane but the given one, which moves the slide shift by that unit."""
    variation = fam._tangent_variation

    def moved(omega, at, tangent):
        rows, scale = variation(omega, at, tangent)
        if at is not plane:
            rows = [rows[0], [*rows[1][:-1], rows[1][-1] + 1]]
        return rows, scale

    return moved


@pytest.mark.parametrize("name", ALL_CHARTS)
def test_the_product_check_gives_the_verdict_of_the_solve(name, monkeypatch):
    """On two samples of every chart, at the primary and the alt plane:
    check_slide_identity returns what solve_slide_identity (the pull-back
    solve every sample ran before) returns, or raises the same NotInSpan
    residual; with the shift moved by one unit both fail, alike.  The
    form of nonisotropic-cubic does not vanish on its tangents, so its
    unmoved samples are negative controls too."""
    chart, omega = chart_and_form(name)
    sampler = RationalSampler(107).derive(name)
    verdicts = set()
    for _ in range(2):
        param = sampler.vector(chart.param_dim)
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
        frame = chart.frame_integers(param)
        for kind, plane in zip(("primary", "alt"), fam.line_planes(omega, x, frame[0])):
            args = (omega, frame, plane, delta, t)
            try:
                solved = _slide_verdict(fam.solve_slide_identity, *args)
            except fam.ChartMiss:
                continue
            assert _slide_verdict(fam.check_slide_identity, *args) == solved, kind
            verdicts.add(not isinstance(solved, tuple) and solved.ok)
            with patch.object(fam, "_tangent_variation", _slid_variation_off_by_one(plane)):
                moved = _slide_verdict(fam.solve_slide_identity, *args)
                assert _slide_verdict(fam.check_slide_identity, *args) == moved, kind
            assert isinstance(moved, tuple) or not moved.ok, kind
    assert verdicts == {name != "nonisotropic-cubic"}


def test_the_product_check_fails_off_isotropy_as_the_solve_does():
    """Negative control: on the Heisenberg form, off isotropy, the product
    check fails and returns the solve's result, U-component and all."""
    chart = veronese_chart(2, 1, "p1")
    frame = chart.frame_integers((Q(0),))
    plane = plane_at(HEIS, element(HEIS, (0, 1), (0,)), frame[0], (0, 1))
    args = (HEIS, frame, plane, (Q(1),), Q(2))
    result = fam.check_slide_identity(*args)
    assert result == fam.solve_slide_identity(*args)
    assert not result.ok and not result.tangent_span_ok


def test_symbolic_variation_matches_jets(veronese33):
    chart, omega, _ = veronese33
    sampler = RationalSampler(37)
    for _ in range(3):
        param = sampler.vector(2)
        x = element(omega, sampler.vector(10), sampler.vector(10))
        delta = sampler.nonzero_vector(2)
        t = sampler.rational()
        frame = chart.frame_integers(param)
        plane = next(fam.line_planes(omega, x, frame[0]))
        jet = fam.direction_variation(omega, frame, plane, delta, t)
        symbolic = fam.direction_variation_symbolic(
            chart, omega, param, x, delta, t, plane.pivots
        )
        assert jet == symbolic


def _frame_matrix(frame):
    """A pencil frame's integer columns over their scales, as a Mat."""
    return Mat.from_cols(from_integers(ints, scale) for ints, scale in frame)


def test_pencil_frames_flat_conic(flat_conic):
    chart, omega, _ = flat_conic
    x = element(omega, (0, 0, 1))
    param = (Q(1),)
    frame = chart.frame_integers(param)
    frame0, frame_inf = fam.pencil_frames(omega, frame, next(fam.line_planes(omega, x, frame[0])))
    m0, m_inf = _frame_matrix(frame0), _frame_matrix(frame_inf)
    assert m0.ncols == m_inf.ncols == 1
    # frozen: j_inf column equals the slide shift at t = 1
    assert [row[0] for row in m_inf.entries] == [1, -2, -1, 2]
    assert Mat.from_cols([*zip(*m0.entries), *zip(*m_inf.entries)]).rank() == 2
    assert fam.check_splitting_type(frame0, frame_inf)


def test_pencil_and_splitting_on_samples(twisted_cubic, veronese33):
    for chart, omega, _ in (twisted_cubic, veronese33):
        sampler = RationalSampler(41)
        d = chart.param_dim
        for _ in range(3):
            param = sampler.vector(d)
            x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
            frame = chart.frame_integers(param)
            plane = next(fam.line_planes(omega, x, frame[0]))
            frame0, frame_inf = fam.pencil_frames(omega, frame, plane)
            m0, m_inf = _frame_matrix(frame0), _frame_matrix(frame_inf)
            cols = [*zip(*m0.entries), *zip(*m_inf.entries)]
            assert Mat.from_cols(cols).rank() == 2 * d
            assert fam.check_splitting_type(frame0, frame_inf)


def _family_dimension_row(chart, omega, seed=42):
    """The family-dimension row of a run, with the run's familyDim."""
    report = run_verification(chart, omega, seed=seed, samples=1, checks=["family-dimension"])
    [row] = report.checks
    return row, report.dims["familyDim"]


def test_family_dimension(fixture_cache):
    """The runner's scan measures n - 1 + d on each curve and surface."""
    expected = {
        "veronese-2-3": 5,
        "veronese-2-4": 8,
        "flat-conic": 3,
        "flat-linear": 4,
    }
    for name, value in expected.items():
        chart, omega, _ = fixture_cache(name)
        row, family_dim = _family_dimension_row(chart, omega, seed=43)
        assert (row.passes, family_dim) == (1, value), name


def test_family_dimension_veronese33(veronese33):
    chart, omega, _ = veronese33
    row, family_dim = _family_dimension_row(chart, omega, seed=43)
    assert (row.passes, family_dim) == (1, 21)


def _count_basepoint_variations(monkeypatch):
    """Calls of _w_variation, which builds the basepoint variation of one
    point."""
    calls = []
    original = fam._w_variation

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fam, "_w_variation", counting)
    return calls


def test_family_dimension_stops_at_the_rank_bound(twisted_cubic, monkeypatch):
    """The runner's scan: the first sampled point already reaches
    n - 1 + d; no later point can exceed it, so no later point is
    sampled."""
    chart, omega, _ = twisted_cubic
    calls = _count_basepoint_variations(monkeypatch)
    row, _ = _family_dimension_row(chart, omega, seed=43)
    assert row.passes == 1
    assert len(calls) == 1


def test_family_dimension_below_the_bound_scans_every_point(monkeypatch):
    """The runner's scan: a chart whose frame drops rank everywhere stays
    one below the bound, so all ten points are sampled."""
    data = json.loads((FIXTURE_DIR / "degenerate-frame.json").read_text())
    chart = chart_from_json(data)
    omega = build_omega(chart).omega
    calls = _count_basepoint_variations(monkeypatch)
    row, bound = _family_dimension_row(chart, omega, seed=43)
    assert (row.failures, row.witness) == (1, f"measured {bound - 1}, expected {bound}")
    assert len(calls) == 10


def _unit_basepoint_variation(omega, x, w, pivots):
    """basepoint_variation in Fractions, with each form block read off one
    apply call per unit vector a_w: form(x_w, a_w) and form(a_w, w)."""
    rows = line_rows(omega, x, w)
    dim_w, width = omega.dim_w, len(rows[0])
    cols = []
    for k in range(dim_w + omega.dim_u):
        d_point = [ZERO] * width
        d_dir = [ZERO] * width
        d_point[k] = ONE
        if k < dim_w:
            a_w = tuple(ONE if i == k else ZERO for i in range(dim_w))
            d_point[dim_w:-1] = [HALF * c for c in omega.apply(x.w_part, a_w)]
            d_dir[dim_w:-1] = [HALF * c for c in omega.apply(a_w, w)]
        moved = rational_block_variation(rows, pivots, [d_point, d_dir])
        cols.append(moved[0] + moved[1])
    return Mat.from_cols(cols)


@pytest.mark.parametrize("name", ["veronese-2-4", "veronese3-of-conic"])
def test_basepoint_variation_matches_unit_vector_oracle(fixture_cache, name):
    chart, omega, _ = fixture_cache(name)
    sampler = RationalSampler(71).derive(name)
    for _ in range(3):
        param = sampler.vector(chart.param_dim)
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        w = chart.evaluate(param)
        for kind, plane in pivot_planes(omega, x, w).items():
            expected = _unit_basepoint_variation(omega, x, w, plane.pivots)
            assert fam.basepoint_variation(omega, plane) == expected, (kind, plane.pivots)


# Forward-mode oracles: the chart block computed on jets, whose partials
# are the derivatives that the closed forms in family_geometry state.


def _jet_variable(value, width, direction):
    return Jet1(Q(value), tuple(Q(int(k == direction)) for k in range(width)))


def _eps(entry, k):
    return entry.eps[k] if isinstance(entry, Jet1) else Q(0)


def _jet_block(rows, pivots):
    """Non-pivot block of the plane normalized at the pivot columns, on
    scalars or jets."""
    c1, c2 = pivots
    a, b = rows[0][c1], rows[0][c2]
    c, d = rows[1][c1], rows[1][c2]
    det = a * d - b * c
    inv = ((d / det, (-b) / det), ((-c) / det, a / det))
    return [
        [
            inv[r][0] * rows[0][col] + inv[r][1] * rows[1][col]
            for col in range(len(rows[0]))
            if col != c1 and col != c2
        ]
        for r in range(2)
    ]


def _jet_direction_variation(chart, omega, param, x, delta, t, pivots):
    """direction_variation with the chart parameter as a width-1 jet."""
    xt = translate(omega, x, chart.frame_integers(param)[0], t)
    jets = [Jet1(Q(pv), (Q(dv),)) for pv, dv in zip(param, delta)]
    w_tau = [poly.evaluate(jets, zero=Jet1.const(0, 1)) for poly in chart.coords]
    block = _jet_block(line_rows(omega, xt, w_tau), pivots)
    return Mat([[_eps(entry, 0) for entry in row] for row in block])


def _jet_basepoint_variation(omega, x, w, pivots):
    """basepoint_variation with x * exp(a) moved by a width-n jet in a."""
    n = omega.dim_w + omega.dim_u
    x_jets = GroupElement(
        tuple(Jet1.const(c, n) for c in x.w_part),
        tuple(Jet1.const(c, n) for c in x.u_part),
    )
    arg = GroupElement(
        tuple(_jet_variable(0, n, i) for i in range(omega.dim_w)),
        tuple(_jet_variable(0, n, omega.dim_w + c) for c in range(omega.dim_u)),
    )
    moved = multiply(omega, x_jets, arg)
    block = _jet_block(line_rows(omega, moved, list(w)), pivots)
    return Mat([[_eps(entry, k) for k in range(n)] for row in block for entry in row])


# The isotropic builtins but veronese3-of-conic, whose width-44 jets are
# slow, and a fixture with an explicit form.
@pytest.mark.parametrize(
    "name",
    [
        "veronese-2-3",
        "veronese-2-4",
        "veronese-3-3",
        "flat-conic",
        "flat-linear",
        "veronese-2-4-summed-form.json",
    ],
)
def test_closed_form_variations_match_jets(name):
    chart, omega = chart_and_form(name)
    sampler = RationalSampler(67)
    kinds = set()
    for _ in range(3):
        param = sampler.vector(chart.param_dim)
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        delta = sampler.nonzero_vector(chart.param_dim)
        t = sampler.nonzero_rational()
        w, frame = chart.evaluate(param), chart.frame_integers(param)
        for kind, plane in pivot_planes(omega, x, w).items():
            kinds.add(kind)
            pivots = plane.pivots
            got = fam.basepoint_variation(omega, plane)
            assert got == _jet_basepoint_variation(omega, x, w, pivots), (kind, pivots)
            closed = fam.direction_variation(omega, frame, plane, delta, t)
            args = (chart, omega, param, x, delta, t, pivots)
            assert closed == _jet_direction_variation(*args), (kind, pivots)
    expected = {"primary", "next"} | ({"w-u", "u-constant"} if omega.dim_u else set())
    expected |= {"u-u"} if omega.dim_u >= 2 else set()
    assert kinds == expected


def _coordinate_jacobian_rank(chart, omega, param, base_w, base_u):
    """Rank of the family Jacobian with the parameter and the base point's
    coordinates perturbed directly, as width-(d+n) jets: an oracle for
    family_dimension, which moves the base through the group instead."""
    d = chart.param_dim
    width = d + omega.dim_w + omega.dim_u
    p_jets = [_jet_variable(param[a], width, a) for a in range(d)]
    x_jets = GroupElement(
        tuple(_jet_variable(c, width, d + i) for i, c in enumerate(base_w)),
        tuple(_jet_variable(c, width, d + omega.dim_w + i) for i, c in enumerate(base_u)),
    )
    w_jets = [poly.evaluate(p_jets, zero=Jet1.const(0, width)) for poly in chart.coords]
    rows = line_rows(omega, x_jets, w_jets)
    _, pivots = Mat([[getattr(e, "val", e) for e in row] for row in rows]).rref()
    block = _jet_block(rows, pivots)
    return Mat([[e.eps[k] for k in range(width)] for row in block for e in row]).rank()


# The isotropic builtins but veronese3-of-conic, whose width-45 jets are slow.
@pytest.mark.parametrize(
    "name", ["veronese-2-3", "veronese-2-4", "veronese-3-3", "flat-conic", "flat-linear"]
)
def test_family_dimension_rank_matches_coordinate_jacobian(fixture_cache, name):
    chart, omega, _ = fixture_cache(name)
    sampler = RationalSampler(61)
    for _ in range(3):
        draws = [sampler.vector(k) for k in (chart.param_dim, omega.dim_w, omega.dim_u)]
        param, x = draws[0], element(omega, *draws[1:])
        frame = chart.frame_integers(param)
        rank = fam.family_dimension(omega, frame, next(fam.line_planes(omega, x, frame[0])))
        assert rank == _coordinate_jacobian_rank(chart, omega, *draws) > 0


def test_splitting_type_rejects_a_rank_drop():
    """At the cusp of (1, t^2, t^3) the chart partial vanishes, so both
    pencil frames are zero: the pencil is linear, and the combined rank is
    0, not 2d = 2."""
    data = json.loads((FIXTURE_DIR / "no-recovery.json").read_text())
    chart = chart_from_json(data)
    omega = build_omega(chart).omega
    param = (Q(0),)
    x = element(omega, (1, 2, 3), (5,) * omega.dim_u)
    frame = chart.frame_integers(param)
    frame0, frame_inf = fam.pencil_frames(omega, frame, next(fam.line_planes(omega, x, frame[0])))
    assert not fam.check_splitting_type(frame0, frame_inf)


# The Schur solve over the U unknowns against the full solve.

def _eliminated(omega, pivots):
    """How many U unknowns lie off the pivot columns: the Schur solve
    eliminates one row and one column for each."""
    return omega.dim_u - sum(omega.dim_w <= c < omega.dim_w + omega.dim_u for c in pivots)


def _schurpivot_planes(omega, x, w):
    """pivot_planes and the first W column paired with the constant
    column, which leaves two non-pivot W columns fewer than (0, 1) does."""
    choices = pivot_planes(omega, x, w)
    pivots = (next(k for k, c in enumerate(w) if c != 0), omega.dim_w + omega.dim_u)
    choices["w-constant"] = plane_at(omega, x, as_integers(w), pivots)
    return choices


def _slide_shift(chart, omega, param, plane, delta, t):
    frame = chart.frame_integers(param)
    j_t = fam.direction_variation(omega, frame, plane, delta, t)
    j_0 = fam.direction_variation(omega, frame, plane, delta, 0)
    return [a - b for ra, rb in zip(j_t.entries, j_0.entries) for a, b in zip(ra, rb)]


def _counting_solve_in_span(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_in_span(*args)

    monkeypatch.setattr(fam, "solve_in_span", counting)
    return calls


def _full_solve(omega, plane, target):
    return solve_in_span(fam.basepoint_variation(omega, plane), target)


@pytest.mark.parametrize("name", ALL_CHARTS)
def test_schur_solve_matches_the_full_solve(name, monkeypatch):
    """On the slide shift, on a combination of the variation's columns and
    on two shifts moved off the span, at every pivot choice: the same
    coefficients, or the same NotInSpan residual.  solve_in_span runs once
    on the reduced system, one row and one column fewer per eliminated U
    unknown, and a second time on the full variation only off the span.
    The variation's kernel is exactly (w, 0), so the Schur solve needs no
    rank test."""
    chart, omega = chart_and_form(name)
    calls = _counting_solve_in_span(monkeypatch)
    sampler = RationalSampler(73).derive(name)
    seen = set()
    for _ in range(2):
        param = sampler.vector(chart.param_dim)
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
        w = chart.evaluate(param)
        for kind, plane in _schurpivot_planes(omega, x, w).items():
            pivots = plane.pivots
            shift = _slide_shift(chart, omega, param, plane, delta, t)
            bvm = fam.basepoint_variation(omega, plane)
            # the kernel is exactly the line direction (w, 0)
            assert bvm.rank() == omega.dim_w + omega.dim_u - 1, (kind, pivots)
            assert not any(bvm.times_vector(list(w) + [ZERO] * omega.dim_u)), (kind, pivots)
            combination = list(bvm.times_vector(sampler.vector(bvm.ncols)))
            off_last = shift[:-1] + [shift[-1] + 1]
            off_first = [shift[0] + 1] + shift[1:]
            for target in (shift, combination, off_last, off_first):
                expected = solve_outcome(solve_in_span, bvm, target)
                del calls[:]
                args = (omega, plane, as_integers(target))
                got = solve_outcome(fam.solve_basepoint_variation, *args)
                assert got == expected, (kind, pivots)
                seen.add(expected[0])
                reduced = calls[0][0]
                eliminated = _eliminated(omega, pivots)
                assert reduced.nrows == bvm.nrows - eliminated, (kind, pivots)
                assert reduced.ncols == bvm.ncols - eliminated, (kind, pivots)
                if expected[0] == "coefficients":
                    assert len(calls) == 1
                else:
                    assert len(calls) == 2 and calls[1][0] == bvm
    assert seen == {"coefficients", "residual"}


def test_schur_solve_with_a_pivot_in_u(quartic, monkeypatch):
    """With x_w = 3w and x_u nonzero, the plane's W columns are parallel,
    so its second echelon pivot is the first U column: that U unknown stays
    in the reduced system beside the W unknowns, the solve matches the full
    one, and the slide identity still holds."""
    chart, omega, _ = quartic
    param, delta, t = (Q(2),), (Q(1),), Q(5)
    w = chart.evaluate(param)
    x = element(omega, tuple(Q(3) * c for c in w), (Q(1),) * omega.dim_u)
    frame = chart.frame_integers(param)
    plane = next(fam.line_planes(omega, x, frame[0]))
    assert plane.pivots[1] == omega.dim_w
    calls = _counting_solve_in_span(monkeypatch)
    shift = _slide_shift(chart, omega, param, plane, delta, t)
    got = fam.solve_basepoint_variation(omega, plane, as_integers(shift))
    assert got == _full_solve(omega, plane, shift)
    assert len(calls) == 1 and calls[0][0].ncols == omega.dim_w + 1
    assert fam.check_slide_identity(omega, frame, plane, delta, t).ok


def _full_jacobian_rank(chart, omega, param, plane):
    d = chart.param_dim
    units = [tuple(Q(int(k == a)) for k in range(d)) for a in range(d)]
    frame = chart.frame_integers(param)
    variations = [fam.direction_variation(omega, frame, plane, u, 0) for u in units]
    cols = [[e for row in var.entries for e in row] for var in variations]
    bvm = fam.basepoint_variation(omega, plane)
    return Mat.from_cols([*cols, *zip(*bvm.entries)]).rank()


@pytest.mark.parametrize(
    "name",
    [
        "veronese-2-3",
        "veronese-3-3",
        "veronese3-of-conic",
        "flat-linear",
        "degenerate-frame.json",
        "moment-curve-12.json",
        "scroll-2-2.json",
    ],
)
def test_family_rank_matches_the_full_jacobian_rank(name):
    """The Schur rank, the number of U unknowns off the pivot columns plus
    the rank of the rows none of them enters, equals the rank of the full
    Jacobian at every pivot choice; degenerate-frame.json stays one below
    the bound."""
    chart, omega = chart_and_form(name)
    sampler = RationalSampler(79).derive(name)
    for _ in range(2):
        param = sampler.vector(chart.param_dim)
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        w = chart.evaluate(param)
        frame = chart.frame_integers(param)
        for kind, plane in _schurpivot_planes(omega, x, w).items():
            rank = fam.family_dimension(omega, frame, plane)
            assert rank == _full_jacobian_rank(chart, omega, param, plane), (kind, plane.pivots)


def test_family_rank_of_a_direction_column_inside_the_variation(quartic, monkeypatch):
    """A direction column that the basepoint variation already spans adds
    no rank; the Schur rows see that only when the direction column is
    multiplied by P like the basepoint columns.  The column dB is injected
    as a move of the plane's rows that fixes the pivot columns and moves
    the others by P dB, so both ranks read it."""
    chart, omega, _ = quartic
    sampler = RationalSampler(89)
    param = sampler.vector(chart.param_dim)
    x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
    w = chart.evaluate(param)
    frame = chart.frame_integers(param)
    for kind, plane in _schurpivot_planes(omega, x, w).items():
        bvm = fam.basepoint_variation(omega, plane)
        image = bvm.times_vector(sampler.vector(bvm.ncols))
        width = len(plane.rows[0])
        drows = []
        for ints, scale in fam._times_minor(plane, as_integers(image)):
            rest = iter(ints)
            drows.append(([0 if c in plane.pivots else next(rest) for c in range(width)], scale))
        monkeypatch.setattr(fam, "_tangent_rows", lambda *a: drows)
        assert fam.direction_variation(omega, frame, plane, (Q(1),), Q(0)) == Mat(
            [image[: len(image) // 2], image[len(image) // 2 :]]
        )
        rank = omega.dim_w + omega.dim_u - 1
        full = _full_jacobian_rank(chart, omega, param, plane)
        assert fam.family_dimension(omega, frame, plane) == full == rank, kind


# Off isotropy the pencil is not linear in the slide, so the slide
# samples are dropped here to read the limit frame of nonisotropic-cubic,
# whose form does not vanish on (tangent, w).
@pytest.mark.parametrize(
    "name", ["veronese-2-3", "veronese-3-3", "flat-conic", "scroll-2-2.json", "nonisotropic-cubic"]
)
def test_limit_frame_is_minus_the_basepoint_variation_along_the_tangent(name, monkeypatch):
    monkeypatch.setattr(fam, "PENCIL_SLIDES", ())
    chart, omega = chart_and_form(name)
    sampler = RationalSampler(83).derive(name)
    for _ in range(2):
        param = sampler.vector(chart.param_dim)
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        w = chart.evaluate(param)
        for kind, plane in _schurpivot_planes(omega, x, w).items():
            _, frame_inf = fam.pencil_frames(omega, chart.frame_integers(param), plane)
            bvm = fam.basepoint_variation(omega, plane)
            for a, partial in enumerate(chart.partials):
                tangent = [p.evaluate(param) for p in partial]
                image = bvm.times_vector(tangent + [ZERO] * omega.dim_u)
                column = [row[a] for row in _frame_matrix(frame_inf).entries]
                assert column == [-v for v in image], (kind, a)


@pytest.mark.parametrize("name, applies", [("flat-conic", 0), ("veronese-2-3", 1)])
def test_slide_solve_back_substitutes_only_eliminated_unknowns(name, applies):
    """With the plane given, the slide solve reads the form through
    columns alone, and contracts it once, on the point row's move, only to
    back-substitute eliminated U unknowns: flat-conic (dim_u 0) eliminates
    none."""
    chart, omega = chart_and_form(name)
    sampler = RationalSampler(97).derive(name)
    param = sampler.vector(chart.param_dim)
    x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
    delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
    plane = next(fam.line_planes(omega, x, chart.frame_integers(param)[0]))
    shift = _slide_shift(chart, omega, param, plane, delta, t)
    apply = OmegaForm.apply_integers
    calls = []

    def counting(*args):
        calls.append(args)
        return apply(*args)

    with patch.object(OmegaForm, "apply_integers", counting):
        coeffs = fam.solve_basepoint_variation(omega, plane, as_integers(shift))
    assert len(calls) == applies
    assert coeffs == _full_solve(omega, plane, shift)


def test_the_slide_solve_keeps_its_operands_in_lowest_terms(monkeypatch):
    """Guard: on moment-curve-12.json every slide shift reaches the solve
    (the slide-identity-symbolic oracle) in lowest terms, and the Schur
    systems, each column reduced before the lcm of its block row is taken,
    stay under 400 bits an entry: 171 to 184 bits here, where unreduced
    columns gave 373 to 1,586."""
    chart, omega = chart_and_form("moment-curve-12.json")
    schur, solve = fam._schur_system, fam.solve_basepoint_variation
    bits, gcds = [], []

    def recording_schur(*args):
        rows, kept, u_pos = schur(*args)
        bits.append(max(abs(v).bit_length() for row in rows for v in row))
        return rows, kept, u_pos

    def recording_solve(omega, plane, shift):
        gcds.append(gcd(shift[1], *shift[0]))
        return solve(omega, plane, shift)

    monkeypatch.setattr(fam, "_schur_system", recording_schur)
    monkeypatch.setattr(fam, "solve_basepoint_variation", recording_solve)
    checks = ["slide-identity-symbolic", "family-dimension"]
    assert run_verification(chart, omega, seed=42, samples=3, checks=checks).passed
    assert gcds == [1, 1, 1] and len(bits) == 4
    assert max(bits) < 400


# The symbolic direction variation is an independent oracle of the closed form.


@pytest.mark.parametrize("name", ALL_CHARTS)
def test_symbolic_variation_matches_at_every_pivot_pair(name):
    """At every pivot_planes kind, at the slide and at slide zero; constant
    coordinates and the constant column enter the jet rows as rationals."""
    chart, omega = chart_and_form(name)
    sampler = RationalSampler(101).derive(name)
    param = sampler.vector(chart.param_dim)
    x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
    delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
    frame = chart.frame_integers(param)
    for kind, plane in pivot_planes(omega, x, chart.evaluate(param)).items():
        for slide in (t, ZERO):
            oracle = (chart, omega, param, x, delta, slide, plane.pivots)
            closed = fam.direction_variation(omega, frame, plane, delta, slide)
            assert fam.direction_variation_symbolic(*oracle) == closed, (kind, slide)


def test_symbolic_variation_uses_no_closed_form(twisted_cubic, monkeypatch):
    """The oracle still gives the same matrix with every closed-form piece
    of direction_variation, and polynomial calculus, made to raise."""
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(103)
    param = sampler.vector(chart.param_dim)
    x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
    delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
    frame = chart.frame_integers(param)
    plane = next(fam.line_planes(omega, x, frame[0]))
    args = (chart, omega, param, x, delta, t, plane.pivots)
    expected = fam.direction_variation(omega, frame, plane, delta, t)

    def closed_form(*_):
        raise AssertionError("the oracle reached the closed form")

    for owner, attr in (
        (fam, "chart_block"),
        (fam, "_plane"),
        (fam, "_moved_rows"),
        (fam, "_block_variation"),
        (fam, "line_matrix_rows"),
        (VarietyChart, "frame_integers"),
        (fam, "_tangent"),
        (Poly, "diff"),
        (Poly, "compose"),
    ):
        monkeypatch.setattr(owner, attr, closed_form)
    assert fam.direction_variation_symbolic(*args) == expected


def test_closed_forms_read_the_chart_only_through_its_frame(twisted_cubic, monkeypatch):
    """The closed-form kernels take the sample's chart frame: with the frame
    computed first and the chart evaluator then made to raise, the slide
    check (its tangent-span test included), the direction variation, the
    pencil and the family dimension all still run, to the results they
    give before."""
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(103)
    param = sampler.vector(chart.param_dim)
    x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
    delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
    frame = chart.frame_integers(param)
    plane = next(fam.line_planes(omega, x, frame[0]))

    def kernels():
        return (
            fam.check_slide_identity(omega, frame, plane, delta, t),
            fam.direction_variation(omega, frame, plane, delta, t),
            fam.pencil_frames(omega, frame, plane),
            fam.family_dimension(omega, frame, plane),
        )

    expected = kernels()
    assert expected[0].ok and fam.check_splitting_type(*expected[2])

    def evaluate(*_):
        raise AssertionError("a closed form evaluated the chart")

    monkeypatch.setattr(VarietyChart, "_integer_rows", evaluate)
    assert kernels() == expected
    # a W-part off the frame: the failing slide check reduces the frame it holds
    _force_mismatch(monkeypatch)
    monkeypatch.setattr(fam, "solve_basepoint_variation", lambda *args: (1, 0, 0, 0, 0))
    assert not fam.check_slide_identity(omega, frame, plane, delta, t).tangent_span_ok
