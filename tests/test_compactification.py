import pytest

from metaline.compactification import (
    Boundary,
    BoundaryPoint,
    DirectionNotOnChart,
    Interior,
    OffSection,
    OnSection,
    act_on_bundle,
    boundary_point,
    bundle_to_space,
    canonical_coset_rep,
    compactified_line,
    g_action,
    in_tangent_span,
    recover_parameter,
)
from metaline.lines import direction_point, line_of, line_through
from metaline.metabelian import element, identity_element, inverse, multiply
from metaline.sampling import RationalSampler
from metaline.scalars import Q
from metaline.varieties import affine_tangent_frame


def _sample_element(sampler, omega):
    return element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))


def test_canonical_rep_vanishes_on_pivots(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (3, 1, 4, 1), (5,))
    rep = canonical_coset_rep(chart, omega, param, x)
    _, pivots = affine_tangent_frame(chart, param).rref()
    assert all(rep.w_part[p] == 0 for p in pivots)


def test_canonical_rep_is_coset_invariant(twisted_cubic):
    """Multiplying by any tangent-subgroup element keeps the same rep."""
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    sampler = RationalSampler(47)
    frame = affine_tangent_frame(chart, param)
    x = _sample_element(sampler, omega)
    rep = canonical_coset_rep(chart, omega, param, x)
    for _ in range(5):
        coeffs = sampler.vector(frame.nrows)
        shift = [Q(0)] * omega.dim_w
        for c, row in zip(coeffs, frame.entries):
            for k in range(omega.dim_w):
                shift[k] += c * row[k]
        moved = multiply(omega, x, element(omega, shift))
        assert canonical_coset_rep(chart, omega, param, moved) == rep


def test_boundary_points_differ_off_coset(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (3, 1, 4, 1), (5,))
    a = boundary_point(chart, omega, param, x)
    central = multiply(omega, x, element(omega, (0, 0, 0, 0), (1,)))
    assert boundary_point(chart, omega, param, central) != a
    other_param = boundary_point(chart, omega, (Q(3),), x)
    assert other_param != a


def test_in_tangent_span(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    w = chart.evaluate(param)
    tangent = chart.tangent_vector(param, (Q(1),))
    combo = tuple(3 * a - 2 * b for a, b in zip(w, tangent))
    assert in_tangent_span(chart, param, combo)
    assert not in_tangent_span(chart, param, (1, 0, 0, 0))


def test_recover_parameter_round_trip(veronese33):
    chart, _, _ = veronese33
    param = (Q(1, 2), Q(-3))
    direction = tuple(Q(7) * c for c in chart.evaluate(param))
    assert recover_parameter(chart, direction) == param


def test_recover_parameter_rejects_off_chart(twisted_cubic):
    chart, _, _ = twisted_cubic
    with pytest.raises(DirectionNotOnChart):
        recover_parameter(chart, (1, 2, 3, 4))
    with pytest.raises(DirectionNotOnChart):
        recover_parameter(chart, (0, 1, 1, 1))


def test_bundle_to_space_off_section(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 2, 3, 4), (5,))
    alpha = direction_point(chart, omega, (Q(2),), x)
    assert bundle_to_space(chart, omega, OffSection(alpha)) == Interior(x)


def test_bundle_to_space_on_section(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (1, 2, 3, 4), (5,))
    line = line_through(omega, x, chart.evaluate(param))
    out = bundle_to_space(chart, omega, OnSection(line))
    assert isinstance(out, Boundary)
    assert out.datum == boundary_point(chart, omega, param, x)
    assert out.datum.chart_label == chart.label


def test_compactified_line_single_boundary(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(3),)
    x = element(omega, (1, 0, 2, 0), (1,))
    grid = (Q(0), Q(1), Q(-1), Q(5, 2))
    interiors, boundary = compactified_line(chart, omega, param, x, grid)
    assert len(interiors) == len(grid)
    assert len({p.point for p in interiors}) == len(grid)
    for interior in interiors:
        again = boundary_point(chart, omega, param, interior.point)
        assert Boundary(again) == boundary


def test_g_action_axioms(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(53)
    e = identity_element(omega)
    x = _sample_element(sampler, omega)
    g = _sample_element(sampler, omega)
    h = _sample_element(sampler, omega)
    points = [
        Interior(x),
        Boundary(boundary_point(chart, omega, (Q(1),), x)),
    ]
    for point in points:
        assert g_action(chart, omega, e, point) == point
        lhs = g_action(chart, omega, multiply(omega, g, h), point)
        rhs = g_action(chart, omega, g, g_action(chart, omega, h, point))
        assert lhs == rhs
        moved = g_action(chart, omega, g, point)
        assert g_action(chart, omega, inverse(g), moved) == point


def test_g_action_interior_is_translation(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 2, 3, 4), (5,))
    g = element(omega, (1, 1, 0, 0), (2,))
    assert g_action(chart, omega, g, Interior(x)) == Interior(multiply(omega, g, x))


def test_g_action_transitive_on_boundary_fiber(twisted_cubic):
    """Translating by x' x^-1 carries the coset of x to the coset of x'."""
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (1, 2, 3, 4), (5,))
    x2 = element(omega, (0, 1, 0, 1), (-7,))
    g = multiply(omega, x2, inverse(x))
    moved = g_action(chart, omega, g, Boundary(boundary_point(chart, omega, param, x)))
    assert moved == Boundary(boundary_point(chart, omega, param, x2))


def test_evaluation_equivariance(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(59)
    for _ in range(5):
        x = _sample_element(sampler, omega)
        g = _sample_element(sampler, omega)
        param = sampler.vector(1)
        alpha = direction_point(chart, omega, param, x)
        for point in (OffSection(alpha), OnSection(line_of(omega, alpha))):
            lhs = bundle_to_space(chart, omega, act_on_bundle(omega, g, point))
            rhs = g_action(chart, omega, g, bundle_to_space(chart, omega, point))
            assert lhs == rhs


def test_boundary_point_dataclass_equality(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (1, 2, 3, 4), (5,))
    a = boundary_point(chart, omega, param, x)
    b = boundary_point(chart, omega, param, x)
    assert a == b and isinstance(a, BoundaryPoint)
    assert hash(a) == hash(b)


def test_g_action_rejects_foreign_chart(twisted_cubic, quartic):
    chart, omega, _ = twisted_cubic
    other_chart, _, _ = quartic
    x = element(omega, (1, 2, 3, 4), (5,))
    bd = Boundary(boundary_point(chart, omega, (Q(1),), x))
    with pytest.raises(ValueError):
        g_action(other_chart, omega, x, bd)
