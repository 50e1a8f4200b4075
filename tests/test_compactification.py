import pytest

from metaline.compactification import (
    BoundaryPoint,
    act_on_bundle,
    boundary_point,
    bundle_to_space,
    compactified_line,
    g_action,
)
from metaline.linalg import rational_rows
from metaline.lines import line_of, line_through
from metaline.metabelian import element, identity_element, inverse, multiply
from metaline.sampling import RationalSampler
from metaline.scalars import Q
from metaline.varieties import affine_tangent_frame, in_tangent_span


def _sample_element(sampler, omega):
    return element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))


def _fiber(chart, omega, param):
    """The boundary point at the identity over param."""
    return boundary_point(chart, omega, param, identity_element(omega))


def test_canonical_rep_vanishes_on_pivots(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (3, 1, 4, 1), (5,))
    rep = boundary_point(chart, omega, param, x).coset_rep
    _, pivots = affine_tangent_frame(chart.frame_integers(param), param)
    assert all(rep.w_part[p] == 0 for p in pivots)


def test_canonical_rep_is_coset_invariant(twisted_cubic):
    """Multiplying by any tangent-subgroup element keeps the same rep."""
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    sampler = RationalSampler(47)
    rows = rational_rows(*affine_tangent_frame(chart.frame_integers(param), param), omega.dim_w)
    x = _sample_element(sampler, omega)
    rep = boundary_point(chart, omega, param, x)
    for _ in range(5):
        coeffs = sampler.vector(len(rows))
        shift = [Q(0)] * omega.dim_w
        for c, row in zip(coeffs, rows):
            for k in range(omega.dim_w):
                shift[k] += c * row[k]
        moved = multiply(omega, x, element(omega, shift))
        assert boundary_point(chart, omega, param, moved) == rep


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
    tangent = [p.evaluate(param) for p in chart.partials[0]]
    combo = tuple(3 * a - 2 * b for a, b in zip(w, tangent))
    frame = affine_tangent_frame(chart.frame_integers(param), param)
    assert in_tangent_span(frame, combo)
    assert not in_tangent_span(frame, (1, 0, 0, 0))


def test_bundle_to_space_off_section(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 2, 3, 4), (5,))
    alpha = _fiber(chart, omega, (Q(2),)).marked_point(x)
    assert bundle_to_space(omega, alpha, _fiber(chart, omega, (Q(2),))) == x


def test_bundle_to_space_on_section(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (1, 2, 3, 4), (5,))
    line = line_of(omega, _fiber(chart, omega, param).marked_point(x))
    assert line.param == param
    out = bundle_to_space(omega, line, _fiber(chart, omega, param))
    assert out == boundary_point(chart, omega, param, x)
    assert out.chart_label == chart.label


def test_bundle_to_space_rejects_a_fiber_over_another_chart_point(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 2, 3, 4), (5,))
    line = line_of(omega, _fiber(chart, omega, (Q(2),)).marked_point(x))
    with pytest.raises(ValueError):
        bundle_to_space(omega, line, _fiber(chart, omega, (Q(3),)))


def test_compactified_line_single_boundary(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(3),)
    x = element(omega, (1, 0, 2, 0), (1,))
    grid = (Q(0), Q(1), Q(-1), Q(5, 2))
    fiber = _fiber(chart, omega, param)
    marked = fiber.marked_point(x)
    interiors, boundary = compactified_line(omega, fiber, marked, grid)
    assert len(interiors) == len(grid)
    assert len(set(interiors)) == len(grid)
    for interior in interiors:
        assert boundary_point(chart, omega, param, interior) == boundary


def test_g_action_axioms(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(53)
    e = identity_element(omega)
    x = _sample_element(sampler, omega)
    g = _sample_element(sampler, omega)
    h = _sample_element(sampler, omega)
    for point in (x, boundary_point(chart, omega, (Q(1),), x)):
        assert g_action(omega, e, point) == point
        lhs = g_action(omega, multiply(omega, g, h), point)
        rhs = g_action(omega, g, g_action(omega, h, point))
        assert lhs == rhs
        moved = g_action(omega, g, point)
        assert g_action(omega, inverse(g), moved) == point


def test_g_action_interior_is_translation(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 2, 3, 4), (5,))
    g = element(omega, (1, 1, 0, 0), (2,))
    assert g_action(omega, g, x) == multiply(omega, g, x)


def test_g_action_transitive_on_boundary_fiber(twisted_cubic):
    """Translating by x' x^-1 carries the coset of x to the coset of x'."""
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (1, 2, 3, 4), (5,))
    x2 = element(omega, (0, 1, 0, 1), (-7,))
    g = multiply(omega, x2, inverse(x))
    moved = g_action(omega, g, boundary_point(chart, omega, param, x))
    assert moved == boundary_point(chart, omega, param, x2)


def test_evaluation_equivariance(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(59)
    for _ in range(5):
        x = _sample_element(sampler, omega)
        g = _sample_element(sampler, omega)
        param = sampler.vector(1)
        fiber = _fiber(chart, omega, param)
        alpha = fiber.marked_point(x)
        for point in (alpha, line_of(omega, alpha)):
            lhs = bundle_to_space(omega, act_on_bundle(omega, g, point), fiber)
            rhs = g_action(omega, g, bundle_to_space(omega, point, fiber))
            assert lhs == rhs


def test_maps_reject_points_of_the_other_space(twisted_cubic):
    """Group elements and boundary points live in the space, marked points
    and their lines in the bundle; each map refuses the other kind, and a
    line through a bare direction, which carries no chart point, lies in
    neither."""
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 2, 3, 4), (5,))
    alpha = _fiber(chart, omega, (Q(2),)).marked_point(x)
    line = line_of(omega, alpha)
    bare = line_through(omega, x, chart.frame_integers((Q(2),))[0])
    for point in (x, boundary_point(chart, omega, (Q(2),), x), bare):
        with pytest.raises(TypeError):
            bundle_to_space(omega, point, _fiber(chart, omega, (Q(2),)))
        with pytest.raises(TypeError):
            act_on_bundle(omega, x, point)
    for point in (alpha, line, bare):
        with pytest.raises(TypeError):
            g_action(omega, x, point)


def test_boundary_point_dataclass_equality(twisted_cubic):
    chart, omega, _ = twisted_cubic
    param = (Q(2),)
    x = element(omega, (1, 2, 3, 4), (5,))
    a = boundary_point(chart, omega, param, x)
    b = boundary_point(chart, omega, param, x)
    assert a == b and isinstance(a, BoundaryPoint)
    assert hash(a) == hash(b)

