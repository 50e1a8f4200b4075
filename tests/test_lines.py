import pytest

from conftest import HEISENBERG as HEIS
from conftest import line_rows
from metaline.linalg import Mat, wedge
from metaline.lines import (
    TangentDirectionPoint,
    ZeroDirection,
    boundary_direction,
    line_matrix_rows,
    line_of,
    line_through,
    pluecker_embed,
    slide_action,
    translate,
)
from metaline.metabelian import element, multiply
from metaline.sampling import RationalSampler
from metaline.scalars import Q, as_integers, from_integers


def _pivot(line):
    """The canonical line's pivot: its direction's leftmost nonzero entry."""
    return next(k for k, c in enumerate(line.direction[0]) if c)


def _marked(chart, param, x):
    """The marked point over param with base x, the chart's value row its
    direction."""
    return TangentDirectionPoint(chart.frame_integers(param)[0], param, x)


def test_canonical_form_invariants():
    x = element(HEIS, (3, 5), (7,))
    line = line_through(HEIS, x, ((2, 4), 1))
    assert line.direction == ((1, 2), 1)
    pivot = _pivot(line)
    assert pivot == 0
    assert from_integers(*line.direction)[pivot] == 1
    assert line.base.w_part[pivot] == 0


def test_same_line_same_canonical_form():
    x = element(HEIS, (3, 5), (7,))
    line = line_through(HEIS, x, ((2, 4), 1))
    # any point of the line with any rescaled direction gives the same form
    y = translate(HEIS, line.base, line.direction, Q(9, 2))
    assert line_through(HEIS, y, ((-6, -12), 1)) == line


def test_distinct_lines_differ():
    x = element(HEIS, (3, 5), (7,))
    assert line_through(HEIS, x, ((2, 4), 1)) != line_through(HEIS, x, ((2, 5), 1))
    shifted = multiply(HEIS, x, element(HEIS, (0, 0), (1,)))
    assert line_through(HEIS, shifted, ((2, 4), 1)) != line_through(HEIS, x, ((2, 4), 1))


def test_zero_direction_rejected():
    x = element(HEIS, (0, 0))
    with pytest.raises(ZeroDirection):
        line_through(HEIS, x, ((0, 0), 1))


def test_line_points_satisfy_group_parametrization():
    x = element(HEIS, (2, 3), (5,))
    line = line_through(HEIS, x, ((1, 1), 1))
    t = Q(7, 2)
    direction = from_integers(*line.direction)
    expected = multiply(HEIS, line.base, element(HEIS, tuple(t * c for c in direction)))
    assert translate(HEIS, line.base, line.direction, t) == expected


def test_marked_point_slide_preserves_line(flat_conic):
    chart, omega, _ = flat_conic
    x = element(omega, (1, 2, 3))
    alpha = _marked(chart, (Q(2),), x)
    slid = slide_action(omega, Q(5), alpha)
    assert slid != alpha
    assert line_of(omega, slid) == line_of(omega, alpha)
    line = line_of(omega, alpha)
    # the line carries its chart parameter, which equality ignores
    assert line.param == alpha.param
    assert line == line_through(omega, x, chart.frame_integers((Q(2),))[0])
    # the canonical base sits at parameter 0 and the direction is 1 at the
    # pivot, so a point's line parameter is its W-coordinate at the pivot
    pivot = _pivot(line)
    for marked in (alpha, slid):
        t = marked.base.w_part[pivot]
        assert translate(omega, line.base, line.direction, t) == marked.base
    shift = slid.base.w_part[pivot] - alpha.base.w_part[pivot]
    assert shift == Q(5) * chart.evaluate((Q(2),))[pivot]


def _rank_with(omega, line, point):
    """Rank of the line's Pluecker vector beside that of the plane spanned
    by the point's row (W, U, 1) and the line's direction row: 1 exactly
    when the point lies on the embedded plane."""
    spanned = wedge(*line_rows(omega, point, from_integers(*line.direction)))
    return Mat([pluecker_embed(omega, line), spanned]).rank()


def test_pluecker_embedding_relations_and_membership(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(13)
    for _ in range(10):
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        w = chart.evaluate(sampler.vector(chart.param_dim))
        line = line_through(omega, x, as_integers(w))
        for t in (Q(0), Q(1), Q(-3, 2)):
            assert _rank_with(omega, line, translate(omega, line.base, line.direction, t)) == 1
        off_line = multiply(omega, x, element(omega, (0,) * omega.dim_w, (1,)))
        assert _rank_with(omega, line, off_line) == 2


def test_pluecker_injective_on_canonical_lines(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(17)
    lines = []
    for _ in range(200):
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        w = sampler.nonzero_vector(omega.dim_w)
        lines.append(line_through(omega, x, as_integers(w)))
    embedded = {}
    for line in lines:
        key = pluecker_embed(omega, line)
        if key in embedded:
            assert embedded[key] == line
        else:
            embedded[key] = line
    distinct = set(lines)
    assert len(embedded) == len(distinct)


def test_boundary_direction_base_invariance(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 2, 3, 4), (5,))
    w = chart.frame_integers((Q(2),))[0]
    line = line_through(omega, x, w)
    slid = line_through(omega, translate(omega, line.base, line.direction, Q(7)), w)
    assert boundary_direction(omega, line) == boundary_direction(omega, slid)
    # leading entry normalized to one
    vec = boundary_direction(omega, line)
    assert next(c for c in vec if c != 0) == 1


def test_flat_boundary_is_the_variety(flat_conic):
    """With a vanishing form the boundary direction is the chart value."""
    chart, omega, _ = flat_conic
    sampler = RationalSampler(19)
    x = element(omega, (4, 5, 6))
    for _ in range(20):
        p = sampler.vector(1)
        w = chart.evaluate(p)
        line = line_through(omega, x, as_integers(w))
        expected = tuple(c / w[0] for c in w)
        assert boundary_direction(omega, line) == expected


def test_line_matrix_rows_shape(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (1, 0, 0, 0), (0,))
    w = chart.evaluate((Q(1),))
    rows = line_matrix_rows(omega, x, as_integers(w))
    assert [[Q(c, scale) for c in ints] for ints, scale in rows] == line_rows(omega, x, w)
    assert len(rows) == 2
    assert len(rows[0][0]) == omega.dim_w + omega.dim_u + 1
    assert rows[0][0][-1] == rows[0][1] and rows[1][0][-1] == 0


def test_slide_action_is_additive(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(41)
    for _ in range(20):
        base = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        alpha = _marked(chart, sampler.vector(chart.param_dim), base)
        s, t = sampler.rational(), sampler.rational()
        assert slide_action(omega, Q(0), alpha) == alpha
        assert slide_action(omega, s, slide_action(omega, t, alpha)) == slide_action(
            omega, s + t, alpha
        )
        assert line_of(omega, slide_action(omega, t, alpha)) == line_of(omega, alpha)


def test_pluecker_basis_heisenberg_example():
    # base (e2, 0), direction e1: rows (0,1,0,1) and (1,0,-1/2,0)
    line = line_through(HEIS, element(HEIS, (0, 1), (0,)), ((1, 0), 1))
    # reduced: (1, 0, -1/2, 0) and (0, 1, 0, 1), wedged in lex order of pairs
    assert pluecker_embed(HEIS, line) == (Q(1), Q(0), Q(1), Q(1, 2), Q(0), Q(-1, 2))
