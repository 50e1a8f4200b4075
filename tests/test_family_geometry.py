import pytest

from metaline import family_geometry as fam
from metaline.jets import Jet1
from metaline.linalg import Mat
from metaline.lines import line_matrix_rows
from metaline.metabelian import GroupElement, OmegaForm, element
from metaline.sampling import RationalSampler
from metaline.scalars import Q
from metaline.varieties import in_tangent_span, linear_chart

HEIS = OmegaForm.heisenberg()


def test_primary_and_next_pivots(twisted_cubic):
    chart, omega, _ = twisted_cubic
    x = element(omega, (0, 1, 0, 0), (0,))
    w = chart.evaluate((Q(1),))
    pivots = fam.primary_pivots(omega, x, w)
    assert len(pivots) == 2 and pivots[0] < pivots[1]
    alt = fam.next_pivots(omega, x, w, pivots)
    assert alt is not None and alt != tuple(pivots)


def test_chart_block_normalizes_pivots():
    rows = [[2, 0, 4, 6], [0, 3, 3, 9]]
    block = fam.chart_block(rows, (0, 1))
    assert block == [[2, 3], [1, 3]]
    with pytest.raises(fam.ChartMiss):
        fam.chart_block([[1, 2, 0], [2, 4, 1]], (0, 1))


def test_direction_variation_frozen_heisenberg():
    """Hand-computed control values on the flat projective line."""
    chart = linear_chart(2, "p1")
    x = element(HEIS, (0, 1), (0,))
    pivots = fam.primary_pivots(HEIS, x, chart.evaluate((Q(0),)))
    assert pivots == (0, 1)
    j2 = fam.direction_variation(chart, HEIS, (Q(0),), x, (Q(1),), Q(2), pivots)
    j0 = fam.direction_variation(chart, HEIS, (Q(0),), x, (Q(1),), Q(0), pivots)
    assert j2 == Mat([[1, -1], [-2, 2]])
    assert j0 == Mat([[0, -1], [0, 0]])


def test_slide_identity_fails_off_isotropy():
    """The Heisenberg form does not vanish on the flat line's tangents,
    and the identity genuinely breaks there (negative control)."""
    chart = linear_chart(2, "p1")
    x = element(HEIS, (0, 1), (0,))
    pivots = (0, 1)
    result = fam.check_slide_identity(chart, HEIS, (Q(0),), x, (Q(1),), Q(2), pivots)
    assert not result.ok
    assert any(c != 0 for c in result.residual)


def test_tangent_span_check_rejects_a_u_component():
    """Off isotropy the pulled-back shift gains a U-component, while its
    W-part stays in the tangent span (here all of W)."""
    chart = linear_chart(2, "p1")
    x = element(HEIS, (0, 1), (0,))
    result = fam.check_slide_identity(chart, HEIS, (Q(0),), x, (Q(1),), Q(2), (0, 1))
    assert result.coefficients == (0, -2, -2)
    assert in_tangent_span(chart, (Q(0),), result.coefficients[:2])
    assert not result.tangent_span_ok


def test_tangent_span_check_rejects_a_w_part_off_the_frame(twisted_cubic, monkeypatch):
    """With a zero U-component, the W-part alone decides: a chart value
    passes, a vector outside the tangent frame's span does not."""
    chart, omega, _ = twisted_cubic
    param, x, delta = (Q(2),), element(omega, (1, 2, 3, 4), (5,)), (Q(1),)
    pivots = fam.primary_pivots(omega, x, chart.evaluate(param))
    for coeffs, inside in (((1, 2, 4, 8, 0), True), ((1, 0, 0, 0, 0), False)):
        monkeypatch.setattr(fam, "solve_in_span", lambda basis, target, c=coeffs: c)
        result = fam.check_slide_identity(chart, omega, param, x, delta, Q(3), pivots)
        assert result.tangent_span_ok is inside


def test_slide_identity_frozen_flat_conic(flat_conic):
    chart, omega, _ = flat_conic
    x = element(omega, (0, 0, 1))
    param, delta, t = (Q(1),), (Q(1),), Q(1)
    pivots = fam.primary_pivots(omega, x, chart.evaluate(param))
    j1 = fam.direction_variation(chart, omega, param, x, delta, t, pivots)
    j0 = fam.direction_variation(chart, omega, param, x, delta, Q(0), pivots)
    shift = [a - b for ra, rb in zip(j1.entries, j0.entries) for a, b in zip(ra, rb)]
    assert shift == [1, -2, -1, 2]
    result = fam.check_slide_identity(chart, omega, param, x, delta, t, pivots)
    assert result.ok and result.tangent_span_ok
    assert result.coefficients == (2, 1, 0)
    assert all(r == 0 for r in result.residual)


def test_basepoint_variation_kernel_is_line_direction(flat_conic):
    chart, omega, _ = flat_conic
    x = element(omega, (0, 0, 1))
    w = chart.evaluate((Q(1),))
    pivots = fam.primary_pivots(omega, x, w)
    bvm = fam.basepoint_variation(omega, x, w, pivots)
    n = omega.dim_w + omega.dim_u
    # rank n - 1 leaves a one-dimensional kernel, and the line direction lies in it
    assert bvm.rank() == n - 1
    w_full = list(w) + [Q(0)] * omega.dim_u
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
            w = chart.evaluate(param)
            pivots = fam.primary_pivots(omega, x, w)
            result = fam.check_slide_identity(chart, omega, param, x, delta, t, pivots)
            assert result.ok and result.tangent_span_ok


def test_slide_identity_in_second_chart(twisted_cubic):
    chart, omega, _ = twisted_cubic
    sampler = RationalSampler(31)
    checked = 0
    while checked < 5:
        param = sampler.vector(1)
        x = element(omega, sampler.vector(4), sampler.vector(1))
        w = chart.evaluate(param)
        pivots = fam.primary_pivots(omega, x, w)
        alt = fam.next_pivots(omega, x, w, pivots)
        if alt is None:
            continue
        result = fam.check_slide_identity(
            chart, omega, param, x, (Q(1),), sampler.nonzero_rational(), alt
        )
        assert result.ok and result.tangent_span_ok
        checked += 1


def test_symbolic_variation_matches_jets(veronese33):
    chart, omega, _ = veronese33
    sampler = RationalSampler(37)
    for _ in range(3):
        param = sampler.vector(2)
        x = element(omega, sampler.vector(10), sampler.vector(10))
        delta = sampler.nonzero_vector(2)
        t = sampler.rational()
        w = chart.evaluate(param)
        pivots = fam.primary_pivots(omega, x, w)
        jet = fam.direction_variation(chart, omega, param, x, delta, t, pivots)
        symbolic = fam.direction_variation_symbolic(chart, omega, param, x, delta, t, pivots)
        assert jet == symbolic


def test_pencil_frames_flat_conic(flat_conic):
    chart, omega, _ = flat_conic
    x = element(omega, (0, 0, 1))
    param = (Q(1),)
    pivots = fam.primary_pivots(omega, x, chart.evaluate(param))
    frame0, frame_inf = fam.pencil_frames(chart, omega, param, x, pivots)
    assert frame0.ncols == frame_inf.ncols == 1
    # frozen: j_inf column equals the slide shift at t = 1
    assert [row[0] for row in frame_inf.entries] == [1, -2, -1, 2]
    assert frame0.hstack(frame_inf).rank() == 2
    assert fam.check_splitting_type(frame0, frame_inf)


def test_pencil_and_splitting_on_samples(twisted_cubic, veronese33):
    for chart, omega, _ in (twisted_cubic, veronese33):
        sampler = RationalSampler(41)
        d = chart.param_dim
        for _ in range(3):
            param = sampler.vector(d)
            x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
            pivots = fam.primary_pivots(omega, x, chart.evaluate(param))
            frame0, frame_inf = fam.pencil_frames(chart, omega, param, x, pivots)
            assert frame0.hstack(frame_inf).rank() == 2 * d
            assert fam.check_splitting_type(frame0, frame_inf)


def test_family_dimension(fixture_cache):
    expected = {
        "veronese-2-3": 5,
        "veronese-2-4": 8,
        "flat-conic": 3,
        "flat-linear": 4,
    }
    for name, value in expected.items():
        chart, omega, _ = fixture_cache(name)
        assert fam.family_dimension(chart, omega, RationalSampler(43)) == value


def test_family_dimension_veronese33(veronese33):
    chart, omega, _ = veronese33
    assert fam.family_dimension(chart, omega, RationalSampler(43), points=4) == 21


def _coordinate_jacobian_rank(chart, omega, param, base_w, base_u):
    """Rank of the family Jacobian with the parameter and the base point's
    coordinates perturbed directly, as width-(d+n) jets: an oracle for
    family_dimension, which moves the base through the group instead."""
    d = chart.param_dim
    width = d + omega.dim_w + omega.dim_u
    p_jets = [Jet1.variable(param[a], width, a) for a in range(d)]
    x_jets = GroupElement(
        tuple(Jet1.variable(c, width, d + i) for i, c in enumerate(base_w)),
        tuple(Jet1.variable(c, width, d + omega.dim_w + i) for i, c in enumerate(base_u)),
    )
    w_jets = chart.evaluate_generic(p_jets, zero=Jet1.const(0, width))
    rows = line_matrix_rows(omega, x_jets, w_jets)
    _, pivots = Mat([[getattr(e, "val", e) for e in row] for row in rows]).rref()
    block = fam.chart_block(rows, pivots)
    return Mat([[e.eps[k] for k in range(width)] for row in block for e in row]).rank()


class _Replay:
    """A sampler that hands out the given vectors in order."""

    def __init__(self, *vectors):
        self.vectors = list(vectors)

    def vector(self, length):
        vec = self.vectors.pop(0)
        assert len(vec) == length
        return vec


# The isotropic builtins but veronese3-of-conic, whose width-45 jets are slow.
@pytest.mark.parametrize(
    "name", ["veronese-2-3", "veronese-2-4", "veronese-3-3", "flat-conic", "flat-linear"]
)
def test_family_dimension_rank_matches_coordinate_jacobian(fixture_cache, name):
    chart, omega, _ = fixture_cache(name)
    sampler = RationalSampler(61)
    for _ in range(3):
        draws = [sampler.vector(k) for k in (chart.param_dim, omega.dim_w, omega.dim_u)]
        rank = fam.family_dimension(chart, omega, _Replay(*draws), points=1)
        assert rank == _coordinate_jacobian_rank(chart, omega, *draws) > 0


def test_splitting_rejects_rank_drop():
    frame0 = Mat([[1], [0], [0], [0]])
    collinear = Mat([[2], [0], [0], [0]])
    assert not fam.check_splitting_type(frame0, collinear)
