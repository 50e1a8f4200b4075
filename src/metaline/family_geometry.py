"""Differential geometry of the line family, in local Grassmann charts.

A horizontal line in an isotropic chart direction embeds into the
Grassmannian of 2-planes; around any such plane a chart is given by a
pair of pivot columns, normalizing the spanning rows against them and
reading the remaining 2 x (n-1) block as coordinates.  With P the pivot
minor and N the other columns, the block B = P^-1 N moves by
dB = P^-1 (dN - dP B) when the rows move by (dP | dN) (Magnus &
Neudecker, Matrix Differential Calculus, ch. 8); both variations below
are that closed form.  Everything here differentiates the picture exactly:

* direction_variation: derivative of the family map when the chart
  parameter moves and the base point is slid along the line;
* basepoint_variation: derivative when the base point moves through the
  group, one column per algebra direction (kernel: the line direction);
* check_slide_identity: sliding the base by t shifts the direction
  derivative by -t times the chart tangent, modulo the line direction;
* pencil_frames / check_splitting_type: the one-parameter pencil of
  derivative frames is exactly linear in the slide parameter, and the
  combined frame has full rank with the limit frame nowhere dropping;
* family_dimension: rank of the full parametrization Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, solve_in_span
from .lines import line_matrix_rows, translate
from .metabelian import GroupElement, OmegaForm, element
from .polynomials import Poly
from .scalars import HALF, ONE, Q, ZERO
from .varieties import VarietyChart, in_tangent_span

PENCIL_SLIDES = (Q(1), Q(2), Q(-1), Q(1, 2), Q(7))
SPLITTING_SAMPLES = (ZERO, Q(1), Q(-1), Q(2), Q(1, 3), Q(5))


class ChartMiss(Exception):
    """The chosen pivot columns are singular at this plane."""


class RankDeficient(Exception):
    """A frame expected to have full rank dropped rank."""


def _pivot_pairs(rows):
    """Column pairs, in lex order, where the plane's two rows have a
    nonzero 2 x 2 minor.  The first is the echelon pivot pair: the first
    nonzero column and the first column not parallel to it."""
    top, bottom = rows
    ncols = len(top)
    for i in range(ncols):
        for j in range(i + 1, ncols):
            if top[i] * bottom[j] != top[j] * bottom[i]:
                yield (i, j)


def primary_pivots(omega: OmegaForm, x: GroupElement, w):
    """Leftmost valid pivot pair: the echelon pivots of the line's plane."""
    pivots = next(_pivot_pairs(line_matrix_rows(omega, x, w)), None)
    if pivots is None:
        raise ChartMiss("line span is degenerate")
    return pivots


def next_pivots(omega: OmegaForm, x: GroupElement, w, exclude):
    """Next pivot pair (lex order) with invertible minor, or None."""
    exclude = tuple(exclude)
    pairs = _pivot_pairs(line_matrix_rows(omega, x, w))
    return next((pair for pair in pairs if pair != exclude), None)


def chart_block(rows, pivots):
    """Inverse pivot minor P^-1 and non-pivot block B = P^-1 N of the
    plane normalized at the pivot columns; raises ChartMiss when P is
    singular."""
    c1, c2 = pivots
    a, b = rows[0][c1], rows[0][c2]
    c, d = rows[1][c1], rows[1][c2]
    det = a * d - b * c
    if det == 0:
        raise ChartMiss(f"pivot columns {pivots} are singular here")
    inv = ((d / det, -b / det), (-c / det, a / det))
    block = [
        [i0 * p + i1 * q for col, (p, q) in enumerate(zip(*rows)) if col != c1 and col != c2]
        for i0, i1 in inv
    ]
    return inv, block


def _block_variation(inv, block, drows, pivots):
    """P^-1 (dN - dP B): the derivative of the chart block B = P^-1 N as
    the plane's rows move by drows.  Zero operands are skipped; the
    values are the same either way."""
    c1, c2 = pivots
    moved = []
    for drow in drows:
        rest = [v for col, v in enumerate(drow) if col != c1 and col != c2]
        for dp, b_row in ((drow[c1], block[0]), (drow[c2], block[1])):
            if dp:
                rest = [v - dp * b if b else v for v, b in zip(rest, b_row)]
        moved.append(rest)
    out = []
    for i0, i1 in inv:
        row = []
        for m0, m1 in zip(*moved):
            if m0:
                row.append(i0 * m0 + i1 * m1 if m1 else i0 * m0)
            else:
                row.append(i1 * m1 if m1 else ZERO)
        out.append(row)
    return out


def direction_variation(chart: VarietyChart, omega: OmegaForm, param, x, delta, t, pivots) -> Mat:
    """Derivative of the chart coordinates of the line's plane as the
    parameter moves along delta, the base slid by t along the line.  Only
    the direction row moves, by that of the chart tangent."""
    w = chart.evaluate(param)
    xt = translate(omega, x, w, t)
    rows = line_matrix_rows(omega, xt, w)
    inv, block = chart_block(rows, pivots)
    tangent = chart.tangent_vector(param, delta)
    drows = [[ZERO] * len(rows[0]), line_matrix_rows(omega, xt, tangent)[1]]
    return Mat(_block_variation(inv, block, drows, pivots))


def direction_variation_symbolic(
    chart: VarietyChart, omega: OmegaForm, param, x, delta, t, pivots
) -> Mat:
    """Independent recomputation of direction_variation by polynomial
    calculus: the chart coordinates are rational functions of the arc
    parameter, differentiated by the quotient rule at zero."""
    xt = translate(omega, x, chart.evaluate(param), t)
    subs = [
        Poly.const(pv, 1) + Q(dv) * Poly.var(0, 1) for pv, dv in zip(param, delta)
    ]
    w_tau = [coord.compose(subs) for coord in chart.coords]
    row_point = [Poly.const(c, 1) for c in xt.w_part + xt.u_part] + [Poly.const(1, 1)]
    half_corr = omega.apply([Poly.const(c, 1) for c in xt.w_part], w_tau)
    row_dir = list(w_tau) + [Q(1, 2) * c for c in half_corr] + [Poly.zero(1)]
    rows = [row_point, row_dir]

    c1, c2 = pivots
    p00, p01 = rows[0][c1], rows[0][c2]
    p10, p11 = rows[1][c1], rows[1][c2]
    det = p00 * p11 - p01 * p10
    det0 = det.evaluate((ZERO,))
    if det0 == 0:
        raise ChartMiss(f"pivot columns {pivots} are singular here")
    det_prime0 = det.diff(0).evaluate((ZERO,))
    adj = ((p11, -p01), (-p10, p00))
    out = []
    for r in range(2):
        row = []
        for col in range(len(rows[0])):
            if col == c1 or col == c2:
                continue
            numerator = adj[r][0] * rows[0][col] + adj[r][1] * rows[1][col]
            n0 = numerator.evaluate((ZERO,))
            n_prime0 = numerator.diff(0).evaluate((ZERO,))
            row.append((n_prime0 * det0 - n0 * det_prime0) / (det0 * det0))
        out.append(row)
    return Mat(out)


def basepoint_variation(omega: OmegaForm, x: GroupElement, w, pivots) -> Mat:
    """Derivative of the plane as the base moves to x * exp(a): one
    column per algebra basis direction a, rows the flattened chart
    block.  The point row moves by (a_w, a_u + (1/2) form(x_w, a_w), 0)
    and the direction row by (0, (1/2) form(a_w, w), 0), so a
    U-direction moves one entry of the point row.  The kernel is the
    span of the line direction.  Both form blocks come from one pass
    over the form each: form(x_w, e_k) = columns(x_w)[k] and
    form(e_k, w) = -columns(w)[k]."""
    rows = line_matrix_rows(omega, x, w)
    inv, block = chart_block(rows, pivots)
    dim_w, width = omega.dim_w, len(rows[0])
    at_x = omega.columns(x.w_part)
    at_w = omega.columns(w)
    cols = []
    for k in range(dim_w + omega.dim_u):
        d_point = [ZERO] * width
        d_dir = [ZERO] * width
        d_point[k] = ONE
        if k < dim_w:
            d_point[dim_w:-1] = [HALF * c if c else ZERO for c in at_x[k]]
            d_dir[dim_w:-1] = [-(HALF * c) if c else ZERO for c in at_w[k]]
        moved = _block_variation(inv, block, [d_point, d_dir], pivots)
        cols.append(moved[0] + moved[1])
    return Mat.from_cols(cols)


def _flatten(mat: Mat):
    return [entry for row in mat.entries for entry in row]


def _direction_in_algebra(omega: OmegaForm, w):
    return list(w) + [ZERO] * omega.dim_u


@dataclass(frozen=True)
class SlideCheckResult:
    ok: bool
    tangent_span_ok: bool
    coefficients: tuple
    residual: tuple


def check_slide_identity(
    chart: VarietyChart, omega: OmegaForm, param, x, delta, t, pivots
) -> SlideCheckResult:
    """Verify: (variation slid by t) - (variation at 0), pulled back
    through the basepoint variation, equals -t times the chart tangent
    modulo the line direction.  Exact, zero tolerance.  The pulled-back
    coefficients must also have no U-part and a W-part in the tangent
    frame's span (tangent_span_ok)."""
    w = chart.evaluate(param)
    j_t = direction_variation(chart, omega, param, x, delta, t, pivots)
    j_0 = direction_variation(chart, omega, param, x, delta, 0, pivots)
    shift = [a - b for a, b in zip(_flatten(j_t), _flatten(j_0))]
    bvm = basepoint_variation(omega, x, w, pivots)
    coeffs = solve_in_span(bvm, shift)

    tangent = chart.tangent_vector(param, delta)
    target = _direction_in_algebra(omega, tangent)
    residual = [c + Q(t) * v for c, v in zip(coeffs, target)]
    w_full = _direction_in_algebra(omega, w)
    lead = next(k for k, c in enumerate(w_full) if c != 0)
    scale = residual[lead] / w_full[lead]
    residual = tuple(r - scale * c for r, c in zip(residual, w_full))
    ok = all(r == 0 for r in residual)

    # When ok, coeffs = -t (tangent, 0) + scale (w, 0) lies in the frame span
    # by construction, so the frame is rebuilt only to explain a failure.
    tangent_span_ok = ok or (
        all(c == 0 for c in coeffs[omega.dim_w :])
        and in_tangent_span(chart, param, coeffs[: omega.dim_w])
    )
    return SlideCheckResult(ok, tangent_span_ok, tuple(coeffs), residual)


def _unit(d, a):
    return tuple(ONE if i == a else ZERO for i in range(d))


def pencil_frames(chart: VarietyChart, omega: OmegaForm, param, x, pivots):
    """Frames spanning the pencil of direction-derivative planes.

    Returns (frame at slide zero, limit frame).  Asserts the pencil is
    exactly linear in the slide parameter at several slides, and that
    the two frames together have rank 2d.  Raises RankDeficient when
    the combined rank drops.
    """
    d = chart.param_dim
    w = chart.evaluate(param)
    bvm = basepoint_variation(omega, x, w, pivots)
    f0_cols = []
    finf_cols = []
    for a, tangent in enumerate(chart.partial_rows(param)):
        f0_cols.append(_flatten(direction_variation(chart, omega, param, x, _unit(d, a), 0, pivots)))
        image = bvm.times_vector(_direction_in_algebra(omega, tangent))
        finf_cols.append([-v for v in image])
    frame0 = Mat.from_cols(f0_cols)
    frame_inf = Mat.from_cols(finf_cols)

    for t in PENCIL_SLIDES:
        for a in range(d):
            slid = _flatten(direction_variation(chart, omega, param, x, _unit(d, a), t, pivots))
            expected = [u + t * v for u, v in zip(f0_cols[a], finf_cols[a])]
            if slid != expected:
                raise AssertionError(f"pencil not linear at slide {t}")

    if frame0.hstack(frame_inf).rank() != 2 * d:
        raise RankDeficient("combined pencil frames drop rank")
    return frame0, frame_inf


def check_splitting_type(frame0: Mat, frame_inf: Mat) -> bool:
    """Witness that every pencil member, including the limit, spans a
    d-plane: s * frame0 + frame_inf keeps rank d at s = 0 and beyond,
    while the combined frame has rank 2d."""
    d = frame0.ncols
    if frame0.hstack(frame_inf).rank() != 2 * d:
        return False
    for s in SPLITTING_SAMPLES:
        mixed = Mat(
            [
                [s * a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(frame0.entries, frame_inf.entries)
            ]
        )
        if mixed.rank() != d:
            return False
    return True


def family_dimension(chart: VarietyChart, omega: OmegaForm, sampler, points: int = 10) -> int:
    """Max rank over sample points of the Jacobian of
    (parameter, base point) -> chart coordinates of the line's plane: the
    direction variations along the parameter axes beside the basepoint
    variation (moving the base by x * exp(a) keeps the rank).

    No point exceeds rank n - 1 + d (n = dim_w + dim_u): the basepoint
    variation along the line direction is zero.  So the scan stops at the
    first point that reaches it; a chart that never does runs all points.
    """
    d = chart.param_dim
    bound = omega.dim_w + omega.dim_u - 1 + d
    best = 0
    for _ in range(points):
        param = sampler.vector(d)
        w = chart.evaluate(param)
        if all(c == 0 for c in w):
            continue
        x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
        try:
            pivots = primary_pivots(omega, x, w)
            cols = [
                _flatten(direction_variation(chart, omega, param, x, _unit(d, a), 0, pivots))
                for a in range(d)
            ]
            jacobian = Mat.from_cols(cols).hstack(basepoint_variation(omega, x, w, pivots))
        except ChartMiss:
            continue
        best = max(best, jacobian.rank())
        if best == bound:
            break
    return best
