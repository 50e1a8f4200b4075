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
  combined frame has rank 2d, so no member, the limit included, drops;
* family_dimension: rank of the full parametrization Jacobian at one
  point.

These closed forms read the chart only through its frame at the sample's
parameter, as VarietyChart.frame_integers gives it: the value row (the
line direction w), then the d partial rows, each (integers, scale).  They
read the line through its plane at the sample's base point and pivot
columns (_Plane), which line_planes builds once per sample, and build
another plane only at a slid base point.  Only the symbolic oracle
(direction_variation_symbolic) takes the chart, and of the plane only its
pivot pair.

Multiplied by P, a U direction off the pivot columns moves one entry of
the block's first row and nothing else.  So the slide solve
(solve_basepoint_variation) and the Jacobian rank (family_dimension)
eliminate each U unknown through its own row, a Schur complement
(F. Zhang (ed.), The Schur Complement and Its Applications, Springer
2005), at every pivot pair and dim_u; the full basepoint_variation is
solved only to give an out-of-span shift its residual.

All of it runs fraction-free (after Bareiss, Math. Comp. 22, 1968), on
integer rows with one positive scale each (_plane).  Scale row r of the
plane to integers, R_r = l_r r_r; then P' = diag(l) P and
N' = diag(l) N, so B = P^-1 N = P'^-1 N' and

    det B = adj(P') N'          (chart_block, det = det P' > 0, adj
                                 negated with det when det P' < 0).

A row move D_r / m_r (integer row D_r, scale m_r) gives P dB = dN - dP B
row by row as (det DN_r - DP_r adj(P') N') / (m_r det): an integer row
over one scale (_moved_rows).  P^-1 = adj(P') diag(l) / det then gives dB
(_times_inverse).  Each column of P dB is brought to lowest terms, and
each row of the slide system is cleared to integers by the lcm of its
block row's scales, which leaves the solution alone.  A Q is built only
for what leaves the module: matrices, coefficients and residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import lcm

from .jets import Jet1
from .linalg import Mat, NotInSpan, integer_rref, solve_in_span
from .lines import direction_row, line_matrix_rows, translate
from .metabelian import GroupElement, OmegaForm
from .scalars import HALF, ONE, Q, ZERO, as_integers, from_integers, lowest_terms
from .varieties import VarietyChart, in_tangent_span

PENCIL_SLIDES = (Q(1), Q(2), Q(-1), Q(1, 2), Q(7))


class ChartMiss(Exception):
    """The chosen pivot columns are singular at this plane."""


def chart_block(rows, pivots):
    """The plane's chart at the pivot columns, from its two rows scaled to
    integers: (adj, det, block) with det > 0, adj the adjugate of the
    integer pivot minor P' (negated with det when det P' < 0) and
    block = adj N' = det B.  Raises ChartMiss when P' is singular."""
    top, bottom = rows
    c1, c2 = pivots
    a, b, c, d = top[c1], top[c2], bottom[c1], bottom[c2]
    det = a * d - b * c
    if det == 0:
        raise ChartMiss(f"pivot columns {pivots} are singular here")
    adj = ((d, -b), (-c, a)) if det > 0 else ((-d, b), (c, -a))
    rest = [pq for col, pq in enumerate(zip(top, bottom)) if col != c1 and col != c2]
    block = tuple([i0 * p + i1 * q for p, q in rest] for i0, i1 in adj)
    return adj, abs(det), block


@dataclass(frozen=True)
class _Plane:
    """The line's plane through the base point x in integers: row r is
    rows[r] / scales[r], and (adj, det, block) is its chart_block at the
    pivots."""

    x: GroupElement
    rows: tuple
    scales: tuple
    pivots: tuple
    adj: tuple
    det: int
    block: tuple


def _plane(x: GroupElement, line_rows, pivots):
    """The _Plane of the line's rows through x, as line_matrix_rows gives
    them, at the pivots."""
    (point, l0), (direction, l1) = line_rows
    rows = (point, direction)
    return _Plane(x, rows, (l0, l1), pivots, *chart_block(rows, pivots))


def line_planes(omega: OmegaForm, x: GroupElement, w, skip=0):
    """The line's plane through x in direction w at each column pair, in
    lex order, where its rows have a nonzero 2 x 2 minor, but the first
    `skip` such pairs, unbuilt.  The first pair is the echelon pivots: the
    first nonzero column and the first column not parallel to it.  The
    point row ends in its positive scale and the direction row in 0, so
    there is one unless w is zero, when ChartMiss is raised instead."""
    line_rows = line_matrix_rows(omega, x, w)
    (top, _), (bottom, _) = line_rows
    if not any(bottom):
        raise ChartMiss("line span is degenerate")
    pairs = combinations(range(len(top)), 2)
    valid = ((i, j) for i, j in pairs if top[i] * bottom[j] != top[j] * bottom[i])
    for pivots in islice(valid, skip, None):
        yield _plane(x, line_rows, pivots)


def _slid(omega: OmegaForm, plane: _Plane, w, t):
    """The plane at the same pivots through plane.x slid by t along w.
    Raises ChartMiss when the pivots are singular there."""
    xt = translate(omega, plane.x, w, t)
    return _plane(xt, line_matrix_rows(omega, xt, w), plane.pivots)


def _moved_rows(plane: _Plane, drows):
    """P dB = dN - dP B, block row by block row, as the plane's rows move
    by drows, each an integer row with its scale: the integer row
    det dN - dP block over (its scale) * det."""
    c1, c2 = plane.pivots
    det, block = plane.det, plane.block
    moved = []
    for ints, scale in drows:
        rest = [det * v for col, v in enumerate(ints) if col != c1 and col != c2]
        for dp, b_row in ((ints[c1], block[0]), (ints[c2], block[1])):
            if dp:
                rest = [v - dp * b for v, b in zip(rest, b_row)]
        moved.append((rest, scale * det))
    return moved


def _times_inverse(plane: _Plane, moved):
    """dB = P^-1 (P dB) for two _moved_rows block rows, as (rows, scale):
    P^-1 = adj diag(l_0, l_1) / det for the row scales l_r, so over
    L = lcm(s_0, s_1) of the moved scales s_r, row i of dB is
    sum over r of adj[i][r] l_r (L / s_r) M_r, divided by L det."""
    (m0, s0), (m1, s1) = moved
    lcm_s = lcm(s0, s1)
    f0, f1 = plane.scales[0] * (lcm_s // s0), plane.scales[1] * (lcm_s // s1)
    rows = [[i0 * f0 * a + i1 * f1 * b for a, b in zip(m0, m1)] for i0, i1 in plane.adj]
    return rows, lcm_s * plane.det


def _block_variation(plane: _Plane, drows):
    """P^-1 (dN - dP B): the derivative of the chart block B = P^-1 N as
    the plane's rows move by drows (integer rows with scales), as integer
    rows over one scale."""
    return _times_inverse(plane, _moved_rows(plane, drows))


def _tangent_rows(omega: OmegaForm, plane: _Plane, tangent):
    """The plane's row moves of the direction variation: the direction row
    moves by that of the chart tangent, given as (integers, scale)."""
    point, l0 = plane.rows[0], plane.scales[0]
    return [([0] * len(point), 1), direction_row(omega, point, l0, *tangent)]


def _tangent_variation(omega: OmegaForm, plane: _Plane, tangent):
    """Block rows of the direction variation, integer rows over one scale."""
    return _block_variation(plane, _tangent_rows(omega, plane, tangent))


def _tangent(frame, delta):
    """Differential of the chart at the frame's point applied to delta, as
    (ints, scale): the sum of delta_a times the frame's partial row a over
    the lcm of their scales."""
    terms = [(x.numerator, x.denominator * s, ints) for x, (ints, s) in zip(delta, frame[1:]) if x]
    scale = lcm(*(den for _, den, _ in terms))
    out = [0] * len(frame[0][0])
    for num, den, ints in terms:
        f = num * (scale // den)
        out = [a + f * v for a, v in zip(out, ints)]
    return out, scale


def direction_variation(omega: OmegaForm, frame, plane: _Plane, delta, t) -> Mat:
    """Derivative of the chart coordinates of the line's plane as the
    parameter moves along delta, the base slid by t along the line."""
    slid = _slid(omega, plane, frame[0], t)
    rows, scale = _tangent_variation(omega, slid, _tangent(frame, delta))
    return Mat([from_integers(row, scale) for row in rows])


def direction_variation_symbolic(
    chart: VarietyChart, omega: OmegaForm, param, x, delta, t, pivots
) -> Mat:
    """Independent recomputation of direction_variation by forward-mode
    differentiation: the chart coordinates are evaluated on first-order
    jets p + delta tau, the plane's two rows are built on those, and each
    block entry (adj(P) rows) / det P is read off by the jet quotient rule.
    The form is bilinear, so form(x_w, v + tau s) = form(x_w, v) +
    tau form(x_w, s): two rational contractions.  No closed form
    (chart_block, line_matrix_rows, the chart partials) is used."""
    xt = translate(omega, x, as_integers(chart.evaluate(param)), t)
    param, delta = ([c if type(c) is Q else Q(c) for c in v] for v in (param, delta))
    jets = [Jet1(p, (d,)) for p, d in zip(param, delta)]
    w_tau = [poly.evaluate(jets, zero=Jet1.const(ZERO, 1)) for poly in chart.coords]
    values = omega.apply(xt.w_part, [c.val for c in w_tau])
    slopes = omega.apply(xt.w_part, [c.eps[0] for c in w_tau])
    rows = [
        [*xt.w_part, *xt.u_part, ONE],
        [*w_tau, *(Jet1(HALF * a, (HALF * b,)) for a, b in zip(values, slopes)), ZERO],
    ]
    rows = [[c if isinstance(c, Jet1) else Jet1.const(c, 1) for c in row] for row in rows]

    c1, c2 = pivots
    (p00, p01), (p10, p11) = (rows[0][c1], rows[0][c2]), (rows[1][c1], rows[1][c2])
    det = p00 * p11 - p01 * p10
    if det.val == 0:
        raise ChartMiss(f"pivot columns {pivots} are singular here")
    adj = ((p11, -p01), (-p10, p00))
    rest = [pq for col, pq in enumerate(zip(*rows)) if col != c1 and col != c2]
    return Mat([[((a0 * p + a1 * q) / det).eps[0] for p, q in rest] for a0, a1 in adj])


def _w_variation(omega: OmegaForm, plane: _Plane):
    """For each W direction e_k, P dB of the basepoint variation
    (_moved_rows): the point row moves by (e_k, (1/2) form(x_w, e_k), 0)
    and the direction row by (0, (1/2) form(e_k, w), 0).  Both form blocks
    come from one pass over the form each, form(x_w, e_k) = columns(x_w)[k]
    and form(e_k, w) = -columns(w)[k], so every e_k shares the row scales
    2 l_r den of the plane's row scales l_r and the form's denominator."""
    (point, direction), (l0, l1) = plane.rows, plane.scales
    dim_w = omega.dim_w
    at_x, den = omega.columns(point[:dim_w])
    at_w, _ = omega.columns(direction[:dim_w])
    m0, m1 = 2 * l0 * den, 2 * l1 * den
    w_zero = [0] * dim_w
    moves = []
    for k in range(dim_w):
        unit = w_zero[:]
        unit[k] = m0
        drows = [([*unit, *at_x[k], 0], m0), ([*w_zero, *(-c for c in at_w[k]), 0], m1)]
        moves.append(_moved_rows(plane, drows))
    return moves


def basepoint_variation(omega: OmegaForm, plane: _Plane) -> Mat:
    """Derivative of the plane as its base x moves to x * exp(a): one
    column per algebra basis direction a, rows the flattened chart
    block.  A W-direction moves both rows (_w_variation); a U-direction
    moves one entry of the point row.  The kernel is the span of the
    line direction."""
    cols = [_times_inverse(plane, moved) for moved in _w_variation(omega, plane)]
    width = len(plane.rows[0])
    for k in range(omega.dim_w, width - 1):
        d_point = [0] * width
        d_point[k] = 1
        cols.append(_block_variation(plane, [(d_point, 1), ([0] * width, 1)]))
    return Mat.from_cols([v for row in rows for v in from_integers(row, s)] for rows, s in cols)


def _times_minor(plane: _Plane, flat):
    """P times a flattened 2 x (n-1) chart-block variation given as
    (integers S, scale s), P the pivot minor of the plane's rows, as two
    integer block rows with their scales: with P = diag(1/l_0, 1/l_1) P',
    block row r is (P'[r][0] S_0 + P'[r][1] S_1) / (l_r s)."""
    c1, c2 = plane.pivots
    ints, scale = flat
    half = len(ints) // 2
    top, bottom = ints[:half], ints[half:]
    return [
        ([row[c1] * u + row[c2] * v for u, v in zip(top, bottom)], l_r * scale)
        for row, l_r in zip(plane.rows, plane.scales)
    ]


def _schur_system(omega: OmegaForm, plane: _Plane, cols):
    """Eliminate the U unknowns off the pivot columns from a system of
    columns, each two block rows of P dB as integer rows with scales:
    cols, then one column per U direction at a pivot column.  Returns the
    rows left over all those columns (each column in lowest terms, each
    row cleared by the lcm of its block row's scales), the U pivot
    columns, and the positions in block row 0 of the eliminated U unknowns.

    A U direction off the pivot columns moves one entry of the point row
    and not P, so its column of P dB is the unit vector at its own
    position p in block row 0, where p counts the non-pivot columns
    before it.  Eliminating it through that row (a Schur complement)
    leaves the other rows over the other columns.  A U direction at pivot
    column j moves P by a unit column, so its column is (-B_j, 0)."""
    pivots = plane.pivots
    u_cols = range(omega.dim_w, omega.dim_w + omega.dim_u)
    kept = [c for c in pivots if c in u_cols]
    half = len(plane.block[0])
    cols = cols + [
        (([-b for b in plane.block[pivots.index(c)]], plane.det), ([0] * half, 1)) for c in kept
    ]
    first = omega.dim_w - sum(c < omega.dim_w for c in pivots)
    u_pos = range(first, first + omega.dim_u - len(kept))
    rows = []
    for r in (0, 1):
        block_row = [lowest_terms(*col[r]) for col in cols]
        common = lcm(*(scale for _, scale in block_row))
        scaled = [[a * (common // scale) for a in ints] for ints, scale in block_row]
        rows += [[col[p] for col in scaled] for p in range(half) if r or p not in u_pos]
    return rows, kept, u_pos


def solve_basepoint_variation(omega: OmegaForm, plane: _Plane, shift):
    """solve_in_span(basepoint_variation(omega, plane), S / s) for the
    shift given as (integers S, scale s > 0), through a Schur complement
    over the U unknowns.

    The shift is multiplied by the pivot minor P, and the W columns are
    built in the same un-inverted form (_w_variation), all as integer rows
    with one scale per block row.  Every U unknown off the pivot columns
    enters only its own row of block row 0 (_schur_system), so
    solve_in_span takes only the other rows, in integers, over the W
    unknowns and any U unknown at a pivot column, and reduces only 11 of
    those 52 rows on veronese3-of-conic.  Each eliminated U
    unknown is back-substituted: c_u = (P shift)[0][p] - (P dB along the
    reduced solution)[0][p], whose point row moves by (c_w,
    (1/2) form(x_w, c_w), 0) with the kept U values added: one form
    contraction, since block row 0 of P dB reads the point row alone.
    With none eliminated (dim_u 0, or every U column a pivot) the reduced
    solution is the solution.

    For w nonzero the kernel of the full variation is exactly the line
    direction (w, 0), so the reduced solution with its free coordinate
    zero is the full solve's canonical solution.  When the shift is out
    of span the full variation is solved instead, on the rational shift,
    so that NotInSpan carries the full system's residual.
    """
    target = _times_minor(plane, shift)
    reduced, kept, u_pos = _schur_system(omega, plane, [target] + _w_variation(omega, plane))
    try:
        coeffs = solve_in_span(Mat([row[1:] for row in reduced]), [row[0] for row in reduced])
    except NotInSpan:
        full = basepoint_variation(omega, plane)
        return solve_in_span(full, from_integers(*shift))
    if not u_pos:  # every U unknown is kept, in column order
        return coeffs
    dim_w = omega.dim_w
    ints, scale = as_integers(coeffs)
    point, l0 = plane.rows[0], plane.scales[0]
    d_point, m0 = direction_row(omega, point, l0, ints[:dim_w], scale)
    for c, value in zip(kept, ints[dim_w:]):
        d_point[c] += value * (m0 // scale)
    [(moved, s0)] = _moved_rows(plane, [(d_point, m0)])
    t0, ts0 = target[0]
    c_u = [Q(t0[p] * s0 - moved[p] * ts0, ts0 * s0) for p in u_pos]
    for c, value in zip(kept, coeffs[dim_w:]):
        c_u.insert(c - dim_w, value)
    return coeffs[:dim_w] + tuple(c_u)


@dataclass(frozen=True)
class SlideCheckResult:
    ok: bool
    tangent_span_ok: bool
    residual: tuple


def check_slide_identity(omega: OmegaForm, frame, plane: _Plane, delta, t) -> SlideCheckResult:
    """Verify: (variation slid by t) - (variation at 0), pulled back
    through the basepoint variation, equals -t times the chart tangent
    modulo the line direction.  Exact, zero tolerance.  The pulled-back
    coefficients must also have no U-part and a W-part in the tangent
    frame's span (tangent_span_ok).

    The pull-back is solve_basepoint_variation: the U unknowns off the
    pivot columns are eliminated through their own rows and only the
    others are solved.  Its coefficients, and the residual of NotInSpan
    when the shift is out of span, are those of the full solve.  The
    variation at 0 and the pull-back share the given plane, at slide zero."""
    tangent = _tangent(frame, delta)
    slid = _slid(omega, plane, frame[0], t)
    j_t, e_t = _tangent_variation(omega, slid, tangent)
    j_0, e_0 = _tangent_variation(omega, plane, tangent)
    shift = [a * e_0 - b * e_t for row_t, row_0 in zip(j_t, j_0) for a, b in zip(row_t, row_0)]
    coeffs = solve_basepoint_variation(omega, plane, lowest_terms(shift, e_t * e_0))
    residual = _slide_residual(omega, coeffs, tangent, t, plane.rows[1][: omega.dim_w])
    ok = not any(residual)

    # When ok, coeffs = -t (tangent, 0) + scale (w, 0) lies in the frame span
    # by construction, so the frame is reduced only to explain a failure.
    tangent_span_ok = ok or (
        all(c == 0 for c in coeffs[omega.dim_w :])
        and in_tangent_span(
            integer_rref([ints for ints, _ in frame], omega.dim_w), coeffs[: omega.dim_w]
        )
    )
    return SlideCheckResult(ok, tangent_span_ok, residual)


def _slide_residual(omega: OmegaForm, coeffs, tangent, t, iw):
    """coeffs + t (tangent, 0) minus the multiple of (w, 0) that clears
    its entry at the leading coordinate of w, for the tangent given as
    (integers, scale) and w a positive multiple of iw.  Over the common
    denominator D the sum is r / D, and the result is
    (r iw_lead - r_lead (iw, 0)) / (D iw_lead)."""
    ints, scale = as_integers(coeffs)
    it, dt = tangent
    tn, td = t.numerator, t.denominator
    r = [c * dt * td for c in ints]
    for k, c in enumerate(it):
        r[k] += tn * c * scale
    lead = next(k for k, c in enumerate(iw) if c)
    a, b = iw[lead], r[lead]
    if a < 0:
        a, b = -a, -b
    iw = [*iw, *(0 for _ in range(omega.dim_u))]
    return tuple(from_integers([c * a - b * v for c, v in zip(r, iw)], scale * dt * td * a))


def pencil_frames(omega: OmegaForm, frame, plane: _Plane):
    """Frames spanning the pencil of direction-derivative planes at the
    given plane.

    Returns (frame at slide zero, limit frame), each d columns given as
    (integers, scale).  Asserts the pencil is exactly linear in the slide
    parameter at several slides.
    """
    w, *tangents = frame
    (point, direction), (l0, l1) = plane.rows, plane.scales
    f0, f_inf = [], []
    for it, dt in tangents:
        rows, scale = _tangent_variation(omega, plane, (it, dt))
        f0.append((sum(rows, []), scale))
        # the limit frame is minus the basepoint variation along (tangent, 0):
        # the point row moves by the tangent's direction row, the direction
        # row by (0, (1/2) form(tangent, w), 0)
        d_point = direction_row(omega, point, l0, it, dt)
        form, den = omega.apply_integers(it, direction[: omega.dim_w])
        d_dir = ([*(0 for _ in it), *form, 0], 2 * dt * l1 * den)
        rows, scale = _block_variation(plane, [d_point, d_dir])
        f_inf.append(([-v for row in rows for v in row], scale))

    for t in PENCIL_SLIDES:
        slid_plane = _slid(omega, plane, w, t)
        tn, td = t.numerator, t.denominator
        for tangent, (col_0, e_0), (col_inf, e_inf) in zip(tangents, f0, f_inf):
            rows, scale = _tangent_variation(omega, slid_plane, tangent)
            # rows / scale == col_0 / e_0 + t col_inf / e_inf, over e_0 e_inf td
            lhs, a, b = e_0 * e_inf * td, e_inf * td, tn * e_0
            col = sum(rows, [])
            if any(s * lhs != scale * (u * a + v * b) for s, u, v in zip(col, col_0, col_inf)):
                raise AssertionError(f"pencil not linear at slide {t}")
    return f0, f_inf


def check_splitting_type(frame0, frame_inf) -> bool:
    """Witness that every pencil member, including the limit, spans a
    d-plane: the combined frame [frame0 | frame_inf] has rank 2d, so each
    member s * frame0 + frame_inf = [frame0 | frame_inf] [s I; I] keeps
    rank d.  The frames are pencil_frames' integer columns, ranked as
    integer rows."""
    columns = [col for col, _ in frame0 + frame_inf]
    return len(integer_rref(columns, len(columns[0]))[1]) == 2 * len(frame0)


def family_dimension(omega: OmegaForm, frame, plane: _Plane) -> int:
    """Rank at one point of the Jacobian of (parameter, base point) ->
    chart coordinates of the line's plane: the direction variations along
    the parameter axes beside the basepoint variation (moving the base by
    x * exp(a) keeps the rank).  It is at most n - 1 + d: the basepoint
    variation along the line direction is zero.

    Every column is read as P dB on one plane (_moved_rows): along
    parameter axis a the direction row moves by that of the chart partial
    a (_tangent_rows), and the W directions move as in _w_variation.  The
    column of each U direction off the pivot columns is then a unit
    vector in its own row of block row 0, so the rank is the number of
    those plus the rank of the other rows over the other columns
    (_schur_system).
    """
    moves = [_moved_rows(plane, _tangent_rows(omega, plane, partial)) for partial in frame[1:]]
    reduced, _, u_pos = _schur_system(omega, plane, moves + _w_variation(omega, plane))
    return len(u_pos) + Mat(reduced).rank()
