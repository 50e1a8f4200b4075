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

Multiplied by P, a U direction off the pivot columns moves one entry of
the block's first row and nothing else.  So the slide solve
(solve_basepoint_variation) and the Jacobian rank eliminate each U
unknown through its own row, a Schur complement (F. Zhang (ed.), The
Schur Complement and Its Applications, Springer 2005), at every pivot
pair and dim_u; the full basepoint_variation is solved only to give an
out-of-span shift its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jets import Jet1
from .linalg import Mat, NotInSpan, solve_in_span
from .lines import line_matrix_rows, translate
from .metabelian import GroupElement, OmegaForm, element
from .scalars import HALF, ONE, Q, ZERO, as_integers, from_integers
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
    singular.  Row r scaled to integers by the lcm l_r of its denominators
    keeps B, and P^-1 = adj(P') diag(l_0, l_1) / det P' for the scaled P'."""
    (top, l0), (bottom, l1) = as_integers(rows[0]), as_integers(rows[1])
    c1, c2 = pivots
    a, b, c, d = top[c1], top[c2], bottom[c1], bottom[c2]
    det = a * d - b * c
    if det == 0:
        raise ChartMiss(f"pivot columns {pivots} are singular here")
    adj = ((d, -b), (-c, a))
    rest = [pq for col, pq in enumerate(zip(top, bottom)) if col != c1 and col != c2]
    inv = tuple(tuple(from_integers((i0 * l0, i1 * l1), det)) for i0, i1 in adj)
    block = [from_integers([i0 * p + i1 * q for p, q in rest], det) for i0, i1 in adj]
    return inv, block


def _moved_rows(block, drows, pivots):
    """dN - dP B: the variation of the chart block before P^-1 is
    applied, as the plane's rows move by drows.  Zero operands are
    skipped; the values are the same either way."""
    c1, c2 = pivots
    moved = []
    for drow in drows:
        rest = [v for col, v in enumerate(drow) if col != c1 and col != c2]
        for dp, b_row in ((drow[c1], block[0]), (drow[c2], block[1])):
            if dp:
                rest = [v - dp * b if b else v for v, b in zip(rest, b_row)]
        moved.append(rest)
    return moved


def _times_inverse(inv, moved):
    """P^-1 applied to the two rows of a _moved_rows result."""
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


def _block_variation(inv, block, drows, pivots):
    """P^-1 (dN - dP B): the derivative of the chart block B = P^-1 N as
    the plane's rows move by drows."""
    return _times_inverse(inv, _moved_rows(block, drows, pivots))


def _plane(omega: OmegaForm, x: GroupElement, w, pivots):
    """The line's plane through x: its rows, P^-1 and B (chart_block)."""
    rows = line_matrix_rows(omega, x, w)
    return (rows, *chart_block(rows, pivots))


def _tangent_variation(omega: OmegaForm, plane, x: GroupElement, tangent, pivots):
    """Block rows of the direction variation: the plane's direction row
    moves by that of the chart tangent."""
    rows, inv, block = plane
    drows = [[ZERO] * len(rows[0]), line_matrix_rows(omega, x, tangent)[1]]
    return _block_variation(inv, block, drows, pivots)


def direction_variation(chart: VarietyChart, omega: OmegaForm, param, x, delta, t, pivots) -> Mat:
    """Derivative of the chart coordinates of the line's plane as the
    parameter moves along delta, the base slid by t along the line."""
    w = chart.evaluate(param)
    xt = translate(omega, x, w, t)
    tangent = chart.tangent_vector(param, delta)
    return Mat(_tangent_variation(omega, _plane(omega, xt, w, pivots), xt, tangent, pivots))


def direction_variation_symbolic(
    chart: VarietyChart, omega: OmegaForm, param, x, delta, t, pivots
) -> Mat:
    """Independent recomputation of direction_variation by forward-mode
    differentiation: the chart coordinates are evaluated on first-order
    jets p + delta tau, the plane's two rows are built on those, and each
    block entry (adj(P) rows) / det P is read off by the jet quotient rule.
    No closed form (chart_block, line_matrix_rows, the chart partials) is
    used."""
    xt = translate(omega, x, chart.evaluate(param), t)
    w_tau = chart.evaluate(Jet1(Q(p), (Q(d),)) for p, d in zip(param, delta))
    half_corr = omega.apply(xt.w_part, w_tau)
    rows = [
        [*xt.w_part, *xt.u_part, ONE],
        [*w_tau, *(HALF * c for c in half_corr), ZERO],
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


def _basepoint_drows(a_w, form_x, form_w):
    """How the plane's rows move as the base moves to x * exp(a_w, 0):
    the point row by (a_w, (1/2) form(x_w, a_w), 0) and the direction
    row by (0, (1/2) form(a_w, w), 0), given form_x = form(x_w, a_w) and
    form_w = form(a_w, w)."""
    return [
        [*a_w, *(HALF * c if c else ZERO for c in form_x), ZERO],
        [*(ZERO for _ in a_w), *(HALF * c if c else ZERO for c in form_w), ZERO],
    ]


def _w_variation(omega: OmegaForm, x: GroupElement, w, pivots, plane=None):
    """The _plane (rows, P^-1, B), unless given, and, for each W direction
    e_k, the basepoint variation before P^-1 is applied, dN - dP B.  Both
    form blocks come from one pass over the form each:
    form(x_w, e_k) = columns(x_w)[k] and form(e_k, w) = -columns(w)[k]."""
    rows, inv, block = plane or _plane(omega, x, w, pivots)
    at_x = omega.columns(x.w_part)
    at_w = omega.columns(w)
    moves = []
    for k in range(omega.dim_w):
        drows = _basepoint_drows(_unit(omega.dim_w, k), at_x[k], [-c for c in at_w[k]])
        moves.append(_moved_rows(block, drows, pivots))
    return rows, inv, block, moves


def basepoint_variation(omega: OmegaForm, x: GroupElement, w, pivots, plane=None) -> Mat:
    """Derivative of the plane as the base moves to x * exp(a): one
    column per algebra basis direction a, rows the flattened chart
    block.  A W-direction moves both rows (_w_variation); a U-direction
    moves one entry of the point row.  The kernel is the span of the
    line direction."""
    rows, inv, block, w_moves = _w_variation(omega, x, w, pivots, plane)
    cols = [sum(_times_inverse(inv, moved), []) for moved in w_moves]
    width = len(rows[0])
    for k in range(omega.dim_w, width - 1):
        d_point = [ZERO] * width
        d_point[k] = ONE
        cols.append(sum(_block_variation(inv, block, [d_point, [ZERO] * width], pivots), []))
    return Mat.from_cols(cols)


def _times_minor(rows, pivots, flat):
    """P times a flattened 2 x (n-1) chart-block variation, P the pivot
    minor of the plane's rows: the block rows (P dB)_0 and (P dB)_1."""
    c1, c2 = pivots
    half = len(flat) // 2
    return [
        [p0 * u + p1 * v for u, v in zip(flat[:half], flat[half:])]
        for p0, p1 in ((rows[0][c1], rows[0][c2]), (rows[1][c1], rows[1][c2]))
    ]


def _schur_system(omega: OmegaForm, pivots, block, moves):
    """Eliminate the U unknowns off the pivot columns from a system of
    column pairs (block rows of P dB): moves, then one column per U
    direction at a pivot column.  Returns the rows left over all of those
    columns, the U pivot columns, and the positions in block row 0 of the
    eliminated U unknowns.

    A U direction off the pivot columns moves one entry of the point row
    and not P, so its column of P dB is the unit vector at its own
    position p in block row 0, where p counts the non-pivot columns
    before it.  Eliminating it through that row (a Schur complement)
    leaves the other rows over the other columns.  A U direction at pivot
    column j moves P by a unit column, so its column is (-B_j, 0)."""
    u_cols = range(omega.dim_w, omega.dim_w + omega.dim_u)
    kept = [c for c in pivots if c in u_cols]
    half = len(block[0])
    cols = moves + [[[-b for b in block[pivots.index(c)]], [ZERO] * half] for c in kept]
    first = omega.dim_w - sum(c < omega.dim_w for c in pivots)
    u_pos = range(first, first + omega.dim_u - len(kept))
    rows = [[col[0][p] for col in cols] for p in range(half) if p not in u_pos]
    rows += [[col[1][p] for col in cols] for p in range(half)]
    return rows, kept, u_pos


def solve_basepoint_variation(omega: OmegaForm, x: GroupElement, w, pivots, shift, plane=None):
    """solve_in_span(basepoint_variation(omega, x, w, pivots), shift),
    through a Schur complement over the U unknowns (on the given _plane).

    Each block pair of the shift is multiplied by the pivot minor P, and
    the W columns are built in the same un-inverted form (_w_variation).
    Every U unknown off the pivot columns enters only its own row of block
    row 0 (_schur_system), so solve_in_span takes only the other rows, over
    the W unknowns and any U unknown at a pivot column.  Each eliminated U
    unknown is back-substituted: c_u = t0[p] - (the un-inverted variation
    along the reduced solution)[0][p], built from two form applies with
    the kept U values added to the point row.  With none eliminated (dim_u
    0, or every U column a pivot) the reduced solution is the solution.

    For w nonzero the kernel of the full variation is exactly the line
    direction (w, 0), so the reduced solution with its free coordinate
    zero is the full solve's canonical solution.  When the shift is out
    of span the full variation is solved instead, so that NotInSpan
    carries the full system's residual.
    """
    rows, _, block, w_moves = _w_variation(omega, x, w, pivots, plane)
    target = _times_minor(rows, pivots, shift)
    reduced, kept, u_pos = _schur_system(omega, pivots, block, [target] + w_moves)
    try:
        coeffs = solve_in_span(Mat([row[1:] for row in reduced]), [row[0] for row in reduced])
    except NotInSpan:
        return solve_in_span(basepoint_variation(omega, x, w, pivots, plane), shift)
    if not u_pos:  # every U unknown is kept, in column order
        return coeffs
    dim_w = omega.dim_w
    c_w, c_kept = coeffs[:dim_w], coeffs[dim_w:]
    drows = _basepoint_drows(c_w, omega.apply(x.w_part, c_w), omega.apply(c_w, w))
    for c, value in zip(kept, c_kept):
        drows[0][c] += value
    moved = _moved_rows(block, drows, pivots)
    c_u = [target[0][p] - moved[0][p] for p in u_pos]
    for c, value in zip(kept, c_kept):
        c_u.insert(c - dim_w, value)
    return c_w + tuple(c_u)


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
    frame's span (tangent_span_ok).

    The pull-back is solve_basepoint_variation: the U unknowns off the
    pivot columns are eliminated through their own rows and only the
    others are solved.  Its coefficients, and the residual of NotInSpan
    when the shift is out of span, are those of the full solve.  The
    variation at 0 and the pull-back share the plane at slide zero."""
    w = chart.evaluate(param)
    tangent = chart.tangent_vector(param, delta)
    xt = translate(omega, x, w, t)
    plane = _plane(omega, x, w, pivots)
    j_t = _tangent_variation(omega, _plane(omega, xt, w, pivots), xt, tangent, pivots)
    j_0 = _tangent_variation(omega, plane, x, tangent, pivots)
    shift = [a - b for a, b in zip(sum(j_t, []), sum(j_0, []))]
    coeffs = solve_basepoint_variation(omega, x, w, pivots, shift, plane)

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
    tangents = chart.partial_rows(param)
    # the limit frame is minus the basepoint variation along (tangent, 0)
    _, inv, block = plane = _plane(omega, x, w, pivots)
    f0_cols, finf_cols = [], []
    for tangent in tangents:
        f0_cols.append(sum(_tangent_variation(omega, plane, x, tangent, pivots), []))
        drows = _basepoint_drows(tangent, omega.apply(x.w_part, tangent), omega.apply(tangent, w))
        finf_cols.append([-v for v in sum(_block_variation(inv, block, drows, pivots), [])])
    frame0 = Mat.from_cols(f0_cols)
    frame_inf = Mat.from_cols(finf_cols)

    for t in PENCIL_SLIDES:
        xt = translate(omega, x, w, t)
        slid_plane = _plane(omega, xt, w, pivots)
        for a, tangent in enumerate(tangents):
            slid = sum(_tangent_variation(omega, slid_plane, xt, tangent, pivots), [])
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


def _jacobian_rank(chart: VarietyChart, omega: OmegaForm, param, x, w, pivots) -> int:
    """Rank of [direction variations | basepoint variation] at one point.

    P times the matrix has the column of each U direction off the pivot
    columns a unit vector in its own row of block row 0, so the rank is
    the number of those plus the rank of the other rows over the other
    columns (_schur_system).
    """
    d = chart.param_dim
    dir_cols = [
        sum(direction_variation(chart, omega, param, x, _unit(d, a), 0, pivots).entries, ())
        for a in range(d)
    ]
    rows, _, block, w_moves = _w_variation(omega, x, w, pivots)
    dir_moves = [_times_minor(rows, pivots, col) for col in dir_cols]
    reduced, _, u_pos = _schur_system(omega, pivots, block, dir_moves + w_moves)
    return len(u_pos) + Mat(reduced).rank()


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
            rank = _jacobian_rank(chart, omega, param, x, w, pivots)
        except ChartMiss:
            continue
        best = max(best, rank)
        if best == bound:
            break
    return best
