"""Horizontal lines, their canonical forms, and projective line embeddings.

A horizontal line is the left translate of a one-parameter subgroup in
a W-direction.  Its points are

    (x_w + t w,  x_u + (t/2) form(x_w, w)).

Canonical form: the direction is scaled so its leftmost nonzero entry
is one (the pivot), and the base point slides along the line until its
W-part vanishes at the pivot coordinate; lines are equal when their
canonical forms are.  A line built from a marked point (line_of) also
carries its direction's chart parameter.  Lines embed into the
Grassmannian of 2-planes of V = W + U + I (I a line of constants) by
the row span of the base point (affine part 1) and the direction
(affine part 0); the exterior-square coordinates of that span satisfy
the classical quadratic relations.

Sliding along a line (translate) and the coset normal form
(canonical_rep) run in Python integers: x_w, the direction and the
slide are each scaled to integers over one positive denominator, the
form is contracted on those (OmegaForm.apply_integers), and every moved
coordinate is built as one Q from its numerator and denominator.  The
span of a coset is given as _rref's sparse integer pivot rows, as the
tangent frame of a boundary point keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .linalg import Mat, combine_rows, wedge
from .metabelian import GroupElement, OmegaForm
from .scalars import HALF, ONE, Q, ZERO, as_integers
from .varieties import VarietyChart


class ZeroDirection(Exception):
    """A line needs a nonzero direction."""


@dataclass(frozen=True)
class HorizontalLine:
    direction: tuple
    base: GroupElement
    # chart parameter of the direction, set by line_of; None for a bare direction
    param: tuple | None = field(default=None, compare=False)


def translate(omega: OmegaForm, x: GroupElement, w, t) -> GroupElement:
    """x * exp(t w) = (x_w + t w, x_u + (t/2) form(x_w, w)): x slid by t
    along the horizontal line in direction w; x itself if t or w is 0."""
    if not t or not any(w):
        return x
    return _slid(omega, x, *as_integers(x.w_part), *as_integers(w), t.numerator, t.denominator)


def _slid(omega: OmegaForm, x: GroupElement, ix, dx, iw, dw, tn, td) -> GroupElement:
    """translate(omega, x, w, tn / td) for x_w = ix / dx and w = iw / dw,
    all integers with dx, dw, td > 0.  Over the common denominators

        x_w + t w = (ix dw td + tn iw dx) / (dx dw td),
        x_u + (t/2) form(x_w, w) = x_u + tn F / (2 td dx dw e),

    with form(ix, iw) = F / e, each moved coordinate is one Q."""
    den = dx * dw * td
    w_part = tuple(
        Q(i * dw * td + tn * c * dx, den) if c else a for a, i, c in zip(x.w_part, ix, iw)
    )
    form, e = omega.apply_integers(ix, iw)
    den = 2 * den * e
    u_part = tuple(
        Q(a.numerator * den + tn * f * a.denominator, a.denominator * den) if f else a
        for a, f in zip(x.u_part, form)
    )
    return GroupElement(w_part, u_part)


def canonical_rep(omega: OmegaForm, x: GroupElement, rows, pivots) -> GroupElement:
    """The member of the coset x * exp(span) whose W-part vanishes at the
    pivots, the span given by reduced echelon rows as _rref's sparse
    integer pivot rows (row r reads row[k] / row[pivots[r]]): x slid by
    -1 along shift = sum of x_w[pivot_r] * row r.  With x_w = ix / dx the
    shift is combine_rows of the ix[pivot_r], S / den, over dx.  x itself
    when x_w vanishes at every pivot."""
    ix, dx = as_integers(x.w_part)
    shift, den = combine_rows(rows, pivots, [ix[p] for p in pivots], omega.dim_w)
    if not any(shift):
        return x
    return _slid(omega, x, ix, dx, shift, dx * den, -1, 1)


def line_through(omega: OmegaForm, x: GroupElement, w) -> HorizontalLine:
    """Canonical horizontal line through x in direction w."""
    w = tuple(c if type(c) is Q else Q(c) for c in w)
    if len(w) != omega.dim_w:
        raise ValueError("direction must lie in W")
    ints, _ = as_integers(w)
    pivot = next((k for k, c in enumerate(ints) if c), None)
    if pivot is None:
        raise ZeroDirection("direction is the zero vector")
    lead = ints[pivot]
    w = tuple(Q(c, lead) if c else ZERO for c in ints)
    row = {k: c for k, c in enumerate(ints) if c}
    return HorizontalLine(w, canonical_rep(omega, x, [row], [pivot]))


@dataclass(frozen=True)
class TangentDirectionPoint:
    """A chart parameter together with a base point: one line with a
    marked base, the direction being the chart value at the parameter,
    evaluated once by direction_point."""

    direction: tuple
    param: tuple
    base: GroupElement


def direction_point(chart: VarietyChart, param, base: GroupElement):
    param = tuple(Q(c) for c in param)
    if len(param) != chart.param_dim:
        raise ValueError("parameter arity mismatch")
    return TangentDirectionPoint(chart.evaluate(param), param, base)


def slide_action(omega: OmegaForm, t, alpha: TangentDirectionPoint) -> TangentDirectionPoint:
    """Slide the base along the marked direction: base -> base * (t w, 0)."""
    return replace(alpha, base=translate(omega, alpha.base, alpha.direction, t))


def line_of(omega: OmegaForm, alpha: TangentDirectionPoint) -> HorizontalLine:
    """The marked point's line, carrying its chart parameter."""
    return replace(line_through(omega, alpha.base, alpha.direction), param=alpha.param)


def line_matrix_rows(omega: OmegaForm, x: GroupElement, w):
    """Spanning rows of the line's 2-plane in V = W + U + I."""
    half_corr = [HALF * c for c in omega.apply(x.w_part, w)]
    row_point = list(x.w_part) + list(x.u_part) + [ONE]
    row_dir = list(w) + half_corr + [ZERO]
    return [row_point, row_dir]


def pluecker_embed(omega: OmegaForm, line: HorizontalLine) -> tuple:
    """The exterior-square coordinates of the line's plane, taken on its
    reduced rows."""
    rows = line_matrix_rows(omega, line.base, line.direction)
    # rank 2: the rows end in 1 and 0, and the direction's W part is nonzero
    reduced, _ = Mat(rows).rref()
    return tuple(wedge(*reduced.entries))


def boundary_direction(omega: OmegaForm, line: HorizontalLine):
    """Projective point where the embedded line meets the W + U hyperplane.

    Coordinates [w : (1/2) form(x_w, w)], scaled so the leftmost nonzero
    entry is one; independent of the base point chosen on the line.
    """
    vec = line_matrix_rows(omega, line.base, line.direction)[1][:-1]
    lead = next(c for c in vec if c != 0)
    return tuple(c / lead for c in vec)
