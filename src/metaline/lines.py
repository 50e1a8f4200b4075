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

Sliding along a line (translate), the coset normal form (canonical_rep)
and the canonical line (line_through) are the group product by exp(t w),
in Python integers: a rational element keeps each part as integers over
one lowest-terms denominator (metabelian.GroupElement), and a direction
is an integer row over a positive scale, such as a chart frame's value
row.  A slide hands the step t w, the direction's integers times t and
unreduced, straight to the integer kernel of metabelian.multiply
(metabelian.integer_product), so it builds and reduces no step element.
This module contracts the form itself nowhere: a direction row is the
left-invariant field metabelian.invariant_field with a 0 appended.  The
span of a coset is given as _rref's sparse integer pivot rows, as the
tangent frame of a boundary point keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .linalg import Mat, combine_rows, wedge
from .metabelian import GroupElement, OmegaForm, integer_product, invariant_field
from .scalars import Q, lowest_terms


class ZeroDirection(Exception):
    """A line needs a nonzero direction."""


@dataclass(frozen=True)
class HorizontalLine:
    # (ints, den): the direction scaled to 1 at its leftmost nonzero entry,
    # integers over one denominator in lowest terms
    direction: tuple
    base: GroupElement
    # chart parameter of the direction, set by line_of; None for a bare direction
    param: tuple | None = field(default=None, compare=False)


def translate(omega: OmegaForm, x: GroupElement, w, t) -> GroupElement:
    """x * exp(t w) = (x_w + t w, x_u + (t/2) form(x_w, w)): x slid by t
    along the horizontal line in direction w, an integer row over a
    positive scale; x itself if t or w is 0."""
    iw, dw = w
    if not t or not any(iw):
        return x
    step = [t.numerator * c for c in iw], dw * t.denominator
    return integer_product(omega, x.w, x.u, step, ((0,) * omega.dim_u, 1))


def canonical_rep(omega: OmegaForm, x: GroupElement, rows, pivots) -> GroupElement:
    """The member of the coset x * exp(span) whose W-part vanishes at the
    pivots, the span given by reduced echelon rows as _rref's sparse
    integer pivot rows (row r reads row[k] / row[pivots[r]]): x slid by
    -1 along shift = sum of x_w[pivot_r] * row r.  With x_w = ix / dx the
    shift is combine_rows of the ix[pivot_r], S / den, over dx.  x itself
    when x_w vanishes at every pivot."""
    ix, dx = x.w
    shift, den = combine_rows(rows, pivots, [ix[p] for p in pivots], omega.dim_w)
    return translate(omega, x, (shift, dx * den), -1)


def line_through(omega: OmegaForm, x: GroupElement, w) -> HorizontalLine:
    """Canonical horizontal line through x in direction w, an integer row
    over a positive scale."""
    ints, _ = w
    if len(ints) != omega.dim_w:
        raise ValueError("direction must lie in W")
    pivot = next((k for k, c in enumerate(ints) if c), None)
    if pivot is None:
        raise ZeroDirection("direction is the zero vector")
    g = gcd(*ints) if ints[pivot] > 0 else -gcd(*ints)
    direction = tuple(c // g for c in ints)
    row = {k: c for k, c in enumerate(direction) if c}
    return HorizontalLine((direction, direction[pivot]), canonical_rep(omega, x, [row], [pivot]))


@dataclass(frozen=True)
class TangentDirectionPoint:
    """A chart parameter together with a base point: one line with a
    marked base, its direction the chart value at the parameter, the value
    row of the chart's frame there (BoundaryPoint.marked_point)."""

    direction: tuple
    param: tuple
    base: GroupElement


def slide_action(omega: OmegaForm, t, alpha: TangentDirectionPoint) -> TangentDirectionPoint:
    """Slide the base along the marked direction: base -> base * (t w, 0)."""
    base = translate(omega, alpha.base, alpha.direction, t)
    return TangentDirectionPoint(alpha.direction, alpha.param, base)


def line_of(omega: OmegaForm, alpha: TangentDirectionPoint) -> HorizontalLine:
    """The marked point's line, carrying its chart parameter."""
    line = line_through(omega, alpha.base, alpha.direction)
    return HorizontalLine(line.direction, line.base, alpha.param)


def line_matrix_rows(omega: OmegaForm, x: GroupElement, w):
    """Spanning rows of the line's 2-plane in V = W + U + I through x in
    direction w, an integer row over a positive scale, as integer rows
    with one positive scale each: the point row (x_w, x_u, 1) over the lcm
    of x's denominators, and the direction row (w, (1/2) form(x_w, w), 0)
    in lowest terms."""
    (iw, dw), (iu, du) = x.w, x.u
    l0 = lcm(dw, du)
    point = [*(c * (l0 // dw) for c in iw), *(c * (l0 // du) for c in iu), l0]
    field, scale = invariant_field(omega, iw, dw, *w)
    return [(point, l0), lowest_terms([*field, 0], scale)]


def pluecker_embed(omega: OmegaForm, line: HorizontalLine) -> tuple:
    """The exterior-square coordinates of the line's plane, taken on its
    reduced rows."""
    rows = [row for row, _ in line_matrix_rows(omega, line.base, line.direction)]
    # rank 2: the rows end in 1 and 0, and the direction's W part is nonzero
    reduced, _ = Mat(rows).rref()
    return tuple(wedge(*reduced.entries))


def boundary_direction(omega: OmegaForm, line: HorizontalLine):
    """Projective point where the embedded line meets the W + U hyperplane.

    Coordinates [w : (1/2) form(x_w, w)], scaled so the leftmost nonzero
    entry is one; independent of the base point chosen on the line.
    """
    vec = line_matrix_rows(omega, line.base, line.direction)[1][0][:-1]
    lead = next(c for c in vec if c)
    return tuple(Q(c, lead) for c in vec)
