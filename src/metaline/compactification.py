"""The partial compactification of the group and its boundary cosets.

For an isotropic chart the tangent-space frame at a chart point spans
an abelian subalgebra sitting inside W; its exponential is a subgroup T
whose elements are (a, 0) with a in the frame span.  The compactified
space is the disjoint union of the group (interior) and, over every
chart point, the coset space G / T (boundary).  Cosets are stored by a
canonical representative (lines.canonical_rep): the unique coset member
whose W-part vanishes at all pivot coordinates of the frame span.  A
boundary point carries the chart's frame at its point and that frame as
affine_tangent_frame reduced it: the tangent subalgebra of its fiber.
Every boundary point over the same chart point shares both: coset_of
moves within the fiber without reducing the frame again, marked_point
takes the frame's value row as its direction, and the evaluation map and
the compactified line take a boundary point over their chart point (a
fiber) and give their boundary points in it.  The verification runner
evaluates the chart and reduces its frame once per chart sample, as the
fiber at the identity, where it tests the frame's rank, and takes every
boundary point and marked point of the sample in that fiber.

Points are the objects themselves, told apart by type:

* space points: a GroupElement (interior) or a BoundaryPoint (boundary);
* bundle points: a TangentDirectionPoint, a marked base point off the
  section, or a HorizontalLine built from one (lines.line_of), the line
  itself on the section.  Such a line carries the chart parameter of
  its direction; a line through a bare direction is not a bundle point.

The evaluation map sends a marked point to its base and a line to the
boundary coset of its base over the chart point it carries.  The left
action of the group extends to the boundary by translating coset
representatives and recanonicalizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .lines import HorizontalLine, TangentDirectionPoint, canonical_rep, line_through, translate
from .metabelian import GroupElement, OmegaForm, multiply
from .varieties import VarietyChart, affine_tangent_frame


@dataclass(frozen=True)
class BoundaryPoint:
    chart_label: str
    param: tuple
    coset_rep: GroupElement
    # the chart's frame at param (VarietyChart.frame_integers) and its
    # reduction (sparse integer pivot rows, pivots; affine_tangent_frame)
    frame: list = field(compare=False, repr=False)
    tangent: tuple = field(compare=False, repr=False)

    def coset_of(self, omega: OmegaForm, x: GroupElement) -> BoundaryPoint:
        """The boundary point over the same chart point whose coset holds x."""
        rep = canonical_rep(omega, x, *self.tangent)
        return BoundaryPoint(self.chart_label, self.param, rep, self.frame, self.tangent)

    def marked_point(self, x: GroupElement) -> TangentDirectionPoint:
        """The marked point with base x over this chart point, the frame's
        value row its direction."""
        return TangentDirectionPoint(self.frame[0], self.param, x)


def boundary_point(
    chart: VarietyChart, omega: OmegaForm, param, x: GroupElement
) -> BoundaryPoint:
    frame = chart.frame_integers(param)
    tangent = affine_tangent_frame(frame, param)
    return BoundaryPoint(chart.label, param, canonical_rep(omega, x, *tangent), frame, tangent)


def bundle_to_space(omega: OmegaForm, point, fiber: BoundaryPoint):
    """Evaluation map of the bundle into the compactified space, over the
    chart point of fiber, a boundary point there: a marked point goes to
    its base, a line to the coset of its base in fiber."""
    if isinstance(point, TangentDirectionPoint):
        return point.base
    if isinstance(point, HorizontalLine) and point.param is not None:
        if tuple(point.param) != fiber.param:
            raise ValueError("the line lies over another chart point than the fiber")
        return fiber.coset_of(omega, point.base)
    raise TypeError(f"not a bundle point: {point!r}")


def compactified_line(
    omega: OmegaForm, fiber: BoundaryPoint, marked: TangentDirectionPoint, t_grid
):
    """The line of a marked point over the chart point of fiber, a
    boundary point there: its points at the grid parameters (interior)
    plus its single boundary point, the coset of the marked base in fiber."""
    interiors = [translate(omega, marked.base, marked.direction, t) for t in t_grid]
    return interiors, fiber.coset_of(omega, marked.base)


def g_action(omega: OmegaForm, g: GroupElement, point):
    """Left translation extended over the boundary."""
    if isinstance(point, GroupElement):
        return multiply(omega, g, point)
    if isinstance(point, BoundaryPoint):
        return point.coset_of(omega, multiply(omega, g, point.coset_rep))
    raise TypeError(f"not a space point: {point!r}")


def act_on_bundle(omega: OmegaForm, g: GroupElement, point):
    """Left translation on the bundle itself (lines and marked points)."""
    if isinstance(point, TangentDirectionPoint):
        return replace(point, base=multiply(omega, g, point.base))
    if isinstance(point, HorizontalLine) and point.param is not None:
        line = line_through(omega, multiply(omega, g, point.base), point.direction)
        return replace(line, param=point.param)
    raise TypeError(f"not a bundle point: {point!r}")
