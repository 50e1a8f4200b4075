"""Boundary cosets and the partial compactification of the group.

For an isotropic chart the tangent-space frame at a chart point spans
an abelian subalgebra sitting inside W; its exponential is a subgroup T
whose elements are (a, 0) with a in the frame span.  The compactified
space is the disjoint union of the group (interior) and, over every
chart point, the coset space G / T (boundary).  Cosets are stored by a
canonical representative: the unique coset member whose W-part vanishes
at all pivot coordinates of the frame span, with the U-part adjusted
through the group law.

Points of the line-pencil bundle map into this space: a marked base
point off the section goes to its interior point, a line on the section
goes to the boundary coset of its base over its direction's chart
point.  The left action of the group extends to the boundary by
translating coset representatives and recanonicalizing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import NotInSpan, solve_in_span
from .lines import HorizontalLine, TangentDirectionPoint, line_through
from .metabelian import GroupElement, OmegaForm, element, multiply
from .scalars import Q, ZERO
from .varieties import VarietyChart, affine_tangent_frame


class DirectionNotOnChart(Exception):
    """The line direction is not the chart value at any parameter."""


@dataclass(frozen=True)
class BoundaryPoint:
    chart_label: str
    param: tuple
    coset_rep: GroupElement


@dataclass(frozen=True)
class Interior:
    point: GroupElement


@dataclass(frozen=True)
class Boundary:
    datum: BoundaryPoint


@dataclass(frozen=True, eq=False)
class OffSection:
    """Bundle point below the section: a marked line point."""

    marked: TangentDirectionPoint

    def __eq__(self, other):
        return isinstance(other, OffSection) and self.marked == other.marked

    def __hash__(self):
        return hash(("off", self.marked))


@dataclass(frozen=True)
class OnSection:
    """Bundle point on the section: the line itself."""

    line: HorizontalLine


def canonical_coset_rep(
    chart: VarietyChart, omega: OmegaForm, param, x: GroupElement
) -> GroupElement:
    """The unique representative of x * T with zero W-part on the pivot
    coordinates of the tangent-frame span."""
    reduced, pivots = affine_tangent_frame(chart, param).rref()
    shift = [ZERO] * omega.dim_w
    for row, pivot in zip(reduced.entries, pivots):
        c = x.w_part[pivot]
        if c != 0:
            for k in range(omega.dim_w):
                shift[k] -= c * row[k]
    return multiply(omega, x, element(omega, shift))


def boundary_point(
    chart: VarietyChart, omega: OmegaForm, param, x: GroupElement
) -> BoundaryPoint:
    param = tuple(Q(c) for c in param)
    return BoundaryPoint(chart.label, param, canonical_coset_rep(chart, omega, param, x))


def recover_parameter(chart: VarietyChart, direction):
    """Chart parameter whose value is projectively the given direction.

    Uses the chart's recovery hints (a constant-one coordinate and one
    bare-parameter coordinate per variable); raises DirectionNotOnChart
    when the hints are missing or the candidate fails verification.
    """
    if chart.recovery is None:
        raise DirectionNotOnChart(f"chart {chart.label!r} declares no recovery hints")
    direction = tuple(Q(c) for c in direction)
    if len(direction) != chart.ambient_dim:
        raise ValueError("direction arity mismatch")
    lead = direction[chart.recovery.constant_index]
    if lead == 0:
        raise DirectionNotOnChart("direction misses the chart's affine cell")
    param = tuple(direction[i] / lead for i in chart.recovery.parameter_indices)
    value = chart.evaluate(param)
    if tuple(c * lead for c in value) != direction:
        raise DirectionNotOnChart("direction is not a chart value")
    return param


def bundle_to_space(chart: VarietyChart, omega: OmegaForm, point):
    """Evaluation map of the bundle into the compactified space."""
    if isinstance(point, OffSection):
        return Interior(point.marked.base)
    if isinstance(point, OnSection):
        param = recover_parameter(chart, point.line.direction)
        return Boundary(boundary_point(chart, omega, param, point.line.base))
    raise TypeError(f"not a bundle point: {point!r}")


def compactified_line(
    chart: VarietyChart, omega: OmegaForm, param, x: GroupElement, t_grid
):
    """Interior points of the line at the grid parameters plus its
    single boundary point."""
    w = chart.evaluate(param)
    interiors = []
    for t in t_grid:
        shift = element(omega, tuple(Q(t) * c for c in w))
        interiors.append(Interior(multiply(omega, x, shift)))
    return interiors, Boundary(boundary_point(chart, omega, param, x))


def g_action(chart: VarietyChart, omega: OmegaForm, g: GroupElement, point):
    """Left translation extended over the boundary."""
    if isinstance(point, Interior):
        return Interior(multiply(omega, g, point.point))
    if isinstance(point, Boundary):
        datum = point.datum
        if datum.chart_label != chart.label:
            raise ValueError("boundary point belongs to a different chart")
        moved = multiply(omega, g, datum.coset_rep)
        return Boundary(boundary_point(chart, omega, datum.param, moved))
    raise TypeError(f"not a space point: {point!r}")


def act_on_bundle(omega: OmegaForm, g: GroupElement, point):
    """Left translation on the bundle itself (lines and marked points)."""
    if isinstance(point, OffSection):
        marked = point.marked
        return OffSection(
            TangentDirectionPoint(marked.chart, marked.param, multiply(omega, g, marked.base))
        )
    if isinstance(point, OnSection):
        line = point.line
        return OnSection(line_through(omega, multiply(omega, g, line.base), line.direction))
    raise TypeError(f"not a bundle point: {point!r}")


def in_tangent_span(chart: VarietyChart, param, vector) -> bool:
    """Whether a W-vector lies in the tangent-frame span at the point."""
    frame = affine_tangent_frame(chart, param)
    try:
        solve_in_span(frame.transpose(), vector)
        return True
    except NotInSpan:
        return False
