"""Verification pipeline: every check for one fixture, deterministically.

The checks form one table, `_CHECKS`, in report order, run by a single
loop.  Each check draws from its own named sampler stream derived
from the base seed, so filtering checks never shifts the samples of the
ones that remain, and reports are byte-identical across runs and across
--jobs settings.  The checks whose table entry gives a sample count
are geometric and presuppose the isotropy certificate; when it fails
they are skipped (and the run fails on the certificate).  A run also
fails when a selected check skipped every sample: it never passes
vacuously.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cached_property, partial

from . import compactification as comp
from . import family_geometry as fam
from . import lines as lin
from . import metabelian as meta
from .linalg import NotInSpan, combine_rows
from .metabelian import InternalConsistencyError, OmegaForm
from .omega_builder import build_omega
from .report import CheckResult, VerificationReport
from .sampling import RationalSampler
from .scalars import Q, as_integers, qstr
from .varieties import (
    FrameDegenerate,
    IsotropyCertificate,
    VarietyChart,
    affine_tangent_frame,
    certify_isotropic,
    in_tangent_span,
)

def _sample_element(sampler, omega):
    return meta.rational_element(sampler.integers(omega.dim_w), sampler.integers(omega.dim_u))


def _slide_outcome(chart, omega, cfg, variant):
    """One slide-identity sample on the primary chart ("primary"), on the
    next chart ("alt"), or on the primary chart with the closed-form
    derivative and a passing product check held to their oracles, the
    symbolic derivative and the solved pull-back ("symbolic"); a
    configuration of None had a degenerate frame (_Run.slide_cfgs)."""
    if cfg is None:
        return ("skip", "degenerate frame")
    param, frame, x, delta, t = cfg
    try:
        plane = next(fam.line_planes(omega, x, frame[0], skip=int(variant == "alt")), None)
        if plane is None:  # only the alt chart can lack a plane
            return ("skip", "no second chart")
        if variant == "symbolic":
            for slide in (t, Q(0)):
                closed = fam.direction_variation(omega, frame, plane, delta, slide)
                oracle = (chart, omega, param, x, delta, slide, plane.pivots)
                if closed != fam.direction_variation_symbolic(*oracle):
                    note = f"closed-form and symbolic derivatives disagree at slide {qstr(slide)}"
                    return ("fail", note)
        args = (omega, frame, plane, delta, t)
        result = fam.check_slide_identity(*args)
        if variant == "symbolic" and result.ok and fam.solve_slide_identity(*args) != result:
            return ("fail", "product check and solved pull-back disagree")
    except fam.ChartMiss as exc:
        return ("skip", f"chart miss: {exc}")
    except NotInSpan as exc:
        head = ",".join(qstr(c) for c in exc.residual[:4])
        return ("fail", f"shift escaped the basepoint-variation image ({head},...)")
    if result.ok:
        return ("pass", None)
    detail = ",".join(qstr(c) for c in result.residual)
    if not result.tangent_span_ok:
        detail += "; coefficients outside the tangent span"
    return ("fail", f"nonzero residual {detail}")


def _tally(name, outcomes):
    """A check's row: its counts, and as witness the first failure's note,
    else the first skip's."""
    fails = [note for status, note in outcomes if status == "fail"]
    skips = [f"skip: {note}" for status, note in outcomes if status == "skip"]
    passes = len(outcomes) - len(fails) - len(skips)
    return CheckResult(name, len(outcomes), passes, len(skips), (fails + skips or [None])[0])


@dataclass
class _Run:
    """Inputs of one verification run.  Sample sets that several checks
    share are drawn lazily, at most once per run."""

    chart: VarietyChart
    omega: OmegaForm
    dims: dict
    seed: int
    samples: int
    jobs: int
    certificate: IsotropyCertificate

    def stream(self, name):
        return RationalSampler(self.seed).derive(name)

    @cached_property
    def slide_cfgs(self):
        """The configurations (param, frame, x, delta, t) of the three
        slide checks, frame the chart's frame at param, drawn up front so
        that the --jobs pool gets them whole, and None for one whose frame
        is degenerate.  Each draws all four sampled parts, degenerate or
        not, so no sample moves the draws of a later one."""
        sampler = self.stream("slide-identity")
        d = self.chart.param_dim
        cfgs = []
        for _ in range(self.samples):
            param = sampler.vector(d)
            frame = self.chart.frame_integers(param)
            x = _sample_element(sampler, self.omega)
            cfg = (param, frame, x, sampler.nonzero_vector(d), sampler.nonzero_rational())
            try:
                affine_tangent_frame(frame, param)
            except FrameDegenerate:
                cfg = None
            cfgs.append(cfg)
        return cfgs

    @cached_property
    def pencil(self):
        """(pencil-split outcomes, splitting-type outcomes) of the same frames."""
        pairs = _chart_samples(self, "pencil", _fifth(self.samples), _pencil_sample)
        return tuple(zip(*((o, o) if o[0] == "skip" else o for o in pairs)))


# Sample counts, as functions of the --samples budget, shared by a table
# entry and the outcomes it runs.
def _symbolic(samples):
    return min(5, samples)


def _fifth(samples):
    return max(1, samples // 5)


def _half(samples):
    return max(1, samples // 2)


def _isotropy_outcomes(run):
    cert, d = run.certificate, run.chart.param_dim
    outcomes = [("pass", None)] * cert.pairs_checked
    if not cert.proven:
        outcomes[-1] = ("fail", cert.witness.describe())
    return outcomes + [("skip", "after the witness")] * ((d + 1) * d // 2 - cert.pairs_checked)


def _group_law_outcomes(run):
    proofs = (
        (meta.associativity_holds, "associativity broken"),
        (meta.commutator_matches_bracket, "commutator disagrees with the bracket"),
        (meta.one_parameter_subgroup_holds, "one-parameter subgroups not additive"),
    )
    return [("pass" if holds(run.omega) else "fail", note) for holds, note in proofs]


def _element_samples(run, stream, body):
    """Outcomes of run.samples group-element samples drawn from one
    stream: each draws an element x and gives body(omega, sampler, x),
    or a failure when the body finds an internal inconsistency."""
    sampler = run.stream(stream)
    outcomes = []
    for _ in range(run.samples):
        x = _sample_element(sampler, run.omega)
        try:
            outcomes.append(body(run.omega, sampler, x))
        except InternalConsistencyError as exc:
            outcomes.append(("fail", str(exc)))
    return outcomes


def _element_check(stream, body):
    """Table entry of a check made of group-element samples."""
    return None, lambda run: _element_samples(run, stream, body)


def _maurer_cartan_sample(omega, sampler, x):
    meta.maurer_cartan_log_derivative(omega, x, sampler.nonzero_vector(omega.dim_w))
    return ("pass", None)


def _levi_tensor_sample(omega, sampler, x):
    u, v = sampler.vector(omega.dim_w), sampler.vector(omega.dim_w)
    if meta.levi_tensor(omega, x, u, v) == tuple(omega.apply(u, v)):
        return ("pass", None)
    return ("fail", "field bracket disagrees with the form")


def _slide_outcomes(run, variant):
    """Outcomes of the slide configs; the oracle variant runs serially on
    the first _symbolic(samples) of them."""
    if variant == "symbolic":
        cfgs, jobs = run.slide_cfgs[: _symbolic(run.samples)], 1
    else:
        cfgs, jobs = run.slide_cfgs, run.jobs
    sample = partial(_slide_outcome, run.chart, run.omega, variant=variant)
    workers = min(jobs, os.cpu_count() or 1, len(cfgs))
    if workers <= 1:
        return list(map(sample, cfgs))
    from concurrent.futures import ProcessPoolExecutor  # only --jobs above 1 loads it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(sample, cfgs, chunksize=max(1, len(cfgs) // (4 * workers))))


def _family_dimension_outcomes(run):
    """The largest family_dimension over up to 10 sample points, against
    the family's dimension n - 1 + d.  No point exceeds it (the basepoint
    variation along the line direction is zero), so the scan stops at
    the first point that reaches it.  A parameter where the chart
    vanishes gives no line and is passed over; every other point has a
    plane.  A degenerate frame is measured like any other."""
    chart, omega = run.chart, run.omega
    sampler = run.stream("family-dim")
    expected, measured = run.dims["familyDim"], 0
    for _ in range(10):
        frame = chart.frame_integers(sampler.vector(chart.param_dim))
        if not any(frame[0][0]):
            continue
        x = _sample_element(sampler, omega)
        plane = next(fam.line_planes(omega, x, frame[0]))
        measured = max(measured, fam.family_dimension(omega, frame, plane))
        if measured == expected:
            return [("pass", None)]
    return [("fail", f"measured {measured}, expected {expected}")]


def _fiber(run, param):
    """The boundary point at the identity over param: the one reduction
    of the tangent frame there, which every boundary point of a sample
    over param shares (BoundaryPoint.coset_of).  Raises FrameDegenerate
    on a rank drop."""
    return comp.boundary_point(run.chart, run.omega, param, meta.identity_element(run.omega))


def _chart_samples(run, stream, count, body):
    """Outcomes of count chart samples drawn from one stream.  A sample
    draws a parameter, reduces its frame once (_fiber) and is skipped on
    a degenerate frame; otherwise it draws a base point x and gives
    body(run, sampler, k, fiber, x): one outcome, or one per check for a
    body that serves several (a skip stays a single outcome, for all of
    them)."""
    sampler = run.stream(stream)
    outcomes = []
    for k in range(count):
        try:
            fiber = _fiber(run, sampler.vector(run.chart.param_dim))
        except FrameDegenerate:
            outcomes.append(("skip", "degenerate frame"))
            continue
        x = _sample_element(sampler, run.omega)
        outcomes.append(body(run, sampler, k, fiber, x))
    return outcomes


def _chart_check(stream, count, body):
    """Table entry of a check made of chart samples."""
    return count, lambda run: _chart_samples(run, stream, count(run.samples), body)


def _pencil_sample(run, sampler, k, fiber, x):
    """(pencil-split outcome, splitting-type outcome) of one pencil."""
    omega, frame = run.omega, fiber.frame
    try:
        plane = next(fam.line_planes(omega, x, frame[0]))
        frame0, frame_inf = fam.pencil_frames(omega, frame, plane)
    except fam.ChartMiss as exc:
        return ("skip", f"chart miss: {exc}")
    except AssertionError as exc:
        return ("fail", str(exc)), ("skip", "pencil frames unavailable")
    if fam.check_splitting_type(frame0, frame_inf):
        return ("pass", None), ("pass", None)
    return ("pass", None), ("fail", "combined pencil frames drop rank")


def _coset_sample(run, sampler, k, fiber, x):
    """The line through x and one through a second base point have equal
    boundary images when the second is x shifted inside the tangent
    frame (even k), and distinct ones when it is x shifted centrally,
    shifted out of the frame, or x on another chart direction.  Each
    image is taken in the fiber over its line's chart point."""
    chart, omega = run.chart, run.omega
    line_a = lin.line_of(omega, fiber.marked_point(x))
    image_a = comp.bundle_to_space(omega, line_a, fiber)
    frame = fiber.tangent
    fiber_b = fiber
    if k % 2 == 0:
        coeffs, scale = as_integers(sampler.vector(chart.param_dim + 1))
        sums, den = combine_rows(*frame, coeffs, omega.dim_w)
        x2 = lin.translate(omega, x, (sums, den * scale), 1)
    elif omega.dim_u > 0 and (k // 2) % 2 == 0:
        u_shift = sampler.nonzero_vector(omega.dim_u)
        x2 = meta.multiply(omega, x, meta.element(omega, [Q(0)] * omega.dim_w, u_shift))
    else:
        escape = _escape_vector(frame, omega.dim_w)
        if escape is not None:
            x2 = lin.translate(omega, x, escape, 1)
        else:
            fiber_b = _other_fiber(run, sampler, fiber.param)
            if fiber_b is None:
                return ("skip", "no distinguishable coset available")
            x2 = x
    line_b = lin.line_of(omega, fiber_b.marked_point(x2))
    expect_equal = k % 2 == 0
    equal = image_a == comp.bundle_to_space(omega, line_b, fiber_b)
    if equal == expect_equal:
        return ("pass", None)
    return ("fail", f"coset equality expected {expect_equal}, got {equal}")


def _escape_vector(frame, ncols):
    """The first unit vector of length ncols outside the span of the
    reduced frame, as an integer row over scale 1, or None."""
    units = ([int(j == i) for j in range(ncols)] for i in range(ncols))
    return next(((e, 1) for e in units if not in_tangent_span(frame, e)), None)


def _other_fiber(run, sampler, param):
    """The fiber over the first of up to 8 fresh parameters that differs
    from param and has a full-rank frame, or None."""
    for _ in range(8):
        candidate = sampler.vector(run.chart.param_dim)
        if candidate != param:
            try:
                return _fiber(run, candidate)
            except FrameDegenerate:
                pass
    return None


def _action_sample(run, sampler, k, fiber, x):
    omega = run.omega
    g1 = _sample_element(sampler, omega)
    g2 = _sample_element(sampler, omega)
    identity = meta.identity_element(omega)
    boundary = fiber.coset_of(omega, x)
    ok = True
    for point in (x, boundary):
        if comp.g_action(omega, identity, point) != point:
            ok = False
        lhs = comp.g_action(omega, meta.multiply(omega, g1, g2), point)
        rhs = comp.g_action(omega, g1, comp.g_action(omega, g2, point))
        if lhs != rhs:
            ok = False
    if comp.g_action(omega, g1, x) != meta.multiply(omega, g1, x):
        ok = False
    return ("pass", None) if ok else ("fail", "action axiom violated")


def _equivariance_sample(run, sampler, k, fiber, x):
    omega = run.omega
    g = _sample_element(sampler, omega)
    marked = fiber.marked_point(x)
    ok = True
    for point in (marked, lin.line_of(omega, marked)):
        moved = comp.act_on_bundle(omega, g, point)
        lhs = comp.bundle_to_space(omega, moved, fiber)
        rhs = comp.g_action(omega, g, comp.bundle_to_space(omega, point, fiber))
        if lhs != rhs:
            ok = False
    return ("pass", None) if ok else ("fail", "evaluation not equivariant")


def _line_boundary_sample(run, sampler, k, fiber, x):
    omega = run.omega
    grid = sampler.distinct_rationals(5)
    marked = fiber.marked_point(x)
    interiors, boundary = comp.compactified_line(omega, fiber, marked, grid)
    ok = len(set(interiors)) == len(grid)
    for interior in interiors:
        if boundary.coset_of(omega, interior) != boundary:
            ok = False
    base_line = lin.line_of(omega, marked)
    for t in grid:
        slid = lin.slide_action(omega, t, marked)
        if lin.line_of(omega, slid) != base_line:
            ok = False
    return ("pass", None) if ok else ("fail", "compactified line misbehaved")


# name -> (sample count for a --samples budget, outcomes of one run), in
# report order.  The checks with a count presuppose isotropy: when it is
# not proven each reports its count as skipped.  The others need no count.
_CHECKS = {
    "isotropy": (None, _isotropy_outcomes),
    "group-law": (None, _group_law_outcomes),
    "maurer-cartan": _element_check("maurer-cartan", _maurer_cartan_sample),
    "levi-tensor": _element_check("levi-tensor", _levi_tensor_sample),
    "slide-identity": (lambda s: s, lambda run: _slide_outcomes(run, "primary")),
    "slide-identity-alt-chart": (lambda s: s, lambda run: _slide_outcomes(run, "alt")),
    "slide-identity-symbolic": (_symbolic, lambda run: _slide_outcomes(run, "symbolic")),
    "pencil-split": (_fifth, lambda run: run.pencil[0]),
    "splitting-type": (_fifth, lambda run: run.pencil[1]),
    "family-dimension": (lambda s: 1, _family_dimension_outcomes),
    "boundary-cosets": _chart_check("cosets", lambda s: s, _coset_sample),
    "group-action": _chart_check("action", _half, _action_sample),
    "equivariance": _chart_check("equivariance", _half, _equivariance_sample),
    "line-boundary": _chart_check("lines", _half, _line_boundary_sample),
}

CHECK_NAMES = tuple(_CHECKS)


def form_and_dimensions(chart: VarietyChart, explicit_omega: OmegaForm | None):
    """(form, dims): the explicit form, or else the one built from the
    chart, and the report's dimensions of the group and the line family
    (dimWprime is None for an explicit form)."""
    if explicit_omega is None:
        construction = build_omega(chart)
        omega, dim_w_prime = construction.omega, construction.dim_w_prime
    else:
        omega, dim_w_prime = explicit_omega, None
    n = omega.dim_w + omega.dim_u
    dims = {
        "dimW": omega.dim_w,
        "dimU": omega.dim_u,
        "dimWprime": dim_w_prime,
        "d": chart.param_dim,
        "n": n,
        "familyDim": n - 1 + chart.param_dim,
    }
    return omega, dims


def run_verification(
    chart: VarietyChart,
    explicit_omega: OmegaForm | None = None,
    seed: int = 42,
    samples: int = 100,
    checks=None,
    jobs: int = 1,
) -> VerificationReport:
    start = time.monotonic()
    selected = set(CHECK_NAMES) if checks is None else set(checks)
    unknown = selected - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
    if not selected:
        raise ValueError("no checks selected")

    omega, dims = form_and_dimensions(chart, explicit_omega)
    report = VerificationReport(chart.label, seed, samples, dims)
    certificate = certify_isotropic(chart, omega)
    run = _Run(chart, omega, dims, seed, samples, jobs, certificate)

    for name, (count, outcomes) in _CHECKS.items():
        if name not in selected:
            continue
        if count is not None and not certificate.proven:
            report.checks.append(_tally(name, [("skip", "isotropy not proven")] * count(samples)))
        else:
            report.checks.append(_tally(name, outcomes(run)))

    report.wall_time = time.monotonic() - start
    return report
