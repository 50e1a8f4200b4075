import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metaline import compactification as comp
from metaline import family_geometry as fam
from metaline import linalg
from metaline import metabelian as meta
from metaline import runner, varieties
from metaline.linalg import Mat, NotInSpan, rational_rows
from metaline.metabelian import OmegaForm
from metaline.omega_builder import build_omega
from metaline.runner import CHECK_NAMES, run_verification
from metaline.scalars import Q
from metaline.sampling import RationalSampler
from metaline.varieties import (
    FrameDegenerate,
    affine_tangent_frame,
    builtin_chart,
    veronese_chart,
)

GOLDEN_DIMS = {
    "dimW": 4,
    "dimU": 1,
    "dimWprime": 5,
    "d": 1,
    "n": 5,
    "familyDim": 5,
}


@pytest.fixture(scope="module")
def cubic_report():
    chart, explicit = builtin_chart("veronese-2-3")
    return run_verification(chart, explicit, seed=42, samples=30)


def test_all_checks_present_and_pass(cubic_report):
    assert [c.name for c in cubic_report.checks] == list(CHECK_NAMES)
    assert cubic_report.passed
    for check in cubic_report.checks:
        assert check.failures == 0, check.name
        assert check.passes + check.skips == check.samples


def test_golden_dims(cubic_report):
    assert cubic_report.dims == GOLDEN_DIMS


def test_no_skips_on_clean_fixture(cubic_report):
    assert all(c.skips == 0 for c in cubic_report.checks)


def test_reports_are_reproducible():
    chart, explicit = builtin_chart("veronese-2-3")
    again = run_verification(chart, explicit, seed=42, samples=30)
    reference = run_verification(chart, explicit, seed=42, samples=30)
    assert again.to_json() == reference.to_json()


def test_seed_changes_samples_not_verdict():
    chart, explicit = builtin_chart("flat-conic")
    a = run_verification(chart, explicit, seed=1, samples=10)
    b = run_verification(chart, explicit, seed=2, samples=10)
    assert a.passed and b.passed


def test_checks_filter_preserves_results(cubic_report):
    chart, explicit = builtin_chart("veronese-2-3")
    subset = run_verification(
        chart, explicit, seed=42, samples=30, checks=["levi-tensor", "slide-identity"]
    )
    assert [c.name for c in subset.checks] == ["levi-tensor", "slide-identity"]
    full = {c.name: c.to_dict() for c in cubic_report.checks}
    for check in subset.checks:
        assert check.to_dict() == full[check.name]


def test_unknown_check_rejected():
    chart, explicit = builtin_chart("veronese-2-3")
    with pytest.raises(ValueError):
        run_verification(chart, explicit, checks=["nonsense"])


@pytest.mark.parametrize("checks", [[], ()])
def test_empty_check_selection_rejected(checks, monkeypatch):
    """Only checks=None means every check; an empty selection is an error,
    raised before any form is built."""

    def no_form(*args):
        raise AssertionError("form built for an empty selection")

    monkeypatch.setattr(runner, "form_and_dimensions", no_form)
    chart, explicit = builtin_chart("veronese-2-3")
    with pytest.raises(ValueError, match="no checks selected"):
        run_verification(chart, explicit, checks=checks)


def test_parallel_matches_serial():
    chart, explicit = builtin_chart("veronese-2-3")
    serial = run_verification(chart, explicit, seed=42, samples=16, jobs=1)
    parallel = run_verification(chart, explicit, seed=42, samples=16, jobs=3)
    assert serial.to_json() == parallel.to_json()


def test_adversarial_fixture_fails_isotropy_and_skips_geometry():
    chart, explicit = builtin_chart("nonisotropic-cubic")
    report = run_verification(chart, explicit, seed=42, samples=10)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    isotropy = by_name["isotropy"]
    assert isotropy.failures == 1
    assert isotropy.witness is not None
    for name in ("slide-identity", "pencil-split", "boundary-cosets", "line-boundary"):
        check = by_name[name]
        assert check.skips == check.samples
        assert "isotropy" in check.witness
    # algebra checks are independent of isotropy and still pass
    for name in ("group-law", "maurer-cartan", "levi-tensor"):
        assert by_name[name].failures == 0
        assert by_name[name].passes == by_name[name].samples


def test_explicit_omega_reported_without_construction():
    chart, explicit = builtin_chart("nonisotropic-cubic")
    report = run_verification(chart, explicit, seed=42, samples=5)
    assert report.dims["dimWprime"] is None
    assert report.dims["dimU"] == 1


def test_flat_linear_boundary_cosets_have_fallback():
    """Full projectivization leaves no W-escape; the distinct-coset
    samples fall back to distinct parameters instead of skipping."""
    chart, explicit = builtin_chart("flat-linear")
    report = run_verification(chart, explicit, seed=42, samples=20)
    cosets = next(c for c in report.checks if c.name == "boundary-cosets")
    assert cosets.failures == 0
    assert cosets.passes == cosets.samples


# sha256 of the JSON report at seed 42, --samples 10.  Reports are the
# verifier's output contract: a change that moves these bytes must say why.
REPORT_DIGESTS = {
    "flat-conic": "99f492dcf9aa25eb807d925095bb5cf3dec990492f9d85baad2630f0c5e490bf",
    "flat-linear": "11e5bcca8d70186656ec7ff34f196c7174d8c0934739c036ef734cd071fce658",
    "nonisotropic-cubic": "b18d68bfa85e45bebc1da9a1f6c6c789cd9d8e044d7a10cb21a36ef17a777602",
    "veronese-2-3": "163f3027f024c8de1a34ac854a649936860b406a111fe5699e1a745a4844c569",
    "veronese-2-4": "8d6bcccd79e38887ee96570f646a1d0f79fad9e7434638dd638491ec398201aa",
    "veronese-3-3": "87ece2cb1b1ff70f92baff40e396cc1612e275d0c5ccb01991f2022885e61b5d",
    "veronese3-of-conic": "26d568b99f2f194d0ba6eedc30b709ae61782d5da708d0095fd4dc99887096e2",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(monkeypatch, name):
    """Every builtin's report bytes, from the form's sparse coefficients
    alone: verify never builds the dense table, which only build-omega
    prints."""

    def refuse(form):
        raise AssertionError("verify built the dense form table")

    monkeypatch.setattr(OmegaForm, "table", property(refuse))
    chart, explicit = builtin_chart(name)
    report = run_verification(chart, explicit, seed=42, samples=10)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_DIGESTS[name]


# Run in a fresh interpreter: binds metaline.scalars' constants to an
# mpq-like stand-in before any other metaline module is imported, then
# prints each named builtin's report digest at seed 42, --samples 10.
_STAND_IN_RUN = """
import hashlib, sys
from fractions import Fraction
from metaline import scalars


class Mpz(int):
    \"\"\"An integer whose type is not int, as gmpy2's mpz is not.\"\"\"


class Mpq(Fraction):
    \"\"\"A rational whose arithmetic returns Mpq and whose numerator and
    denominator are Mpz.\"\"\"

    __slots__ = ()
    numerator = property(lambda self: Mpz(self._numerator))
    denominator = property(lambda self: Mpz(self._denominator))


def _closed(op):
    def method(*args):
        result = op(*args)
        return Mpq(result) if isinstance(result, Fraction) else result

    return method


for name in ("add", "sub", "mul", "truediv", "pow"):
    for side in ("", "r"):
        dunder = f"__{side}{name}__"
        setattr(Mpq, dunder, _closed(getattr(Fraction, dunder)))
for dunder in ("__neg__", "__pos__", "__abs__"):
    setattr(Mpq, dunder, _closed(getattr(Fraction, dunder)))
scalars.Q, scalars.ZERO, scalars.ONE, scalars.HALF = Mpq, Mpq(0), Mpq(1), Mpq(1, 2)

from metaline.runner import run_verification
from metaline.varieties import builtin_chart

assert type(scalars.Q(1, 3) * 3 + scalars.HALF) is Mpq
assert type(scalars.HALF.numerator) is Mpz
for name in sys.argv[1:]:
    chart, explicit = builtin_chart(name)
    report = run_verification(chart, explicit, seed=42, samples=10)
    print(name, hashlib.sha256(report.to_json().encode()).hexdigest())
binds = {m for m in sys.modules if m.startswith("metaline") and "Q" in vars(sys.modules[m])}
assert binds and all(sys.modules[m].Q is Mpq for m in binds), binds
"""


def test_report_bytes_are_pinned_on_an_mpq_like_backend():
    """Backend parity: every pinned report, with scalars.Q bound to a
    Fraction subclass whose arithmetic stays in the subclass and whose
    numerator and denominator are an int subclass, so no path can rely on
    Fraction or int exactly.  Equal digests are evidence that gmpy2's mpq
    gives the same bytes, not a proof: mpz is no int subclass at all, and
    gmpy2 is no dependency of the test suite."""
    src = str(Path(runner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _STAND_IN_RUN, *sorted(REPORT_DIGESTS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == REPORT_DIGESTS


@pytest.mark.parametrize("name", ["veronese-2-3", "nonisotropic-cubic"])
def test_every_single_check_run_matches_full_report(name):
    chart, explicit = builtin_chart(name)
    full = run_verification(chart, explicit, seed=42, samples=10)
    entries = {c.name: c.to_dict() for c in full.checks}
    for check in CHECK_NAMES:
        alone = run_verification(chart, explicit, seed=42, samples=10, checks=[check])
        assert [c.to_dict() for c in alone.checks] == [entries[check]], check


@pytest.mark.parametrize("s", [1, 3, 7, 12])
def test_gated_checks_skip_their_whole_budget(s):
    chart, explicit = builtin_chart("nonisotropic-cubic")
    report = run_verification(chart, explicit, seed=42, samples=s)
    expected = {
        "slide-identity": s,
        "slide-identity-alt-chart": s,
        "slide-identity-symbolic": min(5, s),
        "pencil-split": max(1, s // 5),
        "splitting-type": max(1, s // 5),
        "family-dimension": 1,
        "boundary-cosets": s,
        "group-action": max(1, s // 2),
        "equivariance": max(1, s // 2),
        "line-boundary": max(1, s // 2),
    }
    skips = {c.name: (c.samples, c.skips) for c in report.checks if c.name in expected}
    assert skips == {name: (count, count) for name, count in expected.items()}


def test_isotropy_tally_counts_pairs_before_and_after_the_witness():
    """The form e2^e5 vanishes on (value, first partial) of the conic
    surface but not on (value, second partial): the certificate stops at
    the second of three frame pairs."""
    chart = veronese_chart(3, 2, "conic-surface")
    omega = OmegaForm.from_entries(chart.ambient_dim, 1, [(2, 5, (Q(1),))])
    report = run_verification(chart, omega, samples=2, checks=["isotropy"])
    assert [c.to_dict() for c in report.checks] == [
        {
            "name": "isotropy",
            "samples": 3,
            "passes": 1,
            "skips": 1,
            "failures": 1,
            "witness": "frame pair (0, 2) at point (0,1) maps to (1)",
        }
    ]


def test_rank_deficient_pencil_passes_split_and_fails_splitting_type(monkeypatch):
    """A linear pencil whose combined frames drop rank: pencil-split holds,
    and splitting-type fails with the rank witness."""
    monkeypatch.setattr(fam, "check_splitting_type", lambda *frames: False)
    chart, explicit = builtin_chart("flat-conic")
    checks = ["pencil-split", "splitting-type"]
    report = run_verification(chart, explicit, samples=10, checks=checks)
    assert [c.to_dict() for c in report.checks] == [
        {
            "name": "pencil-split",
            "samples": 2,
            "passes": 2,
            "skips": 0,
            "failures": 0,
            "witness": None,
        },
        {
            "name": "splitting-type",
            "samples": 2,
            "passes": 0,
            "skips": 0,
            "failures": 2,
            "witness": "combined pencil frames drop rank",
        },
    ]


def test_levi_bracket_leaving_the_center_is_a_failure(monkeypatch):
    """A field that is not left-invariant makes the bracket leave the center;
    levi-tensor records that as a failed sample, not a traceback."""
    invariant_field = meta._invariant_field

    def drifting_field(omega, direction, z_w):
        coeffs = invariant_field(omega, direction, z_w)
        coeffs[0] = coeffs[0] + z_w[0]
        return coeffs

    monkeypatch.setattr(meta, "_invariant_field", drifting_field)
    chart, explicit = builtin_chart("flat-conic")
    report = run_verification(chart, explicit, samples=3, checks=["levi-tensor"])
    assert [c.to_dict() for c in report.checks] == [
        {
            "name": "levi-tensor",
            "samples": 3,
            "passes": 0,
            "skips": 0,
            "failures": 3,
            "witness": "field bracket left the center",
        }
    ]
    assert not report.passed


def test_a_wrongly_scaled_field_fails_the_levi_tensor_check(monkeypatch):
    """Fields scaled by 2 have a bracket of 4 form(u, v): the check holds
    the increment derivative of the field formula against the form."""
    invariant_field = meta._invariant_field
    monkeypatch.setattr(
        meta, "_invariant_field", lambda *args: [2 * c for c in invariant_field(*args)]
    )
    chart, explicit = builtin_chart("veronese-2-3")
    report = run_verification(chart, explicit, samples=3, checks=["levi-tensor"])
    assert [c.to_dict() for c in report.checks] == [
        {
            "name": "levi-tensor",
            "samples": 3,
            "passes": 0,
            "skips": 0,
            "failures": 3,
            "witness": "field bracket disagrees with the form",
        }
    ]
    assert not report.passed


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process.
    It takes no initializer, so a pool can hand its workers their state
    only through the mapped callable."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, samples, workers",
    [(64, 2, 6, 2), (64, 8, 3, 3), (2, 8, 6, 2), (64, None, 6, None), (1, 8, 6, None)],
)
def test_slide_pool_is_clamped(monkeypatch, jobs, cpus, samples, workers):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda **kw: _InlineExecutor(sizes, **kw)
    )
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    chart, explicit = builtin_chart("flat-conic")
    checks = ["slide-identity", "slide-identity-alt-chart"]
    pooled = run_verification(chart, explicit, samples=samples, checks=checks, jobs=jobs)
    assert sizes == ([workers] * 2 if workers else [])
    serial = run_verification(chart, explicit, samples=samples, checks=checks)
    assert pooled.to_json() == serial.to_json()


def test_importing_the_cli_loads_no_process_pool():
    """Only a pool of --jobs above 1 needs concurrent.futures, and with it
    multiprocessing: a fresh interpreter that imports the CLI loads neither."""
    src = str(Path(runner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, metaline.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_symbolic_variant_reports_a_failed_pull_back(monkeypatch):
    def escape(*args):
        raise NotInSpan((Q(1),))

    monkeypatch.setattr(fam, "check_slide_identity", escape)
    chart, explicit = builtin_chart("flat-conic")
    report = run_verification(chart, explicit, samples=5, checks=["slide-identity-symbolic"])
    assert [c.to_dict() for c in report.checks] == [
        {
            "name": "slide-identity-symbolic",
            "samples": 5,
            "passes": 0,
            "skips": 0,
            "failures": 5,
            "witness": "shift escaped the basepoint-variation image (1,...)",
        }
    ]


def test_symbolic_variant_reports_a_derivative_disagreement(monkeypatch):
    """A closed-form derivative off by one entry at slide zero only: the
    witness names that slide, after the sample's own slide agreed."""
    closed_form = fam.direction_variation

    def perturbed(omega, frame, plane, delta, t):
        mat = closed_form(omega, frame, plane, delta, t)
        if t != 0:
            return mat
        entries = [list(row) for row in mat.entries]
        entries[0][0] += 1
        return Mat(entries)

    monkeypatch.setattr(fam, "direction_variation", perturbed)
    chart, explicit = builtin_chart("flat-conic")
    report = run_verification(chart, explicit, samples=5, checks=["slide-identity-symbolic"])
    assert [c.to_dict() for c in report.checks] == [
        {
            "name": "slide-identity-symbolic",
            "samples": 5,
            "passes": 0,
            "skips": 0,
            "failures": 5,
            "witness": "closed-form and symbolic derivatives disagree at slide 0",
        }
    ]


@pytest.mark.parametrize(
    "name, spans_w", [("veronese-2-3", False), ("veronese-3-3", False), ("flat-linear", True)]
)
def test_escape_vector_is_the_first_unit_vector_off_the_frame(name, spans_w):
    chart, _ = builtin_chart(name)
    sampler = RationalSampler(5)
    units = [
        ([int(j == i) for j in range(chart.ambient_dim)], 1) for i in range(chart.ambient_dim)
    ]
    for _ in range(10):
        param = sampler.vector(chart.param_dim)
        try:
            frame = affine_tangent_frame(chart.frame_integers(param), param)
        except FrameDegenerate:
            continue
        # independent of in_tangent_span: e_i escapes when it raises the rank
        rows = rational_rows(*frame, chart.ambient_dim)
        rank = Mat(rows).rank()
        expected = next((e for e in units if Mat(rows + [e[0]]).rank() > rank), None)
        assert runner._escape_vector(frame, chart.ambient_dim) == expected
        assert (expected is None) == spans_w


def test_each_boundary_sample_builds_one_tangent_frame(monkeypatch):
    """A boundary point carries its fiber, and only boundary points and
    slide configurations reduce tangent frames: every affine_tangent_frame
    call, at every module that binds it, comes from
    compactification.boundary_point, which reduces its frame exactly
    once, or from the runner's slide configurations, which test each
    frame once for the three slide checks.  A chart sample reduces its
    frame once, as the fiber that tests its rank, degenerate or not, and
    every boundary point of the sample is taken in that fiber: one frame
    per sample."""
    built = []
    reductions = []
    per_point = []
    original_frame = varieties.affine_tangent_frame
    original_point = comp.boundary_point
    original_rref = linalg._rref

    def counting_frame(frame, point):
        built.append(sys._getframe(1).f_code)
        return original_frame(frame, point)

    def counting_point(*args):
        before = len(reductions)
        try:
            return original_point(*args)
        finally:
            per_point.append(len(reductions) - before)

    def counting_rref(rows, ncols):
        reductions.append(ncols)
        return original_rref(rows, ncols)

    for name, module in list(sys.modules.items()):
        binds = vars(module).get("affine_tangent_frame") is original_frame
        if name.split(".")[0] == "metaline" and binds:
            monkeypatch.setattr(module, "affine_tangent_frame", counting_frame)
    monkeypatch.setattr(comp, "boundary_point", counting_point)
    monkeypatch.setattr(linalg, "_rref", counting_rref)
    checks = ["boundary-cosets", "group-action", "equivariance", "line-boundary"]
    chart, explicit = builtin_chart("flat-conic")
    report = run_verification(chart, explicit, samples=10, checks=checks)
    assert report.passed
    assert len(built) == sum(c.samples for c in report.checks) > 0
    assert set(built) == {original_point.__code__}
    assert per_point == [1] * len(built)

    del built[:]
    chart, explicit = builtin_chart("veronese-2-3")
    assert run_verification(chart, explicit, samples=10).passed
    # 10 coset, 5 action, 5 equivariance, 5 line and 2 pencil samples, and
    # 10 slide configurations
    assert len(built) == 27 + 10
    slide_cfgs = runner._Run.slide_cfgs.func.__code__
    assert set(built) == {original_point.__code__, slide_cfgs}


def test_the_boundary_checks_reduce_each_chart_point_once(monkeypatch):
    """Guard: across the four boundary checks the frame reductions (every
    _rref call, the form given so that building it reduces nothing) number
    at most the chart parameters drawn, one per sample: flat-conic's frame
    never spans W, so no coset sample draws a second parameter.  Every
    point the chart is evaluated at is one of them and is reduced.  The
    bound counts draws, not distinct values: the sampler repeats a
    parameter now and then, and each sample reduces its own frame."""
    chart, _ = builtin_chart("flat-conic")
    omega = build_omega(chart).omega
    reductions = []
    points = set()
    original_rref = linalg._rref
    original_rows = varieties.VarietyChart._integer_rows

    def counting_rref(rows, ncols):
        reductions.append(ncols)
        return original_rref(rows, ncols)

    def recording_rows(chart, point, rows):
        point = tuple(point)
        points.add(point)
        return original_rows(chart, point, rows)

    monkeypatch.setattr(linalg, "_rref", counting_rref)
    monkeypatch.setattr(varieties.VarietyChart, "_integer_rows", recording_rows)
    checks = ["boundary-cosets", "group-action", "equivariance", "line-boundary"]
    report = run_verification(chart, omega, samples=50, checks=checks)
    assert report.passed
    drawn = sum(c.samples for c in report.checks)
    assert 0 < len(points) <= len(reductions) <= drawn


def _counting_chart_evaluations(monkeypatch):
    """Calls of the chart evaluator, VarietyChart._integer_rows."""
    calls = []
    original = varieties.VarietyChart._integer_rows

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(varieties.VarietyChart, "_integer_rows", counting)
    return calls


@pytest.mark.parametrize(
    "checks",
    [
        ["slide-identity"],
        ["slide-identity-alt-chart"],
        ["pencil-split", "splitting-type"],
        ["boundary-cosets"],
        ["equivariance"],
        ["line-boundary"],
    ],
)
def test_a_chart_sample_evaluates_the_chart_once(checks, monkeypatch):
    """Guard: a slide sample evaluates the chart once, to test its frame,
    and its kernels take that frame; a pencil, coset, equivariance or
    line-boundary sample evaluates it once for its fiber, and its kernels
    and marked points take the fiber's frame.  (The symbolic oracle
    evaluates the chart itself.)  veronese-2-3's frame never spans W, so
    no coset sample draws a second fiber."""
    chart, _ = builtin_chart("veronese-2-3")
    omega = build_omega(chart).omega
    calls = _counting_chart_evaluations(monkeypatch)
    report = run_verification(chart, omega, samples=10, checks=checks)
    assert report.passed
    assert 0 < len(calls) <= report.checks[0].samples


@pytest.mark.parametrize("name, points", [("veronese-2-3", 1), ("degenerate-frame.json", 10)])
def test_a_family_dimension_point_evaluates_the_chart_once(name, points, monkeypatch):
    """Guard: each scanned family-dimension point evaluates the chart once,
    and family_dimension takes that frame.  veronese-2-3 reaches the bound
    at its first point; degenerate-frame.json stays below it at all ten."""
    if name.endswith(".json"):
        data = json.loads((Path(__file__).parent / "fixtures" / name).read_text())
        chart = varieties.chart_from_json(data)
    else:
        chart, _ = builtin_chart(name)
    omega = build_omega(chart).omega
    scanned = []
    original = fam.family_dimension
    monkeypatch.setattr(fam, "family_dimension", lambda *a: scanned.append(a) or original(*a))
    calls = _counting_chart_evaluations(monkeypatch)
    run_verification(chart, omega, seed=43, samples=1, checks=["family-dimension"])
    assert len(scanned) == points
    assert len(calls) == points


@pytest.mark.parametrize(
    "check, builds",
    [
        ("slide-identity", 2),
        ("slide-identity-alt-chart", 2),
        ("pencil-split", 6),
        ("family-dimension", 1),
    ],
)
def test_a_line_sample_builds_its_plane_once(check, builds, monkeypatch):
    """Guard: one slide, pencil or family-dimension sample builds the rows
    of its line's plane once, for family_geometry.line_planes, and the
    kernels take that plane; rows are built again only at a slid point:
    one for the slide identity (the alt chart takes the next plane of the
    same rows) and five for the pencil's slides."""
    chart, _ = builtin_chart("veronese-2-3")
    omega = build_omega(chart).omega
    calls = []
    original = fam.line_matrix_rows
    monkeypatch.setattr(fam, "line_matrix_rows", lambda *a: calls.append(a) or original(*a))
    report = run_verification(chart, omega, seed=43, samples=1, checks=[check])
    assert report.passed and report.checks[0].samples == 1
    assert len(calls) == builds
