"""Acceptance gate: every contract criterion, exact arithmetic, zero tolerance.

Each test prints one PASS line on success; a failure raises with the
offending values.  Runtime ceilings are asserted where the contract
states them.
"""

import json
import time

import pytest

from conftest import HEISENBERG, form_from_table, sl2_exterior_square_dims
from metaline.cli import main as cli_main
from metaline.metabelian import (
    associativity_holds,
    commutator_matches_bracket,
    element,
    levi_tensor,
)
from metaline.omega_builder import build_omega
from metaline.runner import run_verification
from metaline.sampling import RationalSampler
from metaline.varieties import builtin_chart, certify_isotropic

ISOTROPIC_FIXTURES = (
    "veronese-2-3",
    "veronese-2-4",
    "veronese-3-3",
    "veronese3-of-conic",
    "flat-conic",
    "flat-linear",
)


def _report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")


def _random_form(dim_w, dim_u, seed):
    sampler = RationalSampler(seed)
    table = [sampler.vector(dim_u) for _ in range(dim_w * (dim_w - 1) // 2)]
    return form_from_table(dim_w, dim_u, table)


def test_criterion_1_metabelian_axioms(fixture_cache):
    start = time.monotonic()
    forms = [
        HEISENBERG,
        fixture_cache("veronese-2-3")[1],
        fixture_cache("veronese-2-4")[1],
        _random_form(10, 5, seed=61),
    ]
    for form in forms:
        assert form.dim_w <= 10 and form.dim_u <= 5
        assert associativity_holds(form)
        assert commutator_matches_bracket(form)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report("1 metabelian axioms", f"{len(forms)} forms, {elapsed:.2f}s")


def test_criterion_2_levi_tensor(fixture_cache):
    start = time.monotonic()
    fixtures = ("veronese-2-3", "veronese-2-4", "flat-conic")
    for name in fixtures:
        _, omega, _ = fixture_cache(name)
        sampler = RationalSampler(67).derive(name)
        for _ in range(50):
            x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
            u = sampler.vector(omega.dim_w)
            v = sampler.vector(omega.dim_w)
            assert levi_tensor(omega, x, u, v) == tuple(omega.apply(u, v))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report("2 levi tensor", f"50 samples x {len(fixtures)} fixtures, {elapsed:.2f}s")


def test_criterion_3_isotropy_certificates(fixture_cache):
    start = time.monotonic()
    for name in ISOTROPIC_FIXTURES:
        chart, omega, _ = fixture_cache(name)
        certificate = certify_isotropic(chart, omega)
        assert certificate.proven, name
    chart, omega, _ = fixture_cache("nonisotropic-cubic")
    certificate = certify_isotropic(chart, omega)
    assert not certificate.proven
    assert certificate.witness is not None
    assert any(v != 0 for v in certificate.witness.values)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    _report("3 isotropy certificates", f"6 proven + 1 witnessed, {elapsed:.2f}s")


def test_criterion_4_example_dimensions():
    cubic_chart, _ = builtin_chart("veronese-2-3")
    quartic_chart, _ = builtin_chart("veronese-2-4")
    cubic_dims = set()
    quartic_dims = set()
    for seed in (42, 7, 1234):
        c = build_omega(cubic_chart, seed=seed)
        cubic_dims.add((c.dim_w_prime, c.omega.dim_u))
        q = build_omega(quartic_chart, seed=seed)
        quartic_dims.add((q.dim_w_prime, q.omega.dim_u))
    oracle3 = sl2_exterior_square_dims(3)
    oracle4 = sl2_exterior_square_dims(4)
    assert cubic_dims == {(5, 1)} == {(oracle3[0], sum(oracle3[1:]))}
    assert quartic_dims == {(7, 3)} == {(oracle4[0], sum(oracle4[1:]))}
    _report("4 example dimensions", "W'=5 U=1 and W'=7 U=3, 3 seeds")


@pytest.mark.parametrize("name", ISOTROPIC_FIXTURES)
def test_criterion_5_slide_identity(name, fixture_cache):
    start = time.monotonic()
    chart, omega, _ = fixture_cache(name)
    report = run_verification(
        chart,
        omega,
        seed=42,
        samples=100,
        checks=["slide-identity", "slide-identity-alt-chart", "slide-identity-symbolic"],
    )
    by_name = {c.name: c for c in report.checks}
    assert by_name["slide-identity"].passes == 100
    assert by_name["slide-identity-alt-chart"].passes == 100
    assert by_name["slide-identity-symbolic"].passes == 5
    for check in report.checks:
        assert check.failures == 0 and check.skips == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report("5 slide identity", f"{name}: 100+100+5 samples, {elapsed:.2f}s")


@pytest.mark.parametrize("name", ISOTROPIC_FIXTURES)
def test_criterion_6_tensor_split(name, fixture_cache):
    chart, omega, _ = fixture_cache(name)
    report = run_verification(
        chart, omega, seed=42, samples=100, checks=["pencil-split", "splitting-type"]
    )
    for check in report.checks:
        assert check.samples == 20
        assert check.passes == 20
        assert check.failures == 0 and check.skips == 0
    _report("6 tensor split", f"{name}: linear pencil and rank witness")


def test_criterion_7_family_dimension(fixture_cache):
    for name in ISOTROPIC_FIXTURES:
        chart, omega, _ = fixture_cache(name)
        report = run_verification(
            chart, omega, seed=42, samples=10, checks=["family-dimension"]
        )
        check = report.checks[0]
        assert check.failures == 0, f"{name}: {check.witness}"
        expected = report.dims["n"] - 1 + report.dims["d"]
        assert report.dims["familyDim"] == expected
    _report("7 family dimension", "rank n-1+d on all six fixtures")


def test_criterion_8_compactification(fixture_cache):
    start = time.monotonic()
    for name in ("veronese-2-3", "flat-conic"):
        chart, omega, _ = fixture_cache(name)
        report = run_verification(
            chart,
            omega,
            seed=42,
            samples=100,
            checks=["boundary-cosets", "equivariance", "line-boundary", "group-action"],
        )
        by_name = {c.name: c for c in report.checks}
        assert by_name["boundary-cosets"].samples == 100
        assert by_name["equivariance"].samples == 50
        for check in report.checks:
            assert check.failures == 0 and check.skips == 0, (name, check.name)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    _report("8 compactification", f"100 coset pairs, 50 group elements, {elapsed:.2f}s")


def test_criterion_9_determinism(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(["verify", "builtin:veronese-2-3", "--out", str(first)]) == 0
    assert cli_main(["verify", "builtin:veronese-2-3", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["verdict"] == "pass"
    runs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        args = ["verify", "builtin:flat-conic", "--format", "text", "--out", str(path)]
        assert cli_main(args) == 0
        runs.append(path.read_bytes())
    capsys.readouterr()
    assert runs[0] == runs[1]
    _report("9 determinism", "byte-identical reports, json and text")
