import json

from metaline.report import CheckResult, VerificationReport


def _report():
    report = VerificationReport(
        label="demo", seed=42, samples=10, dims={"dimW": 3, "dimU": 0}
    )
    report.checks.append(CheckResult("alpha", 10, 10))
    report.checks.append(CheckResult("beta", 10, 8, skips=2, witness="skip: test"))
    return report


def test_failures_arithmetic():
    result = CheckResult("x", 10, 7, skips=1)
    assert result.failures == 2
    assert CheckResult("y", 5, 5).failures == 0


def test_verdict():
    report = _report()
    assert report.passed
    report.checks.append(CheckResult("gamma", 3, 2, witness="broken"))
    assert not report.passed
    assert json.loads(report.to_json())["verdict"] == "fail"


def test_json_is_byte_stable_and_excludes_wall_time():
    a = _report()
    b = _report()
    a.wall_time = 1.23
    b.wall_time = 99.9
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert "wall" not in a.to_json().lower()
    assert payload["label"] == "demo"
    assert payload["checks"][0] == {
        "name": "alpha",
        "samples": 10,
        "passes": 10,
        "skips": 0,
        "failures": 0,
        "witness": None,
    }


def test_json_keys_sorted():
    text = _report().to_json()
    top = list(json.loads(text))
    assert top == sorted(top)


def test_text_rendering():
    report = _report()
    report.wall_time = 0.5
    text = report.to_text()
    assert "alpha" in text and "beta" in text
    assert "verdict: pass" in text
    assert "wall" not in text.lower()
    assert "witness: skip: test" in text


def test_a_check_that_skipped_every_sample_fails_the_verdict():
    """A check that drew samples and skipped them all proves nothing, so
    the run fails; its row keeps its counts and no failure is added."""
    report = _report()
    report.checks.append(CheckResult("gamma", 4, 0, skips=4, witness="skip: all"))
    assert report.checks[-1].failures == 0
    assert not report.passed
    assert json.loads(report.to_json())["verdict"] == "fail"
    assert report.to_text().endswith("verdict: fail\n")
