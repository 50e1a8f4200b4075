import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metaline
from metaline.cli import main
from metaline.lines import boundary_direction, line_through
from metaline.metabelian import OmegaForm, element
from metaline.polynomials import MAX_DEGREE
from metaline.scalars import parse_rational, qstr
from metaline.varieties import omega_from_json


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_verify_passes_and_emits_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        "verify", "builtin:veronese-2-3", "--samples", "20", "--out", str(out),
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "pass"
    assert payload["dims"] == {
        "dimW": 4, "dimU": 1, "dimWprime": 5, "d": 1, "n": 5, "familyDim": 5,
    }
    assert payload["seed"] == 42
    names = [c["name"] for c in payload["checks"]]
    assert "slide-identity" in names and "boundary-cosets" in names


def test_verify_is_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("verify", "builtin:flat-conic", "--samples", "15", "--out", str(a), capsys=capsys)
    run_cli("verify", "builtin:flat-conic", "--samples", "15", "--out", str(b), capsys=capsys)
    assert a.read_bytes() == b.read_bytes()


def test_verify_adversarial_exits_one(tmp_path, capsys):
    out = tmp_path / "adv.json"
    code, _, _ = run_cli(
        "verify", "builtin:nonisotropic-cubic", "--samples", "5", "--out", str(out),
        capsys=capsys,
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail"
    isotropy = next(c for c in payload["checks"] if c["name"] == "isotropy")
    assert isotropy["failures"] == 1
    assert "frame pair" in isotropy["witness"]


@pytest.mark.parametrize(
    "source, checks, rows",
    [
        (
            "builtin:nonisotropic-cubic",
            "slide-identity",
            [("slide-identity", 5, "skip: isotropy not proven")],
        ),
        (
            "diagonal",
            "slide-identity,boundary-cosets",
            [
                ("slide-identity", 5, "skip: degenerate frame"),
                ("boundary-cosets", 5, "skip: degenerate frame"),
            ],
        ),
    ],
)
def test_a_check_that_skipped_every_sample_fails_the_run(tmp_path, capsys, source, checks, rows):
    """A selected check that skipped every sample proves nothing, so the run
    exits 1; its row still counts the skips and no failure."""
    if source == "diagonal":  # every frame of (t, t, t) is degenerate
        source = tmp_path / "diagonal.json"
        source.write_text(json.dumps({"label": "diag", "variables": ["t"], "coordinates": ["t"] * 3}))
    code, out, _ = run_cli(
        "verify", str(source), "--checks", checks, "--samples", "5", capsys=capsys
    )
    payload = json.loads(out)
    assert code == 1 and payload["verdict"] == "fail"
    assert payload["checks"] == [
        {"name": name, "samples": n, "passes": 0, "skips": n, "failures": 0, "witness": witness}
        for name, n, witness in rows
    ]


def test_verify_text_format(capsys):
    code, out, _ = run_cli(
        "verify", "builtin:flat-conic", "--samples", "10", "--format", "text",
        capsys=capsys,
    )
    assert code == 0
    assert "verdict: pass" in out
    assert "wall time:" not in out


def test_verify_checks_filter(tmp_path, capsys):
    out = tmp_path / "f.json"
    code, _, _ = run_cli(
        "verify", "builtin:veronese-2-3", "--samples", "10",
        "--checks", "group-law,levi-tensor", "--out", str(out), capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [c["name"] for c in payload["checks"]] == ["group-law", "levi-tensor"]


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run_cli("verify", "builtin:unknown", capsys=capsys)
    assert code == 2
    assert "unknown builtin" in err


def test_malformed_fixture_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x", "variables": ["s"], "coordinates": ["s +* 1"]}')
    code, _, err = run_cli("verify", str(bad), capsys=capsys)
    assert code == 2
    assert "malformed" in err


def test_fixture_that_is_not_an_object_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    code, _, err = run_cli("info", str(bad), capsys=capsys)
    assert code == 2
    assert err.count("\n") == 1 and "malformed: fixture must be an object, got [1]" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli("info", "no-such-file.json", capsys=capsys)
    assert code == 2
    assert "cannot read" in err


def test_fixture_file_with_explicit_omega(tmp_path, capsys):
    fixture = tmp_path / "heis.json"
    fixture.write_text(json.dumps({
        "label": "heis-line",
        "variables": ["s"],
        "coordinates": ["1", "s"],
        "omega": {"dimU": 1, "entries": [{"i": 0, "j": 1, "uVector": ["1"]}]},
    }))
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        "verify", str(fixture), "--samples", "5", "--out", str(out), capsys=capsys
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["dims"]["dimWprime"] is None
    isotropy = next(c for c in payload["checks"] if c["name"] == "isotropy")
    assert isotropy["failures"] == 1


def test_info_output(capsys):
    code, out, _ = run_cli("info", "builtin:veronese-3-3", capsys=capsys)
    assert code == 0
    assert "dimW:        10" in out
    assert "d:           2" in out
    assert "dimLambda2W: 45" in out
    assert "dimWprime:   35" in out
    assert "familyDim:   21" in out


def test_info_out_writes_the_stdout_bytes(tmp_path, capsys):
    out = tmp_path / "info.txt"
    code, printed, _ = run_cli("info", "builtin:flat-conic", capsys=capsys)
    code_out, printed_out, _ = run_cli(
        "info", "builtin:flat-conic", "--out", str(out), capsys=capsys
    )
    assert code == code_out == 0 and printed_out == ""
    assert out.read_bytes() == printed.encode()


def test_out_over_a_longer_file_leaves_exactly_the_output(tmp_path, capsys):
    out = tmp_path / "info.txt"
    out.write_bytes(b"x" * 100_000)
    _, printed, _ = run_cli("info", "builtin:flat-conic", capsys=capsys)
    assert run_cli("info", "builtin:flat-conic", "--out", str(out), capsys=capsys)[0] == 0
    assert out.read_bytes() == printed.encode()


def test_out_to_dev_null_exits_zero(capsys):
    code, printed, _ = run_cli(
        "verify", "builtin:flat-conic", "--samples", "2", "--out", os.devnull, capsys=capsys
    )
    assert code == 0 and printed == ""


def test_out_through_a_symlink_updates_the_target(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("old contents, longer than the report would be" * 10)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    _, printed, _ = run_cli("info", "builtin:flat-conic", capsys=capsys)
    run_cli("info", "builtin:flat-conic", "--out", str(link), capsys=capsys)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == printed.encode()


def test_repeated_out_keeps_bytes_and_mode(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ("verify", "builtin:flat-conic", "--samples", "2", "--out", str(out))
    run_cli(*argv, capsys=capsys)
    first = out.read_bytes()
    out.chmod(0o640)
    run_cli(*argv, capsys=capsys)
    assert out.read_bytes() == first
    assert out.stat().st_mode & 0o777 == 0o640


def test_form_failing_its_own_kernel_exits_one(monkeypatch, capsys):
    """A constructed form that does not vanish on W' is an internal fault:
    one line and exit 1, for every command that builds the form."""
    monkeypatch.setattr(OmegaForm, "on_wedge", lambda self, vector: [1] * self.dim_u)
    for command in ("verify", "info", "build-omega", "sample-line"):
        code, out, err = run_cli(command, "builtin:veronese-2-3", capsys=capsys)
        assert code == 1 and out == ""
        assert err == "error: form failed to vanish on its own kernel basis\n"


_EXPLICIT_FORM_FIXTURE = str(Path(__file__).parent / "fixtures" / "veronese-2-4-summed-form.json")


@pytest.mark.parametrize(
    "source", ["builtin:veronese-2-3", "builtin:nonisotropic-cubic", _EXPLICIT_FORM_FIXTURE]
)
def test_info_prints_the_verify_dims(capsys, source):
    """info and verify read their dimensions from one function, for a
    constructed form and for an explicit one."""
    code, out, _ = run_cli("info", source, capsys=capsys)
    assert code == 0
    info = dict(line.split(":", 1) for line in out.splitlines())
    info = {key: value.strip() for key, value in info.items()}
    _, report, _ = run_cli(
        "verify", source, "--checks", "isotropy", "--samples", "1", capsys=capsys
    )
    dims = json.loads(report)["dims"]
    explicit = dims["dimWprime"] is None
    assert explicit == (source != "builtin:veronese-2-3")
    expected = {key: str(value) for key, value in dims.items()}
    if explicit:
        expected["dimWprime"] = "n/a (explicit form)"
    assert {key: info[key] for key in expected} == expected


def test_info_quartic(capsys):
    code, out, _ = run_cli("info", "builtin:veronese-2-4", capsys=capsys)
    assert code == 0
    assert "dimW:        5" in out
    assert "dimLambda2W: 10" in out


def test_build_omega_golden(capsys):
    code, out, _ = run_cli("build-omega", "builtin:veronese-2-3", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimW"] == 4
    assert payload["dimU"] == 1
    assert payload["dimWprime"] == 5
    assert len(payload["wPrimeBasis"]) == 5
    assert len(payload["omegaTable"]) == 6
    # frozen table of the twisted cubic's invariant pairing
    assert payload["omegaTable"] == [["0"], ["0"], ["-1/3"], ["1"], ["0"], ["0"]]
    # the construction draws no samples, so no seed is echoed
    assert "seed" not in payload


def test_sampled_commands_take_a_seed(capsys):
    code, out, _ = run_cli(
        "verify", "builtin:flat-conic", "--samples", "2", "--seed", "5", capsys=capsys
    )
    assert code == 0 and json.loads(out)["seed"] == 5
    five, seven = (
        run_cli("sample-line", "builtin:flat-conic", "--seed", seed, capsys=capsys)
        for seed in ("5", "7")
    )
    assert five[0] == seven[0] == 0 and five[1] != seven[1]


@pytest.mark.parametrize("command", ["info", "build-omega"])
def test_unsampled_commands_take_no_seed(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "builtin:flat-conic", "--seed", "5"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_sample_line_output(capsys):
    code, out, _ = run_cli(
        "sample-line", "builtin:veronese-2-3", "--param", "1",
        "--base", "1,0,0,0,0", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["canonicalDirection"] == ["1", "1", "1", "1"]
    assert payload["parametrization"][0] == "t + 1"
    assert payload["boundaryPoint"]["param"] == ["1"]
    assert len(payload["plueckerVector"]) == 15


def test_sample_line_defaults_are_deterministic(capsys):
    code_a, out_a, _ = run_cli("sample-line", "builtin:flat-conic", capsys=capsys)
    code_b, out_b, _ = run_cli("sample-line", "builtin:flat-conic", capsys=capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sample_line_uses_the_fixture_form(capsys):
    """A fixture's explicit form is the form of the line: its dimU is 1,
    where the form constructed from the same chart has dimU 3."""
    data = json.loads(Path(_EXPLICIT_FORM_FIXTURE).read_text())
    omega = omega_from_json(5, data["omega"])
    base = ("1", "0", "2", "0", "-1", "3")
    code, out, _ = run_cli(
        "sample-line", _EXPLICIT_FORM_FIXTURE, "--param", "2", "--base", ",".join(base),
        capsys=capsys,
    )
    assert code == 0
    x = element(omega, [parse_rational(c) for c in base[:5]], [parse_rational(base[5])])
    line = line_through(omega, x, ((1, 2, 4, 8, 16), 1))
    payload = json.loads(out)
    assert payload["canonicalBase"] == [qstr(c) for c in line.base.coords]
    assert payload["boundaryDirection"] == [qstr(c) for c in boundary_direction(omega, line)]


def test_sample_line_rejects_bad_arity(capsys):
    code, _, err = run_cli(
        "sample-line", "builtin:veronese-2-3", "--param", "1,2", capsys=capsys
    )
    assert code == 2
    assert "coordinates" in err or "parameter" in err


@pytest.mark.parametrize("flag", ["--param", "--base"])
def test_sample_line_rejects_an_empty_point(capsys, flag):
    """An empty --param or --base is a malformed point, never a request
    for a random one."""
    code, printed, err = run_cli("sample-line", "builtin:veronese-2-3", flag, "", capsys=capsys)
    assert code == 2 and printed == ""
    assert err == "error: not a rational literal: ''\n"


def test_console_script_entry_point():
    # the child imports the same package as this test, installed or not
    src = str(Path(metaline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "metaline.cli", "info", "builtin:flat-conic"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "dimU:        0" in proc.stdout


def test_jobs_flag_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "serial.json"
    b = tmp_path / "parallel.json"
    run_cli("verify", "builtin:veronese-2-3", "--samples", "12", "--out", str(a), capsys=capsys)
    run_cli(
        "verify", "builtin:veronese-2-3", "--samples", "12", "--jobs", "2",
        "--out", str(b), capsys=capsys,
    )
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "flag, value", [("--samples", "-3"), ("--samples", "0"), ("--jobs", "0"), ("--jobs", "-1")]
)
def test_verify_rejects_budgets_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "r.json"
    code, _, err = run_cli(
        "verify", "builtin:flat-conic", flag, value, "--out", str(out), capsys=capsys
    )
    assert code == 2
    assert err.count("\n") == 1 and flag in err
    assert not out.exists()


_COMMAND_ARGS = {
    "verify": ["--samples", "2"],
    "info": [],
    "build-omega": [],
    "sample-line": [],
}


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_two(tmp_path, capsys, command, target):
    out = tmp_path / "no-such-dir" / "x" if target == "missing-dir" else tmp_path
    code, _, err = run_cli(
        command, "builtin:flat-conic", *_COMMAND_ARGS[command], "--out", str(out), capsys=capsys
    )
    assert code == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not (tmp_path / "no-such-dir").exists()


def test_unwritable_verify_out_fails_before_any_check(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_verification ran before --out was opened")

    monkeypatch.setattr(metaline.cli, "run_verification", no_run)
    out = tmp_path / "no-such-dir" / "x"
    code, printed, err = run_cli("verify", "builtin:flat-conic", "--out", str(out), capsys=capsys)
    assert code == 2 and printed == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_verify_with_an_empty_check_selection_exits_two(tmp_path, capsys, checks):
    out = tmp_path / "r.json"
    argv = ("verify", "builtin:flat-conic", "--checks", checks, "--out", str(out))
    code, printed, err = run_cli(*argv, capsys=capsys)
    assert code == 2 and printed == ""
    assert err == "error: no checks selected\n"
    assert not out.exists()


def test_verify_exiting_two_removes_the_out_file_it_created(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ("verify", "builtin:flat-conic", "--checks", "bogus", "--out", str(out))
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 2 and "bogus" in err and err.count("\n") == 1
    assert not out.exists()


def test_verify_exiting_two_keeps_an_existing_out_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_bytes(b"an earlier report\n")
    argv = ("verify", "builtin:flat-conic", "--checks", "bogus", "--out", str(out))
    assert run_cli(*argv, capsys=capsys)[0] == 2
    assert out.read_bytes() == b"an earlier report\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_out_that_fails_on_write_exits_two(capsys, command):
    code, _, err = run_cli(
        command, "builtin:flat-conic", *_COMMAND_ARGS[command], "--out", "/dev/full", capsys=capsys
    )
    assert code == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("coordinate", ["(" * 5000 + "s" + ")" * 5000, "-" * 5000 + "s"])
def test_deeply_nested_coordinate_exits_two(tmp_path, capsys, coordinate):
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps({"label": "x", "variables": ["s"], "coordinates": ["1", coordinate]}))
    code, _, err = run_cli("verify", str(bad), capsys=capsys)
    assert code == 2
    assert "malformed" in err and "nested" in err


def test_deeply_nested_fixture_exits_two(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run_cli("info", str(bad), capsys=capsys)
    assert code == 2
    assert err.count("\n") == 1 and "nested too deeply" in err


_CUBIC = {"variables": ["t"], "coordinates": ["1", "t", "t^2", "t^3"]}


def _form_with(entry):
    """The README's cubic with its isotropic form plus one more entry."""
    entries = [{"i": 0, "j": 3, "uVector": ["-1/3"]}, {"i": 1, "j": 2, "uVector": ["1"]}]
    return {**_CUBIC, "omega": {"dimU": 1, "entries": [*entries, entry]}}


@pytest.mark.parametrize("command", ["verify", "info", "sample-line"])
@pytest.mark.parametrize(
    "fixture, message",
    [
        ({"variables": [], "coordinates": ["1", "2"]}, "at least one variable"),
        ({"variables": ["t"], "coordinates": ["1", "t/0"]}, "division by zero"),
        ({"variables": ["t"], "coordinates": ["1", "t^100000"]}, "exceeds the cap"),
        ({"variables": "st", "coordinates": ["1", "s", "t"]}, "variables must be a list"),
        ({**_CUBIC, "coordinates": "1t"}, "coordinates must be a list"),
        ({"variables": ["t", "t"], "coordinates": ["1", "t"]}, "variables must be distinct"),
        ({"variables": ["x", "y", "z"], "coordinates": ["1", "(1+x+y+z)^64"]}, "terms"),
        ({**_CUBIC, "omega": {"dimU": -1, "entries": []}}, "dimU must lie in 0..6"),
        ({**_CUBIC, "omega": {"dimU": 7, "entries": []}}, "dimU must lie in 0..6"),
        ({**_CUBIC, "label": 5}, "label must be a string"),
        ({**_CUBIC, "coordinates": ["1", "t", 2]}, "coordinates must be strings"),
        ({**_CUBIC, "omega": {"dimU": 1.9, "entries": []}}, "dimU must be an integer"),
        ({**_CUBIC, "omega": {"dimU": True, "entries": []}}, "dimU must be an integer"),
        (_form_with({"i": 0.5, "j": 1.7, "uVector": [1]}), "i must be an integer"),
        (_form_with({"i": True, "j": 2, "uVector": [1]}), "i must be an integer"),
        (_form_with({"i": 0, "j": True, "uVector": [1]}), "j must be an integer"),
        (_form_with({"i": 0, "j": 2, "uVector": "1"}), "uVector must be a list"),
        (_form_with({"i": 0, "j": 2, "uVector": [True]}), "rationals, got true"),
        (_form_with({"i": 1, "j": 2, "uVector": [0]}), "entry (1, 2) is given twice"),
        ({**_CUBIC, "omega": {"dimU": 1, "entries": "ab"}}, 'entries must be a list, got "ab"'),
        (
            {**_CUBIC, "omega": {"dimU": 1, "entries": [[0, 1, [1]]]}},
            "entries[0] must be an object, got [0, 1, [1]]",
        ),
        ({**_CUBIC, "omega": [1]}, "omega must be an object, got [1]"),
        ({"variables": ["s", "t"], "coordinates": ["1", "s"]}, "not fewer than its 2 coordinates"),
    ],
)
def test_malformed_chart_exits_two(tmp_path, capsys, command, fixture, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", **fixture}))
    code, _, err = run_cli(command, str(bad), capsys=capsys)
    assert code == 2
    assert err.count("\n") == 1 and "malformed" in err and message in err


def _missing(key):
    """The cubic chart with a one-entry form, less one required key."""
    entry = {"i": 0, "j": 1, "uVector": [1]}
    omega = {"dimU": 1, "entries": [entry]}
    fixture = {"label": "x", **_CUBIC, "omega": omega}
    for part in (fixture, omega, entry):
        part.pop(key, None)
    return fixture


@pytest.mark.parametrize("key", ["label", "variables", "coordinates", "dimU", "i", "j", "uVector"])
def test_fixture_missing_a_key_exits_two(tmp_path, capsys, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_missing(key)))
    code, _, err = run_cli("info", str(bad), capsys=capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.rstrip().endswith(f"is malformed: {key} is missing")


@pytest.mark.parametrize("command", ["verify", "info", "build-omega", "sample-line"])
def test_chart_past_the_coordinate_cap_exits_two(tmp_path, capsys, command):
    curve = tmp_path / "moment-32.json"
    coordinates = ["1"] + [f"t^{k}" for k in range(1, 33)]
    fixture = {"label": "moment-32", "variables": ["t"], "coordinates": coordinates}
    curve.write_text(json.dumps(fixture))
    code, _, err = run_cli(command, str(curve), capsys=capsys)
    assert code == 2
    assert err.count("\n") == 1 and "malformed" in err and "33 coordinates, more than 32" in err


@pytest.mark.parametrize("command", ["verify", "info", "build-omega", "sample-line"])
@pytest.mark.parametrize(
    "fixture, message",
    [
        (
            {"variables": ["t"], "coordinates": ["1", "t", "((2^64)^64)^64*t^2", "t^3"]},
            "coefficients of up to 4160 bits exceed the cap of 1024",
        ),
        ({"variables": ["t", ""], "coordinates": ["1", "t", "t^2"]}, "variable '' is not a name"),
        ({"variables": ["2t"], "coordinates": ["1", "t", "t^2"]}, "variable '2t' is not a name"),
        ({"variables": ["a b"], "coordinates": ["1", "a", "a^2"]}, "variable 'a b' is not a name"),
        (
            {"variables": ["t"], "coordinates": ["1", "t", "t^" + "1" * 4401]},
            f"exponent of 4401 digits exceeds the cap of {MAX_DEGREE}",
        ),
    ],
)
def test_unreadable_chart_exits_two_at_load(tmp_path, capsys, command, fixture, message):
    """A coefficient past the bit cap, an exponent too long to convert,
    and a variable name that no coordinate could mention, stop every
    command at load."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", **fixture}))
    code, out, err = run_cli(command, str(bad), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "malformed" in err and message in err


def test_fixture_that_is_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin-1.json"
    fixture = json.dumps({"label": "caf\xe9", **_CUBIC}, ensure_ascii=False)
    bad.write_bytes(fixture.encode("latin-1"))
    code, _, err = run_cli("info", str(bad), capsys=capsys)
    assert code == 2
    assert err.count("\n") == 1 and f"fixture {str(bad)!r} is not valid JSON: 'utf-8' codec" in err


# Fixture files under tests/fixtures, with the exit code of `verify
# --samples 4` and each check's (samples, passes, skips, failures).
# Checks not listed pass every sample.
_FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURE_FILES = {
    # Charts with no coordinate equal to the bare parameter t: (1, t^2, t^3)
    # with dimU 0, and the twisted cubic after an invertible linear change
    # of coordinates, with dimU 1 and so every branch of boundary-cosets.
    "no-recovery.json": (0, {}),
    "moved-twisted-cubic.json": (0, {}),
    # Charts beyond the Veronese family: a smooth rational quartic that is
    # not a rational normal curve, veronese-2-4 after a linear change of
    # coordinates, a surface and the scroll S(2,2); the last two have d = 2.
    "rational-quartic.json": (0, {}),
    "sheared-veronese-2-4.json": (0, {}),
    "surface-s3.json": (0, {}),
    "scroll-2-2.json": (0, {}),
    # veronese-2-4 with the constructed form's three U-coordinates summed
    # into one: an explicit form, dimU 1.
    "veronese-2-4-summed-form.json": (0, {}),
    # The moment curve (1, t, ..., t^11): dimU 45 against dimW 12, so the
    # slide solve and the family rank eliminate many U unknowns.
    "moment-curve-12.json": (0, {}),
    # (1, s+t, (s+t)^2, (s+t)^3): its frame drops rank everywhere, so W'
    # is the twisted cubic's and the family falls one dimension short.
    "degenerate-frame.json": (
        1,
        {
            **{
                name: ((count, 0, count, 0), "skip: degenerate frame")
                for name, count in (
                    ("slide-identity", 4),
                    ("slide-identity-alt-chart", 4),
                    ("slide-identity-symbolic", 4),
                    ("pencil-split", 1),
                    ("splitting-type", 1),
                    ("boundary-cosets", 4),
                    ("group-action", 2),
                    ("equivariance", 2),
                    ("line-boundary", 2),
                )
            },
            "family-dimension": ((1, 0, 0, 1), "measured 5, expected 6"),
        },
    ),
}

# sha256 of each fixture's report file at seed 42, --samples 4.
FIXTURE_DIGESTS = {
    "degenerate-frame.json": "8838d1f04015a69227d902ef1896cc8b83b1e0fd6c77c4a8da78a2d4d471da8d",
    "moment-curve-12.json": "0689609f05dd165bb1c8dca4467d9b1bc287eeddafdbc7685ff7e80cee1c9fa7",
    "moved-twisted-cubic.json": "dbbd39c25d13cbdeebdc1431f34f09c45c131a1917c7592738fe2ba9e8d4b226",
    "no-recovery.json": "c912984596760aa1529b759fa7d5dc74b326f88b5f55286f30ce711b3c560371",
    "rational-quartic.json": "b94bd4736917d85014eedab87d57e8230446746579beb3acfc1163f7ec6aa54c",
    "scroll-2-2.json": "5d828996437f6f15c20d01cc5dc50608db3bfb06fe89ff5ed24fd3e67486873a",
    "sheared-veronese-2-4.json": "a62c76dec68b6c4dcefec9d6b9c9ffd8beda11e0da3cea98f28ec6da3ffeb02c",
    "surface-s3.json": "c5a5fc723eb4024089694256bae7ba5a3f0c50d49744ae311182614db25c25d7",
    "veronese-2-4-summed-form.json": (
        "b6ea98f2cedfae8e1cff7cd316e8e6b6cc7f8c09c17acfd30b7fd95911e524b9"
    ),
}


@pytest.mark.parametrize("name", sorted(p.name for p in _FIXTURE_DIR.glob("*.json")))
def test_fixture_file_verifies(tmp_path, capsys, name):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        "verify", str(_FIXTURE_DIR / name), "--samples", "4", "--out", str(out), capsys=capsys
    )
    expected_code, exceptions = FIXTURE_FILES[name]
    assert code == expected_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXTURE_DIGESTS[name]
    for check in json.loads(out.read_text())["checks"]:
        counts = tuple(check[k] for k in ("samples", "passes", "skips", "failures"))
        if check["name"] in exceptions:
            assert (counts, check["witness"]) == exceptions[check["name"]], check["name"]
        else:
            assert counts[1] == counts[0] and check["witness"] is None, check["name"]


# sha256 of the no-recovery.json report at seed 72, --samples 25.  The cusp
# (1, t^2, t^3) has a degenerate frame only at t = 0, which this run's slide
# stream draws twice and its equivariance stream once, so the bytes pin the
# draws that follow a degenerate sample.
DEGENERATE_DRAW_DIGEST = "ac9570de34b61712debe705815115d9b14de0429662e2c483d7c435955c9a071"


def test_draws_after_a_degenerate_parameter_are_pinned(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        "verify", str(_FIXTURE_DIR / "no-recovery.json"), "--seed", "72", "--samples", "25",
        "--out", str(out), capsys=capsys,
    )
    assert code == 0
    skips = {c["name"]: c["skips"] for c in json.loads(out.read_text())["checks"] if c["skips"]}
    assert skips == {"slide-identity": 2, "slide-identity-alt-chart": 2, "equivariance": 1}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEGENERATE_DRAW_DIGEST


# sha256 of each build-omega output (omegaTable, wPrimeBasis and the
# dimensions), pinned when the form was stored as a dense table of rationals.
BUILD_OMEGA_DIGESTS = {
    "builtin:flat-conic": "0ff0ad2720ac25d32afcfa0654784506329930cdfefb3771d4df1419e6f979ce",
    "builtin:flat-linear": "5e7302be617763bc209e918d055ce91fbdc3eaac5759b6126e6d59b91e81e75b",
    "builtin:nonisotropic-cubic": (
        "4ab11a4258c57c4dfda41292c07fa574ba1b36a6195ca52ae8a7eb0acb0c415d"
    ),
    "builtin:veronese-2-3": "250463a8cd28ca62a408d886ab6b3f8ec5f232eb5053d9cc8a22a963d10f92ce",
    "builtin:veronese-2-4": "46f589e232b953a1d529372b115b9b3f16dd8769ff69b785aaa7207ef832fccc",
    "builtin:veronese-3-3": "00bcbe0ec6974b1875386a96302462542488cbaa2865fdcf3499a36c1e512a1c",
    "builtin:veronese3-of-conic": (
        "3cd27b659b16f3fb200b3ac48ae7ddd2b821ed5c502fbb9ac237f313383aa3b4"
    ),
    "degenerate-frame.json": "ba3ac64e3f31b37a811c345ddd097092d28c780a086eb13ec1a354e0c6b3e3b2",
    "moment-curve-12.json": "06171789c3741a148d157ab5e5d2550ada3d0f40922b64309779f96b83c154e2",
    "moved-twisted-cubic.json": "a4d4ea76244c870ab7747399dd884cd24dad07c64866e93fe8c5f0956f00f7c9",
    "no-recovery.json": "b1c09db1d38d97bd5b5fe0e19f99612cfa930b2ea96ae2f4a3bd77025efff055",
    "rational-quartic.json": "c40cc4ed0fd8d80843c4304227a1455f7ece7a5e391a86536115c638daec881b",
    "scroll-2-2.json": "a514192d085051a317526e4a7b8eff0b3000b69f63046ec3990d9b9f50069c6d",
    "sheared-veronese-2-4.json": "1efcf66bffdb2e96698c2adee070b42046078e4eaff68ab3eff291b3faad560a",
    "surface-s3.json": "b9305045e91cf9a7091dd0e14d9129e8e3b986afc0f2afae06c9a4fdc557e718",
    "veronese-2-4-summed-form.json": (
        "c69ff38ec93bdcb41ccedea7e8c6a4b576ca9e13efdd2227723dfbac61f3a797"
    ),
}


@pytest.mark.parametrize("name", sorted(BUILD_OMEGA_DIGESTS))
def test_build_omega_bytes_are_pinned(tmp_path, capsys, name):
    """The form is stored sparse and its table built only to be printed:
    build-omega prints the bytes it printed from the dense table, on every
    builtin and fixture file (the explicit forms of fixtures are not read)."""
    source = name if name.startswith("builtin:") else str(_FIXTURE_DIR / name)
    out = tmp_path / "omega.json"
    code, _, _ = run_cli("build-omega", source, "--out", str(out), capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_OMEGA_DIGESTS[name]


# (exit code, sha256 of stdout) of info, sample-line at seed 42 and
# verify --format text --seed 42 --samples 10, on every builtin and fixture
# file: sample-line prints its parametrization through Poly arithmetic and
# Poly.format, and every digest was taken before the polynomial ring's
# results were built through one constructor.  degenerate-frame.json's
# frame drops rank at its seed-42 parameter, so sample-line exits 2 there
# and prints nothing.
INFO_DIGESTS = {
    "builtin:flat-conic": (0, "2874daa4b8a0f7e38154740b0d1d965bb882f6be1758678ede76d687632c813c"),
    "builtin:flat-linear": (0, "26a27b1ac0032c30b3fe07b9c5f00b2b57c38195b9d1837e892f0208e83a5ba7"),
    "builtin:nonisotropic-cubic": (
        0, "45994c300f195daa52e44cc31d30ec3c19b2a1b7cf3a5ed6d09eee4ecf0a612c"
    ),
    "builtin:veronese-2-3": (0, "8fe3f8ae7edb051fb57f9507d032857b549abb8e17d5527462daa4c7de25fab2"),
    "builtin:veronese-2-4": (0, "9e986288fd52b6fddf93d7ddfd2d7b86e1f0014281140ccd489ff19c60f4d61e"),
    "builtin:veronese-3-3": (0, "8c0b867ebbfc734b7977d40f3975ca4eea0f464c231653404516e4a2962221c1"),
    "builtin:veronese3-of-conic": (
        0, "84b1d84c19a4f3188945a22370f1f8f2347a4a026bd164b42deb06d888a90e30"
    ),
    "degenerate-frame.json": (
        0, "fa011e5883372aa9fe58bed0cdf38220e7246f38d239204cbeb547567bcc6223"
    ),
    "moment-curve-12.json": (0, "fb728230186f75664071672c718959850b81e946775bb2ef218497468c2d73e5"),
    "moved-twisted-cubic.json": (
        0, "cf9609c6ff2fc42790e64cdad4621e503521c0c3a6f5b867b6a73e5beebfff1d"
    ),
    "no-recovery.json": (0, "f30d22b39b36404e65f28b16cf54d6aad9de8752dbb95b2ba93d0a77c6f92e6b"),
    "rational-quartic.json": (
        0, "18dc0b7879154cd78b0fc94b04e1a1cbf5ab342b355b7d1a3f656696557c0095"
    ),
    "scroll-2-2.json": (0, "a0244948e1cf1b5a14bc9351889d03dd4e0a3eecd92df54f94f1ff1640f72c56"),
    "sheared-veronese-2-4.json": (
        0, "758a5c23eaa5641f0759e5006e86905972378adf67d6b607c3b975227b0e3369"
    ),
    "surface-s3.json": (0, "443520e1b343dab0a7927eb4e98f53ae7fce583653269f52d4d6c91a91b182d3"),
    "veronese-2-4-summed-form.json": (
        0, "c6e042371602aa360ffe109070577fee2da58fc4e0eac7cdcddf14bca15f5135"
    ),
}
SAMPLE_LINE_DIGESTS = {
    "builtin:flat-conic": (0, "038e690ba6c0d1cc1fbb2183a6c039517de668d53fed77c1041790fdf1a16bfb"),
    "builtin:flat-linear": (0, "2d3919d9b0032d12557e56716e621b8fcf93f3240f5b155a423b83698a48b04f"),
    "builtin:nonisotropic-cubic": (
        0, "a24b290bacf0e44a32d6cfa59a0d6b48a40dcc6c347058c8cce2482eee0e79f9"
    ),
    "builtin:veronese-2-3": (0, "609ed77746d1ce6e56a4a9070bcdfc93319db48d615e998d17092e0298f34530"),
    "builtin:veronese-2-4": (0, "86a95a1c1ba747067a037e5a01481c7d3773f2af251075e466609057faefd70e"),
    "builtin:veronese-3-3": (0, "a2276e07ba465fd0e5dd85aab767dc6d7095fa2985963ff386967e2641b8c394"),
    "builtin:veronese3-of-conic": (
        0, "b57322c6e9c57dc3bfafc07e99d1985cb3895f432424dd485a9e07f67bad2e6e"
    ),
    "degenerate-frame.json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    "moment-curve-12.json": (0, "aef9b9ec15b5865611901f75d82d3aceaaff98477b27de75d1ed8a5e7fbcf396"),
    "moved-twisted-cubic.json": (
        0, "140e314832bd66704ed71a5bef55de801065ddd0756a60dd8244b4ace0b59c8d"
    ),
    "no-recovery.json": (0, "16f57cb520557d11be8be69b13404b51bb34409bb6e596c58cf03c560d28d7ab"),
    "rational-quartic.json": (
        0, "a96bfe9c067d2f31c5af9f31dd7d611b7092f45738ea48cab7a7e12cffd55cd3"
    ),
    "scroll-2-2.json": (0, "49118b17a8e1910a155c5557e449238f5f289d0ab76c0a86efaa87d546943a25"),
    "sheared-veronese-2-4.json": (
        0, "7c9d0ccee1253abbb7552247ea38ba9710a0d7a3a7051138b0c195b4c07b3e68"
    ),
    "surface-s3.json": (0, "c27ae45e7b7ef55bcae408e500a5f0ae324a680fcafcf763f006aa0eb290c914"),
    "veronese-2-4-summed-form.json": (
        0, "37eb38bc1fda2031668372548a4f34e16376d590cebed499566cf55f627de47b"
    ),
}
VERIFY_TEXT_DIGESTS = {
    "builtin:flat-conic": (0, "594b2fba2a54d2476eac655cc34a7c7d395816fe36166d8e3f59d3065cc1f4ac"),
    "builtin:flat-linear": (0, "ec3f2b06b20efd1ec7373cbb473d91ceee7ee4a1fdde011943dfdc7d79046dde"),
    "builtin:nonisotropic-cubic": (
        1, "62a6d8436001a1faae2e0a581c4e7e859af852965fd9e99dada06d1caa13b57d"
    ),
    "builtin:veronese-2-3": (0, "5b0065d18431dd59ea9cdb33fa056fad97169430b38dcc0453305679ba6ad22f"),
    "builtin:veronese-2-4": (0, "3f10f5764f88fae70c676c833ddbb4b7c577186d989693c349308c59394b4bae"),
    "builtin:veronese-3-3": (0, "2308aecb1eef623b6848ca7420d441410f5ae0cbd243960b34f8f0375859a5e0"),
    "builtin:veronese3-of-conic": (
        0, "aa05c257766b33bdbf82a3f8fc829138f690b6e0e6a90bf25b48660b9e32da32"
    ),
    "degenerate-frame.json": (
        1, "ea35ef84b12616a615f5f33ea4490eff326c5c1ddb0177154f656e14df78c7b1"
    ),
    "moment-curve-12.json": (0, "93bc38ccaaf44c287a1565c2980e7d2a1ce5501a5031ec9bfca774a7d9f276d5"),
    "moved-twisted-cubic.json": (
        0, "c18b80c35d14367928d096887a69f8c71a030064d8b10991fa22b54b3967f3cb"
    ),
    "no-recovery.json": (0, "c3f2e397f10ede4b253d8262ea14565f3a963a7ab3c647dfccd91c5991510b7a"),
    "rational-quartic.json": (
        0, "3b01e50d6f31ea96d016adcc74f7287c2590b205d7632dc4e45db0b424e66576"
    ),
    "scroll-2-2.json": (0, "2b0ef8e2b65a0d48323df7a8e27bc91f06fe5dd4a3a689d05b78929d0a51016e"),
    "sheared-veronese-2-4.json": (
        0, "ef90699ac7e006e4bdb6832a497a847ad328e86fb993fa134b43525e47c1cb43"
    ),
    "surface-s3.json": (0, "6cbd866dd41faa841314cd87fdd097d99605e5918a2bb5b6d1a88cc11a21d616"),
    "veronese-2-4-summed-form.json": (
        0, "41d84e03b838d52703380f2c60c6a1cc47c736c865ca31c19e9374e6dd1c103d"
    ),
}

_PINNED_COMMANDS = {
    "info": (["info"], INFO_DIGESTS),
    "sample-line": (["sample-line", "--seed", "42"], SAMPLE_LINE_DIGESTS),
    "verify-text": (
        ["verify", "--format", "text", "--seed", "42", "--samples", "10"],
        VERIFY_TEXT_DIGESTS,
    ),
}


@pytest.mark.parametrize("command", sorted(_PINNED_COMMANDS))
@pytest.mark.parametrize("name", sorted(BUILD_OMEGA_DIGESTS))
def test_command_output_is_pinned(capsys, command, name):
    argv, digests = _PINNED_COMMANDS[command]
    source = name if name.startswith("builtin:") else str(_FIXTURE_DIR / name)
    code, out, _ = run_cli(argv[0], source, *argv[1:], capsys=capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == digests[name]
