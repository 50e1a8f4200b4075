"""Command line entry point.

Subcommands: verify (full check suite, JSON or text report), info
(dimension summary), build-omega (emit the constructed form as JSON)
and sample-line (one horizontal line end to end, as JSON).  Fixtures
are either catalog entries (builtin:NAME) or JSON files; see the
README for the file grammar.  Exit codes: 0 success, 1 a check,
certificate or internal consistency check failed or a selected check
skipped every sample, 2 an input was malformed or the output could not
be written.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager

from .compactification import boundary_point
from .linalg import pair_count, rational_rows
from .lines import ZeroDirection, boundary_direction, line_matrix_rows, line_through, pluecker_embed
from .metabelian import InternalConsistencyError, element
from .omega_builder import build_omega
from .polynomials import Poly, PolyParseError
from .runner import CHECK_NAMES, form_and_dimensions, run_verification
from .sampling import RationalSampler
from .scalars import from_integers, parse_rational, qstr
from .varieties import (
    FrameDegenerate,
    builtin_chart,
    builtin_names,
    chart_from_json,
    omega_from_json,
)


class FixtureError(Exception):
    pass


def _load_fixture(source):
    """Resolve builtin:NAME or a JSON file path to (chart, omega or None)."""
    if source.startswith("builtin:"):
        try:
            return builtin_chart(source[len("builtin:") :])
        except KeyError as exc:
            raise FixtureError(str(exc.args[0]))
    try:
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {source!r}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FixtureError(f"fixture {source!r} is not valid JSON: {exc}")
    except RecursionError:
        raise FixtureError(f"fixture {source!r} is nested too deeply")
    try:
        chart = chart_from_json(data)
        omega = None
        if "omega" in data:
            omega = omega_from_json(chart.ambient_dim, data["omega"])
    except (KeyError, ValueError, TypeError, PolyParseError) as exc:
        raise FixtureError(f"fixture {source!r} is malformed: {exc}")
    return chart, omega


@contextmanager
def _output(out):
    """Yield write(text): to stdout, or over the file at out in place.

    The file is opened (created if absent) before the body runs, so an
    unwritable path fails at once as ValueError (exit 2); if the body
    raises, a file this call created is removed and an existing one keeps
    its bytes.  A regular file is cut at the end of the text, never
    truncated to zero first: on ext4 (auto_da_alloc) that, or a rename
    over it, waits for the file's writeback.  No fsync is made.
    """
    if not out:
        yield sys.stdout.write
        return

    def write(text):
        try:
            data = text.encode("utf-8")
            while data:
                data = data[os.write(fd, data) :]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        except OSError as exc:
            raise ValueError(f"cannot write {out!r}: {exc.strerror}") from exc

    try:
        try:
            fd, created = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
        except FileExistsError:
            fd, created = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), False
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc.strerror}") from exc
    try:
        yield write
    except BaseException:
        if created:
            os.unlink(out)
        raise
    finally:
        os.close(fd)


def _parse_vector(text):
    return tuple(parse_rational(piece) for piece in text.split(","))


def _cmd_verify(args):
    for flag, value in (("--samples", args.samples), ("--jobs", args.jobs)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    chart, omega = _load_fixture(args.fixture)
    checks = None
    if args.checks is not None:
        checks = [name.strip() for name in args.checks.split(",") if name.strip()]
    with _output(args.out) as write:
        report = run_verification(
            chart, omega, seed=args.seed, samples=args.samples, checks=checks, jobs=args.jobs
        )
        # wall time never enters the report body: byte-stable outputs
        write(report.to_json() if args.format == "json" else report.to_text())
    print(f"wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_info(args):
    chart, explicit = _load_fixture(args.fixture)
    _, dims = form_and_dimensions(chart, explicit)
    dim_w_prime = dims["dimWprime"]
    lines = [
        f"fixture:     {chart.label}",
        f"dimW:        {dims['dimW']}",
        f"d:           {dims['d']}",
        f"dimLambda2W: {pair_count(dims['dimW'])}",
        f"dimWprime:   {'n/a (explicit form)' if dim_w_prime is None else dim_w_prime}",
        f"dimU:        {dims['dimU']}",
        f"n:           {dims['n']}",
        f"familyDim:   {dims['familyDim']}",
    ]
    with _output(args.out) as write:
        write("\n".join(lines) + "\n")
    return 0


def _cmd_build_omega(args):
    chart, _ = _load_fixture(args.fixture)
    construction = build_omega(chart)
    dim_l2 = pair_count(chart.ambient_dim)
    basis = rational_rows(construction.w_prime_rows, construction.w_prime_pivots, dim_l2)
    payload = {
        "label": chart.label,
        "dimW": chart.ambient_dim,
        "dimU": construction.omega.dim_u,
        "dimLambda2W": dim_l2,
        "dimWprime": construction.dim_w_prime,
        "wPrimeBasis": [[qstr(c) for c in row] for row in basis],
        "omegaTable": [[qstr(c) for c in row] for row in construction.omega.table],
    }
    with _output(args.out) as write:
        write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_sample_line(args):
    chart, explicit = _load_fixture(args.fixture)
    omega, dims = form_and_dimensions(chart, explicit)
    sampler = RationalSampler(args.seed).derive("sample-line")
    param = _parse_vector(args.param) if args.param is not None else sampler.vector(chart.param_dim)
    if len(param) != chart.param_dim:
        raise FixtureError(f"parameter point needs {chart.param_dim} coordinates")
    n = dims["n"]
    base = _parse_vector(args.base) if args.base is not None else sampler.vector(n)
    if len(base) != n:
        raise FixtureError(f"base point needs {n} coordinates")
    x = element(omega, base[: omega.dim_w], base[omega.dim_w :])
    line = line_through(omega, x, chart.frame_integers(param)[0])
    row_point, row_dir = (from_integers(*row) for row in line_matrix_rows(omega, x, line.direction))
    arc = [Poly.const(c, 1) + Poly.var(0, 1) * d for c, d in zip(row_point[:-1], row_dir[:-1])]
    datum = boundary_point(chart, omega, param, x)
    payload = {
        "fixture": chart.label,
        "param": [qstr(c) for c in param],
        "base": [qstr(c) for c in x.coords],
        "canonicalDirection": [qstr(c) for c in from_integers(*line.direction)],
        "canonicalBase": [qstr(c) for c in line.base.coords],
        "parametrization": [p.format(["t"]) for p in arc],
        "plueckerVector": [qstr(c) for c in pluecker_embed(omega, line)],
        "boundaryDirection": [qstr(c) for c in boundary_direction(omega, line)],
        "boundaryPoint": {
            "chart": datum.chart_label,
            "param": [qstr(c) for c in datum.param],
            "cosetRep": [qstr(c) for c in datum.coset_rep.coords],
        },
    }
    with _output(args.out) as write:
        write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="metaline",
        description=(
            "Exact verification of horizontal-line families in metabelian groups. "
            f"Builtin fixtures: {', '.join(builtin_names())}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seeded=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("fixture", help="builtin:NAME or path to a fixture JSON file")
        if seeded:
            p.add_argument("--seed", type=int, default=42, help="deterministic seed")
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    p_verify = command("verify", _cmd_verify, "run the full check suite", seeded=True)
    p_verify.add_argument("--samples", type=int, default=100, help="samples per check")
    p_verify.add_argument("--checks", help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
    p_verify.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    p_verify.add_argument("--jobs", type=int, default=1, help="processes for the slide checks")

    command("info", _cmd_info, "print dimension summary")
    command("build-omega", _cmd_build_omega, "construct the form and emit JSON")

    p_line = command(
        "sample-line", _cmd_sample_line, "print one horizontal line as JSON", seeded=True
    )
    p_line.add_argument("--param", help="comma-separated chart parameters")
    p_line.add_argument("--base", help="comma-separated base point coordinates")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FixtureError, FrameDegenerate, ZeroDirection, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
