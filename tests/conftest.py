"""Shared fixtures and helpers: charts and constructed forms, built once per
session, and the rational references more than one test module compares
against."""

import functools
import json
from itertools import combinations
from pathlib import Path

import pytest

from metaline import family_geometry as fam
from metaline.linalg import NotInSpan
from metaline.lines import line_matrix_rows
from metaline.metabelian import OmegaForm
from metaline.omega_builder import build_omega
from metaline.scalars import HALF, ONE, Q, ZERO, as_integers
from metaline.varieties import builtin_chart, builtin_names, chart_from_json, omega_from_json

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Every builtin and every tests/fixtures file, by the name chart_and_form takes.
ALL_CHARTS = builtin_names() + sorted(p.name for p in FIXTURE_DIR.glob("*.json"))

# The Heisenberg form: dimW 2, dimU 1, form(e_0, e_1) = f_0.
HEISENBERG = OmegaForm.from_entries(2, 1, [(0, 1, (1,))])


def form_from_table(dim_w, dim_u, table):
    """The form with one U-vector per index pair i < j, in lex order."""
    pairs = combinations(range(dim_w), 2)
    return OmegaForm.from_entries(dim_w, dim_u, [(i, j, r) for (i, j), r in zip(pairs, table)])


def line_rows(omega, x, w):
    """The rows (x_w, x_u, 1) and (w, (1/2) form(x_w, w), 0) of the line's
    plane in the coordinate ring of x and w (rationals, jets): the formula
    that lines.line_matrix_rows computes in integers."""
    half_corr = [HALF * c for c in omega.apply(x.w_part, w)]
    return [[*x.w_part, *x.u_part, ONE], [*w, *half_corr, ZERO]]


def plane_at(omega, x, w, pivots):
    """The line's plane through x in direction w, an integer row over a
    positive scale, at the given pivot columns: the plane that
    family_geometry.line_planes yields at that pair."""
    return fam._plane(x, line_matrix_rows(omega, x, w), pivots)


def pivot_planes(omega, x, w):
    """The line's planes through x in direction w (rationals) at the
    primary and next pivots, and at the first valid pair of each kind with
    a U column: W-U, U-constant, U-U.  With a pivot in U, a U-direction
    moves the pivot minor."""
    rows = line_rows(omega, x, w)
    last = len(rows[0]) - 1
    u_cols = range(omega.dim_w, last)

    def first_valid(pairs):
        return next(
            ((i, j) for i, j in pairs if rows[0][i] * rows[1][j] != rows[0][j] * rows[1][i]),
            None,
        )

    pairs = {
        "w-u": first_valid((i, j) for i in range(omega.dim_w) for j in u_cols),
        "u-constant": first_valid((j, last) for j in u_cols),
        "u-u": first_valid((i, j) for i in u_cols for j in u_cols if i < j),
    }
    planes = fam.line_planes(omega, x, as_integers(w))
    kinds = {"primary": next(planes), "next": next(planes, None)}
    kinds.update(
        (kind, plane_at(omega, x, as_integers(w), pair)) for kind, pair in pairs.items() if pair
    )
    return {kind: plane for kind, plane in kinds.items() if plane is not None}


def sl2_exterior_square_dims(k):
    """Irreducible dimensions of the second exterior power of the k-th
    symmetric power of a 2-space: weights 2k-2, 2k-6, ... down to >= 0.
    The oracle for the rational normal curve of degree k: dimW' is the
    first, dimU the sum of the rest."""
    dims = []
    top = 2 * k - 2
    while top >= 0:
        dims.append(top + 1)
        top -= 4
    return tuple(dims)


def rational_chart(rows, pivots):
    """P^-1 and B = P^-1 N of a plane's rational rows, P the pivot minor
    and N the other columns, or None when P is singular."""
    c1, c2 = pivots
    (a, b), (c, d) = ((Q(row[c1]), Q(row[c2])) for row in rows)
    det = a * d - b * c
    if det == 0:
        return None
    inv = ((d / det, -b / det), (-c / det, a / det))
    block = [
        [i0 * p + i1 * q for col, (p, q) in enumerate(zip(*rows)) if col not in pivots]
        for i0, i1 in inv
    ]
    return inv, block


def rational_moved(rows, pivots, drows):
    """dN - dP B in Fractions, block row by block row."""
    _, block = rational_chart(rows, pivots)
    rest = [[v for col, v in enumerate(drow) if col not in pivots] for drow in drows]
    return [
        [n - drow[pivots[0]] * b0 - drow[pivots[1]] * b1 for n, b0, b1 in zip(row, *block)]
        for row, drow in zip(rest, drows)
    ]


def rational_block_variation(rows, pivots, drows):
    """P^-1 (dN - dP B) in Fractions."""
    inv, _ = rational_chart(rows, pivots)
    moved = rational_moved(rows, pivots, drows)
    return [[i0 * m0 + i1 * m1 for m0, m1 in zip(*moved)] for i0, i1 in inv]


def solve_outcome(solve, *args):
    """("coefficients", c) from a solve, or ("residual", r) from its NotInSpan."""
    try:
        return "coefficients", solve(*args)
    except NotInSpan as exc:
        return "residual", exc.residual


@functools.cache
def _builtin(name):
    """(chart, omega, construction-or-None) of a builtin, constructed once."""
    chart, explicit = builtin_chart(name)
    if explicit is not None:
        return chart, explicit, None
    construction = build_omega(chart)
    return chart, construction.omega, construction


@functools.cache
def chart_and_form(name):
    """Chart and form of a builtin or a tests/fixtures file, the form
    constructed when none is given."""
    if not name.endswith(".json"):
        chart, omega, _ = _builtin(name)
        return chart, omega
    data = json.loads((FIXTURE_DIR / name).read_text())
    chart = chart_from_json(data)
    if "omega" in data:
        return chart, omega_from_json(chart.ambient_dim, data["omega"])
    return chart, build_omega(chart).omega


@pytest.fixture(scope="session")
def fixture_cache():
    """name -> (chart, omega, construction-or-None) of a builtin."""
    return _builtin


@pytest.fixture(scope="session")
def twisted_cubic(fixture_cache):
    return fixture_cache("veronese-2-3")


@pytest.fixture(scope="session")
def quartic(fixture_cache):
    return fixture_cache("veronese-2-4")


@pytest.fixture(scope="session")
def veronese33(fixture_cache):
    return fixture_cache("veronese-3-3")


@pytest.fixture(scope="session")
def flat_conic(fixture_cache):
    return fixture_cache("flat-conic")


@pytest.fixture(scope="session")
def flat_linear(fixture_cache):
    return fixture_cache("flat-linear")


@pytest.fixture(scope="session")
def adversarial(fixture_cache):
    return fixture_cache("nonisotropic-cubic")
