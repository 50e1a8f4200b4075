"""Shared fixtures: charts and constructed forms, built once per session."""

from itertools import combinations

import pytest

from metaline.metabelian import OmegaForm
from metaline.omega_builder import build_omega
from metaline.scalars import HALF, ONE, ZERO
from metaline.varieties import builtin_chart

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


@pytest.fixture(scope="session")
def fixture_cache():
    """name -> (chart, omega, construction-or-None), constructed lazily."""
    cache = {}

    def get(name):
        if name not in cache:
            chart, explicit = builtin_chart(name)
            if explicit is None:
                construction = build_omega(chart, seed=42)
                cache[name] = (chart, construction.omega, construction)
            else:
                cache[name] = (chart, explicit, None)
        return cache[name]

    return get


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
