import itertools
import json
from pathlib import Path

import pytest

from conftest import sl2_exterior_square_dims
from metaline.linalg import Mat, SpanAccumulator, pair_count, rational_rows, wedge
from metaline.omega_builder import build_omega
from metaline.polynomials import Poly
from metaline.sampling import RationalSampler
from metaline.scalars import Q, as_integers
from metaline.varieties import (
    FrameDegenerate,
    affine_tangent_frame,
    builtin_chart,
    builtin_names,
    certify_isotropic,
    chart_from_json,
    make_chart,
)

# frozen after three-seed stability runs (42, 7, 1234)
GOLDEN = {
    "veronese-2-3": (4, 5, 1),
    "veronese-2-4": (5, 7, 3),
    "veronese-3-3": (10, 35, 10),
    "veronese3-of-conic": (10, 11, 34),
    "flat-conic": (3, 3, 0),
    "flat-linear": (3, 3, 0),
}


def _w_prime_basis(construction):
    """W' as the reduced rational basis of the construction's sparse rows."""
    dim_l2 = pair_count(construction.omega.dim_w)
    return Mat(rational_rows(construction.w_prime_rows, construction.w_prime_pivots, dim_l2))


def test_sl2_oracle_dimensions():
    # second exterior square of binary forms: weights 2k-2, 2k-6, ...
    assert sl2_exterior_square_dims(3) == (5, 1)
    assert sl2_exterior_square_dims(4) == (7, 3)
    assert sum(sl2_exterior_square_dims(3)) == 6
    assert sum(sl2_exterior_square_dims(4)) == 10


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_dimensions(name, fixture_cache):
    chart, _, construction = fixture_cache(name)
    dim_w, dim_w_prime, dim_u = GOLDEN[name]
    assert construction.omega.dim_w == dim_w
    assert construction.dim_w_prime == dim_w_prime
    assert construction.omega.dim_u == dim_u
    assert len(construction.w_prime_rows) == len(construction.w_prime_pivots) == dim_w_prime
    columns = range(dim_w * (dim_w - 1) // 2)
    assert all(k in columns for row in construction.w_prime_rows for k in row)


@pytest.mark.parametrize("name", ["veronese-2-3", "veronese-2-4", "flat-conic"])
def test_seed_independence(name):
    chart, _ = builtin_chart(name)
    dims = {
        (build_omega(chart, seed=s).dim_w_prime, build_omega(chart, seed=s).omega.dim_u)
        for s in (42, 7, 1234)
    }
    assert len(dims) == 1


def test_seed_independence_veronese33():
    chart, _ = builtin_chart("veronese-3-3")
    dims = {build_omega(chart, seed=s).dim_w_prime for s in (42, 7, 1234)}
    assert dims == {35}


def test_clebsch_gordan_cross_check():
    """Tangent wedges span the top component; U matches the complement."""
    for name, k in (("veronese-2-3", 3), ("veronese-2-4", 4)):
        chart, _ = builtin_chart(name)
        construction = build_omega(chart, seed=42)
        oracle = sl2_exterior_square_dims(k)
        assert construction.dim_w_prime == oracle[0]
        assert construction.omega.dim_u == sum(oracle[1:])


def test_form_vanishes_on_kernel_basis(twisted_cubic):
    _, omega, construction = twisted_cubic
    basis = _w_prime_basis(construction).entries
    assert len(basis) == len(construction.w_prime_rows) == construction.dim_w_prime
    for row in basis:
        ints, _ = as_integers(row)
        assert all(v == 0 for v in omega.on_wedge({k: x for k, x in enumerate(ints) if x}))
    for row in construction.w_prime_rows:
        assert all(v == 0 for v in omega.on_wedge(row))


def test_constructed_form_is_isotropic(fixture_cache):
    for name in sorted(GOLDEN):
        chart, omega, _ = fixture_cache(name)
        assert certify_isotropic(chart, omega).proven


def test_rank_history_monotone(quartic):
    _, _, construction = quartic
    history = construction.rank_history
    assert all(a <= b for a, b in zip(history, history[1:]))
    assert history[-1] == construction.dim_w_prime
    assert history[-1] <= pair_count(construction.omega.dim_w)


def test_quotient_projection_structure(twisted_cubic):
    """Free exterior coordinates map to the matching unit vector of U."""
    _, omega, construction = twisted_cubic
    pivots = set()
    reduced, pivot_cols = _w_prime_basis(construction).rref()
    pivots.update(pivot_cols)
    free = [k for k in range(pair_count(omega.dim_w)) if k not in pivots]
    assert len(free) == omega.dim_u
    for slot, k in enumerate(free):
        expected = tuple(Q(1) if c == slot else Q(0) for c in range(omega.dim_u))
        assert omega.table[k] == expected


def test_dims_property(twisted_cubic):
    _, omega, construction = twisted_cubic
    dims = (omega.dim_w, omega.dim_u, construction.dim_w_prime)
    assert dims == (4, 1, 5)


def _lagrangian_grassmannian_chart():
    """LG(3,6) in its big cell: the 14 distinct minors of a symmetric 3 x 3
    matrix of 6 variables, the empty minor 1 included (d = 6, dimW 14)."""
    entry = {}
    for k, (i, j) in enumerate(itertools.combinations_with_replacement(range(3), 2)):
        entry[i, j] = entry[j, i] = Poly.var(k, 6)

    def minor(rows, cols):  # Laplace expansion along the first row
        if not rows:
            return Poly.const(1, 6)
        return sum(
            (
                (-1) ** n * entry[rows[0], c] * minor(rows[1:], cols[:n] + cols[n + 1 :])
                for n, c in enumerate(cols)
            ),
            Poly.zero(6),
        )

    subsets = [s for size in range(4) for s in itertools.combinations(range(3), size)]
    return make_chart(
        "lg-3-6", [minor(r, c) for r in subsets for c in subsets if len(r) == len(c) and r <= c]
    )


def test_the_form_build_inserts_one_batch_per_frame_pair(monkeypatch):
    """Guard: on LG(3,6) build_omega hands each of the 21 frame pairs' wedge
    vectors to one SpanAccumulator.insert, and derives the contact form:
    W' of rank 90 in the 91-dimensional exterior square, dimU 1."""
    chart = _lagrangian_grassmannian_chart()
    assert (chart.param_dim, chart.ambient_dim) == (6, 14)
    batches = []
    original_insert = SpanAccumulator.insert

    def counting_insert(self, vecs):
        batches.append(vecs)
        return original_insert(self, vecs)

    monkeypatch.setattr(SpanAccumulator, "insert", counting_insert)
    construction = build_omega(chart)
    assert len(batches) == len(construction.rank_history) == 21
    assert construction.dim_w_prime == 90
    assert construction.omega.dim_u == 1


def _raw_frame_rows(chart, point):
    return [tuple(p.evaluate(point) for p in row) for row in (chart.coords, *chart.partials)]


def _tangent_rows(chart, point):
    affine_tangent_frame(chart.frame_integers(point), point)  # raises FrameDegenerate
    return _raw_frame_rows(chart, point)


def _sampled_span(chart, frame_rows=_tangent_rows, window=25, budget=400):
    """Oracle: the span of frame-pair wedges at seeded points, taken as
    saturated once `window` points in a row add no rank.  Points where
    frame_rows raises FrameDegenerate are skipped."""
    accumulator = SpanAccumulator(pair_count(chart.ambient_dim))
    sampler = RationalSampler(42).derive("omega-builder")
    stable = 0
    for _ in range(budget):
        try:
            rows = frame_rows(chart, sampler.vector(chart.param_dim))
        except FrameDegenerate:
            continue
        grew = accumulator.insert([wedge(u, v) for u, v in itertools.combinations(rows, 2)])
        stable = 0 if grew else stable + 1
        if stable == window:
            return Mat(rational_rows(accumulator.rows, accumulator.pivots, accumulator.dim))
    raise AssertionError(f"rank {accumulator.rank} still moving after {budget} points")


_FIXTURE_DIR = Path(__file__).parent / "fixtures"
_DEGENERATE = "degenerate-frame.json"


def _derived_charts():
    """Every builtin chart and every fixture-file chart without an explicit
    form, except the one whose frame is degenerate everywhere."""
    charts = [builtin_chart(name)[0] for name in builtin_names()]
    for path in sorted(_FIXTURE_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if "omega" not in data and path.name != _DEGENERATE:
            charts.append(chart_from_json(data))
    return charts


@pytest.mark.parametrize("chart", _derived_charts(), ids=lambda chart: chart.label)
def test_exact_span_matches_sampled_saturation(chart):
    assert _w_prime_basis(build_omega(chart)) == _sampled_span(chart)


def test_degenerate_frame_span_matches_pointwise_wedges():
    """With a frame that drops rank everywhere, W' is still the span of
    the pointwise frame wedges."""
    chart = chart_from_json(json.loads((_FIXTURE_DIR / _DEGENERATE).read_text()))
    with pytest.raises(FrameDegenerate):
        affine_tangent_frame(chart.frame_integers((Q(1), Q(2))), (Q(1), Q(2)))
    construction = build_omega(chart)
    assert (construction.dim_w_prime, construction.omega.dim_u) == (5, 1)
    assert _w_prime_basis(construction) == _sampled_span(chart, _raw_frame_rows)
