import pytest

from metaline.omega_builder import (
    SaturationNotReached,
    build_omega,
    sl2_exterior_square_dims,
)
from metaline.scalars import Q
from metaline.varieties import builtin_chart, certify_isotropic, veronese_chart

# frozen after three-seed stability runs (42, 7, 1234)
GOLDEN = {
    "veronese-2-3": (4, 5, 1),
    "veronese-2-4": (5, 7, 3),
    "veronese-3-3": (10, 35, 10),
    "veronese3-of-conic": (10, 11, 34),
    "flat-conic": (3, 3, 0),
    "flat-linear": (3, 3, 0),
}


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
    assert construction.dim_w == dim_w
    assert construction.dim_w_prime == dim_w_prime
    assert construction.dim_u == dim_u
    assert construction.dim_lambda2 == dim_w * (dim_w - 1) // 2


@pytest.mark.parametrize("name", ["veronese-2-3", "veronese-2-4", "flat-conic"])
def test_seed_independence(name):
    chart, _ = builtin_chart(name)
    dims = {
        (build_omega(chart, seed=s).dim_w_prime, build_omega(chart, seed=s).dim_u)
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
        assert construction.dim_u == sum(oracle[1:])


def test_form_vanishes_on_kernel_basis(twisted_cubic):
    _, omega, construction = twisted_cubic
    for row in construction.w_prime_basis.entries:
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
    assert history[-1] <= construction.dim_lambda2


def test_quotient_projection_structure(twisted_cubic):
    """Free exterior coordinates map to the matching unit vector of U."""
    _, omega, construction = twisted_cubic
    pivots = set()
    reduced, pivot_cols = construction.w_prime_basis.rref()
    pivots.update(pivot_cols)
    free = [k for k in range(construction.dim_lambda2) if k not in pivots]
    assert len(free) == construction.dim_u
    for slot, k in enumerate(free):
        expected = tuple(Q(1) if c == slot else Q(0) for c in range(omega.dim_u))
        assert omega.table[k] == expected


def test_saturation_not_reached():
    chart = veronese_chart(2, 3)
    with pytest.raises(SaturationNotReached):
        build_omega(chart, seed=42, stability_window=10 ** 6, grid_limit=50)


def test_dims_property(twisted_cubic):
    _, _, construction = twisted_cubic
    dims = (construction.dim_w, construction.dim_u, construction.dim_w_prime)
    assert dims == (4, 1, 5)
