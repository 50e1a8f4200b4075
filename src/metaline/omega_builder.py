"""Derive the antisymmetric form whose kernel contains all tangent planes.

Sampling the chart at deterministic rational points, the wedges of all
frame pairs accumulate into a subspace of the second exterior power of
W.  Once the rank stays flat across a stability window the subspace is
taken as saturated; the quotient by it defines the form, with the
non-pivot exterior coordinates as the basis of the value space U.  By
construction the form kills every sampled tangent plane; the symbolic
isotropy certificate then closes the gap for the whole chart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, SpanAccumulator, pair_count, wedge
from .metabelian import OmegaForm
from .sampling import RationalSampler
from .varieties import FrameDegenerate, VarietyChart, affine_tangent_frame


class SaturationNotReached(Exception):
    """Rank kept moving after the grid was exhausted and doubled once."""


@dataclass(frozen=True)
class OmegaConstruction:
    label: str
    dim_w: int
    dim_u: int
    dim_lambda2: int
    dim_w_prime: int
    w_prime_basis: Mat
    omega: OmegaForm
    rank_history: tuple
    seed: int


def sl2_exterior_square_dims(k):
    """Irreducible dimensions of the second exterior power of the k-th
    symmetric power of a 2-space: weights 2k-2, 2k-6, ... down to >= 0."""
    dims = []
    top = 2 * k - 2
    while top >= 0:
        dims.append(top + 1)
        top -= 4
    return tuple(dims)


def build_omega(
    chart: VarietyChart,
    seed: int = 42,
    stability_window: int = 25,
    grid_limit: int = 200,
) -> OmegaConstruction:
    """Quotient form saturated from sampled tangent-plane wedges.

    Stops once `stability_window` consecutive sample points add no rank;
    the sample budget doubles once before SaturationNotReached is raised.
    """
    m = chart.ambient_dim
    dim_l2 = pair_count(m)
    accumulator = SpanAccumulator(dim_l2)
    sampler = RationalSampler(seed).derive("omega-builder")
    stable = 0
    used = 0
    budget = grid_limit
    doubled = False
    history = []
    while stable < stability_window:
        if used >= budget:
            if doubled:
                raise SaturationNotReached(
                    f"rank {accumulator.rank} still moving after {used} points"
                )
            budget *= 2
            doubled = True
        point = sampler.vector(chart.param_dim)
        used += 1
        try:
            frame = affine_tangent_frame(chart, point)
        except FrameDegenerate:
            continue
        grew = False
        rows = frame.entries
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                if accumulator.insert(wedge(rows[a], rows[b])):
                    grew = True
        history.append(accumulator.rank)
        stable = 0 if grew else stable + 1

    basis = accumulator.basis_matrix()
    pivots = accumulator.pivot_columns()
    free = accumulator.free_columns()
    dim_u = len(free)
    free_position = {c: k for k, c in enumerate(free)}
    pivot_row = {c: r for r, c in enumerate(pivots)}

    table = []
    for pair_idx in range(dim_l2):
        if pair_idx in pivot_row:
            row = basis.entries[pivot_row[pair_idx]]
            table.append(tuple(-row[c] for c in free))
        else:
            table.append(
                tuple(
                    1 if k == free_position[pair_idx] else 0 for k in range(dim_u)
                )
            )
    omega = OmegaForm(m, dim_u, table)

    for row in basis.entries:
        if any(x != 0 for x in omega.on_wedge(row)):
            raise AssertionError("form failed to vanish on its own kernel basis")

    return OmegaConstruction(
        label=chart.label,
        dim_w=m,
        dim_u=dim_u,
        dim_lambda2=dim_l2,
        dim_w_prime=accumulator.rank,
        w_prime_basis=basis,
        omega=omega,
        rank_history=tuple(history),
        seed=seed,
    )

