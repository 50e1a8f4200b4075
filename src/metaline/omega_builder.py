"""Derive the antisymmetric form whose kernel contains all tangent planes.

The wedge of two rows of the symbolic frame (the chart and its d
partials) is a vector of polynomials in the chart parameters.  A
polynomial that vanishes on all of Q^d is zero (Cox, Little & O'Shea,
Ideals, Varieties, and Algorithms, ch. 1 §1, Prop. 5), so the span of
its values over all parameter points is exactly the span of its
monomial coefficient vectors.  Those vectors, over all frame pairs,
span W'; the quotient by W' defines the form, with the non-pivot
exterior coordinates as the basis of the value space U.  No point is
sampled.

The wedges are VarietyChart.frame_wedges at every index pair, taken on
the chart's integer frame (each row a positive multiple of its symbolic
frame row), so every coefficient vector is an integer row, a positive
multiple of the rational one, and W' is kept as the span's sparse
integer rows.  The form is read off those rows (a pivot pair p maps to
-row[c] / row[p] at each free pair c, a free pair to its unit vector)
and must vanish on each of them, by on_wedge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import SpanAccumulator, pair_count
from .metabelian import InternalConsistencyError, OmegaForm
from .scalars import ONE, Q
from .varieties import VarietyChart


@dataclass(frozen=True)
class OmegaConstruction:
    omega: OmegaForm
    w_prime_rows: tuple
    w_prime_pivots: tuple
    dim_w_prime: int
    rank_history: tuple


def build_omega(chart: VarietyChart, seed=None) -> OmegaConstruction:
    """Quotient form by the exact span W' of the tangent-plane wedges.

    rank_history holds the rank of W' after each frame pair.  The seed
    is accepted for callers that pass one and is not read: the
    construction draws no samples.
    """
    dim_l2 = pair_count(chart.ambient_dim)
    accumulator = SpanAccumulator(dim_l2)
    pairs = [(k, i, j) for k, (i, j) in enumerate(combinations(range(chart.ambient_dim), 2))]
    history = []
    for a, b in combinations(range(chart.param_dim + 1), 2):
        accumulator.insert([vec for _, vec in chart.frame_wedges(a, b, pairs)])
        history.append(accumulator.rank)

    slot = {c: n for n, c in enumerate(accumulator.free_columns())}
    rows = [((slot[k], ONE),) if k in slot else () for k in range(dim_l2)]
    for row, p in zip(accumulator.rows, accumulator.pivots):
        rows[p] = [(slot[c], Q(-x, row[p])) for c, x in sorted(row.items()) if c != p]
    omega = OmegaForm(chart.ambient_dim, len(slot), rows)

    if any(any(omega.on_wedge(row)) for row in accumulator.rows):
        raise InternalConsistencyError("form failed to vanish on its own kernel basis")

    return OmegaConstruction(
        omega=omega,
        w_prime_rows=tuple(accumulator.rows),
        w_prime_pivots=accumulator.pivots,
        dim_w_prime=accumulator.rank,
        rank_history=tuple(history),
    )
