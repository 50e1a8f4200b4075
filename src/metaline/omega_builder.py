"""Derive the antisymmetric form whose kernel contains all tangent planes.

The wedge of two rows of the symbolic frame (the chart and its d
partials) is a vector of polynomials in the chart parameters.  A
polynomial that vanishes on all of Q^d is zero (Cox, Little & O'Shea,
Ideals, Varieties, and Algorithms, ch. 1 §1, Prop. 5), so the span of
its values over all parameter points is exactly the span of its
monomial coefficient vectors.  Those vectors, over all frame pairs,
span W'; the quotient by W' defines the form, with the non-pivot
exterior coordinates as the basis of the value space U.  No point is
sampled.  The isotropy certificate (varieties) checks the result apart
from it, sharing only the chart's compiled frame and OmegaForm.on_wedge.

The wedges are taken on the chart's integer frame (each row a positive
multiple of its symbolic frame row), so every coefficient vector is an
integer row, a positive multiple of the rational one, and W' is kept as
the span's sparse integer rows.  The form is read off those rows (a
pivot pair p maps to -row[c] / row[p] at each free pair c, a free pair
to its unit vector) and must vanish on each of them, by on_wedge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add

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


def _wedge_rows(row_a, row_b):
    """The monomial coefficient vectors of the wedge of two integer frame
    rows (VarietyChart.integer_frame), as (monomial, row) by increasing
    monomial, each row sparse {pair index: integer coefficient}; a
    monomial whose vector cancels is left out."""
    by_monomial = {}
    for k, (i, j) in enumerate(combinations(range(len(row_a)), 2)):
        for sign, left, right in ((1, row_a[i], row_b[j]), (-1, row_a[j], row_b[i])):
            for c, e in left:
                for d, f in right:
                    vec = by_monomial.setdefault(tuple(map(add, e, f)), {})
                    vec[k] = vec.get(k, 0) + sign * c * d
    rows = ((e, {k: x for k, x in vec.items() if x}) for e, vec in sorted(by_monomial.items()))
    return [(e, row) for e, row in rows if row]


def build_omega(chart: VarietyChart, seed=None) -> OmegaConstruction:
    """Quotient form by the exact span W' of the tangent-plane wedges.

    rank_history holds the rank of W' after each frame pair.  The seed
    is accepted for callers that pass one and is not read: the
    construction draws no samples.
    """
    dim_l2 = pair_count(chart.ambient_dim)
    accumulator = SpanAccumulator(dim_l2)
    frame = chart.integer_frame
    history = []
    for row_a, row_b in combinations(frame, 2):
        for _, vec in _wedge_rows(row_a, row_b):
            accumulator.insert(vec)
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
