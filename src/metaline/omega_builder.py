"""Derive the antisymmetric form whose kernel contains all tangent planes.

The wedge of two rows of the symbolic frame (the chart and its d
partials) is a vector of polynomials in the chart parameters.  A
polynomial that vanishes on all of Q^d is zero (Cox, Little & O'Shea,
Ideals, Varieties, and Algorithms, ch. 1 §1, Prop. 5), so the span of
its values over all parameter points is exactly the span of its
monomial coefficient vectors.  Those vectors, over all frame pairs,
span W'; the quotient by W' defines the form, with the non-pivot
exterior coordinates as the basis of the value space U.  No point is
sampled, and the symbolic isotropy certificate checks the result
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, SpanAccumulator, pair_count, wedge
from .metabelian import InternalConsistencyError, OmegaForm
from .scalars import ZERO
from .varieties import VarietyChart, symbolic_frame


@dataclass(frozen=True)
class OmegaConstruction:
    omega: OmegaForm
    w_prime_basis: Mat
    dim_w_prime: int
    rank_history: tuple


def sl2_exterior_square_dims(k):
    """Irreducible dimensions of the second exterior power of the k-th
    symmetric power of a 2-space: weights 2k-2, 2k-6, ... down to >= 0."""
    dims = []
    top = 2 * k - 2
    while top >= 0:
        dims.append(top + 1)
        top -= 4
    return tuple(dims)


def build_omega(chart: VarietyChart, seed=None) -> OmegaConstruction:
    """Quotient form by the exact span W' of the tangent-plane wedges.

    rank_history holds the rank of W' after each frame pair.  The seed
    is accepted for callers that pass one and is not read: the
    construction draws no samples.
    """
    m = chart.ambient_dim
    dim_l2 = pair_count(m)
    accumulator = SpanAccumulator(dim_l2)
    frame = symbolic_frame(chart)
    history = []
    for a in range(len(frame)):
        for b in range(a + 1, len(frame)):
            minors = wedge(frame[a], frame[b])
            for monomial in sorted({e for p in minors for e in p.terms}):
                accumulator.insert([p.terms.get(monomial, ZERO) for p in minors])
            history.append(accumulator.rank)

    basis = accumulator.basis_matrix()
    pivots = accumulator.pivot_columns()
    free = accumulator.free_columns()
    dim_u = len(free)
    pivot_row = {c: r for r, c in enumerate(pivots)}

    table = []
    for pair_idx in range(dim_l2):
        if pair_idx in pivot_row:
            row = basis.entries[pivot_row[pair_idx]]
            table.append(tuple(-row[c] for c in free))
        else:
            table.append(tuple(int(c == pair_idx) for c in free))
    omega = OmegaForm(m, dim_u, table)

    for row in basis.entries:
        if any(x != 0 for x in omega.on_wedge(row)):
            raise InternalConsistencyError("form failed to vanish on its own kernel basis")

    return OmegaConstruction(
        omega=omega,
        w_prime_basis=basis,
        dim_w_prime=accumulator.rank,
        rank_history=tuple(history),
    )
