"""Two-step nilpotent groups built from a vector-valued antisymmetric form.

The form maps pairs of vectors in a space W into a second space U; the
group lives on W + U in logarithmic coordinates with product

    (w, u) * (w', u') = (w + w', u + u' + (1/2) * form(w, w')).

The commutator subgroup sits inside U, which is central, and the
exponential map is the identity on coordinates.  The group law is
generic over the coordinate ring: polynomials (the symbolic identity
proofs below) and first-order jets (the one derivative ring, in which the
Maurer-Cartan and Levi-tensor oracles differentiate) run the code that
rationals run, except that rationals take Python integers in two places:
OmegaForm.apply contracts them as integer minors, and multiply builds
each coordinate of a rational product as one Q from integers over the
operands' common denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .jets import Jet1
from .linalg import pair_count, pair_index
from .polynomials import Poly
from .scalars import HALF, Q, ZERO, as_integers, from_integers


class OmegaForm:
    """Antisymmetric bilinear form on W with values in U.

    Stored as its nonzero coefficients alone.  `terms` keeps the index
    pairs i < j (lex order) whose U-vector is nonzero, each as (pair
    index, i, j, ((c, coefficient), ...)) over its nonzero coordinates in
    increasing c; the form is contracted over those alone.  `_int_terms`
    has them as integers over one denominator `_den`.  The dense `table`,
    one U-vector per pair, is built on first read (for printing) and kept.
    """

    __slots__ = ("dim_w", "dim_u", "terms", "_int_terms", "_den", "_table")

    def __init__(self, dim_w, dim_u, rows):
        """From one row per index pair in lex order, each the pair's
        nonzero coordinates as (c, rational) in increasing c, taken as
        given; from_entries is the checked constructor."""
        self.dim_w, self.dim_u, self._table = int(dim_w), int(dim_u), None
        self.terms = tuple(
            (k, i, j, tuple(row))
            for k, ((i, j), row) in enumerate(zip(combinations(range(self.dim_w), 2), rows))
            if row
        )
        den = self._den = lcm(*(x.denominator for *_, row in self.terms for _, x in row))
        self._int_terms = tuple(
            (i, j, tuple((c, x.numerator * (den // x.denominator)) for c, x in row))
            for _, i, j, row in self.terms
        )

    @classmethod
    def from_entries(cls, dim_w, dim_u, entries):
        """Build from sparse entries [(i, j, u_vector), ...] with i < j,
        each pair given at most once."""
        vectors = {}
        for i, j, vec in entries:
            if not 0 <= i < j < dim_w:
                raise ValueError("entry indices must satisfy 0 <= i < j < dim_w")
            if (i, j) in vectors:
                raise ValueError(f"entry ({i}, {j}) is given twice")
            vectors[i, j] = [Q(x) for x in vec]
        if any(len(vec) != dim_u for vec in vectors.values()):
            raise ValueError("table entries must have length dim_u")
        rows = [()] * pair_count(dim_w)
        for (i, j), vec in vectors.items():
            rows[pair_index(i, j, dim_w)] = [(c, x) for c, x in enumerate(vec) if x]
        return cls(dim_w, dim_u, rows)

    @property
    def table(self):
        """One U-vector of rationals per index pair i < j, in lex order."""
        if self._table is None:
            table = [[ZERO] * self.dim_u for _ in range(pair_count(self.dim_w))]
            for k, _, _, row in self.terms:
                for c, x in row:
                    table[k][c] = x
            self._table = tuple(map(tuple, table))
        return self._table

    def apply(self, u, v):
        """Form on coordinate vectors, from the minors u_i v_j - u_j v_i of
        the pairs in `terms` alone.  Rationals are scaled to integers, one
        denominator per vector (fraction-free, after Bareiss, Math. Comp. 22,
        1968); polynomials and jets are contracted in their own ring."""
        if len(u) != self.dim_w or len(v) != self.dim_w:
            raise ValueError("vectors must have length dim_w")
        su, sv = as_integers(u), as_integers(v)
        if su is None or sv is None:
            return self._contract((u[i] * v[j] - u[j] * v[i], row) for _, i, j, row in self.terms)
        (iu, du), (iv, dv) = su, sv
        ints, den = self.apply_integers(iu, iv)
        return from_integers(ints, du * dv * den)

    def apply_integers(self, iu, iv):
        """The form on two integer vectors of length dim_w, as (ints, den):
        form(iu, iv)[c] == ints[c] / den, den > 0 one denominator for the
        whole table."""
        minors = ((iu[i] * iv[j] - iu[j] * iv[i], row) for i, j, row in self._int_terms)
        return self._contract(minors, 0), self._den

    def columns(self, ix):
        """form(x, e_k) for every basis vector e_k of W, x an integer vector,
        from one pass over `_int_terms`, as (cols, den): form(x, e_k)[c] ==
        cols[k][c] / den, so apply(x, v) == sum over k of v_k * cols[k] / den.

        At pair (i, j) the minor of (x, e_j) is x_i and that of (x, e_i)
        is -x_j; a zero coordinate of x contributes nothing.
        """
        if len(ix) != self.dim_w:
            raise ValueError("vector must have length dim_w")
        cols = [[0] * self.dim_u for _ in range(self.dim_w)]
        for i, j, row in self._int_terms:
            if xi := ix[i]:
                col = cols[j]
                for c, coeff in row:
                    col[c] += xi * coeff
            if xj := ix[j]:
                col = cols[i]
                for c, coeff in row:
                    col[c] -= xj * coeff
        return cols, self._den

    def on_wedge(self, vector):
        """Form on a second-exterior-power vector, pairs in lex order."""
        return self._contract((vector[k], row) for k, _, _, row in self.terms)

    def _contract(self, minors, zero=ZERO):
        """Sum from zero of minor * coefficient into U, over (minor, row) pairs."""
        out = [zero] * self.dim_u
        for minor, row in minors:
            if not minor:  # a zero scalar; jets and polynomials are truthy
                continue
            for c, coeff in row:
                out[c] = out[c] + minor * coeff
        return out

    def _key(self):
        """The form's coefficients, canonical: in increasing c per pair,
        as integers over the lcm of their reduced denominators."""
        return self.dim_w, self.dim_u, self._den, self._int_terms

    def __eq__(self, other):
        return isinstance(other, OmegaForm) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class GroupElement:
    """Group (equivalently, algebra) element in logarithmic coordinates."""

    w_part: tuple
    u_part: tuple

    @property
    def coords(self):
        return self.w_part + self.u_part


def identity_element(omega: OmegaForm) -> GroupElement:
    return GroupElement((ZERO,) * omega.dim_w, (ZERO,) * omega.dim_u)


def element(omega: OmegaForm, w, u=None) -> GroupElement:
    w = tuple(x if type(x) is Q else Q(x) for x in w)
    u = tuple(x if type(x) is Q else Q(x) for x in u) if u is not None else (ZERO,) * omega.dim_u
    if len(w) != omega.dim_w or len(u) != omega.dim_u:
        raise ValueError("coordinate arity mismatch")
    return GroupElement(w, u)


def multiply(omega: OmegaForm, a: GroupElement, b: GroupElement) -> GroupElement:
    """The product (a_w + b_w, a_u + b_u + (1/2) form(a_w, b_w)).

    Rational operands run in integers: the W-parts over one denominator
    dw, a_w = A / dw and b_w = B / dw, and the U-parts over one du.  With
    form(A, B) = F / e, U coordinate c is (a_u + b_u)[c] + F_c / m for
    m = 2 e dw^2, one Q from integers; a coordinate where one summand is
    zero keeps the other.  Polynomial and jet operands take the generic
    loop in their own ring."""
    sw, su = as_integers(a.w_part + b.w_part), as_integers(a.u_part + b.u_part)
    if sw is None or su is None:
        correction = omega.apply(a.w_part, b.w_part)
        w = tuple(x + y for x, y in zip(a.w_part, b.w_part))
        u = tuple(x + y + HALF * c for x, y, c in zip(a.u_part, b.u_part, correction))
        return GroupElement(w, u)
    (iw, dw), (iu, du) = sw, su
    dim_w, dim_u = omega.dim_w, omega.dim_u
    if len(a.w_part) != dim_w or len(b.w_part) != dim_w:
        raise ValueError("vectors must have length dim_w")
    w = tuple(
        y if not i else x if not j else Q(i + j, dw)
        for x, y, i, j in zip(a.w_part, b.w_part, iw, iw[dim_w:])
    )
    form, e = omega.apply_integers(iw[:dim_w], iw[dim_w:])
    m = 2 * e * dw * dw
    u = tuple(
        Q((i + j) * m + f * du, du * m) if f else y if not i else x if not j else Q(i + j, du)
        for x, y, i, j, f in zip(a.u_part, b.u_part, iu, iu[dim_u:], form)
    )
    return GroupElement(w, u)


def inverse(a: GroupElement) -> GroupElement:
    return GroupElement(tuple(-x for x in a.w_part), tuple(-x for x in a.u_part))


class InternalConsistencyError(AssertionError):
    pass


def maurer_cartan_log_derivative(omega: OmegaForm, x: GroupElement, v) -> GroupElement:
    """Log-derivative at x of left translation applied to a W-direction v.

    Computed in closed form and re-derived by jet differentiation of
    t -> x * (t v, 0); the two must agree exactly.
    """
    v = tuple(Q(c) for c in v)
    if len(v) != omega.dim_w:
        raise ValueError("direction must lie in W")
    half_corr = omega.apply(x.w_part, v)
    closed = GroupElement(v, tuple(HALF * c for c in half_corr))

    jet_x = GroupElement(
        tuple(Jet1.const(c, 1) for c in x.w_part),
        tuple(Jet1.const(c, 1) for c in x.u_part),
    )
    jet_arg = GroupElement(
        tuple(Jet1(ZERO, (c,)) for c in v),
        tuple(Jet1.const(0, 1) for _ in range(omega.dim_u)),
    )
    moved = multiply(omega, jet_x, jet_arg)
    jet_w = tuple(c.eps[0] for c in moved.w_part)
    jet_u = tuple(c.eps[0] for c in moved.u_part)
    if jet_w != closed.w_part or jet_u != closed.u_part:
        raise InternalConsistencyError("closed form and jet derivative disagree")
    return closed


def _invariant_field(omega: OmegaForm, direction, z_w):
    """Left-invariant vector field of a W-direction, valued at a point
    with W-part z_w: (direction, (1/2) form(z_w, direction))."""
    coeffs = list(direction)
    coeffs.extend(HALF * c for c in omega.apply(z_w, direction))
    return coeffs


def levi_tensor(omega: OmegaForm, x: GroupElement, u, v):
    """U-component of the bracket of the left-invariant extensions of u, v.

    The bracket at x is D_{X_u} X_v - D_{X_v} X_u; each term evaluates
    one field on first-order jets at x.w_part that move along the other
    field's value at x (the fields do not depend on the U coordinates).
    """
    u, v = tuple(u), tuple(v)

    def derivative(direction, along):
        z_w = tuple(Jet1(c, (d,)) for c, d in zip(x.w_part, along))
        field = _invariant_field(omega, direction, z_w)
        return [c.eps[0] if isinstance(c, Jet1) else ZERO for c in field]

    values = [
        a - b
        for a, b in zip(
            derivative(v, _invariant_field(omega, u, x.w_part)),
            derivative(u, _invariant_field(omega, v, x.w_part)),
        )
    ]
    if any(c != 0 for c in values[: omega.dim_w]):
        raise InternalConsistencyError("field bracket left the center")
    return tuple(values[omega.dim_w :])


def _symbolic_element(omega: OmegaForm, nvars, offset):
    w = tuple(Poly.var(offset + i, nvars) for i in range(omega.dim_w))
    u = tuple(Poly.var(offset + omega.dim_w + c, nvars) for c in range(omega.dim_u))
    return GroupElement(w, u)


def associativity_holds(omega: OmegaForm) -> bool:
    """Prove (a b) c == a (b c) as a polynomial identity."""
    n = omega.dim_w + omega.dim_u
    a = _symbolic_element(omega, 3 * n, 0)
    b = _symbolic_element(omega, 3 * n, n)
    c = _symbolic_element(omega, 3 * n, 2 * n)
    return multiply(omega, multiply(omega, a, b), c) == multiply(omega, a, multiply(omega, b, c))


def commutator_matches_bracket(omega: OmegaForm) -> bool:
    """Prove a b a^-1 b^-1 == exp(bracket) symbolically for W-directions."""
    m = omega.dim_w
    a = GroupElement(
        tuple(Poly.var(i, 2 * m) for i in range(m)),
        tuple(Poly.zero(2 * m) for _ in range(omega.dim_u)),
    )
    b = GroupElement(
        tuple(Poly.var(m + i, 2 * m) for i in range(m)),
        tuple(Poly.zero(2 * m) for _ in range(omega.dim_u)),
    )
    left = multiply(omega, multiply(omega, multiply(omega, a, b), inverse(a)), inverse(b))
    expected = GroupElement(
        tuple(Poly.zero(2 * m) for _ in range(m)),
        tuple(omega.apply(a.w_part, b.w_part)),
    )
    return left == expected


def one_parameter_subgroup_holds(omega: OmegaForm) -> bool:
    """Prove (s w, 0) (t w, 0) == ((s+t) w, 0) symbolically in s, t and w."""
    m = omega.dim_w
    nvars = m + 2
    s = Poly.var(m, nvars)
    t = Poly.var(m + 1, nvars)
    w = [Poly.var(i, nvars) for i in range(m)]
    zeros_u = tuple(Poly.zero(nvars) for _ in range(omega.dim_u))
    a = GroupElement(tuple(s * wi for wi in w), zeros_u)
    b = GroupElement(tuple(t * wi for wi in w), zeros_u)
    product = multiply(omega, a, b)
    expected = GroupElement(tuple((s + t) * wi for wi in w), zeros_u)
    return product == expected
