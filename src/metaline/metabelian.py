"""Two-step nilpotent groups built from a vector-valued antisymmetric form.

The form maps pairs of vectors in a space W into a second space U; the
group lives on W + U in logarithmic coordinates with product

    (w, u) * (w', u') = (w + w', u + u' + (1/2) * form(w, w')).

The commutator subgroup sits inside U, which is central, and the
exponential map is the identity on coordinates.  The group law is
generic over the coordinate ring: polynomials (the symbolic identity
proofs below) run the code that rationals run, except that rationals
take Python integers: OmegaForm.apply contracts them as integer minors,
and a rational element keeps each part as integers over one denominator
in lowest terms, which multiply and inverse read and write directly; its
Q coordinates are built only when something reads them.  The rational
product is one integer kernel, integer_product, over parts with any
positive denominator: multiply calls it, and the line kernels (lines)
slide by calling it with the step's integers, so a slide builds no step
element.  Every line row and both oracles run one left-invariant field,
invariant_field.  The form is bilinear, so what the oracles differentiate
is affine: each derivative is an exact increment, and no derivative ring
is needed."""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import lcm

from .linalg import pair_count, pair_index
from .polynomials import Poly
from .scalars import HALF, Q, ZERO, as_integers, from_integers, lowest_terms


class OmegaForm:
    """Antisymmetric bilinear form on W with values in U.

    Stored once, as its nonzero coefficients alone, in integers over one
    positive denominator `den`: `terms` keeps the index pairs i < j (lex
    order) whose U-vector is nonzero, each as (pair index, i, j,
    ((c, integer), ...)) over its nonzero coordinates in increasing c, so
    coordinate c of pair (i, j) is integer / den; the form is contracted
    over those alone.  The dense rational `table`, one U-vector per pair,
    is built on first read (for printing) and kept.
    """

    __slots__ = ("dim_w", "dim_u", "terms", "den", "_table")

    def __init__(self, dim_w, dim_u, rows):
        """From one row per index pair in lex order, each the pair's
        nonzero coordinates as (c, rational) in increasing c, taken as
        given; from_entries is the checked constructor."""
        self.dim_w, self.dim_u, self._table = int(dim_w), int(dim_u), None
        pairs = enumerate(zip(combinations(range(self.dim_w), 2), rows))
        kept = [(k, i, j, row) for k, ((i, j), row) in pairs if row]
        den = self.den = lcm(*(x.denominator for *_, row in kept for _, x in row))
        self.terms = tuple(
            (k, i, j, tuple((c, x.numerator * (den // x.denominator)) for c, x in row))
            for k, i, j, row in kept
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
                    table[k][c] = Q(x, self.den)
            self._table = tuple(map(tuple, table))
        return self._table

    def apply(self, u, v):
        """Form on coordinate vectors, from the minors u_i v_j - u_j v_i of
        the pairs in `terms` alone.  Rationals are scaled to integers, one
        denominator per vector (fraction-free, after Bareiss, Math. Comp. 22,
        1968); other entries (polynomials) are contracted in their own ring
        on the coefficients as rationals x / den, one product each."""
        if len(u) != self.dim_w or len(v) != self.dim_w:
            raise ValueError("vectors must have length dim_w")
        su, sv = as_integers(u), as_integers(v)
        if su is None or sv is None:
            terms = ((i, j, ((c, Q(x, self.den)) for c, x in row)) for _, i, j, row in self.terms)
            return self._contract((u[i] * v[j] - u[j] * v[i], row) for i, j, row in terms)
        (iu, du), (iv, dv) = su, sv
        ints, den = self.apply_integers(iu, iv)
        return from_integers(ints, du * dv * den)

    def apply_integers(self, iu, iv):
        """The form on two integer vectors of length dim_w, as (ints, den):
        form(iu, iv)[c] == ints[c] / den, den > 0 one denominator for the
        whole table."""
        out = [0] * self.dim_u
        for _, i, j, row in self.terms:
            if minor := iu[i] * iv[j] - iu[j] * iv[i]:
                for c, coeff in row:
                    out[c] += minor * coeff
        return out, self.den

    def columns(self, ix):
        """form(x, e_k) for every basis vector e_k of W, x an integer vector,
        from one pass over `terms`, as (cols, den): form(x, e_k)[c] ==
        cols[k][c] / den, so apply(x, v) == sum over k of v_k * cols[k] / den.

        At pair (i, j) the minor of (x, e_j) is x_i and that of (x, e_i)
        is -x_j; a zero coordinate of x contributes nothing.
        """
        if len(ix) != self.dim_w:
            raise ValueError("vector must have length dim_w")
        cols = [[0] * self.dim_u for _ in range(self.dim_w)]
        for _, i, j, row in self.terms:
            if xi := ix[i]:
                col = cols[j]
                for c, coeff in row:
                    col[c] += xi * coeff
            if xj := ix[j]:
                col = cols[i]
                for c, coeff in row:
                    col[c] -= xj * coeff
        return cols, self.den

    def on_wedge(self, vector):
        """Form on a second-exterior-power vector of integers, sparse as
        {pair index: integer} over pairs in lex order: integers over den."""
        return self._contract(((vector.get(k), row) for k, _, _, row in self.terms), 0)

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
        return self.dim_w, self.dim_u, self.den, self.terms

    def __eq__(self, other):
        return isinstance(other, OmegaForm) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class GroupElement:
    """Group (equivalently, algebra) element in logarithmic coordinates.

    A rational element keeps each part as (ints, den), integers over one
    denominator in lowest terms (den > 0, gcd(den, *ints) == 1): `w` and
    `u`.  Its Q tuples w_part and u_part are built only when read.  An
    element with polynomial or jet coordinates keeps the parts as given,
    and its `w` and `u` are None.  Equality and hash compare a rational
    element's integers, so it equals the same element built from Qs."""

    def __init__(self, w_part, u_part):
        parts = tuple(w_part), tuple(u_part)
        ints = [as_integers(part) for part in parts]
        self.w, self.u = (None, None) if None in ints else (lowest_terms(*i) for i in ints)
        if self.w is None:
            self.w_part, self.u_part = parts

    w_part = cached_property(lambda self: tuple(from_integers(*self.w)))
    u_part = cached_property(lambda self: tuple(from_integers(*self.u)))

    @property
    def coords(self):
        return self.w_part + self.u_part

    def _key(self):
        return (self.w, self.u) if self.w is not None else (None, self.w_part, self.u_part)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def rational_element(w, u) -> GroupElement:
    """The rational element with parts w = (ints, den) and u = (ints, den),
    integers over positive denominators, reduced to lowest terms."""
    x = GroupElement.__new__(GroupElement)
    x.w, x.u = lowest_terms(*w), lowest_terms(*u)
    return x


def identity_element(omega: OmegaForm) -> GroupElement:
    return rational_element(((0,) * omega.dim_w, 1), ((0,) * omega.dim_u, 1))


def element(omega: OmegaForm, w, u=None) -> GroupElement:
    w = tuple(x if type(x) is Q else Q(x) for x in w)
    u = tuple(x if type(x) is Q else Q(x) for x in u) if u is not None else (ZERO,) * omega.dim_u
    if len(w) != omega.dim_w or len(u) != omega.dim_u:
        raise ValueError("coordinate arity mismatch")
    return GroupElement(w, u)


def multiply(omega: OmegaForm, a: GroupElement, b: GroupElement) -> GroupElement:
    """The product (a_w + b_w, a_u + b_u + (1/2) form(a_w, b_w)).

    Rational operands run on their integers (integer_product).
    Polynomial and jet operands take the generic loop in their own ring."""
    if a.w is None or b.w is None:
        correction = omega.apply(a.w_part, b.w_part)
        w = tuple(x + y for x, y in zip(a.w_part, b.w_part))
        u = tuple(x + y + HALF * c for x, y, c in zip(a.u_part, b.u_part, correction))
        return GroupElement(w, u)
    return integer_product(omega, a.w, a.u, b.w, b.u)


def integer_product(omega: OmegaForm, aw, au, bw, bu) -> GroupElement:
    """The product of the rational elements (aw, au) and (bw, bu), each part
    (ints, den) integers over any positive den: with aw = A / p, bw = B / q
    and form(A, B) = F / e, the correction is F / m for m = 2 e p q, and
    each part is summed over the lcm of its denominators and reduced to
    lowest terms once.  No Q is built."""
    (iw, p), (iu, r), (jw, q), (ju, s) = aw, au, bw, bu
    if len(iw) != omega.dim_w or len(jw) != omega.dim_w:
        raise ValueError("vectors must have length dim_w")
    form, e = omega.apply_integers(iw, jw)
    m = 2 * e * p * q
    dw, du = lcm(p, q), lcm(r, s, m)
    fp, fq, fr, fs, fm = dw // p, dw // q, du // r, du // s, du // m
    w = [i * fp + j * fq for i, j in zip(iw, jw)]
    u = [i * fr + j * fs + f * fm for i, j, f in zip(iu, ju, form)]
    return rational_element((w, dw), (u, du))


def inverse(a: GroupElement) -> GroupElement:
    if a.w is None:
        return GroupElement(tuple(-x for x in a.w_part), tuple(-x for x in a.u_part))
    return rational_element(*(([-c for c in ints], den) for ints, den in (a.w, a.u)))


class InternalConsistencyError(AssertionError):
    pass


def invariant_field(omega: OmegaForm, iw, dw, iv, dv):
    """The left-invariant field X_v(x) = (v, (1/2) form(x_w, v)) at x_w = iw / dw
    and v = iv / dv, as integers over one positive scale, dw, dv > 0."""
    form, den = omega.apply_integers(iw, iv)
    return [*(2 * dw * den * c for c in iv), *form], 2 * dw * dv * den


def _difference(a, b):
    """a - b for two integer rows over positive scales, over their lcm."""
    (ia, p), (ib, q) = a, b
    den = lcm(p, q)
    return [x * (den // p) - y * (den // q) for x, y in zip(ia, ib)], den


def maurer_cartan_log_derivative(omega: OmegaForm, x: GroupElement, v) -> GroupElement:
    """Log-derivative at x of left translation applied to a W-direction v.

    The left-invariant field of v at x (invariant_field, which every line
    row runs), checked against the product: the form is bilinear, so
    t -> x * (t v, 0) is affine in t, and its derivative is exactly the
    increment x * (v, 0) - x, on the integers of multiply."""
    iv, dv = as_integers(v)
    if len(iv) != omega.dim_w:
        raise ValueError("direction must lie in W")
    field, scale = invariant_field(omega, *x.w, iv, dv)
    closed = rational_element((field[: omega.dim_w], scale), (field[omega.dim_w :], scale))
    moved = multiply(omega, x, rational_element((iv, dv), ((0,) * omega.dim_u, 1)))
    if rational_element(_difference(moved.w, x.w), _difference(moved.u, x.u)) != closed:
        raise InternalConsistencyError("closed form and increment derivative disagree")
    return closed


def levi_tensor(omega: OmegaForm, x: GroupElement, u, v):
    """U-component of the bracket of the left-invariant extensions of u, v.

    The bracket at x is D_{X_u} X_v - D_{X_v} X_u.  The form is bilinear,
    so the field X_v(z) = (v, (1/2) form(z_w, v)) is affine in z and free
    of z_u: along a, its derivative is exactly X_v(x_w + a_w) - X_v(x_w),
    and X_u(x) has W-part u.  The four fields are invariant_field's
    integers, x_w + a over dx * da; a Q is built only for the U-part.
    """
    (iw, dx), a, b = x.w, as_integers(u), as_integers(v)

    def derivative(direction, ia, da):
        moved = [c * da + d * dx for c, d in zip(iw, ia)]
        at_x = invariant_field(omega, iw, dx, *direction)
        return _difference(invariant_field(omega, moved, dx * da, *direction), at_x)

    values, den = _difference(derivative(b, *a), derivative(a, *b))
    if any(values[: omega.dim_w]):
        raise InternalConsistencyError("field bracket left the center")
    return tuple(from_integers(values[omega.dim_w :], den))


def _symbolic_element(omega: OmegaForm, nvars, offset):
    coords = [Poly.var(offset + i, nvars) for i in range(omega.dim_w + omega.dim_u)]
    return GroupElement(coords[: omega.dim_w], coords[omega.dim_w :])


def associativity_holds(omega: OmegaForm) -> bool:
    """Prove (a b) c == a (b c) as a polynomial identity."""
    n = omega.dim_w + omega.dim_u
    a, b, c = (_symbolic_element(omega, 3 * n, k * n) for k in range(3))
    return multiply(omega, multiply(omega, a, b), c) == multiply(omega, a, multiply(omega, b, c))


def commutator_matches_bracket(omega: OmegaForm) -> bool:
    """Prove a b a^-1 b^-1 == exp(bracket) symbolically for W-directions."""
    m = omega.dim_w
    zeros_u = tuple(Poly.zero(2 * m) for _ in range(omega.dim_u))
    a = GroupElement((Poly.var(i, 2 * m) for i in range(m)), zeros_u)
    b = GroupElement((Poly.var(m + i, 2 * m) for i in range(m)), zeros_u)
    left = multiply(omega, multiply(omega, multiply(omega, a, b), inverse(a)), inverse(b))
    bracket = omega.apply(a.w_part, b.w_part)
    return left == GroupElement((Poly.zero(2 * m) for _ in range(m)), bracket)


def one_parameter_subgroup_holds(omega: OmegaForm) -> bool:
    """Prove (s w, 0) (t w, 0) == ((s+t) w, 0) symbolically in s, t and w."""
    m = omega.dim_w
    *w, s, t = (Poly.var(i, m + 2) for i in range(m + 2))
    zeros_u = tuple(Poly.zero(m + 2) for _ in range(omega.dim_u))
    a = GroupElement((s * wi for wi in w), zeros_u)
    b = GroupElement((t * wi for wi in w), zeros_u)
    return multiply(omega, a, b) == GroupElement(((s + t) * wi for wi in w), zeros_u)
