"""Exact linear algebra over the rationals.

Every row reduction in the package is one engine, _rref, which always
takes the leftmost available pivot, so every rank, span, kernel and
solve below is deterministic; solve_in_span feeds it the first ncols + 1
rows and checks the rest by exact dot products, reducing all rows only
when one of those checks fails.  Matrices are immutable value types;
the wedge helpers fix the lexicographic pair ordering used for second
exterior powers throughout the package.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm

from .scalars import Q, ZERO, as_integers


class NotInSpan(Exception):
    """Target is outside the span; carries the exact nonzero residual."""

    def __init__(self, residual):
        self.residual = tuple(residual)
        super().__init__(f"target not in span, residual {self.residual!r}")


def _sparse(ints):
    """An integer row's nonzero entries as {column: integer}, divided by
    their content."""
    g = gcd(*ints) or 1
    return {k: x // g for k, x in enumerate(ints) if x}


def _integer_row(row):
    """The row's nonzero entries as {column: integer}, scaled to coprime
    integers by a positive rational factor."""
    return _sparse(as_integers(row)[0])


def _rref(rows, ncols):
    """Row reduction with leftmost pivots; returns (pivot_rows, pivots).

    Pivots are taken from the first ncols columns; later columns are
    carried along (used for augmented solves).  The rows are eliminated
    as sparse integer rows ({column: integer}, zero entries absent), and
    pivot_rows are the nonzero rows of the reduced form in that
    representation, in pivot order: the rational reduced row reads
    row[k] / row[pivot] at column k and zero where k is absent
    (rational_rows).  A row given as a dict is taken to be in that
    representation, any other as a sequence of rationals.  The rows
    past the pivots are dropped; without carried columns they are zero.
    So rank and solve materialize only the pivots and the solution
    column; dense rational rows are built only by rational_rows, for
    Mat.rref and for the W' basis that build-omega prints.

    Elimination is fraction-free (integer-preserving, after Bareiss,
    Math. Comp. 22, 1968): every row is cleared to integers, combined
    as pv * row_i - f * row_r and divided by its content.  Each integer
    row is then a nonzero multiple of the row that rational elimination
    would hold at the same step, so zero patterns and pivots agree.
    """
    work = [r if type(r) is dict else _integer_row(r) for r in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if c in work[i]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        row_r = work[r]
        pv = row_r[c]
        for i, row_i in enumerate(work):
            f = row_i.get(c)
            if f is None or i == r:
                continue
            row = {k: pv * a for k, a in row_i.items()}
            for k, b in row_r.items():
                a = row.get(k, 0) - f * b
                if a:
                    row[k] = a
                else:  # a cancellation: k was in row_i
                    del row[k]
            g = gcd(*row.values())
            work[i] = {k: x // g for k, x in row.items()} if g > 1 else row
        pivots.append(c)
        r += 1
    return work[:r], tuple(pivots)


def integer_rref(rows, ncols):
    """_rref of rows of Python integers, each given as a sequence: its
    (pivot_rows, pivots), the pivot rows sparse as _rref returns them.  A
    positive factor on a row moves neither, so rows of integers over one
    positive scale each are reduced without their scales."""
    return _rref([_sparse(row) for row in rows], ncols)


def rational_rows(rows, pivots, ncols):
    """The dense rational rows of _rref's sparse integer pivot rows."""
    return [
        [Q(row[k], row[c]) if k in row else ZERO for k in range(ncols)]
        for row, c in zip(rows, pivots)
    ]


def combine_rows(rows, pivots, coeffs, ncols):
    """The sum over r of coeffs[r] times rational row r of _rref's sparse
    integer pivot rows (row[k] / row[pivots[r]]), for integer coeffs, as
    (sums, den) with den > 0: the sum reads sums[k] / den at column k."""
    terms = [(c, row, row[p]) for c, row, p in zip(coeffs, rows, pivots) if c]
    den = lcm(*(pv for _, _, pv in terms))
    sums = [0] * ncols
    for c, row, pv in terms:
        f = c * (den // pv)
        for k, a in row.items():
            sums[k] += f * a
    return sums, den


# Entries kept as given: integers are rationals too, and _rref reads them
# without building a Q each (a fraction-free system stays in integers).
_EXACT = (Q, int)


class Mat:
    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(x if type(x) in _EXACT else Q(x) for x in row) for row in entries)
        self.entries = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged matrix")

    @classmethod
    def from_cols(cls, cols):
        return cls(list(zip(*cols)))

    def rref(self):
        rows, pivots = _rref(self.entries, self.ncols)
        reduced = rational_rows(rows, pivots, self.ncols)
        zero_rows = [[ZERO] * self.ncols] * (self.nrows - len(rows))
        return Mat(reduced + zero_rows), pivots

    def rank(self):
        return len(_rref(self.entries, self.ncols)[1])

    def times_vector(self, v):
        v = list(v)
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        support = [(k, b) for k, b in enumerate(v) if b]
        return tuple(
            sum((row[k] * b for k, b in support if row[k]), ZERO) for row in self.entries
        )

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Mat({[list(map(str, r)) for r in self.entries]!r})"


def solve_in_span(basis: Mat, target):
    """Coefficients c with basis @ c == target, basis columns spanning.

    When the columns are dependent the solution is the canonical
    representative with every free coordinate set to zero (free = the
    non-pivot columns under leftmost-pivot reduction).  The target is in
    the span exactly when its column in [basis | target] takes no pivot;
    otherwise NotInSpan carries its exact residual against the solution
    of a reduction of every row, pivoting on the basis columns only.

    The first ncols + 1 augmented rows are reduced, and every later row
    is checked against their canonical solution by one integer dot
    product.  Their pivots are a subset of the full system's, so a
    solution of theirs that satisfies every row is zero on the full
    system's free columns: the canonical solution; and a target pivot
    among them is one of the full system.  When some later row fails the
    check, all rows are reduced once instead.
    """
    target = [x if type(x) in _EXACT else Q(x) for x in target]
    if len(target) != basis.nrows:
        raise ValueError("dimension mismatch")
    ncols = basis.ncols
    rows = [_integer_row(row + (t,)) for row, t in zip(basis.entries, target)]
    kept, pivots = _rref(rows[: ncols + 1], ncols + 1)
    if ncols not in pivots and len(rows) > ncols + 1:
        solved = [(c, r[ncols], r[c]) for r, c in zip(kept, pivots) if ncols in r]
        den = lcm(*(pv for _, _, pv in solved))
        solution = {c: t * (den // pv) for c, t, pv in solved} | {ncols: -den}
        if any(  # row . den (c, -1) != 0
            sum(a * solution[k] for k, a in row.items() if k in solution)
            for row in rows[ncols + 1 :]
        ):
            kept, pivots = _rref(rows, ncols + 1)
    in_span = ncols not in pivots
    rows, pivots = (kept, pivots) if in_span else _rref(rows, ncols)
    coeffs = [ZERO] * ncols
    for row, c in zip(rows, pivots):
        if ncols in row:
            coeffs[c] = Q(row[ncols], row[c])
    if not in_span:
        raise NotInSpan([t - s for t, s in zip(target, basis.times_vector(coeffs))])
    return tuple(coeffs)


def pair_count(m):
    return m * (m - 1) // 2


def pair_index(i, j, m):
    if not 0 <= i < j < m:
        raise ValueError("pair out of range")
    return i * m - i * (i + 1) // 2 + (j - i - 1)


def wedge(u, v):
    """Second-exterior-power coordinates of u and v, pairs in lex order.

    Generic over ring elements (rationals, jets, polynomials).
    """
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(len(u)), 2)]


class SpanAccumulator:
    """Span kept in reduced row echelon form with leftmost pivots, as
    _rref's sparse integer pivot rows."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []
        self.pivots = ()

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, vec):
        """Add a vector; returns True when it increases the rank.

        The stored rows and the new vector are reduced again by _rref.
        The stored rows are already reduced, so each of their pivots
        clears at most the new row, and a remainder clears its own column
        from the rows above it.  The reduced row echelon form of a span is
        unique, so the rows equal those of a full reduction.
        """
        rank = len(self.rows)
        self.rows, self.pivots = _rref([*self.rows, vec], self.dim)
        return len(self.rows) > rank

    def free_columns(self):
        taken = set(self.pivots)
        return tuple(c for c in range(self.dim) if c not in taken)
