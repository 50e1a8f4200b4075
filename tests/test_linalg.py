import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaline import family_geometry as fam
from metaline import linalg
from metaline.linalg import (
    Mat,
    NotInSpan,
    SpanAccumulator,
    pair_count,
    pair_index,
    rational_rows,
    solve_in_span,
    wedge,
)
from metaline.metabelian import element
from metaline.omega_builder import build_omega
from metaline.sampling import RationalSampler
from metaline.scalars import Q
from metaline.varieties import builtin_chart

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8).map(
    lambda f: Q(f.numerator, f.denominator)
)
sparse_rationals = st.one_of(st.just(Q(0)), rationals)


def _rational_rref(rows, limit=None):
    """Plain rational Gauss-Jordan with leftmost pivots: each pivot row is
    divided by its pivot, then subtracted from every other row."""
    work = [[Q(x) for x in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols if limit is None else limit):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(nrows):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, tuple(pivots)


def _rational_solve(basis_rows, target):
    """(coefficients, residual) from the reference elimination of the
    augmented matrix, free coordinates set to zero."""
    ncols = len(basis_rows[0])
    augmented = [list(row) + [t] for row, t in zip(basis_rows, target)]
    reduced, pivots = _rational_rref(augmented, limit=ncols)
    coeffs = [Q(0)] * ncols
    for r, c in enumerate(pivots):
        coeffs[c] = reduced[r][ncols]
    image = [sum((a * x for a, x in zip(row, coeffs)), Q(0)) for row in basis_rows]
    return tuple(coeffs), tuple(Q(t) - s for t, s in zip(target, image))


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """Small rational matrices, often sparse, often with a dependent row."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(sparse_rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=max_rows))
    if draw(st.booleans()):
        a, b = draw(rationals), draw(rationals)
        combination = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
        rows.insert(draw(st.integers(0, len(rows))), combination)
    return rows


@st.composite
def tall_sparse_matrices(draw, max_rows=24, max_cols=12):
    """Taller rational matrices, up to 24 x 12, with about one entry in
    six nonzero, so rows and columns of zeros and rank deficiency occur."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
            rationals.filter(bool),
            max_size=max(1, nrows * ncols // 6),
        )
    )
    return [[cells.get((i, j), Q(0)) for j in range(ncols)] for i in range(nrows)]


any_matrices = st.one_of(matrices(), tall_sparse_matrices())


def test_rref_takes_leftmost_pivots():
    m = Mat([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = m.rref()
    assert pivots == (0, 1)
    assert reduced.entries[0] == (1, 0, -1)
    assert reduced.entries[1] == (0, 1, 2)
    assert reduced.entries[2] == (0, 0, 0)
    assert m.rank() == 2


def test_rref_of_rank_deficient_matrix_with_zero_rows():
    m = Mat([[0, 0, 0], [2, -4, 6], [0, 0, 0], [-1, 2, -3]])
    reduced, pivots = m.rref()
    assert pivots == (0,)
    assert reduced.entries == ((1, -2, 3), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert m.rank() == 1
    zero = Mat([[0, 0]] * 3)
    assert zero.rref() == (zero, ())


def test_rref_with_negative_and_non_unit_pivots():
    expected = ((1, 0, 1), (0, 1, 2))
    assert Mat([[-2, 4, 6], [3, -1, 1]]).rref() == (Mat(expected), (0, 1))
    scaled = Mat([[Q(-1, 2), 1, Q(3, 2)], [Q(3, 4), Q(-1, 4), Q(1, 4)]])
    assert scaled.rref() == (Mat(expected), (0, 1))
    reduced, pivots = Mat([[0, -3, Q(1, 2)], [0, 6, 5]]).rref()
    assert pivots == (1, 2)
    assert reduced.entries == ((0, 1, 0), (0, 0, 1))


@settings(max_examples=300, deadline=None)
@given(any_matrices)
def test_rref_matches_rational_elimination(rows):
    reduced, pivots = Mat(rows).rref()
    expected, expected_pivots = _rational_rref(rows)
    assert pivots == expected_pivots
    assert reduced == Mat(expected)
    assert Mat(rows).rank() == len(expected_pivots)


@st.composite
def free_systems(draw):
    """(basis rows, target) with targets drawn freely (mostly outside the
    span of a tall matrix) or inside it, as the image of a sparse
    coefficient vector."""
    rows = draw(any_matrices)
    if draw(st.booleans()):
        return rows, draw(st.lists(sparse_rationals, min_size=len(rows), max_size=len(rows)))
    c = draw(st.lists(sparse_rationals, min_size=len(rows[0]), max_size=len(rows[0])))
    return rows, list(Mat(rows).times_vector(c))


@st.composite
def staged_systems(draw):
    """(basis rows, target) whose first ncols + 1 rows reach only the
    columns below k, so their canonical solution is zero from column k
    on.  A later trap row is zero below k and orthogonal to the planted
    coefficients c, so its target is zero: that solution satisfies it
    although it may be independent.  A row after it can make its columns
    pivots, and then only a second look at the trap finds it failing.
    The target is basis @ c, for a c that may be zero; half the systems
    then move the last target entry, so an inconsistency can show only
    there.  Zero rows, rank deficiency and a zero-width basis occur."""
    ncols = draw(st.integers(0, 6))
    k = draw(st.integers(0, ncols))
    c = draw(st.lists(sparse_rationals, min_size=ncols, max_size=ncols))
    lead = st.lists(sparse_rationals, min_size=k, max_size=k)
    rows = draw(st.lists(lead, min_size=ncols + 1, max_size=ncols + 1))
    rows = [row + [Q(0)] * (ncols - k) for row in rows]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "trap", "zero"]))
        if kind == "trap" and ncols - k >= 2:
            i, j = draw(st.lists(st.integers(k, ncols - 1), min_size=2, max_size=2, unique=True))
            a = draw(rationals)
            row = [Q(0)] * ncols
            row[i], row[j] = a * c[j], -a * c[i]
        elif kind == "zero":
            row = [Q(0)] * ncols
        else:
            row = draw(st.lists(sparse_rationals, min_size=ncols, max_size=ncols))
        rows.append(row)
    target = [sum((a * x for a, x in zip(row, c)), Q(0)) for row in rows]
    if draw(st.booleans()):
        target[-1] += draw(rationals.filter(bool))
    return rows, target


# The first ncols + 1 = 4 rows reduce to (1, 0, 0 | 1).  Its candidate
# (1, 0, 0) satisfies the trap row (0, 1, 0 | 0) but not (0, 1, 1 | 1), so
# all six rows are reduced; the solution is (1, 0, 1).
_RECHECKED = (
    [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 1, 1]],
    [1, 0, 0, 0, 0, 1],
)
# The same, then the inconsistent row (0, 0, 0 | 1) after the row that the
# first candidate fails: the reduction of all seven rows gives the
# candidate (1, 0, 1), which fails it, so the target is off the span.
_OFF_SPAN_AFTER_RECHECK = (
    [*_RECHECKED[0], [0, 0, 0]],
    [*_RECHECKED[1], 1],
)


@settings(max_examples=600, deadline=None)
@example(_RECHECKED)
@example(_OFF_SPAN_AFTER_RECHECK)
@given(st.one_of(free_systems(), staged_systems()))
def test_solve_in_span_matches_rational_elimination(system):
    """Against the reference elimination: the coefficients in span, the
    exact residual off it.  Guard: at most two _rref calls, each pivoting
    on the basis columns only."""
    rows, target = system
    coeffs, residual = _rational_solve(rows, target)
    basis, calls = Mat(rows), []
    original_rref = linalg._rref

    def recording_rref(rref_rows, ncols):
        calls.append((len(rref_rows), ncols))
        return original_rref(rref_rows, ncols)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_rref", recording_rref)
        if any(x != 0 for x in residual):
            with pytest.raises(NotInSpan) as err:
                solve_in_span(basis, target)
            assert err.value.residual == residual
        else:
            assert solve_in_span(basis, target) == coeffs
    assert 1 <= len(calls) <= 2
    assert all(ncols == basis.ncols for _, ncols in calls)


def _conic_slide_sample():
    """One slide-identity sample on veronese3-of-conic: the form, the
    chart frame and (plane, delta, t) as check_slide_identity takes them,
    the plane at the primary pivots."""
    chart, omega = builtin_chart("veronese3-of-conic")
    omega = build_omega(chart).omega
    sampler = RationalSampler(42).derive("linalg-replay")
    param = sampler.vector(chart.param_dim)
    x = element(omega, sampler.vector(omega.dim_w), sampler.vector(omega.dim_u))
    delta, t = sampler.nonzero_vector(chart.param_dim), sampler.nonzero_rational()
    frame = chart.frame_integers(param)
    return omega, frame, next(fam.line_planes(omega, x, frame[0])), delta, t


def _conic_slide_solve():
    """The basepoint variation and the slide shift of the sample, as
    check_slide_identity hands them to solve_in_span before the Schur
    reduction (an 86 x 44 solve)."""
    omega, frame, plane, delta, t = _conic_slide_sample()
    j_t = fam.direction_variation(omega, frame, plane, delta, t)
    j_0 = fam.direction_variation(omega, frame, plane, delta, 0)
    shift = [a - b for ra, rb in zip(j_t.entries, j_0.entries) for a, b in zip(ra, rb)]
    return fam.basepoint_variation(omega, plane), shift


def test_the_conic_slide_solve_reduces_only_rank_raising_rows(monkeypatch):
    """Guard: the in-span solve of a conic slide sample (52 x 10, rank 9)
    hands no _rref call more than ncols + 1 rows; the rows the kept
    solution already satisfies are checked, not eliminated."""
    omega, frame, plane, delta, t = _conic_slide_sample()
    sizes, solves = [], []
    original_rref = linalg._rref

    def recording_rref(rows, ncols):
        sizes.append(len(rows))
        return original_rref(rows, ncols)

    def recording_solve(basis, target):
        del sizes[:]
        coeffs = solve_in_span(basis, target)
        solves.append((basis.nrows, basis.ncols, list(sizes)))
        return coeffs

    monkeypatch.setattr(linalg, "_rref", recording_rref)
    monkeypatch.setattr(fam, "solve_in_span", recording_solve)
    assert fam.check_slide_identity(omega, frame, plane, delta, t).ok
    [(nrows, ncols, sizes)] = solves
    assert (nrows, ncols) == (52, 10)
    assert sizes and max(sizes) <= ncols + 1


def test_real_slide_solve_matches_rational_elimination():
    bvm, shift = _conic_slide_solve()
    assert (bvm.nrows, bvm.ncols) == (86, 44)
    coeffs, residual = _rational_solve(bvm.entries, shift)
    assert not any(residual)
    assert solve_in_span(bvm, shift) == coeffs
    # Off the span, the residual depends on which rows the elimination
    # takes as pivot rows; moving the last entry makes that choice show.
    shift[-1] += 1
    coeffs, residual = _rational_solve(bvm.entries, shift)
    with pytest.raises(NotInSpan) as err:
        solve_in_span(bvm, shift)
    assert err.value.residual == residual and any(residual)


def test_rref_is_idempotent():
    m = Mat([[2, 4], [6, 9]])
    reduced, _ = m.rref()
    assert reduced.rref()[0] == reduced


def test_matrix_helpers():
    m = Mat([[1, 2, 3], [4, 5, 6]])
    assert m.times_vector((1, 0, -1)) == (-2, -2)
    assert Mat.from_cols([(1, 2), (3, 4)]) == Mat([[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])


def test_solve_in_span_exact():
    basis = Mat.from_cols([(1, 0, 1), (0, 1, 1)])
    coeffs = solve_in_span(basis, (2, 3, 5))
    assert coeffs == (2, 3)
    assert basis.times_vector(coeffs) == (2, 3, 5)


def test_solve_in_span_canonical_on_dependent_columns():
    # third column = first + second; its coefficient is free, pinned to zero
    basis = Mat.from_cols([(1, 0), (0, 1), (1, 1)])
    assert solve_in_span(basis, (4, 7)) == (4, 7, 0)


def test_solve_in_span_residual():
    basis = Mat.from_cols([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(NotInSpan) as err:
        solve_in_span(basis, (1, 2, 3))
    assert err.value.residual == (0, 0, 3)


def test_solve_in_span_residual_with_non_unit_pivots():
    # the rational solve of the first two rows gives c = (1/6, -1)
    basis = Mat.from_cols([(2, 0, 1), (0, -3, 1)])
    target = (Q(1, 3), 3, 5)
    with pytest.raises(NotInSpan) as err:
        solve_in_span(basis, target)
    assert err.value.residual == (0, 0, Q(35, 6))
    assert _rational_solve(basis.entries, target) == ((Q(1, 6), -1), (0, 0, Q(35, 6)))


def test_solve_in_span_canonical_with_non_unit_dependent_column():
    # second column = -1/2 first: no pivot there, its coefficient is zero
    basis = Mat.from_cols([(2, -4), (-1, 2), (0, 3)])
    assert solve_in_span(basis, (4, 1)) == (2, 0, 3)


def test_pair_indexing():
    assert pair_count(4) == 6
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert pairs[0] == (0, 1) and pairs[-1] == (2, 3)
    for k, (i, j) in enumerate(pairs):
        assert pair_index(i, j, 4) == k
    with pytest.raises(ValueError):
        pair_index(2, 2, 4)


def test_wedge_antisymmetry_and_order():
    u, v = (1, 2, 3), (4, 5, 6)
    w = wedge(u, v)
    assert w == [1 * 5 - 2 * 4, 1 * 6 - 3 * 4, 2 * 6 - 3 * 5]
    assert wedge(v, u) == [-c for c in w]
    assert all(c == 0 for c in wedge(u, u))


def test_span_accumulator_matches_rref_rank():
    sampler = RationalSampler(3)
    vectors = [sampler.vector(5) for _ in range(8)]
    acc = SpanAccumulator(5)
    for vec in vectors:
        acc.insert([vec])
    assert acc.rank == Mat(vectors).rank()
    basis = Mat(rational_rows(acc.rows, acc.pivots, 5))
    assert basis.rref()[0] == basis
    assert set(acc.pivots) | set(acc.free_columns()) == set(range(5))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.lists(sparse_rationals, min_size=5, max_size=5), max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_span_accumulator_rows_are_the_rref_of_its_inputs(batches):
    """Vectors go in by batches, empty ones included: after each insert
    the rows are the reduced form of every vector inserted so far."""
    acc = SpanAccumulator(5)
    inserted = []
    for batch in batches:
        rank = acc.rank
        grew = acc.insert(batch)
        inserted += batch
        reduced, pivots = _rational_rref(inserted)
        assert Mat(rational_rows(acc.rows, acc.pivots, 5)) == Mat(reduced[: len(pivots)])
        assert acc.pivots == pivots
        assert grew == (len(pivots) > rank)


def test_span_accumulator_rejects_dependents():
    acc = SpanAccumulator(3)
    assert acc.insert([(1, 2, 3)])
    assert not acc.insert([(2, 4, 6)])
    assert acc.insert([(0, 1, 0)])
    assert not acc.insert([(1, 3, 3)])
    assert acc.rank == 2


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
def test_wedge_bilinear(u, v):
    double = wedge([2 * c for c in u], v)
    assert double == [2 * c for c in wedge(u, v)]


def test_rank_invariant_under_permutation_and_transpose():
    sampler = RationalSampler(23)
    for _ in range(10):
        rows = [sampler.vector(4) for _ in range(3)]
        m = Mat(rows)
        r = m.rank()
        assert Mat(rows[::-1]).rank() == r
        flipped = Mat([row[::-1] for row in rows])
        assert flipped.rank() == r
        transposed = Mat([[rows[i][j] for i in range(3)] for j in range(4)])
        assert transposed.rank() == r


def test_wedge_bilinear_alternating_deterministic():
    # contract asks for 200 fixed pseudo-random inputs
    sampler = RationalSampler(31)
    zero = [Q(0)] * 6
    for _ in range(200):
        u = sampler.vector(4)
        v = sampler.vector(4)
        a = sampler.nonzero_rational()
        assert wedge(u, u) == zero
        assert wedge(u, v) == [-c for c in wedge(v, u)]
        assert wedge([a * c for c in u], v) == [a * c for c in wedge(u, v)]
        w = sampler.vector(4)
        left = wedge([x + y for x, y in zip(u, w)], v)
        assert left == [x + y for x, y in zip(wedge(u, v), wedge(w, v))]


def test_solve_in_span_zero_target():
    basis = Mat.from_cols([(1, 2), (2, 4), (0, 5)])
    assert solve_in_span(basis, (0, 0)) == (0, 0, 0)


def test_solve_in_span_zero_width_basis():
    basis = Mat([[], [], []])
    assert solve_in_span(basis, (0, 0, 0)) == ()
    with pytest.raises(NotInSpan) as err:
        solve_in_span(basis, (0, Q(1, 2), 0))
    assert err.value.residual == (0, Q(1, 2), 0)


def test_solve_in_span_through_a_dependent_column():
    # the target is twice the third column, which is three times the first:
    # the third column takes no pivot, so the first carries the solution
    basis = Mat.from_cols([(1, 2, 0), (0, 0, 1), (3, 6, 0)])
    assert solve_in_span(basis, (6, 12, 0)) == (6, 0, 0)
