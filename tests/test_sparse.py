"""Sparse integer and GF(2) kernels against plain dense references."""

import heapq
import random
import tracemalloc
from itertools import compress

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from properk import abelian
from properk.abelian import IntMatrix, invariant_factors, smith_normal_form
from properk.ahss import build_e2
from properk.coxeter import build_bestvina_orbit_complex, build_davis_orbit_complex
from conftest import dinf, random_int_matrix

SMALL = st.integers(-4, 4)


@st.composite
def dense(draw, rows=None, cols=None, entries=SMALL):
    """A dense list-of-lists matrix, mostly zeros, with its column count."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    entry = st.one_of(st.just(0), st.just(0), entries)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)), cols


@st.composite
def dense_pair(draw):
    """Two dense matrices whose product is defined."""
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(dense(n, k))[0], draw(dense(k, m))[0], k, m


def to_int(a, cols):
    return IntMatrix.from_rows(a, cols=cols)


def dense_product(a, b, m):
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(m)] for row in a]


@given(dense())
def test_round_trip_and_entries(mat):
    a, cols = mat
    m = to_int(a, cols)
    assert m.to_rows() == a
    assert m.entries == tuple(x for row in a for x in row)
    assert all(m.entry(i, j) == a[i][j] for i in range(m.rows) for j in range(cols))
    assert all(0 not in row.values() for row in m.data)
    assert sum(map(len, m.data)) == sum(1 for row in a for x in row if x)
    assert m.is_zero() == (not any(x for row in a for x in row))
    assert IntMatrix.from_sparse(m.rows, m.cols, [dict(enumerate(row)) for row in a]) == m


@given(dense())
def test_transpose(mat):
    a, cols = mat
    m = to_int(a, cols)
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, len(a))
    assert t.to_rows() == [[a[i][j] for i in range(len(a))] for j in range(cols)]
    assert t.transpose() == m


@given(dense_pair())
def test_product(pair):
    a, b, k, m = pair
    p = to_int(a, k) * to_int(b, m)
    assert (p.rows, p.cols) == (len(a), m)
    assert p.to_rows() == dense_product(a, b, m)
    assert all(0 not in row.values() for row in p.data)


@given(dense(entries=st.integers(-9, 9)))
def test_mod2(mat):
    a, cols = mat
    assert to_int(a, cols).mod2().to_rows() == [[x % 2 for x in row] for row in a]


@given(dense(), dense())
def test_equality_is_entrywise(first, second):
    (a, ca), (b, cb) = first, second
    same = (len(a), ca, a) == (len(b), cb, b)
    assert (to_int(a, ca) == to_int(b, cb)) == same
    if same:
        assert hash(to_int(a, ca)) == hash(to_int(b, cb))


def test_identity_zero_and_bad_rows():
    assert IntMatrix.identity(3).to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert IntMatrix.zero(2, 3).to_rows() == [[0] * 3] * 2
    assert IntMatrix.from_sparse(2, 3, [{0: 0, 2: 5}, {}]).data == ({2: 5}, {})
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ({2: 1},))  # column out of range
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ({0: 0},))  # stored zero
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ({},))  # too few rows
    with pytest.raises(IndexError):
        IntMatrix.zero(1, 1).entry(0, 1)



def per_row_check(cols: int, data) -> None:
    """The row check ``IntMatrix`` made one row at a time before it checked
    them in bulk, kept as the reference."""
    for row in data:
        if row and (0 in row.values() or min(row) < 0 or max(row) >= cols):
            raise ValueError("sparse row holds a zero or a column out of range")


@given(st.integers(0, 4),
       st.lists(st.dictionaries(st.integers(-2, 6), st.integers(-2, 2), max_size=4), max_size=5))
def test_bulk_row_check_raises_exactly_when_the_per_row_check_does(cols, data):
    # Zero values, negative columns, columns >= cols and empty rows, alone
    # and together: the same condition and the same message.
    try:
        per_row_check(cols, data)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            IntMatrix(len(data), cols, tuple(data))
        assert str(err.value) == str(exc)
    else:
        assert IntMatrix(len(data), cols, tuple(data)).data == tuple(data)

def dense_rank2(rows, cols):
    """Row reduction over GF(2) on lists of 0/1."""
    a = [[x % 2 for x in row] for row in rows]
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                a[i] = [x ^ y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@given(dense(entries=st.just(1)))
def test_rank2_against_dense_elimination(mat):
    a, cols = mat
    m = to_int(a, cols).mod2()
    assert m.rank2() == dense_rank2(a, cols)


@given(st.integers(1, 12), st.integers(1, 12), st.randoms(use_true_random=False))
def test_rank2_of_products_is_bounded(n, k, rng):
    # Rank of a product of a random n x k and k x n matrix: never above k.
    a = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(0, 1) for _ in range(n)] for _ in range(k)]
    p = to_int(a, k).mod2() * to_int(b, n).mod2()
    assert p.rank2() == dense_rank2(p.to_rows(), n) <= min(n, k)


# ---------------------------------------------------------------------------
# Smith normal form against sympy, a test-only oracle


def sympy_factors(m: IntMatrix) -> tuple[int, ...]:
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return ()
    d = smith_normal_form(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(d.shape))]
    return tuple(sorted(x for x in diag if x))


def test_invariant_factors_match_sympy_on_random_matrices():
    rng = random.Random(7)
    for _ in range(150):
        m = random_int_matrix(rng)
        assert invariant_factors(m) == sympy_factors(m), m.to_rows()


def no_unit_matrix(rng: random.Random) -> IntMatrix:
    """A matrix with no entry ±1, so the dense finish does all the work."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    choices = (0, 0, 2, -2, 3, -3, 4, 6, -9, 10)
    return IntMatrix.from_rows([[rng.choice(choices) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


def test_invariant_factors_match_sympy_without_unit_pivots():
    rng = random.Random(8)
    for _ in range(150):
        m = no_unit_matrix(rng)
        assert invariant_factors(m) == sympy_factors(m), m.to_rows()


def test_invariant_factors_match_sympy_with_a_residual():
    # A unit block on top of a residual without units: the sparse pass
    # clears the units, the dense finish sees what is left.
    rng = random.Random(9)
    for _ in range(100):
        core = no_unit_matrix(rng).to_rows()
        width = len(core[0])
        rows = [[1] + [rng.randint(-3, 3) for _ in range(width)]]
        rows += [[rng.choice((0, 2, -4))] + row for row in core]
        m = IntMatrix.from_rows(rows)
        assert invariant_factors(m) == sympy_factors(m), rows


def staircase_matrix(rng: random.Random) -> IntMatrix:
    """A unit-triangular staircase with shuffled columns over a residual
    block without units.  Staircase row i has ±1 at its own column and
    entries, some not units, at the columns of later staircase rows and of
    the residual, so its column is alone only once every earlier staircase
    row is pivoted, and not at all if a residual row meets it (with an entry
    that is not a unit).  Sometimes the rows are shuffled too."""
    n = rng.randint(1, 6)
    core = no_unit_matrix(rng).to_rows() if rng.random() < 0.7 else []
    width = len(core[0]) if core else 0
    order = list(range(n + width))
    rng.shuffle(order)
    stair, tail = order[:n], order[n:]
    rows = []
    for i in range(n):
        row = [0] * (n + width)
        row[stair[i]] = rng.choice((1, -1))
        for k in range(i + 1, n):
            row[stair[k]] = rng.choice((0, 0, 1, -1, 2, -3))
        for j in tail:
            row[j] = rng.choice((0, 0, 1, 2, -2))
        rows.append(row)
    for residual in core:
        row = [0] * (n + width)
        for j in stair:
            row[j] = rng.choice((0, 0, 0, 2, -4, 6))
        for j, x in zip(tail, residual):
            row[j] = x
        rows.append(row)
    if rng.random() < 0.3:
        rng.shuffle(rows)
    return IntMatrix.from_rows(rows, cols=n + width)


def test_unit_pivots_match_sympy_and_hold_a_unimodular_minor():
    # Whichever phase of invariant_factors takes a unit pivot, the kept rows
    # have the factors sympy finds, and on the reported pivot columns they
    # have a Smith form of all ones of full rank: the minor that
    # factor_integral relies on when it skips those rows of the next map.
    rng = random.Random(25)
    for _ in range(150):
        m = staircase_matrix(rng)
        skip = {i for i in range(m.rows) if rng.random() < 0.25}
        pivots = set()
        factors = invariant_factors(m, skip, pivots)
        kept = [row for i, row in enumerate(m.to_rows()) if i not in skip]
        assert factors == sympy_factors(IntMatrix.from_rows(kept, cols=m.cols)), (kept, skip)
        cols = sorted(pivots)
        minor = IntMatrix.from_rows([[row[j] for j in cols] for row in kept], cols=len(cols))
        assert sympy_factors(minor) == (1,) * len(cols), (kept, cols)


# ---------------------------------------------------------------------------
# The counting singleton pass against the row-set kernel it replaced


def reference_invariant_factors(m: IntMatrix, skip=(), pivot_cols=None) -> tuple[int, ...]:
    """``invariant_factors`` as it was before its singleton pass counted the
    rows at each column: every column keeps the set of alive rows meeting
    it, from the start and through both phases.  Kept as the reference for
    the factors and the unit pivot columns."""
    rows = [row for i, row in enumerate(m.data) if i not in skip] if skip else m.data
    rows = [row for row in rows if row]
    col_rows: dict[int, set[int]] = {}
    for ridx, row in enumerate(rows):
        for j in row:
            if (members := col_rows.get(j)) is None:
                col_rows[j] = {ridx}
            else:
                members.add(ridx)
    ones = 0
    sparse: list[dict[int, int]] = [{}] * len(rows)
    pending = []
    for ridx, row in enumerate(rows):
        alone = [k for k, x in row.items() if (x == 1 or x == -1) and len(col_rows[k]) == 1]
        if not alone:
            sparse[ridx] = dict(row)
            pending.append(ridx)
            continue
        j = max(alone)
        for k in row:
            if k != j:
                col_rows[k].discard(ridx)
        del col_rows[j]
        ones += 1
        if pivot_cols is not None:
            pivot_cols.add(j)
    queued = [True] * len(sparse)
    while pending:
        ridx = heapq.heappop(pending)
        queued[ridx] = False
        prow = sparse[ridx]
        units = [k for k, x in prow.items() if x == 1 or x == -1]
        if not units:
            continue
        counts = list(map(len, map(col_rows.__getitem__, units)))
        fewest = min(counts)
        j = max(compress(units, map(fewest.__eq__, counts)))
        x = prow[j]
        for sidx in col_rows[j]:
            if sidx == ridx:
                continue
            srow = sparse[sidx]
            c = srow[j] * x
            for k, pv in prow.items():
                old = srow.get(k)
                if old is None:
                    srow[k] = -c * pv
                    col_rows[k].add(sidx)
                else:
                    nv = old - c * pv
                    if nv:
                        srow[k] = nv
                    else:
                        del srow[k]
                        if k != j:
                            col_rows[k].discard(sidx)
            if not queued[sidx]:
                queued[sidx] = True
                heapq.heappush(pending, sidx)
        for k in prow:
            if k != j:
                col_rows[k].discard(ridx)
        del col_rows[j]
        sparse[ridx] = {}
        ones += 1
        if pivot_cols is not None:
            pivot_cols.add(j)
    live_rows = [row for row in sparse if row]
    if not live_rows:
        return (1,) * ones
    live_cols = sorted({j for row in live_rows for j in row})
    dense = IntMatrix.from_rows(
        [[row.get(j, 0) for j in live_cols] for row in live_rows], cols=len(live_cols))
    _, d, _ = smith_normal_form(dense)
    rest = tuple(d.entry(i, i) for i in range(min(d.rows, d.cols)) if d.entry(i, i))
    return (1,) * ones + rest


@st.composite
def sparse_with_skip(draw):
    """A sparse integer matrix, its units frequent, and rows of it to skip."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.sampled_from((0,) * 12 + (1, 1, -1, -1, 2, -2, 3, 6))
    a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix.from_rows(a, cols=cols), draw(st.sets(st.integers(0, max(rows - 1, 0))))


@given(sparse_with_skip())
@example((IntMatrix.from_rows([[1, 1], [1, 1]]), set()))  # no singleton: the heap loop
@example((IntMatrix.from_rows([[2, 4], [6, 3]]), set()))  # no unit: the dense residual
# Row 0's pivot leaves column 1 to row 1 alone, whose pivot leaves column 2
# to row 2: the pass pivots at columns 0, 1 and 3, the heap loop would
# have taken row 1 at column 2.
@example((IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]), set()))
# Row 3 skipped leaves column 0 to row 0 alone, the singleton pass takes
# it, the heap loop pivots row 1 at column 2 and leaves [0, 2, 0, 2].
@example((IntMatrix.from_rows([[1, 1, 1, 0], [0, 1, 1, 0], [0, 1, -1, 2], [1, 0, 0, 5]]), {3}))
def test_counting_kernel_matches_the_row_set_kernel(case):
    m, skip = case
    pivots, reference = set(), set()
    assert invariant_factors(m, skip, pivots) == reference_invariant_factors(m, skip, reference)
    assert pivots == reference


def traced_top_down(monkeypatch, kernel, diffs):
    """``abelian._top_down`` over ``diffs`` with ``kernel`` in place of
    ``invariant_factors``, and the skipped rows and unit pivot columns of
    each of its calls."""
    calls = []

    def recording(m, skip=(), pivot_cols=None):
        out = kernel(m, skip, pivot_cols)
        calls.append((sorted(skip), None if pivot_cols is None else sorted(pivot_cols)))
        return out

    monkeypatch.setattr(abelian, "invariant_factors", recording)
    return abelian._top_down(diffs), calls


@pytest.mark.parametrize("build", [build_davis_orbit_complex, build_bestvina_orbit_complex],
                         ids=["davis", "bestvina"])
def test_counting_kernel_matches_the_row_set_kernel_on_dinf_pages(monkeypatch, build):
    # Every complex that the K and KO pages of D_inf^k, k <= 4, factor.
    pages = []
    top_down = abelian._top_down
    monkeypatch.setattr(abelian, "_top_down", lambda diffs: pages.append(diffs) or top_down(diffs))
    for k in range(1, 5):
        x = build(dinf(k))
        for theory in ("k", "ko"):
            build_e2(x, theory)
    monkeypatch.setattr(abelian, "_top_down", top_down)
    assert len(pages) >= 8 and sum(len(diffs) for diffs in pages) > len(pages)
    for diffs in pages:
        counted = traced_top_down(monkeypatch, invariant_factors, diffs)
        assert counted == traced_top_down(monkeypatch, reference_invariant_factors, diffs)


@pytest.mark.parametrize("data, skip, factors", [
    ((), (), ()),
    (({123_456_789: 1},), (), (1,)),
    (({123_456_789: 1},), {0}, ()),
])
def test_no_work_per_column_that_no_row_meets(data, skip, factors):
    # 10^9 columns: a list or a count per column would take gigabytes.
    m = IntMatrix(len(data), 10**9, data)
    pivots = set()
    tracemalloc.start()
    try:
        assert invariant_factors(m, skip, pivots) == factors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert pivots == ({123_456_789} if factors else set())
