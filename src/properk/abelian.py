"""Exact linear algebra over Z and GF(2), and normal forms of f.g. abelian groups.

An integral cochain complex is factored once, top-down (``factor_integral``),
and both its cohomology and that of its reduction mod 2 are read off the
invariant factors (``Factorization``); the E2 page uses nothing else.  GF(2)
matrices carry the torsion half of a ``SplitCochainComplex``, which serves
the ``--emit cochain`` report, the per-functor cohomology that tests hold
the page against, and the mod-2 side of ``uct_verify``, ranked by a plain
bitmask elimination that shares nothing with the Smith normal form.

Everything runs on plain Python integers: Smith normal form intermediates can
blow up far past machine words even on small inputs, so no fixed-width or
floating arithmetic appears anywhere on the computation path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import InitVar, dataclass
from itertools import chain, compress
from math import gcd
from typing import Collection, Iterable, Mapping, Sequence


class ChainComplexError(ValueError):
    """Matrices fed as a (co)chain complex fail shape checks or d∘d = 0."""


# ---------------------------------------------------------------------------
# Integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as sparse rows.

    ``data[i]`` maps the column index of every nonzero entry of row i to
    that entry; zeros are never stored, so two matrices are equal exactly
    when their shapes and rows are.  The row dicts belong to the matrix and
    must not be mutated.  Zero rows or columns are legal; a matrix with 0
    rows or 0 columns is the zero map from/to the zero group.
    """

    rows: int
    cols: int
    data: tuple[dict[int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows:
            raise ValueError("row count does not match dimensions")
        # In bulk, in C: no value is zero, and the columns of all rows
        # together lie in range.
        columns = set().union(*self.data)
        if not all(map(all, map(dict.values, self.data))) or columns and (
                min(columns) < 0 or max(columns) >= self.cols):
            raise ValueError("sparse row holds a zero or a column out of range")

    @classmethod
    def from_sparse(cls, rows: int, cols: int,
                    data: Iterable[Mapping[int, int]]) -> "IntMatrix":
        """Matrix from one ``{col: value}`` mapping per row; zero values are dropped."""
        return cls(rows, cols, tuple({int(j): int(x) for j, x in row.items() if x}
                                     for row in data))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            return cls(0, 0 if cols is None else cols, ())
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple({j: int(row[j]) for j in compress(range(c), row)} for row in rows))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple({} for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple({i: 1} for i in range(n)))

    @property
    def entries(self) -> tuple[int, ...]:
        """All entries in row-major order, zeros included."""
        out = [0] * (self.rows * self.cols)
        for i, row in enumerate(self.data):
            base = i * self.cols
            for j, x in row.items():
                out[base + j] = x
        return tuple(out)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self.data[i].get(j, 0)

    def to_rows(self) -> list[list[int]]:
        out = []
        for row in self.data:
            dense = [0] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def is_zero(self) -> bool:
        return not any(self.data)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return IntMatrix(self.rows, other.cols, product_rows(self.data, other.data))

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> "IntMatrix":
        """The submatrix on the given rows and columns, in their order."""
        pos = {j: b for b, j in enumerate(cols)}
        return IntMatrix(len(rows), len(cols), tuple(
            {pos[j]: x for j, x in self.data[i].items() if j in pos} for i in rows))

    def mod2(self) -> "Mod2Matrix":
        bits = []
        for row in self.data:
            m = 0
            for j, x in row.items():
                if x & 1:
                    m |= 1 << j
            bits.append(m)
        return Mod2Matrix(self.rows, self.cols, tuple(bits))


def product_rows(left: Sequence[Mapping[int, int]],
                 right: Sequence[Mapping[int, int]]) -> tuple[dict[int, int], ...]:
    """The sparse rows of the product of two matrices given by their sparse
    rows, ``right`` holding one row per column of ``left``."""
    out = []
    for row in left:
        acc: dict[int, int] = {}
        for k, a in row.items():
            for j, b in right[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: x for j, x in acc.items() if x})
    return tuple(out)


# ---------------------------------------------------------------------------
# Smith normal form

def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _find_pivot(a, t, rows, cols):
    # Minimal nonzero absolute value; ties broken by (row, col) lexicographic
    # order.  Row-major scanning with strict improvement keeps the lex-first
    # entry among equals.
    best = None
    where = None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            x = row[j]
            if x:
                x = -x if x < 0 else x
                if best is None or x < best:
                    best, where = x, (i, j)
                    if best == 1:
                        return where
    return where


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U·m·V = D.

    U and V are unimodular; D is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ... .  Classical row/column reduction,
    pivoting on a minimal-absolute-value entry with a deterministic
    (row, col) tie-break, so the factorization is reproducible.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    t = 0
    while t < min(rows, cols):
        where = _find_pivot(a, t, rows, cols)
        if where is None:
            break
        _swap_rows(a, u, t, where[0])
        _swap_cols(a, v, t, where[1])
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            d = a[t][t]
            # Clear column t by row operations; nonzero remainders shrink the
            # pivot candidates, so the loop terminates.
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // d
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t]:
                        dirty = True
            if dirty:
                where = _find_pivot(a, t, rows, cols)
                _swap_rows(a, u, t, where[0])
                _swap_cols(a, v, t, where[1])
                continue
            # Clear row t by column operations.
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // d
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                where = _find_pivot(a, t, rows, cols)
                _swap_rows(a, u, t, where[0])
                _swap_cols(a, v, t, where[1])
                continue
            # Divisibility sweep: the pivot must divide the rest of the block.
            bad = None
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        t += 1

    return (IntMatrix.from_rows(u, cols=rows),
            IntMatrix.from_rows(a, cols=cols),
            IntMatrix.from_rows(v, cols=cols))


def invariant_factors(m: IntMatrix, skip: Collection[int] = (),
                      pivot_cols: set[int] | None = None) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form of ``m``, without the transforms.

    Fast path: entries of absolute value 1 are eliminated sparsely first
    (each such step splits off an invariant factor 1); the small residual is
    finished by dense reduction.

    ``skip`` names rows left out of the elimination, and the column of each
    unit pivot is added to ``pivot_cols``; ``factor_integral`` passes the
    unit pivot columns of d_{p+1} as the rows of d_p to skip, which keeps
    d_p's rank and its invariant factors > 1 (see there), so the result is
    that of the whole matrix.  The dense residual's pivots are not reported.

    First one pass over the rows in ascending order pivots every row with a
    unit in a column that no other alive row meets, at the highest such
    column (the column singletons of Dumas, Saunders and Villard, "On
    efficient sparse integer matrix Smith normal form computations", 2001).
    It counts the alive rows at each column that rows meet, no more; a pivot
    changes no other row and only leaves its columns' counts, so a column it
    leaves with one row can serve a later row of the same pass.  Keeping the
    pass in row order matters: a stack of singleton columns hands
    ``factor_integral`` worse pivot columns, and on the D_inf^5 Davis KO
    complex its next differential then costs more than twice as much.

    The rows the pass leaves are copied, numbered ascending and indexed by
    column for the heap loop.  Its pivot is always the smallest alive row
    holding a unit, at the unit whose column meets the fewest alive rows,
    the highest such column on a tie: on the larger Davis cochains that
    fills in far less than the row's first unit, and no more than the
    highest column alone on the wide amalgam cochains.  Rows wait on a
    min-heap until a scan finds no unit in them and go back only when an
    elimination step changes them, so no row is rescanned unchanged.
    """
    rows = [row for i, row in enumerate(m.data) if row and i not in skip]
    if not rows:
        return ()
    count = dict(Counter(chain.from_iterable(rows)))  # the alive rows at each column
    left = []
    for row in rows:
        alone = [k for k, x in row.items() if (x == 1 or x == -1) and count[k] == 1]
        if not alone:
            left.append(row)
            continue
        for k in row:
            count[k] -= 1
        if pivot_cols is not None:
            pivot_cols.add(max(alone))
    del count  # freed before the heap loop's row sets are built
    ones = len(rows) - len(left)
    sparse = list(map(dict, left))  # the heap loop's rows, copied
    col_rows: dict[int, set[int]] = {}
    for ridx, row in enumerate(sparse):
        for j in row:
            if (members := col_rows.get(j)) is None:
                col_rows[j] = {ridx}
            else:
                members.add(ridx)
    pending = list(range(len(sparse)))  # ascending, hence already a heap
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
            c = srow[j] * x  # srow -= c * prow, using x*x == 1
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
        sparse[ridx] = {}  # the pivot row is done with
        ones += 1
        if pivot_cols is not None:
            pivot_cols.add(j)
    # Dense residual.
    live_rows = [row for row in sparse if row]
    if not live_rows:
        return (1,) * ones
    live_cols = sorted({j for row in live_rows for j in row})
    dense = IntMatrix.from_rows(
        [[row.get(j, 0) for j in live_cols] for row in live_rows], cols=len(live_cols))
    _, d, _ = smith_normal_form(dense)
    rest = tuple(d.entry(i, i) for i in range(min(d.rows, d.cols)) if d.entry(i, i))
    return (1,) * ones + rest


# ---------------------------------------------------------------------------
# GF(2) matrices


@dataclass(frozen=True)
class Mod2Matrix:
    """Matrix over the field with two elements; each row stored as a bitmask."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.bits) != self.rows:
            raise ValueError("row count does not match bit rows")
        mask = (1 << self.cols) - 1
        if any(b & ~mask for b in self.bits):
            raise ValueError("row bits exceed column count")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mod2Matrix":
        return cls(rows, cols, (0,) * rows)

    def entry(self, i: int, j: int) -> int:
        return (self.bits[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.bits)

    def __mul__(self, other: "Mod2Matrix") -> "Mod2Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            acc = 0
            b = self.bits[i]
            while b:
                k = (b & -b).bit_length() - 1
                acc ^= other.bits[k]
                b &= b - 1
            out.append(acc)
        return Mod2Matrix(self.rows, other.cols, tuple(out))

    def rank2(self) -> int:
        """Rank over GF(2)."""
        # Pivots keyed by their highest set bit: reducing a row by the pivot
        # that owns its highest bit clears that bit and touches only lower
        # ones, so each row meets just the pivots it actually hits.  The
        # highest bit costs O(1) to find (the lowest costs a pass over the
        # row) and fills in far less on the Davis cochains.
        pivots: dict[int, int] = {}
        for b in self.bits:
            while b:
                top = b.bit_length()
                p = pivots.get(top)
                if p is None:
                    pivots[top] = b
                    break
                b ^= p
        return len(pivots)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups in normal form


@dataclass(frozen=True)
class AbGroup:
    """A finitely generated abelian group Z^rank ⊕ Z/d1 ⊕ ... ⊕ Z/dt.

    The torsion coefficients form a divisor chain d1 | d2 | ... with every
    di >= 2, so (rank, torsion) is a canonical form: two values are equal
    iff the groups are isomorphic.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        prev = 1
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if d % prev:
                raise ValueError("torsion coefficients must form a divisor chain")
            prev = d

    @classmethod
    def zero(cls) -> "AbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "AbGroup":
        return cls(rank, ())

    @classmethod
    def elementary_2(cls, k: int) -> "AbGroup":
        return cls(0, (2,) * k)

    @classmethod
    def from_divisors(cls, rank: int, divisors: Iterable[int]) -> "AbGroup":
        """Normal form of Z^rank ⊕ ⊕ Z/d for an arbitrary multiset of d >= 1.

        Nothing is factored: each d is merged into the chain, kept largest
        first, by Z/a ⊕ Z/d ≅ Z/lcm(a, d) ⊕ Z/gcd(a, d), the gcd carried on.
        Entries that d divides would not change; they lead what is left of
        the chain, so a bisection skips them, and a d dividing the last
        entry is appended at once, keeping many equal divisors linear.
        """
        chain: list[int] = []
        for d in divisors:
            if d < 1:
                raise ValueError("divisors must be positive")
            i = 0
            while d > 1:
                if not chain or chain[-1] % d == 0:
                    chain.append(d)
                    break
                i = bisect_left(chain, True, i, key=lambda c: c % d != 0)
                a, g = chain[i], gcd(chain[i], d)
                chain[i], d = a // g * d, g
                i += 1
        return cls(rank, tuple(reversed(chain)))

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, *others: "AbGroup") -> "AbGroup":
        rank = self.rank + sum(g.rank for g in others)
        divisors = list(self.torsion)
        for g in others:
            divisors.extend(g.torsion)
        return AbGroup.from_divisors(rank, divisors)

    def is_free(self) -> bool:
        return not self.torsion

    def tensor_z2_dim(self) -> int:
        """dim over GF(2) of G ⊗ Z/2."""
        return self.rank + sum(1 for d in self.torsion if d % 2 == 0)

    def tor_z2_dim(self) -> int:
        """dim over GF(2) of Tor(G, Z/2)."""
        return sum(1 for d in self.torsion if d % 2 == 0)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


# ---------------------------------------------------------------------------
# Split cochain complexes


@dataclass(frozen=True)
class SplitCochainComplex:
    """Cochain complex whose degree-p group is Z^{n_p} ⊕ (Z/2)^{t_p}.

    The differential d_p: degree p -> p+1 is carried in two blocks:

        F_p : Z^{n_p}     -> Z^{n_{p+1}}      integer block
        T_p : (Z/2)^{t_p} -> (Z/2)^{t_{p+1}}  torsion block

    so the complex is the direct sum of an integral complex and a GF(2)
    complex.  The E2 page is read off integral complexes alone; this form
    serves the ``--emit cochain`` report, ``bredon.bredon_cohomology`` and
    ``uct_verify``.  Each KO^{-n} complex pairs two parts of the real
    complex (``bredon.bredon_cochain``): F_p is the part on the generators
    whose point value is Z, T_p the part on those whose value is Z/2,
    reduced mod 2.  Components between the two summands cannot be
    expressed at all: they are left out (``bredon.bredon_rows`` says on
    what premise), and only the per-degree oracle
    ``reprings.restriction_ko`` refuses a descriptor that would need one.
    Construction validates the composability of shapes, F∘F = 0 and
    T∘T = 0, the last two by matrix products.  Only ``bredon`` skips the
    products, through the private ``_composes``: when it assembles a part
    whose F∘F = 0 it has already proved from the orbit complex
    (``OrbitComplex.coherence``), and when it pairs two parts each checked
    so or multiplied out; every other complex is multiplied out.
    """

    free_ranks: tuple[int, ...]
    tor2_ranks: tuple[int, ...]
    free_d: tuple[IntMatrix, ...]
    tor_d: tuple[Mod2Matrix, ...]
    _composes: InitVar[bool] = False

    def __post_init__(self, _composes: bool = False):
        n = len(self.free_ranks)
        if n == 0 or len(self.tor2_ranks) != n:
            raise ChainComplexError("rank lists must be nonempty and equal length")
        if any(r < 0 for r in self.free_ranks + self.tor2_ranks):
            raise ChainComplexError("ranks must be nonnegative")
        if not (len(self.free_d) == len(self.tor_d) == n - 1):
            raise ChainComplexError("need exactly one differential per adjacent degree pair")
        for p in range(n - 1):
            f, t = self.free_d[p], self.tor_d[p]
            if (f.rows, f.cols) != (self.free_ranks[p + 1], self.free_ranks[p]):
                raise ChainComplexError(f"free differential at degree {p} has wrong shape")
            if (t.rows, t.cols) != (self.tor2_ranks[p + 1], self.tor2_ranks[p]):
                raise ChainComplexError(f"torsion differential at degree {p} has wrong shape")
        if _composes:
            return
        for p in range(n - 2):
            if not (self.free_d[p + 1] * self.free_d[p]).is_zero():
                raise ChainComplexError(f"free differentials do not compose to zero at degree {p}")
            if not (self.tor_d[p + 1] * self.tor_d[p]).is_zero():
                raise ChainComplexError(f"torsion differentials do not compose to zero at degree {p}")

    @classmethod
    def integral(cls, free_ranks: Sequence[int], diffs: Sequence[IntMatrix],
                 _composes: bool = False) -> "SplitCochainComplex":
        """Pure integral complex (no torsion summands)."""
        return cls(tuple(free_ranks), (0,) * len(free_ranks), tuple(diffs),
                   tuple(Mod2Matrix.zero(0, 0) for _ in diffs), _composes)

    @property
    def length(self) -> int:
        """Top degree."""
        return len(self.free_ranks) - 1

    @property
    def cross_d(self) -> tuple[Mod2Matrix, ...]:
        """The free-to-torsion blocks Z^{n_p} -> (Z/2)^{t_{p+1}}, all zero."""
        return tuple(Mod2Matrix.zero(self.tor2_ranks[p + 1], self.free_ranks[p])
                     for p in range(self.length))

    def is_pure_integral(self) -> bool:
        return all(t == 0 for t in self.tor2_ranks)


@dataclass(frozen=True)
class Factorization:
    """The numbers the cohomology of an integral cochain complex, and of its
    reduction mod 2, is read off: its ranks, and per differential d_p its
    invariant factors.

    ``factors[p + 1]`` belongs to d_p; index 0 and the last index stand for
    the zero maps at either end.
    """

    ranks: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]

    def groups(self) -> tuple[AbGroup, ...]:
        """ker(d_p)/im(d_{p-1}) for p = 0..length."""
        factors = self.factors
        return tuple(AbGroup.from_divisors(n - len(factors[p + 1]) - len(factors[p]),
                                           [d for d in factors[p] if d > 1])
                     for p, n in enumerate(self.ranks))

    def mod2(self) -> tuple[AbGroup, ...]:
        """The cohomology of C ⊗ Z/2, for C the factored complex, with
        nothing reduced or ranked again.

        U·d_p·V = D with U and V unimodular stays so mod 2, so d_p mod 2
        has GF(2) rank the number of odd invariant factors of d_p.  The
        top-down factorization keeps that list complete: it holds rank(d_p)
        factors and d_p's factors > 1, so the rest are the ones.
        """
        ranks2 = [sum(d & 1 for d in f) for f in self.factors]
        return tuple(AbGroup.elementary_2(n - ranks2[p + 1] - ranks2[p])
                     for p, n in enumerate(self.ranks))


def factor_integral(complex_: SplitCochainComplex) -> Factorization:
    """Factor each differential of a pure integral complex exactly once;
    the zero maps at either end contribute nothing and are never built.

    The differentials are factored top-down, d_{L-1} first, and d_p without
    the rows at the columns A where the unit-pivot phase of d_{p+1} pivoted
    (the elementary reductions of Kaczynski, Mrozek and Ślusarek, "Homology
    computation by reduction of chain complexes", 1998).  Those pivots make
    the minor d_{p+1}[B, A] on their rows B unimodular, so dropping the A
    coordinates is injective on ker d_{p+1}, with a saturated image; as
    im d_p ⊆ ker d_{p+1}, the rest of d_p has the rank and the invariant
    factors > 1 of d_p.
    """
    if not complex_.is_pure_integral():
        raise ChainComplexError("factor_integral requires a pure integral complex")
    return Factorization(complex_.free_ranks, _top_down(complex_.free_d))


def _top_down(diffs: Sequence[IntMatrix]) -> tuple[tuple[int, ...], ...]:
    """The invariant factors of d_p for p = L-1 down to 0, each d_p without
    the rows at the unit pivot columns of d_{p+1}, whether the singleton
    pass or the heap loop of ``invariant_factors`` took them (either way
    their minor is unimodular); index p + 1 holds d_p's, and () stands for
    the zero maps at either end.
    """
    out = [()] * (len(diffs) + 2)
    skip = set()
    for p in reversed(range(len(diffs))):
        if p:
            pivots = set()
            out[p + 1] = invariant_factors(diffs[p], skip, pivots)
            skip = pivots
        else:
            out[1] = invariant_factors(diffs[0], skip)
    return tuple(out)


def cohomology(complex_: SplitCochainComplex) -> tuple[AbGroup, ...]:
    """ker(d_p)/im(d_{p-1}) of a split cochain complex for p = 0..length:
    the cohomology of the free blocks, factored top-down as in
    ``factor_integral``, beside that of the torsion blocks, each ranked
    whole over GF(2)."""
    free = Factorization(complex_.free_ranks, _top_down(complex_.free_d)).groups()
    ranks2 = (0, *(t.rank2() for t in complex_.tor_d), 0)
    return tuple(h.direct_sum(AbGroup.elementary_2(t - ranks2[p + 1] - ranks2[p]))
                 for p, (h, t) in enumerate(zip(free, complex_.tor2_ranks)))


def tensor_mod2(complex_: SplitCochainComplex) -> SplitCochainComplex:
    """Reduce a pure integral complex mod 2: torsion ranks take over."""
    if not complex_.is_pure_integral():
        raise ChainComplexError("tensor_mod2 requires a pure integral complex")
    n = len(complex_.free_ranks)
    return SplitCochainComplex(
        (0,) * n,
        complex_.free_ranks,
        tuple(IntMatrix.zero(0, 0) for _ in range(n - 1)),
        tuple(f.mod2() for f in complex_.free_d),
    )


def uct_verify(complex_: SplitCochainComplex) -> bool:
    """Check the universal coefficient sequence for the mod-2 reduction.

    For a cochain complex C of free abelian groups, in every degree p

        dim H^p(C ⊗ Z/2) = dim(H^p(C) ⊗ Z/2) + dim Tor(H^{p+1}(C), Z/2),

    the usual UCT for the chain complex obtained by negating degrees.
    """
    if not complex_.is_pure_integral():
        raise ChainComplexError("uct_verify requires a pure integral complex")
    reduced = cohomology(tensor_mod2(complex_))
    integral = cohomology(complex_) + (AbGroup.zero(),)
    for p in range(complex_.length + 1):
        lhs = reduced[p].torsion.count(2)
        rhs = integral[p].tensor_z2_dim() + integral[p + 1].tor_z2_dim()
        if lhs != rhs:
            return False
    return True
