"""Representation-ring bases, restriction matrices, and K/KO orbit coefficients.

Complex representation rings R(G) are free abelian on the irreducible
characters; KO coefficients at a point come out of Segal's decomposition

    KO_G^{-n}(pt) ≅ KO^{-n}(pt) ⊗ R(G;R) ⊕ K^{-n}(pt) ⊗ R(G;C)
                    ⊕ KSp^{-n}(pt) ⊗ R(G;H)

over the irreducible real representations grouped by endomorphism field.
No group in the catalogue has a quaternionic irreducible, so R(G;H) = 0
and only the real-type and complex-type terms are computed.

Fixed basis orders (tests rely on the literal matrices):
  * R(Z/m): characters chi_j ordered by exponent j = 0..m-1 (chi_0 trivial);
  * R((Z/2)^k): characters ordered by the coordinate subset on which they are
    the sign character, as a binary counter (empty set first);
  * R(D_m), m odd: trivial, sign, then the 2-dimensional rho_1..rho_{(m-1)/2}.
Real bases list the R-type generators first, then the C-type ones (pairs of
conjugate characters), each block in the complex order.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .abelian import IntMatrix, Mod2Matrix
from .groups import (
    CYCLIC,
    CYCLIC_IN_CYCLIC,
    DIHEDRAL_ODD,
    ELEM2,
    ELEM2_SUBSET,
    REFLECTION_IN_DIHEDRAL,
    TRIVIAL,
    TRIVIAL_IN_ANYTHING,
    GroupClass,
    InclusionDescriptor,
    UnsupportedRestrictionError,
    elem2_exponent,
)

# Point coefficients for n = 0..7: (free rank, Z/2 rank).
KO_POINT = ((1, 0), (0, 1), (0, 1), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0))
KU_POINT = ((1, 0), (0, 0))


def k0_rank(g: GroupClass) -> int:
    """Number of irreducible complex representations = rank of R(G)."""
    if g.kind == TRIVIAL:
        return 1
    if g.kind == CYCLIC:
        return g.param
    if g.kind == ELEM2:
        return 2 ** g.param
    return (g.param + 3) // 2


def complex_irrep_dims(g: GroupClass) -> tuple[int, ...]:
    if g.kind == DIHEDRAL_ODD:
        return (1, 1) + (2,) * ((g.param - 1) // 2)
    return (1,) * k0_rank(g)


def restriction_k0(incl: InclusionDescriptor) -> IntMatrix:
    """Matrix of R(big) -> R(sub) in the fixed complex bases.

    Shape is rank R(sub) x rank R(big); column j lists the decomposition of
    the restricted j-th irreducible of the big group.
    """
    if incl.kind == CYCLIC_IN_CYCLIC:
        r, m = incl.extra
        return IntMatrix(r, m * r, tuple(dict.fromkeys(range(t, m * r, r), 1) for t in range(r)))
    if incl.kind == TRIVIAL_IN_ANYTHING:
        return IntMatrix.from_rows([list(complex_irrep_dims(incl.big))],
                                   cols=k0_rank(incl.big))
    if incl.kind == ELEM2_SUBSET:
        sub_k = len(incl.extra)
        big_k = elem2_exponent(incl.big)
        rows: list[dict[int, int]] = [{} for _ in range(2 ** sub_k)]
        for mask in range(2 ** big_k):
            t = 0
            for i, coord in enumerate(incl.extra):
                if (mask >> coord) & 1:
                    t |= 1 << i
            rows[t][mask] = 1
        return IntMatrix(2 ** sub_k, 2 ** big_k, tuple(rows))
    if incl.kind == REFLECTION_IN_DIHEDRAL:
        m = incl.extra[0]
        two_dims = (m - 1) // 2
        # trivial -> trivial, sign -> sign, each rho -> trivial + sign
        # (a reflection acts on rho with eigenvalues +1 and -1).
        return IntMatrix.from_rows([[1, 0] + [1] * two_dims,
                                    [0, 1] + [1] * two_dims], cols=2 + two_dims)
    raise UnsupportedRestrictionError(f"unsupported inclusion kind {incl.kind!r}")


def has_unit_pivots(incl: InclusionDescriptor, theory: str) -> bool:
    """Whether every row of the degree-0 restriction block along ``incl``
    (``restriction_k0`` for K, ``real_restriction`` for KO) has a ±1 at a
    column that no other row meets, read off the kind with no block built.

    Every kind has them but KO's Z/r <= Z/(m·r) with r and m both even:
    there the R-type row of chi_{r/2} meets only C-type generators, each
    holding two characters r/2 + r·i, so it is 2 wherever it is not 0.
    Otherwise each row is 1 at a generator that restricts onto it alone:
    for a cyclic subgroup the one holding the row's character t (for KO's
    row of chi_{r/2}, m odd, the R-type chi_{rm/2}), for (Z/2)^j the
    character t spread onto the injection's coordinates, for a reflection
    the trivial and sign characters, for the trivial subgroup the trivial
    one.  In KO that generator has its row's type, so a part of the
    complex, which keeps whole types (``type_range``), keeps each kept
    row's unit.
    """
    if incl.kind == CYCLIC_IN_CYCLIC and theory == "ko":
        r, m = incl.extra
        return bool(r % 2 or m % 2)
    return True


# ---------------------------------------------------------------------------
# Real structure


def real_structure(g: GroupClass) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Irreducible real representations as groupings of complex irrep indices.

    Each item is ("R", (i,)) for a real-type irreducible whose
    complexification is the complex irrep i, or ("C", (i, j)) for a
    complex-type one, the underlying real form of the conjugate pair
    {chi_i, chi_j}.  Order: all R-type generators, then the C-type pairs.
    """
    if g.kind == TRIVIAL:
        return (("R", (0,)),)
    if g.kind == CYCLIC:
        s = g.param
        gens = [("R", (0,))]
        if s % 2 == 0:
            gens.append(("R", (s // 2,)))
        for j in range(1, (s + 1) // 2 if s % 2 else s // 2):
            gens.append(("C", (j, s - j)))
        return tuple(gens)
    if g.kind == ELEM2:
        return tuple(("R", (mask,)) for mask in range(2 ** g.param))
    # Odd dihedral groups are totally orthogonal.
    return tuple(("R", (i,)) for i in range(k0_rank(g)))


def real_type_counts(g: GroupClass) -> tuple[int, int]:
    """(n_r, n_c), the real-type and complex-type generators of
    ``real_structure(g)``, counted without listing it (none is quaternionic)."""
    if g.kind == CYCLIC:
        n_r = 2 if g.param % 2 == 0 else 1
        return n_r, (g.param - n_r) // 2
    return k0_rank(g), 0


def real_restriction(incl: InclusionDescriptor) -> IntMatrix:
    """Matrix of RO(big) -> RO(sub) in the fixed real bases.

    Entries are multiplicities of real irreducibles in the restriction of a
    real irreducible, derived from the complex restriction matrix: for a
    real generator V with complexification ⊕ chi_i and a target W grouping
    complex irreps {chi_w...}, the multiplicity is read off one complex
    member of W (summing over the members of V).
    """
    mc = restriction_k0(incl)
    big_gens = real_structure(incl.big)
    # Complex irrep index -> the real generator of the big group holding it.
    owner = [0] * mc.cols
    for g, (_, members) in enumerate(big_gens):
        for v in members:
            owner[v] = g
    rows = []
    for _, w_members in real_structure(incl.sub):
        row: dict[int, int] = {}
        for v, x in mc.data[w_members[0]].items():
            g = owner[v]
            row[g] = row.get(g, 0) + x
        rows.append(row)
    # Each entry sums positive multiplicities, so none is zero.
    return IntMatrix(len(rows), len(big_gens), tuple(rows))


# ---------------------------------------------------------------------------
# KO coefficients at orbits
#
# Each generator of a degree-0 coefficient group carries the point values of
# its type: a real-type irreducible KO^*(pt), a complex-type one K^*(pt).
# For K every complex irreducible is of the complex-like type "C".  A set of
# types is a string of "R" and "C".
POINT_TABLES = {"R": KO_POINT, "C": KU_POINT}


def period(theory: str) -> int:
    """The number of coefficient degrees -n of ``theory`` before they
    repeat: the length of its point table, 2 for K and 8 for KO."""
    return len(KO_POINT if theory == "ko" else KU_POINT)


@cache
def kept_types(theory: str, n: int) -> tuple[str, str]:
    """The types of generator whose point value in degree -n is Z, then
    those whose value is Z/2: for KO, "RC" and "" in degrees 0 and 4, "" and
    "R" in degree 1, "C" and "R" in degree 2, "C" and "" in degree 6, and
    nothing in degrees 3, 5 and 7; for K, "C" in even degrees.  Any other
    theory is refused here, before anything is assembled for it."""
    if theory not in ("k", "ko"):
        raise ValueError(f"theory must be 'k' or 'ko', not {theory!r}")
    types = "RC" if theory == "ko" else "C"
    values = [(t, POINT_TABLES[t][n % len(POINT_TABLES[t])]) for t in types]
    return tuple("".join(t for t, value in values if value[part]) for part in (0, 1))


def type_range(g: GroupClass, theory: str, types: str) -> range:
    """The generators of the degree-0 coefficient group of ``theory`` at
    G/H whose type is in ``types``.  They are one range: K has one type,
    and ``real_structure`` lists the R-type generators before the C-type
    ones."""
    if theory == "k":
        return range(k0_rank(g) if "C" in types else 0)
    n_r, n_c = real_type_counts(g)
    return range(0 if "R" in types else n_r, n_r + (n_c if "C" in types else 0))


def sliced(block: IntMatrix, rows: range, cols: range) -> IntMatrix:
    """``block`` on the rows ``rows`` and the columns ``cols``, both
    renumbered from 0: the block itself when they are all of it."""
    if len(rows) == block.rows and len(cols) == block.cols:
        return block
    lo, hi = cols.start, cols.stop
    return IntMatrix(len(rows), len(cols), tuple(
        {j - lo: x for j, x in row.items() if lo <= j < hi}
        for row in block.data[rows.start:rows.stop]))


def ko_ranks(g: GroupClass, n: int) -> tuple[int, int]:
    """(free rank, Z/2 rank) of KO^{-n}_G(pt) through Segal's decomposition:
    each R-type generator carries KO^{-n}(pt), each C-type one K^{-n}(pt)."""
    return tuple(r.stop - r.start for r in (type_range(g, "ko", t) for t in kept_types("ko", n)))


def refuse_even_cyclic(incls: Iterable[InclusionDescriptor], n: int) -> None:
    """Reject an even-order cyclic subgroup among ``incls`` in the degrees
    where R-type generators carry Z/2: the sign representation leaves its
    torsion block undetermined.  The first offender in ``incls`` is named."""
    n %= 8
    if not KO_POINT[n][1]:
        return
    for incl in incls:
        if incl.kind == CYCLIC_IN_CYCLIC and incl.extra[0] % 2 == 0:
            raise UnsupportedRestrictionError(
                f"KO^{-n} restriction for an even-order cyclic subgroup Z{incl.extra[0]} "
                "is not determined by the supported theory; odd edge orders only")


def restriction_ko(incl: InclusionDescriptor, n: int) -> tuple[IntMatrix, Mod2Matrix]:
    """Blocks (free, torsion) of KO^{-n}(big orbit) -> KO^{-n}(sub orbit):
    the real restriction sliced, as ``bredon`` slices every block of a
    part, at the generators of the types ``kept_types`` names, torsion mod
    2: n ≡ 0, 4 keep it all as the free block, n ≡ 1 its R-to-R part mod
    2, n ≡ 2 its C-to-C part beside that, n ≡ 6 the C-to-C part alone,
    n ≡ 3, 5, 7 nothing.

    The tests' per-degree oracle: no page or report calls it, since every
    KO cochain complex is assembled part by part from ``real_restriction``.

    The KO^{-2} row is derived from the KO^{-6} and KO^{-1} rows, so in
    every degree a C-type generator restricting onto an R-type one with odd
    multiplicity is refused.  That multiplicity is always even, so this
    never fires on a correct real restriction; the Segal-oracle item of
    ROADMAP.md finds the true free-to-torsion entry to be half of it mod 2.
    """
    refuse_even_cyclic((incl,), n)
    m_real = real_restriction(incl)
    c_big = type_range(incl.big, "ko", "C")  # the cross block's columns
    r_sub = type_range(incl.sub, "ko", "R")  # and its rows
    if any(x % 2 and j in c_big for row in m_real.data[r_sub.start:r_sub.stop]
           for j, x in row.items()):
        raise UnsupportedRestrictionError(
            f"KO^-2 restriction along {incl} needs a nonzero free-to-torsion "
            "cross term, which is outside the supported theory")
    free, tor = (sliced(m_real, type_range(incl.sub, "ko", types), type_range(incl.big, "ko", types))
                 for types in kept_types("ko", n))
    return free, tor.mod2()
