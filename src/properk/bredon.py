"""Bredon cochain complexes of orbit complexes with K/KO orbit coefficients.

The degree-p cochain group is the direct sum, over the p-cells, of the
coefficient value at the cell's stabilizer; the differential block from a
p-cell j into a (p+1)-cell k is the signed incidence integer times the
restriction matrix along the recorded inclusion, exactly the transpose
shape of the cellular boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbGroup, IntMatrix, Mod2Matrix, SplitCochainComplex, cohomology
from .groups import GroupClass, InclusionDescriptor
from .orbit import OrbitComplex
from .reprings import k0_rank, ko_ranks, restriction_k0, restriction_ko


@dataclass(frozen=True)
class CoefficientFunctor:
    """K^{-n} or KO^{-n} as a coefficient system on orbits.

    ``theory`` is "k" (period 2) or "ko" (period 8); ``n`` means the
    nonpositive degree -n, reduced mod the period.  K in odd degrees and KO
    in degrees -3, -5, -7 are zero functors (K^1, KO^{-3}, KO^{-5} and
    KO^{-7} of any orbit vanish), represented explicitly so the graded
    interface stays total.
    """

    theory: str
    n: int

    def __post_init__(self):
        if self.theory not in ("k", "ko"):
            raise ValueError("theory must be 'k' or 'ko'")
        object.__setattr__(self, "n", self.n % self.period)

    @classmethod
    def k(cls, n: int = 0) -> "CoefficientFunctor":
        return cls("k", n % 2)

    @classmethod
    def ko(cls, n: int) -> "CoefficientFunctor":
        return cls("ko", n % 8)

    @property
    def period(self) -> int:
        return 2 if self.theory == "k" else 8

    @property
    def is_zero_functor(self) -> bool:
        return self.n in ((1,) if self.theory == "k" else (3, 5, 7))

    def value(self, g: GroupClass) -> tuple[int, int]:
        """(free rank, Z/2 rank) of the functor at the orbit G/H."""
        if self.theory == "k":
            return (0, 0) if self.is_zero_functor else (k0_rank(g), 0)
        return ko_ranks(g, self.n)

    def restriction(self, incl: InclusionDescriptor) -> tuple[IntMatrix, Mod2Matrix]:
        """Blocks (free, torsion) of the restriction along ``incl``; K has no torsion."""
        if self.theory == "ko":
            return restriction_ko(incl, self.n)
        free = IntMatrix.zero(0, 0) if self.is_zero_functor else restriction_k0(incl)
        return free, Mod2Matrix.zero(0, 0)


def assemble_cochain(complex_: OrbitComplex, functor: CoefficientFunctor) -> SplitCochainComplex:
    """Bredon cochain complex of an orbit complex, in split (Z ⊕ Z/2) form.

    Cell ordering fixes the block layout, so assembled matrices are
    reproducible literals.  Free blocks are written straight into sparse
    rows and torsion blocks into bitmask rows; the coefficient
    ranks are computed once per stabilizer and the restriction blocks once
    per distinct inclusion descriptor.
    """
    values: dict[GroupClass, tuple[int, int]] = {}
    free_ranks = []
    tor_ranks = []
    offsets = []  # per dim: (free offset, torsion offset) per cell
    for cells in complex_.cells:
        offs = []
        f_total = t_total = 0
        for cell in cells:
            offs.append((f_total, t_total))
            if cell.stabilizer not in values:
                values[cell.stabilizer] = functor.value(cell.stabilizer)
            f, t = values[cell.stabilizer]
            f_total += f
            t_total += t
        free_ranks.append(f_total)
        tor_ranks.append(t_total)
        offsets.append(offs)

    blocks: dict[InclusionDescriptor, tuple[IntMatrix, Mod2Matrix]] = {}
    free_d, tor_d = [], []
    for p in range(complex_.dim):
        f_rows: list[dict[int, int]] = [{} for _ in range(free_ranks[p + 1])]
        t_bits = [0] * tor_ranks[p + 1]
        incidence = complex_.incidence[p].data
        for (j, k), incl in complex_.descriptors[p].items():
            alpha = incidence[j][k]
            block = blocks.get(incl)
            if block is None:
                block = blocks[incl] = _restriction_blocks(functor, incl, values)
            r_free, r_tor = block
            fo_src, to_src = offsets[p][j]
            fo_tgt, to_tgt = offsets[p + 1][k]
            for a, r_row in enumerate(r_free.data):
                row = f_rows[fo_tgt + a]
                for b, v in r_row.items():
                    col = fo_src + b
                    x = row.get(col, 0) + alpha * v
                    if x:
                        row[col] = x
                    else:
                        del row[col]
            if alpha % 2:
                for a, bits in enumerate(r_tor.bits):
                    t_bits[to_tgt + a] ^= bits << to_src
        free_d.append(IntMatrix(free_ranks[p + 1], free_ranks[p], tuple(f_rows)))
        tor_d.append(Mod2Matrix(tor_ranks[p + 1], tor_ranks[p], tuple(t_bits)))
    return SplitCochainComplex(tuple(free_ranks), tuple(tor_ranks), tuple(free_d), tuple(tor_d))


def _restriction_blocks(functor: CoefficientFunctor, incl: InclusionDescriptor,
                        values: dict[GroupClass, tuple[int, int]]
                        ) -> tuple[IntMatrix, Mod2Matrix]:
    """The functor's blocks along ``incl``, checked against the coefficient ranks.

    The orbit complex guarantees that ``incl`` runs from the higher cell's
    stabilizer to the face's, so these ranks are the block's target and
    source sizes wherever the descriptor occurs.
    """
    r_free, r_tor = functor.restriction(incl)
    f_src, t_src = values[incl.big]
    f_tgt, t_tgt = values[incl.sub]
    if (r_free.rows, r_free.cols) != (f_tgt, f_src):
        raise ValueError("free restriction block has inconsistent shape")
    if (r_tor.rows, r_tor.cols) != (t_tgt, t_src):
        raise ValueError("torsion restriction block has inconsistent shape")
    return r_free, r_tor


def bredon_cohomology(complex_: OrbitComplex, functor: CoefficientFunctor) -> tuple[AbGroup, ...]:
    """Graded Bredon cohomology of the orbit complex, degrees 0..dim.

    A zero functor has zero cohomology; nothing is assembled for it.
    """
    if functor.is_zero_functor:
        return (AbGroup.zero(),) * (complex_.dim + 1)
    return cohomology(assemble_cochain(complex_, functor))


def bredon_rows(complex_: OrbitComplex, theory: str) -> tuple[tuple[AbGroup, ...], ...]:
    """Bredon cohomology for the coefficient degrees -n, n = 0..period-1.

    Only the distinct cochain complexes are assembled.  For K that is K^0;
    K^{-1} is a zero functor.  For KO, Segal's decomposition makes three
    complexes distinct: KO^0 (the full real restriction), KO^{-1} (its
    R-to-R part mod 2) and KO^{-6} (its C-to-C part).  The other rows
    follow: KO^{-4} has the blocks of KO^0, KO^{-3}, KO^{-5} and KO^{-7}
    are zero functors, and KO^{-2} is the KO^{-6} free block beside the
    KO^{-1} torsion block, so its cohomology is their direct sum degree by
    degree.  The KO^{-6} restriction blocks reject every descriptor whose
    KO^{-2} restriction would need a free-to-torsion term.
    """
    if theory not in ("k", "ko"):
        raise ValueError("theory must be 'k' or 'ko'")
    if theory == "k":
        return tuple(bredon_cohomology(complex_, CoefficientFunctor.k(n)) for n in (0, 1))
    real, r_to_r, c_to_c, zero = (bredon_cohomology(complex_, CoefficientFunctor.ko(n))
                                  for n in (0, 1, 6, 3))
    mixed = tuple(free.direct_sum(tor) for free, tor in zip(c_to_c, r_to_r))
    return (real, r_to_r, mixed, zero, real, zero, c_to_c, zero)
