"""Bredon cochain complexes of orbit complexes with K/KO orbit coefficients.

The degree-p cochain group is the direct sum, over the p-cells, of the
coefficient value at the cell's stabilizer; the differential block from a
p-cell j into a (p+1)-cell k is the signed incidence integer times the
restriction matrix along the recorded inclusion, exactly the transpose
shape of the cellular boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .abelian import (
    AbGroup,
    Factorization,
    IntMatrix,
    SplitCochainComplex,
    cohomology,
    factor_integral,
    product_rows,
)
from .orbit import OrbitComplex
from .reprings import (
    CutNumbering,
    cell_offsets,
    coefficient_runs,
    has_unit_pivots,
    real_restriction,
    refuse_even_cyclic,
    restriction_k0,
)


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


def assemble_cochain(complex_: OrbitComplex, theory: str) -> SplitCochainComplex:
    """The Bredon cochain complex that a page of ``theory`` factors: that of
    ``_assemble`` with the rows of d_0 that its peel splits off left empty."""
    return _assemble(complex_, theory, peel=True)


def _assemble(complex_: OrbitComplex, theory: str, peel: bool) -> SplitCochainComplex:
    """The degree-0 Bredon cochain complex of ``theory`` in split form,
    with d_0's peeled rows left empty when ``peel`` is set.

    One integral complex is assembled per theory: K^0 from the complex
    restriction matrices (``restriction_k0``), or for KO the real complex,
    which is KO^0 and KO^{-4}, from the real ones (``real_restriction``).
    The peel of d_0, a list of edges, is decided first, before any block,
    from the face table, the incidence coefficients and the descriptors'
    kinds (``_peel``).  Those edges' rows are the complex's ``peeled``
    rows, for ``factor_integral``; with ``peel`` they are not stored but
    left empty.  Every other block is written straight into sparse rows,
    each restriction computed once per distinct descriptor, when a written
    face first reads it, so a descriptor that only peeled faces use is
    never restricted on the page.  The order of the cells fixes the block
    layout, so assembled matrices are reproducible literals.

    d∘d = 0 is proved rather than multiplied out when the composite
    restrictions agree (``_composites_agree``); the orbit complex has
    checked ∂∘∂ = 0, so each block of d_{p+1}·d_p is then (∂∂)_{jl} times
    one composite, which is zero.  Otherwise ``SplitCochainComplex`` runs
    its product check, which refuses the complex unless the disagreeing
    composites cancel.  A peeled edge bounds no 2-cell, so no coherence
    pair reads a block that only peeled faces use, and d_1 is zero at every
    peeled row: leaving those rows empty changes no block of d_1·d_0.
    """
    offsets = _offsets(complex_, theory)
    edges = _peel(complex_, theory)
    skipped = set(edges) if peel else set()
    blocks: list[IntMatrix | None] = [None] * len(complex_.descriptors)
    free_d = []
    for p, layer in enumerate(complex_.faces):
        rows: list[dict[int, int]] = [{} for _ in range(offsets[p + 1][-1])]
        cells = [k for k in range(len(layer)) if p or k not in skipped]
        _write(rows, complex_, theory, blocks, p, offsets, cells)
        free_d.append(IntMatrix(len(rows), offsets[p][-1], tuple(rows)))
    return SplitCochainComplex.integral([offs[-1] for offs in offsets], free_d,
                                        _composes=_composites_agree(complex_, blocks),
                                        peeled=_edge_rows(offsets, edges))


def _offsets(complex_: OrbitComplex, theory: str) -> list[list[int]]:
    """Per dimension, the first generator of each cell in the degree-0
    cochain group of ``theory``, and last the group's rank."""
    return cell_offsets(complex_.cells, [sum(count for _, count in coefficient_runs(g, theory))
                                         for g in complex_.stabilizers])


def _write(rows: list[dict[int, int]], complex_: OrbitComplex, theory: str,
           blocks: list[IntMatrix | None], p: int, offsets: list[list[int]],
           cells: Iterable[int]) -> None:
    """Write the blocks of d_p at the (p+1)-cells ``cells`` into ``rows``, the
    rows of d_p: each face's restriction block times its coefficient, at
    the face's columns.  A block is restricted when a face first reads it,
    and kept in ``blocks``, one entry per descriptor."""
    layer, lower, higher = complex_.faces[p], offsets[p], offsets[p + 1]
    for k in cells:
        cell_rows = rows[higher[k]:higher[k + 1]]
        # A cell's faces are distinct, so their blocks never overlap.
        for j, (alpha, d) in layer[k].items():
            block = blocks[d]
            if block is None:
                incl = complex_.descriptors[d]
                block = blocks[d] = (restriction_k0(incl) if theory == "k"
                                     else real_restriction(incl))
            src = lower[j]
            for row, r_row in zip(cell_rows, block.data):
                for b, v in r_row.items():
                    row[src + b] = alpha * v


def _peel(complex_: OrbitComplex, theory: str) -> list[int]:
    """The free edges of the orbit complex, in the order they are peeled:
    the edges whose rows of d_0 split off as unit pivots, decided before
    any block is built.

    A vertex j whose only edge left is k is free when its incidence is ±1
    and every row of k's restriction block has a ±1 at a column that no
    other row of the block meets: ``reprings.has_unit_pivots`` reads that
    off the descriptor's kind.  j's columns of d_0 meet the rows of k
    alone, so each row of k is a unit pivot at its column of j.  k is
    dropped and the peel goes on, so a tree collapses completely.  A
    vertex's last edge is the sum of the indices of the edges it has left,
    so the peel costs a few integers per edge.

    A peeled edge k bounds no 2-cell.  Every other edge of its free vertex
    j was peeled before it and, by induction, bounds none, so for a 2-cell
    l, 0 = (∂∂l)_j = ±(∂l)_k.  Only d_0 is peeled (``abelian._top_down``
    says why).
    """
    if not complex_.faces:
        return []
    layer = complex_.faces[0]
    degree = [0] * len(complex_.cells[0])
    edges = [0] * len(degree)  # per vertex, the sum of its edges left
    for k, faces in enumerate(layer):
        for j in faces:
            degree[j] += 1
            edges[j] += k
    leaves = [j for j, n in enumerate(degree) if n == 1]
    peeled = []
    while leaves:
        j = leaves.pop()
        if degree[j] != 1:  # its edge went from the other end
            continue
        k = edges[j]
        alpha, d = layer[k][j]
        if alpha * alpha != 1 or not has_unit_pivots(complex_.descriptors[d], theory):
            continue
        peeled.append(k)
        for i in layer[k]:
            degree[i] -= 1
            edges[i] -= k
            if degree[i] == 1:
                leaves.append(i)
    return peeled


def _edge_rows(offsets: Sequence[Sequence[int]], edges: Iterable[int]) -> tuple[int, ...]:
    """The rows of d_0 at ``edges``, in order: each edge's rows, from its
    offset in degree 1 of ``offsets`` to the next edge's."""
    return tuple(chain.from_iterable(range(offsets[1][k], offsets[1][k + 1]) for k in edges))


def _composites_agree(complex_: OrbitComplex, blocks: list[IntMatrix]) -> bool:
    """Whether the two paths of each entry of ``complex_.coherence`` have
    one composite restriction block; each distinct (e, d) is composed once,
    into sparse rows.  ``blocks`` holds, per descriptor, its block, or
    None where no written face reads it, which no coherence pair does."""
    coherence = complex_.coherence
    paths = {path for e0, d0, e, d in coherence for path in ((e0, d0), (e, d))}
    composite = {(e, d): product_rows(blocks[e].data, blocks[d].data) for e, d in paths}
    return all(composite[e0, d0] == composite[e, d] for e0, d0, e, d in coherence)


def cut_cochain(complex_: OrbitComplex, full: SplitCochainComplex,
                functor: CoefficientFunctor) -> SplitCochainComplex:
    """The functor's cochain complex as a sub-block of ``full``, the
    assembled degree-0 complex of its theory.

    A generator keeps its row and column in the free block where its point
    value in degree -n is Z and in the torsion block, reduced mod 2, where
    it is Z/2, each numbered by runs (``_cut``).  A KO degree with a
    torsion block first refuses an even-order cyclic subgroup among the
    descriptors, naming the first in the descriptor table.
    """
    if functor.theory == "ko":
        refuse_even_cyclic(complex_.descriptors, functor.n)
    free, tor = (_cut(complex_, functor.theory, functor.n, part) for part in (0, 1))
    return SplitCochainComplex(free.ranks, tor.ranks, free.blocks(full.free_d),
                               tuple(d.mod2() for d in tor.blocks(full.free_d)))


def _cut(complex_: OrbitComplex, theory: str, n: int, part: int) -> CutNumbering:
    """Part ``part`` of the degree -n cut of the cochain complex of ``theory``."""
    return CutNumbering([coefficient_runs(g, theory) for g in complex_.stabilizers], n, part,
                        complex_.cells)


def _factor_cut(complex_: OrbitComplex, full: SplitCochainComplex, factored: Factorization,
                n: int, part: int) -> Factorization:
    """The factorization of the integral sub-complex of the real complex
    ``full`` on the generators whose KO^{-n} point value is Z (``part`` 0)
    or Z/2 (``part`` 1); ``factored`` is that of ``full``.

    The cut keeps or drops a stabilizer's whole R-type and C-type runs
    (``_cut``): keeping every generator reuses ``factored``, keeping none
    gives the zero complex, and otherwise its d_p are the rows of ``full``
    that it keeps, their columns renumbered.  Its peel is that of ``full``
    edge by edge: a peeled edge peels all of its rows, and the cut numbers
    a cell's kept generators contiguously, so it peels each peeled edge's
    rows from the edge's cut offset to the next edge's.  Each kept row has
    its unit at a kept column, since a unit has its row's type
    (``reprings.has_unit_pivots``) and the cut keeps whole types.
    ``full``, the page's complex, stores no peeled row, and the cut reads
    none.
    """
    cut, length = _cut(complex_, "ko", n, part), len(full.free_ranks)
    return cut.select(
        factored, lambda: Factorization((0,) * length, ((),) * (length + 1)),
        lambda: factor_integral(SplitCochainComplex.integral(
            cut.ranks, cut.blocks(full.free_d),
            peeled=_edge_rows([kept for _, kept in cut.degrees], _peel(complex_, "ko")))))


def bredon_cochain(complex_: OrbitComplex, functor: CoefficientFunctor) -> SplitCochainComplex:
    """The functor's whole cochain complex: the complex of its theory with
    every row of d_0 written (``_assemble``), cut to degree -n
    (``cut_cochain``).  ``--emit cochain`` prints its cuts and
    ``bredon_cohomology`` reads it."""
    full = _assemble(complex_, functor.theory, peel=False)
    return full if functor.n == 0 else cut_cochain(complex_, full, functor)


def bredon_cohomology(complex_: OrbitComplex, functor: CoefficientFunctor) -> tuple[AbGroup, ...]:
    """Graded Bredon cohomology of the orbit complex, degrees 0..dim, from
    the functor's whole cochain complex with no row peeled: the per-functor
    reference that tests hold the page against.

    A zero functor has zero cohomology; nothing is assembled for it.
    """
    if functor.is_zero_functor:
        return (AbGroup.zero(),) * (complex_.dim + 1)
    return cohomology(bredon_cochain(complex_, functor))


def bredon_rows(complex_: OrbitComplex, theory: str) -> tuple[tuple[AbGroup, ...], ...]:
    """Bredon cohomology for the coefficient degrees -n, n = 0..period-1.

    One cochain complex is assembled (``assemble_cochain``) and factored
    (``factor_integral``) per page.  For K that is K^0, whose cohomology
    the factorization gives; K^{-1} is a zero functor.  For KO it is the
    real complex C, which is KO^0 and KO^{-4}; KO^{-3}, KO^{-5} and KO^{-7}
    are zero functors.  Segal's decomposition makes two more rows
    distinct, both read off integral factorizations: KO^{-1} is the
    cohomology mod 2 of the R-to-R cut of C (its real-type generators),
    read off the parity of that cut's invariant factors
    (``Factorization.mod2``), and KO^{-6} is the cohomology of its C-to-C
    cut.  KO^{-2} is the KO^{-6} free block beside
    the KO^{-1} torsion block, so its cohomology is their direct sum degree
    by degree.  C is factored once.  A cut that keeps every generator is C
    and reuses that factorization, as the R-to-R cut does when no
    stabilizer has a complex-type irreducible (every Coxeter group in
    scope); the C-to-C cut is then empty.

    Both cuts are integral complexes whenever C is.  Along every inclusion
    in the catalogue the real restriction takes no R-type generator of the
    big group to a C-type one of the subgroup: d_CR = 0.  So the R-to-R
    block of d∘d = 0 reads d_RR² = -d_RC·d_CR = 0 and the C-to-C block
    d_CC² = -d_CR·d_RC = 0, over Z and not only mod 2.

    d_0 is peeled before any block is built (``_peel``): an edge that is
    the last one left at a vertex, meets it with incidence ±1 and has a
    unit in each row of its restriction block at a column no other row
    meets, read off the descriptor's kind, splits off its rows as factors
    1.  Those rows are not stored, and a descriptor that only peeled faces
    use is not restricted.  A tree, such as the orbit complex of an
    amalgam, splits off the whole of d_0, so its page restricts nothing,
    stores no entry of d_0 and eliminates no row of it: each row is a rank
    count.  The cuts peel the same edges and build no rows for them
    (``_factor_cut``): each keeps or drops a stabilizer's whole R-type and
    C-type runs, so its ranks, its peeled rows and the columns of its rows
    are arithmetic on those runs, and it lists no generator.
    Only d_0 is peeled: its pivot columns feed no further differential,
    while peeling d_p for p ≥ 1 would change the pivot columns that d_{p-1}
    skips, and on a Davis top differential that made the next elimination
    slower.

    Any free-to-torsion term is left out: the page reads only the real
    restriction of each descriptor (``reprings.real_restriction``).  The
    term would come from a C-type generator restricting onto an R-type one,
    whose multiplicity is always even; item 1 of ROADMAP.md is to settle
    it.
    """
    full = assemble_cochain(complex_, theory)
    zero = (AbGroup.zero(),) * (complex_.dim + 1)
    if theory == "k":
        return factor_integral(full).groups(), zero
    refuse_even_cyclic(complex_.descriptors, 1)
    factored = factor_integral(full)
    real = factored.groups()
    r_to_r = _factor_cut(complex_, full, factored, 1, 1).mod2()
    c_to_c = _factor_cut(complex_, full, factored, 6, 0).groups()
    mixed = tuple(free.direct_sum(tor) for free, tor in zip(c_to_c, r_to_r))
    return (real, r_to_r, mixed, zero, real, zero, c_to_c, zero)
