"""Bredon cochain complexes of orbit complexes with K/KO orbit coefficients.

The degree-p cochain group is the direct sum, over the p-cells, of the
coefficient value at the cell's stabilizer; the differential block from a
p-cell j into a (p+1)-cell k is the signed incidence integer times the
restriction matrix along the recorded inclusion, exactly the transpose
shape of the cellular boundary.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .abelian import (
    AbGroup,
    Factorization,
    IntMatrix,
    SplitCochainComplex,
    cohomology,
    factor_integral,
    product_rows,
)
from .groups import GroupClass
from .orbit import OrbitComplex
from .reprings import (
    has_unit_pivots,
    kept_types,
    real_restriction,
    refuse_even_cyclic,
    restriction_k0,
    sliced,
    type_range,
)


def part_sizes(complex_: OrbitComplex, theory: str, types: str) -> list[int]:
    """Per stabilizer of ``complex_``, its number of generators of the
    types ``types`` in the degree-0 coefficient group of ``theory``, read
    off the ends of its range, which may be longer than a machine word."""
    return [r.stop - r.start for r in (type_range(g, theory, types) for g in complex_.stabilizers)]


def part_assembler(complex_: OrbitComplex, theory: str,
                   peel: bool) -> Callable[[str], SplitCochainComplex]:
    """The function taking a set of types to the part of the degree-0
    cochain complex of ``theory`` on the generators of those types
    (``_assemble``), reduced by the peel of d_0 when ``peel`` is set.
    Each distinct part is assembled once: two sets of types that keep the
    same generators of every stabilizer give one part.  All parts slice
    their blocks from one restriction per descriptor."""
    blocks: list[IntMatrix | None] = [None] * len(complex_.descriptors)
    assembled: dict[tuple[range, ...], SplitCochainComplex] = {}

    def part(types: str) -> SplitCochainComplex:
        ranges = {g: type_range(g, theory, types) for g in complex_.stabilizers}
        key = tuple(ranges.values())
        if key not in assembled:
            assembled[key] = _assemble(complex_, theory, ranges, peel, blocks)
        return assembled[key]

    return part


def assemble_cochain(complex_: OrbitComplex, theory: str,
                     parts: Callable[[str], SplitCochainComplex] | None = None) -> SplitCochainComplex:
    """The Bredon cochain complex that a page of ``theory`` factors: the
    whole complex, which is the free part of degree 0, reduced by the peel
    of d_0 (``_assemble``).  ``parts``, a ``part_assembler`` with the peel,
    lets the page's other parts share its restriction blocks."""
    parts = parts or part_assembler(complex_, theory, peel=True)
    return parts(kept_types(theory, 0)[0])


def _assemble(complex_: OrbitComplex, theory: str, ranges: dict[GroupClass, range], peel: bool,
              blocks: list[IntMatrix | None]) -> SplitCochainComplex:
    """The part of the degree-0 Bredon cochain complex of ``theory`` that
    keeps the generators ``ranges`` names at each stabilizer, as an
    integral complex; with ``peel``, reduced by the peel of d_0.

    A part is a coefficient system of its own.  It keeps one range of
    generators at each stabilizer (``reprings.type_range``), numbers a
    cell's kept generators contiguously from the cell's offset in the
    part, and its restriction block along a descriptor is the slice of the
    degree-0 one at those ranges: of ``restriction_k0`` for K, whose one
    part is K^0, and of ``real_restriction`` for KO, whose whole is the real
    complex, KO^0 and KO^{-4}.  A cell's width is its number of kept
    generators, read off its range's ends, so a part's size is never a
    list of its generators.

    With ``peel``, the peel of d_0, a list of (free vertex, edge) pairs, is
    decided first, before any block, from the face table, the incidence
    coefficients and the descriptors' kinds (``_peel``).  Each peeled row
    is a unit at a column of its free vertex that no kept row meets, so the
    row and its column are an elementary reduction (Kaczynski, Mrozek and
    Ślusarek, 1998): the reduced complex has the same cohomology, and its
    d_0 has one invariant factor 1 fewer.  The part drops them all: a
    peeled edge has width 0, and its free vertex loses that edge's width.
    Every edge of a free vertex is peeled, so no kept row meets any of its
    columns and it does not matter which of them go.  The reduced complex's
    ranks are the whole's less P, the number of peeled rows, in degrees 0
    and 1, its d_0 is the whole's kept rows, renumbered, and its d_1 is the
    whole's without the peeled columns, where it is zero.  Without ``peel``
    the part is the whole, with every row written.

    Every other block is written straight into fresh sparse rows.  A
    descriptor is restricted when a written face first reads it, into
    ``blocks``, which the caller shares between parts, and sliced once per
    part, so a descriptor that only peeled faces use is never restricted on
    the page.  The order of the cells fixes the block layout, so assembled
    matrices are reproducible literals.

    d∘d = 0 is proved rather than multiplied out when the part's composite
    restrictions agree (``_composites_agree``); the orbit complex has
    checked ∂∘∂ = 0, so each block of d_{p+1}·d_p is then (∂∂)_{jl} times
    one composite, which is zero (``OrbitComplex``).  Otherwise
    ``SplitCochainComplex`` runs its product check, which refuses the
    complex unless the disagreeing composites cancel.  A peeled edge bounds
    no 2-cell, so no coherence pair reads a block that only peeled faces
    use, and the reduction deletes no nonzero column of d_1: each block of
    the reduced d_1·d_0 is one of the whole's.
    """
    size = [r.stop - r.start for r in ranges.values()]
    widths = [[size[s] for s in cells] for cells in complex_.cells]
    peeled = _peel(complex_, theory) if peel else []
    for j, k in peeled:
        widths[0][j] -= widths[1][k]
        widths[1][k] = 0
    offsets = [list(accumulate(w, initial=0)) for w in widths]
    edges = {k for _, k in peeled}
    part_blocks: list[IntMatrix | None] = [None] * len(complex_.descriptors)

    def slice_block(d: int) -> IntMatrix:
        incl = complex_.descriptors[d]
        if blocks[d] is None:
            blocks[d] = restriction_k0(incl) if theory == "k" else real_restriction(incl)
        part_blocks[d] = sliced(blocks[d], ranges[incl.sub], ranges[incl.big])
        return part_blocks[d]

    free_d = []
    for p, layer in enumerate(complex_.faces):
        lower, higher = offsets[p], offsets[p + 1]
        rows = [{} for _ in range(higher[-1])]
        cells = (k for k in range(len(layer)) if p or k not in edges)
        _write(rows, layer, lower, higher, cells, part_blocks, slice_block)
        free_d.append(IntMatrix(len(rows), lower[-1], tuple(rows)))
    return SplitCochainComplex.integral([offs[-1] for offs in offsets], free_d,
                                        _composes=_composites_agree(complex_, part_blocks))


def _write(rows: list[dict[int, int]], layer: Sequence[dict[int, tuple[int, int]]],
           lower: Sequence[int], higher: Sequence[int], cells: Iterable[int],
           blocks: list[IntMatrix | None], slice_block: Callable[[int], IntMatrix]) -> None:
    """Write the blocks of d_p at the (p+1)-cells ``cells``, whose faces
    ``layer`` holds, into ``rows``, the rows of d_p: each face's block in
    the part times its coefficient, at the face's columns.  ``blocks``
    holds each descriptor's block, or None until ``slice_block`` makes it
    when a face first reads it.  ``lower`` and ``higher`` are the cells'
    offsets in degrees p and p + 1."""
    for k in cells:
        cell_rows = rows[higher[k]:higher[k + 1]]
        # A cell's faces are distinct, so their blocks never overlap.
        for j, (alpha, d) in layer[k].items():
            src = lower[j]
            for row, r_row in zip(cell_rows, (blocks[d] or slice_block(d)).data):
                for b, v in r_row.items():
                    row[src + b] = alpha * v


def _peel(complex_: OrbitComplex, theory: str) -> list[tuple[int, int]]:
    """The free edges of the orbit complex, each with its free vertex, in
    the order they are peeled: the edges whose rows of d_0 split off as
    unit pivots at columns of that vertex, decided before any block is
    built.

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
    l, 0 = (∂∂l)_j = ±(∂l)_k.  Only d_0 is peeled (``bredon_rows`` says
    why).
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
        peeled.append((j, k))
        for i in layer[k]:
            degree[i] -= 1
            edges[i] -= k
            if degree[i] == 1:
                leaves.append(i)
    return peeled


def _composites_agree(complex_: OrbitComplex, blocks: list[IntMatrix]) -> bool:
    """Whether the two paths of each entry of ``complex_.coherence`` have
    one composite restriction block; each distinct (e, d) is composed once,
    into sparse rows.  ``blocks`` holds, per descriptor, its block, or
    None where no written face reads it, which no coherence pair does."""
    coherence = complex_.coherence
    paths = {path for e0, d0, e, d in coherence for path in ((e0, d0), (e, d))}
    composite = {(e, d): product_rows(blocks[e].data, blocks[d].data) for e, d in paths}
    return all(composite[e0, d0] == composite[e, d] for e0, d0, e, d in coherence)


def _factor_part(complex_: OrbitComplex, parts: Callable[[str], SplitCochainComplex],
                 factored: Factorization, types: str) -> Factorization:
    """The factorization of the part of the real complex on the generators
    of the types ``types``, R (KO^{-1}) or C (KO^{-6}); ``factored`` is that
    of the whole real complex, and ``parts`` assembles with the peel.

    A part that keeps every generator of every stabilizer is the whole and
    reuses ``factored``; one that keeps none is the zero complex; any other
    is assembled with the peel and factored.  Its peel is that of the whole
    edge by edge: a peeled edge keeps no row, and its free vertex loses as
    many columns as the edge had kept rows, since each unit has its row's
    type (``reprings.has_unit_pivots``) and so lies at a kept column.
    """
    sizes = part_sizes(complex_, "ko", types)
    if sizes == part_sizes(complex_, "ko", "RC"):
        return factored
    if not any(sizes):
        return Factorization((0,) * len(factored.ranks), ((),) * (len(factored.ranks) + 1))
    return factor_integral(parts(types))


def bredon_cochain(complex_: OrbitComplex, theory: str, n: int,
                   parts: Callable[[str], SplitCochainComplex] | None = None) -> SplitCochainComplex:
    """The whole cochain complex of the coefficients K^{-n} (``theory``
    "k") or KO^{-n} ("ko"), with every row of d_0 written: the part on the
    types whose point value in degree -n is Z (``reprings.kept_types``)
    beside the part on those whose value is Z/2, reduced mod 2, or the free
    part alone where no type has Z/2.  A degree where no type has a value,
    such as K^{-1}, keeps no generator, so its complex is zero.
    ``parts``, a ``part_assembler`` without the peel, shares parts and
    restriction blocks between calls: ``--emit cochain`` prints one call
    per degree.  ``bredon_cohomology`` reads it.

    A KO degree with a torsion part first refuses an even-order cyclic
    subgroup among the descriptors, naming the first in the descriptor
    table.
    """
    free_types, tor_types = kept_types(theory, n)
    if theory == "ko":
        refuse_even_cyclic(complex_.descriptors, n)
    parts = parts or part_assembler(complex_, theory, peel=False)
    free = parts(free_types)
    if not tor_types:
        return free
    tor = parts(tor_types)
    # Each part has been checked to square to zero, so its reduction too.
    return SplitCochainComplex(free.free_ranks, tor.free_ranks, free.free_d,
                               tuple(d.mod2() for d in tor.free_d), _composes=True)


def bredon_cohomology(complex_: OrbitComplex, theory: str, n: int) -> tuple[AbGroup, ...]:
    """Graded Bredon cohomology of the orbit complex, degrees 0..dim, with
    the coefficients of ``bredon_cochain``, from their whole cochain
    complex with no row peeled: the per-degree reference that tests hold
    the page against."""
    return cohomology(bredon_cochain(complex_, theory, n))


def bredon_rows(complex_: OrbitComplex, theory: str) -> tuple[tuple[AbGroup, ...], ...]:
    """Bredon cohomology for the coefficient degrees -n, n = 0..period-1.

    One cochain complex is assembled (``assemble_cochain``) and factored
    (``factor_integral``) per page.  For K that is K^0, whose cohomology
    the factorization gives; K^{-1} is a zero functor.  For KO it is the
    real complex C, which is KO^0 and KO^{-4}; KO^{-3}, KO^{-5} and KO^{-7}
    are zero functors.  Segal's decomposition makes two more rows
    distinct, both read off integral factorizations of parts of C, each a
    coefficient system of its own (``_assemble``): KO^{-1} is the
    cohomology mod 2 of the R part (the real-type generators), read off
    the parity of its invariant factors (``Factorization.mod2``), and
    KO^{-6} is the cohomology of the C part.  KO^{-2} is the C part's free
    block beside the R part's torsion block, so its cohomology is their
    direct sum degree by degree.  C is factored once.  A part that keeps
    every generator is C and reuses that factorization, as the R part does
    when no stabilizer has a complex-type irreducible (every Coxeter group
    in scope); the C part is then empty (``_factor_part``).

    Both parts are integral complexes whenever C is.  Along every inclusion
    in the catalogue the real restriction takes no R-type generator of the
    big group to a C-type one of the subgroup: d_CR = 0.  So the R part's
    d∘d, the R-to-R block of C's, reads d_RR² = -d_RC·d_CR = 0 and the C
    part's d_CC² = -d_CR·d_RC = 0, over Z and not only mod 2.

    d_0 is peeled before any block is built (``_peel``): an edge that is
    the last one left at a vertex, meets it with incidence ±1 and has a
    unit in each row of its restriction block at a column no other row
    meets, read off the descriptor's kind, leaves the complex: its rows go
    with as many of that vertex's columns, elementary reductions that keep
    every group and every group mod 2.  A descriptor that only peeled faces
    use is not restricted.  A tree, such as the orbit complex of an
    amalgam, peels the whole of d_0, so its page restricts nothing and its
    d_0 has no row: the page is O(edges) at any edge order.  The parts peel
    the same edges, and they slice their blocks from C's restrictions, so
    each descriptor is restricted at most once per page.  A part's ranks
    are sums of per-stabilizer range lengths, so it lists no generator.
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
    parts = part_assembler(complex_, theory, peel=True)
    full = assemble_cochain(complex_, theory, parts)
    zero = (AbGroup.zero(),) * (complex_.dim + 1)
    if theory == "k":
        return factor_integral(full).groups(), zero
    refuse_even_cyclic(complex_.descriptors, 1)
    factored = factor_integral(full)
    real = factored.groups()
    r_to_r = _factor_part(complex_, parts, factored, "R").mod2()
    c_to_c = _factor_part(complex_, parts, factored, "C").groups()
    mixed = tuple(free.direct_sum(tor) for free, tor in zip(c_to_c, r_to_r))
    return (real, r_to_r, mixed, zero, real, zero, c_to_c, zero)
