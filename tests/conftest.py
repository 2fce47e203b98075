"""Shared test helpers: random corpora, independent oracles, reorientation,
and the inputs that the byte-identity corpus shares (``inputs.py``)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import settings

from inputs import (  # noqa: F401  (re-exported to the tests)
    TREE_DUMPS,
    cyclic_tree_dump,
    mislabeled_edge_dump,
    random_right_angled,
    right_angled_corpus,
    vertex_edge_dump,
    z3_square,
)
from properk import CoxeterMatrix, IntMatrix, OrbitComplex
from properk.coxeter import INFINITY, build_bestvina_orbit_complex, build_davis_orbit_complex
from properk.orbit import AmalgamSpec, build_amalgam_orbit_complex
from properk.reprings import KO_POINT, KU_POINT, k0_rank, real_structure

# Property tests draw the same examples on every run, and no example fails
# for being slow on a loaded machine.
settings.register_profile("properk", derandomize=True, deadline=None)
settings.load_profile("properk")


def dinf(k: int) -> CoxeterMatrix:
    """D_inf^k: k commuting copies of the infinite dihedral group."""
    return CoxeterMatrix.from_rows([[1 if a == b else INFINITY if a // 2 == b // 2 else 2
                                     for b in range(2 * k)] for a in range(2 * k)])


def random_int_matrix(rng: random.Random, max_dim: int = 6, bound: int = 5) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def det(m: IntMatrix) -> int:
    """The exact determinant of a square matrix, by sympy: a test-only
    oracle that shares no code with properk."""
    import sympy

    return sympy.Matrix(m.to_rows()).det()


@pytest.fixture(scope="session")
def ra_corpus() -> list[CoxeterMatrix]:
    return right_angled_corpus()


def fold_corpus(ra_corpus):
    """Davis and Bestvina complexes (right-angled, path family, an odd
    dihedral label), odd-edge amalgams, whose cyclic stabilizers bring the
    C-type generators that only the KO^{-2} and KO^{-6} rows see, and
    ``z3_square``, which brings them in dimension 2, with and without a
    pendant edge."""
    dihedral = CoxeterMatrix.from_rows([[1, 5, 2], [5, 1, 0], [2, 0, 1]])
    out = []
    for matrix in ra_corpus[:3] + [CoxeterMatrix.path_family(3), dihedral]:
        out += [build_davis_orbit_complex(matrix), build_bestvina_orbit_complex(matrix)]
    for r, m in (((3,), (5, 7)), ((1, 3), (2, 3, 4)), ((5,), (3, 2))):
        out.append(build_amalgam_orbit_complex(AmalgamSpec(r=r, m=m)))
    return out + [z3_square(), z3_square(pendant=True)]


# Davis and Bestvina models of dimension >= 2: D_inf^2, a group with labels
# 2, 3 and infinity, and the polygon family.
BOUNDARY_MODELS = [
    build_davis_orbit_complex(CoxeterMatrix.from_rows([[1, 2, 3], [2, 1, 0], [3, 0, 1]])),
    build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(3)),
] + [build(CoxeterMatrix.from_rows([[1, 0, 2, 2], [0, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]]))
     for build in (build_davis_orbit_complex, build_bestvina_orbit_complex)]


def unit_columns_of_block(block: IntMatrix) -> tuple[int, ...] | None:
    """Per row of a restriction block, the column of its first ±1 entry, if
    those columns meet no other row; else None.  The oracle for
    ``reprings.has_unit_pivots``, which reads whether they exist off a
    descriptor's kind without the block."""
    firsts: dict[int, int] = {}
    for i, row in enumerate(block.data):
        c = next((c for c, x in row.items() if x == 1 or x == -1), None)
        if c is None:
            return None
        firsts[c] = i
    # Each row meets its own column; a second one in it is another row's.
    if len(firsts) < block.rows or any(len(firsts.keys() & row.keys()) > 1
                                       for row in block.data):
        return None
    return tuple(firsts)


def listed_cut(groups, theory: str, n: int) -> tuple[list[int], list[int]]:
    """The generators of the direct sum of the degree-0 coefficient groups
    of ``theory`` at ``groups``, in order, whose point value in degree -n is
    Z, then those whose value is Z/2, listed one by one: for K each complex
    irreducible carries K^{-n}(pt), for KO each real irreducible, in
    ``real_structure`` order, KO^{-n}(pt) if of real type and K^{-n}(pt) if
    of complex type.  The oracle for the parts that ``bredon`` assembles;
    it shares no code with ``reprings.type_range``."""
    free, tor = [], []
    values = [value for g in groups for value in (
        [KU_POINT[n % 2]] * k0_rank(g) if theory == "k" else
        [KO_POINT[n % 8] if kind == "R" else KU_POINT[n % 2] for kind, _ in real_structure(g)])]
    for i, (f, t) in enumerate(values):
        if f:
            free.append(i)
        elif t:
            tor.append(i)
    return free, tor


def listed_cuts(complex_: OrbitComplex, theory: str, n: int) -> list[tuple[list[int], list[int]]]:
    """``listed_cut`` of each degree of the cochain complex of ``theory`` on
    ``complex_``, its generators numbered cell by cell."""
    return [listed_cut([complex_.stabilizers[s] for s in cells], theory, n)
            for cells in complex_.cells]


def reorient(complex_: OrbitComplex, rng: random.Random) -> OrbitComplex:
    """Flip the orientation of a random set of cells.

    Reorienting a cell negates both its faces' coefficients and its
    coefficient in the faces of every higher cell it bounds, so the result
    is again a valid quotient CW structure with the same cohomology.
    """
    signs = [[rng.choice((1, -1)) for _ in layer] for layer in complex_.cells]
    return OrbitComplex(complex_.stabilizers, complex_.descriptors, complex_.cells,
                        complex_.labels, tuple(
        tuple({j: (coeff * signs[p][j] * signs[p + 1][k], desc)
               for j, (coeff, desc) in faces.items()}
              for k, faces in enumerate(layer))
        for p, layer in enumerate(complex_.faces)))


def gram_positive_definite(matrix: CoxeterMatrix, subset: tuple[int, ...]) -> bool:
    """Floating-point finiteness oracle: W_J is finite iff the cosine Gram
    matrix (1 on the diagonal, -cos(pi/m_ij) off it) is positive definite.

    Infinite labels give -cos(pi/oo) = -1.  Checked through leading
    principal minors with a 1e-9 tolerance; only trustworthy for the small
    labels used in tests.
    """
    n = len(subset)
    if n == 0:
        return True
    g = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                g[a][b] = 1.0
            else:
                m = matrix.m(subset[a], subset[b])
                g[a][b] = -1.0 if m == INFINITY else -math.cos(math.pi / m)
    # Leading principal minors by Gaussian elimination.
    work = [row[:] for row in g]
    for k in range(n):
        if work[k][k] <= 1e-9:
            return False
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= f * work[k][j]
    return True


def cw_homology(boundaries: list[IntMatrix], counts: list[int]):
    """Integral cellular homology of a finite CW complex.

    ``boundaries[p]`` maps (p+1)-chains to p-chains.  Returns a list of
    (rank, torsion tuple) per degree; an independent route used to check
    contractibility proxies.
    """
    from properk.abelian import AbGroup, invariant_factors

    out = []
    for p in range(len(counts)):
        d_in = boundaries[p] if p < len(boundaries) else IntMatrix.zero(counts[p], 0)
        d_out = boundaries[p - 1] if p >= 1 else IntMatrix.zero(0, counts[p])
        factors_in = invariant_factors(d_in)
        rank_out = len(invariant_factors(d_out))
        rank = counts[p] - rank_out - len(factors_in)
        out.append(AbGroup.from_divisors(rank, [d for d in factors_in if d > 1]))
    return out
