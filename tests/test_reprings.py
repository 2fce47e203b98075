import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from properk import reprings
from properk.abelian import invariant_factors
from properk.groups import (
    UnsupportedRestrictionError,
    cyclic,
    cyclic_in_cyclic,
    dihedral_odd,
    elem2,
    elem2_subset,
    reflection_in_dihedral,
    trivial,
    trivial_in,
)
from properk.reprings import (
    has_unit_pivots,
    k0_rank,
    ko_ranks,
    real_restriction,
    real_structure,
    real_type_counts,
    restriction_k0,
    restriction_ko,
)
from conftest import listed_cut, unit_columns_of_block


def test_group_canonicalization():
    assert cyclic(1) == trivial()
    assert elem2(0) == trivial()
    assert elem2(1) == cyclic(2)
    assert sum(d * d for d in reprings.complex_irrep_dims(dihedral_odd(3))) == 6
    with pytest.raises(ValueError):
        dihedral_odd(4)


def test_k0_ranks():
    assert k0_rank(cyclic(6)) == 6
    assert k0_rank(dihedral_odd(3)) == 3
    assert k0_rank(trivial()) == 1
    assert k0_rank(elem2(3)) == 8
    assert k0_rank(dihedral_odd(5)) == 4


def test_restriction_z2_in_z4():
    # coefficient sums over residue classes: (a1,a2,a3,a4) -> (a1+a3, a2+a4)
    m = restriction_k0(cyclic_in_cyclic(2, 2))
    assert m.to_rows() == [[1, 0, 1, 0], [0, 1, 0, 1]]


def test_restriction_reflection_in_s3():
    # (a, b, c) -> (a + c, b + c)
    m = restriction_k0(reflection_in_dihedral(3))
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]


def test_restriction_to_trivial_is_dimension():
    m = restriction_k0(trivial_in(dihedral_odd(3)))
    assert m.to_rows() == [[1, 1, 2]]
    m = restriction_k0(trivial_in(cyclic(4)))
    assert m.to_rows() == [[1, 1, 1, 1]]


def test_restriction_elem2_subset():
    m = restriction_k0(elem2_subset(1, 2, (0,)))
    assert m.to_rows() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    m = restriction_k0(elem2_subset(1, 2, (1,)))
    assert m.to_rows() == [[1, 1, 0, 0], [0, 0, 1, 1]]


def test_restriction_functorial_on_cyclic_towers():
    for r, m1, m2 in itertools.product((1, 2, 3), (2, 3), (2, 3)):
        lower = restriction_k0(cyclic_in_cyclic(r, m1))          # R(Z_{r m1}) -> R(Z_r)
        upper = restriction_k0(cyclic_in_cyclic(r * m1, m2))     # R(Z_{r m1 m2}) -> R(Z_{r m1})
        total = restriction_k0(cyclic_in_cyclic(r, m1 * m2))
        assert lower * upper == total


def test_restriction_functorial_on_elem2_chains():
    inner = restriction_k0(elem2_subset(1, 2, (1,)))
    outer = restriction_k0(elem2_subset(2, 3, (0, 2)))
    total = restriction_k0(elem2_subset(1, 3, (2,)))
    assert inner * outer == total


def test_restriction_preserves_dimensions():
    # restricting cannot change the dimension of a representation:
    # dims(sub) . R == dims(big).
    cases = [
        cyclic_in_cyclic(3, 4),
        cyclic_in_cyclic(1, 5),
        reflection_in_dihedral(5),
        elem2_subset(2, 4, (1, 3)),
        trivial_in(dihedral_odd(9)),
    ]
    for incl in cases:
        r = restriction_k0(incl)
        dims_sub = restriction_k0(trivial_in(incl.sub))
        dims_big = restriction_k0(trivial_in(incl.big))
        assert dims_sub * r == dims_big


def test_restrictions_are_surjective():
    # Surjectivity over Z = all invariant factors equal 1.
    cases = [
        cyclic_in_cyclic(2, 2),
        cyclic_in_cyclic(3, 5),
        cyclic_in_cyclic(1, 7),
        reflection_in_dihedral(3),
        reflection_in_dihedral(7),
        trivial_in(cyclic(9)),
        trivial_in(elem2(3)),
    ]
    for incl in cases:
        factors = invariant_factors(restriction_k0(incl))
        assert set(factors) == {1}, f"{incl} is not surjective"


def test_real_type_counts():
    c3 = real_type_counts(cyclic(3))
    assert (c3.n_r, c3.n_c) == (1, 1)
    c4 = real_type_counts(cyclic(4))
    assert (c4.n_r, c4.n_c) == (2, 1)
    e2 = real_type_counts(elem2(2))
    assert (e2.n_r, e2.n_c) == (4, 0)
    t = real_type_counts(trivial())
    assert (t.n_r, t.n_c) == (1, 0)
    d5 = real_type_counts(dihedral_odd(5))
    assert (d5.n_r, d5.n_c) == (4, 0)


def catalogue_sample():
    return ([trivial()] + [cyclic(s) for s in range(2, 40)] + [elem2(k) for k in range(2, 6)]
            + [dihedral_odd(m) for m in range(3, 30, 2)])


def test_real_type_counts_match_real_structure():
    for g in catalogue_sample():
        kinds = [kind for kind, _ in real_structure(g)]
        counts = real_type_counts(g)
        assert (counts.n_r, counts.n_c) == (kinds.count("R"), kinds.count("C")), g
        # every R-type generator comes before the C-type ones
        assert kinds == sorted(kinds, key="RC".index), g


def test_real_restriction_literals():
    # RO(Z3) -> RO(1): the rotation plane restricts to two copies of the
    # trivial representation.
    assert real_restriction(trivial_in(cyclic(3))).to_rows() == [[1, 2]]
    # RO(Z2) -> RO(1)
    assert real_restriction(trivial_in(cyclic(2))).to_rows() == [[1, 1]]
    # RO(D3) -> RO(Z2) equals the complex one (every irreducible is real).
    assert real_restriction(reflection_in_dihedral(3)).to_rows() == [[1, 0, 1], [0, 1, 1]]


def expected_cyclic_ko_table(s: int, n: int) -> tuple[int, int]:
    """Published KO^{-n}(pt) table for Z/s: independent oracle.

    n:            0            1      2                3  4            5  6              7
    KO^{-n}:  Z^{fl(s/2)+1}  T(s)   T(s) + Z^{ce(s/2)-1}  0  Z^{fl(s/2)+1} 0  Z^{ce(s/2)-1}  0
    with T(s) = (Z/2)^{(3 + (-1)^s)/2}.
    """
    fl = s // 2 + 1
    ce = (s + 1) // 2 - 1
    t = (3 + (-1) ** s) // 2
    table = {0: (fl, 0), 1: (0, t), 2: (ce, t), 3: (0, 0),
             4: (fl, 0), 5: (0, 0), 6: (ce, 0), 7: (0, 0)}
    return table[n]


def test_ko_point_reproduces_cyclic_table():
    for s in range(1, 13):
        for n in range(8):
            assert ko_ranks(cyclic(s), n) == expected_cyclic_ko_table(s, n), (s, n)


def test_ko_point_elem2_and_dihedral():
    for k in range(4):
        assert ko_ranks(elem2(k), 2) == (0, 2 ** k)
        assert ko_ranks(elem2(k), 0)[0] == 2 ** k
        assert ko_ranks(elem2(k), 6)[0] == 0
    assert ko_ranks(dihedral_odd(3), 1) == (0, 3)
    for g in (cyclic(5), elem2(2), dihedral_odd(7), trivial()):
        assert ko_ranks(g, 3) == (0, 0)


def test_ko_point_periodicity_and_labels():
    for n in range(8):
        assert ko_ranks(cyclic(6), n) == ko_ranks(cyclic(6), n + 8)
    # Each real generator is labelled by the complex irreducibles it holds,
    # and every complex irreducible labels exactly one generator.
    for g in catalogue_sample():
        members = sorted(i for _, group in real_structure(g) for i in group)
        assert members == list(range(k0_rank(g))), g


def test_restriction_ko_trivial_in_z2_degree1():
    # both the trivial and the sign character restrict to the trivial one
    free, tor = restriction_ko(trivial_in(cyclic(2)), 1)
    assert (free.rows, free.cols) == (0, 0)
    assert tor.to_rows() == [[1, 1]]


def test_restriction_ko_trivial_in_z3_degree2():
    free, tor = restriction_ko(cyclic_in_cyclic(1, 3), 2)
    assert (free.rows, free.cols) == (0, 1)
    assert tor.to_rows() == [[1]]


def test_restriction_ko_degree3_empty():
    for incl in (cyclic_in_cyclic(3, 2), reflection_in_dihedral(3), trivial_in(elem2(2))):
        free, tor = restriction_ko(incl, 3)
        assert free.rows == free.cols == 0
        assert tor.rows == tor.cols == 0


def test_restriction_ko_rejects_even_cyclic_subgroups():
    for n in (1, 2):
        with pytest.raises(UnsupportedRestrictionError):
            restriction_ko(cyclic_in_cyclic(2, 2), n)
    # fine outside the torsion degrees: triv and sign of Z4 restrict
    # trivially, the conjugate pair gives twice the sign of Z2
    free, _ = restriction_ko(cyclic_in_cyclic(2, 2), 0)
    assert free.to_rows() == [[1, 1, 0], [0, 0, 2]]


def test_restriction_ko_degree_0_equals_real_restriction(monkeypatch):
    # The slice keeps every generator, so it hands back the real restriction
    # itself, with nothing renumbered.
    made = []
    monkeypatch.setattr(reprings, "real_restriction",
                        lambda incl: made.append(real_restriction(incl)) or made[-1])
    for incl in (cyclic_in_cyclic(3, 2), reflection_in_dihedral(5),
                 trivial_in(cyclic(7)), elem2_subset(1, 3, (2,))):
        free0, _ = restriction_ko(incl, 0)
        assert free0 is made[-1]
        free4, _ = restriction_ko(incl, 4)
        assert free0 == real_restriction(incl)
        assert free4 == free0


def test_restriction_ko_degree6_is_c_block():
    # Z3 <= Z9: one conjugate pair downstairs, four upstairs; pair_j of Z9
    # lands on the pair of Z3 exactly when j is not divisible by 3.
    free, tor = restriction_ko(cyclic_in_cyclic(3, 3), 6)
    assert (tor.rows, tor.cols) == (0, 0)
    assert free.to_rows() == [[1, 1, 0, 1]]


def inclusion_descriptors():
    """Every descriptor kind, cyclic subgroups of odd and of even order included."""
    odd = st.integers(1, 6).map(lambda k: 2 * k + 1)
    groups = st.one_of(st.integers(1, 12).map(cyclic), st.integers(0, 4).map(elem2),
                       odd.map(dihedral_odd))
    coordinates = st.integers(0, 4).flatmap(lambda big: st.tuples(
        st.just(big), st.permutations(range(big)), st.integers(0, big)))
    return st.one_of(
        st.builds(cyclic_in_cyclic, st.integers(1, 12), st.integers(1, 8)),
        groups.map(trivial_in),
        coordinates.map(lambda c: elem2_subset(c[2], c[0], tuple(c[1][:c[2]]))),
        odd.map(reflection_in_dihedral),
    )


@given(inclusion_descriptors(), st.integers(0, 15))
@example(cyclic_in_cyclic(2, 3), 1)
@example(cyclic_in_cyclic(4, 1), 10)
@example(cyclic_in_cyclic(3, 5), 2)
def test_restriction_ko_blocks_are_the_listed_cuts_of_the_real_restriction(incl, n):
    # Each block is the real restriction on the rows of the subgroup's and
    # the columns of the big group's generators whose KO^{-n} point value is
    # Z (free) or Z/2 (torsion, mod 2), as the listing oracle finds them;
    # the only refusal in scope is an even-order cyclic subgroup in the
    # degrees with Z/2 coefficients.
    try:
        free, tor = restriction_ko(incl, n)
    except UnsupportedRestrictionError as err:
        assert n % 8 in (1, 2) and incl.kind == "cyclic_in_cyclic" and incl.extra[0] % 2 == 0
        assert str(err).startswith(f"KO^-{n % 8} restriction for an even-order cyclic subgroup")
        return
    m = real_restriction(incl)
    (f_sub, t_sub), (f_big, t_big) = (listed_cut([g], "ko", n) for g in (incl.sub, incl.big))
    assert free == m.block(f_sub, f_big)
    assert tor == m.block(t_sub, t_big).mod2()


@given(inclusion_descriptors())
@example(trivial_in(cyclic(3)))
@example(cyclic_in_cyclic(3, 5))
def test_complex_type_restricts_onto_real_type_evenly(incl):
    # A C-type generator V of the big group restricts onto an R-type W of
    # the subgroup with even multiplicity: V ⊗ C = chi + conj(chi), and W's
    # self-conjugate character occurs equally often in both halves.  So
    # restriction_ko's KO^-2 refusal, which tests this multiplicity mod 2,
    # never fires.
    m = real_restriction(incl)
    sub_r = [w for w, (kind, _) in enumerate(real_structure(incl.sub)) if kind == "R"]
    big_c = [v for v, (kind, _) in enumerate(real_structure(incl.big)) if kind == "C"]
    assert all(m.entry(w, v) % 2 == 0 for w in sub_r for v in big_c), incl


@given(inclusion_descriptors())
@example(trivial_in(cyclic(3)))
@example(cyclic_in_cyclic(3, 5))
@example(cyclic_in_cyclic(4, 3))
def test_real_type_never_restricts_onto_complex_type(incl):
    # d_CR = 0: no R-type generator of the big group restricts onto a C-type
    # one of the subgroup.  An R-type irreducible of a cyclic group is a
    # character of order at most 2, and so is its restriction; every other
    # subgroup in the catalogue has only R-type irreducibles.  (It fails in
    # general: D_3 >= Z3 takes the 2-dimensional rho onto Z3's C-type pair.)
    # So the R and C parts of an integral real complex compose to zero over
    # Z, which bredon.bredon_rows relies on.
    m = real_restriction(incl)
    sub_c = [w for w, (kind, _) in enumerate(real_structure(incl.sub)) if kind == "C"]
    big_r = [v for v, (kind, _) in enumerate(real_structure(incl.big)) if kind == "R"]
    assert all(m.entry(w, v) == 0 for w in sub_c for v in big_r), incl


def small_descriptors():
    """Every descriptor of the catalogue over small parameters."""
    yield from (cyclic_in_cyclic(r, m) for r in range(1, 25) for m in range(1, 25))
    groups = [trivial(), *map(cyclic, range(2, 16)), *map(elem2, range(2, 5)),
              *map(dihedral_odd, range(3, 16, 2))]
    yield from map(trivial_in, groups)
    yield from map(reflection_in_dihedral, range(3, 24, 2))
    for big in range(5):
        for sub in range(big + 1):
            for injection in itertools.permutations(range(big), sub):
                yield elem2_subset(sub, big, injection)


def check_unit_columns(incl, theory):
    """``has_unit_pivots`` read off the kind against the oracle's unit
    columns read off the degree-0 block; for KO, each of those columns has
    its row's type, which makes a part of a peeled edge peel every row it
    keeps."""
    block = restriction_k0(incl) if theory == "k" else restriction_ko(incl, 0)[0]
    units = unit_columns_of_block(block)
    assert has_unit_pivots(incl, theory) == (units is not None), (incl, theory)
    if theory == "ko" and units is not None:
        sub, big = real_structure(incl.sub), real_structure(incl.big)
        assert [kind for kind, _ in sub] == [big[c][0] for c in units], incl
    return units


@pytest.mark.parametrize("theory", ["k", "ko"])
def test_unit_columns_are_read_off_the_kind(theory):
    # Exhaustive over small parameters.  The only block with no unit
    # columns is KO's Z/r <= Z/(m·r) with r and m even: chi_{r/2} then
    # restricts onto every generator it meets twice.
    nones = [incl for incl in small_descriptors() if check_unit_columns(incl, theory) is None]
    assert nones == ([] if theory == "k" else
                     [cyclic_in_cyclic(r, m) for r in range(2, 25, 2) for m in range(2, 25, 2)])


@given(st.one_of(inclusion_descriptors(),
                 st.builds(cyclic_in_cyclic, st.integers(1, 80), st.integers(1, 120))),
       st.sampled_from(["k", "ko"]))
@example(cyclic_in_cyclic(39, 59), "ko")
@example(cyclic_in_cyclic(38, 4), "ko")
@example(cyclic_in_cyclic(38, 5), "ko")
def test_unit_columns_match_the_block_oracle(incl, theory):
    check_unit_columns(incl, theory)
