import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from properk.abelian import (
    AbGroup,
    ChainComplexError,
    IntMatrix,
    Mod2Matrix,
    SplitCochainComplex,
    cohomology,
    factor_integral,
    invariant_factors,
    smith_normal_form,
    tensor_mod2,
    uct_verify,
)
from properk.bredon import bredon_cochain
from properk.orbit import AmalgamSpec, build_amalgam_orbit_complex
from conftest import det, fold_corpus, random_int_matrix


def check_snf_contract(m: IntMatrix):
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entry(i, j) == 0
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero, "zero diagonal entries must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return u, d, v


def test_snf_identity():
    m = IntMatrix.identity(2)
    u, d, v = smith_normal_form(m)
    assert d == m
    assert u == IntMatrix.identity(2)
    assert v == IntMatrix.identity(2)


def test_snf_zero_matrix():
    m = IntMatrix.zero(3, 2)
    _, d, _ = smith_normal_form(m)
    assert d == IntMatrix.zero(3, 2)


def test_snf_2x2_divisor_chain():
    # gcd of the entries is 2 and |det| = |16 - 24| = 8, which forces the
    # invariant factors (2, 4) without running any reduction.
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    _, d, _ = check_snf_contract(m)
    assert [d.entry(0, 0), d.entry(1, 1)] == [2, 4]


def test_snf_random_factorizations():
    rng = random.Random(1)
    for _ in range(300):
        m = random_int_matrix(rng)
        check_snf_contract(m)


def test_snf_is_deterministic():
    rng = random.Random(2)
    for _ in range(25):
        m = random_int_matrix(rng)
        assert smith_normal_form(m) == smith_normal_form(m)


def test_invariant_factors_match_snf():
    rng = random.Random(3)
    for _ in range(200):
        m = random_int_matrix(rng)
        _, d, _ = smith_normal_form(m)
        diag = tuple(d.entry(i, i) for i in range(min(d.rows, d.cols)) if d.entry(i, i))
        assert invariant_factors(m) == diag


def test_mod2_rank_and_product():
    a = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).mod2()
    assert a.rank2() == 2  # rows sum to zero over GF(2)
    b = IntMatrix.from_rows([[1], [1], [0]]).mod2()
    assert (a * b).to_rows() == [[0], [1], [1]]


# ---------------------------------------------------------------------------
# AbGroup normal form


def test_abgroup_normalization_merges_coprime_parts():
    assert AbGroup.from_divisors(1, [2, 3]) == AbGroup(1, (6,))
    assert AbGroup.from_divisors(0, [2, 4]) == AbGroup(0, (2, 4))
    assert AbGroup.from_divisors(0, [4, 6]) == AbGroup(0, (2, 12))
    assert AbGroup.from_divisors(2, [1, 1]) == AbGroup.free(2)


def test_abgroup_equality_is_isomorphism():
    assert AbGroup.from_divisors(0, [6]) == AbGroup.from_divisors(0, [2, 3])
    assert AbGroup.from_divisors(0, [8]) != AbGroup.from_divisors(0, [2, 4])


def primary_normal_form(rank, divisors):
    """Invariant factors from the primary decomposition, factored by sympy."""
    factorint = pytest.importorskip("sympy").factorint
    primary = {}
    for d in divisors:
        for p, e in factorint(d).items():
            primary.setdefault(p, []).append(e)
    t = max(map(len, primary.values()), default=0)
    chain = [1] * t
    for p, exponents in primary.items():
        for i, e in enumerate(sorted(exponents, reverse=True)):
            chain[t - 1 - i] *= p ** e
    return AbGroup(rank, tuple(chain))


@given(st.integers(0, 3), st.lists(st.one_of(
    st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 36, 60)),
    st.integers(1, 10 ** 4),
    st.integers(1, 10 ** 12)), max_size=12))
def test_from_divisors_matches_primary_decomposition(rank, divisors):
    assert AbGroup.from_divisors(rank, divisors) == primary_normal_form(rank, divisors)


def test_abgroup_rejects_non_chain():
    with pytest.raises(ValueError):
        AbGroup(0, (3, 4))
    with pytest.raises(ValueError):
        AbGroup(0, (1,))


def test_abgroup_rendering_and_json():
    g = AbGroup.from_divisors(2, [2, 4])
    assert str(g) == "Z^2 (+) Z/2 (+) Z/4"
    assert str(AbGroup.zero()) == "0"
    assert str(AbGroup.free(1)) == "Z"
    assert g.to_json() == {"rank": 2, "torsion": [2, 4]}


# ---------------------------------------------------------------------------
# Split cochain complexes


def integral_complex(ranks, rows_list):
    diffs = [IntMatrix.from_rows(rows, cols=ranks[p]) for p, rows in enumerate(rows_list)]
    return SplitCochainComplex.integral(tuple(ranks), tuple(diffs))


def test_cohomology_difference_map():
    # 0 -> Z^2 -> Z -> 0 with (a, b) |-> a - b: kernel is the diagonal,
    # and the map is onto.
    c = integral_complex([2, 1], [[[1, -1]]])
    assert cohomology(c)[0] == AbGroup.free(1)
    assert cohomology(c)[1] == AbGroup.zero()


def test_cohomology_zero_complex_returns_cochain_groups():
    c = integral_complex([3, 2], [[[0, 0, 0], [0, 0, 0]]])
    assert cohomology(c)[0] == AbGroup.free(3)
    assert cohomology(c)[1] == AbGroup.free(2)
    mixed = SplitCochainComplex(
        free_ranks=(1, 0), tor2_ranks=(2, 0),
        free_d=(IntMatrix.zero(0, 1),),
        tor_d=(Mod2Matrix.zero(0, 2),))
    assert cohomology(mixed)[0] == AbGroup(1, (2, 2))


def test_cohomology_multiplication_by_two():
    c = integral_complex([1, 1], [[[2]]])
    assert cohomology(c)[0] == AbGroup.zero()
    assert cohomology(c)[1] == AbGroup(0, (2,))


def test_complex_rejects_nonzero_composition():
    with pytest.raises(ChainComplexError):
        integral_complex([1, 1, 1], [[[1]], [[1]]])


def test_complex_rejects_shape_mismatch():
    with pytest.raises(ChainComplexError):
        integral_complex([2, 1], [[[1, -1], [0, 1]]])


def test_tensor_mod2_examples():
    c = integral_complex([2, 1], [[[1, -1]]])
    r = tensor_mod2(c)
    assert r.free_ranks == (0, 0)
    assert r.tor2_ranks == (2, 1)
    assert r.tor_d[0].to_rows() == [[1, 1]]

    doubling = integral_complex([1, 1], [[[2]]])
    r = tensor_mod2(doubling)
    assert r.tor_d[0].to_rows() == [[0]]
    assert cohomology(r)[0] == AbGroup(0, (2,))
    assert cohomology(r)[1] == AbGroup(0, (2,))


def test_tensor_mod2_rejects_torsion_input():
    c = SplitCochainComplex(
        free_ranks=(0, 0), tor2_ranks=(1, 1),
        free_d=(IntMatrix.zero(0, 0),),
        tor_d=(Mod2Matrix.zero(1, 1),))
    with pytest.raises(ChainComplexError):
        tensor_mod2(c)


def test_uct_verify_examples():
    assert uct_verify(integral_complex([2, 1], [[[1, -1]]]))  # torsion-free cohomology
    assert uct_verify(integral_complex([1, 1], [[[2]]]))  # one nonzero Tor term
    assert uct_verify(integral_complex([3, 2], [[[0] * 3] * 2]))  # zero complex


def test_uct_verify_random_complexes():
    # Random two-step complexes d1 * d0 = 0 built from a matrix and padding.
    rng = random.Random(5)
    for _ in range(30):
        n0, n1 = rng.randint(1, 4), rng.randint(1, 4)
        d0 = random_int_matrix(rng, max_dim=4, bound=3)
        d0 = IntMatrix.from_rows(
            [[d0.entry(i % max(d0.rows, 1), j % max(d0.cols, 1)) if d0.rows and d0.cols else 0
              for j in range(n0)] for i in range(n1)], cols=n0)
        # d1 rows live in the left kernel of d0, so that d1 * d0 = 0: the
        # last columns of V in the Smith form U·d0ᵀ·V = D span the kernel of d0ᵀ.
        _, d, v = smith_normal_form(d0.transpose())
        r = sum(1 for i in range(min(d.rows, d.cols)) if d.entry(i, i))
        rows = [[v.entry(i, j) for i in range(n1)] for j in range(r, n1)][:2]
        if not rows:
            rows = [[0] * n1]
        d1 = IntMatrix.from_rows(rows, cols=n1)
        c = SplitCochainComplex.integral((n0, n1, d1.rows), (d0, d1))
        assert uct_verify(c)


# ---------------------------------------------------------------------------
# Top-down factoring against the per-differential route


def per_differential_cohomology(c: SplitCochainComplex) -> tuple[AbGroup, ...]:
    """Every degree read off ``invariant_factors`` and ``rank2`` of the whole
    differentials, nothing skipped."""
    factors = [()] + [invariant_factors(d) for d in c.free_d] + [()]
    ranks2 = [0] + [t.rank2() for t in c.tor_d] + [0]
    return tuple(AbGroup.from_divisors(
        c.free_ranks[p] - len(factors[p + 1]) - len(factors[p]),
        [d for d in factors[p] if d > 1] + [2] * (c.tor2_ranks[p] - ranks2[p + 1] - ranks2[p]))
        for p in range(c.length + 1))


@st.composite
def block_complexes(draw, length):
    """An integral complex of the given length with d∘d = 0, and its
    cohomology.  It is a direct sum of pieces Z --d--> Z between adjacent
    degrees, d in 1..6, and of lone Z's; each degree's basis is then changed
    by a random product of elementary matrices g_p, so d_p becomes
    g_{p+1}·d_p·g_p⁻¹, dense, with units, non-unit pivots and torsion."""
    pieces = [draw(st.lists(st.integers(1, 6), max_size=3)) for _ in range(length)]
    lone = [draw(st.integers(0, 2)) for _ in range(length + 1)]
    # Degree p holds the targets of d_{p-1}, then the sources of d_p, then lone Z's.
    incoming, outgoing = [[]] + pieces, pieces + [[]]
    ranks = [len(incoming[p]) + len(outgoing[p]) + lone[p] for p in range(length + 1)]
    blocks = [IntMatrix.from_sparse(ranks[p + 1], ranks[p],
                                    [{len(incoming[p]) + i: d} for i, d in enumerate(pieces[p])]
                                    + [{}] * (ranks[p + 1] - len(pieces[p])))
              for p in range(length)]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    change, inverse = [], []
    for n in ranks:
        g = ginv = IntMatrix.identity(n)
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            e, einv = [{k: 1} for k in range(n)], [{k: 1} for k in range(n)]
            e[i], einv[i] = {i: 1, j: c}, {i: 1, j: -c}
            g = g * IntMatrix.from_sparse(n, n, e)
            ginv = IntMatrix.from_sparse(n, n, einv) * ginv
        change.append(g)
        inverse.append(ginv)
    diffs = tuple(change[p + 1] * blocks[p] * inverse[p] for p in range(length))
    groups = tuple(AbGroup.from_divisors(lone[p], incoming[p]) for p in range(length + 1))
    return SplitCochainComplex.integral(ranks, diffs), groups


@st.composite
def split_complexes(draw):
    """A free part and, beside it, the mod-2 reduction of another draw of
    the same length, with the cohomology each must have."""
    length = draw(st.integers(2, 5))
    free, free_h = draw(block_complexes(length))
    tor = tensor_mod2(draw(block_complexes(length))[0])
    return (SplitCochainComplex(free.free_ranks, tor.tor2_ranks, free.free_d, tor.tor_d),
            free_h, per_differential_cohomology(tor))


@given(split_complexes())
def test_cohomology_matches_the_per_differential_route(case):
    c, free_h, tor_h = case
    expected = tuple(f.direct_sum(t) for f, t in zip(free_h, tor_h))
    assert per_differential_cohomology(c) == expected
    assert cohomology(c) == expected


# Z^2 -> Z^3 -> Z, with d_0 = diag(2, 3) and d_1 = (0 0 4): H = (0, Z/6, Z/4),
# invariant factors above 1 both even and odd.
MIXED_PARITY = (integral_complex([2, 3, 1], [[[2, 0], [0, 3], [0, 0]], [[0, 0, 4]]]),
                (AbGroup.zero(), AbGroup(0, (6,)), AbGroup(0, (4,))))


@given(st.integers(1, 5).flatmap(block_complexes))
@example(MIXED_PARITY)
def test_mod2_groups_read_off_the_invariant_factors(case):
    # d_p mod 2 has GF(2) rank the number of odd invariant factors of d_p,
    # so one factorization of c gives H(c ⊗ Z/2) with nothing reduced or
    # ranked; cohomology(tensor_mod2(c)) reduces and runs rank2 instead.
    c, groups = case
    factored = factor_integral(c)
    assert factored.groups() == groups == cohomology(c)
    mod2 = factored.mod2()
    assert mod2 == cohomology(tensor_mod2(c))
    # The universal coefficient theorem, from the known integral groups.
    assert mod2 == tuple(AbGroup.elementary_2(h.tensor_z2_dim() + above.tor_z2_dim())
                         for h, above in zip(groups, groups[1:] + (AbGroup.zero(),)))


def test_integral_factorization_needs_a_pure_integral_complex():
    mixed = SplitCochainComplex((1, 0), (1, 0), (IntMatrix.zero(0, 1),), (Mod2Matrix.zero(0, 1),))
    with pytest.raises(ChainComplexError):
        factor_integral(mixed)


def test_cohomology_matches_the_per_differential_route_on_models(ra_corpus):
    amalgams = [build_amalgam_orbit_complex(AmalgamSpec(r=r, m=m[:len(r) + 1]))
                for r, m in itertools.product(((1,), (3,), (5,), (3, 1), (1, 5, 3)),
                                              ((2, 3, 4, 2), (3, 2, 2, 4), (4, 4, 3, 3)))]
    for x in fold_corpus(ra_corpus) + amalgams:
        for theory, n in (("k", 0), ("ko", 0), ("ko", 1), ("ko", 6)):
            c = bredon_cochain(x, theory, n)
            assert cohomology(c) == per_differential_cohomology(c), (x.counts(), theory, n)
