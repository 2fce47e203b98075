import bisect
import hashlib
import itertools
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from properk import abelian, bredon, reprings
from properk.abelian import (
    AbGroup,
    ChainComplexError,
    Factorization,
    IntMatrix,
    Mod2Matrix,
    SplitCochainComplex,
    cohomology,
    tensor_mod2,
    uct_verify,
)
from properk.ahss import build_e2
from properk.bredon import (
    assemble_cochain,
    bredon_cochain,
    bredon_cohomology,
)
from properk.cli import main
from properk.coxeter import (
    CoxeterMatrix,
    build_bestvina_orbit_complex,
    build_davis_orbit_complex,
)
from properk.groups import UnsupportedRestrictionError, cyclic_in_cyclic
from properk.orbit import AmalgamSpec, OrbitComplex, build_amalgam_orbit_complex
from properk.reprings import restriction_ko
from conftest import (
    BOUNDARY_MODELS,
    TREE_DUMPS,
    cyclic_tree_dump,
    fold_corpus,
    listed_cut,
    listed_cuts,
    reorient,
    unit_columns_of_block,
    z3_square,
)


def test_sl2z_k0_cochain_literal():
    # R(Z6) + R(Z4) -> R(Z2), blocks phi_{3,2} and -phi_{2,2}
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2,), m=(3, 2)))
    c = bredon_cochain(x, "k", 0)
    assert c.free_ranks == (10, 2)
    assert c.free_d[0].to_rows() == [
        [1, 0, 1, 0, 1, 0, -1, 0, -1, 0],
        [0, 1, 0, 1, 0, 1, 0, -1, 0, -1],
    ]


def test_path_family_k0_cochain_blocks():
    # (Z^3)^n -> (Z^2)^{n-1} sending (x_1..x_n) to (f(x_2)-f(x_1), ...)
    # with f(a, b, c) = (a+c, b+c).
    n = 3
    x = build_bestvina_orbit_complex(CoxeterMatrix.path_family(n))
    c = bredon_cochain(x, "k", 0)
    assert c.free_ranks == (3 * n, 2 * (n - 1))
    f = [[1, 0, 1], [0, 1, 1]]
    zero = [[0, 0, 0], [0, 0, 0]]

    def hcat(*blocks):
        return [sum((b[r] for b in blocks), []) for r in range(2)]

    expected = hcat([[-v for v in row] for row in f], f, zero) + hcat(zero, [[-v for v in row] for row in f], f)
    assert c.free_d[0].to_rows() == expected


def test_k1_is_the_zero_functor():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2,), m=(3, 2)))
    c = bredon_cochain(x, "k", 1)
    assert c.free_ranks == (0, 0)
    assert c.tor2_ranks == (0, 0)
    assert bredon_cohomology(x, "k", 1) == (AbGroup.zero(), AbGroup.zero())


def test_sl2z_bredon_cohomology():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2,), m=(3, 2)))
    assert bredon_cohomology(x, "k", 0) == (AbGroup.free(8), AbGroup.zero())


def test_polygon_bredon_cohomology():
    n = 5
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(n))
    h = bredon_cohomology(x, "k", 0)
    assert h == (AbGroup.free(n + 3), AbGroup.free(1), AbGroup.zero())


def test_pentagon_bredon_cohomology():
    rows = [[0] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][i] = 1
        rows[i][(i + 1) % 5] = rows[(i + 1) % 5][i] = 2
    x = build_bestvina_orbit_complex(CoxeterMatrix.from_rows(rows))
    h = bredon_cohomology(x, "k", 0)
    assert h == (AbGroup.free(11), AbGroup.zero(), AbGroup.zero())


def test_right_angled_ko_rows_are_mod2_reductions(ra_corpus):
    # In KO degrees 1 and 2 the cochain complex is the mod-2 reduction of
    # the K^0 one; cohomology must match the tensor route degreewise.
    for matrix in ra_corpus[:8]:
        x = build_bestvina_orbit_complex(matrix)
        k0 = bredon_cochain(x, "k", 0)
        reduced = tensor_mod2(k0)
        for n in (1, 2):
            ko = bredon_cohomology(x, "ko", n)
            via_tensor = cohomology(reduced)
            assert ko == via_tensor, matrix.entries


def test_uct_holds_on_produced_complexes(ra_corpus):
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(3,), m=(2, 2)))
    assert uct_verify(bredon_cochain(x, "k", 0))
    for matrix in ra_corpus[:8]:
        for builder in (build_bestvina_orbit_complex, build_davis_orbit_complex):
            c = bredon_cochain(builder(matrix), "k", 0)
            assert uct_verify(c)


def test_odd_edge_amalgams_have_no_degree_one_cohomology():
    rng = random.Random(11)
    for _ in range(12):
        k = rng.randint(1, 3)
        spec = AmalgamSpec(
            r=tuple(rng.choice((1, 3, 5)) for _ in range(k)),
            m=tuple(rng.choice((2, 3, 4)) for _ in range(k + 1)))
        x = build_amalgam_orbit_complex(spec)
        for n in range(8):
            h = bredon_cohomology(x, "ko", n)
            assert h[1].is_zero, (spec, n)
        h = bredon_cohomology(x, "k", 0)
        assert h[1].is_zero, spec


def test_even_edge_amalgam_k_theory_still_fine():
    # K^0 needs no parity hypothesis
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2, 4), m=(3, 2, 2)))
    h = bredon_cohomology(x, "k", 0)
    sigma = (3 * 2) + (2 * 2 * 4) + (2 * 4) - (2 + 4)
    assert h == (AbGroup.free(sigma), AbGroup.zero())


def test_cohomology_invariant_under_reorientation(ra_corpus):
    rng = random.Random(12)
    cases = [build_amalgam_orbit_complex(AmalgamSpec(r=(3,), m=(3, 2))),
             build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(3)),
             build_bestvina_orbit_complex(ra_corpus[0])]
    for x in cases:
        base_k = bredon_cohomology(x, "k", 0)
        base_ko = bredon_cohomology(x, "ko", 1)
        for _ in range(4):
            flipped = reorient(x, rng)
            assert bredon_cohomology(flipped, "k", 0) == base_k
            assert bredon_cohomology(flipped, "ko", 1) == base_ko


def test_ko_cochain_cross_blocks_vanish_in_scope():
    # Assembling KO^-2 and KO^-6 runs the cross-term rejection on every
    # descriptor; the cross blocks that --emit cochain prints are zero
    # blocks from the torsion of degree p+1 to the free part of degree p.
    for x in (build_amalgam_orbit_complex(AmalgamSpec(r=(3,), m=(3, 4))),
              build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(4))):
        for n in range(8):
            c = bredon_cochain(x, "ko", n)
            assert len(c.cross_d) == c.length
            for p, xb in enumerate(c.cross_d):
                assert xb.is_zero()
                assert (xb.rows, xb.cols) == (c.tor2_ranks[p + 1], c.free_ranks[p])


def test_e2_rows_match_unfolded_cochains(ra_corpus):
    # The page assembles only the distinct complexes and derives the other
    # rows; assembling every row's own complex must give the same groups.
    for x in fold_corpus(ra_corpus):
        for theory, period in (("k", 2), ("ko", 8)):
            page = build_e2(x, theory)
            assert len(page.rows) == period
            for n in range(period):
                unfolded = cohomology(bredon_cochain(x, theory, n))
                assert page.rows[n] == unfolded, (x.counts(), theory, n)


def test_cohomology_factors_each_differential_once(monkeypatch):
    x = build_davis_orbit_complex(CoxeterMatrix.from_rows(
        [[1, 2, 2, 0], [2, 1, 2, 0], [2, 2, 1, 2], [0, 0, 2, 1]]))
    factored, ranked = [], []
    eliminated = []  # rows of each differential that reach elimination
    invariant_factors, rank2 = abelian.invariant_factors, Mod2Matrix.rank2

    def counting(fn, calls):
        def count(m, *args):
            calls.append(m)
            if args:
                eliminated.append(sum(1 for i in range(m.rows) if i not in args[0]))
            return fn(m, *args)
        return count

    for theory, n in (("k", 0), ("ko", 1), ("ko", 2)):
        c = bredon_cochain(x, theory, n)
        assert c.length == x.dim == 3
        factored.clear()
        ranked.clear()
        eliminated.clear()
        with monkeypatch.context() as patch:
            patch.setattr(abelian, "invariant_factors", counting(invariant_factors, factored))
            patch.setattr(Mod2Matrix, "rank2", counting(rank2, ranked))
            groups = cohomology(c)
        assert len(groups) == c.length + 1
        # Exactly the L differentials, each once: never a zero end map.
        # The free blocks run top-down, d_{L-1} to d_0, and the unit pivots
        # of each keep some rows of the next one out of elimination; the
        # torsion blocks are ranked whole.
        assert len(factored) == len(ranked) == c.length
        assert all(a is b for a, b in zip(factored, reversed(c.free_d)))
        assert all(a is b for a, b in zip(ranked, c.tor_d))
        assert sum(eliminated) < sum(d.rows for d in c.free_d) or not any(c.free_ranks)


def test_ko_cross_rejection_is_left_to_the_restriction_ko_oracle(monkeypatch, tmp_path, capsys):
    # Make one C-type generator of Z15 restrict onto the trivial (R-type)
    # generator of Z3 with odd multiplicity: the KO^-2 cross block is then
    # nonzero, and the per-degree oracle refuses it.  The page reads the
    # real restriction alone and never calls that oracle, so the refusal
    # does not reach it or the CLI: on a cycle, which peels no edge (two Z3
    # edges between a Z15 and a Z21 vertex), the page restricts each
    # descriptor once through bredon.real_restriction.
    target = cyclic_in_cyclic(3, 5)
    real_restriction = reprings.real_restriction

    def odd_cross(incl):
        m = real_restriction(incl)
        if incl != target:
            return m
        rows = [dict(row) for row in m.data]
        first_c = reprings.real_type_counts(incl.big).n_r
        rows[0][first_c] = rows[0].get(first_c, 0) + 1
        return IntMatrix.from_sparse(m.rows, m.cols, rows)

    monkeypatch.setattr(reprings, "real_restriction", odd_cross)
    message = (f"KO^-2 restriction along {target} needs a nonzero free-to-torsion "
               "cross term, which is outside the supported theory")
    with pytest.raises(UnsupportedRestrictionError) as err:
        reprings.restriction_ko(target, 2)
    assert str(err.value) == message
    dump = cyclic_tree_dump([15, 21], [(3, {0: 1, 1: -1}), (3, {0: 1, 1: -1})])
    x = OrbitComplex.from_json(dump)
    restricted = counting(monkeypatch, bredon, "real_restriction")
    build_e2(x, "ko")
    assert sorted(str(incl) for (incl,) in restricted) == sorted(map(str, x.descriptors))
    assert build_e2(x, "k").rows[0][0].rank > 0  # K never looks at real structure
    # Any call of restriction_ko along the target would read the faked real
    # restriction and refuse, so no report route makes one.
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(dump))
    for emit in ("result", "e2page", "cochain"):
        assert main(["amalgam", "--theory", "ko", "--from-complex", str(path), "--emit", emit]) == 0
    capsys.readouterr()
    # The amalgam Z15 *_Z3 Z21 is a tree, which peels every face: its page
    # reads no block, so nothing is restricted.
    restricted.clear()
    build_e2(build_amalgam_orbit_complex(AmalgamSpec(r=(3,), m=(5, 7))), "ko")
    assert restricted == []


def test_zero_degrees_keep_no_generator():
    # K^{-1}, KO^{-3}, KO^{-5} and KO^{-7} of every orbit vanish: no type of
    # generator keeps a value there, so every rank is zero, and so is the
    # cohomology.
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(3))
    for theory, n in (("k", 1), ("ko", 3), ("ko", 5), ("ko", 7)):
        c = bredon_cochain(x, theory, n)
        assert not any(c.free_ranks + c.tor2_ranks), (theory, n)
        assert bredon_cohomology(x, theory, n) == (AbGroup.zero(),) * (x.dim + 1)


def test_an_unknown_theory_is_refused():
    # reprings.kept_types refuses it, before any block is assembled.
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(3,), m=(2, 5)))
    with pytest.raises(ValueError, match="theory"):
        bredon_cochain(x, "x", 0)
    with pytest.raises(ValueError, match="theory"):
        build_e2(x, "x")


def per_descriptor_cochain(x, n):
    """KO^{-n} cochain data written block by block from ``restriction_ko(incl, n)``.

    This is how every KO complex used to be assembled, kept as the
    reference for the parts: ranks from the listing oracle, each free block
    added alpha times, each torsion block XORed in where alpha is odd.
    """
    free_ranks, tor_ranks, offsets = [], [], []
    for cells in x.cells:
        offs, f_total, t_total = [], 0, 0
        for s in cells:
            offs.append((f_total, t_total))
            f, t = map(len, listed_cut([x.stabilizers[s]], "ko", n))
            f_total, t_total = f_total + f, t_total + t
        free_ranks.append(f_total)
        tor_ranks.append(t_total)
        offsets.append(offs)
    blocks = {}
    free_d, tor_d = [], []
    for p in range(x.dim):
        f_rows = [{} for _ in range(free_ranks[p + 1])]
        t_bits = [0] * tor_ranks[p + 1]
        for j, k, alpha, incl in x.sorted_faces(p):
            if incl not in blocks:
                blocks[incl] = restriction_ko(incl, n)
            r_free, r_tor = blocks[incl]
            (f_src, t_src), (f_tgt, t_tgt) = offsets[p][j], offsets[p + 1][k]
            for a, r_row in enumerate(r_free.data):
                row = f_rows[f_tgt + a]
                for b, v in r_row.items():
                    row[f_src + b] = row.get(f_src + b, 0) + alpha * v
            if alpha % 2:
                for a, bits in enumerate(r_tor.bits):
                    t_bits[t_tgt + a] ^= bits << t_src
        free_d.append(IntMatrix.from_sparse(free_ranks[p + 1], free_ranks[p], f_rows))
        tor_d.append(Mod2Matrix(tor_ranks[p + 1], tor_ranks[p], tuple(t_bits)))
    return tuple(free_ranks), tuple(tor_ranks), tuple(free_d), tuple(tor_d)


@pytest.fixture(scope="module")
def breakable_differentials(ra_corpus):
    """(complex, p) for the assembled K^0 and real complexes of
    ``fold_corpus`` where d_{p+1} is nonzero."""
    cochains = (assemble_cochain(x, theory)
                for x in fold_corpus(ra_corpus) for theory in ("k", "ko"))
    return [(c, p) for c in cochains for p in range(c.length - 1)
            if c.free_ranks[p] and not c.free_d[p + 1].is_zero()]


@given(data=st.data())
def test_cochain_that_does_not_compose_to_zero_is_refused(breakable_differentials, data):
    # Adding delta to entry (a, b) of d_p adds delta times column a of
    # d_{p+1} to column b of d_{p+1}·d_p; a is drawn where that column is
    # nonzero.
    c, p = data.draw(st.sampled_from(breakable_differentials))
    d = c.free_d
    a = data.draw(st.sampled_from(sorted({a for row in d[p + 1].data for a in row})))
    b = data.draw(st.integers(0, d[p].cols - 1))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    rows = [dict(row) for row in d[p].data]
    rows[a][b] = rows[a].get(b, 0) + delta
    broken = IntMatrix.from_sparse(d[p].rows, d[p].cols, rows)
    with pytest.raises(ChainComplexError) as err:
        SplitCochainComplex.integral(c.free_ranks, d[:p] + (broken,) + d[p + 1:])
    assert str(err.value) in {f"free differentials do not compose to zero at degree {q}"
                              for q in (p - 1, p)}


D_INF_3 = CoxeterMatrix.from_rows([[1 if a == b else 0 if a // 2 == b // 2 else 2
                                    for b in range(6)] for a in range(6)])


@pytest.fixture(scope="module")
def proof_models(ra_corpus):
    """``fold_corpus`` and ``BOUNDARY_MODELS``, and both models of D_inf^3,
    where a face moved onto another inclusion with the same ends makes the
    composite restrictions disagree."""
    return (fold_corpus(ra_corpus) + BOUNDARY_MODELS
            + [build(D_INF_3) for build in (build_davis_orbit_complex, build_bestvina_orbit_complex)])


def rerouted(x: OrbitComplex, p: int, k: int, j: int, d: int) -> OrbitComplex:
    """``x`` with face j of (p+1)-cell k along descriptor d instead."""
    layer = list(x.faces[p])
    layer[k] = {**layer[k], j: (layer[k][j][0], d)}
    return OrbitComplex(x.stabilizers, x.descriptors, x.cells, x.labels,
                        x.faces[:p] + (tuple(layer),) + x.faces[p + 1:])


@given(data=st.data())
def test_composites_that_agree_prove_the_cochain_squares_to_zero(proof_models, data):
    # Where the proof holds the assembled complex is not multiplied out, and
    # the product taken here is zero.  Moving a face onto another descriptor
    # with the same ends keeps the complex valid and ∂∘∂ = 0; where that
    # breaks the proof, the product check refuses exactly the complexes
    # whose product is nonzero.  The same holds for each part of the real
    # complex, whose blocks are the listed cuts of the degree-0 ones.
    x = reorient(data.draw(st.sampled_from(proof_models)),
                 random.Random(data.draw(st.integers(0, 2**16))))
    ends = [(desc.sub, desc.big) for desc in x.descriptors]
    moves = [(p, k, j, other) for p, layer in enumerate(x.faces) for k, faces in enumerate(layer)
             for j, (_, d) in faces.items()
             for other, end in enumerate(ends) if other != d and end == ends[d]]
    if moves and data.draw(st.booleans()):
        x = rerouted(x, *data.draw(st.sampled_from(moves)))
    theory = data.draw(st.sampled_from(["k", "ko"]))
    n, part = data.draw(st.sampled_from([(0, 0)] + [(1, 1), (6, 0)] * (theory == "ko")))
    types = reprings.kept_types(theory, n)[part]

    def block(incl):
        whole = restriction_ko(incl, 0)[0] if theory == "ko" else reprings.restriction_k0(incl)
        return whole.block(*(listed_cut([g], theory, n)[part] for g in (incl.sub, incl.big)))

    def assemble():
        return bredon.part_assembler(x, theory, peel=True)(types)

    blocks = [block(incl) for incl in x.descriptors]
    with mock.patch.object(bredon, "_composites_agree", return_value=True):
        d = assemble().free_d
    nonzero = [p for p in range(len(d) - 1) if not (d[p + 1] * d[p]).is_zero()]
    if bredon._composites_agree(x, blocks):
        assert nonzero == []
    elif nonzero:
        with pytest.raises(ChainComplexError,
                           match=f"^free differentials do not compose to zero at degree {nonzero[0]}$"):
            assemble()
    else:
        assert assemble().free_d == d


def test_dinf3_pages_multiply_no_matrices(monkeypatch):
    # ∂∘∂ = 0 is read off the 2-path walk and the cochain d∘d = 0 off the
    # composite restrictions it lists: neither the boundaries nor the
    # assembled differentials are multiplied.
    products = counting(monkeypatch, IntMatrix, "__mul__")
    for build in (build_davis_orbit_complex, build_bestvina_orbit_complex):
        x = build(D_INF_3)
        assert x.dim == 3 and x.coherence
        for theory in ("k", "ko"):
            build_e2(x, theory)
    assert products == []


def test_ko_cochains_cut_equal_per_descriptor_assembly(ra_corpus):
    # Every KO^{-n} complex is assembled from parts of the real complex; it
    # must equal, matrix for matrix, the complex assembled from each
    # descriptor's own KO^{-n} blocks, also after the cells are reoriented.
    rng = random.Random(13)
    for base in fold_corpus(ra_corpus):
        for x in (base, reorient(base, rng)):
            for n in range(8):
                c = bredon_cochain(x, "ko", n)
                free_ranks, tor_ranks, free_d, tor_d = per_descriptor_cochain(x, n)
                assert (c.free_ranks, c.tor2_ranks) == (free_ranks, tor_ranks), (x.counts(), n)
                assert c.free_d == free_d, (x.counts(), n)
                assert c.tor_d == tor_d, (x.counts(), n)


def counting(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_ko_page_assembles_one_cochain_complex(monkeypatch, ra_corpus):
    # Right-angled stabilizers have only real-type irreducibles, so KO^-1
    # and KO^-6 are read off the real complex: one assembly per page, and
    # one real restriction for each descriptor that a face of an unpeeled
    # row, or a coherence pair, reads.  A descriptor that only peeled faces
    # use is not restricted.
    assembled = counting(monkeypatch, bredon, "assemble_cochain")
    restricted = counting(monkeypatch, bredon, "real_restriction")
    peels = 0
    for x in fold_corpus(ra_corpus):
        peeled = {k for _, k in bredon._peel(x, "ko")}
        read = {d for p, layer in enumerate(x.faces) for k, faces in enumerate(layer)
                if p or k not in peeled for _, d in faces.values()}
        read.update(d for pair in x.coherence for d in pair)
        peels += len(read) < len(x.descriptors)
        assembled.clear()
        restricted.clear()
        build_e2(x, "ko")
        assert [args[:2] for args in assembled] == [(x, "ko")]
        assert sorted(restricted, key=lambda args: x.descriptors.index(args[0])) == [
            (x.descriptors[d],) for d in sorted(read)]
    assert peels  # some page leaves a descriptor unrestricted


def refuse_gf2_elimination(monkeypatch):
    """Make the split complex and the GF(2) rank fail if anything calls them."""
    def refuse(*_):
        raise AssertionError("the KO page built a split complex or ranked over GF(2)")

    monkeypatch.setattr(bredon, "bredon_cochain", refuse)
    monkeypatch.setattr(Mod2Matrix, "rank2", refuse)


def test_real_type_ko_page_reads_one_factorization(monkeypatch, ra_corpus):
    # Right-angled stabilizers are (Z/2)^k, whose real irreducibles are all
    # of real type: the R-to-R cut is the real complex itself and the C-to-C
    # cut is empty, so the page factors each differential of the real
    # complex once and builds and ranks no cut.
    matrix = next(m for m in ra_corpus if build_bestvina_orbit_complex(m).dim >= 2)
    complexes = [build_davis_orbit_complex(matrix), build_bestvina_orbit_complex(matrix)]
    expected = [tuple(bredon_cohomology(x, "ko", n) for n in range(8))
                for x in complexes]  # each row from its own split complex
    assembled = []
    assemble = bredon.assemble_cochain
    monkeypatch.setattr(bredon, "assemble_cochain",
                        lambda *args: assembled.append(assemble(*args)) or assembled[-1])
    factored = counting(monkeypatch, abelian, "invariant_factors")
    refuse_gf2_elimination(monkeypatch)
    for x, rows in zip(complexes, expected):
        assembled.clear()
        factored.clear()
        assert build_e2(x, "ko").rows == rows
        (full,) = assembled
        assert full.length == x.dim >= 2
        assert [args[0] for args in factored] == list(reversed(full.free_d))
        assert all(args[0] is d for args, d in zip(factored, reversed(full.free_d)))


def test_ko_page_cuts_when_a_stabilizer_has_complex_type(monkeypatch):
    # Z15, Z21 and Z3 have complex-type irreducibles: beside the real
    # complex C the page factors two integral parts of it, R (read mod 2
    # for KO^-1) and C (KO^-6), and still builds and ranks no split
    # complex.  The integral parts are the blocks that --emit cochain prints.
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(3,), m=(5, 7)))
    full = assemble_cochain(x, "ko")
    split = {n: bredon_cochain(x, "ko", n) for n in (1, 6)}
    expected = tuple(bredon_cohomology(x, "ko", n) for n in range(8))
    factored = counting(monkeypatch, bredon, "factor_integral")
    refuse_gf2_elimination(monkeypatch)
    page = build_e2(x, "ko")
    assert page.rows == expected
    assert not page.rows[6][0].is_zero
    (whole,), (r_to_r,), (c_to_c,) = factored
    assert whole == full
    # Z15 and Z21 have one R-type and 7 and 10 C-type generators, Z3 one of
    # each.  The edge is free, so each part peels its whole d_0: its edge
    # keeps no row, and its free vertex loses one column.
    assert (r_to_r.free_ranks, c_to_c.free_ranks) == ((1, 0), (16, 0))
    # Every row of the printed block is a unit at a column that no other
    # row meets.
    whole = bredon.part_assembler(x, "ko", peel=False)
    r_whole, c_whole = whole("R"), whole("C")
    assert (r_whole.free_d[0].mod2(), c_whole.free_d[0]) == (split[1].tor_d[0], split[6].free_d[0])
    for cut, written, types in ((r_to_r, r_whole, "R"), (c_to_c, c_whole, "C")):
        assert peeled_rows(x, "ko", types) == list(range(written.free_ranks[1]))
        check_reduction(x, "ko", cut, written, types)


def test_dimension_two_complex_type_rows(tmp_path, capsys):
    # KO^-1 is the R part mod 2 and KO^-6 the C part; both are integral
    # complexes of length 2 here, with the trivial 2-cell, whose one
    # generator is of R-type, taking no part in the C part.
    x = z3_square()
    z, z2, zero = AbGroup.free(1), AbGroup.elementary_2(1), AbGroup.zero()
    page = build_e2(x, "ko")
    assert page.rows[1] == (z2, zero, zero)
    assert page.rows[6] == (z, z, zero)
    path = tmp_path / "z3_square.json"
    path.write_text(json.dumps(x.to_json()))
    assert main(["coxeter", "--theory", "ko", "--emit", "e2page", "--from-complex", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == {f"-{n}" if n else "0": [g.to_json() for g in page.rows[n]] for n in range(8)}


def test_real_type_route_keeps_the_even_cyclic_refusal(tmp_path, monkeypatch, capsys):
    # Z2 <= Z2 is real-type only, so the page assembles the real complex
    # alone, and still refuses the even-order edge group in KO^-1.
    z2_in_z2 = {"kind": "cyclic_in_cyclic", "sub": {"cyclic": 2}, "big": {"cyclic": 2},
                "extra": [2, 1]}
    dump = [{"dim": 0,
             "cells": [{"label": "v0", "stabilizer": {"cyclic": 2}},
                       {"label": "v1", "stabilizer": {"cyclic": 2}}],
             "incidence": [[1], [-1]],
             "descriptors": [{"row": 0, "col": 0, "descriptor": z2_in_z2},
                             {"row": 1, "col": 0, "descriptor": z2_in_z2}]},
            {"dim": 1, "cells": [{"label": "e", "stabilizer": {"cyclic": 2}}]}]
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(dump))
    assembled = counting(monkeypatch, bredon, "_assemble")
    assert main(["coxeter", "--theory", "ko", "--from-complex", str(path)]) == 1
    assert [list(args[2].values()) for args in assembled] == [[range(2)]]  # all of Z2's
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "unsupported_restriction",
        "message": "KO^-1 restriction for an even-order cyclic subgroup Z2 is not determined "
                   "by the supported theory; odd edge orders only"}


def cell_offsets(x, sizes):
    """Per degree of ``x``, the first generator of each cell when each
    stabilizer has the number of generators ``sizes`` gives, and last the
    degree's rank."""
    return [list(itertools.accumulate((sizes[s] for s in cells), initial=0)) for cells in x.cells]


def peeled_rows(x, theory, types=None):
    """The rows of the whole complex's d_0 that the peel splits off, in peel
    order: each edge that ``bredon._peel`` peels, its rows from its offset
    in degree 1 of the part on ``types`` (all of the page's generators by
    default) to the next edge's."""
    sizes = bredon.part_sizes(x, theory, types or reprings.kept_types(theory, 0)[0])
    offsets = cell_offsets(x, sizes)
    return [i for _, k in bredon._peel(x, theory) for i in range(offsets[1][k], offsets[1][k + 1])]


def renumbered(row, whole, page, gone):
    """``row`` with each column moved from its cell's offset in ``whole`` to
    that cell's offset in ``page``; no column lies in a cell of ``gone``."""
    out = {}
    for c, v in row.items():
        cell = bisect.bisect_right(whole, c) - 1
        assert cell not in gone, (c, cell)
        out[c - whole[cell] + page[cell]] = v
    return out


def check_reduction(x, theory, page, whole, types=None):
    """``page``, the part on ``types`` assembled with the peel, is
    ``whole``, the same part with every row written, reduced by the peel.

    In the whole complex, each peeled row, in peel order, is a unit at a
    column of its free vertex that no row after it and no kept row meets.
    The page numbers each cell by its width in the part, a peeled edge
    with width 0 and its free vertex less that edge's width.  Its ranks
    are the whole's less P, the number of peeled rows, in degrees 0 and 1.
    Its d_0 is the whole's kept rows, renumbered, none of which meets a
    free vertex; its d_1 is the whole's without the peeled columns, where
    it is zero; the rest are the whole's.  The two factor alike
    (``check_factorizations``), and no two rows share a dict."""
    peel = bredon._peel(x, theory)
    sizes = bredon.part_sizes(x, theory, types or reprings.kept_types(theory, 0)[0])
    offsets = cell_offsets(x, sizes)
    rows = peeled_rows(x, theory, types)
    widths = [[sizes[s] for s in cells] for cells in x.cells]
    for j, k in peel:
        widths[0][j] -= widths[1][k]
        widths[1][k] = 0
    page_offsets = [list(itertools.accumulate(w, initial=0)) for w in widths]
    assert page.free_ranks == tuple(n - len(rows) * (p < 2) for p, n in enumerate(whole.free_ranks))
    check_factorizations(abelian.factor_integral(page), abelian.factor_integral(whole), len(rows))
    assert len({id(row) for d in page.free_d for row in d.data}) == sum(d.rows for d in page.free_d)
    if not page.free_d:
        return
    written = whole.free_d[0].data
    meets = {}  # per column of d_0, the rows not yet split off that meet it
    for i, row in enumerate(written):
        for c in row:
            meets.setdefault(c, set()).add(i)
    for j, k in peel:
        for i in range(offsets[1][k], offsets[1][k + 1]):
            for c in written[i]:
                meets[c].discard(i)
            assert any(abs(v) == 1 and not meets[c] and offsets[0][j] <= c < offsets[0][j + 1]
                       for c, v in written[i].items())
    peeled = set(rows)
    free_vertices, edges = {j for j, _ in peel}, {k for _, k in peel}
    assert page.free_d[0].data == tuple(renumbered(row, offsets[0], page_offsets[0], free_vertices)
                                        for i, row in enumerate(written) if i not in peeled)
    if len(whole.free_d) > 1:
        assert page.free_d[1].data == tuple(renumbered(row, offsets[1], page_offsets[1], edges)
                                            for row in whole.free_d[1].data)
        assert page.free_d[2:] == whole.free_d[2:]


def check_factorizations(reduced, whole, peeled):
    """``reduced`` factors the complex that ``whole`` factors less
    ``peeled`` elementary reductions in d_0: its ranks are less by
    ``peeled`` in degrees 0 and 1, every differential has the same factors
    > 1, d_0 has ``peeled`` fewer factors 1 and every other one as many,
    and the groups and the groups mod 2 are the same."""
    assert reduced.ranks == tuple(n - peeled * (p < 2) for p, n in enumerate(whole.ranks))
    for i, (ours, theirs) in enumerate(zip(reduced.factors, whole.factors)):
        assert sorted(d for d in ours if d > 1) == sorted(d for d in theirs if d > 1)
        assert ours.count(1) == theirs.count(1) - peeled * (i == 1)
    assert reduced.groups() == whole.groups() and reduced.mod2() == whole.mod2()


def page_factorizations(x, theory):
    """Each complex a page factors, K^0 or the real complex and its R and C
    parts, as (its factorization on the page, that of the listed cut of the
    whole complex with no row peeled, the number of rows the page peels)."""
    parts = bredon.part_assembler(x, theory, peel=True)
    page = assemble_cochain(x, theory, parts)
    full = bredon_cochain(x, theory, 0)
    factored = abelian.factor_integral(page)
    out = [(factored, Factorization(full.free_ranks, abelian._top_down(full.free_d)),
            len(peeled_rows(x, theory)))]
    if theory == "ko":
        for n, part, types in ((1, 1, "R"), (6, 0, "C")):
            keep = [listed[part] for listed in listed_cuts(x, "ko", n)]
            whole = [d.block(keep[p + 1], keep[p]) for p, d in enumerate(full.free_d)]
            out.append((bredon._factor_part(x, parts, factored, types),
                        Factorization(tuple(map(len, keep)), abelian._top_down(whole)),
                        len(peeled_rows(x, "ko", types))))
    return out


@pytest.fixture(scope="module")
def peel_models(ra_corpus):
    """``fold_corpus`` and the Bestvina models of the path family, which
    are trees."""
    return fold_corpus(ra_corpus) + [build_bestvina_orbit_complex(CoxeterMatrix.path_family(n))
                                     for n in range(1, 6)]


@given(data=st.data())
def test_peeling_d0_keeps_every_page_factorization(peel_models, data):
    theory = data.draw(st.sampled_from(["k", "ko"]))
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(peel_models))
    else:
        k = data.draw(st.integers(0, 4))
        edge = st.integers(1, 9) if theory == "k" else st.sampled_from([1, 3, 5, 7, 9])
        r = tuple(data.draw(edge) for _ in range(k))
        x = build_amalgam_orbit_complex(
            AmalgamSpec(r, tuple(data.draw(st.integers(2, 6)) for _ in range(k + 1))))
    x = reorient(x, random.Random(data.draw(st.integers(0, 2**16))))
    for reduced, whole, peeled in page_factorizations(x, theory):
        check_factorizations(reduced, whole, peeled)
    check_reduction(x, theory, assemble_cochain(x, theory),
                    bredon_cochain(x, theory, 0))


def test_the_whole_complex_is_the_page_with_its_peeled_rows_written(peel_models):
    # One assembly pass writes both: the whole complex, which --emit cochain
    # prints and the reference cohomology reads, is the page with each
    # peeled row written and each column of a free vertex that the peel
    # took put back.
    peels = 0
    for x in peel_models:
        for theory in ("k", "ko"):
            page = assemble_cochain(x, theory)
            whole = bredon_cochain(x, theory, 0)
            check_reduction(x, theory, page, whole)
            peels += bool(peeled_rows(x, theory))
    assert peels


def test_a_partial_cut_holds_peeled_and_stored_rows(monkeypatch):
    # The pendant edge c is peeled from its free vertex v2 and the square's
    # edges a and b are not, so each part of the real complex, R and C,
    # written whole, holds rows of both kinds.  Assembled with the peel, it
    # keeps a's and b's rows and reduces as the page does.
    x = z3_square(pendant=True)
    assert bredon._peel(x, "ko") == [(2, 2)]
    parts = bredon.part_assembler(x, "ko", peel=True)
    whole = bredon.part_assembler(x, "ko", peel=False)
    page = assemble_cochain(x, "ko", parts)
    factored = abelian.factor_integral(page)
    cuts = counting(monkeypatch, bredon, "factor_integral")
    for n, part, types in ((1, 1, "R"), (6, 0, "C")):
        sizes = bredon.part_sizes(x, "ko", types)
        assert any(sizes) and sizes != bredon.part_sizes(x, "ko", "RC")
        cuts.clear()
        bredon._factor_part(x, parts, factored, types)
        ((complex_,),) = cuts
        assert peeled_rows(x, "ko", types) == [2]  # c's row, after a's and b's
        assert complex_.free_d[0].rows == 2 and all(complex_.free_d[0].data)
        check_reduction(x, "ko", complex_, whole(types), types)
    for reduced, whole, peeled in page_factorizations(x, "ko"):
        check_factorizations(reduced, whole, peeled)


def test_amalgam_pages_eliminate_no_row_of_d0(monkeypatch):
    # The orbit complex is a tree, so d_0 is peeled whole, on the K page,
    # the real complex and both of its parts, before any block is built: the
    # page restricts nothing and its d_0 has no row, so invariant_factors,
    # still called by name, gets none to eliminate.
    factored = counting(monkeypatch, abelian, "invariant_factors")
    restricted = [counting(monkeypatch, bredon, name)
                  for name in ("restriction_k0", "real_restriction")]
    pages = []
    assemble = bredon.assemble_cochain
    monkeypatch.setattr(bredon, "assemble_cochain",
                        lambda *args: pages.append(assemble(*args)) or pages[-1])
    peeled = []
    for r, m in (((3, 5), (5, 7, 4)), ((1, 7, 3), (2, 3, 5, 4)), ((9,), (2, 3))):
        x = build_amalgam_orbit_complex(AmalgamSpec(r=r, m=m))
        for theory, calls in (("k", 1), ("ko", 3)):
            factored.clear()
            pages.clear()
            build_e2(x, theory)
            assert restricted == [[], []]
            (page,) = pages
            assert page.free_ranks[1] == page.free_d[0].rows == 0
            assert len(factored) == calls
            assert all(d.rows == 0 for d, _ in factored)
            peeled.append((x, theory, page))
    # The whole complexes, which restrict every descriptor, hold those rows.
    for x, theory, page in peeled:
        whole = bredon_cochain(x, theory, 0)
        assert sorted(peeled_rows(x, theory)) == list(range(whole.free_ranks[1]))
        check_reduction(x, theory, page, whole)


def peel_from_blocks(x, theory):
    """The peeled edges, in order, with whether each descriptor has unit
    pivots read off its restriction block by the test oracle instead of
    off its kind."""
    def from_block(incl, theory):
        block = reprings.restriction_k0(incl) if theory == "k" else restriction_ko(incl, 0)[0]
        return unit_columns_of_block(block) is not None

    with mock.patch.object(bredon, "has_unit_pivots", from_block):
        return bredon._peel(x, theory)


def random_cyclic_graph_dump(rng):
    """A ``--from-complex`` dump of a random graph of cyclic groups: a
    spanning tree, then maybe more edges, of orders 1 to 6, each end
    meeting its vertex with incidence ±1, 2 or -3."""
    n = rng.randint(2, 6)
    edges = []
    for k in range(rng.randint(n - 1, n + 2)):
        ends = (k + 1, rng.randrange(k + 1)) if k < n - 1 else rng.sample(range(n), 2)
        edges.append((rng.randint(1, 6), {j: rng.choice((1, -1, 1, -1, 2, -3)) for j in ends}))
    orders = [math.lcm(*(r for r, ends in edges if j in ends)) * rng.randint(1, 3)
              for j in range(n)]
    return cyclic_tree_dump(orders, edges)


def test_the_peel_read_off_kinds_is_the_peel_read_off_blocks(ra_corpus):
    # The amalgam grid (even edge orders included: KO peels no edge of
    # even order into a vertex of even index), both models of the
    # right-angled corpus and random graphs of cyclic groups.
    rng = random.Random(18)
    grid = [AmalgamSpec(r, m) for k in range(3) for r in itertools.product(range(1, 7), repeat=k)
            for m in itertools.product((2, 3, 4), repeat=k + 1)]
    models = ([build_amalgam_orbit_complex(spec) for spec in rng.sample(grid, 150)]
              + [build(matrix) for matrix in ra_corpus
                 for build in (build_davis_orbit_complex, build_bestvina_orbit_complex)]
              + [OrbitComplex.from_json(random_cyclic_graph_dump(rng)) for _ in range(150)])
    peels = 0
    for x in models:
        for theory in ("k", "ko"):
            peel = bredon._peel(x, theory)
            assert peel == peel_from_blocks(x, theory), (x.counts(), theory)
            peels += bool(peel)
    assert peels > len(models)


@pytest.mark.parametrize("name, peeled", [("star", False), ("pair", False), ("path", True)])
def test_leaf_edges_of_incidence_two_or_three_are_not_peeled_from_the_leaf(name, peeled):
    # The star's and the pair's leaves meet their edges with incidence 2 or
    # 3, and their centre never becomes a leaf; the path's leaf edge of
    # incidence 2 goes from its other end once the unit edge is peeled.
    x = OrbitComplex.from_json(TREE_DUMPS[name])
    for theory in ("k", "ko"):
        whole = bredon_cochain(x, theory, 0)
        assert len(peeled_rows(x, theory)) == (whole.free_ranks[1] if peeled else 0)
        check_reduction(x, theory, assemble_cochain(x, theory), whole)
        for reduced, listed, count in page_factorizations(x, theory):
            check_factorizations(reduced, listed, count)


# SHA-256 of the JSON list of [rows, cols, sorted skip, sorted pivot columns]
# of every invariant_factors call at p >= 1 on the K and KO pages of each
# D_inf^3 model.  It pins the unit pivot columns that each differential hands
# down, so any change to the pivot rule of invariant_factors is deliberate
# and re-records it.  The d_0 peel removes no edge of either model; the
# Bestvina digest was re-recorded when the column-singleton pass came in.
DINF3_TOP_DOWN = {
    build_davis_orbit_complex: "abf00ef3ac9f52963ee81162d33c7d5307fdc10e343f0bf6e0852d56bec22072",
    build_bestvina_orbit_complex: "a59ed62f18f8438c200dd4881ea0f72701aeda4a326305218958e280a7ccc049",
}


@pytest.mark.parametrize("build", list(DINF3_TOP_DOWN), ids=["davis", "bestvina"])
def test_dinf3_pages_factor_above_d0_as_before(monkeypatch, build):
    original = abelian.invariant_factors
    calls = []

    def recording(m, skip=(), pivot_cols=None):
        result = original(m, skip, pivot_cols)
        if pivot_cols is not None:
            calls.append([m.rows, m.cols, sorted(skip), sorted(pivot_cols)])
        return result

    monkeypatch.setattr(abelian, "invariant_factors", recording)
    x = build(D_INF_3)
    for theory in ("k", "ko"):
        calls.clear()
        build_e2(x, theory)
        assert len(calls) == x.dim - 1 == 2
        assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == DINF3_TOP_DOWN[build]


@pytest.mark.parametrize("rows, units", [
    ([[1, 0, 1, 1], [0, 1, 1, 1]], (0, 1)),  # a reflection in D_7
    ([[0, 2, 1], [-1, 3, 0]], (2, 0)),  # the first ±1 of each row
    ([[1, 1], [0, 1]], None),  # row 1's column meets row 0
    ([[1, 1], [1, 1]], None),  # one column for both rows
    ([[1, 0], [0, 2]], None),  # row 1 has no ±1
])
def test_unit_columns_meet_no_other_row(rows, units):
    assert unit_columns_of_block(IntMatrix.from_rows(rows)) == units


@given(data=st.data())
def test_parts_keep_the_listed_generators(peel_models, data):
    # Each part of a degree, one range of generators per stabilizer, keeps
    # the generators that the listing oracle keeps, in order, and its
    # blocks are the full complex's blocks on those rows and columns: free
    # as they are, torsion mod 2.
    theory = data.draw(st.sampled_from(["k", "ko"]))
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(peel_models))
    else:
        k = data.draw(st.integers(0, 3))
        edge = st.integers(1, 9) if theory == "k" else st.sampled_from([1, 3, 5, 7, 9])
        r = tuple(data.draw(edge) for _ in range(k))
        x = build_amalgam_orbit_complex(
            AmalgamSpec(r, tuple(data.draw(st.integers(2, 6)) for _ in range(k + 1))))
    n = data.draw(st.integers(0, 7))
    listed = listed_cuts(x, theory, n)
    offsets = cell_offsets(x, [reprings.k0_rank(g) if theory == "k" else
                               len(reprings.real_structure(g)) for g in x.stabilizers])
    c = bredon_cochain(x, theory, n)
    for part, (types, ranks) in enumerate(zip(reprings.kept_types(theory, n),
                                              (c.free_ranks, c.tor2_ranks))):
        kept = [[first + i for s, first in zip(cells, offs)
                 for i in reprings.type_range(x.stabilizers[s], theory, types)]
                for cells, offs in zip(x.cells, offsets)]
        assert kept == [parts[part] for parts in listed]
        assert ranks == tuple(len(parts[part]) for parts in listed)
    full = bredon_cochain(x, theory, 0)
    for p, d in enumerate(full.free_d):
        (f1, t1), (f0, t0) = listed[p + 1], listed[p]
        assert c.free_d[p] == d.block(f1, f0)
        assert c.tor_d[p] == d.block(t1, t0).mod2()
