import functools
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from properk import coxeter, reprings
from properk.abelian import AbGroup
from properk.ahss import NoCollapseError, assemble_abutment, build_e2
from properk.coxeter import (
    INFINITY,
    CoxeterMatrix,
    UnsupportedStabilizerError,
    build_bestvina_orbit_complex,
    build_davis_orbit_complex,
    enumerate_spherical_subsets,
    group_class_of,
    is_spherical,
    parabolic_inclusion,
)
from properk.groups import UnsupportedRestrictionError
from properk.groups import cyclic, dihedral_odd, elem2, trivial
from properk.orbit import OrbitComplex, intern
from conftest import cw_homology, dinf, gram_positive_definite, random_right_angled


def ra_pentagon() -> CoxeterMatrix:
    rows = [[INFINITY] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][i] = 1
        rows[i][(i + 1) % 5] = rows[(i + 1) % 5][i] = 2
    return CoxeterMatrix.from_rows(rows)


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 1], [1, 1]])  # off-diagonal 1
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 3], [2, 1]])  # asymmetric
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[2]])  # diagonal must be 1



def per_entry_matrix_check(entries) -> None:
    """The checks ``CoxeterMatrix`` ran entry by entry before its bulk
    check, kept as the reference for which failure is named."""
    if any(len(row) != len(entries) for row in entries):
        raise ValueError("matrix must be square")
    for i, row in enumerate(entries):
        if row[i] != 1:
            raise ValueError("diagonal entries must be 1")
        for j, x in enumerate(row):
            if i != j and x != INFINITY and x < 2:
                raise ValueError("off-diagonal entries must be >= 2 or 0 for infinity")
            if x != entries[j][i]:
                raise ValueError("matrix must be symmetric")


@st.composite
def corrupted_matrices(draw):
    """A valid Coxeter matrix with a few entries overwritten, alone or
    with their mirror entries, or a row cut short, each drawn or not."""
    size = draw(st.integers(0, 5))
    label = st.sampled_from((INFINITY, 2, 3, 5))
    rows = [[1] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = rows[j][i] = draw(label)
    if size:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            rows[i][j] = draw(st.sampled_from((-1, INFINITY, 1, 2, 3)))
            if draw(st.booleans()):
                rows[j][i] = rows[i][j]
        if draw(st.integers(0, 3)) == 0:
            del rows[draw(st.integers(0, size - 1))][-1]
    return tuple(map(tuple, rows))


@settings(max_examples=300)
@given(corrupted_matrices())
# As many 1s as rows, though two sit off the diagonal.
@example(((0, 1, 2), (1, 0, 2), (2, 2, 1)))
def test_bulk_matrix_check_names_the_failure_the_per_entry_check_names(entries):
    try:
        per_entry_matrix_check(entries)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            CoxeterMatrix(entries)
        assert str(err.value) == str(exc)
    else:
        assert CoxeterMatrix(entries).entries == entries

def test_pentagon_spherical_subsets():
    q = enumerate_spherical_subsets(ra_pentagon())
    assert len(q) == 11  # empty set, 5 singletons, 5 adjacent pairs
    sizes = sorted(len(j) for j in q.members)
    assert sizes == [0] + [1] * 5 + [2] * 5


def test_right_angled_spherical_equals_cliques():
    # Independent oracle for right-angled groups: W_J is finite iff J is a
    # clique of the commuting graph.
    rng = random.Random(7)
    for _ in range(25):
        size = rng.randint(1, 6)
        matrix = random_right_angled(rng, size)
        q = enumerate_spherical_subsets(matrix)
        expected = set()
        for bits in range(2 ** size):
            subset = tuple(i for i in range(size) if (bits >> i) & 1)
            if all(matrix.m(a, b) == 2 for a, b in itertools.combinations(subset, 2)):
                expected.add(subset)
        assert set(q.members) == expected


def test_path_family_spherical_subsets():
    n = 4
    q = enumerate_spherical_subsets(CoxeterMatrix.path_family(n))
    singles = [(i,) for i in range(n + 1)]
    pairs = [(i, i + 1) for i in range(n)]
    assert set(q.members) == {()} | set(singles) | set(pairs)


def test_single_generator():
    q = enumerate_spherical_subsets(CoxeterMatrix.from_rows([[1]]))
    assert q.members == ((), (0,))


def test_downward_closure():
    rng = random.Random(8)
    labels = [2, 3, 4, 5, 6, INFINITY]
    sizes = [rng.randint(1, 6) for _ in range(20)] + [10, 12]
    for size in sizes:
        rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                rows[i][j] = rows[j][i] = rng.choice(labels)
        matrix = CoxeterMatrix.from_rows(rows)
        members = set(enumerate_spherical_subsets(matrix).members)
        for j_set in members:
            for drop in j_set:
                assert tuple(x for x in j_set if x != drop) in members


def test_enumeration_matches_brute_force():
    # Independent oracle: every subset, classified on its own by
    # is_spherical, in the poset's member order (by size, then
    # lexicographically).  Half the draws favour label 2, so that spherical
    # subsets of three or more generators, which the enumeration
    # classifies, are common.
    rng = random.Random(11)
    uniform = (2, 3, 4, 5, 6, INFINITY)
    commuting = (2, 2, 2, 2, 2, 3, 4, 5, 6, INFINITY)
    for trial in range(60):
        size = rng.randint(0, 8)
        labels = uniform if trial % 2 else commuting
        rows = [[1 if i == j else INFINITY for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                rows[i][j] = rows[j][i] = rng.choice(labels)
        matrix = CoxeterMatrix.from_rows(rows)
        subsets = (tuple(i for i in range(size) if (bits >> i) & 1) for bits in range(2 ** size))
        expected = sorted((j for j in subsets if is_spherical(matrix, j)),
                          key=lambda j: (len(j), j))
        assert list(enumerate_spherical_subsets(matrix).members) == expected, rows


def test_poset_inclusions_match_parabolic_inclusion():
    # The poset's memoised inclusions, keyed by member index, equal
    # parabolic_inclusion, or refuse with the same message, and each
    # distinct descriptor is listed once.
    rng = random.Random(12)
    for _ in range(30):
        size = rng.randint(1, 6)
        rows = [[1 if i == j else INFINITY for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                rows[i][j] = rows[j][i] = rng.choice((2, 2, 3, 5, INFINITY))
        matrix = CoxeterMatrix.from_rows(rows)
        poset = matrix.poset
        for b, big in enumerate(poset.members):
            for a, sub in enumerate(poset.members):
                if not set(sub) <= set(big):
                    continue
                assert poset.index[sub] == a
                try:
                    expected = parabolic_inclusion(matrix, sub, big)
                except UnsupportedStabilizerError as exc:
                    with pytest.raises(UnsupportedStabilizerError, match=re.escape(str(exc))):
                        poset.inclusion_position(a, b)
                    continue
                assert poset.descriptors[poset.inclusion_position(a, b)] == expected
        assert len(set(poset.descriptors)) == len(poset.descriptors)


def test_families_at_scale(monkeypatch):
    # Exact sizes for n = 640 (641 generators): the spherical subsets
    # are the empty set, the singletons and the label-3 pairs.  The
    # enumeration classifies no pair, and no larger candidate arises.
    n = 640
    components = []
    components_of = coxeter._components

    def counting_components(vertices, edges):
        components.append(vertices)
        return components_of(vertices, edges)

    monkeypatch.setattr(coxeter, "_components", counting_components)
    polygon = CoxeterMatrix.polygon_family(n)
    assert len(enumerate_spherical_subsets(polygon)) == 2 * n + 3
    assert len(components) < 2 * n + 3
    monkeypatch.undo()

    path = CoxeterMatrix.path_family(n)
    assert len(path.poset) == 2 * n + 2
    assert build_davis_orbit_complex(path).counts() == (2 * n + 2, 4 * n + 1, 2 * n)
    assert build_bestvina_orbit_complex(path).counts() == (n, n - 1)
    assert len(polygon.poset) == 2 * n + 3
    assert build_davis_orbit_complex(polygon).counts() == (2 * n + 3, 4 * n + 4, 2 * n + 2)
    assert build_bestvina_orbit_complex(polygon).counts() == (n + 1, n + 1, 1)


def simply_laced(size: int, edges: list[tuple[int, int]]) -> CoxeterMatrix:
    """The Coxeter matrix of a diagram whose edges all carry the label 3."""
    rows = [[1 if i == j else 2 for j in range(size)] for i in range(size)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = 3
    return CoxeterMatrix.from_rows(rows)


def branched(*arms: int) -> CoxeterMatrix:
    """A star diagram: node 0 with three arms of the given lengths."""
    edges, size = [], 1
    for length in arms:
        edges += [(0 if i == 0 else size + i - 1, size + i) for i in range(length)]
        size += length
    return simply_laced(size, edges)


# Diagrams with one or two branch nodes and arms longer than one node, and
# whether each is of finite type: the D and E decisions of the classification.
BRANCHED = {
    "D5": (branched(1, 1, 2), True),
    "E6": (branched(1, 2, 2), True),
    "E7": (branched(1, 2, 3), True),
    "E8": (branched(1, 2, 4), True),
    "affine E6": (branched(2, 2, 2), False),
    "affine E7": (branched(1, 3, 3), False),
    "affine E8": (branched(1, 2, 5), False),
    "affine D5": (simply_laced(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]), False),
}


def test_classification_against_gram_criterion():
    # Exact diagram classification vs. positive definiteness of the cosine
    # Gram matrix (floating point, tolerance 1e-9), labels <= 6, on random
    # matrices and on every subset of the branched diagrams.
    rng = random.Random(9)
    labels = [2, 3, 4, 5, 6, INFINITY]
    matrices = []
    for _ in range(40):
        size = rng.randint(1, 5)
        rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                rows[i][j] = rows[j][i] = rng.choice(labels)
        matrices.append(CoxeterMatrix.from_rows(rows))
    for matrix in matrices + [matrix for matrix, _ in BRANCHED.values()]:
        size = matrix.size
        for bits in range(2 ** size):
            subset = tuple(i for i in range(size) if (bits >> i) & 1)
            assert is_spherical(matrix, subset) == gram_positive_definite(matrix, subset), (
                matrix.entries, subset)


def test_classification_named_types():
    def path_matrix(labels):
        n = len(labels) + 1
        rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for i, m in enumerate(labels):
            rows[i][i + 1] = rows[i + 1][i] = m
        return CoxeterMatrix.from_rows(rows)

    full = lambda m: tuple(range(m.size))
    assert is_spherical(path_matrix([3, 3, 3]), full(path_matrix([3, 3, 3])))  # A4
    assert is_spherical(path_matrix([4, 3, 3]), full(path_matrix([4, 3, 3])))  # B4
    assert is_spherical(path_matrix([3, 4, 3]), full(path_matrix([3, 4, 3])))  # F4
    assert not is_spherical(path_matrix([3, 4, 3, 3]), full(path_matrix([3, 4, 3, 3])))
    assert is_spherical(path_matrix([5, 3]), full(path_matrix([5, 3])))  # H3
    assert is_spherical(path_matrix([5, 3, 3]), full(path_matrix([5, 3, 3])))  # H4
    assert not is_spherical(path_matrix([5, 3, 3, 3]), full(path_matrix([5, 3, 3, 3])))
    assert not is_spherical(path_matrix([4, 4]), full(path_matrix([4, 4])))  # affine C2
    assert not is_spherical(path_matrix([6, 3]), full(path_matrix([6, 3])))  # affine G2
    # D4 and the affine D4 star
    d4 = CoxeterMatrix.from_rows([
        [1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
    assert is_spherical(d4, (0, 1, 2, 3))
    star5 = CoxeterMatrix.from_rows([
        [1, 3, 3, 3, 3],
        [3, 1, 2, 2, 2],
        [3, 2, 1, 2, 2],
        [3, 2, 2, 1, 2],
        [3, 2, 2, 2, 1]])
    assert not is_spherical(star5, (0, 1, 2, 3, 4))
    for name, (matrix, finite) in BRANCHED.items():
        assert is_spherical(matrix, full(matrix)) == finite, name


def test_group_class_catalogue():
    m = CoxeterMatrix.path_family(3)
    assert group_class_of(m, ()) == trivial()
    assert group_class_of(m, (1,)) == cyclic(2)
    assert group_class_of(m, (1, 2)) == dihedral_odd(3)
    ra = ra_pentagon()
    assert group_class_of(ra, (0, 1)) == elem2(2)
    with pytest.raises(UnsupportedStabilizerError) as err:
        group_class_of(m := CoxeterMatrix.path_family(3), (0, 1, 2))  # A3 = S4
    assert "s0" in str(err.value) and "s2" in str(err.value)
    # even dihedral factor
    b2 = CoxeterMatrix.from_rows([[1, 4], [4, 1]])
    with pytest.raises(UnsupportedStabilizerError):
        group_class_of(b2, (0, 1))
    # I2(5) is supported
    h2 = CoxeterMatrix.from_rows([[1, 5], [5, 1]])
    assert group_class_of(h2, (0, 1)) == dihedral_odd(5)
    # A2 x A1 is finite but its stabilizer has no supported rep ring
    a2a1 = CoxeterMatrix.from_rows([[1, 3, 2], [3, 1, 2], [2, 2, 1]])
    assert is_spherical(a2a1, (0, 1, 2))
    with pytest.raises(UnsupportedStabilizerError, match="product of a dihedral"):
        group_class_of(a2a1, (0, 1, 2))


def test_family_detection():
    assert CoxeterMatrix.path_family(4).detect_family() == ("path", 4)
    assert CoxeterMatrix.polygon_family(4).detect_family() == ("polygon", 4)
    assert ra_pentagon().detect_family() is None
    assert CoxeterMatrix.from_rows([[1, 3], [3, 1]]).detect_family() == ("path", 1)
    # a 3-star of braid edges is neither family
    star = CoxeterMatrix.from_rows([
        [1, 3, 3, 3],
        [3, 1, INFINITY, INFINITY],
        [3, INFINITY, 1, INFINITY],
        [3, INFINITY, INFINITY, 1]])
    assert star.detect_family() is None


# ---------------------------------------------------------------------------
# Davis model


def test_davis_two_generators_infinity():
    m = CoxeterMatrix.from_rows([[1, INFINITY], [INFINITY, 1]])
    x = build_davis_orbit_complex(m)
    assert x.counts() == (3, 2)
    stabs = sorted(str(x.stabilizers[s]) for s in x.cells[0])
    assert stabs == ["1", "Z2", "Z2"]
    assert all(x.stabilizers[s] == trivial() for s in x.cells[1])


def test_davis_two_generators_braid():
    # poset {0, {s0}, {s1}, {s0,s1}}: 4 vertices, 5 edges, 2 triangles
    m = CoxeterMatrix.from_rows([[1, 3], [3, 1]])
    x = build_davis_orbit_complex(m)
    assert x.counts() == (4, 5, 2)
    top = [s for s in x.cells[0] if x.stabilizers[s] == dihedral_odd(3)]
    assert len(top) == 1


def test_davis_single_generator_segment():
    x = build_davis_orbit_complex(CoxeterMatrix.from_rows([[1]]))
    assert x.counts() == (2, 1)
    assert sorted(str(x.stabilizers[s]) for s in x.cells[0]) == ["1", "Z2"]
    assert x.stabilizers[x.cells[1][0]] == trivial()


def order(g):
    """The order of ``g``, the sum of the squares of its irreducibles'
    dimensions."""
    return sum(d * d for d in reprings.complex_irrep_dims(g))


def test_davis_descriptor_direction():
    x = build_davis_orbit_complex(CoxeterMatrix.path_family(2))
    for p in range(x.dim):
        for j, k, _, desc in x.sorted_faces(p):
            assert desc.sub == x.stabilizers[x.cells[p + 1][k]]
            assert desc.big == x.stabilizers[x.cells[p][j]]
            assert order(desc.sub) <= order(desc.big)


# ---------------------------------------------------------------------------
# Bestvina complex


def panel_label(label: str) -> tuple[int, ...]:
    """The spherical subset J of a Bestvina cell labelled B{s_j,...}#i."""
    inside = label[label.index("{") + 1:label.index("}")]
    return tuple(int(s[1:]) for s in inside.split(",") if s)


def test_bestvina_path_family_is_a_path():
    n = 5
    b = build_bestvina_orbit_complex(CoxeterMatrix.path_family(n))
    assert b.counts() == (n, n - 1)
    vertex_labels = [panel_label(c) for c in b.labels[0]]
    assert sorted(vertex_labels) == sorted((i, i + 1) for i in range(n))
    edge_labels = sorted(panel_label(c) for c in b.labels[1])
    assert edge_labels == [(i,) for i in range(1, n)]


def test_bestvina_polygon_family_is_a_polygon():
    n = 5
    b = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(n))
    assert b.counts() == (n + 1, n + 1, 1)
    assert panel_label(b.labels[2][0]) == ()
    # the 2-cell runs over every edge exactly once
    coeffs = {j: b.incidence[1].entry(j, 0) for j in range(len(b.cells[1]))
              if b.incidence[1].entry(j, 0)}
    assert sorted(coeffs) == list(range(n + 1))
    assert all(c in (1, -1) for c in coeffs.values())


def test_bestvina_polygon_incidence_is_the_cyclic_circulant():
    # After reindexing cells by their panel labels, the vertex-edge
    # incidence is the cyclic difference matrix: edge {s_i} runs between
    # the vertices {s_{i-1}, s_i} and {s_i, s_i+1}, signs +1/-1, with the
    # wrap-around column.  Edge orientations themselves are a free choice,
    # so rows are compared up to a global sign per edge.
    n = 5
    m = CoxeterMatrix.polygon_family(n)
    x = build_bestvina_orbit_complex(m)
    assert x.counts() == (n + 1, n + 1, 1)
    vertex_pos = {panel_label(c): i for i, c in enumerate(x.labels[0])}
    edge_pos = {panel_label(c): i for i, c in enumerate(x.labels[1])}

    def pair(i):
        return tuple(sorted((i % (n + 1), (i + 1) % (n + 1))))

    inc = x.incidence[0]
    for i in range(n + 1):
        col = edge_pos[(i,)]
        head = vertex_pos[pair(i)]
        tail = vertex_pos[pair(i - 1)]
        column = [inc.entry(j, col) for j in range(n + 1)]
        expected = [0] * (n + 1)
        expected[head], expected[tail] = 1, -1
        assert column == expected or column == [-v for v in expected]


def test_bestvina_finite_group_is_a_point():
    b = build_bestvina_orbit_complex(CoxeterMatrix.from_rows([[1, 3], [3, 1]]))
    assert b.counts() == (1,)
    assert panel_label(b.labels[0][0]) == (0, 1)


def test_bestvina_pentagon_is_a_disk():
    b = build_bestvina_orbit_complex(ra_pentagon())
    assert b.counts() == (5, 5, 1)


def test_bestvina_cone_fallback_star():
    # s0 commutes with s1, s2, s3; no other relations.  The singleton {s0}
    # sits in three maximal pairs, so its panel is a cone: a 3-star.
    rows = [[1, 2, 2, 2], [2, 1, INFINITY, INFINITY],
            [2, INFINITY, 1, INFINITY], [2, INFINITY, INFINITY, 1]]
    b = build_bestvina_orbit_complex(CoxeterMatrix.from_rows(rows))
    assert b.counts() == (4, 3)
    apex = [c for c in b.labels[0] if panel_label(c) == (0,)]
    assert len(apex) == 1


def test_bestvina_reduced_homology_vanishes(ra_corpus):
    # Contractibility proxy: reduced cellular homology of the panel complex
    # is zero in every degree (H_0 = Z, the rest vanish).
    matrices = ([CoxeterMatrix.path_family(4), CoxeterMatrix.polygon_family(4)]
                + ra_corpus[:12])
    for matrix in matrices:
        b = build_bestvina_orbit_complex(matrix)
        homology = cw_homology(list(b.incidence), list(b.counts()))
        assert homology[0] == AbGroup.free(1), matrix.entries
        assert all(h.is_zero for h in homology[1:]), matrix.entries
        euler = sum((-1) ** p * len(layer) for p, layer in enumerate(b.cells))
        assert euler == 1


def test_orbit_complex_from_panel_single_point():
    m = CoxeterMatrix.from_rows([[1, 3], [3, 1]])
    x = build_bestvina_orbit_complex(m)
    assert x.counts() == (1,)
    assert x.stabilizers[x.cells[0][0]] == dihedral_odd(3)


def test_orbit_complex_from_panel_descriptors():
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(4))
    # edges: reflections inside the two adjacent S3 stabilizers
    for _, _, _, desc in x.sorted_faces(0):
        assert desc.kind == "reflection_in_dihedral"
    # the 2-cell has trivial stabilizer inside Z2 edge stabilizers
    for _, _, _, desc in x.sorted_faces(1):
        assert desc.kind == "trivial_in_anything"
        assert desc.big == cyclic(2)


def test_unsupported_stabilizer_surfaces_in_model_build():
    # affine A3: a 4-cycle of braid edges, opposite generators commute;
    # {s0, s1, s2} generates S4, which has no supported representation ring
    affine_a3 = CoxeterMatrix.from_rows([
        [1, 3, 2, 3],
        [3, 1, 3, 2],
        [2, 3, 1, 3],
        [3, 2, 3, 1]])
    q = enumerate_spherical_subsets(affine_a3)
    assert (0, 1, 2) in q.members
    for builder in (build_davis_orbit_complex, build_bestvina_orbit_complex):
        with pytest.raises(UnsupportedStabilizerError) as err:
            builder(affine_a3)
        assert "s" in str(err.value)


def test_parabolic_inclusion_kinds():
    m = CoxeterMatrix.polygon_family(4)
    assert parabolic_inclusion(m, (), (0, 1)).kind == "trivial_in_anything"
    assert parabolic_inclusion(m, (0,), (0, 1)).kind == "reflection_in_dihedral"
    ra = ra_pentagon()
    incl = parabolic_inclusion(ra, (1,), (1, 2))
    assert incl.kind == "elem2_subset"
    assert incl.extra == (0,)
    incl = parabolic_inclusion(ra, (2,), (1, 2))
    assert incl.extra == (1,)


def octahedral() -> CoxeterMatrix:
    """6 generators whose commuting graph is the octahedron, antipodal
    pairs at infinity."""
    return CoxeterMatrix.from_rows([[1 if i == j else INFINITY if abs(i - j) == 3 else 2
                                     for j in range(6)] for i in range(6)])


def test_octahedral_graph_exercises_higher_cones():
    # The union of panels below the empty set is a 2-sphere, so the builder
    # falls back to a cone and produces a 3-dimensional model; 27 spherical
    # subsets in total.
    matrix = octahedral()
    assert len(enumerate_spherical_subsets(matrix)) == 27
    b = build_bestvina_orbit_complex(matrix)
    assert b.dim == 3
    assert b.counts() == (9, 20, 18, 6)
    homology = cw_homology(list(b.incidence), list(b.counts()))
    assert homology[0] == AbGroup.free(1)
    assert all(h.is_zero for h in homology[1:])


def test_components_keep_isolated_vertices_in_order_of_first_vertex():
    assert coxeter._components([5, 0, 3, 2, 4, 1], [(4, 0), (5, 3)]) == [
        [0, 4], [1], [2], [3, 5]]
    assert coxeter._components([], []) == []


def hand_built_graph(n_vertices: int, edges: list[tuple[int, int]]):
    """A panel builder holding only the graph U: vertices 0..n-1 and the
    given (tail, head) edges, with the cell indices U's collection lists."""
    builder = coxeter._PanelBuilder()
    for _ in range(n_vertices):
        builder.add(0, (0,), [])
    for tail, head in edges:
        builder.add(1, (0, 1), [(head, 1), (tail, -1)])
    return builder, [list(range(n_vertices)), list(range(len(edges)))]


@pytest.mark.parametrize("n_vertices, edges", [
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    (4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
], ids=["two-disjoint-cycles", "triangle-with-pendant-edge"])
def test_panel_graphs_that_are_no_tree_pair_or_cycle_are_coned(n_vertices, edges):
    # No model input reaches these U's: both fall through to the cone,
    # a new apex with one edge per vertex and one 2-cell per edge.
    builder, cell_idx = hand_built_graph(n_vertices, edges)
    coxeter._add_panel(builder, (), cell_idx)
    assert list(map(len, builder.cells)) == [n_vertices + 1, 2 * len(edges), len(edges)]
    assert builder.cells[0][-1] == ((), ())


def test_panel_square_gets_one_two_cell_walked_from_its_smallest_vertex():
    # From vertex 0 along edge 0 (3 -> 0, crossed backwards), then edges 3
    # (2 -> 3, backwards), 2 (2 -> 1, forwards) and 1 (0 -> 1, backwards).
    builder, cell_idx = hand_built_graph(4, [(3, 0), (0, 1), (2, 1), (2, 3)])
    coxeter._add_panel(builder, (), cell_idx)
    assert list(map(len, builder.cells)) == [4, 4, 1]
    assert builder.cells[2][0] == ((), ((0, -1), (3, -1), (2, 1), (1, -1)))


def test_zero_generator_matrix():
    m = CoxeterMatrix.from_rows([])
    assert len(enumerate_spherical_subsets(m)) == 1
    assert build_bestvina_orbit_complex(m).counts() == (1,)
    assert build_davis_orbit_complex(m).counts() == (1,)


@st.composite
def coxeter_matrices(draw):
    """Coxeter matrices on up to 5 generators with labels in {2, 3, 5, oo}."""
    size = draw(st.integers(1, 5))
    rows = [[1 if i == j else INFINITY for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = rows[j][i] = draw(st.sampled_from((2, 3, 5, INFINITY)))
    return CoxeterMatrix.from_rows(rows)


def _pages_or_refusal(build, matrix):
    """Both theories' E2 pages on one model, or the kind of its refusal."""
    try:
        cx = build(matrix)
        return cx, tuple(build_e2(cx, theory) for theory in ("k", "ko"))
    except (UnsupportedStabilizerError, UnsupportedRestrictionError) as exc:
        return None, type(exc)


def _abutment_or_refusal(page):
    try:
        return assemble_abutment(page)
    except NoCollapseError:
        return NoCollapseError


def _entries(page, dim):
    """Every E2 entry of ``page`` in degrees 0..dim, zero above its own."""
    return [[page.entry(p, n) for p in range(dim + 1)] for n in range(page.period)]


def assert_pages_agree(davis, bestvina, label):
    """Two models' pages, one per theory, have the same entries everywhere,
    the lower-dimensional page padded with zero groups."""
    for a, b in zip(davis, bestvina):
        dim = max(a.dim, b.dim)
        assert _entries(a, dim) == _entries(b, dim), (label, a.theory)


@settings(max_examples=60)
@given(coxeter_matrices())
def test_models_agree_on_random_matrices(matrix):
    # The Bestvina model is contractible (reduced homology zero), and it
    # gives the Davis model's K and KO pages, entry by entry, and so their
    # abutments, or the same refusal.
    davis_cx, davis = _pages_or_refusal(build_davis_orbit_complex, matrix)
    bestvina_cx, bestvina = _pages_or_refusal(build_bestvina_orbit_complex, matrix)
    if bestvina_cx is None or davis_cx is None:
        assert davis == bestvina, matrix.entries
    else:
        assert_pages_agree(davis, bestvina, matrix.entries)
        assert list(map(_abutment_or_refusal, davis)) == list(map(_abutment_or_refusal, bestvina))
    if bestvina_cx is not None:
        homology = cw_homology(list(bestvina_cx.incidence), list(bestvina_cx.counts()))
        assert homology[0] == AbGroup.free(1), matrix.entries
        assert all(h.is_zero for h in homology[1:]), matrix.entries


def test_models_agree_on_dinf4_pages():
    # D_inf^4: both models have dimension 4, and their K and KO pages agree
    # entry by entry; each is concentrated in degree 0, with Z^81 in KO^0
    # and (Z/2)^81 in KO^-1 and KO^-2.
    matrix = CoxeterMatrix.from_rows([[1 if a == b else 0 if a // 2 == b // 2 else 2
                                       for b in range(8)] for a in range(8)])
    davis, bestvina = ([build_e2(build(matrix), theory) for theory in ("k", "ko")]
                       for build in (build_davis_orbit_complex, build_bestvina_orbit_complex))
    assert_pages_agree(davis, bestvina, "D_inf^4")
    assert davis[0].dim == bestvina[0].dim == 4
    assert davis[1].entry(0, 0) == AbGroup.free(81)
    assert davis[1].entry(0, 1) == AbGroup.elementary_2(81)


# ---------------------------------------------------------------------------
# The Davis builder against a reference over chains of subset tuples


def davis_reference(matrix: CoxeterMatrix) -> OrbitComplex:
    """The Davis model from the chains of subsets themselves: the spherical
    subsets by brute force, each longer layer of chains sorted, a face per
    dropped entry with sign (-1)^i, and W_{J_0} <= W_{J_1} on the face that
    drops J_0, the identity of W_{J_0} on every other."""
    subsets = (tuple(i for i in range(matrix.size) if bits >> i & 1)
               for bits in range(2 ** matrix.size))
    members = sorted((j for j in subsets if is_spherical(matrix, j)), key=lambda j: (len(j), j))
    chains = [[(m,) for m in members]]
    while longer := sorted((sub,) + c for c in chains[-1] for size in range(len(c[0]))
                           for sub in itertools.combinations(c[0], size)):
        chains.append(longer)
    stabilizer = functools.cache(lambda j: group_class_of(matrix, j))
    include = functools.cache(lambda sub, big: parabolic_inclusion(matrix, sub, big))
    stabilizers, descriptors = {}, {}
    cells = tuple(tuple(intern(stabilizers, stabilizer(c[0])) for c in layer) for layer in chains)
    faces = []
    for lower, higher in zip(chains, chains[1:]):
        index = {c: i for i, c in enumerate(lower)}
        layer = []
        for c in higher:
            drops = [(index[c[:i] + c[i + 1:]], (-1) ** i, include(c[0], c[1] if i == 0 else c[0]))
                     for i in range(len(c))]
            ids = {j: intern(descriptors, desc) for j, _, desc in sorted(drops)}  # in face order
            layer.append({j: (coeff, ids[j]) for j, coeff, _ in drops})
        faces.append(tuple(layer))
    labels = tuple(tuple("<".join("{" + ",".join(f"s{i}" for i in j) + "}" for j in c)
                         for c in layer) for layer in chains)
    return OrbitComplex(tuple(stabilizers), tuple(descriptors), cells, labels, tuple(faces))


def assert_matches_reference(build, reference, matrix: CoxeterMatrix) -> None:
    """Equal complexes, tables in the same order, and equal coherence
    pairs; or the same refusal."""
    try:
        expected = reference(matrix)
    except UnsupportedStabilizerError as exc:
        with pytest.raises(UnsupportedStabilizerError, match=re.escape(str(exc))):
            build(matrix)
        return
    built = build(matrix)
    assert built == expected, matrix.entries
    assert [list(layer) for layer in built.labels] == [list(layer) for layer in expected.labels]
    assert [[{j: (c, built.descriptors[d]) for j, (c, d) in f.items()} for f in layer]
            for layer in built.faces] == [
        [{j: (c, expected.descriptors[d]) for j, (c, d) in f.items()} for f in layer]
        for layer in expected.faces]
    assert built.coherence == expected.coherence, matrix.entries


assert_davis_matches_reference = functools.partial(
    assert_matches_reference, build_davis_orbit_complex, davis_reference)


def test_davis_builder_matches_the_chain_reference(ra_corpus):
    matrices = (ra_corpus + [CoxeterMatrix.path_family(n) for n in (2, 5, 10)]
                + [CoxeterMatrix.polygon_family(n) for n in (2, 5, 10)]
                + [dinf(k) for k in range(1, 5)]
                + [CoxeterMatrix.from_rows([[1, 3, 3], [3, 1, 3], [3, 3, 1]])])
    for matrix in matrices:
        assert_davis_matches_reference(matrix)


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices())
def test_davis_builder_matches_the_chain_reference_on_random_matrices(matrix):
    assert_davis_matches_reference(matrix)


@pytest.mark.parametrize("build", [build_davis_orbit_complex, build_bestvina_orbit_complex])
@pytest.mark.parametrize("matrix", [dinf(2), CoxeterMatrix.polygon_family(5),
                                    CoxeterMatrix.from_rows([[1, 3, 3], [3, 1, 3], [3, 3, 1]])],
                         ids=["dinf2", "polygon5", "triangle"])
def test_built_labels_equal_their_replay_from_a_dump(build, matrix):
    # Built labels are made when read; the replay holds them as tuples of
    # strings.  Equality and hashing cannot tell the two apart.
    built = build(matrix)
    replay = OrbitComplex.from_json(built.to_json())
    assert built == replay and replay == built
    assert hash(built) == hash(replay)
    assert built.labels == replay.labels and hash(built.labels) == hash(replay.labels)
    assert all(isinstance(layer, tuple) for layer in replay.labels)
    assert [built.labels[p][-1] for p in range(built.dim + 1)] == [
        replay.labels[p][-1] for p in range(built.dim + 1)]


# ---------------------------------------------------------------------------
# The Bestvina builder against a reference that finds U by scanning cells


def bestvina_reference(matrix: CoxeterMatrix) -> OrbitComplex:
    """The Bestvina model with each panel's U found by brute force: every
    cell made so far whose label strictly contains J.  The panels come in
    the builder's order, by decreasing size and then lexicographically,
    and each is completed by the builder's ``_add_panel``; the cells are
    labeled by their subsets themselves."""
    subsets = (tuple(i for i in range(matrix.size) if bits >> i & 1)
               for bits in range(2 ** matrix.size))
    builder = coxeter._PanelBuilder()
    for j in sorted((j for j in subsets if is_spherical(matrix, j)), key=lambda j: (-len(j), j)):
        u = [[i for i, (label, _) in enumerate(layer) if set(j) < set(label)]
             for layer in builder.cells]
        while len(u) > 1 and not u[-1]:
            u.pop()
        coxeter._add_panel(builder, j, u)
    stabilizer = functools.cache(lambda j: group_class_of(matrix, j))
    include = functools.cache(lambda sub, big: parabolic_inclusion(matrix, sub, big))
    stabilizers, descriptors = {}, {}
    panel = builder.cells
    cells = tuple(tuple(intern(stabilizers, stabilizer(label)) for label, _ in layer)
                  for layer in panel)
    faces = tuple(tuple({j: (coeff, intern(descriptors, include(label, lower[j][0])))
                         for j, coeff in sorted(boundary)} for label, boundary in higher)
                  for lower, higher in zip(panel, panel[1:]))
    labels = tuple(tuple("B{" + ",".join(f"s{i}" for i in label) + f"}}#{k}"
                         for k, (label, _) in enumerate(layer)) for layer in panel)
    return OrbitComplex(tuple(stabilizers), tuple(descriptors), cells, labels, faces)


assert_bestvina_matches_reference = functools.partial(
    assert_matches_reference, build_bestvina_orbit_complex, bestvina_reference)


def elementary(n: int) -> CoxeterMatrix:
    """(Z/2)^n: every off-diagonal label 2."""
    return CoxeterMatrix.from_rows([[1 if a == b else 2 for b in range(n)] for a in range(n)])


def test_bestvina_builder_matches_the_cell_scan_reference(ra_corpus):
    matrices = (ra_corpus + [CoxeterMatrix.path_family(n) for n in (2, 5, 10)]
                + [CoxeterMatrix.polygon_family(n) for n in (2, 5, 10)]
                + [dinf(k) for k in range(1, 5)]
                + [CoxeterMatrix.from_rows([[1, 3, 3], [3, 1, 3], [3, 3, 1]]), octahedral()]
                + [elementary(n) for n in range(7)])
    for matrix in matrices:
        assert_bestvina_matches_reference(matrix)


@settings(max_examples=40, deadline=None)
@given(coxeter_matrices())
def test_bestvina_builder_matches_the_cell_scan_reference_on_random_matrices(matrix):
    assert_bestvina_matches_reference(matrix)
