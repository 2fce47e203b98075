"""Coxeter groups: spherical subsets, Davis and Bestvina models of the
classifying space for proper actions, and their quotient cell structures.

Finiteness of a standard parabolic W_J is decided by the classification of
connected finite-type Coxeter diagrams (A_n, B_n, D_n, E6, E7, E8, F4, H3,
H4, I2(m)); a subset is spherical iff its induced diagram is a disjoint
union of diagrams from that list.  The Gram-matrix positive-definiteness
criterion is kept in the test suite as an independent floating-point
cross-check, never on the exact path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import combinations, repeat
from typing import Iterable, Iterator

from .groups import (
    GroupClass,
    InclusionDescriptor,
    dihedral_odd,
    elem2,
    elem2_exponent,
    elem2_subset,
    json_int,
    reflection_in_dihedral,
    trivial_in,
)
from .orbit import CellLabels, OrbitComplex, intern

INFINITY = 0  # Coxeter matrix entries use 0 to encode the label infinity.


class UnsupportedStabilizerError(ValueError):
    """A spherical subgroup outside the supported stabilizer catalogue."""

    def __init__(self, subset: tuple[int, ...], reason: str):
        self.subset = subset
        names = "{" + ", ".join(f"s{i}" for i in subset) + "}"
        super().__init__(f"unsupported stabilizer for spherical subset {names}: {reason}")


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric Coxeter matrix; diagonal 1, off-diagonal >= 2 or 0 (= infinity)."""

    size: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries, size = self.entries, self.size
        # In bulk first: square, symmetric, a diagonal of 1s and every other
        # label 0 or >= 2.  Only a matrix that fails runs the ordered checks
        # below, which name its first failure.
        if (size >= 0 and len(entries) == size and all(len(row) == size for row in entries)
                and entries == tuple(zip(*entries))
                and all(row[i] == 1 for i, row in enumerate(entries))
                and sum(row.count(1) for row in entries) == size):
            labels = set().union(*entries) - {INFINITY, 1}
            if not labels or min(labels) >= 2:
                return
        if self.size < 0 or len(self.entries) != self.size:
            raise ValueError("matrix size mismatch")
        # Every row's length first: the symmetry check reads later rows.
        if any(len(row) != self.size for row in self.entries):
            raise ValueError("matrix must be square")
        for i, row in enumerate(self.entries):
            if row[i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j, x in enumerate(row):
                if i != j and x != INFINITY and x < 2:
                    raise ValueError("off-diagonal entries must be >= 2 or 0 for infinity")
                if x != self.entries[j][i]:
                    raise ValueError("matrix must be symmetric")

    def m(self, i: int, j: int) -> int:
        return self.entries[i][j]

    @cached_property
    def poset(self) -> "SphericalPoset":
        """The spherical subsets, enumerated once per matrix and shared by
        every model and closed form built from it."""
        return enumerate_spherical_subsets(self)

    def is_right_angled(self) -> bool:
        return all(self.entries[i][j] in (2, INFINITY)
                   for i in range(self.size) for j in range(i + 1, self.size))

    @classmethod
    def from_rows(cls, rows) -> "CoxeterMatrix":
        return cls(len(rows), tuple(tuple(map(int, row)) for row in rows))

    @classmethod
    def from_json(cls, data: dict) -> "CoxeterMatrix":
        size = json_int(data["size"])
        rows = data["m"]
        if len(rows) != size:
            raise ValueError("matrix row count does not match declared size")
        return cls(size, tuple(tuple(map(json_int, row)) for row in rows))

    @classmethod
    def path_family(cls, n: int) -> "CoxeterMatrix":
        """n+1 generators; consecutive ones braid (label 3), the rest commute
        at infinity."""
        if n < 1:
            raise ValueError("the path family needs n >= 1")
        size = n + 1
        rows = [[INFINITY] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = 1
        for i in range(size - 1):
            rows[i][i + 1] = rows[i + 1][i] = 3
        return cls.from_rows(rows)

    @classmethod
    def polygon_family(cls, n: int) -> "CoxeterMatrix":
        """The path family closed up with one extra label 3 between s_0 and s_n."""
        if n < 2:
            raise ValueError("the polygon family needs n >= 2")
        base = cls.path_family(n)
        rows = [list(row) for row in base.entries]
        rows[0][n] = rows[n][0] = 3
        return cls.from_rows(rows)

    def detect_family(self) -> tuple[str, int] | None:
        """Recognize the path / polygon families structurally.

        The subgraph of label-3 edges must be a Hamiltonian path (resp.
        cycle) on the generators and every other off-diagonal label must be
        infinity.  Returns ("path", n) or ("polygon", n) with n+1 = size.
        """
        size = self.size
        if size < 2:
            return None
        threes = []
        for i in range(size):
            for j in range(i + 1, size):
                if self.entries[i][j] == 3:
                    threes.append((i, j))
                elif self.entries[i][j] != INFINITY:
                    return None
        degree = [0] * size
        for i, j in threes:
            degree[i] += 1
            degree[j] += 1
        if len(_components(range(size), threes)) != 1:
            return None
        if len(threes) == size - 1 and all(d <= 2 for d in degree):
            return ("path", size - 1)
        if size >= 3 and len(threes) == size and all(d == 2 for d in degree):
            return ("polygon", size - 1)
        return None


def _components(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on ``vertices`` with ``edges``,
    each sorted, in order of their first vertex."""
    adjacent: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen: set[int] = set()
    comps = []
    for start in sorted(adjacent):
        if start not in seen:
            seen.add(start)
            comp = [start]
            for v in comp:
                for w in adjacent[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(sorted(comp))
    return comps


# ---------------------------------------------------------------------------
# Finite-type classification


def _diagram_components(matrix: CoxeterMatrix, subset: tuple[int, ...]) -> list[list[int]]:
    """Connected components of the induced diagram (edges where m >= 3 or m = oo)."""
    return _components(subset, [(a, b) for a, b in combinations(subset, 2) if matrix.m(a, b) != 2])


def _connected_component_is_finite(matrix: CoxeterMatrix, comp: list[int]) -> bool:
    """Is the connected diagram on ``comp`` of finite type?"""
    n = len(comp)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            label = matrix.m(comp[a], comp[b])
            if label == INFINITY:
                return False
            if label >= 3:
                edges.append((a, b, label))
    if n == 1:
        return True
    if n == 2:
        return True  # I2(m) for any finite m
    # Finite-type diagrams on >= 3 nodes are trees.
    if len(edges) != n - 1:
        return False
    degree = [0] * n
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    if max(degree) >= 4:
        return False
    branch_nodes = [i for i in range(n) if degree[i] == 3]
    high = sorted(label for _, _, label in edges if label > 3)
    if len(branch_nodes) >= 2:
        return False
    if branch_nodes:
        if high:
            return False  # D/E diagrams are simply laced
        # Branch lengths from the unique degree-3 node.
        lengths = sorted(_branch_length(adj, branch_nodes[0], first) for first in adj[branch_nodes[0]])
        a, b, c = lengths
        if a == b == 1:
            return True  # D_n
        return (a, b) == (1, 2) and c in (2, 3, 4)  # E6, E7, E8
    # A path: read the labels from one end.
    end = next(i for i in range(n) if degree[i] == 1)
    order = [end]
    prev = None
    while len(order) < n:
        nxt = next(x for x in adj[order[-1]] if x != prev)
        prev = order[-1]
        order.append(nxt)
    labels = [matrix.m(comp[order[i]], comp[order[i + 1]]) for i in range(n - 1)]
    if not high:
        return True  # A_n
    if len(high) > 1:
        return False
    if high[0] == 4:
        if labels[0] == 4 or labels[-1] == 4:
            return True  # B_n
        return n == 4 and labels == [3, 4, 3]  # F4
    if high[0] == 5:
        return n in (3, 4) and (labels[0] == 5 or labels[-1] == 5)  # H3, H4
    return False  # labels >= 6 are finite only in rank 2


def _branch_length(adj: dict[int, list[int]], center: int, first: int) -> int:
    length = 1
    prev, cur = center, first
    while len(adj[cur]) == 2:
        nxt = next(x for x in adj[cur] if x != prev)
        prev, cur = cur, nxt
        length += 1
    return length


def is_spherical(matrix: CoxeterMatrix, subset: tuple[int, ...]) -> bool:
    return all(_connected_component_is_finite(matrix, comp)
               for comp in _diagram_components(matrix, subset))


@dataclass(frozen=True)
class SphericalPoset:
    """All spherical subsets of one Coxeter matrix, ordered by inclusion.

    Members are kept in a deterministic order (by size, then
    lexicographically), which downstream constructions use as the canonical
    cell ordering; a member's position in it is its index.  Both models
    read the stabilizer of each member and each parabolic inclusion from
    here, by member index, so each is classified once per matrix.
    """

    matrix: CoxeterMatrix
    members: tuple[tuple[int, ...], ...]
    _stabilizers: dict[int, GroupClass] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # Each parabolic inclusion described so far, keyed sub * len(members) +
    # big, as its position in ``descriptors``, which lists every distinct
    # descriptor once.
    _inclusions: dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _shapes: dict[tuple, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _positions: dict[InclusionDescriptor, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    descriptors: list[InclusionDescriptor] = field(
        default_factory=list, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """The index of each member."""
        return {m: i for i, m in enumerate(self.members)}

    def proper_subsets(self, member: int) -> Iterator[int]:
        """The indices of the proper subsets of ``members[member]``, by size,
        then lexicographically.  Every subset of a spherical set is
        spherical, so each is a member."""
        m, index = self.members[member], self.index
        for size in range(len(m)):
            for sub in combinations(m, size):
                yield index[sub]

    def stabilizer(self, member: int) -> GroupClass:
        """``group_class_of(matrix, members[member])``, classified once."""
        found = self._stabilizers.get(member)
        if found is None:
            found = self._stabilizers[member] = group_class_of(self.matrix, self.members[member])
        return found

    def inclusion_position(self, sub: int, big: int) -> int:
        """The position in ``descriptors`` of ``parabolic_inclusion(matrix,
        members[sub], members[big])`` for members sub ⊆ big, described
        once from the memoised stabilizers; equal descriptors of different
        pairs share one."""
        key = sub * len(self.members) + big
        found = self._inclusions.get(key)
        if found is None:
            sub_class, big_class = self.stabilizer(sub), self.stabilizer(big)
            sub_set, big_set = self.members[sub], self.members[big]
            # The classes and where sub sits in big fix _inclusion_of's
            # result, so a descriptor is built and hashed once per shape.
            shape = (sub_class.kind, sub_class.param, big_class.kind, big_class.param,
                     tuple(map(big_set.index, sub_set)))
            found = self._shapes.get(shape)
            if found is None:
                desc = _inclusion_of(sub_set, big_set, sub_class, big_class)
                found = self._positions.get(desc)
                if found is None:
                    found = self._positions[desc] = len(self.descriptors)
                    self.descriptors.append(desc)
                self._shapes[shape] = found
            self._inclusions[key] = found
        return found


def enumerate_spherical_subsets(matrix: CoxeterMatrix) -> SphericalPoset:
    """All J with W_J finite, grown by size from spherical prefixes.

    Every subset of a spherical J is spherical, so J is grown from its own
    prefix by one larger generator, which yields every layer in
    lexicographic order.  Each generator has a bitmask of the generators it
    shares a finite label with; a candidate only takes an extra generator in
    the AND of its members' masks, so all of its pairs have finite labels.
    A pair with a finite label is I2(m), hence spherical, and the
    classification runs only on candidates of three or more generators.
    """
    finite = [sum(1 << j for j, label in enumerate(row) if label != INFINITY)
              for row in matrix.entries]
    members = [()]
    # Each entry: a spherical subset and the larger generators it may take.
    layer = [((), (1 << matrix.size) - 1)]
    while layer:
        grown = []
        for smaller, allowed in layer:
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                extra = low.bit_length() - 1
                cand = smaller + (extra,)
                if len(cand) < 3 or is_spherical(matrix, cand):
                    grown.append((cand, allowed & finite[extra]))
        members.extend(cand for cand, _ in grown)
        layer = grown
    return SphericalPoset(matrix, tuple(members))


def group_class_of(matrix: CoxeterMatrix, subset: tuple[int, ...]) -> GroupClass:
    """The GroupClass of the finite parabolic W_J, or an explicit refusal.

    Supported: products of A_1 factors ((Z/2)^k after canonicalization) and a
    single odd-label I2(m) factor on its own (the dihedral group D_m).
    Everything else in the finite-type catalogue (A_{>=3}, B, D, E, F, H,
    even-label I2, and any product mixing a dihedral with more factors) has
    no representation-ring support and is refused by name.
    """
    comps = _diagram_components(matrix, subset)
    if all(len(c) == 1 for c in comps):
        return elem2(len(subset))
    if len(comps) == 1 and len(comps[0]) == 2:
        label = matrix.m(comps[0][0], comps[0][1])
        if label != INFINITY and label % 2 == 1:
            return dihedral_odd(label)
        raise UnsupportedStabilizerError(
            tuple(subset), f"dihedral group of order {2 * label} (even rotation order)")
    big = max(comps, key=len)
    if len(big) == 2 and len(comps) > 1:
        raise UnsupportedStabilizerError(
            tuple(subset), "product of a dihedral factor with further generators")
    raise UnsupportedStabilizerError(
        tuple(subset),
        f"irreducible factor of rank {len(big)} on {{{', '.join(f's{i}' for i in big)}}}")


def parabolic_inclusion(matrix: CoxeterMatrix, sub: tuple[int, ...],
                        big: tuple[int, ...]) -> InclusionDescriptor:
    """Descriptor for W_sub <= W_big, sub ⊆ big, both supported."""
    if not set(sub) <= set(big):
        raise ValueError("parabolic inclusion needs sub ⊆ big")
    return _inclusion_of(sub, big, group_class_of(matrix, sub), group_class_of(matrix, big))


def _inclusion_of(sub: tuple[int, ...], big: tuple[int, ...], sub_class: GroupClass,
                  big_class: GroupClass) -> InclusionDescriptor:
    """Descriptor for W_sub <= W_big, sub ⊆ big, from their classes."""
    if sub_class.kind == "trivial":
        return trivial_in(big_class)
    big_k = elem2_exponent(big_class)
    if big_k is not None:
        ordered = sorted(big)
        injection = tuple(ordered.index(s) for s in sorted(sub))
        return elem2_subset(len(sub), big_k, injection)
    # big is an odd dihedral: the only proper supported parabolic is a
    # single reflection.
    if len(sub) == 1:
        return reflection_in_dihedral(big_class.param)
    raise UnsupportedStabilizerError(
        tuple(sub), f"no supported inclusion of {sub_class} into {big_class}")


class _Tables:
    """The stabilizer and descriptor tables of one model under construction.

    Cells and faces get indices into them by member index of the spherical
    poset, read off the poset's memo.  A table grows in the order its
    entries are first asked for, so a builder asks in the order of its
    cells and faces, the faces of each cell by index.
    """

    def __init__(self, poset: SphericalPoset):
        self.poset = poset
        self._stabilizers: dict[GroupClass, int] = {}
        # Position in the poset's descriptors -> index in this table.
        self._descriptors: dict[int, int] = {}

    def stabilizer(self, member: int) -> int:
        return intern(self._stabilizers, self.poset.stabilizer(member))

    def inclusion(self, sub: int, big: int) -> int:
        return intern(self._descriptors, self.poset.inclusion_position(sub, big))

    def complex(self, cells, labels, faces) -> OrbitComplex:
        descriptors = tuple(self.poset.descriptors[i] for i in self._descriptors)
        return OrbitComplex(tuple(self._stabilizers), descriptors, cells, labels, faces)


# ---------------------------------------------------------------------------
# Davis model: the order complex of the spherical poset


def _subset_label(j: tuple[int, ...]) -> str:
    return "{" + ",".join(f"s{i}" for i in j) + "}"


def _chain_label(name, firsts: list[list[int]], grown: list[list[int]], p: int, k: int) -> str:
    """The label of Davis p-cell k: the names of its chain's subsets, from
    J_0 up, joined by "<"."""
    parts = [name(firsts[p][k])]
    while p:
        k = grown[p][k]
        p -= 1
        parts.append(name(firsts[p][k]))
    return "<".join(parts)


def build_davis_orbit_complex(matrix: CoxeterMatrix) -> OrbitComplex:
    """Order complex of the spherical poset, with chain stabilizers.

    A p-cell is a chain J_0 < ... < J_p; its stabilizer is W_{J_0}.  Faces
    drop one entry with the usual alternating sign; dropping the minimum
    changes the stabilizer along W_{J_0} <= W_{J_1}, every other face keeps
    it.

    The vertices are the members in the poset's order.  Every longer layer
    is in lexicographic order of its chains, read as tuples of subsets; the
    members are ranked in that order.  A (p+1)-cell is J_0 followed by the
    p-cell c that it was grown from, which is its face dropping J_0:
    ``firsts[p + 1]`` holds the rank of each cell's J_0 and ``grown[p + 1]``
    the index of its c.  The cells starting at one J_0 are c over the
    p-cells starting at each larger member, in rank order, so each layer
    comes out sorted.  The face dropping entry i >= 1 of J_0 + c is J_0 +
    (the face of c dropping entry i - 1), numbered through the offsets of
    the layer's cells starting at J_0.
    """
    poset = matrix.poset
    members = poset.members
    n = len(members)
    by_rank = sorted(range(n), key=members.__getitem__)  # the member of each rank
    rank = [0] * n
    for r, i in enumerate(by_rank):
        rank[i] = r
    # above[x]: the ranks of the proper supersets of the member of rank x,
    # ascending.
    above: list[list[int]] = [[] for _ in range(n)]
    for r, i in enumerate(by_rank):
        for sub in poset.proper_subsets(i):
            above[rank[sub]].append(r)
    tables = _Tables(poset)
    # The vertices are the members in order, so this meets the stabilizers
    # in the order of the cells.
    stabilizer_of = [tables.stabilizer(i) for i in range(n)]
    by_rank_stabilizer = [stabilizer_of[i] for i in by_rank]
    cells = [tuple(stabilizer_of)]
    firsts: list[list[int]] = [rank]
    grown: list[list[int]] = [[]]
    # starting[y]: the cells of the last layer whose J_0 has rank y, as a
    # range; shift[x * n + y] + c is the index of J_x + c in the last
    # layer for a cell c one layer down starting at rank y.
    starting = [range(i, i + 1) for i in by_rank]
    shift: dict[int, int] = {}
    dims = len(members[-1]) + 1  # the longest chain has one entry per size
    # (J_0, J_1), as x * n + y for their ranks -> (coefficient, descriptor
    # index) of the face that drops entry i of a chain starting J_0 < J_1,
    # for every i.
    face_values: dict[int, tuple[tuple[int, int], ...]] = {}
    faces = []
    for p in range(dims - 1):
        # Parents and faces are read off this list, so each face key is one
        # int object shared by every cell, as with an index dict: fresh
        # ints made the validation walk a few per cent slower.
        number = list(range(len(firsts[-1])))
        first: list[int] = []
        parent: list[int] = []
        longer_shift: dict[int, int] = {}
        longer_starting = []
        for x in range(n):
            begin = len(parent)
            for y in above[x]:
                span = starting[y]
                longer_shift[x * n + y] = len(parent) - span.start
                parent.extend(number[span.start:span.stop])
            first.extend(repeat(x, len(parent) - begin))
            longer_starting.append(range(begin, len(parent)))
        lower_first = firsts[-1]
        lower_faces = faces[-1] if faces else None
        below_first = firsts[-2] if p else None
        layer = []
        for x, c in zip(first, parent):
            y = lower_first[c]
            values = face_values.get(x * n + y)
            if values is None:
                low, up = by_rank[x], by_rank[y]
                # Only the face dropping J_0 changes the stabilizer.  The
                # first chain starting J_0 < J_1 is that edge, at p = 0, and
                # the vertices are the members in order, size first, so its
                # face J_0 comes before J_1: the inclusion that keeps the
                # stabilizer is asked for first, in the order of its faces.
                kept, changed = tables.inclusion(low, low), tables.inclusion(low, up)
                values = face_values[x * n + y] = (
                    ((1, changed),) + ((-1, kept), (1, kept)) * (dims // 2))
            if p:
                xn = x * n
                js = [c, *[number[shift[xn + below_first[f]] + f] for f in lower_faces[c]]]
            else:
                js = (c, by_rank[x])
            # The faces of a chain are distinct, so no coefficient cancels.
            layer.append(dict(zip(js, values)))
        faces.append(tuple(layer))
        cells.append(tuple(map(by_rank_stabilizer.__getitem__, first)))
        firsts.append(first)
        grown.append(parent)
        starting, shift = longer_starting, longer_shift
    name = cache(lambda r: _subset_label(members[by_rank[r]]))
    labels = tuple(CellLabels(len(first), partial(_chain_label, name, firsts, grown, p))
                   for p, first in enumerate(firsts))
    return tables.complex(tuple(cells), labels, tuple(faces))


# ---------------------------------------------------------------------------
# Bestvina model: a recursive panel complex over the spherical poset


class _PanelBuilder:
    """Panel complex under construction.

    Per dimension, ``cells`` holds the cells as (panel label, boundary)
    pairs, the label a member index and the boundary listing distinct faces
    one dimension down as (index, coefficient ±1), and ``by_label`` the
    indices of the cells of each label.  An edge's boundary is head - tail,
    stored as ((head, 1), (tail, -1)).
    """

    def __init__(self):
        self.cells: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = [[]]
        self.by_label: list[dict[int, list[int]]] = [{}]

    def add(self, dim: int, label: int, boundary: list[tuple[int, int]]) -> int:
        while len(self.cells) <= dim:
            self.cells.append([])
            self.by_label.append({})
        self.cells[dim].append((label, tuple(boundary)))
        idx = len(self.cells[dim]) - 1
        self.by_label[dim].setdefault(label, []).append(idx)
        return idx


def _panel_label(members: tuple[tuple[int, ...], ...],
                 layer: list[tuple[int, tuple]], i: int) -> str:
    return f"B{_subset_label(members[layer[i][0]])}#{i}"


def build_bestvina_orbit_complex(matrix: CoxeterMatrix) -> OrbitComplex:
    """Quotient structure of the basic construction over a panel complex.

    The panel complex is a regular CW complex whose cells carry spherical
    subsets as labels.  The panel B_J is the subcomplex of cells whose label
    contains J; panels shrink as J grows.  Processing subsets J by
    decreasing size, B_J must be a compact contractible complex containing
    U = union of the B_I for I > J.  With V vertices, E edges and no cell
    above dimension 1 in U:

      * one connected component and E = V - 1, a tree (a single vertex
        included): B_J = U, nothing new;
      * V = 2 and E = 0: join the two vertices by one new edge;
      * one connected component with every vertex on exactly two edges
        (so E = V), a cycle: fill it with one new 2-cell;
      * anything else, and any U with a cell above dimension 1: cone,
        with a fresh apex vertex.  When V = 0 (no I > J), B_J is the
        cone over nothing: a new vertex.

    The first three cases and the new vertex reproduce the minimal
    complexes of the worked families (paths of braid-linked generators, and
    their polygon closures); the cone fallback is deliberately conservative
    and can exceed the minimal dimension without hurting correctness, since
    the basic construction only needs contractible panels.

    Cells and incidence numbers of the quotient are those of the panel
    complex; the stabilizer of a cell is W of its label, and every face
    relation is witnessed by the parabolic inclusion of the labels (labels
    only grow along faces).

    A cell made while processing L lies in B_I exactly when I ⊆ L, so U is
    made of the cells of the labels L ⊋ J that have cells.  Once L's panel
    has them, L joins ``above[J]`` for every proper subset J of L; so a
    panel that adds nothing costs nothing later.
    """
    poset = matrix.poset
    members = poset.members
    builder = _PanelBuilder()
    above: list[list[int]] = [[] for _ in members]
    # By decreasing size, then in member order.
    for j_set in sorted(range(len(members)), key=lambda i: (-len(members[i]), i)):
        _add_panel(builder, j_set, _collect_cells(builder, above[j_set]))
        if any(j_set in layer for layer in builder.by_label):
            for sub in poset.proper_subsets(j_set):
                above[sub].append(j_set)

    panel = builder.cells
    tables = _Tables(poset)
    cells = tuple(tuple(tables.stabilizer(label) for label, _ in layer) for layer in panel)
    labels = tuple(CellLabels(len(layer), partial(_panel_label, members, layer))
                   for layer in panel)
    faces = tuple(
        tuple({j: (coeff, tables.inclusion(label, panel[p][j][0])) for j, coeff in sorted(boundary)}
              for label, boundary in panel[p + 1])
        for p in range(len(panel) - 1))
    return tables.complex(cells, labels, faces)


def _collect_cells(builder: _PanelBuilder, labels: list[int]) -> list[list[int]]:
    """Indices, per dimension and in increasing order, of the cells of the
    given labels, listed in the order their panels were processed: of U,
    when they are the labels L ⊋ J that have cells.  A panel only makes
    cells of its own label, so each label's cells follow those of the
    labels processed before it, and the concatenation is sorted."""
    out = [[i for label in labels for i in layer.get(label, ())] for layer in builder.by_label]
    while out and not out[-1]:
        out.pop()
    return out or [[]]


def _add_panel(builder: _PanelBuilder, j_set: int, cell_idx: list[list[int]]) -> None:
    """Complete B_J from U, whose cells are ``cell_idx``, by the cases of
    ``build_bestvina_orbit_complex``."""
    vertices = cell_idx[0]
    if len(cell_idx) <= 2:  # U has no cell above dimension 1
        ends: dict[int, tuple[int, int]] = {}  # edge -> (tail, head)
        for e in cell_idx[1] if len(cell_idx) > 1 else ():
            (head, _), (tail, _) = builder.cells[1][e][1]
            ends[e] = (tail, head)
        if len(vertices) == 2 and not ends:
            builder.add(1, j_set, [(vertices[1], 1), (vertices[0], -1)])
            return
        if len(_components(vertices, ends.values())) == 1:
            if len(ends) == len(vertices) - 1:
                return  # a tree: B_J = U
            incident: dict[int, list[int]] = {v: [] for v in vertices}
            for e, (tail, head) in ends.items():
                incident[tail].append(e)
                incident[head].append(e)
            if all(len(es) == 2 for es in incident.values()):
                builder.add(2, j_set, _cycle_boundary(ends, incident, vertices[0]))
                return
    _cone(builder, j_set, cell_idx)


def _cycle_boundary(ends: dict[int, tuple[int, int]], incident: dict[int, list[int]],
                    start: int) -> list[tuple[int, int]]:
    """The boundary of a 2-cell filling a cycle of edges, each edge with
    its (tail, head) in ``ends`` and each vertex on the two edges of
    ``incident``: the cycle is walked once, from ``start`` along its
    smallest edge, and an edge crossed from tail to head counts +1, one
    crossed the other way -1."""
    boundary = []
    v, e = start, min(incident[start])
    while True:
        tail, head = ends[e]
        boundary.append((e, 1 if v == tail else -1))
        v = head if v == tail else tail
        if v == start:
            return boundary
        e = next(f for f in incident[v] if f != e)


def _cone(builder: _PanelBuilder, j_set: int, cell_idx: list[list[int]]) -> None:
    """Cone over the collected subcomplex with a fresh apex labeled J.

    Chain-level cone: for a vertex v, ∂(a*v) = v - a; in higher dimensions
    ∂(a*c) = c - a*(∂c).
    """
    apex = builder.add(0, j_set, [])
    cone_of: dict[tuple[int, int], int] = {}
    for dim, layer in enumerate(cell_idx):
        for c in layer:
            if dim == 0:
                idx = builder.add(1, j_set, [(c, 1), (apex, -1)])
            else:
                boundary = [(c, 1)]
                for face, coeff in builder.cells[dim][c][1]:
                    boundary.append((cone_of[(dim - 1, face)], -coeff))
                idx = builder.add(dim + 1, j_set, boundary)
            cone_of[(dim, c)] = idx
