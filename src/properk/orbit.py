"""Quotient cell structures of proper G-CW models, and Bass-Serre path models.

An OrbitComplex records, per dimension, the orbit cells as the indices of
their stabilizer classes and, per cell of positive dimension, its faces: each
face one dimension down with the signed incidence integer of the quotient
CW structure and an inclusion descriptor witnessing that the stabilizer of
the higher cell embeds in the stabilizer of the face.  Stabilizers and
descriptors are interned: a model with thousands of faces has a few dozen
distinct ones, kept in one table each and referred to by index.  Validation
checks every face, then proves ∂∘∂ = 0 and lists the pairs of composite
restrictions whose agreement proves that the Bredon cochain complex squares
to zero too.  A builder whose cells are cones, as the Davis model's are,
hands over a certificate that names each cell's apex and base, and both
facts are read off it in time linear in the faces.  Any other complex, a
loaded dump included, and one whose certificate does not hold, is proved by
a walk over every 2-path of faces, keyed by these indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import eq
from typing import Callable, Sequence

from .abelian import IntMatrix
from .groups import GroupClass, InclusionDescriptor, cyclic, cyclic_in_cyclic, json_int


class OrbitComplexError(ValueError):
    """Cells and faces that are not a valid quotient CW structure."""


def intern(table: dict, item) -> int:
    """The index of ``item`` in ``table``, a dict from each item to its
    position, appending it if it is new."""
    return table.setdefault(item, len(table))


class CellLabels:
    """The labels of one dimension's cells, label i made by ``name(i)``
    only when it is read.

    It has ``len``, indexing and iteration, and it equals, and hashes as,
    the tuple of its labels: a built complex equals its replay from a dump,
    which holds that tuple.
    """

    __slots__ = ("_count", "_name")

    def __init__(self, count: int, name: Callable[[int], str]):
        self._count = count
        self._name = name

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> str:
        return self._name(range(self._count)[i])

    def __iter__(self):
        return map(self._name, range(self._count))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, CellLabels)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class OrbitComplex:
    """Cells per dimension, and the faces of every higher cell.

    ``stabilizers`` and ``descriptors`` hold each distinct stabilizer and
    inclusion descriptor once, in order of first occurrence: stabilizers
    over the cells by dimension, descriptors over the faces by dimension,
    higher cell and face index.  ``cells[p][j]`` is the index of p-cell j's
    stabilizer in the first table, and ``labels[p][j]`` its name, which
    only the dump reads: a builder may pass ``CellLabels`` that make each
    name when it is read.  ``faces[p][k]`` maps each p-cell j in the boundary of
    (p+1)-cell k to (coefficient, descriptor index): the nonzero signed
    coefficient of j in the boundary of k, and the inclusion stab(k) <=
    stab(j).

    Validation first checks every face: its cell and coefficient, and the
    ends of its descriptor.  It then proves ∂∘∂ = 0 and records
    ``coherence``, the pairs of descriptors to compare along the 2-paths
    l → k → j, l a (p+2)-cell, k a face of l and j a face of k, with β the
    coefficient and e the descriptor of k in l, α and d those of j in k.
    The sum of β·α over the paths from l to j is entry (j, l) of
    ∂_p∂_{p+1}, and must vanish.  ``coherence`` holds, for each (l, j),
    every descriptor pair (e, d) unlike the first one seen there, as
    (e0, d0, e, d), each once, in the order of a walk over l, then k and j
    in the order of the faces.  The block from j to l of the Bredon
    d_{p+1}·d_p is Σ β·α·R_e·R_d over those paths, for restriction blocks
    R, so where every recorded pair has the composite R_e·R_d of its first
    pair, the block is (∂∂)_{jl}·R_e0·R_d0 = 0 (``bredon._assemble``).

    Without ``cones`` both are found by walking every 2-path.  A builder
    whose cells are cones passes ``cones`` = (apexes, bases) instead.
    ``apexes[p][k]`` names the apex of p-cell k and, for p >= 1,
    ``bases[p][k]`` is the index of its base, a (p-1)-cell: k is the cone
    over its base from the vertex that ``apexes[0]`` gives that name.  The
    certificate holds when

    1. no two vertices have one name, and no two cells of one layer have
       one (apex, base) pair, so the cell of a pair (a, f), if any, is
       written (a, f);
    2. each edge has the stabilizer of its apex, and so, by 4 and the face
       checks, does every cell;
    3. the faces of a p-cell k with apex a and base b are b with +1 first,
       then either a with -1 (p = 1), or, in any order, the cell (a, f)
       with minus f's coefficient in b, for each face f of b;
    4. all the faces but the first of all the cells with apex a have one
       descriptor index, ι.

    Then ∂k = b - a∗∂b, for a∗ the map from each cell f to (a, f), so
    ∂∂k = a∗∂∂b = 0 by induction on p.  Neither b nor a face f of b has
    apex a: by 3 on the layers below, b would be (a, g) for its own base g,
    and so a face of k twice, and (a, f) would have f among its faces
    twice.  So the 2-paths from k that meet again are k → b → f and
    k → (a, f) → f, whose pairs are read face by face in walk order, and
    those through several (a, f) to one cell, whose pairs are all (ι, ι).
    A certificate that does not hold is no error: the walk decides, with
    its own messages.
    """

    stabilizers: tuple[GroupClass, ...]
    descriptors: tuple[InclusionDescriptor, ...]
    cells: tuple[tuple[int, ...], ...]
    labels: tuple[Sequence[str], ...]
    faces: tuple[tuple[dict[int, tuple[int, int]], ...], ...] = field(hash=False)
    cones: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]] | None = field(
        default=None, repr=False, compare=False)
    coherence: tuple[tuple[int, int, int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = len(self.cells)
        if dims == 0:
            raise OrbitComplexError("a complex needs at least dimension 0")
        if list(map(len, self.faces)) != list(map(len, self.cells[1:])):
            raise OrbitComplexError("need one face table per cell of positive dimension")
        if list(map(len, self.labels)) != list(map(len, self.cells)):
            raise OrbitComplexError("need one label per cell")
        position = {g: i for i, g in enumerate(self.stabilizers)}
        if len(position) != len(self.stabilizers):
            repeated = next(g for i, g in enumerate(self.stabilizers) if position[g] != i)
            raise OrbitComplexError(f"the stabilizer table repeats {repeated}")
        for p, indices in enumerate(self.cells):
            if indices and not (min(indices) >= 0 and max(indices) < len(position)):
                i = next(i for i, s in enumerate(indices) if not 0 <= s < len(position))
                raise OrbitComplexError(f"stabilizer index of cell {i} at dim {p} is out of range")
        # Each descriptor's ends, looked up once so that every face is
        # checked by comparing indices; -1 for an end outside the table.
        subs = [position.get(desc.sub, -1) for desc in self.descriptors]
        bigs = [position.get(desc.big, -1) for desc in self.descriptors]
        count = len(subs)
        for p, layer in enumerate(self.faces):
            lower, higher = self.cells[p], self.cells[p + 1]
            width = len(lower)
            for k, faces in enumerate(layer):
                sub = higher[k]
                for j, (coeff, d) in faces.items():
                    if not (0 <= j < width and coeff):
                        raise OrbitComplexError(
                            f"face at dim {p} ({j},{k}) is out of range or has coefficient 0")
                    if not 0 <= d < count:
                        raise OrbitComplexError(
                            f"descriptor index at dim {p} ({j},{k}) is out of range")
                    if subs[d] != sub:
                        raise OrbitComplexError(
                            f"descriptor at dim {p} ({j},{k}) does not start at the higher cell's stabilizer")
                    if bigs[d] != lower[j]:
                        raise OrbitComplexError(
                            f"descriptor at dim {p} ({j},{k}) does not land in the face's stabilizer")
        # A descriptor with an end outside the table fails the checks above
        # at any face that uses it; one that no face uses is refused here.
        for desc, sub, big in zip(self.descriptors, subs, bigs):
            if sub < 0 or big < 0:
                raise OrbitComplexError(
                    f"descriptor {desc} has an end, {desc.sub if sub < 0 else desc.big}, "
                    "outside the stabilizer table")
        coherence = self._cone_coherence(*self.cones) if self.cones else None
        if coherence is None:
            coherence = self._walk_coherence()
        object.__setattr__(self, "coherence", coherence)

    def _walk_coherence(self) -> tuple[tuple[int, int, int, int], ...]:
        """``coherence`` from a walk over every 2-path, which also proves
        ∂∘∂ = 0."""
        coherence: dict[tuple[int, int, int, int], None] = {}
        for p in range(len(self.cells) - 2):
            lower = self.faces[p]
            for top in self.faces[p + 1]:
                # Per face j of a face of this cell: (Σ β·α, e0, d0).
                seen: dict[int, tuple[int, int, int]] = {}
                for k, (beta, e) in top.items():
                    for j, (alpha, d) in lower[k].items():
                        if j in seen:
                            total, e0, d0 = seen[j]
                            seen[j] = (total + beta * alpha, e0, d0)
                            if e0 != e or d0 != d:
                                coherence[e0, d0, e, d] = None
                        else:
                            seen[j] = (beta * alpha, e, d)
                if any(total for total, _, _ in seen.values()):
                    raise OrbitComplexError(f"boundary does not square to zero at dimension {p}")
        return tuple(coherence)

    def _cone_coherence(self, apexes: Sequence[Sequence[int]], bases: Sequence[Sequence[int]]
                        ) -> tuple[tuple[int, int, int, int], ...] | None:
        """``coherence`` read off the cones, one layer at a time from the
        edges up, or None if they do not hold.  It runs after the face
        checks, so every face and base read here is in range."""
        cells, faces = self.cells, self.faces
        holds = (list(map(len, apexes)) == list(map(len, cells))
                 and list(map(len, bases[1:])) == list(map(len, cells[1:])))
        vertex_of = {a: v for v, a in enumerate(apexes[0])} if holds else {}
        holds = holds and len(vertex_of) == len(cells[0])
        apex_faces: dict[int, tuple[int, tuple[int, int]]] = {}  # apex a -> its edges' face a
        iotas: dict[int, int] = {}  # apex -> the descriptor of its cones' other faces
        # Every (e, d, e', d') met, those with e, d = e', d' too: the walk
        # never records them, so they are dropped at the end.
        coherence: dict[tuple[int, int, int, int], None] = {}
        base_descriptors: list[int] = []  # of each cell's base, by layer
        for p in range(1, len(cells)):
            layer, apex, base = faces[p - 1], apexes[p], bases[p]
            width = len(cells[p - 1])
            # The bases are matched to the first faces first: a base in
            # range makes a * width + b one number per pair.
            holds = (holds and (p > 1 or set(map(len, layer)) <= {2}) and 0 not in map(len, layer)
                     and all(map(eq, map(next, map(iter, layer)), base))
                     and len({a * width + b for a, b in zip(apex, base)}) == len(layer))
            lower_descriptors, base_descriptors = base_descriptors, []
            if holds and p == 1:
                for s, edge, a in zip(cells[1], layer, apex):
                    (_, (c, e)), face = edge.items()
                    expected = apex_faces.get(a)
                    if expected is None:
                        # Once per apex: its other edges start ι at the
                        # same stabilizer.
                        v, (_, iota) = face
                        expected = apex_faces[a] = (vertex_of.get(a), (-1, iota))
                        iotas[a] = iota
                        holds = holds and s == cells[0][v]
                    holds = holds and c == 1 and face == expected
                    base_descriptors.append(e)
            elif holds:
                lower, lower_apex, lower_base = faces[p - 2], apexes[p - 1], bases[p - 1]
                for cell, a in zip(layer, apex):
                    items = iter(cell.items())
                    b, (c, e) = next(items)
                    boundary = lower[b]
                    iota = iotas.get(a)
                    holds = holds and c == 1 and len(cell) == len(boundary) + 1
                    for m, (cm, dm) in items:
                        c, d = boundary.get(lower_base[m], (0, -1))
                        holds = holds and lower_apex[m] == a and cm == -c and dm == iota
                        coherence[e, d, iota, lower_descriptors[m]] = None
                    base_descriptors.append(e)
        return tuple(key for key in coherence if key[:2] != key[2:]) if holds else None

    @cached_property
    def incidence(self) -> tuple[IntMatrix, ...]:
        """``incidence[p]``, built from ``faces`` when first read: the
        boundary matrix from (p+1)-cells to p-cells, with entry (j, k) the
        coefficient of j in the boundary of k."""
        out = []
        for lower, layer in zip(self.cells, self.faces):
            rows: list[dict[int, int]] = [{} for _ in lower]
            for k, faces in enumerate(layer):
                for j, (coeff, _) in faces.items():
                    rows[j][k] = coeff
            out.append(IntMatrix(len(lower), len(layer), tuple(rows)))
        return tuple(out)

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def sorted_faces(self, p: int) -> list[tuple[int, int, int, InclusionDescriptor]]:
        """(j, k, coefficient, descriptor) for every face at dimension p,
        ordered by (j, k)."""
        return sorted((j, k, coeff, self.descriptors[d]) for k, faces in enumerate(self.faces[p])
                      for j, (coeff, d) in faces.items())

    def to_json(self) -> list[dict]:
        out = []
        for p, (cells, labels) in enumerate(zip(self.cells, self.labels)):
            entry: dict = {
                "dim": p,
                "cells": [{"label": label, "stabilizer": self.stabilizers[s].to_json()}
                          for s, label in zip(cells, labels)],
            }
            if p < self.dim:
                entry["incidence"] = self.incidence[p].to_rows()
                entry["descriptors"] = [{"row": j, "col": k, "descriptor": d.to_json()}
                                        for j, k, _, d in self.sorted_faces(p)]
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, data: list[dict]) -> "OrbitComplex":
        """Faces from a dump's incidence matrices and its descriptors, one
        for each nonzero entry (row, col) and none repeated.  Stabilizers
        and descriptors are interned in the order the tables keep.  Each
        distinct descriptor object is parsed once: objects with one
        ``repr`` are the same JSON value, types of numbers included."""
        stabilizers: dict[GroupClass, int] = {}
        cells, labels = [], []
        layers = sorted(data, key=lambda e: json_int(e["dim"]))
        for p, entry in enumerate(layers):
            if entry["dim"] != p:
                raise OrbitComplexError("dimensions must be contiguous from 0")
            pairs = [(c["label"], GroupClass.from_json(c["stabilizer"])) for c in entry["cells"]]
            for i, (label, _) in enumerate(pairs):
                if not isinstance(label, str):
                    raise OrbitComplexError(f"label of cell {i} at dim {p} is not a string")
            labels.append(tuple(label for label, _ in pairs))
            cells.append(tuple(intern(stabilizers, g) for _, g in pairs))
        descriptors: dict[InclusionDescriptor, int] = {}
        parsed: dict[str, InclusionDescriptor] = {}  # per repr of a descriptor object
        faces = []
        for p, entry in enumerate(layers[:-1]):
            rows = list(entry.get("incidence", []))
            for row in rows:  # one type check per row, not one call per entry
                if not {*map(type, row)} <= {int}:
                    list(map(json_int, row))  # raises, naming the first non-integer
            matrix = IntMatrix.from_rows(rows, cols=len(cells[p + 1]))
            listed: dict[tuple[int, int], InclusionDescriptor] = {}
            for d in entry.get("descriptors", []):
                pair = json_int(d["row"]), json_int(d["col"])
                if pair in listed:
                    raise OrbitComplexError(f"repeated descriptor at dim {p}, cell pair {pair}")
                obj = d["descriptor"]
                key = repr(obj)
                if key not in parsed:
                    parsed[key] = InclusionDescriptor.from_json(obj)
                listed[pair] = parsed[key]
            if (matrix.rows, matrix.cols) != (len(cells[p]), len(cells[p + 1])):
                raise OrbitComplexError(f"incidence matrix at dimension {p} has wrong shape")
            nonzero = {(j, k) for j, row in enumerate(matrix.data) for k in row}
            mismatch = nonzero.symmetric_difference(listed)
            if mismatch:
                j, k = min(mismatch)
                raise OrbitComplexError(
                    f"descriptor bookkeeping mismatch at dim {p}, cell pair ({j}, {k})")
            layer: list[dict] = [{} for _ in cells[p + 1]]
            for (j, k) in sorted(listed, key=lambda pair: pair[::-1]):
                layer[k][j] = (matrix.data[j][k], intern(descriptors, listed[j, k]))
            faces.append(tuple(layer))
        return cls(tuple(stabilizers), tuple(descriptors), tuple(cells), tuple(labels),
                   tuple(faces))


# ---------------------------------------------------------------------------
# Amalgamated products of finite cyclic groups


@dataclass(frozen=True)
class AmalgamSpec:
    """Z_{r1·m0} *_{Z_r1} Z_{r1·r2·m1} *_{Z_r2} ... *_{Z_rk} Z_{rk·mk}.

    Vertex group i (i = 0..k) is cyclic of order m_i·r_i·r_{i+1} with the
    boundary convention r_0 = r_{k+1} = 1; edge group i (i = 1..k) is cyclic
    of order r_i.  Every m_i must exceed 1, otherwise that factor could be
    absorbed into its neighbors.
    """

    r: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self):
        if len(self.m) != len(self.r) + 1:
            raise ValueError("need one more vertex parameter than edge parameters")
        if any(ri < 1 for ri in self.r):
            raise ValueError("edge parameters must be positive")
        if any(mi < 2 for mi in self.m):
            raise ValueError("every m_i must be at least 2")

    @property
    def k(self) -> int:
        return len(self.r)

    def r_padded(self, i: int) -> int:
        """r_i with the convention r_0 = r_{k+1} = 1."""
        if i == 0 or i == self.k + 1:
            return 1
        return self.r[i - 1]

    def vertex_order(self, i: int) -> int:
        return self.m[i] * self.r_padded(i) * self.r_padded(i + 1)

    def edge_order(self, i: int) -> int:
        return self.r[i - 1]

    def describe(self) -> str:
        parts = [f"Z{self.vertex_order(0)}"]
        for i in range(1, self.k + 1):
            parts.append(f"*_Z{self.edge_order(i)}")
            parts.append(f"Z{self.vertex_order(i)}")
        return " ".join(parts)

    @classmethod
    def from_json(cls, data: dict) -> "AmalgamSpec":
        return cls(tuple(map(json_int, data["r"])), tuple(map(json_int, data["m"])))


def build_amalgam_orbit_complex(spec: AmalgamSpec) -> OrbitComplex:
    """Quotient of the Bass-Serre tree: a path of k+1 vertices and k edges.

    Edge i joins vertices i-1 and i; its boundary is v_{i-1} - v_i, so the
    vertex-(i-1) block of the assembled Bredon differential carries the
    positive sign.
    """
    stabilizers: dict[GroupClass, int] = {}
    vertices, edges = range(spec.k + 1), range(1, spec.k + 1)
    cells = (tuple(intern(stabilizers, cyclic(spec.vertex_order(i))) for i in vertices),
             tuple(intern(stabilizers, cyclic(spec.edge_order(i))) for i in edges))
    labels = (tuple(f"v{i}" for i in vertices), tuple(f"e{i}" for i in edges))
    descriptors: dict[InclusionDescriptor, int] = {}
    faces = []
    for i in range(1, spec.k + 1):
        r = spec.edge_order(i)
        faces.append(
            {i - 1: (1, intern(descriptors, cyclic_in_cyclic(r, spec.vertex_order(i - 1) // r))),
             i: (-1, intern(descriptors, cyclic_in_cyclic(r, spec.vertex_order(i) // r)))})
    dims = 2 if spec.k else 1
    return OrbitComplex(tuple(stabilizers), tuple(descriptors), cells[:dims], labels[:dims],
                        (tuple(faces),)[:dims - 1])
