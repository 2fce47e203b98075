import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from properk.abelian import IntMatrix
from properk.cli import main
from properk.coxeter import CoxeterMatrix, build_bestvina_orbit_complex, build_davis_orbit_complex
from properk.groups import cyclic, cyclic_in_cyclic, trivial, trivial_in
from properk.orbit import (
    AmalgamSpec,
    OrbitComplex,
    OrbitComplexError,
    build_amalgam_orbit_complex,
)
from conftest import BOUNDARY_MODELS, z3_square


def test_amalgam_spec_validation():
    with pytest.raises(ValueError):
        AmalgamSpec(r=(1,), m=(1, 2))  # m_i = 1 could be removed
    with pytest.raises(ValueError):
        AmalgamSpec(r=(0,), m=(2, 2))
    with pytest.raises(ValueError):
        AmalgamSpec(r=(1, 1), m=(2, 2))  # length mismatch


def stabilizers(x, p):
    """The stabilizers of the p-cells of x, read off its table."""
    return [x.stabilizers[s] for s in x.cells[p]]


def test_infinite_dihedral_path():
    spec = AmalgamSpec(r=(1,), m=(2, 2))
    x = build_amalgam_orbit_complex(spec)
    assert x.counts() == (2, 1)
    assert x.stabilizers == (cyclic(2), trivial())
    assert x.cells == ((0, 0), (1,))
    assert x.labels == (("v0", "v1"), ("e1",))
    assert stabilizers(x, 1) == [trivial()]
    assert x.incidence[0].to_rows() == [[1], [-1]]


def test_sl2z_path():
    spec = AmalgamSpec(r=(2,), m=(3, 2))
    assert spec.describe() == "Z6 *_Z2 Z4"
    x = build_amalgam_orbit_complex(spec)
    assert stabilizers(x, 0) == [cyclic(6), cyclic(4)]
    assert stabilizers(x, 1) == [cyclic(2)]
    assert x.descriptors == (cyclic_in_cyclic(2, 3), cyclic_in_cyclic(2, 2))
    assert x.faces[0][0] == {0: (1, 0), 1: (-1, 1)}


def test_single_vertex_amalgam():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(), m=(5,)))
    assert x.counts() == (1,)
    assert (x.stabilizers, x.descriptors) == ((cyclic(5),), ())
    assert (x.cells, x.labels) == (((0,),), (("v0",),))


def test_longer_amalgam_stabilizers():
    # Z_{3*5} *_{Z_3} Z_{3*7*2} *_{Z_7} Z_{7*4}
    spec = AmalgamSpec(r=(3, 7), m=(5, 2, 4))
    x = build_amalgam_orbit_complex(spec)
    assert stabilizers(x, 0) == [cyclic(15), cyclic(42), cyclic(28)]
    assert stabilizers(x, 1) == [cyclic(3), cyclic(7)]
    assert x.incidence[0].to_rows() == [[1, 0], [-1, 1], [0, -1]]


# One Z4 vertex and one Z2 edge through it, with the one descriptor Z2 <= Z4:
# the cells, then their labels.
Z4_Z2 = (cyclic(4), cyclic(2))
VERTEX_EDGE = (((0,), (1,)), (("v",), ("e",)))


def test_orbit_complex_validation_catches_bad_descriptors():
    edge = OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 2),), *VERTEX_EDGE, (({0: (1, 0)},),))
    assert edge.incidence[0].to_rows() == [[1]]
    with pytest.raises(OrbitComplexError, match="does not land in the face's stabilizer"):
        OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 1),), *VERTEX_EDGE, (({0: (1, 0)},),))
    with pytest.raises(OrbitComplexError, match="does not start at the higher cell's stabilizer"):
        OrbitComplex(Z4_Z2, (cyclic_in_cyclic(4, 1),), *VERTEX_EDGE, (({0: (1, 0)},),))
    for face in ({0: (0, 0)}, {1: (1, 0)}):
        with pytest.raises(OrbitComplexError, match="out of range or has coefficient 0"):
            OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 2),), *VERTEX_EDGE, ((face,),))
    # A dump can hold a nonzero entry without a descriptor.
    dump = edge.to_json()
    dump[0]["descriptors"] = []
    with pytest.raises(OrbitComplexError, match=r"at dim 0, cell pair \(0, 0\)$"):
        OrbitComplex.from_json(dump)


@pytest.mark.parametrize("index", [1, -1])
def test_descriptor_index_out_of_range_is_refused(index):
    with pytest.raises(OrbitComplexError,
                       match=r"^descriptor index at dim 0 \(0,0\) is out of range$"):
        OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 2),), *VERTEX_EDGE, (({0: (1, index)},),))


@pytest.mark.parametrize("index", [2, -1])
def test_cell_stabilizer_index_out_of_range_is_refused(index):
    cells, labels = ((0,), (1, index)), (("v",), ("e0", "e1"))
    with pytest.raises(OrbitComplexError,
                       match=r"^stabilizer index of cell 1 at dim 1 is out of range$"):
        OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 2),), cells, labels,
                     (({0: (1, 0)}, {0: (1, 0)}),))


@pytest.mark.parametrize("labels", [(("v",), ()), (("v",), ("e", "f")), (("v",),)],
                         ids=["missing", "extra", "no-layer"])
def test_one_label_per_cell_is_required(labels):
    with pytest.raises(OrbitComplexError, match=r"^need one label per cell$"):
        OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 2),), VERTEX_EDGE[0], labels,
                     (({0: (1, 0)},),))


def test_repeated_stabilizer_is_refused():
    with pytest.raises(OrbitComplexError, match=r"^the stabilizer table repeats Z4$"):
        OrbitComplex(Z4_Z2 + (cyclic(4),), (cyclic_in_cyclic(2, 2),), *VERTEX_EDGE,
                     (({0: (1, 0)},),))


@pytest.mark.parametrize("desc, end", [(trivial_in(cyclic(4)), "1"),
                                       (cyclic_in_cyclic(2, 3), "Z6")], ids=["sub", "big"])
def test_descriptor_end_outside_the_stabilizer_table_is_refused(desc, end):
    # A face that uses the descriptor is named; an unused one is refused
    # from the table.
    side = "start at the higher cell's" if end == "1" else "land in the face's"
    with pytest.raises(OrbitComplexError,
                       match=rf"^descriptor at dim 0 \(0,0\) does not {side} stabilizer$"):
        OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 2), desc), *VERTEX_EDGE, (({0: (1, 1)},),))
    message = f"^descriptor {re.escape(str(desc))} has an end, {end}, outside the stabilizer table$"
    with pytest.raises(OrbitComplexError, match=message):
        OrbitComplex(Z4_Z2, (cyclic_in_cyclic(2, 2), desc), *VERTEX_EDGE, (({0: (1, 0)},),))


def test_orbit_complex_json_roundtrip():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2, 1), m=(3, 2, 2)))
    assert OrbitComplex.from_json(x.to_json()) == x


D_INF_4 = CoxeterMatrix.from_rows([[1 if a == b else 0 if a // 2 == b // 2 else 2
                                    for b in range(8)] for a in range(8)])


@pytest.mark.parametrize("build, sizes", [(build_davis_orbit_complex, (5, 30, 75)),
                                          (build_bestvina_orbit_complex, (5, 22, 41))],
                         ids=["davis", "bestvina"])
def test_dinf4_tables_are_small(build, sizes):
    # Thousands of faces share a few dozen restriction blocks, and tens of
    # thousands of 2-paths a few dozen pairs of composites to compare.
    x = build(D_INF_4)
    assert (len(x.stabilizers), len(x.descriptors), len(x.coherence)) == sizes
    used = {d for layer in x.faces for faces in layer for _, d in faces.values()}
    assert used == set(range(len(x.descriptors)))
    assert {s for cells in x.cells for s in cells} == set(range(len(x.stabilizers)))


@pytest.mark.parametrize("x", BOUNDARY_MODELS + [z3_square()])
def test_coherence_pairs_every_path_with_the_first_of_its_ends(x):
    # For each (p+2)-cell l and p-cell j, every descriptor pair (e, d) of a
    # path l -> k -> j that differs from the first path's, listed once.
    expected: dict = {}
    for p in range(x.dim - 1):
        for top in x.faces[p + 1]:
            paths: dict = {}
            for k, (_, e) in top.items():
                for j, (_, d) in x.faces[p][k].items():
                    paths.setdefault(j, []).append((e, d))
            for first, *rest in paths.values():
                expected.update(((*first, *path), None) for path in rest if path != first)
    assert x.coherence == tuple(expected)
    assert list(x.incidence) == [
        IntMatrix.from_sparse(len(x.cells[p]), len(layer),
                              [{k: c for k, faces in enumerate(layer)
                                for i, (c, _) in faces.items() if i == j}
                               for j in range(len(x.cells[p]))])
        for p, layer in enumerate(x.faces)]


@pytest.mark.parametrize("x", [
    build_davis_orbit_complex(CoxeterMatrix.from_rows([[1, 3, 2], [3, 1, 0], [2, 0, 1]])),
    build_bestvina_orbit_complex(CoxeterMatrix.from_rows([[1, 3, 2], [3, 1, 0], [2, 0, 1]])),
    build_davis_orbit_complex(D_INF_4),
    build_bestvina_orbit_complex(D_INF_4),
    build_amalgam_orbit_complex(AmalgamSpec(r=(3, 7), m=(5, 2, 4))),
    z3_square(),
], ids=["davis", "bestvina", "davis-dinf4", "bestvina-dinf4", "amalgam", "z3-square"])
def test_dump_roundtrip_keeps_the_tables_in_order(x):
    text = json.dumps(x.to_json())
    y = OrbitComplex.from_json(json.loads(text))
    assert json.dumps(y.to_json()) == text
    assert (y.stabilizers, y.descriptors) == (x.stabilizers, x.descriptors)
    assert y == x


def test_bookkeeping_error_names_the_first_offending_pair():
    z4, z2, z2_in_z4 = {"cyclic": 4}, {"cyclic": 2}, cyclic_in_cyclic(2, 2).to_json()
    dump = [{"dim": 0,
             "cells": [{"label": "v0", "stabilizer": z4}, {"label": "v1", "stabilizer": z4}],
             "incidence": [[0, 1], [1, 0]],
             # (1, 0) is nonzero without a descriptor; (1, 1) has one but is zero.
             "descriptors": [{"row": 0, "col": 1, "descriptor": z2_in_z4},
                             {"row": 1, "col": 1, "descriptor": z2_in_z4}]},
            {"dim": 1,
             "cells": [{"label": "e0", "stabilizer": z2}, {"label": "e1", "stabilizer": z2}]}]
    with pytest.raises(OrbitComplexError, match=r"at dim 0, cell pair \(1, 0\)$"):
        OrbitComplex.from_json(dump)


@pytest.mark.parametrize("first", [0, 1], ids=["wrong-first", "right-first"])
def test_repeated_descriptor_in_a_dump_is_refused(tmp_path, capsys, first):
    # Whichever of two descriptors at (0, 0) comes first, the dump is refused.
    dump = build_amalgam_orbit_complex(AmalgamSpec(r=(1,), m=(2, 2))).to_json()
    wrong = {"row": 0, "col": 0, "descriptor": cyclic_in_cyclic(1, 3).to_json()}
    dump[0]["descriptors"].insert(first, wrong)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(dump))
    assert main(["amalgam", "--theory", "k", "--from-complex", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "invalid_input",
        "message": "bad orbit complex JSON: repeated descriptor at dim 0, cell pair (0, 0)"}


@st.composite
def corrupted_boundaries(draw):
    """A model, one nonzero incidence entry (p, j, k) and a new nonzero
    value for it that makes a product of adjacent boundaries nonzero.

    Moving entry (j, k) of incidence[p] changes row j of
    incidence[p]·incidence[p+1] by a multiple of row k of incidence[p+1],
    and column k of incidence[p-1]·incidence[p] by one of column j of
    incidence[p-1]; an entry is drawn only where one of them is nonzero.
    """
    x = draw(st.sampled_from(BOUNDARY_MODELS))
    inc = x.incidence

    def breaks(p, j, k):
        return ((p + 1 < len(inc) and inc[p + 1].data[k])
                or (p > 0 and any(row.get(j) for row in inc[p - 1].data)))

    entries = [(p, j, k) for p, m in enumerate(inc) for j, row in enumerate(m.data)
               for k in row if breaks(p, j, k)]
    p, j, k = draw(st.sampled_from(entries))
    old = inc[p].data[j][k]
    new = draw(st.integers(-3, 3).filter(lambda v: v not in (0, old)))
    return x, p, j, k, new


@given(corrupted_boundaries())
def test_boundary_that_does_not_square_to_zero_is_refused(case):
    x, p, j, k, new = case
    layer = list(x.faces[p])
    layer[k] = {**layer[k], j: (new, layer[k][j][1])}
    with pytest.raises(OrbitComplexError) as err:
        OrbitComplex(x.stabilizers, x.descriptors, x.cells, x.labels,
                     x.faces[:p] + (tuple(layer),) + x.faces[p + 1:])
    message = str(err.value)
    assert message in {f"boundary does not square to zero at dimension {q}" for q in (p - 1, p)}
    dump = x.to_json()
    dump[p]["incidence"][j][k] = new
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corrupted.json"
        path.write_text(json.dumps(dump))
        out = Path(tmp) / "report.json"
        assert main(["coxeter", "--theory", "ko", "--from-complex", str(path),
                     "--out", str(out)]) == 1
        error = json.loads(out.read_text())["error"]
    assert error == {"kind": "invalid_input", "message": f"bad orbit complex JSON: {message}"}


def without_apex(x: OrbitComplex, name: int) -> OrbitComplex:
    """The cells of a certified complex whose apex is not ``name``, with
    their cones: with the empty set's name, the Davis chains that start at
    a nonempty member, which no face of theirs does either.  Its cells of
    top dimension have several apexes."""
    apexes, bases = x.cones
    keep = [[k for k, a in enumerate(layer) if a != name] for layer in apexes]
    while not keep[-1]:
        keep.pop()
    number = [{k: i for i, k in enumerate(layer)} for layer in keep]

    def pick(table):
        return tuple(tuple(table[p][k] for k in layer) for p, layer in enumerate(keep))

    faces = tuple(tuple({number[p][j]: v for j, v in x.faces[p][k].items()} for k in layer)
                  for p, layer in enumerate(keep[1:]))
    cones = ([list(layer) for layer in pick(apexes)],
             [[]] + [[number[p - 1][bases[p][k]] for k in keep[p]] for p in range(1, len(keep))])
    return OrbitComplex(x.stabilizers, x.descriptors, pick(x.cells), pick(x.labels), faces, cones)


def with_trivial_stabilizers(x: OrbitComplex) -> OrbitComplex:
    """x with every stabilizer trivial, and so one descriptor: every pair
    of paths meets with equal descriptors."""
    faces = tuple(tuple({j: (coeff, 0) for j, (coeff, _) in cell.items()} for cell in layer)
                  for layer in x.faces)
    return OrbitComplex((trivial(),), (trivial_in(trivial()),),
                        tuple((0,) * len(layer) for layer in x.cells), x.labels, faces, x.cones)


# Davis complexes of dimension 2 and 3, each built with its cones, the
# chains of D_inf^3 that start at a nonempty member, and D_inf^2 with
# trivial stabilizers.
CERTIFIED = [build_davis_orbit_complex(CoxeterMatrix.from_rows(rows)) for rows in (
    [[1, 2, 3], [2, 1, 0], [3, 0, 1]],
    [[1, 0, 2, 2], [0, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]],
    [[1 if a == b else 0 if a // 2 == b // 2 else 2 for b in range(6)] for a in range(6)])]
CERTIFIED += [without_apex(CERTIFIED[2], CERTIFIED[2].cones[0][0][0]),
              with_trivial_stabilizers(CERTIFIED[1])]


def outcome(tables, cones):
    """The coherence of the complex with these tables and cones, or the
    type and message of its refusal."""
    try:
        return OrbitComplex(*tables, cones).coherence
    except OrbitComplexError as exc:
        return type(exc), str(exc)


@st.composite
def mutated_cones(draw):
    """The tables and cones of a certified Davis complex, copied, with one
    face, coefficient, descriptor index, order of faces, apex or base
    changed, or one cell given a twin: a cell with its faces and its (apex,
    base) pair, which one face of a higher cell points to instead.  The
    descriptor table ends in a copy of each descriptor, which has its ends
    but is another descriptor."""
    x = draw(st.sampled_from(CERTIFIED))
    descriptors = x.descriptors + tuple(dataclasses.replace(d, extra=d.extra + (-1,))
                                        for d in x.descriptors)
    cells, labels = list(map(list, x.cells)), list(map(list, x.labels))
    faces = [list(map(dict, layer)) for layer in x.faces]
    apexes, bases = ([list(layer) for layer in table] for table in x.cones)
    kind = draw(st.sampled_from(["coefficient", "descriptor", "face", "drop", "order",
                                 "apex", "base"] + ["twin"] * (x.dim > 2)))
    # A twin is made one layer down, and a cell over it may tell it apart.
    p = draw(st.integers(2, x.dim - 1) if kind == "twin" else st.integers(1, x.dim))
    k = draw(st.integers(0, len(x.cells[p]) - 1))
    items = list(faces[p - 1][k].items())
    i = draw(st.integers(0, len(items) - 1))
    j, (coeff, d) = items[i]
    if kind == "coefficient":
        items[i] = j, (draw(st.integers(-2, 2).filter(lambda c: c != coeff)), d)
    elif kind == "descriptor":
        # Any descriptor, or the copy of this one.
        copy = d + len(x.descriptors)
        items[i] = j, (coeff, draw(st.integers(0, len(descriptors) - 1) | st.just(copy)))
    elif kind == "face":
        # Another cell with the face's base and stabilizer, if there is
        # one, else any cell.
        alike = [m for m in range(len(x.cells[p - 1])) if p > 1 and m != j
                 and (bases[p - 1][m], x.cells[p - 1][m]) == (bases[p - 1][j], x.cells[p - 1][j])]
        items[i] = draw(st.sampled_from(alike) if alike
                        else st.integers(-1, len(x.cells[p - 1]))), (coeff, d)
    elif kind == "drop":
        del items[i]
    elif kind == "order":
        items.insert(draw(st.integers(0, len(items) - 1)), items.pop(i))
    elif kind == "apex":
        apexes[p][k] = draw(st.integers(-1, len(x.cells[0])))
    elif kind == "base":
        bases[p][k] = draw(st.integers(-1, len(x.cells[p - 1])))
    else:  # a twin of face j of cell k
        twin = len(cells[p - 1])
        cells[p - 1].append(cells[p - 1][j])
        labels[p - 1].append("twin")
        faces[p - 2].append(dict(faces[p - 2][j]))
        apexes[p - 1].append(apexes[p - 1][j])
        bases[p - 1].append(bases[p - 1][j])
        items[i] = twin, (coeff, d)
    faces[p - 1][k] = dict(items)
    tables = (x.stabilizers, descriptors, tuple(map(tuple, cells)), tuple(map(tuple, labels)),
              tuple(map(tuple, faces)))
    return tables, (apexes, bases)


@settings(max_examples=1000)
@given(mutated_cones())
def test_cones_give_the_walks_outcome(case):
    # Whatever one change does to a certified complex, its certificate
    # gives the coherence, or the refusal, that the walk gives: where the
    # change breaks the certificate, the walk decides.
    tables, cones = case
    assert outcome(tables, cones) == outcome(tables, None)


@pytest.mark.parametrize("x", CERTIFIED)
def test_reordered_cones_keep_the_walk_order(x):
    # The faces of each cell other than its base, in reverse: the
    # certificate still holds, and reads the pairs in the walk's new order.
    faces = tuple(tuple({**dict([next(iter(cell.items()))]), **dict(reversed(cell.items()))}
                        for cell in layer) for layer in x.faces)
    assert x._cone_coherence(*x.cones) is not None
    tables = (x.stabilizers, x.descriptors, x.cells, x.labels, faces)
    reordered = OrbitComplex(*tables, x.cones)
    assert reordered._cone_coherence(*x.cones) is not None
    assert reordered.coherence == outcome(tables, None)
    assert set(reordered.coherence) == set(x.coherence)
