"""The inputs that both the tests and the byte-identity corpus
(``corpus.py``) read: the random right-angled corpus, a dimension-2 complex
with complex-type stabilizers, and ``--from-complex`` dumps.  It imports
neither pytest nor hypothesis, so the corpus and ``reach.py`` run without
the test extras; ``conftest.py`` re-exports it."""

from __future__ import annotations

import random

from properk import CoxeterMatrix, OrbitComplex
from properk.coxeter import INFINITY, build_davis_orbit_complex
from properk.groups import cyclic, cyclic_in_cyclic, trivial, trivial_in


def random_right_angled(rng: random.Random, size: int, p_commute: float = 0.4) -> CoxeterMatrix:
    rows = [[INFINITY] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 1
        for j in range(i + 1, size):
            label = 2 if rng.random() < p_commute else INFINITY
            rows[i][j] = rows[j][i] = label
    return CoxeterMatrix.from_rows(rows)


def right_angled_corpus(count: int = 50, seed: int = 20240601) -> list[CoxeterMatrix]:
    """Deterministic corpus of distinct right-angled matrices on <= 6
    generators.

    A matrix drawn before is skipped, and matrices whose Davis model would
    be disproportionately large are resampled, to keep the exact-arithmetic
    suite at desk scale.
    """
    rng = random.Random(seed)
    out: list[CoxeterMatrix] = []
    while len(out) < count:
        size = rng.randint(2, 6)
        matrix = random_right_angled(rng, size)
        if matrix in out or sum(build_davis_orbit_complex(matrix).counts()) > 900:
            continue
        out.append(matrix)
    return out


def z3_square(pendant: bool = False) -> OrbitComplex:
    """A complex of dimension 2 with complex-type stabilizers: two Z3
    vertices, two Z3 edges a and b each joined to both of them, and one
    free 2-cell with boundary a - b.

    With ``pendant``, a third Z3 vertex v2 hangs off v1 by a Z3 edge c.
    The peel of d_0 takes c alone, from its free vertex v2, so each part of
    the real complex, written whole, holds peeled rows beside kept ones,
    and the page reduces d_0 to the kept rows of a and b."""
    z3, free = 0, 1  # stabilizer table indices
    vertex_edge, edge_face = 0, 1  # descriptor table indices
    square = ({0: (1, vertex_edge), 1: (-1, vertex_edge)},   # a
              {0: (1, vertex_edge), 1: (-1, vertex_edge)})   # b
    if pendant:
        cells = ((z3, z3, z3), (z3, z3, z3), (free,))
        labels = (("v0", "v1", "v2"), ("a", "b", "c"), ("f",))
        edges = square + ({1: (1, vertex_edge), 2: (-1, vertex_edge)},)  # c
    else:
        cells = ((z3, z3), (z3, z3), (free,))
        labels = (("v0", "v1"), ("a", "b"), ("f",))
        edges = square
    faces = (edges, ({0: (1, edge_face), 1: (-1, edge_face)},))  # f
    return OrbitComplex((cyclic(3), trivial()), (cyclic_in_cyclic(3, 1), trivial_in(cyclic(3))),
                        cells, labels, faces)


def cyclic_tree_dump(vertices, edges) -> list[dict]:
    """A ``--from-complex`` dump of dimension 1: vertices with the given
    cyclic orders and, per edge, (order, {vertex: incidence}), the edge
    group embedded in each of its vertex groups."""
    def embed(r, s):
        return {"kind": "cyclic_in_cyclic", "sub": {"cyclic": r}, "big": {"cyclic": s},
                "extra": [r, s // r]}

    return [{"dim": 0,
             "cells": [{"label": f"v{j}", "stabilizer": {"cyclic": s}}
                       for j, s in enumerate(vertices)],
             "incidence": [[ends.get(j, 0) for _, ends in edges] for j in range(len(vertices))],
             "descriptors": [{"row": j, "col": k, "descriptor": embed(r, vertices[j])}
                             for j in range(len(vertices))
                             for k, (r, ends) in enumerate(edges) if j in ends]},
            {"dim": 1, "cells": [{"label": f"e{k}", "stabilizer": {"cyclic": r}}
                                 for k, (r, _) in enumerate(edges)]}]


# Trees with a leaf edge of incidence 2 or 3 at its leaf.  The star and the
# pair peel no edge; the path peels both, the one of incidence 2 from its
# other end.
TREE_DUMPS = {
    "star": cyclic_tree_dump([15, 21, 9], [(3, {0: -1, 1: 2}), (3, {0: -1, 2: 3})]),
    "pair": cyclic_tree_dump([15, 21], [(3, {0: 2, 1: -3})]),
    "path": cyclic_tree_dump([21, 15, 35], [(3, {0: 2, 1: -1}), (5, {1: 1, 2: -1})]),
}


def mislabeled_edge_dump() -> list[dict]:
    """The tree of Z6 *_Z3 Z15 with the edge's descriptor into Z6 written
    with sub D5 and big Z7, though its kind and extra give Z3 <= Z6."""
    dump = cyclic_tree_dump([6, 15], [(3, {0: 1, 1: -1})])
    dump[0]["descriptors"][0]["descriptor"].update(sub={"dihedral_odd": 5}, big={"cyclic": 7})
    return dump


def vertex_edge_dump(stabilizer: str, incidence: str = "1") -> str:
    """A one-vertex, one-edge dump as JSON text, so that numbers like 1e400
    reach the loader as written."""
    return ('[{"dim": 0, "cells": [{"label": "v", "stabilizer": %s}], "incidence": [[%s]],'
            ' "descriptors": [{"row": 0, "col": 0, "descriptor":'
            ' {"kind": "trivial_in_anything", "sub": "trivial", "big": %s}}]},'
            ' {"dim": 1, "cells": [{"label": "e", "stabilizer": "trivial"}]}]'
            % (stabilizer, incidence, stabilizer))
