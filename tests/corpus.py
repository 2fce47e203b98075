"""The byte-identity corpus: command lines whose reports must not change.

    python3 tests/corpus.py             # check every group
    python3 tests/corpus.py --record    # rewrite tests/corpus_digests.json

Each group is a deterministic list of ``properk`` command lines, run in this
process through ``properk.cli.main``.  A run is recorded as its argv, exit
status and stdout; a group's digest is the SHA-256 over its records in
order, and a shorter digest per argv names the first report that differs.
The input files that some command lines read (``--file``, ``--from-complex``)
are written to a temporary working directory and named by relative paths,
since a loaded dump's path appears in its report.

A change that alters reports on purpose re-records the affected groups and
names each group, with the reason, in CHANGES.md.  ``tests/test_corpus.py``
runs a fixed subset of every group; the full check is a CI step.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from inputs import (  # noqa: E402
    TREE_DUMPS, mislabeled_edge_dump, right_angled_corpus, vertex_edge_dump, z3_square)
from properk import cli  # noqa: E402
from properk.coxeter import (  # noqa: E402
    CoxeterMatrix, build_bestvina_orbit_complex, build_davis_orbit_complex)
from properk.orbit import AmalgamSpec, build_amalgam_orbit_complex  # noqa: E402

DIGESTS = HERE / "corpus_digests.json"
SHORT = 16  # hex digits kept per argv

THEORIES = ("k", "ko")
# What each model is asked for: every page emit under K and KO, with and
# without --check, and the complex once, since it does not depend on the
# theory.  --model both prints the Davis page, so it runs the results only.
PAGE_EMITS = (("--emit", "result"), ("--emit", "result", "--check"),
              ("--emit", "e2page"), ("--emit", "cochain"))
DUMP_EMITS = (("--emit", "result"), ("--emit", "e2page"), ("--emit", "cochain"),
              ("--emit", "complex"))


@dataclass
class Group:
    name: str
    argvs: list[tuple[str, ...]] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text

    def model_runs(self, head: tuple[str, ...], results_only: bool = False) -> None:
        """Every page emit under K and KO and the complex for one input,
        ``head`` naming it; with ``results_only``, the results alone."""
        emits = PAGE_EMITS[:2] if results_only else PAGE_EMITS
        for theory in THEORIES:
            for emit in emits:
                self.argvs.append(head + ("--theory", theory) + emit)
        if not results_only:
            self.argvs.append(head + ("--theory", "k", "--emit", "complex"))


def matrix_arg(matrix: CoxeterMatrix) -> str:
    return ";".join(",".join(map(str, row)) for row in matrix.entries)


def coxeter_runs(group: Group, matrix: CoxeterMatrix) -> None:
    head = ("coxeter", "--matrix", matrix_arg(matrix))
    for model in ("davis", "bestvina"):
        group.model_runs(head + ("--model", model))
    group.model_runs(head + ("--model", "both"), results_only=True)


def amalgam_grid() -> Group:
    """r_i in {1, 3, 5, 9} and m_i in {2, 3, 4, 6}: every amalgam with k <= 1
    and 40 seeded ones each with k = 2 and k = 3."""
    rng = random.Random(20261019)
    rs, ms = (1, 3, 5, 9), (2, 3, 4, 6)
    specs = [((), (m,)) for m in ms]
    specs += [((r,), (m0, m1)) for r in rs for m0 in ms for m1 in ms]
    for k in (2, 3):
        specs += [(tuple(rng.choice(rs) for _ in range(k)),
                   tuple(rng.choice(ms) for _ in range(k + 1))) for _ in range(40)]
    group = Group("amalgam-grid")
    for r, m in specs:
        group.model_runs(("amalgam", "--r", ",".join(map(str, r)),
                          "--m", ",".join(map(str, m))))
    return group


def right_angled() -> Group:
    """The tests' right-angled corpus under each model."""
    group = Group("right-angled")
    for matrix in right_angled_corpus():
        coxeter_runs(group, matrix)
    return group


def families() -> Group:
    """The path and polygon families, and a few other matrices: odd and
    even dihedral labels, a label 5, D_inf^2 and D_inf^3, one and no
    generators.  The ones with no closed form refuse --check."""
    group = Group("coxeter-families")
    matrices = [CoxeterMatrix.path_family(n) for n in (1, 2, 3, 4, 5, 6, 8, 12)]
    matrices += [CoxeterMatrix.polygon_family(n) for n in (2, 3, 4, 5, 6, 8, 12)]
    dinf = [[1, 0, 2, 2, 2, 2], [0, 1, 2, 2, 2, 2], [2, 2, 1, 0, 2, 2],
            [2, 2, 0, 1, 2, 2], [2, 2, 2, 2, 1, 0], [2, 2, 2, 2, 0, 1]]
    matrices += [CoxeterMatrix.from_rows(rows) for rows in (
        [[1, 3], [3, 1]], [[1, 5], [5, 1]], [[1, 4], [4, 1]], [[1, 0], [0, 1]],
        [[1, 3, 0], [3, 1, 3], [0, 3, 1]], [[1, 5, 2], [5, 1, 0], [2, 0, 1]],
        [[1, 3, 3], [3, 1, 3], [3, 3, 1]], [row[:4] for row in dinf[:4]], dinf,
        [[1]], [])]
    for matrix in matrices:
        coxeter_runs(group, matrix)
    return group


def diagram(size: int, labels: dict[tuple[int, int], int]) -> str:
    """The --matrix text of the Coxeter diagram on ``size`` nodes whose
    edges (a, b), a < b, carry ``labels``; every other pair commutes."""
    return ";".join(",".join(str(1 if a == b else labels.get((min(a, b), max(a, b)), 2))
                             for b in range(size)) for a in range(size))


def path(*labels: int) -> str:
    """The --matrix text of the path diagram with these edge labels."""
    return diagram(len(labels) + 1, {(i, i + 1): label for i, label in enumerate(labels)})


def classification() -> Group:
    """Diagrams of rank >= 3 that reach every case of the finite-type
    classification, under K on each model.

    A4, B3, B4, F4, H3, H4, D4, D5 and E6 are finite, so each is refused:
    Bestvina names the largest spherical subset, the whole set, which pins
    the classification.  The near-misses are infinite: D~4 (a node of
    degree 4), D~5 (two branch nodes) and a branch with a label 4 are
    refused on a smaller subset, and the paths with labels (5, 5) and
    (3, 7) give results."""
    matrices = [path(3, 3, 3), path(4, 3), path(4, 3, 3), path(3, 4, 3), path(5, 3),
                path(5, 3, 3),
                diagram(4, {(0, 1): 3, (1, 2): 3, (1, 3): 3}),  # D4
                diagram(5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (2, 4): 3}),  # D5
                diagram(6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3}),  # E6
                diagram(5, {(0, 1): 3, (0, 2): 3, (0, 3): 3, (0, 4): 3}),  # D~4
                diagram(6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}),  # D~5
                diagram(4, {(0, 1): 4, (1, 2): 3, (1, 3): 3}),  # a branch with a label 4
                path(5, 5), path(3, 7)]
    group = Group("classification")
    for matrix in matrices:
        for model in ("davis", "bestvina"):
            group.argvs.append(("coxeter", "--matrix", matrix, "--model", model, "--theory", "k"))
    return group


def _corrupted(layers: list[dict]) -> dict[str, list[dict]]:
    """Variants of a dump of dimension >= 1, each broken in one way."""
    def copy():
        return json.loads(json.dumps(layers))

    out = {}
    first = layers[0]
    if first["cells"]:
        v = copy()
        v[0]["cells"][0]["stabilizer"] = {"cyclic": 5}
        out["stabilizer"] = v
    listed = first.get("descriptors", [])
    if not listed:
        return out
    rows = first["incidence"]
    j, k = listed[0]["row"], listed[0]["col"]
    for name, value in (("zeroed", 0), ("flipped", -rows[j][k]), ("doubled", 2 * rows[j][k])):
        v = copy()
        v[0]["incidence"][j][k] = value
        out[name] = v
    v = copy()
    v[0]["descriptors"].append(dict(listed[0]))
    out["duplicated"] = v
    v = copy()
    del v[0]["descriptors"][0]
    out["missing"] = v
    v = copy()
    v[0]["descriptors"][0]["row"] = len(rows)
    out["out-of-table"] = v
    v = copy()
    v[0]["descriptors"].reverse()
    out["reversed"] = v
    other = next((d for d in listed if d["descriptor"] != listed[0]["descriptor"]), None)
    if other is not None:
        v = copy()
        a, b = v[0]["descriptors"][0], v[0]["descriptors"][listed.index(other)]
        a["descriptor"], b["descriptor"] = b["descriptor"], a["descriptor"]
        out["swapped"] = v
    return out


def dumps() -> Group:
    """``--from-complex`` dumps of each model, hand-built complexes and
    corrupted variants, through both subcommands."""
    sources = {
        "davis-triangle": build_davis_orbit_complex(
            CoxeterMatrix.from_rows([[1, 3, 3], [3, 1, 3], [3, 3, 1]])),
        "bestvina-triangle": build_bestvina_orbit_complex(
            CoxeterMatrix.from_rows([[1, 3, 3], [3, 1, 3], [3, 3, 1]])),
        "davis-square": build_davis_orbit_complex(CoxeterMatrix.from_rows(
            [[1, 2, 0, 2], [2, 1, 2, 0], [0, 2, 1, 2], [2, 0, 2, 1]])),
        "bestvina-path4": build_bestvina_orbit_complex(CoxeterMatrix.path_family(4)),
        "davis-label5": build_davis_orbit_complex(
            CoxeterMatrix.from_rows([[1, 5, 2], [5, 1, 0], [2, 0, 1]])),
        "amalgam-3-5": build_amalgam_orbit_complex(AmalgamSpec((3, 5), (2, 3, 4))),
        "amalgam-1-3": build_amalgam_orbit_complex(AmalgamSpec((1, 3), (2, 3, 4))),
        "amalgam-even": build_amalgam_orbit_complex(AmalgamSpec((2,), (3, 2))),
        "z3-square": z3_square(),
        "z3-square-pendant": z3_square(pendant=True),
    }
    layers = {name: cx.to_json() for name, cx in sources.items()}
    layers.update(TREE_DUMPS)
    point = {"label": "c", "stabilizer": "trivial"}
    layers["s3"] = [{"dim": 0, "cells": [point], "incidence": [[]], "descriptors": []},
                    {"dim": 1, "cells": [], "incidence": [], "descriptors": []},
                    {"dim": 2, "cells": [], "incidence": [], "descriptors": []},
                    {"dim": 3, "cells": [point]}]
    for name in list(layers):
        for broken, variant in _corrupted(layers[name]).items():
            layers[f"{name}.{broken}"] = variant
    group = Group("dumps")
    for name, dump in layers.items():
        path = f"dumps/{name}.json"
        group.files[path] = json.dumps(dump, sort_keys=True)
        for command in ("amalgam", "coxeter"):
            for theory in THEORIES:
                for emit in DUMP_EMITS:
                    group.argvs.append((command, "--theory", theory, "--from-complex", path) + emit)
    return group


def refusals() -> Group:
    """One command line per way of refusing: too_large, the unsupported
    stabilizers and restrictions, no_collapse and invalid_input.

    A refusal whose message quotes a TypeError raised inside Python (a dump
    that is not a list, say) is left out: CPython words those differently
    from one version to the next, so its digest would hold on one only."""
    group = Group("refusals")
    inputs = [  # (command, flag, name, text)
        ("amalgam", "--file", "string-r", '{"r": "35", "m": [2, 2, 2]}'),
        ("amalgam", "--file", "float-r", '{"r": [3.9], "m": [2, 2]}'),
        ("amalgam", "--file", "bool-r", '{"r": [true], "m": [2, 2]}'),
        ("amalgam", "--file", "huge-r", '{"r": [1e400], "m": [2, 2]}'),
        ("amalgam", "--file", "no-m", '{"r": [3]}'),
        ("amalgam", "--file", "not-json", '{"r": [3], '),
        ("coxeter", "--file", "float-label", '{"size": 2, "m": [[1, 2.7], [2.7, 1]]}'),
        ("coxeter", "--file", "huge-size", '{"size": 1e400, "m": []}'),
        ("coxeter", "--file", "ragged", '{"size": 3, "m": [[1, 2, 2], [2, 1, 2], [2]]}'),
        ("coxeter", "--file", "asymmetric", '{"size": 2, "m": [[1, 3], [4, 1]]}'),
        ("amalgam", "--from-complex", "huge-stabilizer", vertex_edge_dump('{"cyclic": 1e400}')),
        ("coxeter", "--from-complex", "float-incidence", vertex_edge_dump('"trivial"', "1.0")),
        ("coxeter", "--from-complex", "false-incidence",
         vertex_edge_dump('"trivial"', "1, false")),
        ("amalgam", "--from-complex", "no-dim", '[{"cells": []}]'),
        ("amalgam", "--from-complex", "no-extra", json.dumps(
            [{"dim": 0, "cells": [{"label": "v", "stabilizer": "trivial"}], "incidence": [[1]],
              "descriptors": [{"row": 0, "col": 0, "descriptor": {"kind": "cyclic_in_cyclic"}}]},
             {"dim": 1, "cells": [{"label": "e", "stabilizer": "trivial"}]}])),
        ("coxeter", "--from-complex", "label-not-string", json.dumps(
            [{"dim": 0, "cells": [{"label": "v", "stabilizer": "trivial"},
                                  {"label": {"weird": [1, 2]}, "stabilizer": "trivial"}]}])),
        ("coxeter", "--from-complex", "rotation", json.dumps(
            [{"dim": 0, "cells": [{"label": "v0", "stabilizer": {"dihedral_odd": 3}},
                                  {"label": "v1", "stabilizer": {"dihedral_odd": 3}}],
              "incidence": [[1], [-1]],
              "descriptors": [{"row": j, "col": 0, "descriptor": {
                  "kind": "rotation_in_dihedral", "sub": {"cyclic": 3},
                  "big": {"dihedral_odd": 3}, "extra": [3]}} for j in (0, 1)]},
             {"dim": 1, "cells": [{"label": "e", "stabilizer": {"cyclic": 3}}]}])),
        ("coxeter", "--from-complex", "elem2-of-cyclic", json.dumps(
            [{"dim": 0, "cells": [{"label": "v", "stabilizer": {"cyclic": 3}}],
              "incidence": [[1]],
              "descriptors": [{"row": 0, "col": 0, "descriptor": {
                  "kind": "elem2_subset", "sub": {"cyclic": 2}, "big": {"cyclic": 3},
                  "extra": [0]}}]},
             {"dim": 1, "cells": [{"label": "e", "stabilizer": {"cyclic": 2}}]}])),
        ("amalgam", "--from-complex", "mislabeled-edge", json.dumps(mislabeled_edge_dump())),
    ]
    for command, flag, name, text in inputs:
        path = f"input/{name}.json"
        group.files[path] = text
        for theory in THEORIES:
            group.argvs.append((command, flag, path, "--theory", theory))
    d_inf4 = ";".join(",".join("1" if a == b else "0" if a // 2 == b // 2 else "2"
                               for b in range(8)) for a in range(8))
    unsupported = ("1,3,2,3;3,1,3,2;2,3,1,3;3,2,3,1",  # A3 = S4 (affine A3)
                   "1,4;4,1", "1,6,2;6,1,0;2,0,1",     # even dihedral labels
                   "1,3,2;3,1,2;2,2,1",                # D3 x Z2
                   "1,3,2;3,1,3;2,3,1")                # A3
    for matrix in unsupported:
        for model in ("davis", "bestvina", "both"):
            for theory in THEORIES:
                group.argvs.append(("coxeter", "--matrix", matrix, "--model", model,
                                    "--theory", theory))
    for emit in ("result", "e2page", "cochain"):
        group.argvs.append(("amalgam", "--r", "2", "--m", "3,2", "--theory", "ko", "--emit", emit))
        group.argvs.append(("amalgam", "--r", "3,4", "--m", "2,2,2", "--theory", "ko",
                            "--emit", emit))
    group.argvs += [
        ("amalgam", "--r", "3", "--m", "100000000,2", "--theory", "ko", "--emit", "cochain"),
        ("amalgam", "--r", "3", "--m", "1000000000,2", "--theory", "k", "--emit", "cochain"),
        ("coxeter", "--matrix", d_inf4, "--model", "davis", "--theory", "ko", "--emit", "cochain"),
        ("coxeter", "--matrix", "1,3;4,1", "--theory", "k"),
        ("coxeter", "--matrix", "1,2,2;2,1,2;2", "--theory", "k"),
        ("coxeter", "--matrix", "1,x;x,1", "--theory", "k"),
        ("coxeter", "--theory", "k"),
        ("coxeter", "--matrix", "1,3,3,3;3,1,0,0;3,0,1,0;3,0,0,1", "--theory", "k", "--check"),
        ("coxeter", "--from-complex", "input/missing.json", "--theory", "k"),
        ("amalgam", "--r", "1", "--m", "1,2"),
        ("amalgam", "--r", "0", "--m", "2,2"),
        ("amalgam", "--r", "3", "--m", "2"),
        ("amalgam", "--r", "3,x", "--m", "2,2,2"),
        ("amalgam", "--file", "input/missing.json"),
        ("amalgam", "--r", "3", "--m", "2,2", "--out", "missing/out.json"),
        ("amalgam", "--r", "3", "--m", "2,2", "--out", "input"),
        ("amalgam", "--r", "2", "--m", "3,2", "--theory", "ko", "--out", "missing/out.json"),
    ]
    return group


def descriptor_dump(vertex, edge, descriptor: dict, incidence: list | None = None) -> str:
    """A one-vertex, one-edge dump as JSON text, its one face along
    ``descriptor``."""
    return json.dumps([
        {"dim": 0, "cells": [{"label": "v", "stabilizer": vertex}],
         "incidence": incidence or [[1]],
         "descriptors": [{"row": 0, "col": 0, "descriptor": descriptor}]},
        {"dim": 1, "cells": [{"label": "e", "stabilizer": edge}]}])


def two_sphere_dump() -> str:
    """The 2-sphere as two vertices, two edges between them and two discs
    on the loop they make, every stabilizer trivial, as JSON text."""
    face = {"kind": "trivial_in_anything", "sub": "trivial", "big": "trivial"}
    layers = []
    for dim, (labels, incidence) in enumerate([(("v0", "v1"), [[-1, -1], [1, 1]]),
                                               (("e0", "e1"), [[1, 1], [-1, -1]]),
                                               (("f0", "f1"), None)]):
        layer = {"dim": dim, "cells": [{"label": label, "stabilizer": "trivial"}
                                       for label in labels]}
        if incidence:
            layer["incidence"] = incidence
            layer["descriptors"] = [{"row": j, "col": k, "descriptor": face}
                                    for j in range(2) for k in range(2)]
        layers.append(layer)
    return json.dumps(layers)


def moore_space_dump() -> str:
    """One vertex, three loops a, b and c, and three discs with boundaries
    2a, 3b and 4c, every stabilizer trivial, as JSON text: H^0 = Z and
    H^2 = Z/2 ⊕ Z/12, the Smith form of diag(2, 3, 4)."""
    face = {"kind": "trivial_in_anything", "sub": "trivial", "big": "trivial"}
    return json.dumps([
        {"dim": 0, "cells": [{"label": "v", "stabilizer": "trivial"}],
         "incidence": [[0, 0, 0]], "descriptors": []},
        {"dim": 1, "cells": [{"label": label, "stabilizer": "trivial"} for label in "abc"],
         "incidence": [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
         "descriptors": [{"row": j, "col": j, "descriptor": face} for j in range(3)]},
        {"dim": 2, "cells": [{"label": label, "stabilizer": "trivial"} for label in "fgh"]}])


def cli_paths() -> Group:
    """Inputs that reach the loaders', validators' and abutment's branches
    no other group reaches: a --check whose label-3 graph is not connected,
    inline and --file matrices that fail validation, a whole --emit complex
    report read back, dumps that break the complex or name a group or an
    inclusion that cannot exist, the 2-sphere, whose K^0 abutment is an
    extension of two free pieces (p = 0 and 2), which splits, and a wedge
    of Moore spaces, whose d_1 needs the dense Smith form and whose K^0
    abutment is an extension of Z and Z/2 ⊕ Z/12, its invariant factors 2
    and 12 merged into the divisor chain.  Every one but the read-back
    report and the two spaces is refused with invalid_input."""
    group = Group("cli-paths")
    group.argvs += [
        ("coxeter", "--matrix", "1,3,0,0;3,1,0,0;0,0,1,3;0,0,3,1", "--theory", "k", "--check"),
        ("coxeter", "--matrix", "2,2;2,1", "--theory", "k"),
        ("coxeter", "--matrix", "1,1;1,1", "--theory", "k"),
    ]
    elem2_in_elem2 = {"kind": "elem2_subset", "sub": {"elem2": 2}, "big": {"elem2": 2}}
    amalgam = build_amalgam_orbit_complex(AmalgamSpec((3,), (2, 2)))
    inputs = [  # (command, flag, name, text)
        ("coxeter", "--file", "short-rows", '{"size": 3, "m": [[1, 2], [2, 1]]}'),
        ("amalgam", "--from-complex", "whole-report", json.dumps(
            {"group": "Z6 *_Z3 Z6", "complex": amalgam.to_json()}, sort_keys=True)),
        ("coxeter", "--from-complex", "empty", "[]"),
        ("coxeter", "--from-complex", "dimension-gap", json.dumps(
            [{"dim": 0, "cells": [{"label": "v", "stabilizer": "trivial"}]},
             {"dim": 2, "cells": [{"label": "f", "stabilizer": "trivial"}]}])),
        ("coxeter", "--from-complex", "wide-incidence", descriptor_dump(
            "trivial", "trivial", {"kind": "trivial_in_anything", "sub": "trivial",
                                   "big": "trivial"}, [[1, 0]])),
        ("coxeter", "--from-complex", "foreign-sub", descriptor_dump(
            {"cyclic": 3}, "trivial", {"kind": "cyclic_in_cyclic", "sub": {"cyclic": 3},
                                       "big": {"cyclic": 3}, "extra": [3, 1]})),
        ("coxeter", "--from-complex", "bogus-group", vertex_edge_dump('"bogus"')),
        ("coxeter", "--from-complex", "cyclic-0", vertex_edge_dump('{"cyclic": 0}')),
        ("coxeter", "--from-complex", "elem2-negative", vertex_edge_dump('{"elem2": -1}')),
        ("coxeter", "--from-complex", "dihedral-even", vertex_edge_dump('{"dihedral_odd": 4}')),
        ("coxeter", "--from-complex", "cyclic-in-cyclic-r0", descriptor_dump(
            {"cyclic": 3}, {"cyclic": 3}, {"kind": "cyclic_in_cyclic", "sub": {"cyclic": 3},
                                           "big": {"cyclic": 3}, "extra": [0, 1]})),
        ("coxeter", "--from-complex", "elem2-not-injective", descriptor_dump(
            {"elem2": 2}, {"elem2": 2}, {**elem2_in_elem2, "extra": [0, 0]})),
        ("coxeter", "--from-complex", "elem2-out-of-range", descriptor_dump(
            {"elem2": 2}, {"cyclic": 2}, {**elem2_in_elem2, "sub": {"cyclic": 2}, "extra": [2]})),
        ("coxeter", "--from-complex", "two-sphere", two_sphere_dump()),
        ("coxeter", "--from-complex", "moore-space", moore_space_dump()),
    ]
    for command, flag, name, text in inputs:
        path = f"input/{name}.json"
        group.files[path] = text
        group.argvs.append((command, flag, path, "--theory", "k"))
    return group


GROUPS = (amalgam_grid, right_angled, families, dumps, refusals, classification,
          cli_paths)


def run_one(argv: tuple[str, ...]) -> bytes:
    """The record of one run: argv, exit status and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    return f"{json.dumps(list(argv))}\n{status}\n{out.getvalue()}".encode()


@contextlib.contextmanager
def workdir(group: Group):
    """A temporary working directory holding the group's input files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for path, text in group.files.items():
            target = Path(tmp, path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def argv_digest(group: Group) -> str:
    """Digest of the command lines alone, so a changed generator shows
    apart from changed reports."""
    return hashlib.sha256(json.dumps(group.argvs).encode()).hexdigest()


def run_group(group: Group, indices=None) -> tuple[str, list[str]]:
    """The group digest over every run, and the short digest of each run
    (of those at ``indices`` only, when given; the group digest is then
    over those runs)."""
    whole = hashlib.sha256()
    short = []
    with workdir(group):
        for i, argv in enumerate(group.argvs):
            if indices is not None and i not in indices:
                continue
            record = run_one(argv)
            whole.update(record)
            short.append(hashlib.sha256(record).hexdigest()[:SHORT])
    return whole.hexdigest(), short


def main(argv: list[str]) -> int:
    record = argv == ["--record"]
    if argv and not record:
        raise SystemExit(__doc__)
    recorded = {} if record else json.loads(DIGESTS.read_text())
    failed = False
    for make in GROUPS:
        group = make()
        digest, short = run_group(group)
        print(f"{group.name}: {len(group.argvs)} runs, sha256 {digest}")
        if record:
            recorded[group.name] = {"argvs": argv_digest(group), "sha256": digest, "runs": short}
            continue
        want = recorded[group.name]
        if want["argvs"] != argv_digest(group):
            print(f"  {group.name}: the command lines differ from the recorded ones")
            failed = True
        elif want["sha256"] != digest:
            first = next(i for i, (a, b) in enumerate(zip(want["runs"], short)) if a != b)
            print(f"  {group.name}: run {first} differs: {' '.join(group.argvs[first])}")
            failed = True
    if record:
        DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
        print(f"recorded {len(recorded)} groups in {DIGESTS}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
