import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from properk.abelian import IntMatrix
from properk.cli import main
from properk.coxeter import CoxeterMatrix, build_bestvina_orbit_complex, build_davis_orbit_complex
from properk.groups import cyclic, cyclic_in_cyclic, trivial
from properk.orbit import (
    AmalgamSpec,
    Cell,
    OrbitComplex,
    OrbitComplexError,
    build_amalgam_orbit_complex,
)


def test_amalgam_spec_validation():
    with pytest.raises(ValueError):
        AmalgamSpec(r=(1,), m=(1, 2))  # m_i = 1 could be removed
    with pytest.raises(ValueError):
        AmalgamSpec(r=(0,), m=(2, 2))
    with pytest.raises(ValueError):
        AmalgamSpec(r=(1, 1), m=(2, 2))  # length mismatch


def test_infinite_dihedral_path():
    spec = AmalgamSpec(r=(1,), m=(2, 2))
    x = build_amalgam_orbit_complex(spec)
    assert x.counts() == (2, 1)
    assert [c.stabilizer for c in x.cells[0]] == [cyclic(2), cyclic(2)]
    assert x.cells[1][0].stabilizer == trivial()
    assert x.incidence[0].to_rows() == [[1], [-1]]


def test_sl2z_path():
    spec = AmalgamSpec(r=(2,), m=(3, 2))
    assert spec.describe() == "Z6 *_Z2 Z4"
    x = build_amalgam_orbit_complex(spec)
    assert [c.stabilizer for c in x.cells[0]] == [cyclic(6), cyclic(4)]
    assert [c.stabilizer for c in x.cells[1]] == [cyclic(2)]
    assert x.descriptors[0][(0, 0)] == cyclic_in_cyclic(2, 3)
    assert x.descriptors[0][(1, 0)] == cyclic_in_cyclic(2, 2)


def test_single_vertex_amalgam():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(), m=(5,)))
    assert x.counts() == (1,)
    assert x.cells[0][0].stabilizer == cyclic(5)


def test_longer_amalgam_stabilizers():
    # Z_{3*5} *_{Z_3} Z_{3*7*2} *_{Z_7} Z_{7*4}
    spec = AmalgamSpec(r=(3, 7), m=(5, 2, 4))
    x = build_amalgam_orbit_complex(spec)
    assert [c.stabilizer for c in x.cells[0]] == [cyclic(15), cyclic(42), cyclic(28)]
    assert [c.stabilizer for c in x.cells[1]] == [cyclic(3), cyclic(7)]
    assert x.incidence[0].to_rows() == [[1, 0], [-1, 1], [0, -1]]


def test_orbit_complex_validation_catches_bad_descriptors():
    cells = ((Cell("v", cyclic(4)),), (Cell("e", cyclic(2)),))
    inc = (IntMatrix.from_rows([[1]]),)
    with pytest.raises(OrbitComplexError):
        OrbitComplex(cells, inc, ({},))  # missing descriptor at a nonzero entry
    with pytest.raises(OrbitComplexError):
        # descriptor does not match the face stabilizer
        OrbitComplex(cells, inc, ({(0, 0): cyclic_in_cyclic(2, 3)},))


def test_orbit_complex_json_roundtrip():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2, 1), m=(3, 2, 2)))
    assert OrbitComplex.from_json(x.to_json()) == x


def test_bookkeeping_error_names_the_first_offending_pair():
    cells = ((Cell("v0", cyclic(4)), Cell("v1", cyclic(4))),
             (Cell("e0", cyclic(2)), Cell("e1", cyclic(2))))
    inc = (IntMatrix.from_rows([[0, 1], [1, 0]]),)
    # (1, 0) is nonzero without a descriptor; (1, 1) has one but is zero.
    descs = {(0, 1): cyclic_in_cyclic(2, 2), (1, 1): cyclic_in_cyclic(2, 2)}
    with pytest.raises(OrbitComplexError, match=r"at dim 0, cell pair \(1, 0\)$"):
        OrbitComplex(cells, inc, (descs,))


# Davis and Bestvina models of dimension >= 2: D_inf^2, a group with labels
# 2, 3 and infinity, and the polygon family.
BOUNDARY_MODELS = [
    build_davis_orbit_complex(CoxeterMatrix.from_rows([[1, 2, 3], [2, 1, 0], [3, 0, 1]])),
    build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(3)),
] + [build(CoxeterMatrix.from_rows([[1, 0, 2, 2], [0, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]]))
     for build in (build_davis_orbit_complex, build_bestvina_orbit_complex)]


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
    rows = x.incidence[p].to_rows()
    rows[j][k] = new
    incidence = x.incidence[:p] + (IntMatrix.from_rows(rows, cols=x.incidence[p].cols),) \
        + x.incidence[p + 1:]
    with pytest.raises(OrbitComplexError) as err:
        OrbitComplex(x.cells, incidence, x.descriptors)
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
