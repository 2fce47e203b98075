import pytest

from properk.abelian import IntMatrix
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
