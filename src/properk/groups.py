"""Symbolic finite groups in scope and the inclusions between them.

The catalogue is exactly what the supported models produce as cell
stabilizers: the trivial group, finite cyclic groups, elementary abelian
2-groups (Z/2)^k, and dihedral groups of twice-odd order.  An inclusion is
recorded symbolically, up to conjugacy; that is enough because every
coefficient system in use is invariant under conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache


class UnsupportedRestrictionError(ValueError):
    """An inclusion/degree combination whose restriction map is out of scope."""


def json_int(x) -> int:
    """``x`` if it is a JSON integer: every ``from_json`` loader reads its
    numbers through this, so a string, a float or a boolean is refused
    rather than converted."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


TRIVIAL = "trivial"
CYCLIC = "cyclic"
ELEM2 = "elem2"
DIHEDRAL_ODD = "dihedral_odd"


@dataclass(frozen=True)
class GroupClass:
    """One of: trivial, Z/m, (Z/2)^k, or the dihedral group of order 2m (m odd).

    Construct through the factory functions below; they canonicalize the
    overlapping small cases (Cyclic(1) and Elem2(0) are the trivial group,
    Elem2(1) is Cyclic(2)).
    """

    kind: str
    param: int = 0

    def __str__(self) -> str:
        if self.kind == TRIVIAL:
            return "1"
        if self.kind == CYCLIC:
            return f"Z{self.param}"
        if self.kind == ELEM2:
            return f"(Z2)^{self.param}"
        return f"D{self.param}"

    def to_json(self):
        if self.kind == TRIVIAL:
            return "trivial"
        return {self.kind: self.param}

    @classmethod
    def from_json(cls, data) -> "GroupClass":
        if data == "trivial":
            return trivial()
        if isinstance(data, dict) and len(data) == 1:
            kind, param = next(iter(data.items()))
            if kind == CYCLIC:
                return cyclic(json_int(param))
            if kind == ELEM2:
                return elem2(json_int(param))
            if kind == DIHEDRAL_ODD:
                return dihedral_odd(json_int(param))
        raise ValueError(f"unrecognized group serialization: {data!r}")


def trivial() -> GroupClass:
    return GroupClass(TRIVIAL, 0)


def cyclic(m: int) -> GroupClass:
    if m < 1:
        raise ValueError("cyclic order must be >= 1")
    if m == 1:
        return trivial()
    return GroupClass(CYCLIC, m)


@cache
def elem2(k: int) -> GroupClass:
    if k < 0:
        raise ValueError("elem2 exponent must be >= 0")
    if k == 0:
        return trivial()
    if k == 1:
        return cyclic(2)
    return GroupClass(ELEM2, k)


@cache
def dihedral_odd(m: int) -> GroupClass:
    if m < 3 or m % 2 == 0:
        raise ValueError("dihedral_odd requires an odd m >= 3")
    return GroupClass(DIHEDRAL_ODD, m)


def elem2_exponent(g: GroupClass) -> int | None:
    """k such that g ≅ (Z/2)^k, or None if g is not of that shape."""
    if g.kind == TRIVIAL:
        return 0
    if g.kind == CYCLIC and g.param == 2:
        return 1
    if g.kind == ELEM2:
        return g.param
    return None


CYCLIC_IN_CYCLIC = "cyclic_in_cyclic"
ELEM2_SUBSET = "elem2_subset"
REFLECTION_IN_DIHEDRAL = "reflection_in_dihedral"
TRIVIAL_IN_ANYTHING = "trivial_in_anything"
# Length of ``extra`` for the kinds whose parameters have a fixed count.
_EXTRA_ARITY = {CYCLIC_IN_CYCLIC: 2, REFLECTION_IN_DIHEDRAL: 1, TRIVIAL_IN_ANYTHING: 0}


@dataclass(frozen=True)
class InclusionDescriptor:
    """A conjugacy class of inclusions sub <= big.

    kinds:
      cyclic_in_cyclic       Z/r <= Z/(m·r), the canonical index-m embedding;
                             extra = (r, m)
      elem2_subset           coordinate embedding (Z/2)^j <= (Z/2)^k;
                             extra = tuple mapping sub coordinate i to a big
                             coordinate
      reflection_in_dihedral Z/2 generated by a reflection inside D_m
      trivial_in_anything    the trivial subgroup
    """

    kind: str
    sub: GroupClass
    big: GroupClass
    extra: tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"{self.sub} <= {self.big} [{self.kind}]"

    def to_json(self) -> dict:
        return {"kind": self.kind, "sub": self.sub.to_json(),
                "big": self.big.to_json(), "extra": list(self.extra)}

    @classmethod
    def from_json(cls, data: dict) -> "InclusionDescriptor":
        """The descriptor that ``kind`` and ``extra`` build, with ``big`` for
        the kinds that read it.  The written ``sub`` and ``big``, which
        ``to_json`` always writes, must be its groups."""
        kind = data["kind"]
        extra = tuple(json_int(x) for x in data.get("extra", ()))
        arity = _EXTRA_ARITY.get(kind)
        if arity is not None and len(extra) != arity:
            raise ValueError(f"{kind} descriptor needs an extra of length {arity}, "
                             f"got {len(extra)}")
        if kind == CYCLIC_IN_CYCLIC:
            built = cyclic_in_cyclic(extra[0], extra[1])
        elif kind == ELEM2_SUBSET:
            big = GroupClass.from_json(data["big"])
            k = elem2_exponent(big)
            if k is None:
                raise ValueError(f"{kind} descriptor needs an elementary abelian 2-group "
                                 f"as big, got {big}")
            built = elem2_subset(len(extra), k, extra)
        elif kind == REFLECTION_IN_DIHEDRAL:
            built = reflection_in_dihedral(extra[0])
        elif kind == TRIVIAL_IN_ANYTHING:
            built = trivial_in(GroupClass.from_json(data["big"]))
        else:
            raise ValueError(f"unrecognized inclusion kind: {kind!r}")
        for name, group in (("sub", built.sub), ("big", built.big)):
            written = GroupClass.from_json(data[name])
            if written != group:
                raise ValueError(f"{kind} descriptor has {name} {written}, "
                                 f"but its kind and extra give {group}")
        return built


def cyclic_in_cyclic(r: int, m: int) -> InclusionDescriptor:
    """The canonical embedding Z/r <= Z/(m·r)."""
    if r < 1 or m < 1:
        raise ValueError("cyclic_in_cyclic requires r >= 1 and m >= 1")
    return InclusionDescriptor(CYCLIC_IN_CYCLIC, cyclic(r), cyclic(m * r), (r, m))


def elem2_subset(sub_k: int, big_k: int, injection: tuple[int, ...]) -> InclusionDescriptor:
    """(Z/2)^sub_k <= (Z/2)^big_k along an injection of coordinate indices."""
    if len(injection) != sub_k:
        raise ValueError("injection length must equal the sub exponent")
    if len(set(injection)) != sub_k:
        raise ValueError("injection must be injective")
    if any(not 0 <= i < big_k for i in injection):
        raise ValueError("injection targets out of range")
    return InclusionDescriptor(ELEM2_SUBSET, elem2(sub_k), elem2(big_k), tuple(injection))


def reflection_in_dihedral(m: int) -> InclusionDescriptor:
    return InclusionDescriptor(REFLECTION_IN_DIHEDRAL, cyclic(2), dihedral_odd(m), (m,))


def trivial_in(big: GroupClass) -> InclusionDescriptor:
    return InclusionDescriptor(TRIVIAL_IN_ANYTHING, trivial(), big)
