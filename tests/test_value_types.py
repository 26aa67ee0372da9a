"""The six value types of the counting path: keyword construction, repr
text, immutability, equality, hashing, and the order of Element."""

import pytest

from u6n import (
    ChainCounts,
    ChainTable,
    Element,
    GroupParams,
    Lattice,
    SubgroupDescriptor,
    cyclic,
    full,
    twisted,
)


def _lattice(n=1):
    # F(1) alone, as the one-node lattice of the lattice and chains tests
    return Lattice(params=GroupParams(n), mode="all", nodes=(full(1),),
                   orders=(6 * n,), top_index=0, coords=((0, 1),),
                   core_above=((),), column={1: [(0,)]})


_LATTICE_REPR = (
    "Lattice(params=GroupParams(n=1), mode='all', "
    "nodes=(SubgroupDescriptor(kind='F', t=1, s=None),), "
    "orders=(6,), top_index=0, coords=((0, 1),), core_above=((),), "
    "column={1: [(0,)]})"
)

#: type name -> (make a value, make a different value, its repr, hashable)
CASES = {
    "GroupParams": (lambda: GroupParams(n=5), lambda: GroupParams(6),
                    "GroupParams(n=5)", True),
    "Element": (lambda: Element(a_exp=3, b_exp=2), lambda: Element(3, 1),
                "Element(a_exp=3, b_exp=2)", True),
    "SubgroupDescriptor": (
        lambda: SubgroupDescriptor(kind="F", t=3),
        lambda: SubgroupDescriptor("C", 3),
        "SubgroupDescriptor(kind='F', t=3, s=None)", True),
    "Lattice": (_lattice, lambda: _lattice(2), _LATTICE_REPR, False),
    "ChainTable": (lambda: ChainTable(lattice=_lattice(), levels=((1,),)),
                   lambda: ChainTable(_lattice(2), ((1,),)),
                   f"ChainTable(lattice={_LATTICE_REPR}, levels=((1,),))", False),
    "ChainCounts": (lambda: ChainCounts(n=5, mode="all", per_length=(1, 4)),
                    lambda: ChainCounts(5, "normal", (1, 4)),
                    "ChainCounts(n=5, mode='all', per_length=(1, 4))", True),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_repr_equality_hash_and_immutability(name):
    make, other, text, hashable = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    assert a != other() and not a == other()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other()}) == 2
    else:  # a Lattice holds its columns in a dict
        with pytest.raises(TypeError):
            hash(a)
    field = text[len(name) + 1:].split("=", 1)[0]  # the first field, off the repr
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_descriptor_keywords_and_default_s():
    assert SubgroupDescriptor(kind="C", t=4) == cyclic(4)
    assert cyclic(4).s is None and full(2).s is None
    assert SubgroupDescriptor("T", t=3, s=2) == twisted(3, 2)
    assert twisted(3, 2).s == 2


def test_element_sorts_as_its_exponent_pair():
    elems = [Element(u, v) for u in (4, 0, 2, 1) for v in (2, 0, 1)]
    assert sorted(elems) == sorted(elems, key=lambda x: (x.a_exp, x.b_exp))
    assert Element(1, 2) < Element(2, 0) < Element(2, 1)
    assert Element(0, 1) <= Element(0, 1) and Element(3, 0) > Element(2, 2)
    assert max(elems) == Element(4, 2) and min(elems) == Element(0, 0)
