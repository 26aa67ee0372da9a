"""The eight value types, the six of the counting path and the two of
verify and the oracle: keyword construction, repr text, immutability,
equality, hashing, copy and pickle round trips, _make and _replace
through the constructor, and the order of Element."""

import copy
import pickle
from fractions import Fraction

import pytest

from u6n import (
    ChainCounts,
    ChainTable,
    Element,
    GroupParams,
    Lattice,
    SubgroupDescriptor,
)
from u6n.oracle import FuzzyMap
from u6n.verify import CheckResult

D = SubgroupDescriptor


def _lattice(n=1):
    # F(1) alone, as the one-node lattice of the lattice and chains tests
    return Lattice(params=GroupParams(n), mode="all", nodes=(D("F", 1),),
                   orders=(6 * n,), top_index=0, coords=((0, 1),),
                   core_above=((),), column={1: [(0,)]})


_LATTICE_REPR = (
    "Lattice(params=GroupParams(n=1), mode='all', "
    "nodes=(SubgroupDescriptor(kind='F', t=1, s=None),), "
    "orders=(6,), top_index=0, coords=((0, 1),), core_above=((),), "
    "column={1: [(0,)]})"
)

# <b> = {e, b, b^2} at grade 1, the rest of U_6 at 1/2
_GRADES = (Fraction(1),) * 3 + (Fraction(1, 2),) * 3

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
    "CheckResult": (lambda: CheckResult(n=1, check="demo", passed=True),
                    lambda: CheckResult(1, "demo", False, "witness"),
                    "CheckResult(n=1, check='demo', passed=True, detail='')", True),
    "FuzzyMap": (lambda: FuzzyMap(params=GroupParams(1), grades=_GRADES),
                 lambda: FuzzyMap(GroupParams(1), _GRADES[::-1]),
                 "FuzzyMap(params=GroupParams(n=1), grades=(" + ", ".join(
                     map(repr, _GRADES)) + "), ranks=(1, 1, 1, 0, 0, 0))", True),
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


@pytest.mark.parametrize("name", CASES)
def test_value_type_copy_and_pickle_round_trip(name):
    # a __new__ that takes fewer arguments than the fields needs its own
    # __getnewargs__, or copy and pickle call it with every field
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


def test_descriptor_keywords_and_default_s():
    assert SubgroupDescriptor(kind="C", t=4) == D("C", 4)
    assert D("C", 4).s is None and D("F", 2).s is None
    assert SubgroupDescriptor("T", t=3, s=2) == D("T", 3, 2)
    assert D("T", 3, 2).s == 2


def test_element_sorts_as_its_exponent_pair():
    elems = [Element(u, v) for u in (4, 0, 2, 1) for v in (2, 0, 1)]
    assert sorted(elems) == sorted(elems, key=lambda x: (x.a_exp, x.b_exp))
    assert Element(1, 2) < Element(2, 0) < Element(2, 1)
    assert Element(0, 1) <= Element(0, 1) and Element(3, 0) > Element(2, 2)
    assert max(elems) == Element(4, 2) and min(elems) == Element(0, 0)


#: _make and _replace calls whose fields the constructor refuses
_REFUSED = {
    "GroupParams._replace(n=-1)": lambda: GroupParams(5)._replace(n=-1),
    "GroupParams._make([0])": lambda: GroupParams._make([0]),
    "SubgroupDescriptor._make(['X', 0, 7])":
        lambda: SubgroupDescriptor._make(["X", 0, 7]),
    "SubgroupDescriptor._replace(s=1)": lambda: D("C", 4)._replace(s=1),
    "ChainCounts._make([1, 'all', (0,)])":
        lambda: ChainCounts._make([1, "all", (0,)]),
    "FuzzyMap._replace(grades=2)":
        lambda: FuzzyMap(GroupParams(1), _GRADES)._replace(grades=(Fraction(2),) * 6),
}


@pytest.mark.parametrize("call", _REFUSED)
def test_make_and_replace_run_the_constructor_checks(call):
    # namedtuple's own _make, which _replace calls, skips __new__
    with pytest.raises(ValueError):
        _REFUSED[call]()


def test_make_and_replace_build_what_the_constructor_builds():
    assert GroupParams(5)._replace(n=6) == GroupParams(6)
    assert D("T", 3, 1)._replace(s=2) == D("T", 3, 2)
    assert SubgroupDescriptor._make(("C", 4, None)) == D("C", 4)
    counts = ChainCounts(5, "all", (1, 4))._replace(mode="normal")
    assert counts == ChainCounts(5, "normal", (1, 4))


def test_fuzzy_map_replace_and_make_recompute_the_ranks():
    mu = FuzzyMap(GroupParams(1), _GRADES)
    flipped = mu._replace(grades=_GRADES[::-1])
    assert flipped.ranks == (0, 0, 0, 1, 1, 1)
    assert flipped == FuzzyMap(GroupParams(1), _GRADES[::-1])
    assert FuzzyMap._make((GroupParams(1), _GRADES, (9,) * 6)) == mu
    assert mu._replace(ranks=(9,) * 6) == mu
