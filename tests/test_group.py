"""Exact arithmetic in U_6n: canonical words, products, inverses, powers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u6n import (
    DEFAULT_ORACLE_LIMIT,
    Element,
    GroupParams,
    OracleLimitExceeded,
    all_elements,
    conjugate,
    format_element,
    identity,
    inverse,
    multiply,
    power,
)
from u6n.oracle import GroupOracle

params_st = st.integers(min_value=1, max_value=40).map(GroupParams)


@st.composite
def param_elements(draw, count=1):
    params = draw(params_st)
    elems = [
        Element(draw(st.integers(0, params.two_n - 1)), draw(st.integers(0, 2)))
        for _ in range(count)
    ]
    return (params, *elems)


def test_params_validation():
    with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
        GroupParams(0)
    with pytest.raises(ValueError, match="^n must be a positive integer, got -3$"):
        GroupParams(-3)
    with pytest.raises(ValueError, match="^n must be a positive integer, got True$"):
        GroupParams(True)
    with pytest.raises(ValueError, match="^n must be a positive integer, got 5.0$"):
        GroupParams(5.0)
    assert GroupParams(5).two_n == 10
    assert GroupParams(5).order == 30


def test_all_elements_shape():
    params = GroupParams(2)
    elems = all_elements(params)
    assert len(elems) == 12
    assert len(set(elems)) == 12
    assert elems[0] == identity(params)
    assert all(0 <= x.a_exp < 4 and 0 <= x.b_exp < 3 for x in elems)


def test_defining_relations():
    # a^(2n) = e, b^3 = e, and bab = a in every group of the family
    for n in (1, 2, 3, 7):
        params = GroupParams(n)
        a = Element(1, 0)
        b = Element(0, 1)
        assert power(params, a, params.two_n) == identity(params)
        assert power(params, b, 3) == identity(params)
        bab = multiply(params, multiply(params, b, a), b)
        assert bab == a


def test_multiply_known_products():
    params = GroupParams(2)
    a = Element(1, 0)
    b = Element(0, 1)
    # passing b to the right of a doubles its exponent: ba = a b^2
    assert multiply(params, b, a) == Element(1, 2)
    assert multiply(params, a, b) == Element(1, 1)
    ab = Element(1, 1)
    assert multiply(GroupParams(1), ab, ab) == Element(0, 0)


def test_power_closed_form_cases():
    params = GroupParams(3)
    # v = 0
    assert power(params, Element(2, 0), 4) == Element(2, 0)
    # u even, v != 0: both exponents scale
    assert power(params, Element(2, 1), 2) == Element(4, 2)
    # u odd, v != 0, k even: the b part cancels
    assert power(params, Element(1, 1), 2) == Element(2, 0)
    # u odd, v != 0, k odd: the b part survives unchanged
    assert power(params, Element(1, 1), 3) == Element(3, 1)


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        power(GroupParams(2), Element(1, 0), -1)


def test_power_zero_is_identity():
    params = GroupParams(4)
    for x in all_elements(params):
        assert power(params, x, 0) == identity(params)


@settings(max_examples=200)
@given(param_elements(count=1), st.integers(0, 200))
def test_power_matches_iterated_multiply(pe, k):
    params, x = pe
    acc = identity(params)
    for _ in range(k):
        acc = multiply(params, acc, x)
    assert power(params, x, k) == acc


@settings(max_examples=200)
@given(param_elements(count=3))
def test_associativity(pxyz):
    params, x, y, z = pxyz
    left = multiply(params, multiply(params, x, y), z)
    right = multiply(params, x, multiply(params, y, z))
    assert left == right


@settings(max_examples=200)
@given(param_elements(count=1))
def test_inverse_both_sides(pe):
    params, x = pe
    assert multiply(params, x, inverse(params, x)) == identity(params)
    assert multiply(params, inverse(params, x), x) == identity(params)


@settings(max_examples=100)
@given(param_elements(count=2))
def test_conjugate_is_group_action(pxy):
    params, h, g = pxy
    expected = multiply(params, multiply(params, inverse(params, g), h), g)
    assert conjugate(params, h, g) == expected


def test_exhaustive_group_laws_small():
    for n in (1, 2):
        params = GroupParams(n)
        elems = all_elements(params)
        e = identity(params)
        for x in elems:
            assert multiply(params, x, e) == x
            assert multiply(params, e, x) == x
        for x, y, z in itertools.product(elems, repeat=3):
            assert multiply(params, multiply(params, x, y), z) == multiply(
                params, x, multiply(params, y, z)
            )


def test_cayley_table_is_latin_square():
    mult = GroupOracle(GroupParams(1)).mult
    assert len(mult) == 6
    for x in range(6):
        assert sorted(mult[x]) == list(range(6))
        assert sorted(row[x] for row in mult) == list(range(6))


def test_cayley_table_limit():
    params = GroupParams(51)  # order 306
    assert params.order > DEFAULT_ORACLE_LIMIT
    with pytest.raises(OracleLimitExceeded):
        GroupOracle(params)
    # a higher explicit limit lifts the guard
    mult = GroupOracle(params, limit=310).mult
    assert len(mult) == 306 and all(len(row) == 306 for row in mult)


def test_format_element():
    assert format_element(Element(0, 0)) == "e"
    assert format_element(Element(1, 0)) == "a"
    assert format_element(Element(0, 1)) == "b"
    assert format_element(Element(3, 1)) == "a^3 b"
    assert format_element(Element(1, 2)) == "a b^2"


@settings(max_examples=150)
@given(params_st)
def test_format_element_is_injective(params):
    texts = {format_element(x) for x in all_elements(params)}
    assert len(texts) == params.order
