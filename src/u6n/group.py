"""Exact arithmetic in the groups U_6n = <a, b | a^(2n) = b^3 = 1, bab = a>.

Every element has a unique canonical word a^u b^v with 0 <= u < 2n and
0 <= v < 3.  The defining relations give b a = a b^2 (and b^2 a = a b),
so pushing b^v through a^u multiplies the b-exponent by 2^u mod 3, i.e.
leaves it alone for even u and doubles it for odd u.  All operations
below are therefore O(1) integer arithmetic on the two exponents.  Every
u6n module takes its argument rules from here: exact_int and check_mode.
"""

from __future__ import annotations

from collections import namedtuple

#: Exhaustive (Cayley-table / closure) checks refuse groups larger than this.
DEFAULT_ORACLE_LIMIT = 300

#: verify runs the fuzzy-map end-to-end checks up to this n by default.
DEFAULT_FUZZY_N_MAX = 4


class OracleLimitExceeded(Exception):
    """An exhaustive check was requested for a group above the size bound."""


def exact_int(value: int, least: int, name: str) -> int:
    """value, if it is exactly an int >= least; ValueError otherwise.  bool,
    float, str and int subclasses are refused: True and 2.0 equal 1 and 2
    but print otherwise, and range() raises a bare TypeError on a float."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return value


MODES = ("all", "normal")


def check_mode(mode: str) -> str:
    """mode, if it is one of MODES; ValueError otherwise."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


# The eight value types (these two, SubgroupDescriptor, Lattice, ChainTable,
# ChainCounts, oracle.FuzzyMap and verify.CheckResult) are namedtuple
# subclasses with empty __slots__, not frozen dataclasses, because importing
# dataclasses (and with it inspect, ast, dis and tokenize) was about a third
# of `import u6n.cli`.  A type whose __new__ checks its fields overrides
# _make too (_replace calls it): the inherited one skips __new__.
class GroupParams(namedtuple("GroupParams", "n")):
    """Family parameter n; U_6n has order 6n and a has order 2n."""

    __slots__ = ()

    def __new__(cls, n: int) -> GroupParams:
        return tuple.__new__(cls, (exact_int(n, 1, "n"),))

    @classmethod
    def _make(cls, fields) -> GroupParams:
        return cls(*fields)

    @property
    def two_n(self) -> int:
        return 2 * self.n

    @property
    def order(self) -> int:
        return 6 * self.n


class Element(namedtuple("Element", "a_exp b_exp")):
    """Canonical word a^a_exp b^b_exp; construct via the module functions.
    Elements sort as their (a_exp, b_exp) pairs."""

    __slots__ = ()


def canonical_element(params: GroupParams, x: Element) -> Element:
    """x, if it is a canonical Element of this group: int exponents,
    0 <= a_exp < 2n and 0 <= b_exp < 3.  ValueError otherwise: a word
    outside those ranges would alias a canonical one."""
    if type(x) is Element:
        u, v = x
        if type(u) is type(v) is int and 0 <= u < 2 * params.n and 0 <= v < 3:
            return x
    raise ValueError(f"{x!r} is not a canonical element of U_{params.order}")


def identity() -> Element:
    return Element(0, 0)


def multiply(params: GroupParams, x: Element, y: Element) -> Element:
    """Product x * y in canonical form.

    b^v a^u = a^u b^(v * 2^u mod 3), so x's b-exponent doubles mod 3 when
    y contributes an odd power of a.
    """
    v = x.b_exp if y.a_exp % 2 == 0 else (2 * x.b_exp) % 3
    return Element((x.a_exp + y.a_exp) % params.two_n, (v + y.b_exp) % 3)


def inverse(params: GroupParams, x: Element) -> Element:
    """Canonical form of b^(3-v) a^(2n-u), the inverse of a^u b^v."""
    u = (-x.a_exp) % params.two_n
    # moving b^(3-v) past a^(2n-u): -2v = v mod 3 for odd u
    v = (-x.b_exp) % 3 if x.a_exp % 2 == 0 else x.b_exp % 3
    return Element(u, v)


def all_elements(params: GroupParams) -> list[Element]:
    """All 6n canonical elements, ordered lexicographically by (a_exp, b_exp)."""
    return [Element(u, v) for u in range(params.two_n) for v in range(3)]


def format_element(x: Element) -> str:
    """Text form: "e", or "a^u b^v" with unit exponents bare and zero
    factors dropped."""
    if x.a_exp == 0 and x.b_exp == 0:
        return "e"
    parts = []
    if x.a_exp:
        parts.append("a" if x.a_exp == 1 else f"a^{x.a_exp}")
    if x.b_exp:
        parts.append("b" if x.b_exp == 1 else f"b^{x.b_exp}")
    return " ".join(parts)
