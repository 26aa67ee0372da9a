"""Symbolic catalog of the subgroups of U_6n, all or the normal ones.

Every subgroup is one of three shapes, indexed by a divisor t of 2n:

  Cyclic(t)     <a^t>         order 2n/t, elements a^(tk)
  Full(t)       <a^t, b>      order 3*(2n/t), elements a^(tk) b^u
  Twisted(t,s)  <a^t b^s>     order 2n/t, s in {1, 2}; exists only for
                              t odd, or t even with 2n/t divisible by 3
                              (otherwise <a^t b^s> collapses to <a^t, b>)

A SubgroupDescriptor is the plain tuple (kind, t, s), and its kind is the
letter it prints as: C(t), F(t) or T(t,s).  Its constructor is the one
way to build one: SubgroupDescriptor("C", t), SubgroupDescriptor("F", t)
or SubgroupDescriptor("T", t, s).  As "C" < "F" < "T", tuples sort in
catalog order, kind then t then s.

Containment (subgroup_leq) and orders reduce to modular arithmetic on
the t and s parameters, so the catalog never materializes element sets;
subgroup_elements does, for the checks that compare against them, and
is the one membership rule: verify's membership-closed-form holds each
set to the subgroup its descriptor's generators generate on the oracle's
table.  subgroup_leq is the one containment rule: build_lattice applies
it pairwise to the core nodes, and verify's containment-closed-form
holds it to the oracle's set inclusion.

The divisors come from factorize(2n), Baillie-PSW plus Pollard rho; its
docstring gives the method, what is proven of its primality test and the
step budget that makes a hard cofactor fail fast.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .group import Element, GroupParams, check_mode, exact_int


#: The descriptor kinds, as they print and sort: Cyclic, Full, Twisted.
KINDS = ("C", "F", "T")


class SubgroupDescriptor(namedtuple("SubgroupDescriptor", "kind t s")):
    """One catalog subgroup: kind, divisor t of 2n, and s for Twisted only.

    A plain tuple (kind, t, s) whose natural order is the catalog order.
    """

    __slots__ = ()

    def __new__(cls, kind: str, t: int, s: int | None = None) -> SubgroupDescriptor:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        exact_int(t, 1, "t")
        if kind == "T":
            if type(s) is not int or s not in (1, 2):
                raise ValueError(f"twisted subgroup needs s in {{1, 2}}, got {s!r}")
        elif s is not None:
            raise ValueError(f"{kind}({t}) takes no s parameter")
        return tuple.__new__(cls, (kind, t, s))

    @classmethod
    def _make(cls, fields) -> SubgroupDescriptor:
        return cls(*fields)

    def __str__(self) -> str:
        """C(t), F(t) or T(t,s): plain ASCII, so JSON needs no escaping."""
        if self.kind == "T":
            return f"T({self.t},{self.s})"
        return f"{self.kind}({self.t})"


#: Trial divisors; any cofactor below 101**2 left after them is prime.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)
#: Pollard rho steps one factorize call may take over all its cofactors and
#: retries: 2 to 2.6 s at the 1.6 to 2.2 M steps/s of a 2-vCPU Xeon.  No n
#: of 100000 drawn log-uniformly up to 1e14 needed more than 8062.
RHO_STEP_BUDGET = 1 << 22


class FactorizationBudgetExceeded(ArithmeticError):
    """Pollard rho used up RHO_STEP_BUDGET without splitting a cofactor."""


def _is_prime(m: int) -> bool:
    """Baillie-PSW for odd m >= 3: a strong probable-prime test to base 2,
    then a strong Lucas test with Selfridge's parameters.

    Every prime passes.  No composite below 2**64 passes (checked against
    Feitsma's list of base-2 strong pseudoprimes), and none above it is
    known, though none is proven not to exist.
    """
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(2, d, m)
    if x != 1 and x != m - 1:
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return _is_strong_lucas_probable_prime(m)


def _is_strong_lucas_probable_prime(m: int) -> bool:
    """The strong Lucas test of odd m >= 3 with Selfridge's parameters: D
    the first of 5, -7, 9, -11, ... with Jacobi symbol (D/m) = -1, P = 1,
    Q = (1 - D)/4.  With m + 1 = d 2^s, d odd, m passes iff U_d = 0 or
    V_(d 2^r) = 0 (mod m) for some 0 <= r < s.
    """
    if math.isqrt(m) ** 2 == m:  # no D exists for a square
        return False
    D = 5
    while (j := _jacobi(D, m)) != -1:
        if j == 0:  # D shares a factor with m, so m is prime only as |D|
            return abs(D) == m
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = m + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k from k = 1 up to d, one bit of d at a time:
    # k -> 2k by U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, and k -> k + 1 by
    # U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2, halved mod m
    u, v, qk = 1, 1, Q % m
    for bit in bin(d)[3:]:
        u, v, qk = u * v % m, (v * v - 2 * qk) % m, qk * qk % m
        if bit == "1":
            u, v = _half(u + v, m), _half(D * u + v, m)
            qk = qk * Q % m
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % m, qk * qk % m
        if v == 0:
            return True
    return False


def _half(x: int, m: int) -> int:
    """x / 2 mod the odd m."""
    return (x + m if x % 2 else x) // 2 % m


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a/m) for odd m >= 3."""
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def _find_factor(m: int, steps: int) -> tuple[int, int]:
    """A proper factor of the odd composite m, and how many of the given
    rho steps are left: Pollard rho, Brent's variant.

    The walk x -> x^2 + c accumulates |x - y| products and takes one gcd per
    batch; a batch that overshoots to gcd m is replayed step by step, and a
    walk that still only finds m is retried with the next c.  The steps are
    charged a batch (or a run of skipped steps) at a time, before it is
    walked; FactorizationBudgetExceeded is raised instead of walking past
    them.  The replay of one batch is not charged again.
    """
    batch = 64
    for c in range(1, m):
        y, power, g, q = 2, 1, 1, 1
        while g == 1:
            x = y
            steps -= power
            if steps < 0:
                raise _over_budget(m)
            for _ in range(power):
                y = (y * y + c) % m
            done = 0
            while done < power and g == 1:
                saved = y
                todo = min(batch, power - done)
                steps -= todo
                if steps < 0:
                    raise _over_budget(m)
                for _ in range(todo):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                done += batch
            power *= 2
        if g == m:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % m
                g = math.gcd(abs(x - saved), m)
        if g != m:
            return g, steps
    raise ArithmeticError(f"no factor found for {m}")


def _over_budget(m: int) -> FactorizationBudgetExceeded:
    return FactorizationBudgetExceeded(
        f"could not factor {m} within budget ({RHO_STEP_BUDGET} Pollard rho steps)"
    )


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, primes ascending.

    Trial division by the primes below 100, then the Baillie-PSW test
    (_is_prime) on what is left, splitting composites with Pollard rho
    (Brent's variant).  Proven: Baillie-PSW calls no composite below 2**64
    prime, so the factorization is exact whenever every cofactor it tests
    is below 2**64.  Only unrefuted: no composite above 2**64 is known to
    pass, and none is proven not to.  A prime such as 2**61 - 1 costs one
    test, well under a millisecond.  Rho splits off a prime p in about
    sqrt(p) steps, and one call may take RHO_STEP_BUDGET (2**22) steps in
    all, a few seconds; past that it raises FactorizationBudgetExceeded.
    So two prime factors both above about 1e13 can exhaust the budget:
    1000000000000037 * 1000000000000091 would need about 3e7 steps and
    fails instead.
    """
    exact_int(m, 1, "m")
    exponents: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while m % p == 0:
            m //= p
            exponents[p] = exponents.get(p, 0) + 1
    pending = [m] if m > 1 else []
    steps = RHO_STEP_BUDGET
    while pending:
        f = pending.pop()
        if f < 101 * 101 or _is_prime(f):
            exponents[f] = exponents.get(f, 0) + 1
        else:
            g, steps = _find_factor(f, steps)
            pending += [g, f // g]
    return sorted(exponents.items())


def core_of(two_n: int) -> int:
    """The core c = 2^e2 * 3^e3 of 2n = c * m, gcd(m, 6) = 1: U_6n is
    U_(c/2) x C_m, the product that build_lattice rests on."""
    m = two_n
    for p in (2, 3):
        while m % p == 0:
            m //= p
    return two_n // m


def divisors(m: int) -> list[int]:
    """All divisors of m in increasing order, from the prime factorization."""
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    divs.sort()
    return divs


def twisted_exists(params: GroupParams, t: int) -> bool:
    """Whether <a^t b^s> is a subgroup in its own right for this divisor t."""
    return t % 2 == 1 or (params.two_n // t) % 3 == 0


def validate_descriptor(params: GroupParams, d: SubgroupDescriptor) -> None:
    if params.two_n % d.t != 0:
        raise ValueError(f"{d} invalid: t = {d.t} does not divide {params.two_n}")
    if d.kind == "T" and not twisted_exists(params, d.t):
        raise ValueError(
            f"{d} invalid: t = {d.t} is even and {params.two_n}/{d.t} is not "
            f"divisible by 3, so <a^{d.t} b^{d.s}> is <a^{d.t}, b> in disguise"
        )


def enumerate_subgroups(params: GroupParams, mode: str) -> list[SubgroupDescriptor]:
    """The mode's subgroups as descriptors, in (kind, t, s) order: all of
    them, or the normal ones, Cyclic(t) for even t and Full(t) for every t.
    ValueError, before 2n is factorized, for a mode check_mode refuses.

    The order needs no sort: divisors is ascending, and the lists go
    Cyclic, Full, Twisted, each Twisted t with s = 1 before s = 2.
    Includes the trivial subgroup as Cyclic(2n).  Pure divisor arithmetic:
    that distinct descriptors name distinct subgroups is checked against
    the element sets by verify's subgroups-vs-oracle check, not here.
    """
    every = check_mode(mode) == "all"
    divs = divisors(params.two_n)
    out = [SubgroupDescriptor("C", t) for t in divs if every or t % 2 == 0]
    out += [SubgroupDescriptor("F", t) for t in divs]
    if every:
        out += [SubgroupDescriptor("T", t, s)
                for t in divs if twisted_exists(params, t) for s in (1, 2)]
    return out


def subgroup_elements(params: GroupParams, d: SubgroupDescriptor) -> frozenset[Element]:
    """The subgroup's element set; 2n/t elements, or 3*(2n/t) for Full."""
    validate_descriptor(params, d)
    two_n = params.two_n
    q = two_n // d.t
    if d.kind == "C":
        return frozenset(Element(d.t * k % two_n, 0) for k in range(q))
    if d.kind == "F":
        return frozenset(
            Element(d.t * k % two_n, v) for k in range(q) for v in range(3)
        )
    if d.t % 2 == 1:
        # generator a^t b^s has odd a-exponent: b-part alternates with k
        return frozenset(Element(d.t * k % two_n, d.s * (k % 2) % 3) for k in range(q))
    return frozenset(Element(d.t * k % two_n, d.s * k % 3) for k in range(q))


def subgroup_order(params: GroupParams, d: SubgroupDescriptor) -> int:
    """|subgroup_elements(d)|: 2n/t, or 3*(2n/t) for Full.  ValueError for
    a descriptor validate_descriptor refuses."""
    validate_descriptor(params, d)
    q = params.two_n // d.t
    return 3 * q if d.kind == "F" else q


def subgroup_leq(d1: SubgroupDescriptor, d2: SubgroupDescriptor) -> bool:
    """Containment d1 <= d2, in closed form on (kind, t, s).

    d1's a-exponents are the multiples of t1, so t2 | t1 is needed.  Only
    Full subgroups hold b.  Otherwise a^t1 = (a^t2 b^s2)^k with k = t1/t2
    carries b-part s2 * km, km = k mod 2 for odd t2 or k mod 3 for even t2
    (as in subgroup_elements), and must match d1's generator: b^0 for
    Cyclic d1, b^s1 for Twisted d1, which a Cyclic d2 never holds.
    """
    t1, t2 = d1.t, d2.t
    if t1 % t2:
        return False
    kind1, kind2 = d1.kind, d2.kind
    if kind2 == "F":
        return True
    if kind1 == "F":
        return False
    if kind2 == "C":
        return kind1 == "C"
    k = t1 // t2
    km = k % 2 if t2 % 2 else k % 3
    return d2.s * km % 3 == (0 if kind1 == "C" else d1.s)
