"""Symbolic catalog of the subgroups of U_6n.

Every subgroup is one of three shapes, indexed by a divisor t of 2n:

  Cyclic(t)     <a^t>         order 2n/t, elements a^(tk)
  Full(t)       <a^t, b>      order 3*(2n/t), elements a^(tk) b^u
  Twisted(t,s)  <a^t b^s>     order 2n/t, s in {1, 2}; exists only for
                              t odd, or t even with 2n/t divisible by 3
                              (otherwise <a^t b^s> collapses to <a^t, b>)

A SubgroupDescriptor is the plain tuple (kind, t, s), and its kind is the
letter it prints as: C(t), F(t) or T(t,s).  As "C" < "F" < "T", tuples
sort in catalog order, kind then t then s.

Membership (contains_element), containment (subgroup_leq) and orders all
reduce to modular arithmetic on the t and s parameters, so the catalog
never materializes element sets; subgroup_elements does, for the checks
that compare against them.  subgroup_leq is the one containment rule:
build_lattice applies it pairwise to the core nodes, and verify's
containment-closed-form holds it to the oracle's set inclusion.

The divisors come from factorize(2n), Miller-Rabin plus Pollard rho; its
docstring gives the method, the 3.3e24 determinism bound and the step
budget that makes a hard cofactor fail fast.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .group import Element, GroupParams


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
        # exactly int: True and 2.0 compare equal to 1 and 2 but print otherwise
        if type(t) is not int or t < 1:
            raise ValueError(f"t must be a positive integer, got {t!r}")
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
        return format_descriptor(self)


def cyclic(t: int) -> SubgroupDescriptor:
    return SubgroupDescriptor("C", t)


def full(t: int) -> SubgroupDescriptor:
    return SubgroupDescriptor("F", t)


def twisted(t: int, s: int) -> SubgroupDescriptor:
    return SubgroupDescriptor("T", t, s)


#: Trial divisors; any cofactor below 101**2 left after them is prime.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)
#: The first 13 primes: as Miller-Rabin bases they admit no strong
#: pseudoprime below 3317044064679887385961981 (Sorenson and Webster).
_MR_BASES = _SMALL_PRIMES[:13]
#: Pollard rho steps one factorize call may take over all its cofactors and
#: retries: 2 to 2.6 s at the 1.6 to 2.2 M steps/s of a 2-vCPU Xeon.  No n
#: of 100000 drawn log-uniformly up to 1e14 needed more than 8062.
RHO_STEP_BUDGET = 1 << 22


class FactorizationBudgetExceeded(ArithmeticError):
    """Pollard rho used up RHO_STEP_BUDGET without splitting a cofactor."""


def _is_prime(m: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, for m >= 101**2 with no prime
    factor below 100.

    Deterministic below about 3.3e24; above it, a composite built to fool
    exactly these bases would pass, so the answer is only probable.
    """
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


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

    Trial division by the primes below 100, then Miller-Rabin with the 13
    prime bases 2..41 on what is left, splitting composites with Pollard
    rho (Brent's variant).  The primality test is deterministic for every
    cofactor below 3.3e24 and probabilistic above it.  A prime such as
    2**61 - 1 costs one Miller-Rabin test, well under a millisecond.  Rho
    splits off a prime p in about sqrt(p) steps, and one call may take
    RHO_STEP_BUDGET (2**22) steps in all, a few seconds; past that it raises
    FactorizationBudgetExceeded.  So two prime factors both above about
    1e13 can exhaust the budget: 1000000000000037 * 1000000000000091
    would need about 3e7 steps and fails instead.
    """
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
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


def enumerate_subgroups(params: GroupParams) -> list[SubgroupDescriptor]:
    """All subgroups of U_6n as descriptors, in (kind, t, s) order.

    The order needs no sort: divisors is ascending, and the lists go
    Cyclic, Full, Twisted, each Twisted t with s = 1 before s = 2.
    Includes the trivial subgroup as Cyclic(2n).  Pure divisor arithmetic:
    that distinct descriptors name distinct subgroups is checked against
    the element sets by verify's subgroups-vs-oracle check, not here.
    """
    divs = divisors(params.two_n)
    out = [cyclic(t) for t in divs]
    out += [full(t) for t in divs]
    out += [twisted(t, s) for t in divs if twisted_exists(params, t) for s in (1, 2)]
    return out


def enumerate_normal_subgroups(params: GroupParams) -> list[SubgroupDescriptor]:
    """All normal subgroups, in (kind, t, s) order as enumerate_subgroups:
    Cyclic(t) for even t, Full(t) for every t."""
    divs = divisors(params.two_n)
    out = [cyclic(t) for t in divs if t % 2 == 0]
    out += [full(t) for t in divs]
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
    q = params.two_n // d.t
    return 3 * q if d.kind == "F" else q


def contains_element(params: GroupParams, d: SubgroupDescriptor, x: Element) -> bool:
    """Closed-form membership test, equivalent to x in subgroup_elements(d).

    The b-exponent of the member a^(tk) b^? depends only on k mod 2 (t odd)
    or k mod 3 (t even), both of which are determined by x.a_exp because
    2n/t is even respectively divisible by 3.
    """
    if x.a_exp % d.t != 0:
        return False
    if d.kind == "F":
        return True
    if d.kind == "C":
        return x.b_exp == 0
    k = x.a_exp // d.t
    if d.t % 2 == 1:
        return x.b_exp == d.s * (k % 2) % 3
    return x.b_exp == d.s * (k % 3) % 3


def subgroup_leq(d1: SubgroupDescriptor, d2: SubgroupDescriptor) -> bool:
    """Containment d1 <= d2, in closed form on (kind, t, s).

    d1's a-exponents are the multiples of t1, so t2 | t1 is needed.  Only
    Full subgroups hold b.  Otherwise a^t1 = (a^t2 b^s2)^k with k = t1/t2
    carries b-part s2 * km, km = k mod 2 for odd t2 or k mod 3 for even t2
    (contains_element), and must match d1's generator: b^0 for Cyclic d1,
    b^s1 for Twisted d1, which a Cyclic d2 never holds.
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


def format_descriptor(d: SubgroupDescriptor) -> str:
    """C(t), F(t) or T(t,s): plain ASCII, so JSON needs no escaping."""
    if d.kind == "T":
        return f"T({d.t},{d.s})"
    return f"{d.kind}({d.t})"
