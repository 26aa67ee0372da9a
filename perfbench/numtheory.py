"""Number theory the benchmark needs without calling the program under test.

Factorization here is deterministic Miller-Rabin plus Pollard rho, so the
benchmark can compute factorization shapes of 2n for n near 1e14 in
microseconds, where the program's own trial division takes up to a second.
"""

from __future__ import annotations

import math
from math import prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Primes in increasing order, enough to realize any shape the benchmark uses.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def is_prime(m: int) -> bool:
    """Deterministic for m < 3.3e24, far above any n the benchmark draws."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho(m: int) -> int:
    """A nontrivial factor of the odd composite m (Pollard rho, Brent)."""
    for c in range(1, m):
        y, g, r, q, k = 2, 1, 1, 1, 0
        x = ys = 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g
    raise ArithmeticError(f"rho failed on {m}")


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 as {prime: exponent}."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        f = stack.pop()
        if is_prime(f):
            out[f] = out.get(f, 0) + 1
        else:
            g = _rho(f)
            stack += [g, f // g]
    return dict(sorted(out.items()))


Shape = tuple  # (e2, e3, other exponents sorted descending)


def shape_of(n: int) -> Shape:
    """Factorization shape of 2n: the exponents of 2 and 3 pinned, the rest
    as a descending multiset.  Chain counts depend only on this."""
    f = factorize(2 * n)
    rest = sorted((e for p, e in f.items() if p > 3), reverse=True)
    return (f.get(2, 0), f.get(3, 0), tuple(rest))


def smallest_n(shape: Shape) -> int:
    """The smallest n whose 2n has this shape."""
    e2, e3, rest = shape
    two_n = 2**e2 * 3**e3 * prod(p**e for p, e in zip(SMALL_PRIMES[2:], rest))
    return two_n // 2


def shape_key(shape: Shape) -> str:
    e2, e3, rest = shape
    return f"{e2}.{e3}." + "-".join(map(str, rest))


def parse_shape_key(key: str) -> Shape:
    e2, e3, rest = key.split(".")
    return (int(e2), int(e3), tuple(int(e) for e in rest.split("-") if e))


def divisor_count(shape: Shape) -> int:
    e2, e3, rest = shape
    return (e2 + 1) * (e3 + 1) * prod(e + 1 for e in rest)


def node_count(shape: Shape, mode: str) -> int:
    """Closed-form number of nontrivial subgroups (all) or normal subgroups.

    Each divisor t of 2n gives C(t) and F(t); T(t, 1) and T(t, 2) exist for t
    odd, or t even with 3 | 2n/t.  Normal subgroups are C(t) for even t and
    every F(t).  The trivial subgroup C(2n) is excluded from both.
    """
    e2, e3, rest = shape
    d = divisor_count(shape)
    odd_part = prod(e + 1 for e in rest)
    even = e2 * (e3 + 1) * odd_part
    if mode == "normal":
        return even + d - 1
    odd_t = (e3 + 1) * odd_part
    even_t_3 = e2 * e3 * odd_part  # t even and 3 | 2n/t: exponent of 3 in t < e3
    return 2 * d + 2 * (odd_t + even_t_3) - 1


def trial_division_cost(m: int) -> int:
    """How far a plain trial-division loop (p = 2, 3, 5, 7, ... while
    p * p <= m, dividing out each factor found) runs before it stops.

    This is only the benchmark's stratification variable for random n: it
    ranks how hard n is for naive factorization, whatever the program uses.
    """
    rest = m
    for q, e in factorize(m).items():
        if q * q > rest:
            return math.isqrt(rest)
        rest //= q**e
        last = q
    return last if m > 1 else 1


def exponent_tuples(max_divisors: int, max_len: int, max_exp: int) -> list[tuple]:
    """Descending exponent tuples with prod(e + 1) <= max_divisors."""
    out: list[tuple] = [()]

    def grow(prefix: tuple, divs: int, cap: int) -> None:
        if len(prefix) == max_len:
            return
        for e in range(1, cap + 1):
            if divs * (e + 1) > max_divisors:
                break
            out.append(prefix + (e,))
            grow(prefix + (e,), divs * (e + 1), e)

    grow((), 1, max_exp)
    return out


def shapes_between(lo: int, hi: int, max_e2: int, max_e3: int, max_len: int,
                   max_exp: int, max_n: int | None = None) -> list[Shape]:
    """Every shape of 2n with lo <= d(2n) <= hi under the exponent caps,
    optionally only those whose smallest n is at most max_n."""
    out = []
    for e2 in range(1, max_e2 + 1):
        for e3 in range(0, max_e3 + 1):
            base = (e2 + 1) * (e3 + 1)
            if base > hi:
                break
            for rest in exponent_tuples(hi // base, max_len, max_exp):
                shape = (e2, e3, rest)
                if lo <= divisor_count(shape) <= hi and (
                    max_n is None or smallest_n(shape) <= max_n
                ):
                    out.append(shape)
    return sorted(out)
