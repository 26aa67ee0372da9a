"""Divisor-driven subgroup catalog: enumeration, element sets, containment."""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import u6n.subgroups
from u6n import (
    Element,
    FactorizationBudgetExceeded,
    GroupParams,
    SubgroupDescriptor,
    divisors,
    enumerate_subgroups,
    factorize,
    inverse,
    multiply,
    subgroup_elements,
    subgroup_leq,
    subgroup_order,
    twisted_exists,
)
from u6n.group import MODES
from u6n.oracle import trial_division_factorize

D = SubgroupDescriptor

params_st = st.integers(min_value=1, max_value=30).map(GroupParams)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(720720) == [(2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]


@given(st.integers(1, 2000))
def test_factorize_reconstructs(m):
    product = 1
    for p, e in factorize(m):
        product *= p**e
    assert product == m


@settings(max_examples=300)
@given(st.integers(1, 10**7))
def test_factorize_matches_trial_division(m):
    assert factorize(m) == trial_division_factorize(m)


# Carmichael numbers; strong pseudoprimes, the last of them to every prime
# base up to 37, so only the Lucas half of Baillie-PSW exposes it; two primes
# near 1e9; prime powers, the first just past the reach of the trial
# divisors; the Mersenne prime 2^61 - 1
ADVERSARIAL = [
    (561, [(3, 1), (11, 1), (17, 1)]),
    (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
    (825265, [(5, 1), (7, 1), (17, 1), (19, 1), (73, 1)]),
    (2047, [(23, 1), (89, 1)]),
    (3215031751, [(151, 1), (751, 1), (28351, 1)]),
    (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),
    (318665857834031151167461, [(399165290221, 1), (798330580441, 1)]),
    (999999937 * 999999929, [(999999929, 1), (999999937, 1)]),
    (101**2, [(101, 2)]),
    (3**40, [(3, 40)]),
    ((2**31 - 1) ** 2, [(2**31 - 1, 2)]),
    (2**61 - 1, [(2**61 - 1, 1)]),
]


@pytest.mark.parametrize("m, expected", ADVERSARIAL,
                         ids=[str(m) for m, _ in ADVERSARIAL])
def test_factorize_adversarial(m, expected):
    assert factorize(m) == expected
    assert math.prod(p**e for p, e in expected) == m
    for p, _ in expected:
        if p <= 10**14:
            assert trial_division_factorize(p) == [(p, 1)]
    if m <= 10**14:
        assert trial_division_factorize(m) == expected


#: The least composite that passes Miller-Rabin to all 13 prime bases
#: 2..41 (Sorenson and Webster, Math. Comp. 86, 2017)
PSI13 = 3317044064679887385961981


def miller_rabin_13(m: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41, for odd m > 41: exact below
    PSI13, and the primality test factorize used before Baillie-PSW."""
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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


@settings(max_examples=300)
@given(st.integers(1, 5 * 10**5).map(lambda k: 2 * k + 1))
def test_is_prime_is_trial_division_below_a_million(m):
    assert u6n.subgroups._is_prime(m) == (trial_division_factorize(m) == [(m, 1)])


@settings(max_examples=300)
@given(st.one_of(
    st.integers(21, PSI13 // 2 - 1).map(lambda k: 2 * k + 1),
    # odd products of two numbers above the trial divisors
    st.tuples(st.integers(50, 10**12), st.integers(50, 10**12)).map(
        lambda ab: (2 * ab[0] + 1) * (2 * ab[1] + 1)),
))
def test_is_prime_is_the_13_bases_below_psi13(m):
    assume(m < PSI13)
    assert u6n.subgroups._is_prime(m) == miller_rabin_13(m)


def test_psi13_passes_the_13_bases_but_not_baillie_psw():
    p, q = 1287836182261, 2575672364521
    assert p * q == PSI13 and miller_rabin_13(p) and miller_rabin_13(q)
    assert miller_rabin_13(PSI13)
    assert not u6n.subgroups._is_prime(PSI13)
    assert factorize(2 * PSI13) == [(2, 1), (p, 1), (q, 1)]


def test_factorize_gives_up_on_a_hard_semiprime_within_its_budget():
    # 2n for n = 1000000000000037 * 1000000000000091: rho would need ~3e7 steps
    two_n = 2 * 1000000000000037 * 1000000000000091
    start = time.perf_counter()
    with pytest.raises(FactorizationBudgetExceeded, match="within budget"):
        factorize(two_n)
    assert time.perf_counter() - start < 5.0


def test_rho_budget_is_shared_across_cofactors(monkeypatch):
    real = u6n.subgroups._find_factor
    given_steps = []

    def spy(m, steps):
        given_steps.append(steps)
        return real(m, steps)

    monkeypatch.setattr(u6n.subgroups, "_find_factor", spy)
    primes = [1000003, 1000033, 1000037]
    assert all(trial_division_factorize(p) == [(p, 1)] for p in primes)
    assert factorize(math.prod(primes)) == [(p, 1) for p in primes]
    budget = u6n.subgroups.RHO_STEP_BUDGET
    assert len(given_steps) == 2
    assert given_steps[0] == budget > given_steps[1]


def test_rho_budget_too_small_raises(monkeypatch):
    # 999999937 * 999999929 needs about 3e4 rho steps
    m = 999999937 * 999999929
    monkeypatch.setattr(u6n.subgroups, "RHO_STEP_BUDGET", 1000)
    with pytest.raises(FactorizationBudgetExceeded, match=f"factor {m} within"):
        factorize(m)
    monkeypatch.setattr(u6n.subgroups, "RHO_STEP_BUDGET", 10**6)
    assert factorize(m) == [(999999929, 1), (999999937, 1)]


def test_trial_division_factorize_rejects_nonpositive():
    for m in (0, -4):
        with pytest.raises(ValueError):
            trial_division_factorize(m)
        with pytest.raises(ValueError):
            factorize(m)


@given(st.integers(1, 600))
def test_divisors_complete_and_sorted(m):
    divs = divisors(m)
    assert divs == sorted(d for d in range(1, m + 1) if m % d == 0)


def test_descriptor_validation():
    needs_s = r"^twisted subgroup needs s in \{1, 2\}, got "
    with pytest.raises(ValueError, match="^t must be an int >= 1, got 0$"):
        D("C", 0)
    with pytest.raises(ValueError, match=needs_s + "3$"):
        D("T", 1, 3)
    with pytest.raises(ValueError, match=r"^C\(2\) takes no s parameter$"):
        SubgroupDescriptor("C", 2, 1)  # s only belongs on twisted
    with pytest.raises(ValueError, match=r"^F\(4\) takes no s parameter$"):
        SubgroupDescriptor(kind="F", t=4, s=2)
    with pytest.raises(ValueError, match=needs_s + "None$"):
        SubgroupDescriptor("T", 2)  # twisted needs s


@pytest.mark.parametrize("t, s, message", [
    (2.0, None, "^t must be an int >= 1, got 2.0$"),
    (True, None, "^t must be an int >= 1, got True$"),
    ("2", None, "^t must be an int >= 1, got '2'$"),
    (1, True, r"^twisted subgroup needs s in \{1, 2\}, got True$"),
    (1, 1.0, r"^twisted subgroup needs s in \{1, 2\}, got 1.0$"),
], ids=["t-float", "t-bool", "t-str", "s-bool", "s-float"])
def test_descriptor_parameters_must_be_ints(t, s, message):
    # 2.0 and True equal 2 and 1, so they would hash and compare as valid
    # descriptors while printing as C(2.0) or T(1,True)
    with pytest.raises(ValueError, match=message):
        SubgroupDescriptor("T" if s is not None else "C", t, s)


@pytest.mark.parametrize("kind", ["X", None, "c", "", "CF"])
def test_descriptor_kind_must_be_a_printed_letter(kind):
    with pytest.raises(ValueError,
                       match=r"^kind must be one of \('C', 'F', 'T'\), got "):
        SubgroupDescriptor(kind, 2)


def test_twisted_exists():
    assert twisted_exists(GroupParams(1), 1)  # t odd
    assert not twisted_exists(GroupParams(2), 2)  # 4/2 = 2, no factor 3
    assert twisted_exists(GroupParams(3), 2)  # 6/2 = 3
    assert not twisted_exists(GroupParams(2), 4)


def test_enumerate_n1():
    descs = enumerate_subgroups(GroupParams(1), "all")
    assert [str(d) for d in descs] == [
        "C(1)", "C(2)", "F(1)", "F(2)", "T(1,1)", "T(1,2)",
    ]


def test_enumerate_n2():
    descs = enumerate_subgroups(GroupParams(2), "all")
    assert [str(d) for d in descs] == [
        "C(1)", "C(2)", "C(4)", "F(1)", "F(2)", "F(4)", "T(1,1)", "T(1,2)",
    ]


def test_enumerate_normal():
    assert [str(d) for d in enumerate_subgroups(GroupParams(1), "normal")] == [
        "C(2)", "F(1)", "F(2)",
    ]
    assert [str(d) for d in enumerate_subgroups(GroupParams(2), "normal")] == [
        "C(2)", "C(4)", "F(1)", "F(2)", "F(4)",
    ]


@given(params_st)
def test_count_formula(params):
    divs = divisors(params.two_n)
    eligible = [t for t in divs if twisted_exists(params, t)]
    assert len(enumerate_subgroups(params, "all")) == 2 * len(divs) + 2 * len(eligible)
    even = [t for t in divs if t % 2 == 0]
    assert len(enumerate_subgroups(params, "normal")) == len(divs) + len(even)


def test_element_sets_match_published_forms():
    params = GroupParams(2)
    e = Element(0, 0)
    assert subgroup_elements(params, D("C", 2)) == {e, Element(2, 0)}
    assert subgroup_elements(params, D("F", 4)) == {e, Element(0, 1), Element(0, 2)}
    # odd t: the b exponent alternates with the step parity
    assert subgroup_elements(params, D("T", 1, 1)) == {
        e, Element(1, 1), Element(2, 0), Element(3, 1),
    }
    # even t: the b exponent walks with the step count mod 3
    params3 = GroupParams(3)
    assert subgroup_elements(params3, D("T", 2, 1)) == {
        e, Element(2, 1), Element(4, 2),
    }
    assert subgroup_elements(params3, D("T", 2, 2)) == {
        e, Element(2, 2), Element(4, 1),
    }


@settings(max_examples=60)
@given(params_st)
def test_subgroup_order_matches_set(params):
    for d in enumerate_subgroups(params, "all"):
        assert subgroup_order(params, d) == len(subgroup_elements(params, d))


@settings(max_examples=30)
@given(st.integers(1, 8).map(GroupParams))
def test_sets_are_subgroups(params):
    for d in enumerate_subgroups(params, "all"):
        members = subgroup_elements(params, d)
        assert Element(0, 0) in members
        assert all(inverse(params, x) in members for x in members)
        assert all(
            multiply(params, x, y) in members for x in members for y in members
        )


def test_exclusivity_up_to_12():
    for n in range(1, 13):
        params = GroupParams(n)
        sets = [
            subgroup_elements(params, d) for d in enumerate_subgroups(params, "all")
        ]
        assert len(set(sets)) == len(sets)


def test_subgroup_elements_rejects_bad_descriptor():
    params = GroupParams(2)
    with pytest.raises(ValueError):
        subgroup_elements(params, D("C", 3))  # 3 does not divide 4
    with pytest.raises(ValueError):
        subgroup_elements(params, D("T", 2, 1))  # T(2,s) is F(2) in disguise


@pytest.mark.parametrize("d, message", [
    (D("C", 3), r"^C\(3\) invalid: t = 3 does not divide 4$"),
    (D("T", 2, 1), r"^T\(2,1\) invalid: t = 2 is even "),
], ids=["t-not-a-divisor", "twisted-in-disguise"])
def test_subgroup_order_refuses_what_subgroup_elements_refuses(d, message):
    # the closed form alone would answer 1 and 2 for these
    with pytest.raises(ValueError, match=message):
        subgroup_order(GroupParams(2), d)


def test_leq_published_cases():
    assert subgroup_leq(D("C", 2), D("T", 1, 1))
    assert not subgroup_leq(D("C", 1), D("F", 2))
    assert not subgroup_leq(D("F", 2), D("C", 1))


@settings(max_examples=30)
@given(st.integers(1, 8).map(GroupParams))
def test_leq_equals_set_inclusion(params):
    descs = enumerate_subgroups(params, "all")
    sets = {d: subgroup_elements(params, d) for d in descs}
    for d1 in descs:
        for d2 in descs:
            assert subgroup_leq(d1, d2) == (sets[d1] <= sets[d2])


def test_descriptor_text_is_injective():
    for n in (3, 12):
        descs = enumerate_subgroups(GroupParams(n), "all")
        assert len({str(d) for d in descs}) == len(descs)
    assert str(D("T", 2, 1)) == "T(2,1)"


def test_descriptor_ordering_is_kind_then_t_then_s():
    descs = enumerate_subgroups(GroupParams(6), "all")
    assert descs == sorted(descs)
    assert descs == sorted(descs, key=lambda d: (d.kind, d.t, d.s or 0))
    kinds = [d.kind for d in descs]
    assert kinds == sorted(kinds, key=["C", "F", "T"].index)


def _parse_descriptor(text):
    """The descriptor whose str() is text: its letter, then its integers."""
    kind, args = text[0], text[2:-1].split(",")
    assert text[1] + text[-1] == "()"
    return SubgroupDescriptor(kind, *map(int, args))


@pytest.mark.parametrize("n", range(1, 301, 50))
def test_descriptor_text_round_trips(n):
    for m in range(n, n + 50):
        params = GroupParams(m)
        for mode in MODES:
            for d in enumerate_subgroups(params, mode):
                assert _parse_descriptor(str(d)) == d


def _assert_catalog_in_order(params, mode):
    # the catalogs are built in (kind, t, s) order, with no sort to fall back on
    descs = enumerate_subgroups(params, mode)
    assert descs == sorted(descs)
    assert len(set(descs)) == len(descs)


@pytest.mark.parametrize("n", range(1, 301))
def test_catalogs_come_in_sort_key_order(n):
    for mode in MODES:
        _assert_catalog_in_order(GroupParams(n), mode)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 8),
    st.dictionaries(st.sampled_from([5, 7, 11, 13, 101, 2**31 - 1]),
                    st.integers(1, 3), max_size=3),
)
def test_catalogs_come_in_sort_key_order_for_any_shape(mode, e2, e3, others):
    # 2n = 2^e2 * 3^e3 * prod p^a
    n = 2 ** (e2 - 1) * 3**e3 * math.prod(p**a for p, a in others.items())
    _assert_catalog_in_order(GroupParams(n), mode)


@pytest.mark.parametrize("mode", ["bogus", True, None, "All", ("all",)])
def test_enumerate_subgroups_refuses_a_mode_before_factorizing(mode, monkeypatch):
    calls = []
    monkeypatch.setattr(u6n.subgroups, "factorize", lambda m: calls.append(m) or [])
    with pytest.raises(ValueError, match=r"^mode must be one of \('all', 'normal'\), got "):
        enumerate_subgroups(GroupParams(6), mode)
    assert calls == []
