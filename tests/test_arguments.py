"""The library's one argument rule: every scalar integer argument goes
through group.exact_int, which takes only a value that is exactly an int
at least `least`, and refuses anything else with one ValueError message.
The oracle's entry points refuse what they would turn into wrong counts."""

import re

import pytest

from u6n import ChainCounts, GroupParams, SubgroupDescriptor
from u6n.chains import shape_chain_counts
from u6n.oracle import GroupOracle, oracle_count_set_chains, trial_division_factorize
from u6n.subgroups import divisors, factorize
from u6n.verify import run_verification


class _Int(int):
    """An int subclass: equal to an int, but not exactly one."""


# (entry point, name in the message, least): each call takes the one value
# under test and fills every other argument with a valid one
ENTRY_POINTS = {
    "GroupParams.n": (GroupParams, "n", 1),
    "SubgroupDescriptor.t": (lambda v: SubgroupDescriptor("C", v), "t", 1),
    "ChainCounts.n": (lambda v: ChainCounts(v, "all", (1,)), "n", 1),
    "shape.e2": (lambda v: shape_chain_counts(v, 0, (), "all"), "e2", 1),
    "shape.e3": (lambda v: shape_chain_counts(1, v, (), "all"), "e3", 0),
    "shape.a_p": (lambda v: shape_chain_counts(1, 0, (1, v), "all"), "each a_p", 1),
    "factorize": (factorize, "m", 1),
    "divisors": (divisors, "m", 1),
    "trial_division_factorize": (trial_division_factorize, "m", 1),
    "verify.n_max": (run_verification, "n_max", 1),
    "verify.fuzzy_n_max": (lambda v: run_verification(1, v), "fuzzy_n_max", 0),
    "verify.oracle_limit": (lambda v: run_verification(1, 0, v), "oracle_limit", 0),
    "GroupOracle.limit": (lambda v: GroupOracle(GroupParams(1), v), "limit", 0),
    "set_chains.limit": (
        lambda v: oracle_count_set_chains(GroupParams(1), limit=v), "limit", 0),
}

BAD_VALUES = {
    "bool": lambda least: True,
    "float": lambda least: 2.0,
    "str": lambda least: "2",
    "int-subclass": lambda least: _Int(2),
    "below-least": lambda least: least - 1,
}


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_integer_argument_refuses_the_same_way(entry, value):
    # least - 1 refused with least in the message pins least from both sides
    call, name, least = ENTRY_POINTS[entry]
    bad = BAD_VALUES[value](least)
    message = f"{name} must be an int >= {least}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("kwargs, message", [
    ({"normal_only": "all"}, "got 'all' and True"),
    ({"include_trivial": "no"}, "got False and 'no'"),
    ({"normal_only": 1}, "got 1 and True"),
    ({"include_trivial": None}, "got False and None"),
], ids=["normal-only-str", "include-trivial-str", "normal-only-int",
        "include-trivial-None"])
def test_set_chain_counts_want_bools(kwargs, message):
    # read as truthiness, "all" counted the normal chains: [1, 2, 1] at n = 1,
    # and "no" kept the chains from {e}
    with pytest.raises(ValueError, match=(
            "^normal_only and include_trivial must be bools, "
            f"{re.escape(message)}$")):
        oracle_count_set_chains(GroupParams(1), **kwargs)


@pytest.mark.parametrize("limit", [30.5, "300"], ids=["float", "str"])
def test_oracle_limit_must_be_an_int(limit):
    # 30.5 built the oracle of order 30, and "300" raised a bare TypeError
    with pytest.raises(ValueError,
                       match=f"^limit must be an int >= 0, got {re.escape(repr(limit))}$"):
        GroupOracle(GroupParams(5), limit)
