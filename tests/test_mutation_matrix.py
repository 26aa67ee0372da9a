"""The mutation matrix of verify: for each deliberately broken fast-path
function, the set of checks that fail in run_verification.

A mutant is a monkeypatch of one function, patched in every u6n module
that looks it up (a bug in the function itself), or only where one fast
path looks it up.  Each row pins exactly the checks that fail, so a check
whose deletion would let a mutant through, or a mutant no check catches,
shows up here.  KNOWN_GAPS lists mutants that verify misses, with why,
BEYOND_VERIFY the faults no n that verify can reach exposes, each with the
tier-1 test that catches it, and IN_SUBPROCESS the mutants that make a
cycle, which run apart with a timeout.
"""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import u6n.chains as chains_module
import u6n.group as group_module
import u6n.lattice as lattice_module
import u6n.subgroups as subgroups_module
from u6n.chains import chain_counts, compute_chain_table, count_chains
from u6n.group import Element, GroupParams
from u6n.lattice import build_lattice
from u6n.verify import check_shape_vs_lattice, run_verification

import test_subgroups
from test_verify import _mutated_coords


def _everywhere(mp, owner, name, fake):
    """Patch owner.name and each u6n module's binding of the same object."""
    real = getattr(owner, name)
    for key, module in list(sys.modules.items()):
        in_package = key == "u6n" or key.startswith("u6n.")
        if in_package and getattr(module, name, None) is real:
            mp.setattr(module, name, fake)


def _wrap(owner, name, change):
    """A mutant that replaces owner.name everywhere by change(real)."""
    def apply(mp):
        _everywhere(mp, owner, name, change(getattr(owner, name)))
    return apply


def _method(cls, name, change):
    """A mutant that replaces the method or property cls.name by change(real)."""
    def apply(mp):
        mp.setattr(cls, name, change(cls.__dict__[name]))
    return apply


def _drops_trivial(real):
    # the "all" catalog only
    def fake(params, mode):
        descs = real(params, mode)
        if mode != "all":
            return descs
        return [d for d in descs if d != ("C", params.two_n, None)]
    return fake


def _odd_cyclic_normal(real):
    # the "normal" catalog gets C(t) for odd t too: <a^t> with t odd is not
    # normal (b a^t = a^t b^2)
    def fake(params, mode):
        if mode != "normal":
            return real(params, mode)
        extra = [subgroups_module.SubgroupDescriptor("C", t)
                 for t in subgroups_module.divisors(params.two_n) if t % 2]
        return sorted(real(params, mode) + extra)
    return fake


def _odd_twisted_only(real):
    return lambda params, t: t % 2 == 1


def _leq_parity_always(real):
    # the b-part of (a^t2 b^s2)^k read as k mod 2 for even t2 too
    def fake(d1, d2):
        if d2.kind == "T" and d1.kind != "F" and d1.t % d2.t == 0 and d2.t % 2 == 0:
            return d2.s * (d1.t // d2.t % 2) % 3 == (0 if d1.kind == "C" else d1.s)
        return real(d1, d2)
    return fake


_CYCLE = {("T", 1, 1), ("T", 1, 2)}


def _leq_two_cycle(mp):
    # the lattice's containment rule puts T(1,1) and T(1,2) inside each other
    real = lattice_module.subgroup_leq
    mp.setattr(lattice_module, "subgroup_leq",
               lambda d1, d2: (d1 in _CYCLE and d2 in _CYCLE) or real(d1, d2))


def _elements_parity(real):
    # even t read as k mod 2, the rule of odd t
    def fake(params, d):
        if d.kind == "T" and d.t % 2 == 0:
            subgroups_module.validate_descriptor(params, d)
            two_n = params.two_n
            return frozenset(Element(d.t * k % two_n, d.s * (k % 2) % 3)
                             for k in range(two_n // d.t))
        return real(params, d)
    return fake


def _coords(relabel_odd_t):
    coords = _mutated_coords(relabel_odd_t)
    return lambda mp: mp.setattr(lattice_module, "_product_coords", coords)


def _elements_shared(real):
    # T(1,2) gets the element set of T(1,1)
    def fake(params, d):
        if d == ("T", 1, 2):
            d = subgroups_module.SubgroupDescriptor("T", 1, 1)
        return real(params, d)
    return fake


def _elements_swap_s(real):
    # every T(t,s) gets the set of T(t,3-s): still the subgroup family, but
    # each twisted descriptor names the other's subgroup
    def fake(params, d):
        if d.kind == "T":
            d = subgroups_module.SubgroupDescriptor("T", d.t, 3 - d.s)
        return real(params, d)
    return fake


def _relabel_swaps(mp):
    # s swapped for every u > 1, as if every prime p >= 5 were 2 mod 3:
    # wrong for p = 1 mod 3 (7, 13, ...), first with even-t twisted nodes at
    # n = 21, which shares its shape with n = 15
    real = lattice_module._product_coords

    def fake(nodes, core_two_n):
        core, coords = real(nodes, core_two_n)
        index = {d: x for x, d in enumerate(core)}
        for i, d in enumerate(nodes):
            x, u = coords[i]
            if d.kind == "T" and d.t % 2 == 0 and u % 3 == 1 and u > 1:
                coords[i] = (index["T", d.t // u, 3 - d.s], u)
        return core, coords
    mp.setattr(lattice_module, "_product_coords", fake)


def _table_one_level_short(real):
    return lambda lat: real(lat)._replace(levels=real(lat).levels[:-1])


def _drops_last_cover(real):
    return lambda lat: real(lat)[:-1]


def _row_without_column(real):
    # forgets (x, v) for v | u: only the core steps are left
    def row(self, i):
        x, u = self.coords[i]
        return [j for y in self.core_above[x] for j in self.column[u][y]]
    return row


def _normal_row_drops(cover):
    # the first row of the normal lattice loses its first cover, or its
    # first pair with a node between; the full lattice keeps its rows
    def change(real):
        def row(self, i):
            r = real(self, i)
            if self.mode == "normal" and i == 0:
                drop = [j for j in r if any(j in real(self, k) for k in r) != cover]
                if drop:
                    r.remove(min(drop))
            return r
        return row
    return change


def _zeta_without_d(real):
    # normal mode without the - D term of the closed form
    def fake(e2, e3, top, mode):
        if mode != "normal":
            return real(e2, e3, top, mode)
        return (comb(e3 + k - 1, k - 1) * k * comb(e2 + k - 1, k - 1)
                for k in range(1, top + 1))
    return fake


def _shape_two_primes(real):
    # two or more primes p >= 5 counted as one, with the summed exponent
    def fake(e2, e3, exponents, mode):
        if len(exponents) < 2:
            return real(e2, e3, exponents, mode)
        return real(e2, e3, (sum(exponents),), mode)
    return fake


def _shape_cube(real):
    # a_p >= 3 counted as a_p = 2
    return lambda e2, e3, exponents, mode: real(
        e2, e3, tuple(min(a, 2) for a in exponents), mode)


def _fuzzy_odd(real):
    return property(lambda self: 2 * self.total - 1)


def _abelian_multiply(real):
    # b passes a unchanged: Z_2n x Z_3
    def fake(params, x, y):
        return Element((x.a_exp + y.a_exp) % params.two_n, (x.b_exp + y.b_exp) % 3)
    return fake


def _non_canonical_product(shift):
    # a * b in a wrong form: a^(1+2n) b falls off the table, a b^4 aliases
    # the index of a^2 b
    def change(real):
        def fake(params, x, y):
            z = real(params, x, y)
            if (x, y) == ((1, 0), (0, 1)):
                return Element(z.a_exp + shift[0] * params.two_n, z.b_exp + shift[1])
            return z
        return fake
    return change


S, L, C, G = subgroups_module, lattice_module, chains_module, group_module
LAWS, HASSE, LVO = "lattice-order-laws", "hasse-closure", "lattice-vs-oracle"
DFS, SVL, SETS = "dp-vs-dfs", "shape-vs-lattice", "set-chains"
NORMALITY, FAMILY = "normality-vs-oracle", "subgroups-vs-oracle"
CONTAIN, MEMBER = "containment-closed-form", "membership-closed-form"


def both(check):
    return {f"{check}[all]", f"{check}[normal]"}


#: name -> (mutant, n_max of run_verification, the checks that fail)
MUTANTS = {
    # build_lattice drops the node before F(1) as {e}: here a real subgroup
    "enumerate_subgroups drops {e}": (
        _wrap(S, "enumerate_subgroups", _drops_trivial), 16,
        {"count-formula", NORMALITY, FAMILY, f"{SVL}[all]"}),
    "enumerate_subgroups adds odd C(t) to normal": (
        _wrap(S, "enumerate_subgroups", _odd_cyclic_normal), 16,
        {"count-formula", NORMALITY, "normal-restriction", "normal-in-supergroup",
         f"{SVL}[normal]"}),
    "twisted_exists only for odd t": (
        _wrap(S, "twisted_exists", _odd_twisted_only), 16,
        {"count-formula", FAMILY, f"{SVL}[all]"}),
    "subgroup_leq parity rule for even t": (
        _wrap(S, "subgroup_leq", _leq_parity_always), 16,
        {CONTAIN, f"{LVO}[all]", f"{SVL}[all]"}),
    # a cycle, on which the level DP would never reach an empty level
    "lattice's subgroup_leq 2-cycle T(1,1), T(1,2)": (
        _leq_two_cycle, 16, {f"{LAWS}[all]", f"{HASSE}[all]", f"{LVO}[all]"}),
    "subgroup_elements parity rule for even t": (
        _wrap(S, "subgroup_elements", _elements_parity), 16,
        {FAMILY, MEMBER, CONTAIN, "subgroup-closure", f"{LVO}[all]"}),
    "subgroup_elements gives T(1,2) the set of T(1,1)": (
        _wrap(S, "subgroup_elements", _elements_shared), 16,
        {FAMILY, MEMBER, CONTAIN, f"{LVO}[all]"}),
    "subgroup_elements swaps s on every T(t,s)": (
        _wrap(S, "subgroup_elements", _elements_swap_s), 16, {MEMBER}),
    "_product_coords without the s relabel": (_coords(False), 16, {f"{LVO}[all]"}),
    "_product_coords relabels odd t": (_coords(True), 16, {f"{LVO}[all]"}),
    "hasse_edges drops the last cover": (
        _wrap(L, "hasse_edges", _drops_last_cover), 16, both(HASSE)),
    "Lattice.row without its own column": (
        _method(L.Lattice, "row", _row_without_column), 16,
        both(HASSE) | both(LVO) | both(SVL)),
    "Lattice.row drops a cover from the first normal row": (
        _method(L.Lattice, "row", _normal_row_drops(True)), 16,
        {f"{HASSE}[normal]", f"{LVO}[normal]", f"{SVL}[normal]"}),
    "Lattice.row drops a non-cover pair from the first normal row": (
        _method(L.Lattice, "row", _normal_row_drops(False)), 16,
        {f"{LAWS}[normal]", f"{LVO}[normal]"}),
    "compute_chain_table drops its last level": (
        _wrap(C, "compute_chain_table", _table_one_level_short), 16,
        both(DFS) | both(SVL)),
    "_core_zeta normal without - D": (
        _wrap(C, "_core_zeta", _zeta_without_d), 16,
        {f"{SETS}[normal]", f"{SVL}[normal]"}),
    # 2n = 70 = 2 * 5 * 7 is the first with two primes p >= 5
    "shape_chain_counts merges two primes": (
        _wrap(C, "shape_chain_counts", _shape_two_primes), 35, both(SETS) | both(SVL)),
    "ChainCounts.fuzzy_count is 2 total - 1": (
        _method(C.ChainCounts, "fuzzy_count", _fuzzy_odd), 16,
        both(SETS) | {"equivalence-classes"}),
    "multiply is abelian": (
        _wrap(G, "multiply", _abelian_multiply), 16,
        {"group-laws", FAMILY, NORMALITY, "normal-restriction", MEMBER,
         "subgroup-closure", "normal-in-supergroup", "fuzzy-axioms",
         "equivalence-classes"} | both(SETS)),
    "multiply gives a * b as a^(1+2n) b": (
        _wrap(G, "multiply", _non_canonical_product((1, 0))), 16, {"group-laws"}),
    "multiply gives a * b as a b^4": (
        _wrap(G, "multiply", _non_canonical_product((0, 3))), 16, {"group-laws"}),
    # n = 21 is the first n with an even-t twisted node and a prime 1 mod 3
    "_product_coords swaps s for u = 1 mod 3": (_relabel_swaps, 21, {f"{LVO}[all]"}),
}


def _shape_vs_lattice_fails(n):
    params = GroupParams(n)
    dp = chain_counts(compute_chain_table(build_lattice(params, "all")))
    return check_shape_vs_lattice(count_chains(params, "all"), dp) is not None


#: name -> (mutant, n_max, a check the fault fails where verify does not run
#: it): faults that run_verification(n_max) misses
KNOWN_GAPS = {
    # the first a_p >= 3 is at n = 125, far above the oracle limit; ROADMAP
    # item 9 (coverage by shape)
    "shape_chain_counts caps a_p at 2": (
        _wrap(C, "shape_chain_counts", _shape_cube), 16,
        lambda: _shape_vs_lattice_fails(125)),
}

#: name -> (mutant, n_max, the tier-1 test that fails under it): faults in
#: code that only a far larger n than verify can run reaches
BEYOND_VERIFY = {
    # 13 bases call no composite below PSI13 prime, about 3.3e24
    "_is_prime is Miller-Rabin to the 13 bases 2..41": (
        _wrap(S, "_is_prime", lambda real: test_subgroups.miller_rabin_13), 16,
        test_subgroups.test_psi13_passes_the_13_bases_but_not_baillie_psw),
}

#: cycle-making mutants run in a subprocess, which a timeout can stop
IN_SUBPROCESS = {"lattice's subgroup_leq 2-cycle T(1,1), T(1,2)"}


def failing_checks(name):
    """The check names that fail under the named mutant."""
    mutant, n_max, _ = {**MUTANTS, **KNOWN_GAPS, **BEYOND_VERIFY}[name]
    with pytest.MonkeyPatch.context() as mp:
        mutant(mp)
        return {r.check for r in run_verification(n_max) if not r.passed}


@pytest.mark.parametrize("name", sorted(set(MUTANTS) - IN_SUBPROCESS))
def test_mutant_fails_exactly_its_checks(name):
    assert failing_checks(name) == MUTANTS[name][2]


def test_every_mutant_fails_a_check():
    assert len(MUTANTS) >= 12
    assert all(checks for _, _, checks in MUTANTS.values())


#: checks that no row fails alone.  IMPLIED holds what is implied where it
#: runs, each label kept only while the benchmark freezes it: subgroup-closure
#: by membership-closed-form, normal-in-supergroup by normality-vs-oracle,
#: as it fails only on a node is_normal finds not normal in G, and
#: shape-dependence by shape-vs-lattice.  NEED_A_ROW holds the checks that
#: need a row of their own to show what they catch.  A new label or row
#: updates these on purpose.
IMPLIED = {"subgroup-closure", "normal-in-supergroup", "shape-dependence"}
NEED_A_ROW = {
    "containment-closed-form", "count-formula", "dp-vs-dfs", "equivalence-classes",
    "fuzzy-axioms", "lattice-order-laws", "normal-restriction", "normality-vs-oracle",
    "set-chains", "shape-vs-lattice", "subgroups-vs-oracle",
}


def _label(check):
    """A check's label without its [mode]."""
    return check.split("[")[0]


def test_each_check_fails_alone_under_some_row_or_is_named():
    alone = set()
    for _, _, checks in MUTANTS.values():
        labels = set(map(_label, checks))
        if len(labels) == 1:
            alone |= labels
    assert alone == {"group-laws", "hasse-closure", "lattice-vs-oracle",
                     "membership-closed-form"}
    assert not IMPLIED & NEED_A_ROW
    emitted = {_label(r.check) for r in run_verification(16)}
    assert emitted - alone == IMPLIED | NEED_A_ROW


@pytest.mark.parametrize("name", sorted(KNOWN_GAPS))
def test_known_gap_passes_verify_though_a_check_would_catch_it(name):
    mutant, _, caught_elsewhere = KNOWN_GAPS[name]
    assert failing_checks(name) == set()
    with pytest.MonkeyPatch.context() as mp:
        mutant(mp)
        assert caught_elsewhere()


@pytest.mark.parametrize("name", sorted(BEYOND_VERIFY))
def test_fault_beyond_verify_fails_its_tier_1_test(name):
    mutant, _, test = BEYOND_VERIFY[name]
    assert failing_checks(name) == set()
    with pytest.MonkeyPatch.context() as mp:
        mutant(mp)
        with pytest.raises(AssertionError):
            test()


def test_a_cycle_in_the_order_fails_fast_instead_of_hanging():
    # the level DP never empties on a cycle, so the table waits for
    # lattice-order-laws; run apart from pytest, with a timeout
    [name] = IN_SUBPROCESS
    tests = Path(__file__).resolve().parent
    code = (
        "import sys, pytest, test_mutation_matrix as m\n"
        "from u6n.verify import render_report, run_verification\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    m.MUTANTS[sys.argv[1]][0](mp)\n"
        "    print(render_report(run_verification(1)))\n"
        "print(sorted(m.failing_checks(sys.argv[1])))\n"
    )
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    result = subprocess.run(
        [sys.executable, "-c", code, name], capture_output=True, text=True,
        timeout=10, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    *report, matrix_row = result.stdout.splitlines()
    assert "n=1 lattice-order-laws[all]: FAIL (2-cycle T(1,1), T(1,2))" in report
    assert not any(line.startswith("n=1 dp-vs-dfs[all]") for line in report)
    assert "n=1 dp-vs-dfs[normal]: ok" in report
    assert matrix_row == str(sorted(MUTANTS[name][2]))
