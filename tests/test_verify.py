"""The verification battery itself: green on the real code, loud on bugs."""

import pytest

from u6n import ChainCounts, GroupParams
from u6n.verify import (
    CheckResult,
    check_containment,
    check_count_formula,
    check_divisor_shape_dependence,
    check_dp_vs_dfs,
    check_fuzzy_axioms,
    check_group_laws,
    check_hasse_closure,
    check_shape_vs_lattice,
    check_subgroup_family,
    render_report,
    report_json,
    run_verification,
)


def test_full_battery_to_8():
    results = run_verification(8)
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = {r.check for r in results}
    # every family of checks ran at least once
    assert {
        "count-formula",
        "group-laws",
        "subgroups-vs-oracle",
        "normality-vs-oracle",
        "normal-restriction",
        "membership-closed-form",
        "containment-closed-form",
        "subgroup-closure",
        "normal-in-supergroup",
        "lattice-order-laws[all]",
        "lattice-order-laws[normal]",
        "hasse-closure[all]",
        "hasse-closure[normal]",
        "dp-vs-dfs[all]",
        "dp-vs-dfs[normal]",
        "shape-vs-lattice[all]",
        "shape-vs-lattice[normal]",
        "set-chains[all]",
        "set-chains[normal]",
        "fuzzy-axioms",
        "equivalence-classes",
        "shape-dependence",
    } <= names


def test_individual_checks_pass():
    params = GroupParams(3)
    assert check_group_laws(params).passed
    assert check_count_formula(params).passed
    assert check_subgroup_family(params, 300).passed
    assert check_containment(params).passed
    assert check_dp_vs_dfs(params, "all").passed
    assert check_shape_vs_lattice(GroupParams(35), "normal").passed
    assert check_fuzzy_axioms(params).passed


def test_shape_vs_lattice_catches_mismatch(monkeypatch):
    import u6n.verify as verify_module

    wrong = ChainCounts(n=5, mode="all", per_length=(1, 2))
    monkeypatch.setattr(verify_module, "count_chains", lambda params, mode: wrong)
    result = check_shape_vs_lattice(GroupParams(5), "all")
    assert not result.passed
    assert "shape [1, 2] != lattice" in result.detail


def test_hasse_closure_catches_a_non_cover_edge(monkeypatch):
    import u6n.verify as verify_module
    from u6n.lattice import build_lattice, hasse_edges

    params = GroupParams(2)
    lat = build_lattice(params, "all")
    covers = hasse_edges(lat)
    # a strict pair i < k with some j between: its closure adds nothing new
    skip = min(
        (i, k) for i, ups in enumerate(lat.strictly_below) for k in ups
        if (i, k) not in covers
    )
    assert check_hasse_closure(params, "all").passed
    monkeypatch.setattr(verify_module, "hasse_edges", lambda lat: covers | {skip})
    result = check_hasse_closure(params, "all")
    assert not result.passed
    assert result.check == "hasse-closure[all]"
    assert "is not a cover" in result.detail


def test_shape_dependence_reports_matches():
    results = check_divisor_shape_dependence([5, 7])
    assert len(results) == 1
    assert results[0].passed
    assert "matches n=5" in results[0].detail


def test_render_report_formats():
    results = [
        CheckResult(n=1, check="demo", passed=True),
        CheckResult(n=2, check="demo", passed=False, detail="witness"),
    ]
    text = render_report(results)
    assert "n=1 demo: ok" in text
    assert "n=2 demo: FAIL (witness)" in text
    assert "1 of 2 checks FAILED" in text

    payload = report_json(results)
    assert payload["passed"] is False
    assert payload["checks"][1]["detail"] == "witness"


def test_all_green_report():
    text = render_report([CheckResult(n=1, check="demo", passed=True)])
    assert text.endswith("all 1 checks passed")


def test_run_verification_rejects_bad_range():
    with pytest.raises(ValueError):
        run_verification(0)
    with pytest.raises(ValueError):
        run_verification(3, oracle_limit=-5)
    with pytest.raises(ValueError):
        run_verification(3, fuzzy_n_max=-1)
