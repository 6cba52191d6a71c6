import json

import pytest

from nestkit import suites
from nestkit.analysis import dual_pair
from nestkit.core import Nest, Universe
from nestkit.reporting import SuiteReport, Violation, sort_violations
from nestkit.suites import SuiteConfig, run_suite, suite_names

FAST = SuiteConfig(iters=300)


def test_all_suites_pass_at_reduced_iterations():
    for name in suite_names():
        report = run_suite(name, FAST)
        assert report.passed, report.summary()
        assert report.instances > 0
        assert report.config["seed"] == FAST.seed


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_reports_are_deterministic():
    first = run_suite("generated-orders", SuiteConfig(iters=500, seed=7))
    second = run_suite("generated-orders", SuiteConfig(iters=500, seed=7))
    assert first.to_json() == second.to_json()
    other_seed = run_suite("generated-orders", SuiteConfig(iters=500, seed=8))
    assert other_seed.to_json() != first.to_json() or (
        other_seed.instances == first.instances
    )
    # timing never leaks into the canonical document
    doc = json.loads(first.to_json())
    assert "wall_ms" not in doc
    assert "wall_ms" in json.loads(first.to_json(include_timing=True))


def test_worker_count_does_not_change_documents():
    sequential = run_suite("interlocking", SuiteConfig(workers=1))
    parallel = run_suite("interlocking", SuiteConfig(workers=2))
    assert sequential.to_json() == parallel.to_json()


def test_violation_sorting_and_status():
    violations = [
        Violation("b", {"x": 2}),
        Violation("a", {"x": 1}),
        Violation("a", {"x": 0}),
    ]
    ordered = sort_violations(violations)
    assert [v.property_id for v in ordered] == ["a", "a", "b"]
    report = SuiteReport("demo", {}, 3, ordered)
    assert report.status == "fail"
    assert "FAIL a" in report.summary()
    assert SuiteReport("demo", {}, 3, ()).status == "pass"


def test_census_notes_present():
    report = run_suite("sup-conditions", SuiteConfig())
    joined = " ".join(report.notes)
    assert "one-point universe" in joined
    assert "empty members" in joined
    assert "co-singleton" in joined


def test_dual_pair_checks_build_interval_topology_only_under_the_premise(monkeypatch):
    built = []
    original = suites.interval_topology

    def counting(rel):
        built.append(rel)
        return original(rel)

    monkeypatch.setattr(suites, "interval_topology", counting)
    # the one-point nest of the empty member is self-dual and its sups escape
    # (and are onto) on both sides, so the interval conclusions are evaluated
    point = Nest.of(Universe(1), [[]])
    assert suites._dual_pair_checks(dual_pair(point, point)) == []
    assert len(built) == 1
    # a two-point pair whose sups stay inside: no premise, no topology
    two = Universe(2)
    assert suites._dual_pair_checks(dual_pair(Nest.of(two, [[0]]), Nest.of(two, [[1]]))) == []
    assert len(built) == 1


def test_sup_census_holds_on_five_points():
    report = run_suite("sup-conditions", SuiteConfig(max_n=5))
    assert report.passed, report.summary()
    assert "co-singleton" in " ".join(report.notes)


def test_core_algebra_checks_nest_counts_against_fubini(monkeypatch):
    assert [suites._fubini(n) for n in range(7)] == [1, 1, 3, 13, 75, 541, 4683]
    clean = run_suite("core-algebra", SuiteConfig(max_n=3))
    assert clean.passed, clean.summary()
    # a wrong recurrence must surface at every swept size, and only there
    monkeypatch.setattr(suites, "_fubini", lambda n: 0)
    broken = run_suite("core-algebra", SuiteConfig(max_n=3))
    assert [v.property_id for v in broken.violations] == ["enumerate:fubini-count"] * 3
    assert broken.instances == clean.instances
