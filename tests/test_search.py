import hashlib
from itertools import islice

import pytest

from nestkit import search
from nestkit.core import count_nests
from nestkit.groups import BUILTIN_GROUPS
from nestkit.search import SearchSpec, persist_witnesses, run_search, target_names
from nestkit.serialize import family_from_dict, load_instance
from nestkit.suites import SuiteConfig, run_suite

from test_suites import MAX_N5_DIGESTS


def test_sup_onto_search_finds_only_the_trivial_nest():
    report = run_search(SearchSpec("sup-onto-nests", max_n=4))
    assert report.complete
    assert [w["instance"]["family"] for w in report.witnesses] == [[[]]]
    assert report.witnesses[0]["instance"]["universe"] == 1


def test_escaping_sup_search():
    report = run_search(SearchSpec("escaping-sup-nests", max_n=4))
    assert report.complete and len(report.witnesses) == 7
    assert all(not w["t0_separating"] for w in report.witnesses)


def test_paired_escape_search_is_empty():
    report = run_search(SearchSpec("escaping-sup-dual-pairs", max_n=4))
    assert report.complete and report.witnesses == []


def test_interlocking_disagreements_none():
    report = run_search(SearchSpec("interlocking-disagreements", max_n=3))
    assert report.complete and report.witnesses == []


def test_lots_hypothesis_pairs_are_trivial():
    report = run_search(SearchSpec("lots-hypothesis-pairs", max_n=4))
    assert report.complete
    for witness in report.witnesses:
        assert witness["is_lots"]
        assert all(member == [] for member in witness["instance"]["family"])


def test_translation_closed_search():
    report = run_search(SearchSpec("translation-closed-nests", group="z4"))
    assert report.complete and report.witnesses
    for witness in report.witnesses:
        assert witness["order_compatible"] and witness["members_trivial"]


def test_budget_marks_incomplete():
    report = run_search(SearchSpec("sup-onto-nests", max_n=4, budget=10))
    assert not report.complete and report.examined == 10
    random_report = run_search(
        SearchSpec("t0-without-escape", max_n=4, mode="random", budget=200, seed=5)
    )
    assert not random_report.complete and random_report.examined == 200
    assert random_report.witnesses  # T0 chains without escape are everywhere


def test_persisted_witnesses_reload(tmp_path):
    report = run_search(SearchSpec("escaping-sup-nests", max_n=3))
    written = persist_witnesses(report, tmp_path)
    assert len(written) == len(report.witnesses)
    for path in written:
        loaded = load_instance(path)
        assert loaded.universe.size == 3


def test_unknown_target_and_bad_mode():
    with pytest.raises(KeyError):
        run_search(SearchSpec("no-such-target"))
    with pytest.raises(ValueError):
        SearchSpec("sup-onto-nests", mode="guess")
    assert "escaping-sup-nests" in target_names()


def test_search_reports_deterministic():
    spec = SearchSpec("t0-without-escape", max_n=4, mode="random", budget=300, seed=11)
    assert run_search(spec).to_json() == run_search(spec).to_json()


# sha256 of each target's canonical document at the default spec and in
# random mode (seed 5, budget 300); a change to any byte must be deliberate
SEARCH_DIGESTS = {
    "escaping-sup-dual-pairs": (
        "c8365cf6d58566213de3fb62c157a5e7d55388dd4209ff4d494c52ff1bedc299",
        "47f9c17b5b125ee0be1d9f7b2506697da6a775a3533d638bd77e4cf574ccc202",
    ),
    "escaping-sup-nests": (
        "5e033e4683ba3a11e0c797e6d1b3fa3f65c90eef9411be15eabaf89ff9040633",
        "7e41bd9be72a2d1127ecbcbbb751b0198063b1b57e950912cfde46a2aa5bfe07",
    ),
    "interlocking-disagreements": (
        "b9cae1e5cd172a4b42ad3608011b2545616b5c60dd85892d0427c3a368526b1c",
        "e673658666857cf87e0b19f5fd72f1b4720e68938ac10091e26a895350c49079",
    ),
    "lots-hypothesis-pairs": (
        "4c0e4454195964b9b0b5a16a66cb8c88e77f18d7b78b32228636447b87478450",
        "0aeb9b409f0239280d4028fc24455004dc0a046169ea8d2f97fc540c4e8e2a0a",
    ),
    "sup-onto-nests": (
        "285406b9c21cb8804f8f68841dc673be78a9f43bc1cf4b9858ba352e130c6f42",
        "b8d913272b194e1f851dc68c9044a9d4ffb3ee721c9f3ba56068020794184527",
    ),
    "t0-without-escape": (
        "c68a7be889b1268dbc24914d4bcbac3b4b4778d95549d205bed2f5a38f2d6dcf",
        "a256f92a162c9b520169b1eedd4f7cf826f5e57eed642e7250b9b094b4df7eb4",
    ),
    "translation-closed-nests": (
        "d218132b8b9f311f3d3d56926065f110f7842174d0a39f3d085eca5c67f17a99",
        "345acea9788300b2534099f815fb6b14776a85085bf7eafbb7f66586ef86b07e",
    ),
}


@pytest.mark.parametrize("target", sorted(SEARCH_DIGESTS))
def test_search_documents_keep_their_bytes(target):
    assert sorted(SEARCH_DIGESTS) == target_names()
    specs = (SearchSpec(target), SearchSpec(target, mode="random", seed=5, budget=300))
    digests = tuple(
        hashlib.sha256(run_search(spec).to_json().encode("utf-8")).hexdigest() for spec in specs
    )
    assert digests == SEARCH_DIGESTS[target]


def test_sweeps_and_searches_repeat_their_bytes_in_one_process():
    # the nests of a universe of at most five points come from a table kept
    # for the process: a one-member sweep and a search on s3's six labelled
    # points in between leave every later document as it was, and as the
    # digest tables pin it
    def documents():
        docs = {name: run_suite(name, SuiteConfig(max_n=5)).to_json() for name in MAX_N5_DIGESTS}
        docs.update({target: run_search(SearchSpec(target)).to_json() for target in target_names()})
        return docs

    first = documents()
    run_suite("sup-conditions", SuiteConfig(max_n=5, max_members=1))
    run_search(SearchSpec("translation-closed-nests", group="s3"))
    assert documents() == first
    digests = {**MAX_N5_DIGESTS, **{target: pair[0] for target, pair in SEARCH_DIGESTS.items()}}
    assert {name: hashlib.sha256(doc.encode("utf-8")).hexdigest()
            for name, doc in first.items()} == digests


def test_random_mode_honours_a_cap_of_zero_members():
    # a cap of 0 used to read as no cap and draw up to n + 1 members
    spec = SearchSpec("sup-onto-nests", mode="random", max_members=0, seed=5)
    nests = search._nests(spec, None)
    assert all(nest.masks == () for nest in islice(nests, 200))


def test_translation_closed_search_honours_a_cap_of_zero_members():
    # a cap of 0 used to run the default cap of 3 (192 z4 nests) and record 0
    report = run_search(SearchSpec("translation-closed-nests", max_members=0))
    assert report.complete and report.examined == 1
    assert report.config["max_members"] == 0
    assert [w["instance"]["family"] for w in report.witnesses] == [[]]


def test_translation_closed_search_records_the_cap_it_ran():
    report = run_search(SearchSpec("translation-closed-nests"))
    assert report.examined == 192
    assert report.config["max_members"] == 3 and report.config["group"] == "z4"
    # the nest targets read no group and record none
    assert "group" not in run_search(SearchSpec("sup-onto-nests", max_n=2)).config


def test_translation_closed_search_records_no_max_n():
    # the walk covers the group's own points whatever max_n says, so the
    # document must not depend on it; the targets on 1..max_n points record it
    small, large = (
        run_search(SearchSpec("translation-closed-nests", max_n=n)) for n in (2, 9)
    )
    assert small.examined == large.examined == 192
    assert "max_n" not in small.config
    assert small.to_json() == large.to_json()
    assert run_search(SearchSpec("sup-onto-nests", max_n=2)).config["max_n"] == 2


# a cap per built-in group that keeps its exhaustive walk small
GROUP_CAPS = {"z2": None, "z3": None, "z4": 3, "z2xz2": 3, "s3": 3, "d4": 2}


@pytest.mark.parametrize("name", sorted(GROUP_CAPS))
def test_translation_closed_search_walks_every_builtin_group(name):
    assert sorted(GROUP_CAPS) == sorted(BUILTIN_GROUPS)
    group = BUILTIN_GROUPS[name]()
    report = run_search(SearchSpec("translation-closed-nests", group=name,
                                   max_members=GROUP_CAPS[name]))
    cap = report.config["max_members"]
    assert cap == (3 if GROUP_CAPS[name] is None else GROUP_CAPS[name])
    assert report.complete and report.examined == count_nests(group.universe, max_members=cap)
    # the trivial nests are closed under every translation
    assert report.witnesses
    for witness in report.witnesses:
        assert witness["group"] == name
        assert family_from_dict(witness["instance"]).universe == group.universe


@pytest.mark.parametrize("name", sorted(GROUP_CAPS))
def test_random_group_walk_stays_on_the_group(name):
    group = BUILTIN_GROUPS[name]()
    for cap in (0, 1, 2):
        spec = SearchSpec("translation-closed-nests", mode="random", group=name,
                          max_members=cap, seed=5)
        for nest in islice(search._nests(spec, group), 200):
            assert nest.universe == group.universe and len(nest) <= cap
    report = run_search(SearchSpec("translation-closed-nests", mode="random", group=name,
                                   budget=100, seed=5))
    assert report.examined == 100 and not report.complete
    for witness in report.witnesses:
        assert witness["group"] == name
        instance = family_from_dict(witness["instance"])
        assert instance.universe == group.universe and len(instance) <= 3
