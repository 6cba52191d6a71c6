import hashlib
import json
import random
from dataclasses import replace

import pytest

from nestkit import analysis, orders, suites
from nestkit.analysis import DualPair, NestContext, is_interlocking_via_alexandroff
from nestkit.core import (
    Nest, SetFamily, Universe, canonical_masks, enumerate_families, enumerate_nests, indices_of,
    lazy,
)
from nestkit.groups import (
    BUILTIN_GROUPS,
    inversion_continuous,
    inversion_premise,
    multiplication_continuous,
    multiplication_continuous_via_product,
    multiplication_premise,
    subbase_topology,
)
from nestkit.reporting import SuiteReport, Violation, sort_violations
from nestkit.search import SearchSpec, run_search
from nestkit.serialize import canonical_json, family_to_dict
from nestkit.suites import SuiteConfig, run_suite, suite_names
from nestkit.topology import Regions

FAST = SuiteConfig(iters=300)

# sha256 of each suite's canonical document at FAST; a change to any byte of
# a report (a count, a note, a violation) must be deliberate
FAST_DIGESTS = {
    "bound-covers": "3355e2f4d18ae6ae9126c7df8540fbcea45ae1b2b6c1d3ae0be5a742bf2b6799",
    "core-algebra": "7a220cab20c8cf562b98e57309ef0f6cd6a8a0d77aeb40d8d80fe2438338eeeb",
    "generated-orders": "064b21485588fa25c2c6ca4edb6d2f2b66ea3411b06bcb1f3ccc14851484995c",
    "group-compatibility": "38f49f7cfac0898b1d20cd8edd5144d69e91af2365dbdde778480243e59fe9d8",
    "interlocking": "488827c4b2224d1dbe7695a12149da15ee0b07898d6045a4b2e9b8982a69b050",
    "ray-classification": "51e966dff492d4dc2b4a19369377fcc67c5715b43afd78bd1d54ab8ffad43dee",
    "replay": "13ed6d6e27c36075c138ecb9b2d88ad449c032b61f147255cb007aaa4db9b68d",
    "sup-conditions": "b1b33c51159ada3436f3f6b8a4c30bbd089790ad4ca7e470b37ca49e71069498",
    "topology-engine": "3f8306de9acb31430841faaf0d0ad98eff3aa03642b9571a5c0a1185d2adb83a",
}

# the two region sweeps, sup-conditions, interlocking and core-algebra at
# max_n=5, the size the nest-sweep benchmark runs; at five points
# sup-conditions checks complement pairs beyond the three points of its
# all-dual-pairs loop
MAX_N5_DIGESTS = {
    "bound-covers": "5c521ad4519860c40cd936bc30121653ec7eb4dd1f9c88b3aa0620c39daf23fd",
    "core-algebra": "60ca6e5931b2e716c580de652bd0a3656cdfd77f878a500e0eaa0bc7a4c16bd6",
    "interlocking": "0585bb35efbaaaa5d6e189fd691cb99044b05e708c8f632fccd481beb9771088",
    "sup-conditions": "5265bfad288d0c7db966f95f6f7bbd8003e249ce8b5708f8bd85888dc98433b0",
    "topology-engine": "b76775a8c13a84f375543521cc491c152bad9b8e88b030bae3e01f5b13f9dd0a",
}

# the two family-fuzz suites at their defaults (10,000 iterations), at the
# default seed, at seed 1 (the benchmark's default seed), and at seeds 7 and
# 99; generated-orders also at seed 11
DEFAULT_DIGESTS = {
    ("generated-orders", 20260808): "8b07a278d024c1e8d9ddce122d64e2e9b2f1e8cdea53ab30ad391d8f28f7cdf9",
    ("generated-orders", 1): "a0ff12e52696a48d52fd25305f05cb98943ac80729ce5110a1d70d1e9d8f52fd",
    ("generated-orders", 7): "12696de013ff8372f2933bb703ae9b860a36637518dcca5f502d07aec6f4060b",
    ("generated-orders", 99): "efdb8ef455d47c8cc51bca9dab0f99b705c715ae56f31f1432b8e53c8f190dfa",
    ("generated-orders", 11): "cdee6fd36373266dcbeb5519d57cab16808b78774f3fc5d21013383ac7c84d27",
    ("group-compatibility", 20260808): "18af58db77695c99cdecb2250b78169a8ba9cc251964c081df0f51d11e672a3a",
    ("group-compatibility", 1): "dd067a807a1ea96310c85772aafe3f037401bac3e8e8deba38e86de29c0c19ab",
    ("group-compatibility", 7): "e0dcb2ddef374e4dfe651849b60e61db74c6c7c6d0647f94c39c935d52b3fbd1",
    ("group-compatibility", 99): "8e57cbf1f800266a64eba946918f69615bc5a98429342618bf763975de491c41",
}

# generated-orders past its default iterations, so the random loop's checks
# see more of the four- to six-point draws: (suite, seed, iters) -> digest
ITERS_DIGESTS = {
    ("generated-orders", 3, 20_000): "a276305b32106270110578db39aa6473f6cbebb28ad5e0a7670be9e58bff422f",
}

EXHAUSTIVE = ["core-algebra", "topology-engine", "sup-conditions", "interlocking", "bound-covers"]


# the config fields each suite reads besides the seed, so records
READS = {
    "bound-covers": {"max_n", "max_members"},
    "core-algebra": {"max_n", "max_members"},
    "generated-orders": {"max_n", "iters"},
    "group-compatibility": {"iters"},
    "interlocking": {"max_n", "max_members"},
    "ray-classification": set(),
    "replay": set(),
    "sup-conditions": {"max_n", "max_members"},
    "topology-engine": {"max_n", "iters", "max_members"},
}


def test_all_suites_pass_at_reduced_iterations():
    assert sorted(FAST_DIGESTS) == suite_names()
    for name in suite_names():
        report = run_suite(name, FAST)
        assert report.passed, report.summary()
        assert report.instances > 0
        assert report.config["seed"] == FAST.seed
        # FAST gives every suite 300 iterations; only a suite that reads
        # them records them, and apart from that echo the document keeps
        # the bytes it had when every given field was recorded
        assert set(report.config) == {"seed", *READS[name]} - {"max_members"}, name
        assert report.config.get("iters", FAST.iters) == FAST.iters
        doc = report.to_document()
        doc["config"]["iters"] = FAST.iters
        digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
        assert digest == FAST_DIGESTS[name], name


def test_documents_record_only_the_config_fields_their_suite_reads():
    given = SuiteConfig(max_n=2, iters=0, max_members=3)
    for name in suite_names():
        config = run_suite(name, given).config
        assert set(config) == {"seed", *READS[name]}, name


@pytest.mark.parametrize("name", sorted(MAX_N5_DIGESTS))
def test_region_sweeps_keep_their_bytes_at_five_points(name):
    report = run_suite(name, SuiteConfig(max_n=5))
    assert report.passed, report.summary()
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == MAX_N5_DIGESTS[name]


@pytest.mark.parametrize("name,seed", sorted(DEFAULT_DIGESTS))
def test_family_sweeps_keep_their_bytes_at_their_defaults(name, seed):
    report = run_suite(name, SuiteConfig(seed=seed, workers=1))
    assert report.passed, report.summary()
    assert report.config["iters"] == 10_000
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == DEFAULT_DIGESTS[name, seed]


@pytest.mark.parametrize("name,seed,iters", sorted(ITERS_DIGESTS))
def test_family_sweeps_keep_their_bytes_past_their_default_iterations(name, seed, iters):
    report = run_suite(name, SuiteConfig(seed=seed, iters=iters, workers=1))
    assert report.passed, report.summary()
    assert report.config["iters"] == iters
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == ITERS_DIGESTS[name, seed, iters]


def test_generated_orders_checks_the_absorption_pair_form_against_the_row_form(monkeypatch):
    # a pair form that absorbs everything disagrees with the row form on
    # every family on at most three points that is not a nest
    monkeypatch.setattr(suites, "absorbs_rectangle_pairs", lambda masks, full: True)
    report = run_suite("generated-orders", SuiteConfig(iters=0))
    fired = [v for v in report.violations if v.property_id == "absorption:pair-form"]
    assert fired and not report.passed
    assert report.instances == run_suite("generated-orders", SuiteConfig(iters=0)).instances


def test_generated_orders_flags_a_product_form_that_drops_a_member(monkeypatch):
    # the packed product with its last member dropped disagrees with the walk
    # of `order_rows` exactly where that member's rectangle adds a pair
    product = orders.packed_product

    def drop_last(masks, full):
        return product(tuple(masks)[:-1], full)

    want = set()
    for n in (1, 2, 3):
        full = (1 << n) - 1
        for family in enumerate_families(Universe(n)):
            walked = orders.pack_rows(orders.order_rows(family.masks, n, full))
            if drop_last(family.masks, full) != walked:
                want.add((n, family.masks))
    monkeypatch.setattr(suites, "packed_product", drop_last)
    report = run_suite("generated-orders", SuiteConfig(iters=0))
    flagged = set()
    for v in report.violations:
        if v.property_id == "order:product-form":
            n = v.instance["universe"]
            flagged.add((n, SetFamily.of(Universe(n), v.instance["family"]).masks))
    assert want and flagged == want
    assert not report.passed


_TRANSPOSE_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _transpose_skipping(skip):
    """The three masked swaps of `orders.packed_transpose`, all but ``skip``."""
    def transpose(packed):
        for index, (shift, mask) in enumerate(_TRANSPOSE_SWAPS):
            if index != skip:
                t = (packed ^ packed >> shift) & mask
                packed ^= t ^ t << shift
        return packed
    return transpose


@pytest.mark.parametrize("skip", [0, 1, 2])
def test_generated_orders_flags_a_transpose_that_skips_a_swap(monkeypatch, skip):
    # with every swap the helper is the kernel; a skipped swap leaves pairs
    # untransposed, on two points or more (shift 7), three or more (14), or
    # five or more (28, reached by the random loop alone)
    rng = random.Random(skip)
    for _ in range(200):
        packed = rng.getrandbits(64)
        assert _transpose_skipping(None)(packed) == orders.packed_transpose(packed)
    monkeypatch.setattr(suites, "packed_transpose", _transpose_skipping(skip))
    report = run_suite("generated-orders", SuiteConfig(iters=300))
    ids = {v.property_id for v in report.violations}
    assert ids & {"t0:rectangle-form", "complement:transpose"}, ids
    assert not report.passed


def test_random_masks_consume_the_stream_of_the_stdlib_draws():
    # the stdlib expression is the oracle: the same set, and the generator
    # left in the same state, so every seeded document keeps its bytes
    for seed in range(200):
        oracle, sampler = random.Random(seed), random.Random(seed)
        for size in range(1, 9):
            full = (1 << size) - 1
            for cap in range(5):
                expected = {oracle.randrange(full + 1) for _ in range(oracle.randint(0, cap))}
                assert suites._random_masks(sampler, full, cap) == expected, (seed, size, cap)
                assert sampler.getstate() == oracle.getstate(), (seed, size, cap)


def test_random_family_is_the_validated_family_of_its_draws():
    u = Universe(4)
    drawn, oracle = random.Random(3), random.Random(3)
    for _ in range(500):
        family = suites.random_family(drawn, u, 4)
        assert family == SetFamily(u, tuple(suites._random_masks(oracle, u.full_mask, 4)))
        assert family.masks == canonical_masks(family.masks)


def _record_generated_orders(monkeypatch, max_n: int, iters: int) -> list[tuple]:
    """Run generated-orders, logging each `_order_checks` call as
    ("check", size, masks) and each draw as ("draw", size, cap, masks)."""
    events = []
    order_checks, random_masks = suites._order_checks, suites._random_masks

    def record_check(masks, size, full):
        events.append(("check", size, masks))
        return order_checks(masks, size, full)

    def record_draw(rng, full, cap):
        masks = random_masks(rng, full, cap)
        events.append(("draw", full.bit_length(), cap, frozenset(masks)))
        return masks

    monkeypatch.setattr(suites, "_order_checks", record_check)
    monkeypatch.setattr(suites, "_random_masks", record_draw)
    report = run_suite("generated-orders", SuiteConfig(max_n=max_n, iters=iters))
    assert report.passed, report.summary()
    return events


@pytest.mark.parametrize("max_n", [1, 2, 3])
def test_generated_orders_checks_each_small_family_once(monkeypatch, max_n):
    # the random loop counts a draw on at most max_n points but checks it
    # only when the exhaustive loop has not: every family there, and every
    # pair of families containing the empty set for the star union
    events = _record_generated_orders(monkeypatch, max_n, 600)
    first = next(i for i, event in enumerate(events) if event[0] == "draw")
    exhaustive = {(size, masks) for _, size, masks in events[:first]}
    assert exhaustive == {
        (n, family.masks) for n in range(1, max_n + 1) for family in enumerate_families(Universe(n))
    }
    draws = [event for event in events[first:] if event[0] == "draw"]
    lefts = [(size, canonical_masks(masks)) for _, size, cap, masks in draws[0::2]]
    rights = [(size, canonical_masks({0, *masks})) for _, size, cap, masks in draws[1::2]]
    assert {cap for _, _, cap, _ in draws[0::2]} == {4}
    assert {cap for _, _, cap, _ in draws[1::2]} == {3}
    assert {size for size, _ in lefts} == {2, 3, 4, 5, 6}
    for (size, left), right in zip(lefts, rights):
        if size <= max_n:
            assert (size, left) in exhaustive
            assert (size, canonical_masks({0, *left})) in exhaustive and right in exhaustive
    checked = [event[1:] for event in events[first:] if event[0] == "check"]
    assert checked == [(size, masks) for size, masks in lefts if size > max_n]


def test_generated_orders_reports_a_flagged_small_family_once(monkeypatch):
    # the random loop draws the family {{x1}} on two points about once in a
    # hundred draws; the exhaustive loop alone checks it, so the report names
    # it once
    order_checks = suites._order_checks

    def flag(masks, size, full):
        flagged = order_checks(masks, size, full)
        if (size, masks) == (2, (0b01,)):
            flagged.append(Violation("order:product-form", {"universe": 2, "family": [[0]]}))
        return flagged

    monkeypatch.setattr(suites, "_order_checks", flag)
    report = run_suite("generated-orders", SuiteConfig(max_n=3, iters=2_000))
    assert [v.property_id for v in report.violations] == ["order:product-form"]


def _picks(masks) -> int:
    return sum(1 << m for m in masks)


def test_star_table_is_the_star_family_of_every_pair_with_the_empty_set():
    for n in (1, 2, 3):
        full = (1 << n) - 1
        families = [family.masks for family in enumerate_families(Universe(n))]
        # the enumeration order is the pick order the table is indexed by
        assert [_picks(masks) for masks in families] == list(range(len(families)))
        with_empty = [masks for masks in families if 0 in masks]
        for left in with_empty:
            star = suites._star_table(left, full)
            for right in with_empty:
                assert star[_picks(right)] == _picks({a | b for a in left for b in right})


@pytest.mark.parametrize("size", [2, 3])
def test_star_union_violations_match_a_pairwise_loop_on_a_corrupted_order(monkeypatch, size):
    # the family {{}, {x0}, {x1}, {x0, x1}} is the star family of many pairs
    # and an operand of others; flip a pair of its order and every pair that
    # reads it must be flagged as the pairwise definition flags it
    order_rows = orders.order_rows

    def corrupted(masks, n, full):
        rows = order_rows(masks, n, full)
        if (n, frozenset(masks)) == (size, frozenset({0b00, 0b01, 0b10, 0b11})):
            rows = (rows[0] ^ 0b001, *rows[1:])
        return rows

    want = []
    for n in (1, 2, 3):
        u, full = Universe(n), (1 << n) - 1
        with_empty = [family.masks for family in enumerate_families(u) if 0 in family.masks]
        for left in with_empty:
            for right in with_empty:
                merged = {a | b for a in left for b in right}
                rows = tuple(a | b for a, b in zip(corrupted(left, n, full), corrupted(right, n, full)))
                if corrupted(merged, n, full) != rows:
                    want.append(Violation("star-union:order", {
                        "universe": n,
                        "left": family_to_dict(SetFamily(u, left))["family"],
                        "right": family_to_dict(SetFamily(u, right))["family"],
                    }))
    monkeypatch.setattr(suites, "order_rows", corrupted)
    # the report in the order the suite found its violations
    monkeypatch.setattr(suites, "sort_violations", tuple)
    report = run_suite("generated-orders", SuiteConfig(max_n=3, iters=0))
    assert want
    assert [v for v in report.violations if v.property_id == "star-union:order"] == want


def _continuity_pairs(seed: int, per_group: int) -> list[tuple]:
    """(group name, left, right, cross-check) for every pair of the
    exhaustive z2 and z3 sets, then ``per_group`` seeded pairs on each
    sampled group, drawn and cross-checked as group-compatibility does."""
    pairs = []
    for name, most in (("z2", 4), ("z3", 2)):
        u = BUILTIN_GROUPS[name]().universe
        small = [family for family in enumerate_families(u) if len(family) <= most]
        pairs += [(name, left, right, name == "z2") for left in small for right in small]
    rng = random.Random(seed)
    for name in ("z3", "z4", "z2xz2", "s3"):
        u = BUILTIN_GROUPS[name]().universe
        for index in range(per_group):
            left = suites.random_family(rng, u, 3)
            right = suites.random_family(rng, u, 3)
            pairs.append((name, left, right, name == "z3" and index % 50 == 0))
    return pairs


def test_premise_table_matches_the_public_premises(monkeypatch):
    factorization, computed = suites._product_factorization, []

    def counted(group, masks):
        computed.append(masks)
        return factorization(group, masks)

    monkeypatch.setattr(suites, "_product_factorization", counted)
    pairs, tables, fired = _continuity_pairs(5, 500), {}, set()
    for name, left, right, _ in pairs:
        group = BUILTIN_GROUPS[name]()
        premises = tables.setdefault(name, suites._PremiseTable(group))
        inversion = premises.inversion(left, right)
        multiplication = premises.multiplication(left, right)
        assert inversion == inversion_premise(group, left, right), (name, left, right)
        assert multiplication == (
            multiplication_premise(group, left) and multiplication_premise(group, right)
        ), (name, left, right)
        fired.update((premise, name) for premise, held in (
            ("inversion", inversion), ("multiplication", multiplication)) if held)
    # both premises hold somewhere on every group, and each family's are
    # computed once however often it is drawn
    assert fired == {(p, name) for p in ("inversion", "multiplication") for name in tables}
    assert len(computed) == sum(len(table) for table in tables.values())
    assert len(computed) < len(pairs)


def test_a_flipped_premise_yields_the_violations_of_a_per_pair_recomputation(monkeypatch):
    # the one-member family {{0}} on z3 misses the multiplication premise;
    # claiming it makes the pairs whose topology multiplication leaves
    # discontinuous fire, exactly as recomputing both premises per pair does
    factorization = suites._product_factorization

    def flipped(group, masks):
        return factorization(group, masks) != (group.order == 3 and masks == (0b001,))

    iters = 400
    want = []
    for name, left, right, cross in _continuity_pairs(11, iters // 4):
        group = BUILTIN_GROUPS[name]()
        payload = {
            "group": name,
            "left": family_to_dict(left)["family"],
            "right": family_to_dict(right)["family"],
        }
        topo = subbase_topology(group, left, right)
        if inversion_premise(group, left, right) and not inversion_continuous(group, topo):
            want.append(Violation("group:inversion-implication", payload))
        multiplication = flipped(group, left.masks) and flipped(group, right.masks)
        if multiplication and not multiplication_continuous(group, topo):
            want.append(Violation("group:multiplication-implication", payload))
        if cross and multiplication_continuous(group, topo) != multiplication_continuous_via_product(group, topo):
            want.append(Violation("group:continuity-routes", payload))
    monkeypatch.setattr(suites, "_product_factorization", flipped)
    monkeypatch.setattr(suites, "sort_violations", tuple)
    report = run_suite("group-compatibility", SuiteConfig(seed=11, iters=iters))
    assert [v.property_id for v in want] == ["group:multiplication-implication"] * len(want)
    assert want and list(report.violations) == want


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


@pytest.mark.parametrize("name", EXHAUSTIVE)
def test_worker_count_does_not_change_documents(name):
    sequential = run_suite(name, SuiteConfig(workers=1))
    parallel = run_suite(name, SuiteConfig(workers=2))
    assert sequential.to_json() == parallel.to_json()


def test_worker_count_comes_from_the_config_only(monkeypatch):
    monkeypatch.setenv("NESTKIT_WORKERS", "3")
    assert SuiteConfig().resolved_workers() == 1
    assert SuiteConfig(workers=2).resolved_workers() == 2
    assert SuiteConfig(workers=0).resolved_workers() == 1


def test_interlocking_names_the_member_cap_when_it_skips_nests():
    # with no cap given, all 2532 nests on up to five points are checked,
    # the 120 six-member chains included, and no note is needed
    uncapped = run_suite("interlocking", SuiteConfig(max_n=5))
    assert uncapped.passed and uncapped.instances == 2532
    assert uncapped.notes == ()
    # nothing skipped, nothing said
    assert run_suite("interlocking", SuiteConfig(max_n=5, max_members=6)).notes == ()
    assert run_suite("interlocking", SuiteConfig()).notes == ()


def test_config_rejects_out_of_range_fields():
    for field, value in (("max_n", 0), ("max_n", -2), ("iters", -1),
                         ("max_members", -1), ("workers", -1)):
        with pytest.raises(ValueError, match=field):
            SuiteConfig(**{field: value})
    # the smallest accepted values
    SuiteConfig(max_n=1, iters=0, max_members=0, workers=0)


def test_interlocking_applies_a_given_cap_at_every_size():
    # 68 nests on one to three points; at most one member leaves the empty
    # nest and the one-member nests: 3 + 5 + 9
    one = run_suite("interlocking", SuiteConfig(max_n=3, max_members=1))
    assert one.passed and one.instances == 17
    assert one.config["max_members"] == 1
    assert one.notes == ("nests are capped at 1 members: checked 17 of 68 nests",)
    # zero members leaves the empty nest on each size, not a cap of 5
    zero = run_suite("interlocking", SuiteConfig(max_n=3, max_members=0))
    assert zero.instances == 3
    assert zero.notes == ("nests are capped at 0 members: checked 3 of 68 nests",)
    # a cap above every nest's length skips nothing
    assert run_suite("interlocking", SuiteConfig(max_n=3, max_members=4)).instances == 68


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


def test_paired_escape_note_names_both_pair_scopes():
    # the all-dual-pairs loop stops at three points; beyond that only the
    # complement pairs are checked, and the note names both scopes
    note = run_suite("sup-conditions", SuiteConfig(max_n=4)).notes[1]
    assert note.endswith(
        "verified exhaustively over all dual pairs on at most 3 points and over "
        "the complement pair of every nest on at most 4 points")
    note = run_suite("sup-conditions", SuiteConfig(max_n=4, max_members=2)).notes[1]
    assert note.endswith(
        "verified only over the dual pairs of nests of at most 2 members on at "
        "most 3 points and over the complement pair of each such nest on at "
        "most 4 points")


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
    assert suites._dual_pair_checks(DualPair(point, point)) == []
    assert len(built) == 1
    # a two-point pair whose sups stay inside: no premise, no topology
    two = Universe(2)
    assert suites._dual_pair_checks(DualPair(Nest.of(two, [[0]]), Nest.of(two, [[1]]))) == []
    assert len(built) == 1


class _StandIn:
    """A stand-in for a conclusion's topology: `is_open` and ``==`` answer as
    told, whatever they are asked."""

    def __init__(self, opens: bool = True, equal: bool = True) -> None:
        self.opens, self.equal = opens, equal

    def is_open(self, mask: int) -> bool:
        return self.opens

    def __eq__(self, other) -> bool:
        return self.equal

    __hash__ = None


def test_each_dual_pair_check_fires_on_its_own_planted_fault(monkeypatch):
    # every premise fires on the self-dual pair of {∅} on one point; each
    # fault breaks only the conclusion one check reads, so that check alone
    # flags the pair
    point = Nest.of(Universe(1), [[]])
    payload = {"universe": 1, "left": [[]], "right": [[]]}

    def flagged(patch=None):
        pair = DualPair(point, point)
        assert pair.left.sup_conditions.sups_onto
        assert analysis.dual_sup_conditions(pair).sups_onto
        assert all(analysis.lots_hypotheses(pair))
        with monkeypatch.context() as m:
            if patch:
                patch(m, pair)
            return suites._dual_pair_checks(pair)

    assert flagged() == []
    assert flagged(lambda m, pair: m.setattr(
        suites, "interval_topology", lambda rel: _StandIn(opens=False))) == [
        ("pair:escape-joint-in-interval", payload)]
    assert flagged(lambda m, pair: m.setattr(
        suites, "interval_topology", lambda rel: _StandIn(equal=False))) == [
        ("pair:onto-joint-is-interval", payload)]
    assert flagged(lambda m, pair: m.setattr(
        suites, "upper_topology", lambda rel: _StandIn(equal=False))) == [
        ("pair:dual-onto-upper", payload)]
    lots_report = suites.lots_report
    assert flagged(lambda m, pair: m.setattr(
        suites, "lots_report", lambda p: replace(lots_report(p), order_linear=False))) == [
        ("pair:lots-hypotheses", payload)]
    # the inf route: the kernel on the left preorder's columns finds no least
    # upper bound where the right side's blocks find the point
    assert flagged(lambda m, pair: m.setattr(
        suites, "sup_index", lambda rows, full, region: analysis.NO_LEAST)) == [
        ("dual:inf-route", {**payload, "member": 0})]

    # the right member becomes X once both ladders and T0 are read: the
    # premise holds, yet a member is nonempty
    assert flagged(lambda m, pair: m.setattr(pair.right, "nest", Nest.of(Universe(1), [[0]]))) == [
        ("census:paired-escape-empty-members", {**payload, "right": [[0]]})]


def _flagged_by_check(tmp_path, suite: str) -> set[str]:
    """The property ids a failing ``nestkit check`` run of one suite flags."""
    from nestkit.cli import main

    out = tmp_path / f"{suite}.json"
    assert main(["check", "--suite", suite, "--workers", "1", "--json", str(out)]) == 1
    return {v["property"] for v in json.loads(out.read_text())["violations"]}


def test_a_wrong_alexandroff_constant_fails_both_nest_sweeps(monkeypatch, tmp_path):
    # topology-engine checks the constant against both fixed-point routes;
    # the interlocking routes read it, so the Alexandroff route then
    # disagrees with the others on every nest holding X
    for wrong in (0, -1):  # no region fixed, every region fixed
        monkeypatch.setattr(NestContext, "alexandroff", wrong)
        assert _flagged_by_check(tmp_path, "topology-engine") == {"alexandroff:nest-formula"}
        assert "interlocking:triple" in _flagged_by_check(tmp_path, "interlocking")


def test_a_nonempty_fixed_region_in_either_route_fails_topology_engine(monkeypatch, tmp_path):
    # X made its own strict upward reach, in the reach table and then in the
    # complement formula: each route's fixed points then differ from {∅}
    def with_x_fixed(route):
        def fixed(regions, arg):
            return route(regions, arg) | regions.full << regions.full * regions.width
        return fixed

    with monkeypatch.context() as m:
        m.setattr(Regions, "reach_table", with_x_fixed(Regions.reach_table))
        assert _flagged_by_check(tmp_path, "topology-engine") == {
            "alexandroff:nest-formula", "down-set:table", "up-set:table"}
    by_complements = with_x_fixed(suites.up_mask_by_complements)
    monkeypatch.setattr(suites, "up_mask_by_complements", by_complements)
    assert _flagged_by_check(tmp_path, "topology-engine") == {
        "alexandroff:nest-formula", "up-set:formula"}


def test_only_topology_engine_derives_the_alexandroff_family(monkeypatch):
    # the interlocking sweep, its search and analyze read the constant; the
    # reach table's fixed points are derived only as topology-engine's oracle
    from nestkit.cli import analyze_family

    tables = []
    reach_table = Regions.reach_table
    monkeypatch.setattr(Regions, "reach_table",
                        lambda regions, rows: tables.append(rows) or reach_table(regions, rows))
    contexts = [NestContext(nest) for n in range(1, 5) for nest in enumerate_nests(Universe(n))]
    for ctx in contexts:
        nest = ctx.nest
        assert suites._check_interlocking(ctx) == (1, [], [])
        assert is_interlocking_via_alexandroff(nest) == (nest.universe.full_mask not in nest.masks)
        routes = analyze_family(nest)["interlocking_routes"]
        assert routes["alexandroff"] == routes["definition"]
    report = run_search(SearchSpec("interlocking-disagreements", max_n=4))
    assert report.complete and report.examined == len(contexts) and report.witnesses == []
    assert tables == []
    for ctx in contexts:
        assert suites._check_topology(ctx) == (1, [], [])
    # the upward and downward tables of each nest
    assert len(tables) == 2 * len(contexts)


def test_the_interlocking_sweep_builds_no_region_layout():
    # the sweep reads one bit of the constant Alexandroff indicator, at the
    # field width of the universe's size: the 2^n-field layout stays unbuilt
    for n in (3, 9):
        u = Universe(n)
        for masks in ((), (1,), (1, 3), (1, 3, u.full_mask)):
            assert suites._check_interlocking(NestContext(Nest(u, masks))) == (1, [], [])
        assert "regions" not in u.__dict__


def test_a_shifted_right_side_sup_is_a_violation_not_a_usage_error(monkeypatch, tmp_path):
    # the right side's sups read off its blocks are checked against the inf
    # route on every complement pair; a shifted one fails the suite (exit 1)
    from nestkit.cli import main

    complement_dual = suites.complement_dual

    def shifted(ctx):
        pair = complement_dual(ctx)
        right, n = pair.right, ctx.nest.universe.size
        right.sup_indices = {m: (s + 1) % n if s >= 0 else s
                             for m, s in right.sup_indices.items()}
        return pair

    monkeypatch.setattr(suites, "complement_dual", shifted)
    out = tmp_path / "sup.json"
    assert main(["check", "--suite", "sup-conditions", "--workers", "1", "--json", str(out)]) == 1
    flagged = [v for v in json.loads(out.read_text())["violations"]
               if v["property"] == "dual:inf-route"]
    assert flagged and all("member" in v["instance"] for v in flagged)


def test_nest_sweeps_build_relations_only_in_premise_branches(monkeypatch):
    # the per-nest path reads the context's rows; a Relation is built only
    # where a public topology form takes one
    built = []
    validate = orders.Relation.__post_init__
    monkeypatch.setattr(orders.Relation, "__post_init__", lambda rel: built.append(rel) or validate(rel))
    config = SuiteConfig(max_n=4, workers=1)
    for check in (suites._check_topology, suites._check_interlocking,
                  suites._check_bounds, suites._check_core):
        count, violations = suites._sweep(config, check)
        assert count >= 368 and not violations
    assert built == []
    # sup-conditions: only where the nest's sups escape (the lower topology,
    # the pair's interval topology and its orderability report) or the
    # dual's are onto (the upper topology)
    fired = 0
    for n in range(1, 5):
        for nest in enumerate_nests(Universe(n)):
            ctx = NestContext(nest)
            before = len(built)
            suites._check_sup(ctx)
            if len(built) > before:
                dual = analysis.dual_sup_conditions(analysis.complement_dual(ctx))
                assert ctx.sup_conditions.sups_escape or dual.sups_onto
                fired += 1
    assert fired


def test_sup_checks_derive_each_order_once(monkeypatch):
    # a nest's order and its complement's, and no more: the complement pair
    # holds both contexts, so the pair whose orderability hypotheses fire
    # builds its report without deriving an order again; on at most 8
    # points a context derives its order as the packed product
    derived, reports = [], []
    packed_product, lots_report = orders.packed_product, suites.lots_report
    monkeypatch.setattr(orders, "packed_product", lambda *a: derived.append(1) or packed_product(*a))
    monkeypatch.setattr(suites, "lots_report", lambda p: reports.append(p) or lots_report(p))
    nests = 0
    for n in range(1, 6):
        for nest in enumerate_nests(Universe(n), bound=5):
            suites._check_sup(NestContext(nest))
            nests += 1
    assert nests == 2532 and len(reports) == 1
    assert len(derived) == 2 * nests


def test_sup_suite_derives_one_order_per_context(monkeypatch):
    # two orders per swept nest, one per context of the all-dual-pairs loop
    # (68 nests on at most three points) and one for the fixed witness; every
    # pair, complement or not, goes through the one pair-check function; on
    # at most 8 points a context derives its order as the packed product,
    # which the generated-orders checks import for themselves
    derived, checked = [], []
    packed_product, checks = orders.packed_product, suites._dual_pair_checks
    monkeypatch.setattr(orders, "packed_product", lambda *a: derived.append(1) or packed_product(*a))
    monkeypatch.setattr(suites, "_dual_pair_checks", lambda p: checked.append(p) or checks(p))
    report = run_suite("sup-conditions", SuiteConfig(max_n=4, workers=1))
    assert report.passed, report.summary()
    nests = sum(1 for n in range(1, 5) for _ in enumerate_nests(Universe(n)))
    assert nests == 368
    assert len(derived) == 2 * nests + 68 + 1 == 805
    # each nest's complement pair, plus the 272 pairs of the loop
    assert len(checked) == nests + 272 == report.instances


def test_sup_checks_flag_a_complement_that_is_not_the_dual(monkeypatch):
    # the sweep reads the complement's order from the context, so a
    # complement whose order is not the transpose must be flagged, not paired
    ctx = NestContext(Nest.of(Universe(2), [[0]]))
    assert suites._check_sup(ctx) == (1, [], [])
    ctx.dual = NestContext(ctx.nest)
    assert suites._check_sup(ctx) == (1, [("pair:complement-dual", {})], [])
    monkeypatch.setattr(analysis, "family_complement", lambda nest: nest)
    report = run_suite("sup-conditions", SuiteConfig(max_n=3))
    assert "pair:complement-dual" in {v.property_id for v in report.violations}


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


def test_a_failing_report_lists_its_records_notes_and_overflow(monkeypatch):
    # an absorbing pair form fails every family on at most three points that
    # is not a nest: more violations than the summary prints
    monkeypatch.setattr(suites, "absorbs_rectangle_pairs", lambda masks, full: True)
    report = run_suite("generated-orders", SuiteConfig(iters=0))
    doc = json.loads(report.to_json())
    assert doc["status"] == "fail"
    assert doc["violations"] == [
        {"property": v.property_id, "instance": v.instance} for v in report.violations
    ]
    assert {"property": "absorption:pair-form",
            "instance": {"kind": "family", "universe": 2, "family": [[0], [1]]}} in doc["violations"]
    lines = report.summary().splitlines()
    assert len(report.violations) > 20
    assert sum(line.startswith("  FAIL ") for line in lines) == 20
    assert lines[-1] == f"  ... and {len(report.violations) - 20} more"
    # a failing suite with notes prints each one before its violations
    monkeypatch.setattr(suites, "_co_singleton", lambda mask, full: False)
    census = run_suite("sup-conditions", SuiteConfig(max_n=3))
    lines = census.summary().splitlines()
    assert lines[1:4] == [f"  note: {note}" for note in census.notes]
    assert len(lines) == 4 + len(census.violations) == 4 + 3
    assert json.loads(census.to_json())["notes"] == list(census.notes)


def _broken_sup_sweep(max_n: int, breaks) -> list[Violation]:
    # the sweep with a context broken by ``breaks`` before it is checked
    def check(ctx):
        breaks(ctx)
        return suites._check_sup(ctx)

    count, violations = suites._sweep(SuiteConfig(max_n=max_n, workers=1), check)
    assert count == sum(1 for n in range(1, max_n + 1) for _ in enumerate_nests(Universe(n)))
    return violations


def test_census_checks_fire_on_the_nest_they_are_about(monkeypatch):
    point = Nest.of(Universe(1), [[]])

    def not_onto(ctx):
        if ctx.nest == point:
            ctx.sup_conditions = replace(ctx.sup_conditions, sups_onto=False)

    # the broken ladder also differs from the ladder of the member sups
    assert _broken_sup_sweep(2, not_onto) == [
        Violation("ladder:block-form", family_to_dict(point)),
        Violation("census:onto-only-trivial", family_to_dict(point))]

    def empty_not_t0(ctx):
        if ctx.nest == Nest(Universe(1), ()):
            ctx.t0 = False

    assert _broken_sup_sweep(2, empty_not_t0) == [
        Violation("census:escape-t0-inventory", family_to_dict(Nest(Universe(1), ())))]

    # no member passes as co-singleton: each bare-escape nest is flagged, and
    # they are the single co-singleton members of at least two points
    monkeypatch.setattr(suites, "_co_singleton", lambda mask, full: False)
    fired = _broken_sup_sweep(4, lambda ctx: None)
    assert {v.property_id for v in fired} == {"census:bare-escape-form"}
    assert sorted(json.dumps(v.instance) for v in fired) == sorted(
        json.dumps(family_to_dict(Nest(Universe(n), (((1 << n) - 1) ^ (1 << p),))))
        for n in (3, 4) for p in range(n))
    # every member passes: the converse flags the one-member nests of at
    # least two points whose sups stay inside
    monkeypatch.setattr(suites, "_co_singleton", lambda mask, full: True)
    fired = _broken_sup_sweep(3, lambda ctx: None)
    assert [v.instance for v in fired] == [
        family_to_dict(Nest.of(Universe(n), [range(n)])) for n in (2, 3)]


def test_escape_with_t0_past_a_nonempty_member_breaks_the_inventory():
    # escape with T0 holds only on one point, where no member is nonempty, so
    # the inventory check flags every escaping nest with a nonempty member
    # once each one passes as T0
    def force_t0(ctx):
        ctx.t0 = True

    flagged = [v.instance for v in _broken_sup_sweep(4, force_t0)
               if v.property_id == "census:escape-t0-inventory"]
    bare = [
        family_to_dict(nest)
        for n in range(1, 5)
        for nest in enumerate_nests(Universe(n))
        if NestContext(nest).sup_conditions.sups_escape and any(nest.masks)
    ]
    assert len(bare) == 7
    assert all(doc in flagged for doc in bare)


@pytest.mark.parametrize("cap", [None, 0, 1, 2])
def test_bare_escape_note_counts_the_nests_the_sweep_sees(cap):
    # the note states the closed form; the sweep's own census is the oracle
    for max_n in range(1, 6):
        seen = sum(
            1
            for n in range(1, max_n + 1)
            for nest in enumerate_nests(Universe(n), max_members=cap, bound=max_n)
            if NestContext(nest).sup_conditions.sups_escape and any(nest.masks)
        )
        note = run_suite("sup-conditions", SuiteConfig(max_n=max_n, max_members=cap)).notes[2]
        assert note.startswith(f"the bare escape condition also fires for {seen} nests "), max_n


def test_topology_engine_flags_a_brute_force_reach_that_covers_x(monkeypatch, tmp_path):
    # finite nest orders have maximal and minimal elements, so a full reach
    # can only come from a broken order: rows that put every point below
    # every point reach X from each nonempty region, each flagged once
    u = Universe(3)
    nest = Nest.of(u, [[1], [0, 1]])
    assert suites._check_topology(NestContext(nest)) == (1, [], [])
    ctx = NestContext(nest)
    ctx.order_rows = (u.full_mask,) * u.size
    _, flagged, _ = suites._check_topology(ctx)
    regions = [extra["region"] for pid, extra in flagged if pid == "reach:never-full"]
    assert regions == [list(indices_of(m)) for m in range(1, u.full_mask + 1)]
    # X made its own reach on one side of the brute force: the theorem fails
    # with the two routes checked against that side, and bound-covers, which
    # reads the theorem, reads no brute-force reach
    for side, kernel in (("down", Regions.down_mask), ("up", Regions.up_mask)):
        with monkeypatch.context() as m:
            m.setattr(Regions, f"{side}_mask", lambda regions, rows, kernel=kernel: kernel(
                regions, rows) | regions.full << regions.full * regions.width)
            assert _flagged_by_check(tmp_path, "topology-engine") == {
                "reach:never-full", f"{side}-set:formula", f"{side}-set:table"}
            assert run_suite("bound-covers", SuiteConfig(max_n=3, workers=1)).passed


def _corrupted_context():
    """A three-point nest's context with both reach tables corrupted at
    chosen regions, T0 forced and two order rows perturbed."""
    u = Universe(3)
    ctx = NestContext(Nest.of(u, [[1], [0, 1]]))
    assert ctx.order_rows == (0b100, 0b101, 0b000)
    regions = u.regions
    up, down = list(regions.unpack(ctx.up_reach)), list(regions.unpack(ctx.down_reach))
    up[0b011] ^= 0b100
    up[0b100] = u.full_mask
    up[0b110] = 0b110
    down[0b110] = u.full_mask
    down[0b001] ^= 0b010
    ctx.up_reach, ctx.down_reach = regions.pack(up), regions.pack(down)
    ctx.t0 = True
    ctx.order_rows = (0b000, 0b101, 0b001)
    return ctx


def test_failing_region_checks_keep_their_payloads():
    # region by region in ascending mask order, and at each region the ids
    # in the order the check lists them
    def at(mask, *pids):
        return [(pid, {"region": list(indices_of(mask))}) for pid in pids]

    down_f, up_f, down_t, up_t = (
        "down-set:formula", "up-set:formula", "down-set:table", "up-set:table")
    assert suites._check_topology(_corrupted_context()) == (1, [
        *at(0b001, down_f, up_f, down_t, up_t),
        *at(0b011, down_f, down_t, up_t),
        *at(0b100, down_f, up_f, down_t, up_t),
        *at(0b101, down_f, up_f, down_t, up_t),
        *at(0b110, down_f, down_t, up_t),
        *at(0b111, down_f, down_t),
        ("alexandroff:nest-formula", {}),
    ], [])
    # bound-covers reads no reach table: of the corrupted context it reads
    # the perturbed order rows
    assert suites._check_bounds(_corrupted_context()) == (8, [
        ("member:strict-upper-bound", {"member": 0b011}),
    ], [])


BOUND_FAULTS = {
    # every region's member reach made X, or its complement reach
    "down:cover-form": (suites, "down_mask_by_members",
                        lambda regions, masks: regions.fill(regions.full)),
    "up:intersection-form": (suites, "up_mask_by_complements",
                             lambda regions, masks: regions.fill(regions.full)),
    # no region has a reflexive bound
    "down:bound-dichotomy": (Regions, "upper_bounds", lambda regions, rows: 0),
    "up:bound-dichotomy": (Regions, "lower_bounds", lambda regions, rows: 0),
    # the empty region loses its strict lower bounds, a nonempty one its
    # strict upper bounds, or a nonempty one gains a strict lower bound
    # (every nonempty member holds the minimum)
    "bounds:empty-region": (
        suites, "lower_bounds",
        lambda rows, region, bounds=suites.lower_bounds: bounds(rows, region) if region else 0),
    "member:strict-upper-bound": (
        suites, "upper_bounds",
        lambda rows, full, region, bounds=suites.upper_bounds:
            0 if region else bounds(rows, full, region)),
    "member:lower-bound-minimum": (
        suites, "lower_bounds",
        lambda rows, region, bounds=suites.lower_bounds: 1 if region else bounds(rows, region)),
    # the strict form no longer diverges from the dichotomy at the top
    "bounds:strict-divergence-witness": (
        suites, "has_upper_bound", lambda nest, region, strict=True: True),
}


@pytest.mark.parametrize("pid", sorted(BOUND_FAULTS))
def test_each_bound_covers_id_fails_on_its_own_planted_fault(monkeypatch, tmp_path, pid):
    target, name, fault = BOUND_FAULTS[pid]
    monkeypatch.setattr(target, name, fault)
    assert _flagged_by_check(tmp_path, "bound-covers") == {pid}


def test_a_member_without_the_minimum_fails_the_lower_bound_check():
    # the other side of the theorem: preorder rows whose minimum is the last
    # point, which neither member holds, while the strict rows still give
    # neither member a strict lower bound
    ctx = NestContext(Nest.of(Universe(3), [[0], [0, 1]]))
    assert suites._check_bounds(ctx) == (8, [], [])
    ctx.preorder_rows = (0b001, 0b011, 0b111)
    assert suites._check_bounds(ctx) == (8, [
        ("member:lower-bound-minimum", {"member": 0b001}),
        ("member:lower-bound-minimum", {"member": 0b011}),
    ], [])


class _SweptSupsSwapped(NestContext):
    """A swept nest's context whose sups, read off the blocks, swap the two
    codes of a member without a sup on four points.  Its dual is a plain
    context, and the all-dual-pairs loop stops at three points, so no right
    side of a pair reads the swapped codes, and the ladder of the sups
    stays the same."""

    @lazy
    def sup_indices(self) -> dict[int, int]:
        sups = NestContext.sup_indices.func(self)
        if self.nest.universe.size < 4:
            return sups
        swap = {analysis.NO_BOUND: analysis.NO_LEAST, analysis.NO_LEAST: analysis.NO_BOUND}
        return {m: swap.get(s, s) for m, s in sups.items()}


_block_ladder = NestContext.sup_conditions.func

BLOCK_FAULTS = {
    # a ladder read off the blocks where every sup exists, also on a nest
    # with a member without one: no other check reads that rung alone
    "ladder:block-form": ("sup-conditions", NestContext, "sup_conditions", property(
        lambda ctx: analysis.SUPS_EXIST if _block_ladder(ctx) is analysis.NO_SUPS
        else _block_ladder(ctx))),
    "sup:block-form": ("sup-conditions", suites, "NestContext", _SweptSupsSwapped),
    # T0 read off the blocks, counting the empty ones as points
    "t0:block-form": ("core-algebra", NestContext, "t0", property(
        lambda ctx: len(ctx.nest.blocks) == ctx.nest.universe.size)),
}


@pytest.mark.parametrize("pid", sorted(BLOCK_FAULTS))
def test_each_block_form_id_fails_on_its_own_planted_fault(monkeypatch, tmp_path, pid):
    suite, target, name, fault = BLOCK_FAULTS[pid]
    monkeypatch.setattr(target, name, fault)
    assert _flagged_by_check(tmp_path, suite) == {pid}


def test_a_wrong_packed_product_in_the_context_fails_topology_engine(monkeypatch, tmp_path):
    # the context derives its order through `orders.packed_product`; the
    # first member's rectangle dropped there leaves the member formulas,
    # which read the masks, apart from the brute-force reach of the rows.
    # The generated-orders checks keep their own import of the kernel
    product = orders.packed_product
    monkeypatch.setattr(orders, "packed_product", lambda masks, full: product(masks[1:], full))
    assert suites.packed_product is product
    assert _flagged_by_check(tmp_path, "topology-engine") == {"down-set:formula", "up-set:formula"}


def test_a_wrong_packed_transpose_in_the_context_fails_the_inf_route(monkeypatch, tmp_path):
    # the preorder's columns, packed, read as its rows: the inf route on
    # them misses the right side's sups read off its blocks
    monkeypatch.setattr(analysis, "packed_transpose", lambda packed: packed)
    assert _flagged_by_check(tmp_path, "sup-conditions") == {"dual:inf-route"}


def test_bound_covers_derives_no_reach_table_and_no_columns(monkeypatch):
    # the cover forms are checked against the theorem that no strict reach
    # is X, so no region's reach is derived; topology-engine holds the oracle
    derived = []
    reach_table = Regions.reach_table
    monkeypatch.setattr(Regions, "reach_table",
                        lambda regions, rows: derived.append("reach") or reach_table(regions, rows))
    columns = orders.columns
    for module in (orders, analysis):
        monkeypatch.setattr(module, "columns", lambda rows: derived.append("columns") or columns(rows))
    nests = [nest for n in range(1, 5) for nest in enumerate_nests(Universe(n))]
    for nest in nests:
        assert suites._check_bounds(NestContext(nest))[1] == []
    assert derived == []
    # the patches do see the context's reach fields: two tables per nest,
    # one of them on the order's columns
    for nest in nests:
        ctx = NestContext(nest)
        ctx.down_reach, ctx.up_reach
    assert derived.count("reach") == 2 * len(nests) and derived.count("columns") == len(nests)
