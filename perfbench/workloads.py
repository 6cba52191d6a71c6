"""The three benchmark workloads.

Each workload is built once per process from its seed (the set-up), then
runs identical rounds of operations.  An operation is one suite run or one
search run in the two sweep workloads, and one CLI request in
instance-queries.  Every operation's output is checked against `oracles`,
outside the timed region.

Importing this module imports nestkit, so the worker imports it inside its
set-up timer.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles as O
from nestkit import cli
from nestkit.analysis import complement_dual, dual_sup_conditions, sup_conditions
from nestkit.core import Nest, SetFamily, Subset, Universe
from nestkit.groups import BUILTIN_GROUPS
from nestkit.orders import generated_order, t0_separates, t1_separates
from nestkit.search import SearchSpec, run_search
from nestkit.suites import SuiteConfig, run_suite
from nestkit.topology import down_set, topology_from_subbase, up_set

SWEEP_MAX_N = 5
SWEEP_SUITES = ("core-algebra", "topology-engine", "sup-conditions", "interlocking", "bound-covers")
SEARCH_TARGETS = (
    "sup-onto-nests", "escaping-sup-nests", "escaping-sup-dual-pairs", "lots-hypothesis-pairs",
    "interlocking-disagreements", "t0-without-escape", "translation-closed-nests",
)
FUZZ_SUITES = ("generated-orders", "group-compatibility", "ray-classification", "replay")
TOPOLOGY_ITERS = 300  # the topology-engine default
FUZZ_ITERS = 10_000   # the generated-orders and group-compatibility default
SEARCH_GROUP = "z4"   # the search default; translation-closed-nests walks its nests
SEARCH_GROUP_CAP = 3  # the search default member cap on group nests
DEMO_IDS = (
    "pair-dual-nests", "pair-t0-nest", "quad-dual-nests", "rays-closed-dense",
    "rays-closed-window", "rays-integer-steps", "rays-open-dense", "rays-open-window",
    "rays-rational-carrier", "rays-scale-group", "rays-shift-group",
)
GROUP_ORDERS = {"z2": 2, "z3": 3, "z4": 4, "z2xz2": 4, "s3": 6, "d4": 8}
SAMPLE_SIZE = 200


@dataclass
class Op:
    """One operation: `run` is timed, `check` is not.

    `check(result)` returns (instances, problems).  `known_fault` marks a
    request whose failure is the known loader fault (an exception escaping
    `cli.main` on a malformed document).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    prepare: Callable[[], None] = lambda: None
    final_checks: Callable[[], list[str]] = lambda: []
    bounds_pairs: int = 0
    detail_groups: dict[str, list[str]] = field(default_factory=dict)


def _key(n: int, members) -> tuple[int, frozenset]:
    return n, frozenset(frozenset(m) for m in members)


def _nest(n: int, members) -> Nest:
    return Nest(Universe(n), tuple(sum(1 << i for i in m) for m in members))


def _family(n: int, members) -> SetFamily:
    return SetFamily(Universe(n), tuple({sum(1 << i for i in m) for m in members}))


def _indices(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _group_table(name: str) -> list[list[int]]:
    table = [list(row) for row in BUILTIN_GROUPS[name]().table]
    O.check_group_table(table)
    return table


# ------------------------------------------------------------ sample checks --


def sample_problems(seed: int, nests: bool) -> list[str]:
    """Definition-level order, T0/T1, sup ladder, strict reach and subbase
    closure against the program, on a seeded sample of nests or families."""
    rng = random.Random(seed)
    problems = []
    for _ in range(SAMPLE_SIZE):
        n = rng.randint(1, 6)
        members = O.random_nest(rng, n) if nests else O.random_family(rng, n, 5)
        fam = _nest(n, members) if nests else _family(n, members)
        where = f"n={n} members={sorted(map(sorted, members))}"
        rel = O.order(members, n)
        if set(generated_order(fam).pairs()) != rel:
            problems.append(f"generated order differs: {where}")
        if t0_separates(fam) != O.t0(members, n) or t1_separates(fam) != O.t1(members, n):
            problems.append(f"T0/T1 differs: {where}")
        opens = {_indices(m) for m in topology_from_subbase(fam).opens}
        want = O.nest_topology(members, n) if nests else O.closure(members, n)
        if opens != want:
            problems.append(f"generated topology differs: {where}")
        for _ in range(3):
            region = frozenset(i for i in range(n) if rng.random() < 0.5)
            sub = Subset(Universe(n), sum(1 << i for i in region))
            if _indices(up_set(generated_order(fam), sub).mask) != O.up_strict(rel, region):
                problems.append(f"up reach differs: {where} region={sorted(region)}")
            if _indices(down_set(generated_order(fam), sub).mask) != O.down_strict(rel, region):
                problems.append(f"down reach differs: {where} region={sorted(region)}")
        if nests:
            cond = sup_conditions(fam)
            if (cond.sups_exist, cond.sups_escape, cond.sups_onto) != O.sup_ladder(members, n):
                problems.append(f"sup ladder differs: {where}")
            dual = dual_sup_conditions(complement_dual(fam))
            want_dual = O.sup_ladder(O.complement_family(members, n), n)
            if (dual.sups_exist, dual.sups_escape, dual.sups_onto) != want_dual:
                problems.append(f"dual sup ladder differs: {where}")
    return problems


# ---------------------------------------------------------------- nest-sweep --


def _suite_op(name: str, config: SuiteConfig, expected: Callable[[], int]) -> Op:
    def check(report) -> tuple[int, list[str]]:
        problems = []
        if report.status != "pass":
            problems.append(f"{name}: status {report.status}")
        if report.instances != expected():
            problems.append(f"{name}: {report.instances} instances, oracle says {expected()}")
        return report.instances, problems
    return Op(f"suite.{name}", lambda: run_suite(name, config), check)


def nest_sweep(seed: int, work_dir: Path) -> Workload:
    config = SuiteConfig(max_n=SWEEP_MAX_N, seed=seed, workers=1)
    interlocking = SuiteConfig(max_n=SWEEP_MAX_N, seed=seed, max_members=6, workers=1)
    oracle: dict = {}

    def prepare() -> None:
        nests = {n: O.all_nests(n) for n in range(1, SWEEP_MAX_N + 1)}
        oracle["nests"] = sum(len(v) for v in nests.values())
        if oracle["nests"] != O.nests_up_to(SWEEP_MAX_N):
            raise AssertionError("own nest enumeration disagrees with 4 x Fubini")
        dual_pairs = 0
        for n in range(1, 4):
            orders = [O.order(nest, n) for nest in nests[n]]
            flipped = [{(y, x) for (x, y) in rel} for rel in orders]
            dual_pairs += sum(1 for left in flipped for right in orders if left == right)
        oracle["sup"] = oracle["nests"] + dual_pairs
        covers = 0
        for n, group in nests.items():
            x = O.points(n)
            for nest in group:
                covers += 1 << n
                for pick in range(1 << len(nest)):
                    chosen = [m for i, m in enumerate(nest) if pick >> i & 1]
                    covers += frozenset().union(*chosen) == x
        oracle["bounds"] = covers
        hits: dict[str, set] = {t: set() for t in SEARCH_TARGETS}
        for n, group in nests.items():
            for nest in group:
                key = _key(n, nest)
                comp = O.complement_family(nest, n)
                _, escape, onto = O.sup_ladder(nest, n)
                _, escape_c, _ = O.sup_ladder(comp, n)
                t0 = O.t0(nest, n)
                nonempty = any(nest)
                if onto:
                    hits["sup-onto-nests"].add(key)
                if escape and nonempty:
                    hits["escaping-sup-nests"].add(key)
                if escape and escape_c and (nonempty or any(comp)):
                    hits["escaping-sup-dual-pairs"].add(key)
                if O.lots(nest, comp, n)[0]:
                    hits["lots-hypothesis-pairs"].add(key)
                if t0 and not escape:
                    hits["t0-without-escape"].add(key)
        table = _group_table(SEARCH_GROUP)
        order = len(table)
        group_nests = O.all_nests(order, SEARCH_GROUP_CAP)
        if len(group_nests) != O.nest_count(order, SEARCH_GROUP_CAP):
            raise AssertionError("own capped nest enumeration disagrees with the chain count")
        oracle["group_nests"] = len(group_nests)
        oracle["table"] = table
        for nest in group_nests:
            if O.translation_closed(table, nest):
                hits["translation-closed-nests"].add(_key(order, nest))
        oracle["hits"] = hits

    def search_check(target: str):
        def check(report) -> tuple[int, list[str]]:
            problems = []
            want = oracle["group_nests"] if target == "translation-closed-nests" else oracle["nests"]
            if report.examined != want or not report.complete:
                problems.append(f"{target}: examined {report.examined} complete "
                                f"{report.complete}, oracle says {want} complete")
            got = set()
            for witness in report.witnesses:
                n, members = O.from_document(witness["instance"])
                got.add(_key(n, members))
                problems += _witness_problems(target, witness, n, members, oracle)
            if got != oracle["hits"][target]:
                problems.append(f"{target}: {len(got)} witnesses, oracle finds "
                                f"{len(oracle['hits'][target])}")
            return report.examined, problems
        return check

    ops = [
        _suite_op("core-algebra", config, lambda: oracle["nests"]),
        _suite_op("topology-engine", config, lambda: oracle["nests"] + TOPOLOGY_ITERS + 4),
        _suite_op("sup-conditions", config, lambda: oracle["sup"]),
        _suite_op("interlocking", interlocking, lambda: oracle["nests"]),
        _suite_op("bound-covers", config, lambda: oracle["bounds"]),
    ]
    for target in SEARCH_TARGETS:
        spec = SearchSpec(target=target, max_n=SWEEP_MAX_N, seed=seed, group=SEARCH_GROUP)
        ops.append(Op(f"search.{target}", lambda spec=spec: run_search(spec), search_check(target)))
    pairs = sum(O.nest_count(n) << n for n in range(1, SWEEP_MAX_N + 1))
    return Workload(
        "nest-sweep", ops, prepare=prepare,
        final_checks=lambda: sample_problems(seed, nests=True),
        bounds_pairs=pairs,
        detail_groups={
            **{f"suite.{s}.s": [f"suite.{s}"] for s in SWEEP_SUITES[1:]},
            "search.s": [f"search.{t}" for t in SEARCH_TARGETS],
        },
    )


def _witness_problems(target: str, witness: dict, n: int, members, oracle: dict) -> list[str]:
    where = f"{target} witness n={n} {sorted(map(sorted, members))}"
    if target == "escaping-sup-nests" and witness["t0_separating"] != O.t0(members, n):
        return [f"{where}: t0_separating wrong"]
    if target in ("escaping-sup-dual-pairs", "lots-hypothesis-pairs"):
        dn, dual = O.from_document(witness["dual"])
        if dn != n or set(dual) != set(O.complement_family(members, n)):
            return [f"{where}: dual is not the complement nest"]
        if target == "lots-hypothesis-pairs" and witness["is_lots"] != O.lots(members, dual, n)[1]:
            return [f"{where}: is_lots wrong"]
    if target == "translation-closed-nests":
        table = oracle["table"]
        if witness["order_compatible"] != O.order_compatible(table, members):
            return [f"{where}: order_compatible wrong"]
        if witness["members_trivial"] != O.members_trivial(members, n):
            return [f"{where}: members_trivial wrong"]
    return []


# --------------------------------------------------------------- family-fuzz --


def family_fuzz(seed: int, work_dir: Path) -> Workload:
    config = SuiteConfig(seed=seed, workers=1)
    expected = {
        "generated-orders": O.generated_orders_instances(FUZZ_ITERS),
        "group-compatibility": O.group_compatibility_instances(FUZZ_ITERS),
        "ray-classification": O.ray_classification_instances(),
        "replay": len(DEMO_IDS),
    }
    ops = [_suite_op(name, config, lambda name=name: expected[name]) for name in FUZZ_SUITES]
    return Workload(
        "family-fuzz", ops,
        final_checks=lambda: sample_problems(seed, nests=False),
        detail_groups={f"suite.{s}.s": [f"suite.{s}"] for s in FUZZ_SUITES[:2]},
    )


# ---------------------------------------------------------- instance-queries --

# A round is BLOCKS blocks of 60 requests: 28 analyze, 8 bounds and 10
# group-check requests on distinct generated instances, the 11 demos and the
# 3 malformed documents.  Runs repeat the round, so the latency percentiles
# draw on thousands of requests while set-up writes about a hundred files.
BLOCKS = 2
ANALYZE_PER_BLOCK = 28
BOUNDS_PER_BLOCK = 8
GROUP_CHECKS_PER_BLOCK = 10

# Malformed documents: the correct answer is exit status 2 with a message
# naming one of the listed fields.
MALFORMED = {
    "bad-index": ({"universe": 3, "family": [[0, "1"]], "kind": "family"}, ("family", "index")),
    "bad-labels": ({"universe": 3, "labels": [1, 2, 3], "family": [[0], [0, 1]], "kind": "nest"},
                   ("label",)),
    "zero-denominator": (
        {"carrier": "Qsqrt2", "window": None, "shape": "open", "orientation": "lower",
         "endpoints": {"kind": "finite_list", "points": [{"a": [1, 0], "b": [0, 1]}]}},
        ("denominator", "points", "endpoints"),
    ),
}


@dataclass
class Response:
    code: int | None
    stdout: str
    stderr: str


def _call_cli(argv: list[str]) -> Response:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 2
    return Response(code, out.getvalue(), err.getvalue())


def _write(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _doc(n: int, members, kind: str, labels: list[str] | None) -> dict:
    doc = {"universe": n, "family": [sorted(m) for m in members], "kind": kind}
    if labels is not None:
        doc["labels"] = labels
    return doc


def instance_queries(seed: int, work_dir: Path) -> Workload:
    rng = random.Random(seed)
    inputs = work_dir / "inputs"
    outputs = work_dir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    tables: dict[str, list[list[int]]] = {}
    expectations: list[Callable[[], object]] = []

    def read_json(path: Path) -> dict:
        return json.loads(path.read_text(encoding="utf-8"))

    def cli_op(label: str, argv: list[str], check, out_path: Path | None = None,
               known_fault: bool = False) -> Op:
        def run():
            # the previous round's output must not pass this round's check
            if out_path is not None and out_path.exists():
                out_path.unlink()
            return _call_cli(argv)
        return Op(label, run, check, known_fault)

    for name, (doc, _) in MALFORMED.items():
        _write(inputs / f"malformed-{name}.json", doc)
    checks = ("translation", "inversion", "multiplication")
    for block in range(BLOCKS):
        for i in range(ANALYZE_PER_BLOCK):
            n = 3 + i % 5
            is_nest = i % 2 == 0
            members = O.random_nest(rng, n) if is_nest else O.random_family(rng, n, 6)
            labels = None
            if i % 3 == 0:
                labels = [f"p{j}" for j in range(n)]
                rng.shuffle(labels)
            tag = f"analyze-{block}-{i}"
            _write(inputs / f"{tag}.json", _doc(n, members, "nest" if is_nest else "family", labels))
            out = outputs / f"{tag}.json"
            ops.append(cli_op(tag, ["analyze", "--input", str(inputs / f"{tag}.json"),
                                    "--json", str(out)],
                              _analyze_check(n, members, labels or O.default_labels(n), out,
                                             read_json, expectations), out))

        for i in range(BOUNDS_PER_BLOCK):
            n = 3 + i % 5
            members = O.random_nest(rng, n)
            region = frozenset(j for j in range(n) if rng.random() < 0.5) or frozenset({0})
            tag = f"bounds-{block}-{i}"
            _write(inputs / f"{tag}.json", _doc(n, members, "nest", None))
            out = outputs / f"{tag}.json"
            argv = ["bounds", "--input", str(inputs / f"{tag}.json"),
                    "--subset", ",".join(map(str, sorted(region))),
                    "--direction", "both", "--json", str(out)]
            ops.append(cli_op(tag, argv, _bounds_check(n, members, region, out, read_json,
                                                       expectations), out))

        for i in range(GROUP_CHECKS_PER_BLOCK):
            group = rng.choice(sorted(GROUP_ORDERS))
            n = GROUP_ORDERS[group]
            check = checks[i % 3]
            left = O.random_nest(rng, n)
            tag = f"group-{block}-{i}"
            _write(inputs / f"{tag}.json", _doc(n, left, "nest", None))
            argv = ["group-check", "--group", group, "--nest", str(inputs / f"{tag}.json"),
                    "--check", check]
            right = left
            if check != "translation" and i % 2 == 1:
                right = O.random_nest(rng, n)
                _write(inputs / f"{tag}-right.json", _doc(n, right, "nest", None))
                argv += ["--right", str(inputs / f"{tag}-right.json")]
            out = outputs / f"{tag}.json"
            argv += ["--json", str(out)]
            ops.append(cli_op(tag, argv, _group_check(group, check, left, right, tables, out,
                                                      read_json, expectations), out))

        for slug in DEMO_IDS:
            ops.append(cli_op(f"demo-{block}-{slug}", ["demo", "--id", slug], _demo_check(slug)))

        for name, (_, fields) in MALFORMED.items():
            ops.append(cli_op(f"malformed-{block}-{name}",
                              ["analyze", "--input", str(inputs / f"malformed-{name}.json")],
                              _malformed_check(name, fields), known_fault=True))

    rng.shuffle(ops)

    def prepare() -> None:
        for group in GROUP_ORDERS:
            tables[group] = _group_table(group)
        for expected in expectations:
            expected()

    return Workload("instance-queries", ops, prepare=prepare)


def _expect_exit(response: Response, code: int, label: str) -> list[str]:
    if response.code != code:
        return [f"{label}: exit {response.code}, expected {code}: {response.stderr.strip()[:200]}"]
    return []


def _analyze_check(n: int, members, labels: list[str], out: Path, read_json, expectations):
    members = tuple(set(members))
    chain = O.is_chain(members)

    @functools.cache
    def expected() -> dict:
        rel = O.order(members, n)
        want = {
            "is_nest": chain,
            "t0_separates": O.t0(members, n),
            "t1_separates": O.t1(members, n),
            "interlocking": O.interlocking(members, n),
        }
        rosters = {
            "from_family": O.nest_topology(members, n) if chain else O.closure(members, n),
            "lower": O.lower_topology(rel, n),
            "upper": O.upper_topology(rel, n),
            "interval": O.interval_topology(rel, n),
            "alexandroff_family": O.alexandroff(rel, n),
        }
        if chain and O.closure(members, n) != rosters["from_family"]:
            raise AssertionError("own closure disagrees with the nest topology")
        out = {"rel": rel, "want": want, "rosters": rosters}
        if chain:
            exist, escape, onto = O.sup_ladder(members, n)
            d_exist, d_escape, d_onto = O.sup_ladder(O.complement_family(members, n), n)
            out["ladder"] = {"sups_exist": exist, "sups_escape": escape, "sups_onto": onto,
                             "dual_sups_exist": d_exist, "dual_sups_escape": d_escape,
                             "dual_sups_onto": d_onto}
            out["lower_sets"] = {m: O.down_strict(rel, m) == m for m in members}
        return out

    expectations.append(expected)

    def check(response: Response) -> tuple[int, list[str]]:
        problems = _expect_exit(response, 0, "analyze")
        if problems:
            return 1, problems
        doc = read_json(out)
        expect = expected()
        want, rosters = expect["want"], expect["rosters"]
        if doc["universe"] != n or {frozenset(m) for m in doc["family"]} != set(members):
            problems.append("analyze: instance echoed wrongly")
        for key, value in want.items():
            if doc[key] != value:
                problems.append(f"analyze: {key} is {doc[key]}, oracle says {value}")
        if {tuple(p) for p in doc["generated_order"]} != expect["rel"]:
            problems.append("analyze: generated order differs")
        for key, roster in rosters.items():
            if O.parse_roster(doc["topologies"][key], labels) != roster:
                problems.append(f"analyze: {key} roster differs")
        if chain:
            if doc["sup_conditions"] != expect["ladder"]:
                problems.append("analyze: sup ladder differs")
            routes = doc["interlocking_routes"]
            if set(routes.values()) != {want["interlocking"]}:
                problems.append("analyze: interlocking routes differ")
            got = {frozenset(m["member"]): m["lower_set"] for m in doc["members"]}
            if got != expect["lower_sets"]:
                problems.append("analyze: member lower sets differ")
        return 1, problems
    return check


def _bounds_check(n: int, members, region: frozenset, out: Path, read_json, expectations):
    @functools.cache
    def expected() -> dict:
        x = O.points(n)
        rel = O.order(members, n)
        down_reach, up_reach = O.down_strict(rel, region), O.up_strict(rel, region)
        not_containing = [m for m in members if not region <= m]
        meeting = [m for m in members if region & m]
        down_holds = frozenset().union(*not_containing) == x
        if down_holds != (down_reach == x):
            raise AssertionError("own cover form disagrees with own strict reach")

        def side(holds: bool, witness, reach: frozenset) -> dict:
            return {
                "holds": holds,
                "witness": {frozenset(m) for m in witness} if holds else None,
                "violating": None if holds else x - reach,
            }

        return {"down": side(down_holds, not_containing, down_reach),
                "up": side(up_reach == x, meeting, up_reach)}

    expectations.append(expected)

    def check(response: Response) -> tuple[int, list[str]]:
        problems = _expect_exit(response, 0, "bounds")
        if problems:
            return 1, problems
        doc = read_json(out)
        if frozenset(doc["subset"]) != region:
            problems.append("bounds: subset echoed wrongly")
        for key, expect in expected().items():
            got = doc[key]
            witness = got["witness_family"]
            violating = got["violating_member"]
            seen = {
                "holds": got["holds"],
                "witness": None if witness is None else {frozenset(m) for m in witness},
                "violating": None if violating is None else frozenset(violating),
            }
            if seen != expect:
                problems.append(f"bounds: {key} cover differs from the oracle")
        return 1, problems
    return check


def _group_check(group: str, check: str, left, right, tables: dict, out: Path, read_json,
                 expectations):
    n = GROUP_ORDERS[group]

    @functools.cache
    def expected() -> tuple[dict, int]:
        table = tables[group]
        doc = {"group_order": n, "check": check}
        if check == "translation":
            doc["translation_closed"] = O.translation_closed(table, left)
            doc["order_compatible"] = O.order_compatible(table, left)
            ok = not doc["translation_closed"] or doc["order_compatible"]
        else:
            opens = O.closure(tuple(left) + tuple(right), n)
            if check == "inversion":
                doc["premise"] = O.inversion_premise(table, left, right)
                doc["continuous"] = O.inversion_continuous(table, opens)
            else:
                doc["premise"] = (O.multiplication_premise(table, left)
                                  and O.multiplication_premise(table, right))
                doc["continuous"] = O.multiplication_continuous(table, opens)
            ok = not doc["premise"] or doc["continuous"]
        return doc, 0 if ok else 1

    expectations.append(expected)

    def run_check(response: Response) -> tuple[int, list[str]]:
        doc, code = expected()
        problems = _expect_exit(response, code, f"group-check {group} {check}")
        if response.code in (0, 1) and read_json(out) != doc:
            problems.append(f"group-check {group} {check}: verdicts differ from the oracle")
        return 1, problems
    return run_check


def _demo_check(slug: str):
    def check(response: Response) -> tuple[int, list[str]]:
        problems = _expect_exit(response, 0, f"demo {slug}")
        if f"[{slug}]" not in response.stdout:
            problems.append(f"demo {slug}: headline missing")
        return 1, problems
    return check


def _malformed_check(name: str, fields: tuple[str, ...]):
    def check(response: Response) -> tuple[int, list[str]]:
        problems = _expect_exit(response, 2, f"malformed {name}")
        if not any(f in response.stderr for f in fields):
            problems.append(f"malformed {name}: message names none of {fields}")
        return 1, problems
    return check


WORKLOADS = {
    "nest-sweep": nest_sweep,
    "family-fuzz": family_fuzz,
    "instance-queries": instance_queries,
}
