"""Command-line harness.

Subcommands::

    check        run a registered property suite
    search       hunt for witnesses or counterexamples of a target property
    demo         print a canonical instance with full rosters and verdicts
    analyze      full report on a family/nest instance file
    bounds       cover-witness report for a subset of an instance
    group-check  translation/inversion/multiplication checks on a group

Exit status: 0 all checks passed, 1 a violation or failed check was found,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .analysis import (
    NestContext,
    complement_dual,
    dual_sup_conditions,
    is_interlocking,
    is_interlocking_via_alexandroff,
    is_interlocking_via_lower_sets,
    member_lower_set_masks,
    sup_conditions,
)
from .bounds import down_reach_covers, up_reach_covers
from .core import InstanceError, SetFamily, Subset, as_nest, indices_of, is_nest
from .groups import (
    BUILTIN_GROUPS,
    FiniteGroup,
    inversion_continuity,
    multiplication_continuity,
    order_compatible,
    translation_closed,
)
from .instances import get as get_instance, slugs as instance_slugs
from .orders import generated_order, reflexive_closure, t0_separates, t1_separates
from .search import TARGETS, SearchSpec, persist_witnesses, run_search, target_names
from .serialize import canonical_json, load_instance
from .suites import SUITES, SuiteConfig, run_suite, suite_names
from .topology import (
    alexandroff_family,
    interval_topology,
    lower_topology,
    topology_from_subbase,
    upper_topology,
)

USAGE_ERROR = 2

# analyze tabulates every region of the universe and builds five topologies
# of up to 2^n opens; at 10 points the densest documents measured (all
# subsets, co-singletons, a chain) take about 0.25 s, and each further point
# costs three to four times more
ANALYZE_UNIVERSE_BOUND = 10

# the inversion and multiplication checks build the whole topology that the
# two families generate, up to 2^n opens on a group of order n; at order 14
# the discrete topology (singletons, or a chain with its complement chain)
# takes about 0.25 s per request, and each further element about doubles it
CONTINUITY_ORDER_BOUND = 14


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InstanceError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return USAGE_ERROR


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged, so every call
    to `main` reuses it."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestkit",
        description="executable checks for nests of sets and the orders and "
                    "topologies they generate",
    )
    sub = parser.add_subparsers(required=True)

    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("--suite", help="suite name (see --list)")
    check.add_argument("--list", action="store_true", help="list suites and exit")
    check.add_argument("--max-n", type=int, default=None)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--iters", type=int, default=None)
    check.add_argument("--max-members", type=int, default=None)
    check.add_argument("--workers", type=int, default=None)
    check.add_argument("--json", type=Path, default=None, help="write the report here")
    check.set_defaults(handler=cmd_check)

    search = sub.add_parser("search", help="search for witnesses/counterexamples")
    search.add_argument("--target", help="target property (see --list)")
    search.add_argument("--list", action="store_true", help="list targets and exit")
    # unset flags stay None and take the SearchSpec or target default
    search.add_argument("--max-n", type=int, default=None)
    search.add_argument("--max-members", type=int, default=None)
    search.add_argument("--mode", choices=("exhaustive", "random"), default=None)
    search.add_argument("--budget", type=int, default=None)
    search.add_argument("--seed", type=int, default=None)
    search.add_argument("--group", default=None, choices=sorted(BUILTIN_GROUPS),
                        help="group whose nests translation-closed-nests walks")
    search.add_argument("--out", type=Path, default=None, help="persist witnesses here")
    search.add_argument("--json", type=Path, default=None)
    search.set_defaults(handler=cmd_search)

    demo = sub.add_parser("demo", help="print a canonical instance")
    demo.add_argument("--id", dest="slug", help="instance slug (see --list)")
    demo.add_argument("--list", action="store_true", help="list instances and exit")
    demo.set_defaults(handler=cmd_demo)

    analyze = sub.add_parser("analyze", help="full report on an instance file")
    analyze.add_argument("--input", type=Path, required=True)
    analyze.add_argument("--json", type=Path, default=None)
    analyze.set_defaults(handler=cmd_analyze)

    bounds = sub.add_parser("bounds", help="cover-witness report for a subset")
    bounds.add_argument("--input", type=Path, required=True)
    bounds.add_argument("--subset", required=True,
                        help="comma-separated element indices, e.g. '0,2'")
    bounds.add_argument("--direction", choices=("down", "up", "both"), default="both")
    bounds.add_argument("--json", type=Path, default=None)
    bounds.set_defaults(handler=cmd_bounds)

    group_check = sub.add_parser("group-check", help="group compatibility checks")
    group_check.add_argument("--group", required=True,
                             help=f"built-in name ({', '.join(sorted(BUILTIN_GROUPS))}) "
                                  "or a group instance file")
    group_check.add_argument("--nest", type=Path, required=True,
                             help="family/nest instance file")
    group_check.add_argument("--right", type=Path, default=None,
                             help="second family for the continuity checks")
    group_check.add_argument("--check", required=True,
                             choices=("translation", "inversion", "multiplication"))
    group_check.add_argument("--json", type=Path, default=None)
    group_check.set_defaults(handler=cmd_group_check)

    return parser


def _emit(report_json: str, path: Path | None) -> None:
    if path is not None:
        path.write_text(report_json, encoding="utf-8")


def _given(args, *names: str) -> dict:
    """The named flags that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_check(args) -> int:
    if args.list:
        for name in suite_names():
            print(f"{name:22s} {SUITES[name].summary}")
        return 0
    if not args.suite:
        print("error: --suite is required (or use --list)", file=sys.stderr)
        return USAGE_ERROR
    config = SuiteConfig(**_given(args, "max_n", "seed", "iters", "max_members", "workers"))
    report = run_suite(args.suite, config)
    print(report.summary())
    _emit(report.to_json(), args.json)
    return 0 if report.passed else 1


def cmd_search(args) -> int:
    if args.list:
        for name in target_names():
            print(f"{name:28s} {TARGETS[name].summary}")
        return 0
    if not args.target:
        print("error: --target is required (or use --list)", file=sys.stderr)
        return USAGE_ERROR
    spec = SearchSpec(
        args.target, **_given(args, "max_n", "max_members", "mode", "budget", "seed", "group")
    )
    report = run_search(spec)
    print(report.summary())
    for witness in report.witnesses[:10]:
        print(f"  witness: {witness}")
    if len(report.witnesses) > 10:
        print(f"  ... and {len(report.witnesses) - 10} more")
    if args.out is not None:
        written = persist_witnesses(report, args.out)
        print(f"persisted {len(written)} witness files under {args.out}")
    _emit(report.to_json(), args.json)
    if TARGETS[spec.target].expect_empty and report.witnesses:
        print(f"error: target {spec.target} is expected empty", file=sys.stderr)
        return 1
    return 0


def cmd_demo(args) -> int:
    if args.list:
        for slug in instance_slugs():
            print(f"{slug:28s} {get_instance(slug).summary}")
        return 0
    if not args.slug:
        print("error: --id is required (or use --list)", file=sys.stderr)
        return USAGE_ERROR
    instance = get_instance(args.slug)
    verdicts, text = instance.build()
    print(f"[{instance.slug}] {instance.summary}")
    print()
    print(text)
    print()
    failed = 0
    for check in instance.verify(verdicts):
        mark = "ok" if check.passed else "MISMATCH"
        print(f"  {mark:8s} {check.key}: {check.got!r}" + (
            "" if check.passed else f" (expected {check.want!r})"
        ))
        failed += 0 if check.passed else 1
    return 0 if failed == 0 else 1


def _load_family(path: Path, flag: str, group: FiniteGroup | None = None) -> SetFamily:
    """The family or nest document given as ``flag``; with a group, it must
    live on the group's points."""
    family = load_instance(path, SetFamily)
    if group is not None and family.universe.size != group.order:
        side = "" if flag == "--nest" else f"{flag} "
        raise InstanceError(f"{side}family universe does not match the group order")
    return family


def cmd_analyze(args) -> int:
    document = analyze_family(_load_family(args.input, "--input"))
    print(render_analysis(document))
    _emit(canonical_json(document), args.json)
    return 0


def analyze_family(family: SetFamily) -> dict:
    u = family.universe
    if u.size > ANALYZE_UNIVERSE_BOUND:
        raise InstanceError(
            f"'universe' size {u.size} exceeds the analyze bound {ANALYZE_UNIVERSE_BOUND}"
        )
    order = generated_order(family)
    document: dict = {
        "universe": u.size,
        "family": [list(indices_of(m)) for m in family.masks],
        "is_nest": is_nest(family),
        "t0_separates": t0_separates(family),
        "t1_separates": t1_separates(family),
        "generated_order": [list(p) for p in order.pairs()],
        "interlocking": is_interlocking(family),
    }
    pre = reflexive_closure(order)
    document["topologies"] = {
        "from_family": topology_from_subbase(family).render(),
        "lower": lower_topology(pre).render(),
        "upper": upper_topology(pre).render(),
        "interval": interval_topology(pre).render(),
        "alexandroff_family": alexandroff_family(order).render(),
    }
    if document["is_nest"]:
        nest = as_nest(family)
        ctx = NestContext(nest)
        cond = sup_conditions(ctx)
        dual_cond = dual_sup_conditions(complement_dual(ctx))
        document["sup_conditions"] = {
            "sups_exist": cond.sups_exist,
            "sups_escape": cond.sups_escape,
            "sups_onto": cond.sups_onto,
            "dual_sups_exist": dual_cond.sups_exist,
            "dual_sups_escape": dual_cond.sups_escape,
            "dual_sups_onto": dual_cond.sups_onto,
        }
        document["interlocking_routes"] = {
            "definition": document["interlocking"],
            "alexandroff": is_interlocking_via_alexandroff(ctx),
            "lower_sets": is_interlocking_via_lower_sets(ctx),
        }
        document["members"] = [
            {
                "member": list(indices_of(m)),
                "lower_set": member_lower_set_masks(ctx, m).is_lower_set,
            }
            for m in nest.masks
        ]
    return document


def render_analysis(document: dict) -> str:
    lines = [
        f"universe size {document['universe']}; "
        f"{'nest' if document['is_nest'] else 'family'} with "
        f"{len(document['family'])} members",
        f"T0-separating: {document['t0_separates']}   "
        f"T1-separating: {document['t1_separates']}   "
        f"interlocking: {document['interlocking']}",
        f"generated order pairs: {document['generated_order']}",
    ]
    for name, roster in document["topologies"].items():
        lines.append(f"{name:18s}: {roster}")
    if "sup_conditions" in document:
        cond = document["sup_conditions"]
        lines.append(
            "sup ladder: exist={sups_exist} escape={sups_escape} "
            "onto={sups_onto} (dual: {dual_sups_exist}/{dual_sups_escape}/"
            "{dual_sups_onto})".format(**cond)
        )
        routes = document["interlocking_routes"]
        lines.append(
            f"interlocking routes: definition={routes['definition']} "
            f"alexandroff={routes['alexandroff']} lower-sets={routes['lower_sets']}"
        )
        for member in document["members"]:
            lines.append(
                f"  member {member['member']}: lower set = {member['lower_set']}"
            )
    return "\n".join(lines)


def cmd_bounds(args) -> int:
    ctx = NestContext(as_nest(_load_family(args.input, "--input")))
    try:
        indices = [int(part) for part in args.subset.split(",") if part.strip() != ""]
    except ValueError:
        print(f"error: cannot parse subset {args.subset!r}", file=sys.stderr)
        return USAGE_ERROR
    region = Subset.of(ctx.nest.universe, indices)
    document: dict = {"subset": list(region.indices)}
    if args.direction in ("down", "both"):
        document["down"] = down_reach_covers(ctx, region).to_dict()
    if args.direction in ("up", "both"):
        document["up"] = up_reach_covers(ctx, region).to_dict()
    for key in ("down", "up"):
        if key in document:
            print(f"{key}: {document[key]}")
    _emit(canonical_json(document), args.json)
    return 0


def _load_group(spec: str) -> FiniteGroup:
    if spec in BUILTIN_GROUPS:
        return BUILTIN_GROUPS[spec]()
    return load_instance(spec, FiniteGroup)


def cmd_group_check(args) -> int:
    group = _load_group(args.group)
    family = _load_family(args.nest, "--nest", group)
    document: dict = {"group_order": group.order, "check": args.check}
    if args.check == "translation":
        nest = as_nest(family)
        if not t0_separates(nest):
            print("note: the nest does not T0-separate the group; the "
                  "compatibility definition is evaluated regardless")
        premise = document["translation_closed"] = translation_closed(group, nest)
        conclusion = document["order_compatible"] = order_compatible(group, nest)
    else:
        if group.order > CONTINUITY_ORDER_BOUND:
            raise InstanceError(
                f"--group of order {group.order} exceeds the continuity bound "
                f"{CONTINUITY_ORDER_BOUND}"
            )
        right = family if args.right is None else _load_family(args.right, "--right", group)
        runner = inversion_continuity if args.check == "inversion" else multiplication_continuity
        report = runner(group, family, right)
        premise = document["premise"] = report.premise
        conclusion = document["continuous"] = report.continuous
    print(canonical_json(document), end="")
    _emit(canonical_json(document), args.json)
    return 0 if (not premise or conclusion) else 1


if __name__ == "__main__":
    sys.exit(main())
