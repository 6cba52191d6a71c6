"""Targeted searches: collect witnesses where a property's hypotheses fire,
or counterexamples where a checked implication would fail.

Every target is a filter over nest contexts, and each `run_search` call
walks the stream once for its one target: the nests on 1..max_n points, or
on a group's elements with unset fields taken from `GROUP_DEFAULTS`,
exhaustively or by seeded sampling within a budget.  Each hit is recorded
as a standard instance document, so anything found can be re-fed to
``analyze``, and the report says whether the walk covered the whole space.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from .analysis import (
    NestContext,
    complement_dual,
    dual_sup_conditions,
    is_interlocking,
    is_interlocking_via_alexandroff,
    is_interlocking_via_lower_sets,
    lots_hypotheses,
    lots_report,
)
from .core import Nest, Universe, enumerate_nests
from .groups import BUILTIN_GROUPS, FiniteGroup, nest_members_trivial, order_compatible, translation_closed
from .reporting import CanonicalReport
from .serialize import canonical_json, family_to_dict
from .suites import random_nest, require_at_least

# A search filter maps a nest's context (after the group, for a target on a
# group) to the fields of its witness other than the nest, or to None.
Filter = Callable[..., dict | None]

# the fields a target on a group takes when the caller leaves them None
GROUP_DEFAULTS = {"group": "z4", "max_members": 3}


@dataclass(frozen=True)
class SearchSpec:
    """One search run.  A target on a group takes the fields left None from
    `GROUP_DEFAULTS` and reads no ``max_n``; the other targets read no
    ``group``."""

    target: str
    max_n: int = 4
    max_members: int | None = None
    mode: str = "exhaustive"
    budget: int = 100_000
    seed: int = 20260808
    group: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError("mode must be 'exhaustive' or 'random'")
        require_at_least(self, max_n=1, budget=0, max_members=0)


@dataclass(frozen=True)
class Target:
    summary: str
    keep: Filter
    # a witness of this target contradicts a checked theorem
    expect_empty: bool = False
    # walks the nests on a group's elements, and its filter takes the group
    on_group: bool = False


@dataclass
class SearchReport(CanonicalReport):
    target: str
    config: dict
    examined: int
    witnesses: list[dict]
    complete: bool
    wall_ms: float = 0.0

    def to_document(self, include_timing: bool = False) -> dict:
        doc = {
            "target": self.target,
            "config": self.config,
            "examined": self.examined,
            "complete": self.complete,
            "witnesses": self.witnesses,
        }
        if include_timing:
            doc["wall_ms"] = round(self.wall_ms, 3)
        return doc

    def summary(self) -> str:
        state = "complete" if self.complete else "incomplete (budget exhausted)"
        return (
            f"search {self.target}: {len(self.witnesses)} witnesses over "
            f"{self.examined} instances, {state}, {self.wall_ms:.0f} ms"
        )


def _nests(spec: SearchSpec, group: FiniteGroup | None) -> Iterator[Nest]:
    """The nests on 1..max_n points, or on the group's labelled elements."""
    if spec.mode == "exhaustive":
        bound = group.order if group else spec.max_n
        for u in [group.universe] if group else map(Universe, range(1, bound + 1)):
            yield from enumerate_nests(u, max_members=spec.max_members, bound=bound)
    else:
        rng = random.Random(spec.seed)
        while True:
            u = group.universe if group else Universe(rng.randint(1, spec.max_n))
            yield random_nest(rng, u, spec.max_members)


TARGETS: dict[str, Target] = {}


def _target(name: str, summary: str, expect_empty: bool = False, on_group: bool = False):
    """Register the decorated filter as target ``name``."""
    def register(keep: Filter) -> Filter:
        TARGETS[name] = Target(summary, keep, expect_empty, on_group)
        return keep
    return register


@_target("sup-onto-nests", "nests where every point is an escaping supremum")
def _sup_onto(ctx: NestContext) -> dict | None:
    return {} if ctx.sup_conditions.sups_onto else None


@_target("escaping-sup-nests", "nests with nonempty members whose sups all escape")
def _escaping_sup(ctx: NestContext) -> dict | None:
    if ctx.sup_conditions.sups_escape and any(ctx.nest.masks):
        return {"t0_separating": ctx.t0}
    return None


@_target("escaping-sup-dual-pairs", "dual pairs with escaping sups on both sides "
         "and a nonempty member (expected empty)", expect_empty=True)
def _escaping_sup_pairs(ctx: NestContext) -> dict | None:
    if (
        ctx.sup_conditions.sups_escape
        and dual_sup_conditions(complement_dual(ctx)).sups_escape
        and any(ctx.nest.masks + ctx.dual.nest.masks)
    ):
        return {"dual": family_to_dict(ctx.dual.nest)}
    return None


@_target("lots-hypothesis-pairs", "dual pairs satisfying the orderability hypotheses")
def _lots_pairs(ctx: NestContext) -> dict | None:
    # both hypotheses need the nest's sups to escape
    if not ctx.sup_conditions.sups_escape:
        return None
    pair = complement_dual(ctx)
    if any(lots_hypotheses(pair)):
        return {"dual": family_to_dict(ctx.dual.nest), "is_lots": lots_report(pair).is_lots}
    return None


@_target("interlocking-disagreements", "nests where the three interlocking routes "
         "disagree (expected empty)", expect_empty=True)
def _interlocking_disagreements(ctx: NestContext) -> dict | None:
    verdicts = (
        is_interlocking(ctx.nest),
        is_interlocking_via_alexandroff(ctx),
        is_interlocking_via_lower_sets(ctx),
    )
    if len(set(verdicts)) > 1:
        return {"verdicts": list(verdicts)}
    return None


@_target("t0-without-escape", "T0-separating nests whose sups do not escape")
def _t0_without_escape(ctx: NestContext) -> dict | None:
    return {} if ctx.t0 and not ctx.sup_conditions.sups_escape else None


@_target("translation-closed-nests", "nests closed under all group translations",
         on_group=True)
def _translation_closed(group: FiniteGroup, ctx: NestContext) -> dict | None:
    if not translation_closed(group, ctx.nest):
        return None
    return {
        "order_compatible": order_compatible(group, ctx.nest),
        "members_trivial": nest_members_trivial(group, ctx.nest),
    }


def target_names() -> list[str]:
    return sorted(TARGETS)


def run_search(spec: SearchSpec) -> SearchReport:
    if spec.target not in TARGETS:
        raise KeyError(
            f"unknown search target {spec.target!r}; known: {', '.join(target_names())}"
        )
    started = time.perf_counter()
    target = TARGETS[spec.target]
    group, keep, fields = None, target.keep, {}
    if target.on_group:
        spec = replace(spec, **{k: v for k, v in GROUP_DEFAULTS.items() if getattr(spec, k) is None})
        group = BUILTIN_GROUPS[spec.group]()
        keep, fields = partial(keep, group), {"group": spec.group}
    unread = "max_n" if target.on_group else "group"
    config = {k: v for k, v in asdict(spec).items() if k != unread}
    witnesses: list[dict] = []
    examined = 0
    stream_exhausted = True
    for nest in _nests(spec, group):
        if examined >= spec.budget:
            stream_exhausted = False
            break
        examined += 1
        note = keep(NestContext(nest))
        if note is not None:
            witnesses.append({"instance": family_to_dict(nest), **fields, **note})
    return SearchReport(
        target=spec.target,
        config=config,
        examined=examined,
        witnesses=witnesses,
        complete=spec.mode == "exhaustive" and stream_exhausted,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )


def persist_witnesses(report: SearchReport, directory: str | Path) -> list[Path]:
    """Write each witness's instance document(s) as re-loadable files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for index, witness in enumerate(report.witnesses):
        for key in ("instance", "dual"):
            if key in witness:
                suffix = "" if key == "instance" else "-dual"
                path = directory / f"{report.target}-{index:04d}{suffix}.json"
                path.write_text(canonical_json(witness[key]), encoding="utf-8")
                written.append(path)
    return written
