"""Targeted searches: collect witnesses where a property's hypotheses fire,
or counterexamples where a checked implication would fail.

Each target walks the instance space (exhaustively or by seeded sampling,
within a budget), records every hit as a standard instance document, and
reports whether the walk covered the whole space.  Persisted witnesses are
ordinary instance files, so anything found can be re-fed to ``analyze``.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator

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
from .groups import BUILTIN_GROUPS, nest_members_trivial, order_compatible, translation_closed
from .reporting import CanonicalReport
from .serialize import canonical_json, family_to_dict
from .suites import random_nest, require_at_least

# A search filter maps a nest's context to a witness note, or to None.
Filter = Callable[[NestContext], dict | None]


@dataclass(frozen=True)
class SearchSpec:
    """One search run.  A field left None takes the target's default, if
    it has one (`Target.defaults`)."""

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


# A walk maps a run's spec to the nests it visits and the filter it keeps
# witnesses with.
Walk = Callable[[SearchSpec], tuple[Iterable[Nest], Filter]]


@dataclass(frozen=True)
class Target:
    summary: str
    walk: Walk
    # the spec fields this target sets when the caller leaves them None
    defaults: dict = field(default_factory=dict)
    # a witness of this target contradicts a checked theorem
    expect_empty: bool = False
    # the spec fields its walk never reads, left out of its document: the
    # nests on 1..max_n points read no group, a group's nests no max_n
    unread: tuple[str, ...] = ("group",)


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


def _nest_stream(spec: SearchSpec) -> Iterator[Nest]:
    if spec.mode == "exhaustive":
        for n in range(1, spec.max_n + 1):
            yield from enumerate_nests(
                Universe(n), max_members=spec.max_members, bound=spec.max_n
            )
    else:
        rng = random.Random(spec.seed)
        while True:
            n = rng.randint(1, spec.max_n)
            yield random_nest(rng, Universe(n), spec.max_members)


TARGETS: dict[str, Target] = {}


def _on_points(name: str, summary: str, expect_empty: bool = False):
    """Register the decorated filter as target ``name``, walking the nests
    on 1..max_n points."""
    def register(keep: Filter) -> Filter:
        TARGETS[name] = Target(
            summary, lambda spec: (_nest_stream(spec), keep), expect_empty=expect_empty
        )
        return keep
    return register


@_on_points("sup-onto-nests", "nests where every point is an escaping supremum")
def _sup_onto(ctx: NestContext) -> dict | None:
    if ctx.sup_conditions.sups_onto:
        return {"instance": family_to_dict(ctx.nest)}
    return None


@_on_points("escaping-sup-nests", "nests with nonempty members whose sups all escape")
def _escaping_sup(ctx: NestContext) -> dict | None:
    if ctx.sup_conditions.sups_escape and any(ctx.nest.masks):
        return {"instance": family_to_dict(ctx.nest), "t0_separating": ctx.t0}
    return None


@_on_points("escaping-sup-dual-pairs", "dual pairs with escaping sups on both sides "
            "and a nonempty member (expected empty)", expect_empty=True)
def _escaping_sup_pairs(ctx: NestContext) -> dict | None:
    if (
        ctx.sup_conditions.sups_escape
        and dual_sup_conditions(complement_dual(ctx)).sups_escape
        and any(ctx.nest.masks + ctx.dual.nest.masks)
    ):
        return {"instance": family_to_dict(ctx.nest), "dual": family_to_dict(ctx.dual.nest)}
    return None


@_on_points("lots-hypothesis-pairs", "dual pairs satisfying the orderability hypotheses")
def _lots_pairs(ctx: NestContext) -> dict | None:
    # both hypotheses need the nest's sups to escape
    if not ctx.sup_conditions.sups_escape:
        return None
    pair = complement_dual(ctx)
    if any(lots_hypotheses(pair)):
        return {
            "instance": family_to_dict(ctx.nest),
            "dual": family_to_dict(ctx.dual.nest),
            "is_lots": lots_report(pair).is_lots,
        }
    return None


@_on_points("interlocking-disagreements", "nests where the three interlocking routes "
            "disagree (expected empty)", expect_empty=True)
def _interlocking_disagreements(ctx: NestContext) -> dict | None:
    verdicts = (
        is_interlocking(ctx.nest),
        is_interlocking_via_alexandroff(ctx),
        is_interlocking_via_lower_sets(ctx),
    )
    if len(set(verdicts)) > 1:
        return {"instance": family_to_dict(ctx.nest), "verdicts": list(verdicts)}
    return None


@_on_points("t0-without-escape", "T0-separating nests whose sups do not escape")
def _t0_without_escape(ctx: NestContext) -> dict | None:
    if ctx.t0 and not ctx.sup_conditions.sups_escape:
        return {"instance": family_to_dict(ctx.nest)}
    return None


def _translation_closed(spec: SearchSpec) -> tuple[Iterator[Nest], Filter]:
    """The nests on a group's elements, and the filter for translation
    closure under that group."""
    group = BUILTIN_GROUPS[spec.group]()
    u = group.universe
    if spec.mode == "exhaustive":
        stream: Iterator[Nest] = enumerate_nests(u, max_members=spec.max_members, bound=u.size)
    else:
        rng = random.Random(spec.seed)
        stream = (random_nest(rng, u, spec.max_members) for _ in repeat(None))

    def keep(ctx: NestContext) -> dict | None:
        if not translation_closed(group, ctx.nest):
            return None
        return {
            "instance": family_to_dict(ctx.nest),
            "group": spec.group,
            "order_compatible": order_compatible(group, ctx.nest),
            "members_trivial": nest_members_trivial(group, ctx.nest),
        }

    return stream, keep


TARGETS["translation-closed-nests"] = Target(
    "nests closed under all group translations", _translation_closed,
    {"group": "z4", "max_members": 3}, unread=("max_n",),
)


def target_names() -> list[str]:
    return sorted(TARGETS)


def run_search(spec: SearchSpec) -> SearchReport:
    if spec.target not in TARGETS:
        raise KeyError(
            f"unknown search target {spec.target!r}; known: {', '.join(target_names())}"
        )
    target = TARGETS[spec.target]
    spec = replace(spec, **{k: v for k, v in target.defaults.items() if getattr(spec, k) is None})
    started = time.perf_counter()
    config = {k: v for k, v in asdict(spec).items() if k not in target.unread}
    stream, keep = target.walk(spec)
    witnesses: list[dict] = []
    examined = 0
    stream_exhausted = True
    for nest in stream:
        if examined >= spec.budget:
            stream_exhausted = False
            break
        examined += 1
        note = keep(NestContext(nest))
        if note is not None:
            witnesses.append(note)
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
