"""Targeted searches: collect witnesses where a property's hypotheses fire,
or counterexamples where a checked implication would fail.

Each target walks the instance space (exhaustively or by seeded sampling,
within a budget), records every hit as a standard instance document, and
reports whether the walk covered the whole space.  Persisted witnesses are
ordinary instance files, so anything found can be re-fed to ``analyze``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .analysis import (
    DualPair,
    NestContext,
    is_interlocking,
    is_interlocking_via_alexandroff_in,
    is_interlocking_via_lower_sets_in,
    lots_hypotheses,
    lots_report,
    sup_conditions,
)
from .core import Nest, Universe, enumerate_nests
from .groups import BUILTIN_GROUPS, nest_members_trivial, order_compatible, translation_closed
from .orders import t0_separates
from .serialize import canonical_json, family_to_dict
from .suites import random_nest


@dataclass(frozen=True)
class SearchSpec:
    target: str
    max_n: int = 4
    max_members: int | None = None
    mode: str = "exhaustive"
    budget: int = 100_000
    seed: int = 20260808
    group: str = "z4"

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError("mode must be 'exhaustive' or 'random'")


@dataclass
class SearchReport:
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

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(
            self.to_document(include_timing), sort_keys=True, separators=(",", ":")
        ) + "\n"

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
            yield random_nest(rng, Universe(n), spec.max_members or n + 1)


def _target_sup_onto(spec: SearchSpec):
    for nest in _nest_stream(spec):
        hit = sup_conditions(nest).sups_onto
        yield nest, ({"instance": family_to_dict(nest)} if hit else None)


def _target_escaping_sup(spec: SearchSpec):
    for nest in _nest_stream(spec):
        cond = sup_conditions(nest)
        hit = cond.sups_escape and any(m for m in nest.masks)
        note = None
        if hit:
            note = {
                "instance": family_to_dict(nest),
                "t0_separating": t0_separates(nest),
            }
        yield nest, note


def _target_escaping_sup_pairs(spec: SearchSpec):
    for nest in _nest_stream(spec):
        ctx = NestContext(nest)
        hit = (
            ctx.sup_conditions.sups_escape
            and ctx.dual_sup_conditions.sups_escape
            and any(m for m in nest.masks + ctx.complement.masks)
        )
        note = None
        if hit:
            note = {
                "instance": family_to_dict(nest),
                "dual": family_to_dict(ctx.complement),
            }
        yield nest, note


def _target_lots_pairs(spec: SearchSpec):
    for nest in _nest_stream(spec):
        ctx = NestContext(nest)
        note = None
        if any(lots_hypotheses(
            nest, ctx.complement, ctx.sup_conditions, ctx.dual_sup_conditions
        )):
            note = {
                "instance": family_to_dict(nest),
                "dual": family_to_dict(ctx.complement),
                "is_lots": lots_report(DualPair(nest, ctx.complement)).is_lots,
            }
        yield nest, note


def _target_interlocking_disagreements(spec: SearchSpec):
    for nest in _nest_stream(spec):
        ctx = NestContext(nest)
        verdicts = (
            is_interlocking(nest),
            is_interlocking_via_alexandroff_in(ctx),
            is_interlocking_via_lower_sets_in(ctx),
        )
        note = None
        if len(set(verdicts)) > 1:
            note = {"instance": family_to_dict(nest), "verdicts": list(verdicts)}
        yield nest, note


def _target_t0_without_escape(spec: SearchSpec):
    for nest in _nest_stream(spec):
        hit = t0_separates(nest) and not sup_conditions(nest).sups_escape
        yield nest, ({"instance": family_to_dict(nest)} if hit else None)


def _random_nests(seed: int, universe: Universe, cap: int) -> Iterator[Nest]:
    rng = random.Random(seed)
    while True:
        yield random_nest(rng, universe, cap)


def _target_translation_closed(spec: SearchSpec):
    group = BUILTIN_GROUPS[spec.group]()
    u = group.universe
    cap = spec.max_members or 3
    if spec.mode == "exhaustive":
        stream: Iterator[Nest] = enumerate_nests(u, max_members=cap, bound=u.size)
    else:
        stream = _random_nests(spec.seed, u, cap)
    for nest in stream:
        note = None
        if translation_closed(group, nest):
            note = {
                "instance": family_to_dict(nest),
                "group": spec.group,
                "order_compatible": order_compatible(group, nest),
                "members_trivial": nest_members_trivial(group, nest),
            }
        yield nest, note


TARGETS: dict[str, Callable] = {
    "sup-onto-nests": _target_sup_onto,
    "escaping-sup-nests": _target_escaping_sup,
    "escaping-sup-dual-pairs": _target_escaping_sup_pairs,
    "lots-hypothesis-pairs": _target_lots_pairs,
    "interlocking-disagreements": _target_interlocking_disagreements,
    "t0-without-escape": _target_t0_without_escape,
    "translation-closed-nests": _target_translation_closed,
}

TARGET_SUMMARIES = {
    "sup-onto-nests": "nests where every point is an escaping supremum",
    "escaping-sup-nests": "nests with nonempty members whose sups all escape",
    "escaping-sup-dual-pairs": "dual pairs with escaping sups on both sides "
                               "and a nonempty member (expected empty)",
    "lots-hypothesis-pairs": "dual pairs satisfying the orderability hypotheses",
    "interlocking-disagreements": "nests where the three interlocking routes "
                                  "disagree (expected empty)",
    "t0-without-escape": "T0-separating nests whose sups do not escape",
    "translation-closed-nests": "nests closed under all group translations",
}


def target_names() -> list[str]:
    return sorted(TARGETS)


def run_search(spec: SearchSpec) -> SearchReport:
    if spec.target not in TARGETS:
        raise KeyError(
            f"unknown search target {spec.target!r}; known: {', '.join(target_names())}"
        )
    started = time.perf_counter()
    witnesses: list[dict] = []
    examined = 0
    stream_exhausted = True
    for _instance, note in TARGETS[spec.target](spec):
        if examined >= spec.budget:
            stream_exhausted = False
            break
        examined += 1
        if note is not None:
            witnesses.append(note)
    complete = spec.mode == "exhaustive" and stream_exhausted
    config = {
        "target": spec.target,
        "max_n": spec.max_n,
        "max_members": spec.max_members,
        "mode": spec.mode,
        "budget": spec.budget,
        "seed": spec.seed,
    }
    if spec.target == "translation-closed-nests":
        config["group"] = spec.group
    return SearchReport(
        target=spec.target,
        config=config,
        examined=examined,
        witnesses=witnesses,
        complete=complete,
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
