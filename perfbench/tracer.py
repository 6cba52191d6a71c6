"""Tracing from outside the program.

`Tracer.install` replaces public nestkit functions with timing wrappers in
every nestkit module that binds them (so ``nestkit.suites.generated_order``
and ``nestkit.analysis.generated_order`` are both wrapped, and intra-module
calls resolve to the wrapper through the module globals).  Nothing under
``src/nestkit`` changes.

Each wrapped call is one span: name, start, end and parent span.  A span's
self time is its duration minus the time its traced child spans cover.
Spans are aggregated as they close and the first `SPAN_LOG_CAP` of them are
kept in memory and written out by `write_spans`, so memory stays bounded on
sweeps with millions of calls.  Counters (calls, nests yielded, premise and
pair ratios) are recorded at the same wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

SPAN_LOG_CAP = 50_000

# Packages whose bindings are wrapped: the program, and the benchmark's own
# workloads module, which calls run_suite, run_search and cli.main.
CALLERS = ("nestkit", "workloads")

# Spanned functions: (module, attribute) -> span name.  A dotted attribute
# names a method on a class.
SPANNED = {
    ("nestkit.core", "enumerate_nests"): "core.enumerate_nests",
    ("nestkit.orders", "generated_order"): "orders.generated_order",
    ("nestkit.orders", "rectangle"): "orders.rectangle",
    ("nestkit.orders", "compose"): "orders.compose",
    ("nestkit.orders", "relation_issubset"): "orders.relation_issubset",
    ("nestkit.orders", "absorbs_rectangle_compositions"): "orders.absorbs_rectangle_compositions",
    ("nestkit.topology", "topology_from_subbase"): "topology.topology_from_subbase",
    ("nestkit.topology", "Topology.__post_init__"): "topology.validate",
    ("nestkit.topology", "interval_topology"): "topology.interval_topology",
    ("nestkit.topology", "alexandroff_family"): "topology.alexandroff_family",
    ("nestkit.topology", "up_set"): "topology.up_set",
    ("nestkit.topology", "down_set"): "topology.down_set",
    ("nestkit.analysis", "sup_of"): "analysis.sup_of",
    ("nestkit.analysis", "member_sups"): "analysis.member_sups",
    ("nestkit.analysis", "sup_conditions"): "analysis.sup_conditions",
    ("nestkit.analysis", "dual_sup_conditions"): "analysis.dual_sup_conditions",
    ("nestkit.analysis", "lots_report"): "analysis.lots_report",
    ("nestkit.analysis", "is_interlocking"): "analysis.is_interlocking",
    ("nestkit.analysis", "is_interlocking_via_alexandroff"): "analysis.is_interlocking_via_alexandroff",
    ("nestkit.analysis", "is_interlocking_via_lower_sets"): "analysis.is_interlocking_via_lower_sets",
    ("nestkit.bounds", "down_reach_covers"): "bounds.down_reach_covers",
    ("nestkit.bounds", "up_reach_covers"): "bounds.up_reach_covers",
    ("nestkit.bounds", "has_upper_bound"): "bounds.has_upper_bound",
    ("nestkit.bounds", "has_lower_bound"): "bounds.has_lower_bound",
    ("nestkit.groups", "subbase_topology"): "groups.subbase_topology",
    ("nestkit.groups", "inversion_continuity"): "groups.inversion_continuity",
    ("nestkit.groups", "inversion_continuous"): "groups.inversion_continuous",
    ("nestkit.groups", "multiplication_continuity"): "groups.multiplication_continuity",
    ("nestkit.groups", "multiplication_continuous"): "groups.multiplication_continuous",
    ("nestkit.groups", "multiplication_continuous_via_product"):
        "groups.multiplication_continuous_via_product",
    ("nestkit.rays", "sup_conditions"): "rays.sup_conditions",
    ("nestkit.rays", "dual_sup_conditions"): "rays.dual_sup_conditions",
    ("nestkit.rays", "separates"): "rays.separates",
    ("nestkit.rays", "separation_witness"): "rays.separation_witness",
    ("nestkit.rays", "order_matches_carrier"): "rays.order_matches_carrier",
    ("nestkit.rays", "group_compatibility"): "rays.group_compatibility",
    ("nestkit.rays", "order_holds"): "rays.order_holds",
    ("nestkit.rays", "rational_between"): "rays.rational_between",
    ("nestkit.instances", "verify_all"): "instances.verify_all",
    ("nestkit.suites", "run_suite"): "suites.run_suite",
    ("nestkit.search", "run_search"): "search.run_search",
    ("nestkit.serialize", "load_instance"): "serialize.load_instance",
    ("nestkit.serialize", "canonical_json"): "serialize.canonical_json",
    ("nestkit.cli", "build_parser"): "cli.build_parser",
    ("nestkit.cli", "analyze_family"): "cli.analyze_family",
    ("nestkit.cli", "render_analysis"): "cli.render_analysis",
}

# Functions that are only counted; their time stays with the calling span.
COUNTED = {
    ("nestkit.orders", "Relation.__post_init__"): "orders.relation_validate",
    ("nestkit.serialize", "family_to_dict"): "serialize.family_to_dict",
    ("nestkit.groups", "inversion_premise"): "groups.inversion_premise",
    ("nestkit.groups", "multiplication_premise"): "groups.multiplication_premise",
    ("nestkit.suites", "_dual_pair_checks"): "suites.dual_pair_checks",
    ("nestkit.suites", "_continuity_checks"): "suites.continuity_checks",
}

# Per-layer metrics: name -> (kind, span or counter names).
LAYERS = {
    "core.enumerate_nests.self_s": ("self", ["core.enumerate_nests"]),
    "core.nests_yielded": ("count", ["core.nests_yielded"]),
    "orders.generated_order.calls": ("calls", ["orders.generated_order"]),
    "orders.generated_order.self_s": ("self", ["orders.generated_order"]),
    "orders.relation_validate.calls": ("calls", ["orders.relation_validate"]),
    "orders.rectangle_algebra.self_s": ("self", [
        "orders.rectangle", "orders.compose", "orders.relation_issubset",
        "orders.absorbs_rectangle_compositions"]),
    "topology.topology_from_subbase.calls": ("calls", ["topology.topology_from_subbase"]),
    "topology.topology_from_subbase.self_s": ("self", ["topology.topology_from_subbase"]),
    "topology.validate.calls": ("calls", ["topology.validate"]),
    "topology.validate.self_s": ("self", ["topology.validate"]),
    "topology.interval_topology.calls": ("calls", ["topology.interval_topology"]),
    "topology.interval_topology.self_s": ("self", ["topology.interval_topology"]),
    "topology.alexandroff_family.calls": ("calls", ["topology.alexandroff_family"]),
    "topology.alexandroff_family.self_s": ("self", ["topology.alexandroff_family"]),
    "topology.reach.self_s": ("self", ["topology.up_set", "topology.down_set"]),
    "analysis.sup_ladder.self_s": ("self", [
        "analysis.sup_of", "analysis.member_sups", "analysis.sup_conditions",
        "analysis.dual_sup_conditions"]),
    "analysis.lots_report.calls": ("calls", ["analysis.lots_report"]),
    "analysis.lots_report.self_s": ("self", ["analysis.lots_report"]),
    "analysis.interlocking_routes.self_s": ("self", [
        "analysis.is_interlocking", "analysis.is_interlocking_via_alexandroff",
        "analysis.is_interlocking_via_lower_sets"]),
    "analysis.interval_useful_ratio": ("ratio", ["pair.premise_fired", "pair.interval_built"]),
    "bounds.reach_covers.calls": ("calls", ["bounds.down_reach_covers", "bounds.up_reach_covers"]),
    "bounds.reach_covers.self_s": ("self", ["bounds.down_reach_covers", "bounds.up_reach_covers"]),
    "bounds.has_bound.calls": ("calls", ["bounds.has_upper_bound", "bounds.has_lower_bound"]),
    "bounds.has_bound.self_s": ("self", ["bounds.has_upper_bound", "bounds.has_lower_bound"]),
    "bounds.generated_order_per_pair": ("ratio", ["bounds.generated_order", "bounds.pairs"]),
    "groups.subbase_topology.calls": ("calls", ["groups.subbase_topology"]),
    "groups.subbase_topology.self_s": ("self", ["groups.subbase_topology"]),
    "groups.continuity.self_s": ("self", [
        "groups.inversion_continuity", "groups.inversion_continuous",
        "groups.multiplication_continuity", "groups.multiplication_continuous",
        "groups.multiplication_continuous_via_product"]),
    "groups.premise_useful_ratio": ("ratio", ["continuity.premise_fired", "continuity.topology_built"]),
    "rays.decision_table.self_s": ("self", [
        "rays.sup_conditions", "rays.dual_sup_conditions", "rays.separates",
        "rays.separation_witness", "rays.order_matches_carrier", "rays.group_compatibility"]),
    "rays.order_holds.calls": ("calls", ["rays.order_holds"]),
    "rays.order_holds.self_s": ("self", ["rays.order_holds"]),
    "rays.rational_between.calls": ("calls", ["rays.rational_between"]),
    "rays.rational_between.self_s": ("self", ["rays.rational_between"]),
    "instances.verify_all.self_s": ("self", ["instances.verify_all"]),
    "suites.runner.self_s": ("self", ["suites.run_suite"]),
    "search.run_search.self_s": ("self", ["search.run_search"]),
    "serialize.family_to_dict.calls": ("calls", ["serialize.family_to_dict"]),
    "serialize.load_instance.calls": ("calls", ["serialize.load_instance"]),
    "serialize.load_instance.self_s": ("self", ["serialize.load_instance"]),
    "serialize.canonical_json.self_s": ("self", ["serialize.canonical_json"]),
    "cli.build_parser.calls": ("calls", ["cli.build_parser"]),
    "cli.build_parser.self_s": ("self", ["cli.build_parser"]),
    "cli.analyze_family.self_s": ("self", ["cli.analyze_family"]),
    "cli.render_analysis.self_s": ("self", ["cli.render_analysis"]),
}

UNITS = {"self": "s", "calls": "count", "count": "count", "ratio": "ratio"}


def _lookup(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Span and counter recorder for one traced run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [span id, name, start, child time, parent id]
        self._next_id = 1
        self._contexts: list[dict] = []
        self._suites: list[str] = []
        self._bounds_pairs = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install --

    def install(self, bounds_pairs: int = 0) -> None:
        """Wrap every listed function in every nestkit module binding it.

        ``bounds_pairs`` is the number of (nest, region) pairs one
        bound-covers run visits, the base of `bounds.generated_order_per_pair`.
        """
        self._bounds_pairs = bounds_pairs
        for (module_name, attr), name in SPANNED.items():
            self._replace(module_name, attr, self._spanned(name))
        for (module_name, attr), name in COUNTED.items():
            self._replace(module_name, attr, self._counted(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, module_name: str, attr: str, make) -> None:
        owner, leaf = _lookup(module_name, attr)
        original = getattr(owner, leaf)
        wrapper = make(original)
        if isinstance(owner, type):
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] not in CALLERS:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    # ----------------------------------------------------------- wrappers --

    def _push(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, name, time.perf_counter(), 0.0, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        self.self_time[frame[1]] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < SPAN_LOG_CAP:
            self.spans.append((frame[0], frame[1], frame[2], end, frame[4]))

    def _spanned(self, name: str):
        if name == "core.enumerate_nests":
            return self._spanned_generator(name)
        if name == "suites.run_suite":
            return self._spanned_suite(name)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                frame = self._push(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._pop(frame)
                if hook is not None:
                    hook(result)
                return result
            return wrapper
        return make

    def _spanned_suite(self, name: str):
        """`run_suite` also tracks which suite is running, for the
        bound-covers per-pair ratio."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(suite, *args, **kwargs):
                self.calls[name] += 1
                self._suites.append(suite)
                if suite == "bound-covers":
                    self.calls["bounds.pairs"] += self._bounds_pairs
                frame = self._push(name)
                try:
                    return fn(suite, *args, **kwargs)
                finally:
                    self._pop(frame)
                    self._suites.pop()
            return wrapper
        return make

    def _spanned_generator(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = self._push(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._pop(frame)
                    self.calls["core.nests_yielded"] += 1
                    yield item
            return wrapper
        return make

    def _counted(self, name: str):
        if name in ("suites.dual_pair_checks", "suites.continuity_checks"):
            return self._context(name)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            return wrapper
        return make

    def _context(self, name: str):
        """Collect what happens inside one dual-pair or continuity check."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                ctx = {"kind": name, "sup": None, "dual": None, "interval": 0,
                       "inv": None, "mul": [], "topology": 0}
                self._contexts.append(ctx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._contexts.pop()
                    self._close_context(ctx)
            return wrapper
        return make

    def _close_context(self, ctx: dict) -> None:
        if ctx["kind"] == "suites.dual_pair_checks":
            fired = bool(ctx["sup"] and ctx["sup"].sups_escape
                         and ctx["dual"] and ctx["dual"].sups_escape)
            self.calls["pair.premise_fired"] += fired
            self.calls["pair.interval_built"] += ctx["interval"]
        else:
            fired = bool(ctx["inv"]) or bool(ctx["mul"] and all(ctx["mul"]))
            self.calls["continuity.premise_fired"] += fired
            self.calls["continuity.topology_built"] += ctx["topology"]

    def _ctx(self, kind: str) -> dict | None:
        if self._contexts and self._contexts[-1]["kind"] == kind:
            return self._contexts[-1]
        return None

    # result hooks, keyed by span or counter name
    def _after_orders_generated_order(self, _result) -> None:
        if self._suites and self._suites[-1] == "bound-covers":
            self.calls["bounds.generated_order"] += 1

    def _after_analysis_sup_conditions(self, result) -> None:
        ctx = self._ctx("suites.dual_pair_checks")
        if ctx is not None and ctx["sup"] is None:
            ctx["sup"] = result

    def _after_analysis_dual_sup_conditions(self, result) -> None:
        ctx = self._ctx("suites.dual_pair_checks")
        if ctx is not None and ctx["dual"] is None:
            ctx["dual"] = result

    def _after_topology_interval_topology(self, _result) -> None:
        ctx = self._ctx("suites.dual_pair_checks")
        if ctx is not None:
            ctx["interval"] += 1

    def _after_groups_inversion_premise(self, result) -> None:
        ctx = self._ctx("suites.continuity_checks")
        if ctx is not None:
            ctx["inv"] = result

    def _after_groups_multiplication_premise(self, result) -> None:
        ctx = self._ctx("suites.continuity_checks")
        if ctx is not None:
            ctx["mul"].append(result)

    def _after_groups_subbase_topology(self, _result) -> None:
        ctx = self._ctx("suites.continuity_checks")
        if ctx is not None:
            ctx["topology"] += 1

    # ------------------------------------------------------------ results --

    def snapshot(self) -> tuple[Counter, dict]:
        return Counter(self.calls), dict(self.self_time)

    @staticmethod
    def layer_metrics(calls: Counter, self_time: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metric values from counter and self-time deltas."""
        out = {}
        for metric, (kind, names) in LAYERS.items():
            if kind == "self":
                value = sum(self_time.get(n, 0.0) for n in names)
            elif kind in ("calls", "count"):
                value = sum(calls.get(n, 0) for n in names)
            else:
                num, den = (calls.get(n, 0) for n in names)
                value = num / den if den else 0.0
            out[metric] = (value, UNITS[kind])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart\tend\tparent\n")
            for span_id, name, start, end, parent in self.spans:
                handle.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
