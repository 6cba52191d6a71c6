"""Canonical worked instances with frozen expected verdicts.

Each entry's ``build`` constructs its objects once and derives from them
every advertised verdict and the demo text; ``verify`` compares the verdicts
against the frozen expectation.  The replay suite runs all of them;
``nestkit demo --id <slug>`` prints one with full rosters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .analysis import (
    DualPair,
    dual_sup_conditions,
    lots_report,
    member_sups,
    sup_conditions,
)
from .core import Nest, Universe
from .orders import generated_order, reflexive_closure, t0_separates, t1_separates
from .rays import (
    Carrier,
    EndpointSet,
    Quadratic,
    RayNest,
    Window,
    dual,
    group_compatibility,
    order_matches_carrier,
    separates,
    sup_conditions as ray_sup_conditions,
    dual_sup_conditions as ray_dual_sup_conditions,
)
from .topology import (
    SetFamily,
    interval_topology,
    lower_topology,
    point_down_set,
    point_up_set,
    topology_from_subbase,
    upper_topology,
)


@dataclass(frozen=True)
class Check:
    key: str
    want: object
    got: object

    @property
    def passed(self) -> bool:
        return self.want == self.got


@dataclass(frozen=True)
class CanonicalInstance:
    slug: str
    summary: str
    expected: dict
    # builds the instance's objects once: its verdicts and its demo text
    build: Callable[[], tuple[dict, str]]

    def render(self) -> str:
        return self.build()[1]

    def verify(self, got: dict | None = None) -> list[Check]:
        """Compare verdicts (``got``, or freshly built) with the frozen ones."""
        got = self.build()[0] if got is None else got
        checks = [Check(k, want, got.get(k, "<missing>")) for k, want in self.expected.items()]
        extra = sorted(set(got) - set(self.expected))
        checks += [Check(k, "<unexpected>", got[k]) for k in extra]
        return checks


def _pair_t0() -> tuple[dict, str]:
    u = Universe(2, ("a", "b"))
    nest = Nest.of(u, [[0]])
    cond = sup_conditions(nest)
    sups = member_sups(nest)
    verdicts = {
        "t0_separates": t0_separates(nest),
        "t1_separates": t1_separates(nest),
        "sups_exist": cond.sups_exist,
        "sups_escape": cond.sups_escape,
        "sups_onto": cond.sups_onto,
        "sup_of_member": u.label(sups[0b01].element),
    }
    return verdicts, "\n".join([
        f"universe: {{a,b}}, nest: {nest.render()}",
        f"generated order: {generated_order(nest).render()}",
        "the nest splits the only pair one way, so it T0-separates but not T1;",
        "the single member has supremum a inside itself, and b is nobody's",
        "supremum, so the escaping-sup conditions fail",
    ])


def _pair_duals() -> tuple[dict, str]:
    u = Universe(2)
    left = Nest.of(u, [[0]])
    right = Nest.of(u, [[1]])
    pair = DualPair(left, right)
    pre = reflexive_closure(generated_order(left))
    tin = interval_topology(pre)
    both = topology_from_subbase(SetFamily.dedupe(u, left.masks + right.masks))
    verdicts = {
        "topology_left": topology_from_subbase(left).render(),
        "lower_topology": lower_topology(pre).render(),
        "topology_right": topology_from_subbase(right).render(),
        "upper_topology": upper_topology(pre).render(),
        "up_of_x1": point_up_set(pre, 0).render(),
        "down_of_x2": point_down_set(pre, 1).render(),
        "interval_discrete": tin.is_discrete(),
        "joint_discrete": both.is_discrete(),
        "sups_onto": sup_conditions(left).sups_onto,
        "dual_sups_exist": dual_sup_conditions(pair).sups_exist,
        "is_lots": lots_report(pair).is_lots,
    }
    return verdicts, "\n".join([
        f"nests: {left.render()} and {right.render()} (mutual duals)",
        f"T from left nest : {verdicts['topology_left']}",
        f"lower topology   : {verdicts['lower_topology']}",
        f"T from right nest: {verdicts['topology_right']}",
        f"upper topology   : {verdicts['upper_topology']}",
        f"interval topology: {tin.render()}",
        f"joint topology   : {both.render()}",
        "the joint and interval topologies are both discrete although the",
        "escaping-sup conditions fail: x2 is not the supremum of any member",
    ])


def _quad_duals() -> tuple[dict, str]:
    u = Universe(4)
    left = Nest.of(u, [[0, 1], [0, 1, 2, 3]])
    right = Nest.of(u, [[2, 3], [0, 1, 2, 3]])
    pair = DualPair(left, right)
    pre = reflexive_closure(generated_order(left))
    tin = interval_topology(pre)
    both = topology_from_subbase(SetFamily.dedupe(u, left.masks + right.masks))
    verdicts = {
        "order": generated_order(left).render(),
        "topology_left": topology_from_subbase(left).render(),
        "lower_topology": lower_topology(pre).render(),
        "topology_right": topology_from_subbase(right).render(),
        "upper_topology": upper_topology(pre).render(),
        "up_of_x1": point_up_set(pre, 0).render(),
        "interval_discrete": tin.is_discrete(),
        "joint_topology": both.render(),
        "joint_inside_interval": all(tin.is_open(o) for o in both.opens),
        "t0_separates": t0_separates(left),
        "sups_escape": sup_conditions(left).sups_escape,
        "dual_sups_escape": dual_sup_conditions(pair).sups_escape,
    }
    return verdicts, "\n".join([
        f"nests: {left.render()} and {right.render()} (mutual duals)",
        f"generated order  : {verdicts['order']}",
        f"T from left nest : {verdicts['topology_left']}",
        f"lower topology   : {verdicts['lower_topology']}",
        f"T from right nest: {verdicts['topology_right']}",
        f"upper topology   : {verdicts['upper_topology']}",
        f"joint topology   : {verdicts['joint_topology']}",
        f"interval topology: discrete ({len(tin.opens)} opens)",
        "x3 and x4 are never split, so neither nest T0-separates; the pair of",
        "members {x1,x2} has incomparable upper bounds, so its supremum fails",
        "to exist and the escaping-sup conditions fail on both sides",
    ])


_R_LINE = Carrier("Qsqrt2")
_UNIT = Carrier("Qsqrt2", Window(Quadratic.rational(0), Quadratic.rational(1)))
_HALF = Quadratic.rational(Fraction(1, 2))
_ONE = Quadratic.rational(1)
_OPEN_DENSE = RayNest(_R_LINE, "open", EndpointSet.all_carrier())


def _rays(nest: RayNest, headline: str, with_match: bool = False) -> tuple[dict, str]:
    """The sup ladders and T0 of a ray nest and its dual, and whether the
    order matches the carrier's (a verdict only ``with_match``)."""
    cond = ray_sup_conditions(nest)
    dcond = ray_dual_sup_conditions(nest)
    matched, why = order_matches_carrier(nest)
    verdicts = {
        "sups_exist": cond.sups_exist,
        "sups_escape": cond.sups_escape,
        "sups_onto": cond.sups_onto,
        "dual_sups_exist": dcond.sups_exist,
        "dual_sups_escape": dcond.sups_escape,
        "dual_sups_onto": dcond.sups_onto,
        "t0_separating": separates(nest),
        "dual_t0_separating": separates(dual(nest)),
    }
    if with_match:
        verdicts["order_matches_carrier"] = matched
    return verdicts, "\n".join([
        headline,
        f"sup ladder: exist={cond.sups_exist} escape={cond.sups_escape} "
        f"onto={cond.sups_onto}",
        f"T0-separating: {verdicts['t0_separating']}",
        f"order matches carrier: {matched} ({why})",
    ])


def _rays_rational_carrier() -> tuple[dict, str]:
    dense = RayNest(Carrier("Q"), "open", EndpointSet.all_carrier())
    gap = RayNest(Carrier("Q"), "open", EndpointSet.finite([Quadratic.sqrt2()]))
    verdicts = {
        "dense_t0_separating": separates(dense),
        "dense_order_matches_carrier": order_matches_carrier(dense)[0],
        "dense_sups_exist": ray_sup_conditions(dense).sups_exist,
        "irrational_endpoint_sups_exist": ray_sup_conditions(gap).sups_exist,
    }
    return verdicts, "\n".join([
        "carrier: the rationals; rays (-inf, e)",
        f"with every rational endpoint: T0={verdicts['dense_t0_separating']}, "
        f"order matches carrier={verdicts['dense_order_matches_carrier']}",
        "adding the ray with endpoint √2: its upper bounds in the carrier have",
        f"no least element, so sups_exist={verdicts['irrational_endpoint_sups_exist']}",
    ])


def _rays_shift_group() -> tuple[dict, str]:
    report = group_compatibility("add", _OPEN_DENSE)
    verdicts = {
        "premise_translation_closed": report.premise_translation_closed,
        "compatible": report.compatible,
    }
    return verdicts, "\n".join([
        "additive group on the carrier, rays (-inf, e) for all e:",
        "g + (-inf, e) = (-inf, e+g) is again a member, so the order is",
        f"compatible: {report.compatible}",
    ])


def _rays_scale_group() -> tuple[dict, str]:
    report = group_compatibility("multiply", _OPEN_DENSE)
    verdicts = {
        "premise_translation_closed": report.premise_translation_closed,
        "compatible": report.compatible,
        "has_witness": report.witness is not None,
    }
    return verdicts, "\n".join([
        "multiplicative group on the punctured carrier, rays (-inf, e):",
        report.witness or "",
    ])


REGISTRY: dict[str, CanonicalInstance] = {}


def _register(instance: CanonicalInstance) -> None:
    REGISTRY[instance.slug] = instance


_register(CanonicalInstance(
    slug="pair-t0-nest",
    summary="two points, one singleton member: T0 without escaping sups",
    expected={
        "t0_separates": True,
        "t1_separates": False,
        "sups_exist": True,
        "sups_escape": False,
        "sups_onto": False,
        "sup_of_member": "a",
    },
    build=_pair_t0,
))

_register(CanonicalInstance(
    slug="pair-dual-nests",
    summary="two points, dual singleton nests: every topology listed, joint = discrete",
    expected={
        "topology_left": "{{}, {x1}, {x1,x2}}",
        "lower_topology": "{{}, {x1}, {x1,x2}}",
        "topology_right": "{{}, {x2}, {x1,x2}}",
        "upper_topology": "{{}, {x2}, {x1,x2}}",
        "up_of_x1": "{x1,x2}",
        "down_of_x2": "{x1,x2}",
        "interval_discrete": True,
        "joint_discrete": True,
        "sups_onto": False,
        "dual_sups_exist": True,
        "is_lots": True,
    },
    build=_pair_duals,
))

_register(CanonicalInstance(
    slug="quad-dual-nests",
    summary="four points, two-member dual nests: seven-open order topologies, no T0",
    expected={
        "order": "{(x1,x3), (x1,x4), (x2,x3), (x2,x4)}",
        "topology_left": "{{}, {x1,x2}, {x1,x2,x3,x4}}",
        "lower_topology":
            "{{}, {x1}, {x2}, {x1,x2}, {x1,x2,x3}, {x1,x2,x4}, {x1,x2,x3,x4}}",
        "topology_right": "{{}, {x3,x4}, {x1,x2,x3,x4}}",
        "upper_topology":
            "{{}, {x3}, {x4}, {x3,x4}, {x1,x3,x4}, {x2,x3,x4}, {x1,x2,x3,x4}}",
        "up_of_x1": "{x1,x3,x4}",
        "interval_discrete": True,
        "joint_topology": "{{}, {x1,x2}, {x3,x4}, {x1,x2,x3,x4}}",
        "joint_inside_interval": True,
        "t0_separates": False,
        "sups_escape": False,
        "dual_sups_escape": False,
    },
    build=_quad_duals,
))

_register(CanonicalInstance(
    slug="rays-open-dense",
    summary="open lower rays, every carrier endpoint: the carrier order itself",
    expected={
        "sups_exist": True, "sups_escape": True, "sups_onto": True,
        "dual_sups_exist": True, "dual_sups_escape": True, "dual_sups_onto": True,
        "t0_separating": True, "dual_t0_separating": True,
        "order_matches_carrier": True,
    },
    build=lambda: _rays(
        _OPEN_DENSE, "rays (-inf, e) for every carrier element e", with_match=True
    ),
))

_register(CanonicalInstance(
    slug="rays-closed-window",
    summary="closed rays on the unit window, endpoints in [1/2, 1): sups exist but never escape",
    expected={
        "sups_exist": True, "sups_escape": False, "sups_onto": False,
        "dual_sups_exist": True, "dual_sups_escape": False, "dual_sups_onto": False,
        "t0_separating": False, "dual_t0_separating": False,
    },
    build=lambda: _rays(
        RayNest(_UNIT, "closed", EndpointSet.dense_interval(_HALF, _ONE)),
        "window (0,1); rays (0, e] for carrier endpoints 1/2 <= e < 1",
    ),
))

_register(CanonicalInstance(
    slug="rays-open-window",
    summary="open rays on the unit window, endpoints in [1/2, 1): sups escape but miss points",
    expected={
        "sups_exist": True, "sups_escape": True, "sups_onto": False,
        "dual_sups_exist": True, "dual_sups_escape": True, "dual_sups_onto": False,
        "t0_separating": False, "dual_t0_separating": False,
    },
    build=lambda: _rays(
        RayNest(_UNIT, "open", EndpointSet.dense_interval(_HALF, _ONE)),
        "window (0,1); rays (0, e) for carrier endpoints 1/2 <= e < 1",
    ),
))

_register(CanonicalInstance(
    slug="rays-closed-dense",
    summary="closed rays, every carrier endpoint: T0-separating, sups never escape",
    expected={
        "sups_exist": True, "sups_escape": False, "sups_onto": False,
        "dual_sups_exist": True, "dual_sups_escape": False, "dual_sups_onto": False,
        "t0_separating": True, "dual_t0_separating": True,
    },
    build=lambda: _rays(
        RayNest(_R_LINE, "closed", EndpointSet.all_carrier()),
        "rays (-inf, e] for every carrier element e",
    ),
))

_register(CanonicalInstance(
    slug="rays-rational-carrier",
    summary="rational carrier: dense rational endpoints work, endpoint √2 has no supremum",
    expected={
        "dense_t0_separating": True,
        "dense_order_matches_carrier": True,
        "dense_sups_exist": True,
        "irrational_endpoint_sups_exist": False,
    },
    build=_rays_rational_carrier,
))

_register(CanonicalInstance(
    slug="rays-integer-steps",
    summary="open rays with natural-number endpoints: sups escape without T0",
    expected={
        "sups_exist": True, "sups_escape": True, "sups_onto": False,
        "dual_sups_exist": True, "dual_sups_escape": True, "dual_sups_onto": False,
        "t0_separating": False, "dual_t0_separating": False,
    },
    build=lambda: _rays(
        RayNest(_R_LINE, "open", EndpointSet.progression(Quadratic.rational(0), _ONE)),
        "rays (-inf, n) for natural numbers n",
    ),
))

_register(CanonicalInstance(
    slug="rays-shift-group",
    summary="addition shifts rays to rays: the generated order is shift-compatible",
    expected={"premise_translation_closed": True, "compatible": True},
    build=_rays_shift_group,
))

_register(CanonicalInstance(
    slug="rays-scale-group",
    summary="multiplication does not respect rays: a negative factor reverses the order",
    expected={
        "premise_translation_closed": False,
        "compatible": False,
        "has_witness": True,
    },
    build=_rays_scale_group,
))


def slugs() -> list[str]:
    return sorted(REGISTRY)


def get(slug: str) -> CanonicalInstance:
    if slug not in REGISTRY:
        raise KeyError(f"unknown instance {slug!r}; known: {', '.join(slugs())}")
    return REGISTRY[slug]


def verify_all() -> dict[str, list[Check]]:
    return {slug: REGISTRY[slug].verify() for slug in slugs()}
