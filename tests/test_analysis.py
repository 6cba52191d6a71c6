import ast
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

import nestkit
from nestkit import analysis, orders
from nestkit.analysis import (
    NO_LEAST,
    DualPair,
    NestContext,
    SupConditions,
    complement_dual,
    dual_sup_conditions,
    is_interlocking,
    is_interlocking_via_alexandroff,
    is_interlocking_via_lower_sets,
    lots_hypotheses,
    lots_report,
    member_lower_set_report,
    member_sups,
    sup_conditions,
    sup_index,
    sup_of,
)
from nestkit.bounds import down_reach_covers, has_lower_bound, has_upper_bound, up_reach_covers
from nestkit.core import (
    InstanceError,
    Nest,
    SetFamily,
    Subset,
    Universe,
    enumerate_families,
    enumerate_nests,
    family_complement,
    lazy,
    mask_of,
)
from nestkit.groups import BUILTIN_GROUPS, FiniteGroup
from nestkit.orders import Relation, generated_order, reflexive_closure, t0_separates
from nestkit.topology import (
    Regions, Topology, alexandroff_family, down_set, topology_from_subbase, up_set)

from reference import O, members

U3 = Universe(3)
U4 = Universe(4)
QUAD = Nest.of(U4, [[0, 1], [0, 1, 2, 3]])
QUAD_DUAL = Nest.of(U4, [[2, 3], [0, 1, 2, 3]])
PAIR = Nest.of(Universe(2), [[0]])
PAIR_DUAL = Nest.of(Universe(2), [[1]])


def _preorder(nest: Nest) -> Relation:
    """The context's preorder rows, as a relation for the public sup forms."""
    return Relation(nest.universe, NestContext(nest).preorder_rows)


def test_sup_of_examples():
    u5 = Universe(5)
    nest = Nest.of(u5, [[0, 1], [0, 1, 2]])
    rel = _preorder(nest)
    result = sup_of(rel, mask_of([0, 1], 5))
    assert result.exists and result.element == 2
    # a member with an internal maximum has that maximum as its sup
    assert sup_of(rel, mask_of([0, 1, 2], 5)).element == 2
    # incomparable upper bounds leave no least one
    wide = Nest.of(u5, [[0, 1]])
    blocked = sup_of(_preorder(wide), mask_of([0, 1], 5))
    assert not blocked.exists and blocked.reason == "no_least_upper_bound"
    chain = Nest.of(U3, [[], [0], [0, 1]])
    empty_sup = sup_of(_preorder(chain), 0)
    assert empty_sup.exists and empty_sup.element == 0
    # no upper bound at all above the top of a chain with several maxima
    quad_rel = _preorder(QUAD)
    nothing = sup_of(quad_rel, mask_of([2, 3], 4))
    assert not nothing.exists and nothing.reason == "no_upper_bound"


def test_inf_of():
    # an infimum is the supremum under the transposed order: `sup_index` on
    # the columns of the preorder, the dual route of sup-conditions
    def inf_index(nest, mask):
        full = nest.universe.full_mask
        return sup_index(orders.columns(_preorder(nest).rows), full, mask)

    assert inf_index(QUAD, mask_of([2, 3], 4)) == NO_LEAST
    chain = Nest.of(U3, [[], [0], [0, 1]])
    assert inf_index(chain, mask_of([1, 2], 3)) == 1
    assert inf_index(chain, 0) == 2  # greatest element bounds the empty set


def test_sup_conditions():
    pair_cond = sup_conditions(Nest.of(Universe(2, ("a", "b")), [[0]]))
    assert pair_cond.sups_exist and not pair_cond.sups_onto
    trivial = sup_conditions(Nest.of(Universe(1), [[]]))
    assert trivial == type(trivial)(True, True, True)
    # a single co-singleton member: sups escape, but not onto
    wide = sup_conditions(Nest.of(U3, [[0, 1]]))
    assert wide.sups_escape and not wide.sups_onto
    # nests with a linear order and nonempty members keep their sups inside
    chain = sup_conditions(Nest.of(U3, [[0], [0, 1]]))
    assert chain.sups_exist and not chain.sups_escape


def test_ladders_are_the_four_shared_values():
    # every ladder is one of four immutable module values; equality, hash
    # and repr go by the fields, and `replace` builds a fresh value
    rungs = (analysis.NO_SUPS, analysis.SUPS_EXIST, analysis.SUPS_ESCAPE, analysis.SUPS_ONTO)
    assert [tuple(vars(rung).values()) for rung in rungs] == [
        (False, False, False), (True, False, False), (True, True, False), (True, True, True)]
    assert analysis.SUPS_ESCAPE == SupConditions(True, True, False)
    assert hash(analysis.SUPS_ESCAPE) == hash(SupConditions(True, True, False))
    assert repr(analysis.SUPS_EXIST) == (
        "SupConditions(sups_exist=True, sups_escape=False, sups_onto=False)")
    with pytest.raises(FrozenInstanceError):
        analysis.SUPS_ONTO.sups_onto = False
    lowered = replace(analysis.SUPS_ONTO, sups_onto=False)
    assert lowered == analysis.SUPS_ESCAPE and lowered is not analysis.SUPS_ESCAPE
    assert analysis.SUPS_ONTO.sups_onto
    seen = set()
    for n in range(1, 5):
        for nest in enumerate_nests(Universe(n)):
            ctx = NestContext(nest)
            for ladder in (sup_conditions(nest), ctx.sup_conditions,
                           dual_sup_conditions(complement_dual(ctx))):
                assert any(ladder is rung for rung in rungs)
                seen.add(id(ladder))
    assert seen == set(map(id, rungs))


def test_dual_pair_validation():
    DualPair(PAIR, PAIR_DUAL)
    DualPair(QUAD, QUAD_DUAL)
    complement_dual(QUAD)
    with pytest.raises(InstanceError, match="not dual"):
        DualPair(PAIR, Nest.of(Universe(2), [[0]]))
    # x1 < x2 holds on both sides; x1 < x3 holds on the left only
    with pytest.raises(InstanceError, match=r"disagree at pair \(0, 2\)"):
        DualPair(Nest.of(U3, [[0]]), Nest.of(U3, [[1]]))


def test_dual_pair_rejects_a_side_that_is_not_a_nest():
    # two incomparable singletons: not a chain, on either side of the pair
    family = SetFamily.of(U3, [[0], [1]])
    complement = family_complement(family)
    with pytest.raises(InstanceError, match="left side of a dual pair is not a nest"):
        DualPair(family, complement)
    with pytest.raises(InstanceError, match="left side of a dual pair is not a nest"):
        complement_dual(family)
    with pytest.raises(InstanceError, match="right side of a dual pair is not a nest"):
        DualPair(Nest.of(U3, [[0]]), complement)


def test_dual_pair_of_contexts_derives_no_order(monkeypatch):
    # the pair reads the orders its contexts hold, also for its dual ladder;
    # on at most 8 points a context derives its order as the packed product
    from nestkit import orders

    derived = []
    packed_product = orders.packed_product
    monkeypatch.setattr(orders, "packed_product", lambda *a: derived.append(1) or packed_product(*a))
    for n in (1, 2, 3):
        for nest in enumerate_nests(Universe(n)):
            ctx = NestContext(nest)
            ctx.order_rows, ctx.dual.order_rows  # both derived before the pair is built
            before = len(derived)
            pair = complement_dual(ctx)
            assert pair.left is ctx and pair.right is ctx.dual
            lots_hypotheses(pair)
            assert dual_sup_conditions(DualPair(ctx, ctx.dual)) == dual_sup_conditions(pair)
            assert len(derived) == before
    assert derived


def test_dual_sup_conditions():
    pair = DualPair(PAIR, PAIR_DUAL)
    cond = dual_sup_conditions(pair)
    assert cond.sups_exist  # inf of {x2} is x2 itself
    assert not cond.sups_escape
    quad = DualPair(QUAD, QUAD_DUAL)
    assert not dual_sup_conditions(quad).sups_escape
    # a nest holding only the empty set is self-dual, and everything fires
    point = Nest.of(Universe(1), [[]])
    trivial = DualPair(point, point)
    assert dual_sup_conditions(trivial) == sup_conditions(point)
    assert sup_conditions(point).sups_onto
    # the complement pairing puts the whole set on the right, whose infimum
    # stays inside it, so the escape condition fails there
    assert not dual_sup_conditions(complement_dual(point)).sups_escape


def test_interlocking_routes_on_examples():
    vacuous = Nest.of(U3, [[0], [0, 1]])
    with_top = Nest.of(U3, [[0], [0, 1], [0, 1, 2]])
    empty_member = Nest.of(U3, [[]])
    for nest, expected in ((vacuous, True), (with_top, False), (empty_member, True)):
        assert is_interlocking(nest) is expected
        assert is_interlocking_via_alexandroff(nest) is expected
        assert is_interlocking_via_lower_sets(nest) is expected
    assert is_interlocking_via_alexandroff(Nest.of(U3, []))
    # the definition route accepts arbitrary families
    assert is_interlocking(SetFamily.of(U3, [[0], [1]]))


def test_alexandroff_route_builds_no_region_layout():
    # the packed layout holds 2^n fields of up to 2^n bits, and none exists
    # from 64 points on; the route reads its constants at the layout's field
    # width without building it, on nests far past the sweeps' sizes (70
    # first: a route that builds the layout raises there, where at 16 points
    # it would take gigabytes)
    for n in (70, 16):
        u = Universe(n)
        for member in (u.full_mask, 1, u.full_mask ^ 1):
            nest = Nest(u, (member,))
            tracemalloc.start()
            try:
                got = is_interlocking_via_alexandroff(nest)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == is_interlocking_via_lower_sets(nest) == (member != u.full_mask)
            assert "regions" not in u.__dict__
            assert peak < 1 << 20, (n, member, peak)


def test_strict_fixed_points_of_a_nest_are_only_the_empty_region():
    # a nest's order is a strict weak order, so a nonempty region's minimal
    # points lie above none of its points and miss its strict upward reach:
    # on every nest and its complement the Alexandroff family is {∅}, and the
    # Alexandroff route reduces to "X is not a member"
    seen = 0
    for n in range(1, 7):
        u = Universe(n)
        for nest in enumerate_nests(u, bound=6):
            ctx = NestContext(nest)
            for side in (ctx, ctx.dual):
                assert u.regions.masks_of(side.alexandroff) == [0], (n, side.nest.masks)
            assert is_interlocking_via_alexandroff(ctx) == (u.full_mask not in nest.masks)
            seen += 1
    assert seen == 4 * (1 + 3 + 13 + 75 + 541 + 4683)
    # a family that is not a nest can order two points both ways; the cycle
    # is a nonempty region equal to its strict upward reach
    crossed = SetFamily.of(Universe(2), [[0], [1]])
    assert alexandroff_family(generated_order(crossed)).masks == (0, 0b11)


def test_interlocking_definition_matches_the_double_loop():
    families = [fam for n in (1, 2, 3) for fam in enumerate_families(Universe(n))]
    rng = random.Random(7)
    for n in range(4, 8):
        u = Universe(n)
        families += [
            SetFamily.dedupe(u, (rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 7))))
            for _ in range(400)
        ]
    verdicts = set()
    for fam in families:
        want = O.interlocking(members(fam), fam.universe.size)
        assert is_interlocking(fam) == want
        verdicts.add(want)
    assert verdicts == {False, True}


def test_member_lower_set_report():
    chain = Nest.of(U3, [[], [0], [0, 1]])
    report = member_lower_set_report(chain, Subset.of(U3, [0, 1]))
    assert not report.is_lower_set
    assert not report.union_of_smaller_matches
    assert not report.no_greatest_element  # x2 tops the member
    empty = member_lower_set_report(chain, Subset(U3, 0))
    assert empty.is_lower_set and empty.no_greatest_element
    # without T0 the no-greatest test can disagree with lower-set-ness
    quad_report = member_lower_set_report(QUAD, Subset.of(U4, [0, 1]))
    assert not quad_report.is_lower_set and quad_report.no_greatest_element
    with pytest.raises(InstanceError):
        member_lower_set_report(chain, Subset.of(U3, [1]))


def test_no_greatest_element_looks_for_a_point_above_the_member():
    # 0 lies below both 1 and 2, which are incomparable: a least point but
    # no greatest one
    nest = Nest.of(U3, [[0], [0, 1, 2]])
    assert member_lower_set_report(nest, Subset(U3, U3.full_mask)).no_greatest_element
    for n in (1, 2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            pre = _preorder(nest)
            for mask in nest.masks:
                inside = Subset(u, mask).indices
                greatest = any(all(pre.rows[y] >> g & 1 for y in inside) for g in inside)
                report = member_lower_set_report(nest, Subset(u, mask))
                assert report.no_greatest_element == (not greatest)


def test_lots_report():
    point = Nest.of(Universe(1), [[]])
    report = lots_report(DualPair(point, point))
    assert report.sup_onto_pair and report.is_lots
    quad = lots_report(DualPair(QUAD, QUAD_DUAL))
    assert not quad.sup_onto_pair and not quad.t0_escape_pair
    assert quad.ray_topology_matches  # joint topology equals the open-ray one
    assert not quad.order_linear and not quad.is_lots
    pair = lots_report(DualPair(PAIR, PAIR_DUAL))
    assert pair.is_lots and not pair.sup_onto_pair


def test_member_sups_map():
    sups = member_sups(QUAD)
    assert not sups[mask_of([0, 1], 4)].exists
    assert sups[U4.full_mask].exists is False  # no point above everything


def test_nest_context_matches_the_public_functions():
    # every public nest predicate answers the same from a nest and from its
    # context, and the context's values match the functions and definitions
    # they stand for
    for n in (1, 2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            ctx = NestContext(nest)
            pair = complement_dual(nest)
            assert NestContext.of(ctx) is ctx
            assert ctx.dual.nest.masks == family_complement(nest).masks
            # the context's rows and fixed points, on both sides, against
            # the public routes
            for side in (ctx, ctx.dual):
                order = generated_order(side.nest)
                assert side.order_rows == order.rows
                assert side.preorder_rows == reflexive_closure(order).rows
                regions = side.nest.universe.regions
                assert regions.masks_of(side.alexandroff) == list(alexandroff_family(order).masks)
            assert ctx.dual.order_rows == generated_order(pair.right.nest).rows
            assert ctx.sups == member_sups(nest) == member_sups(ctx)
            assert ctx.sup_conditions == sup_conditions(nest) == sup_conditions(ctx)
            assert dual_sup_conditions(complement_dual(ctx)) == dual_sup_conditions(pair)
            assert ctx.t0 == t0_separates(nest)
            by_def = is_interlocking(nest)
            for route in (is_interlocking_via_alexandroff, is_interlocking_via_lower_sets):
                assert route(nest) == route(ctx) == by_def

            def below(x, y):
                return any(m >> x & 1 and not m >> y & 1 for m in nest.masks)

            for mask in nest.masks:
                member = Subset(u, mask)
                report = member_lower_set_report(nest, member)
                assert member_lower_set_report(ctx, member) == report
                # "lower set" against its element-set definition
                inside = member.indices
                lower = {x for x in u.elements() if any(below(x, y) for y in inside)}
                assert report.is_lower_set == (lower == set(inside))


def test_nest_context_reach_tables():
    # the tables the sweeps read, against region-at-a-time reach, also in
    # the complement nest's own context
    for n in (1, 2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            ctx = NestContext(nest)
            complement_order = generated_order(family_complement(nest))
            for table, reach, rel in (
                (ctx.up_reach, up_set, Relation(u, ctx.order_rows)),
                (ctx.down_reach, down_set, Relation(u, ctx.order_rows)),
                (ctx.dual.down_reach, down_set, complement_order),
            ):
                assert u.regions.unpack(table) == tuple(
                    reach(rel, Subset(u, m)).mask for m in range(u.full_mask + 1))
            assert is_interlocking_via_lower_sets(ctx) == is_interlocking(nest)
            assert is_interlocking_via_lower_sets(nest) == is_interlocking(nest)


def _lazy_fields(cls) -> list[str]:
    return [name for name, value in vars(cls).items() if isinstance(value, lazy)]


def test_nest_context_fields_are_computed_once(monkeypatch):
    # on at most 8 points a context derives its order as the packed product
    calls = []
    packed_product = orders.packed_product
    monkeypatch.setattr(orders, "packed_product", lambda *a: calls.append(a) or packed_product(*a))
    fields = _lazy_fields(NestContext)
    assert fields == [
        "order_rows", "preorder_rows", "preorder_columns", "dual", "sup_indices", "sups",
        "sup_conditions", "t0", "up_reach", "down_reach"]
    # the class hands out the descriptor, with the method's docstring
    assert isinstance(NestContext.preorder_columns, lazy)
    assert NestContext.preorder_columns.__doc__.startswith("Entry y holds")
    ctx = NestContext(QUAD)
    sides = (ctx, ctx.dual)
    first = [{name: getattr(side, name) for name in fields} for side in sides]
    for _ in range(2):
        for side, values in zip(sides, first):
            assert all(getattr(side, name) is value for name, value in values.items())
            assert all(vars(side)[name] is value for name, value in values.items())
    # one order for the nest and one for its complement, however often read
    assert len(calls) == 2


def test_lazy_fields_survive_pickling():
    assert _lazy_fields(FiniteGroup) == [
        "order", "identity", "inverse", "universe", "left_images", "right_images",
        "inverse_images", "preimage_bits"]
    assert _lazy_fields(Topology) == ["_open_set", "neighbourhoods"]
    values = [topology_from_subbase(SetFamily(U3, (0b001, 0b011)))]
    values += [make() for make in BUILTIN_GROUPS.values()]
    for value in values:
        fresh = pickle.loads(pickle.dumps(value))
        assert fresh == value and vars(fresh) == vars(value)
        for name in _lazy_fields(type(value)):
            getattr(value, name)
        copy = pickle.loads(pickle.dumps(value))
        # the computed fields travel with the instance, and a fresh copy
        # computes the same values on demand
        assert copy == value and vars(copy) == vars(value)
        for name in _lazy_fields(type(value)):
            assert getattr(fresh, name) == getattr(value, name)


def test_no_module_imports_cached_property():
    package = Path(nestkit.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert "cached_property" not in [a.name for a in node.names], path.name
            if isinstance(node, ast.Attribute):
                assert node.attr != "cached_property", path.name


def test_no_module_uses_a_bare_assert():
    # python -O strips assert statements, so a check the program relies on
    # must raise explicitly
    package = Path(nestkit.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


def test_single_nest_predicates_build_no_table(monkeypatch):
    # a predicate on one nest reads its members' and regions' reach from the
    # mask kernels; only the sweeps tabulate every region
    nests = [nest for n in (1, 2, 3, 4) for nest in enumerate_nests(Universe(n))]

    def answers() -> list:
        out = []
        for nest in nests:
            u = nest.universe
            out.append(is_interlocking_via_lower_sets(nest))
            out += [member_lower_set_report(nest, Subset(u, m)) for m in nest.masks]
            for mask in range(u.full_mask + 1):
                region = Subset(u, mask)
                out += [
                    down_reach_covers(nest, region), up_reach_covers(nest, region),
                    has_upper_bound(nest, region), has_lower_bound(nest, region, False),
                ]
        return out

    want = answers()

    def no_table(regions, rows):
        raise AssertionError("a single-nest predicate tabulated every region")

    monkeypatch.setattr(Regions, "reach_table", no_table)
    assert answers() == want


def test_lots_hypotheses_agree_with_lots_report():
    for n in (1, 2, 3, 4):
        for nest in enumerate_nests(Universe(n)):
            pair = complement_dual(nest)
            cond, dual = sup_conditions(nest), dual_sup_conditions(pair)
            hypotheses = lots_hypotheses(pair)
            # the hypotheses as stated: onto on both sides, or T0 and escape
            # on both sides
            assert hypotheses == (
                cond.sups_onto and dual.sups_onto,
                t0_separates(nest) and t0_separates(pair.right.nest)
                and cond.sups_escape and dual.sups_escape,
            )
            report = lots_report(pair)
            assert (report.sup_onto_pair, report.t0_escape_pair) == hypotheses
            assert lots_hypotheses(complement_dual(NestContext(nest))) == hypotheses
