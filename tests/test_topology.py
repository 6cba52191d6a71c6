import random

import pytest

from nestkit.analysis import open_ray_topology
from nestkit.core import (
    InstanceError,
    Nest,
    SetFamily,
    Subset,
    Universe,
    _check_same_universe,
    canonical_masks,
    enumerate_families,
    enumerate_nests,
)
from nestkit.orders import Relation, columns, generated_order, reflexive_closure
from nestkit.topology import (
    Topology,
    alexandroff_family,
    down_set,
    fixed_masks,
    interval_topology,
    is_continuous,
    join,
    lower_topology,
    point_down_set,
    point_up_set,
    product_topology,
    reach_table,
    topology_from_subbase,
    up_set,
    upper_topology,
)

from reference import O, members, opens, row_pairs

U2 = Universe(2)
U3 = Universe(3)
U4 = Universe(4)
QUAD = Nest.of(U4, [[0, 1], [0, 1, 2, 3]])
QUAD_PRE = reflexive_closure(generated_order(QUAD))
PAIR = Nest.of(U2, [[0]])
PAIR_PRE = reflexive_closure(generated_order(PAIR))


def test_topology_invariants_enforced():
    for opens in ((0,), (1, 3)):  # missing the whole set, then the empty set
        with pytest.raises(InstanceError, match="contains the empty set and the universe"):
            Topology(U2, opens)
    with pytest.raises(InstanceError):
        Topology(U3, (0, 0b001, 0b010, 0b111))  # not closed under union
    Topology(U3, (0, 0b001, 0b011, 0b111))


def test_topology_rejects_opens_outside_the_universe():
    with pytest.raises(InstanceError, match="open mask 0x4 does not fit the universe"):
        Topology(U2, (0, 3, 4, 7))
    with pytest.raises(InstanceError, match="open mask -0x4 does not fit the universe"):
        Topology(U2, (0, 3, -4, -1))
    # the universe's own mask is in range, so the open past it is the one named
    with pytest.raises(InstanceError, match="open mask 0x7 does not fit the universe"):
        Topology(U2, (0, 3, 7))


def _closed_pairwise(opens: tuple[int, ...]) -> bool:
    """The pairwise ∩/∪ closure test: the oracle of the neighbourhood
    validation."""
    members = set(opens)
    return all(a & b in members and a | b in members for a in opens for b in opens)


def _validation_agrees(universe: Universe, opens: set[int]) -> bool:
    """Validation accepts exactly the pairwise-closed families, and on a
    topology each neighbourhood is the smallest open containing its point."""
    try:
        topo = Topology(universe, tuple(opens))
    except InstanceError as err:
        return str(err) == "open family is not closed under ∩/∪" and not _closed_pairwise(
            tuple(opens))
    least = [min((o for o in opens if o >> x & 1), key=int.bit_count)
             for x in universe.elements()]
    return _closed_pairwise(tuple(opens)) and topo.neighbourhoods == tuple(least)


def test_neighbourhood_validation_matches_pairwise_closure():
    # every family holding the empty set and X on at most four points
    for n in range(1, 5):
        u = Universe(n)
        inner = range(1, u.full_mask)
        for pick in range(1 << len(inner)):
            opens = {0, u.full_mask} | {m for i, m in enumerate(inner) if pick >> i & 1}
            assert _validation_agrees(u, opens), (n, sorted(opens))
    # seeded closed families on five to nine points, each with two
    # perturbations: one non-trivial open dropped, one mask added
    rng = random.Random(14)
    for n in range(5, 10):
        u = Universe(n)
        for _ in range(800):
            subbase = SetFamily.dedupe(u, (rng.randrange(1 << n) for _ in range(rng.randint(1, 5))))
            opens = set(topology_from_subbase(subbase).opens)
            assert _closed_pairwise(tuple(opens))
            inner = sorted(opens - {0, u.full_mask})
            families = [opens, opens | {rng.randrange(1 << n)}]
            if inner:
                families.append(opens - {rng.choice(inner)})
            for family in families:
                assert _validation_agrees(u, family), (n, sorted(family))


def test_subbase_examples():
    assert topology_from_subbase(PAIR).opens == (0, 0b01, 0b11)
    assert topology_from_subbase(QUAD).opens == (0, 0b0011, 0b1111)
    singles = SetFamily.of(U3, [[0], [1], [2]])
    assert topology_from_subbase(singles).is_discrete()
    # empty subbase gives the indiscrete topology
    assert topology_from_subbase(SetFamily.of(U3, [])).opens == (0, 0b111)


def _closure_agrees(family: SetFamily) -> bool:
    """The closure, built without validation, is what the validating
    constructor builds from its opens and what the reference closure gives."""
    closed = topology_from_subbase(family)
    n = family.universe.size
    return (closed == Topology(family.universe, closed.opens)
            and opens(closed) == O.closure(members(family), n))


def test_subbase_closure_matches_the_validating_constructor_and_the_reference():
    # every family on at most three points
    seen = 0
    for n in range(1, 4):
        for family in enumerate_families(Universe(n)):
            assert _closure_agrees(family), (n, family.masks)
            seen += 1
    assert seen == 2 ** 2 + 2 ** 4 + 2 ** 8
    # seeded families on four to seven points, a few members to many
    rng = random.Random(28)
    for n in range(4, 8):
        u = Universe(n)
        for _ in range(60):
            family = SetFamily.dedupe(
                u, (rng.randrange(1 << n) for _ in range(rng.randint(0, 2 * n))))
            assert _closure_agrees(family), (n, family.masks)


def test_point_up_down_sets_reflexive_convention():
    assert point_up_set(QUAD_PRE, 0).indices == (0, 2, 3)
    assert point_up_set(QUAD_PRE, 0).mask ^ U4.full_mask == 0b0010
    assert point_down_set(PAIR_PRE, 1).indices == (0, 1)
    isolated = Relation(U3, (0b001, 0b010, 0b100))
    assert point_up_set(isolated, 1).indices == (1,)


def test_point_sets_reject_elements_outside_the_universe():
    # a negative index used to wrap around to the last points
    for rel in (QUAD_PRE, generated_order(QUAD)):
        for x in (-1, -4, 4, 9):
            for point_set in (point_up_set, point_down_set):
                with pytest.raises(InstanceError, match=f"element index {x} out of range for size 4"):
                    point_set(rel, x)


def _point_down_set_by_rows(rel, x):
    """The down-set of x read off the rows, one point at a time."""
    u = rel.universe
    return Subset(u, sum(1 << y for y in u.elements() if rel.rows[y] >> x & 1))


def test_order_topologies_match_the_point_set_forms():
    seen = 0
    for n in range(1, 6):
        for nest in enumerate_nests(Universe(n), bound=5):
            order = generated_order(nest)
            pre = reflexive_closure(order)
            for x in pre.universe.elements():
                assert point_down_set(pre, x) == _point_down_set_by_rows(pre, x)
                assert point_down_set(order, x) == _point_down_set_by_rows(order, x)
            pairs = row_pairs(order.rows)
            assert [opens(t) for t in (
                lower_topology(pre), upper_topology(pre), interval_topology(pre),
                open_ray_topology(order),
            )] == [O.lower_topology(pairs, n), O.upper_topology(pairs, n),
                   O.interval_topology(pairs, n), O.ray_topology(pairs, n)]
            seen += 1
    assert seen == 4 * (1 + 3 + 13 + 75 + 541)


def test_strict_region_reach():
    order = generated_order(QUAD)
    assert up_set(order, Subset(U4, 0)).mask == 0
    assert up_set(order, Subset.of(U4, [0])).indices == (2, 3)
    chain = Nest.of(U3, [[], [0], [0, 1]])
    assert down_set(generated_order(chain), Subset(U3, U3.full_mask)).indices == (0, 1)


def test_lower_and_upper_topology_rosters():
    lower = lower_topology(QUAD_PRE)
    assert lower.opens == (0, 0b0001, 0b0010, 0b0011, 0b0111, 0b1011, 0b1111)
    upper = upper_topology(QUAD_PRE)
    assert upper.opens == (0, 0b0100, 0b1000, 0b1100, 0b1101, 0b1110, 0b1111)
    assert upper_topology(PAIR_PRE).opens == (0, 0b10, 0b11)
    # antichain: both order topologies come from the co-singleton subbase
    diag = Relation(U3, (0b001, 0b010, 0b100))
    cosingles = SetFamily.of(U3, [[1, 2], [0, 2], [0, 1]])
    assert lower_topology(diag) == topology_from_subbase(cosingles)
    assert upper_topology(diag) == topology_from_subbase(cosingles)


def test_join_and_interval():
    assert interval_topology(PAIR_PRE).is_discrete()
    assert interval_topology(QUAD_PRE).is_discrete()
    t = topology_from_subbase(PAIR)
    indiscrete = Topology(U2, (0, U2.full_mask))
    assert join(t, indiscrete) == t
    assert join(t, t) == t


def _trusted_build_cases():
    """(relation, family) pairs: every family on at most three points, then
    seeded families on four to seven; each family's masks, padded with 0,
    also serve as the rows of an arbitrary relation."""
    for n in range(1, 4):
        for family in enumerate_families(Universe(n)):
            yield family
    rng = random.Random(29)
    for _ in range(300):
        u = Universe(rng.randint(4, 7))
        masks = {rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 6))}
        yield SetFamily.dedupe(u, masks)


def test_engine_families_equal_the_validating_builds(monkeypatch):
    # the ray subbases, the join subbase and the Alexandroff family are built
    # without validation; each must equal what the validating constructors
    # build from the same masks, in the canonical order they would give it
    from nestkit import topology

    subbases = []
    closure = topology.topology_from_subbase

    def spy(family):
        subbases.append(family)
        return closure(family)

    monkeypatch.setattr(topology, "topology_from_subbase", spy)
    seen = 0
    for family in _trusted_build_cases():
        u = family.universe
        n, full = u.size, u.full_mask
        strict = generated_order(family)
        arbitrary = Relation(u, (family.masks + (0,) * n)[:n])
        for rel in (reflexive_closure(strict), arbitrary):
            rows, cols = rel.rows, columns(rel.rows)
            for build, rays in ((lower_topology, rows), (upper_topology, cols),
                                (interval_topology, rows + cols)):
                subbases.clear()
                got = build(rel)
                want = SetFamily.dedupe(u, (ray ^ full for ray in rays))
                assert subbases == [want]
                assert got == closure(want)
            t1, t2 = closure(family), lower_topology(rel)
            subbases.clear()
            got = join(t1, t2)
            want = SetFamily.dedupe(u, t1.opens + t2.opens)
            assert subbases == [want]
            assert got == closure(want)
        for rel in (strict, arbitrary):
            got = alexandroff_family(rel)
            assert got == SetFamily(u, fixed_masks(reach_table(rel.rows)))
            assert got.masks == canonical_masks(got.masks)
        seen += 1
    assert seen == 4 + 16 + 256 + 300


def _contains_mask(family, mask):
    return mask in family.masks


def test_alexandroff_family():
    order = generated_order(QUAD)
    family = alexandroff_family(order)
    assert _contains_mask(family, 0)
    assert not _contains_mask(family, 0b1100)  # {x3,x4} has empty upward reach
    # nothing reaches above x3/x4, so the empty set is the only fixed point
    assert family.masks == (0,)
    # the whole universe need not belong: under a chain the bottom is unreachable
    chain_order = generated_order(Nest.of(U3, [[0], [0, 1], [0, 1, 2]]))
    assert not _contains_mask(alexandroff_family(chain_order), U3.full_mask)



def _nest_and_family_orders():
    # every nest order up to five points and every family order up to three
    for n in range(1, 6):
        for nest in enumerate_nests(Universe(n), bound=5):
            yield generated_order(nest)
    for n in range(1, 4):
        for family in enumerate_families(Universe(n)):
            yield generated_order(family)


def test_reach_tables_match_up_set_and_down_set():
    for order in _nest_and_family_orders():
        u = order.universe
        up, down = reach_table(order.rows), reach_table(columns(order.rows))
        assert len(up) == len(down) == u.full_mask + 1
        for mask in range(u.full_mask + 1):
            region = Subset(u, mask)
            assert up[mask] == up_set(order, region).mask
            assert down[mask] == down_set(order, region).mask


def test_alexandroff_family_is_the_brute_force_fixed_points():
    for order in _nest_and_family_orders():
        u = order.universe
        fixed = [m for m in range(u.full_mask + 1) if up_set(order, Subset(u, m)).mask == m]
        assert alexandroff_family(order).masks == SetFamily(u, tuple(fixed)).masks


def _is_closed(topology, subset):
    """A subset is closed when its complement is open."""
    _check_same_universe(topology.universe, subset.universe)
    return topology.is_open(subset.mask ^ subset.universe.full_mask)


def test_is_closed():
    topo = topology_from_subbase(QUAD)
    assert _is_closed(topo, Subset(U4, 0))
    assert _is_closed(topo, Subset(U4, U4.full_mask))
    assert _is_closed(topo, Subset.of(U4, [2, 3]))
    assert not _is_closed(topo, Subset.of(U4, [0]))


def test_product_and_continuity():
    t = topology_from_subbase(PAIR)
    prod = product_topology(t, t)
    assert prod.universe.size == 4
    identity = list(range(2))
    assert is_continuous(identity, t, t)
    indiscrete = Topology(U2, (0, U2.full_mask))
    assert is_continuous([1, 0], t, indiscrete)  # anything into indiscrete
    assert not is_continuous([1, 0], t, t)  # swapping breaks {x1}
    # projections from the product are continuous
    first = [x for x in range(2) for _ in range(2)]
    second = [y for _ in range(2) for y in range(2)]
    assert is_continuous(first, prod, t)
    assert is_continuous(second, prod, t)
    with pytest.raises(ValueError):
        is_continuous([0], t, t)
    point = Topology(Universe(1), (0, 1))
    with pytest.raises(ValueError, match="outside the codomain"):
        is_continuous([1], point, point)


def _preimage(mapping, domain, open_mask):
    """The preimage of an open, one domain point at a time."""
    return sum(1 << x for x in domain.elements() if open_mask >> mapping[x] & 1)


def test_continuity_matches_the_preimage_loop():
    # every mapping between seeded topologies on one to four points and one
    # to three points
    rng = random.Random(15)
    verdicts = set()
    for _ in range(60):
        dom, cod = Universe(rng.randint(1, 4)), Universe(rng.randint(1, 3))
        tdom = topology_from_subbase(SetFamily.dedupe(
            dom, (rng.randrange(dom.full_mask + 1) for _ in range(rng.randint(0, 3)))))
        tcod = topology_from_subbase(SetFamily.dedupe(
            cod, (rng.randrange(cod.full_mask + 1) for _ in range(rng.randint(0, 3)))))
        for code in range(cod.size ** dom.size):
            mapping = [code // cod.size ** x % cod.size for x in dom.elements()]
            want = all(tdom.is_open(_preimage(mapping, dom, o)) for o in tcod.opens)
            assert is_continuous(mapping, tdom, tcod) == want
            verdicts.add(want)
    assert verdicts == {False, True}
