"""The row-level relation kernels, the region kernels on masks and the value
types under them, against definitions written over pairs and element sets."""

import pickle
import random
from itertools import product

import pytest

from nestkit.analysis import (
    NestContext,
    down_mask_by_members,
    down_set_by_members,
    up_mask_by_complements,
    up_set_by_complements,
)
from nestkit.bounds import (
    down_reach_covers,
    down_reach_covers_in,
    has_lower_bound,
    has_lower_bound_in,
    has_upper_bound,
    has_upper_bound_in,
    lower_bounds,
    up_reach_covers,
    up_reach_covers_in,
    upper_bounds,
)
from nestkit.core import (
    InstanceError,
    Nest,
    SetFamily,
    Subset,
    Universe,
    enumerate_families,
    enumerate_nests,
)
from nestkit.orders import (
    Relation,
    compose,
    generated_order,
    generated_order_via_rectangles,
    is_transitive,
    reflexive_closure,
    t0_separates_via_rectangles,
    transpose,
)
from nestkit.topology import down_mask, down_set, up_mask, up_set


def _pairs(rel):
    n = rel.universe.size
    return {(x, y) for x in range(n) for y in range(n) if rel.rows[x] >> y & 1}


def _all_relations(n):
    u = Universe(n)
    cells = [(x, y) for x in range(n) for y in range(n)]
    for pick in range(1 << len(cells)):
        yield Relation.from_pairs(u, [cell for i, cell in enumerate(cells) if pick >> i & 1])


def _transitive(pairs, n, distinct):
    return all(
        (x, z) in pairs
        for x, y, z in product(range(n), repeat=3)
        if (x, y) in pairs and (y, z) in pairs
        and not (distinct and len({x, y, z}) < 3)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_predicates_match_pair_definitions(n):
    points = range(n)
    relations = list(_all_relations(n))
    assert len(relations) == 2 ** (n * n)
    for rel in relations:
        pairs = _pairs(rel)
        assert set(rel.pairs()) == pairs
        assert _pairs(transpose(rel)) == {(y, x) for x, y in pairs}
        assert is_transitive(rel, "standard") == _transitive(pairs, n, distinct=False)
        assert is_transitive(rel, "distinct_triples") == _transitive(pairs, n, distinct=True)
        assert rel.is_reflexive() == all((x, x) in pairs for x in points)
        assert rel.is_irreflexive() == all((x, x) not in pairs for x in points)
        assert rel.is_antisymmetric() == all(
            (y, x) not in pairs for x, y in pairs if x != y
        )
        assert rel.is_asymmetric() == all((y, x) not in pairs for x, y in pairs)
        assert rel.is_total() == all(
            (x, y) in pairs or (y, x) in pairs for x in points for y in points
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compose_matches_the_pair_definition(n):
    relations = list(_all_relations(n))
    # every pair up to two points; on three, every relation against a fixed
    # seeded sample of 48 partners on either side
    partners = relations if n < 3 else random.Random(n).sample(relations, 48)
    for a in relations:
        a_pairs = _pairs(a)
        for b in partners:
            b_pairs = _pairs(b)
            for left, right, lp, rp in ((a, b, a_pairs, b_pairs), (b, a, b_pairs, a_pairs)):
                want = {(x, y) for x, z in rp for w, y in lp if z == w}
                assert _pairs(compose(left, right)) == want


def _order_by_definition(fam):
    n = fam.universe.size
    return {
        (x, y)
        for x in range(n)
        for y in range(n)
        if any(m >> x & 1 and not m >> y & 1 for m in fam.masks)
    }


def _check_family(fam):
    want = _order_by_definition(fam)
    assert _pairs(generated_order(fam)) == want
    assert _pairs(generated_order_via_rectangles(fam)) == want
    n = fam.universe.size
    split = all(
        any((m >> x ^ m >> y) & 1 for m in fam.masks)
        for x in range(n) for y in range(x + 1, n)
    )
    assert t0_separates_via_rectangles(fam) == split


def test_generated_orders_match_the_definition_on_every_small_family():
    seen = 0
    for n in (1, 2, 3):
        for fam in enumerate_families(Universe(n)):
            _check_family(fam)
            seen += 1
    assert seen == 4 + 16 + 256


def test_generated_orders_match_the_definition_on_random_families():
    rng = random.Random(5)
    for _ in range(400):
        u = Universe(rng.randint(1, 6))
        masks = {rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 6))}
        _check_family(SetFamily(u, tuple(masks)))


def test_range_checks_keep_their_exceptions_and_messages():
    u = Universe(3)
    for rows in ((0, -1, 0), (0, 0, 8), (1 << 70, 0, 0)):
        with pytest.raises(ValueError, match="relation row mentions out-of-range elements"):
            Relation(u, rows)
    with pytest.raises(ValueError, match="relation needs one row per element"):
        Relation(u, (0, 0))
    Relation(u, (7, 0, 7))
    for mask in (-1, 8, -8):
        with pytest.raises(InstanceError, match=f"mask {mask:#x} does not fit the universe"):
            Subset(u, mask)
    Subset(u, 7)
    # the family reports the first bad member in canonical order
    with pytest.raises(InstanceError, match="member mask -0x1 does not fit the universe"):
        SetFamily(u, (3, -1, 9))
    with pytest.raises(InstanceError, match="member mask -0x1 does not fit the universe"):
        SetFamily(u, (2, -1))
    with pytest.raises(InstanceError, match="member mask 0x8 does not fit the universe"):
        SetFamily(u, (8, 16))
    with pytest.raises(InstanceError, match="family members must be distinct"):
        SetFamily(u, (1, 2, 1))
    assert SetFamily(u, (7, 0, 3)).masks == (0, 3, 7)


def test_full_mask_is_stored_and_survives_pickling():
    for size, labels in ((1, None), (4, None), (3, ("a", "b", "c"))):
        u = Universe(size, labels)
        assert u.full_mask == (1 << size) - 1
        copy = pickle.loads(pickle.dumps(u))
        assert copy == u and hash(copy) == hash(u)
        assert copy.full_mask == u.full_mask
        fam = pickle.loads(pickle.dumps(SetFamily(u, (0, u.full_mask))))
        assert fam.universe.full_mask == u.full_mask
    # derived, so neither compared nor shown nor accepted as an argument
    assert repr(Universe(2)) == "Universe(size=2, labels=None)"
    with pytest.raises(TypeError):
        Universe(2, None, 3)


def _mask(points):
    return sum(1 << x for x in points)


def _check_region_kernels(rel, masks, region):
    """Every region kernel on one relation, one family (as masks) and one
    region, against its definition over pairs and element sets."""
    n = rel.universe.size
    full = rel.universe.full_mask
    pairs = _pairs(rel)
    points = set(range(n))
    inside = {y for y in points if region >> y & 1}
    members = [{x for x in points if m >> x & 1} for m in masks]
    rows = rel.rows
    assert up_mask(rows, region) == _mask({x for y, x in pairs if y in inside})
    assert down_mask(rows, region) == _mask({x for x, y in pairs if y in inside})
    assert upper_bounds(rows, full, region) == _mask(
        {x for x in points if all((y, x) in pairs for y in inside)}
    )
    assert lower_bounds(rows, region) == _mask(
        {x for x in points if all((x, y) in pairs for y in inside)}
    )
    assert down_mask_by_members(masks, region) == _mask(
        set().union(*(m for m in members if not inside <= m))
    )
    assert up_mask_by_complements(masks, full, region) == _mask(
        set().union(*(points - m for m in members if inside & m))
    )


def test_region_kernels_match_the_definitions_on_every_small_nest():
    seen = 0
    for n in (1, 2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            ctx = NestContext(nest)
            for mask in range(u.full_mask + 1):
                region = Subset(u, mask)
                # the strict order, and the reflexive one the bound
                # dichotomy reads
                for rel in (ctx.order, ctx.preorder):
                    _check_region_kernels(rel, nest.masks, mask)
                # the public forms wrap the kernels
                assert up_set(ctx.order, region).mask == up_mask(ctx.order.rows, mask)
                assert down_set(ctx.order, region).mask == down_mask(ctx.order.rows, mask)
                assert down_set_by_members(nest, region).mask == down_mask_by_members(
                    nest.masks, mask
                )
                assert up_set_by_complements(nest, region).mask == up_mask_by_complements(
                    nest.masks, u.full_mask, mask
                )
                seen += 1
    assert seen == 4 * 2 + 12 * 4 + 52 * 8 + 300 * 16


def test_region_kernels_match_the_definitions_on_random_relations():
    rng = random.Random(11)
    for _ in range(400):
        u = Universe(rng.randint(1, 6))
        n = u.size
        rel = Relation(u, tuple(rng.randrange(u.full_mask + 1) for _ in range(n)))
        masks = tuple({rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 6))})
        for region in range(u.full_mask + 1):
            _check_region_kernels(rel, masks, region)
        _check_region_kernels(reflexive_closure(rel), masks, rng.randrange(u.full_mask + 1))


def test_public_region_forms_reject_a_region_from_another_universe():
    u3, u4 = Universe(3), Universe(4)
    nest = Nest.of(u3, [[0], [0, 1]])
    ctx = NestContext(nest)
    region = Subset.of(u4, [0])
    for call in (
        lambda: up_set(ctx.order, region),
        lambda: down_set(ctx.order, region),
        lambda: down_set_by_members(nest, region),
        lambda: up_set_by_complements(nest, region),
        lambda: down_reach_covers(nest, region),
        lambda: up_reach_covers(nest, region),
        lambda: down_reach_covers_in(ctx, region),
        lambda: up_reach_covers_in(ctx, region),
        lambda: has_upper_bound(nest, region),
        lambda: has_lower_bound(nest, region, strict=False),
        lambda: has_upper_bound_in(ctx, region, strict=False),
        lambda: has_lower_bound_in(ctx, region),
    ):
        with pytest.raises(InstanceError, match="different universes"):
            call()
