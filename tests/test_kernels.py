"""The row-level relation kernels, the region and sup kernels on masks, the group
image tables and the value types under them, against definitions written
over pairs, element sets and Cayley tables."""

import pickle
import random
from itertools import product

import pytest

from nestkit.analysis import (
    NO_BOUND,
    NO_LEAST,
    NestContext,
    _dual_ladder,
    complement_dual,
    down_mask_by_members,
    inf_of,
    member_lower_set_report,
    sup_index,
    sup_of,
    up_mask_by_complements,
)
from nestkit.bounds import (
    down_reach_covers,
    has_lower_bound,
    has_upper_bound,
    up_reach_covers,
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
from nestkit.groups import (
    BUILTIN_GROUPS,
    multiplication_premise,
    set_product,
    translate,
    translation_closed,
)
from nestkit.orders import (
    Relation,
    absorbs_rectangle_compositions,
    absorbs_rectangle_pairs,
    absorbs_rectangles,
    antisymmetric_rows,
    columns,
    compose,
    compose_rows,
    generated_order,
    generated_order_via_rectangles,
    irreflexive_rows,
    is_linear_order,
    is_transitive,
    linear_rows,
    order_rows,
    order_rows_via_rectangles,
    rectangle,
    rectangle_rows,
    rectangle_t0_rows,
    reflexive_closure,
    rows_within,
    t0_masks,
    t0_separates,
    t0_separates_via_rectangles,
    total_rows,
    transitive_rows,
    transpose,
)
from nestkit.topology import (
    down_mask,
    down_set,
    lower_bounds,
    up_mask,
    up_set,
    upper_bounds,
)

from reference import O, members, row_pairs


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


def _is_reflexive(rel):
    return all(row >> x & 1 for x, row in enumerate(rel.rows))


def _is_asymmetric(rel):
    return rel.is_irreflexive() and rel.is_antisymmetric()


def _is_total(rel):
    return total_rows(rel.rows, columns(rel.rows), rel.universe.full_mask)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_predicates_match_pair_definitions(n):
    points = range(n)
    relations = list(_all_relations(n))
    assert len(relations) == 2 ** (n * n)
    for rel in relations:
        pairs = row_pairs(rel.rows)
        assert set(rel.pairs()) == pairs
        assert row_pairs(transpose(rel).rows) == {(y, x) for x, y in pairs}
        assert is_transitive(rel, "standard") == _transitive(pairs, n, distinct=False)
        assert is_transitive(rel, "distinct_triples") == _transitive(pairs, n, distinct=True)
        assert _is_reflexive(rel) == all((x, x) in pairs for x in points)
        assert rel.is_irreflexive() == all((x, x) not in pairs for x in points)
        assert rel.is_antisymmetric() == all(
            (y, x) not in pairs for x, y in pairs if x != y
        )
        assert _is_asymmetric(rel) == all((y, x) not in pairs for x, y in pairs)
        assert _is_total(rel) == all(
            (x, y) in pairs or (y, x) in pairs for x in points for y in points
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compose_matches_the_pair_definition(n):
    relations = list(_all_relations(n))
    # every pair up to two points; on three, every relation against a fixed
    # seeded sample of 48 partners on either side
    partners = relations if n < 3 else random.Random(n).sample(relations, 48)
    for a in relations:
        a_pairs = row_pairs(a.rows)
        for b in partners:
            b_pairs = row_pairs(b.rows)
            for left, right, lp, rp in ((a, b, a_pairs, b_pairs), (b, a, b_pairs, a_pairs)):
                want = {(x, y) for x, z in rp for w, y in lp if z == w}
                assert row_pairs(compose(left, right).rows) == want


def _check_family(fam):
    n = fam.universe.size
    want = O.order(members(fam), n)
    assert row_pairs(generated_order(fam).rows) == want
    assert row_pairs(generated_order_via_rectangles(fam).rows) == want
    assert t0_separates_via_rectangles(fam) == O.t0(members(fam), n)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_kernels_match_pair_definitions_on_every_small_relation(n):
    full = (1 << n) - 1
    points = range(n)
    relations = list(_all_relations(n))
    partners = random.Random(n).sample(relations, min(len(relations), 16))
    for rel in relations:
        rows, pairs = rel.rows, row_pairs(rel.rows)
        cols = columns(rows)
        assert row_pairs(cols) == {(y, x) for x, y in pairs}
        assert row_pairs(reflexive_closure(rel).rows) == pairs | {(x, x) for x in points}
        for distinct in (False, True):
            assert transitive_rows(rows, distinct) == _transitive(pairs, n, distinct)
        assert irreflexive_rows(rows) == all((x, x) not in pairs for x in points)
        assert antisymmetric_rows(rows, cols) == all(
            (y, x) not in pairs for x, y in pairs if x != y
        )
        assert total_rows(rows, cols, full) == all(
            (x, y) in pairs or (y, x) in pairs for x in points for y in points
        )
        assert linear_rows(rows, cols, full) == O.is_linear(pairs, n) == is_linear_order(rel)
        for other in partners:
            other_pairs = row_pairs(other.rows)
            # compose_rows(a, b): x -b-> z -a-> y
            assert row_pairs(compose_rows(rows, other.rows)) == {
                (x, y) for x, z in other_pairs for w, y in pairs if z == w
            }
            assert rows_within(rows, other.rows) == (pairs <= other_pairs)


def _rectangle_pairs(member, n):
    return {(x, y) for x in range(n) for y in range(n) if member >> x & 1 and not member >> y & 1}


def _check_order_kernels(fam):
    """Every order kernel on one family, against the pair-set definitions and
    against the public form that wraps it."""
    u = fam.universe
    n, full, masks = u.size, u.full_mask, fam.masks
    want = O.order(members(fam), n)
    rows = order_rows(masks, n, full)
    cols = columns(rows)
    assert row_pairs(rows) == want
    assert row_pairs(order_rows_via_rectangles(masks, n, full)) == want
    assert generated_order(fam).rows == rows
    assert generated_order_via_rectangles(fam).rows == rows
    rects = {m: _rectangle_pairs(m, n) for m in masks}
    for m in masks:
        assert row_pairs(rectangle_rows(m, n, full)) == rects[m]
        assert rectangle(u, m).rows == rectangle_rows(m, n, full)
    # [S x (X-S)] ∘ [T x (X-T)] lies inside some member's rectangle
    absorbs = all(
        any(
            {(x, y) for x, z in rects[t] for w, y in rects[s] if z == w} <= rects[r]
            for r in masks
        )
        for s in masks
        for t in masks
    )
    assert absorbs_rectangles(masks, n, full) == absorbs == absorbs_rectangle_compositions(fam)
    assert absorbs_rectangle_pairs(masks, full) == absorbs
    for distinct, mode in ((False, "standard"), (True, "distinct_triples")):
        assert transitive_rows(rows, distinct) == _transitive(want, n, distinct)
        assert is_transitive(generated_order(fam), mode) == transitive_rows(rows, distinct)
    assert irreflexive_rows(rows)
    assert antisymmetric_rows(rows, cols) == all((y, x) not in want for x, y in want if x != y)
    assert total_rows(rows, cols, full) == all(
        (x, y) in want or (y, x) in want for x in range(n) for y in range(n)
    )
    assert linear_rows(rows, cols, full) == O.is_linear(want, n)
    assert linear_rows(rows, cols, full) == is_linear_order(generated_order(fam))
    split = O.t0(members(fam), n)
    assert t0_masks(masks, n) == split == t0_separates(fam)
    assert rectangle_t0_rows(rows, cols, full) == split == t0_separates_via_rectangles(fam)


def test_order_kernels_match_the_definitions_on_every_small_family():
    seen = 0
    for n in (1, 2, 3):
        for fam in enumerate_families(Universe(n)):
            _check_order_kernels(fam)
            seen += 1
    assert seen == 4 + 16 + 256


def test_order_kernels_match_the_definitions_on_random_families():
    rng = random.Random(8)
    for _ in range(2000):
        u = Universe(rng.randint(1, 6))
        masks = {rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 6))}
        _check_order_kernels(SetFamily(u, tuple(masks)))


def test_absorption_pair_form_matches_the_row_form_on_seeded_families():
    # chains on 4-6 points, half of them with one bit of one member flipped,
    # so that both verdicts occur often
    rng = random.Random(16)
    verdicts = []
    for _ in range(3000):
        n = rng.randint(4, 6)
        full = (1 << n) - 1
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(n + 1), rng.randint(1, 5)))
        masks = [sum(1 << x for x in order[:cut]) for cut in cuts]
        if rng.random() < 0.5:
            masks[rng.randrange(len(masks))] ^= 1 << rng.randrange(n)
        masks = tuple(sorted(set(masks)))
        absorbs = absorbs_rectangle_pairs(masks, full)
        assert absorbs == absorbs_rectangles(masks, n, full), masks
        verdicts.append(absorbs)
    assert 0.25 < sum(verdicts) / len(verdicts) < 0.9


def _points(mask):
    return {x for x in range(mask.bit_length()) if mask >> x & 1}


def _check_group_kernels(group, a, b):
    """set_product, both translations and translation closure of one subset
    pair, against the Cayley table."""
    table, u = group.table, group.universe
    assert set_product(group, a, b) == _mask({table[x][y] for x in _points(a) for y in _points(b)})
    fam = SetFamily(u, tuple({a, b}))
    closed = True
    for g in range(group.order):
        left = translate(group, g, Subset(u, a), "left").mask
        right = translate(group, g, Subset(u, a), "right").mask
        assert left == _mask({table[g][x] for x in _points(a)})
        assert right == _mask({table[x][g] for x in _points(a)})
        closed = closed and all(
            _mask({table[g][x] for x in _points(m)}) in fam.masks
            and _mask({table[x][g] for x in _points(m)}) in fam.masks
            for m in fam.masks
        )
    assert translation_closed(group, fam) == closed


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z2xz2", "s3"])
def test_group_kernels_match_the_cayley_table_on_every_subset_pair(name):
    group = BUILTIN_GROUPS[name]()
    n = group.order
    assert group.left_images == tuple(
        tuple(1 << group.table[g][x] for x in range(n)) for g in range(n)
    )
    assert group.right_images == tuple(
        tuple(1 << group.table[x][g] for x in range(n)) for g in range(n)
    )
    for a in range(1 << n):
        for b in range(1 << n):
            _check_group_kernels(group, a, b)


def test_group_kernels_match_the_cayley_table_on_seeded_d4_pairs():
    group = BUILTIN_GROUPS["d4"]()
    rng = random.Random(4)
    for _ in range(2000):
        _check_group_kernels(group, rng.randrange(256), rng.randrange(256))


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z2xz2", "s3"])
def test_multiplication_premise_matches_the_cayley_table(name):
    group = BUILTIN_GROUPS[name]()
    u = group.universe
    rng = random.Random(len(name))
    families = [
        SetFamily(u, tuple({rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 4))}))
        for _ in range(300)
    ]
    if group.order <= 3:
        families += list(enumerate_families(u))
    for fam in families:
        assert multiplication_premise(group, fam) == O.multiplication_premise(
            group.table, members(fam))


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
    pairs = row_pairs(rel.rows)
    points = set(range(n))
    inside = {y for y in points if region >> y & 1}
    member_sets = [{x for x in points if m >> x & 1} for m in masks]
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
        set().union(*(m for m in member_sets if not inside <= m))
    )
    assert up_mask_by_complements(masks, full, region) == _mask(
        set().union(*(points - m for m in member_sets if inside & m))
    )


def test_region_kernels_match_the_definitions_on_every_small_nest():
    seen = 0
    for n in (1, 2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            ctx = NestContext(nest)
            order = Relation(u, ctx.order_rows)
            for mask in range(u.full_mask + 1):
                region = Subset(u, mask)
                # the strict order, and the reflexive one the bound
                # dichotomy reads
                for rel in (order, Relation(u, ctx.preorder_rows)):
                    _check_region_kernels(rel, nest.masks, mask)
                # the public forms wrap the kernels, from a nest and from
                # its context alike
                rows, full = ctx.order_rows, u.full_mask
                assert up_set(order, region).mask == up_mask(rows, mask)
                assert down_set(order, region).mask == down_mask(rows, mask)
                for source in (nest, ctx):
                    assert down_reach_covers(source, region).holds == (
                        down_mask(rows, mask) == full)
                    assert up_reach_covers(source, region).holds == (
                        up_mask(rows, mask) == full)
                    assert has_upper_bound(source, region) == (
                        upper_bounds(rows, full, mask) != 0)
                    assert has_lower_bound(source, region, strict=False) == (
                        lower_bounds(ctx.preorder_rows, mask) != 0)
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
        lambda: up_set(Relation(u3, ctx.order_rows), region),
        lambda: down_set(Relation(u3, ctx.order_rows), region),
        lambda: down_reach_covers(nest, region),
        lambda: up_reach_covers(nest, region),
        lambda: down_reach_covers(ctx, region),
        lambda: up_reach_covers(ctx, region),
        lambda: has_upper_bound(nest, region),
        lambda: has_lower_bound(nest, region, strict=False),
        lambda: has_upper_bound(ctx, region, strict=False),
        lambda: has_lower_bound(ctx, region),
        lambda: member_lower_set_report(nest, region),
        lambda: member_lower_set_report(ctx, region),
    ):
        with pytest.raises(InstanceError, match="different universes"):
            call()


def _least_upper_bound(pairs, n, region):
    """The least upper bound of a region by its definition, or the code
    `sup_index` answers with."""
    bounds = [x for x in range(n) if all((y, x) in pairs for y in region)]
    if not bounds:
        return NO_BOUND
    least = [b for b in bounds if all((b, c) in pairs for c in bounds)]
    return least[0] if len(least) == 1 else NO_LEAST


def _check_sup_kernel(rel):
    n, full = rel.universe.size, rel.universe.full_mask
    pairs, flipped = row_pairs(rel.rows), {(y, x) for x, y in row_pairs(rel.rows)}
    answers = set()
    for mask in range(full + 1):
        inside = {x for x in range(n) if mask >> x & 1}
        want = _least_upper_bound(pairs, n, inside)
        assert sup_index(rel.rows, full, mask) == want
        answers.add(want)
        # the wrappers: codes become reasons, infima are suprema upside down
        result = sup_of(rel, mask)
        assert (result.element if result.exists else None) == (want if want >= 0 else None)
        assert result.reason == {NO_BOUND: "no_upper_bound", NO_LEAST: "no_least_upper_bound"}.get(
            want, "ok")
        glb = _least_upper_bound(flipped, n, inside)
        result = inf_of(rel, mask)
        assert (result.element if result.exists else None) == (glb if glb >= 0 else None)
        assert result.reason == {
            NO_BOUND: "no_lower_bound", NO_LEAST: "no_greatest_lower_bound"}.get(glb, "ok")
    return answers


def test_sup_kernel_matches_the_definition_on_every_small_nest():
    # every region of every nest's preorder on at most four points; the
    # non-T0 nests have incomparable minimal bounds, hence "no least"
    codes_without_t0 = set()
    for n in (1, 2, 3, 4):
        for nest in enumerate_nests(Universe(n)):
            ctx = NestContext(nest)
            answers = _check_sup_kernel(Relation(nest.universe, ctx.preorder_rows))
            if not ctx.t0:
                codes_without_t0 |= answers & {NO_BOUND, NO_LEAST}
    assert codes_without_t0 == {NO_BOUND, NO_LEAST}


def test_sup_kernel_matches_the_definition_on_random_preorders():
    # reflexive relations with equivalent points: two least bounds that lie
    # below each other are still not a unique least one
    rng = random.Random(5)
    codes = set()
    for _ in range(300):
        u = Universe(rng.randint(1, 5))
        rel = reflexive_closure(
            Relation(u, tuple(rng.randrange(u.full_mask + 1) for _ in range(u.size))))
        codes |= _check_sup_kernel(rel)
    assert {NO_BOUND, NO_LEAST} <= codes


def test_dual_ladder_routes_must_agree():
    # the sup route reads the right nest's rows, the inf route the left
    # nest's columns; rows that are not their transpose break the pair
    u = Universe(2)
    ctx = NestContext(Nest.of(u, [[], [0]]))
    right = ctx.dual
    masks, full = right.nest.masks, u.full_mask
    assert _dual_ladder(masks, full, right.preorder_rows, columns(ctx.preorder_rows)) == (
        complement_dual(ctx).dual_sup_conditions)
    with pytest.raises(InstanceError, match="routes disagree"):
        _dual_ladder(masks, full, right.preorder_rows, ctx.preorder_rows)
