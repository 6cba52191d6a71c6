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
    NO_SUPS,
    SUPS_ESCAPE,
    SUPS_EXIST,
    SUPS_ONTO,
    DualPair,
    NestContext,
    _ladder,
    complement_dual,
    down_mask_by_members,
    dual_sup_conditions,
    member_lower_set_report,
    member_lower_set_views,
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
    translation_closed,
)
from nestkit.orders import (
    DIAGONAL,
    SPREAD,
    SQUARE,
    Relation,
    absorbs_rectangle_compositions,
    absorbs_rectangle_pairs,
    absorbs_rectangles,
    antisymmetric_rows,
    columns,
    compose,
    compose_rows,
    generated_order,
    irreflexive_rows,
    is_transitive,
    linear_rows,
    order_rows,
    order_rows_via_rectangles,
    pack_rows,
    packed_product,
    packed_transpose,
    rectangle,
    rectangle_rows,
    rectangle_t0_rows,
    reflexive_closure,
    rows_within,
    t0_masks,
    t0_separates,
    total_rows,
    transitive_rows,
    unpack_rows,
)
from nestkit.suites import random_nest
from nestkit.topology import (
    Regions,
    down_mask,
    down_set,
    fixed_masks,
    lower_bounds,
    reach_table,
    up_mask,
    up_set,
    upper_bounds,
)

from reference import O, antisymmetric, irreflexive, members, row_pairs, total


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
    return irreflexive_rows(rel.rows) and antisymmetric_rows(rel.rows, columns(rel.rows))


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
        assert row_pairs(columns(rel.rows)) == {(y, x) for x, y in pairs}
        assert is_transitive(rel, "standard") == _transitive(pairs, n, distinct=False)
        assert is_transitive(rel, "distinct_triples") == _transitive(pairs, n, distinct=True)
        assert _is_reflexive(rel) == all((x, x) in pairs for x in points)
        assert irreflexive_rows(rel.rows) == irreflexive(pairs, n)
        assert antisymmetric_rows(rel.rows, columns(rel.rows)) == antisymmetric(pairs)
        assert _is_asymmetric(rel) == all((y, x) not in pairs for x, y in pairs)
        assert _is_total(rel) == total(pairs, n)


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
    n, full = fam.universe.size, fam.universe.full_mask
    want = O.order(members(fam), n)
    rows = generated_order(fam).rows
    assert row_pairs(rows) == want
    assert row_pairs(order_rows_via_rectangles(fam.masks, n, full)) == want
    assert rectangle_t0_rows(rows, columns(rows), full) == O.t0(members(fam), n)


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
        assert rel.columns == cols and rel.columns is rel.columns
        assert row_pairs(reflexive_closure(rel).rows) == pairs | {(x, x) for x in points}
        for distinct in (False, True):
            assert transitive_rows(rows, distinct) == _transitive(pairs, n, distinct)
        assert irreflexive_rows(rows) == irreflexive(pairs, n)
        assert antisymmetric_rows(rows, cols) == antisymmetric(pairs)
        assert total_rows(rows, cols, full) == total(pairs, n)
        assert linear_rows(rows, cols, full) == O.is_linear(pairs, n)
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
    split = O.t0(members(fam), n)
    assert t0_masks(masks, n) == split == t0_separates(fam)
    assert rectangle_t0_rows(rows, cols, full) == split


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


# ----------------------------------------------------------- packed forms --


def _check_packed_kernels(masks, rows, n):
    """The packed kernels on one family's masks and on one relation's rows
    over n points, against the row kernels; returns the relation's
    (irreflexive, antisymmetric) verdicts."""
    full = (1 << n) - 1
    by_rectangles = order_rows_via_rectangles(masks, n, full)
    product_form = packed_product(masks, full)
    assert product_form == pack_rows(by_rectangles)
    assert unpack_rows(product_form, n) == by_rectangles
    # the complements' rectangles are the transposed ones
    assert packed_product([m ^ full for m in masks], full) == pack_rows(columns(by_rectangles))
    diagonal, square = DIAGONAL[n], SQUARE[n]
    verdicts = []
    for relation in (by_rectangles, rows):
        packed = pack_rows(relation)
        transposed = packed_transpose(packed)
        cols = columns(relation)
        assert transposed == pack_rows(cols)
        assert packed_transpose(transposed) == packed
        assert (not packed & diagonal) == irreflexive_rows(relation)
        assert (not packed & transposed & ~diagonal) == antisymmetric_rows(relation, cols)
        assert (packed | transposed | diagonal == square) == rectangle_t0_rows(relation, cols, full)
        verdicts.append((not packed & diagonal, not packed & transposed & ~diagonal))
    return verdicts[1]


def _packed_cases():
    """(masks, rows, n): every family on at most three points, each with the
    relation of its masks padded with 0 as rows; then seeded families and
    relations on four to eight points, where at n = 8 a full row fills its
    byte."""
    for n in (1, 2, 3):
        for family in enumerate_families(Universe(n)):
            yield family.masks, (family.masks + (0,) * n)[:n], n
    rng = random.Random(29)
    for n in range(4, 9):
        full = (1 << n) - 1
        for _ in range(400):
            masks = {rng.randrange(full + 1) for _ in range(rng.randint(0, 6))}
            rows = tuple(rng.choice((0, full, rng.randrange(full + 1))) for _ in range(n))
            yield tuple(masks), rows, n


def test_packed_kernels_match_the_row_kernels():
    seen, verdicts = 0, set()
    for masks, rows, n in _packed_cases():
        verdicts.add(_check_packed_kernels(masks, rows, n))
        seen += 1
    assert seen == 4 + 16 + 256 + 5 * 400
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_packed_layout_tables_and_a_full_byte():
    for n in range(9):
        full = (1 << n) - 1
        assert DIAGONAL[n] == pack_rows(1 << x for x in range(n))
        assert SQUARE[n] == pack_rows([full] * n)
    for m in range(256):
        assert SPREAD[m] == pack_rows(m >> x & 1 for x in range(8))
    # on eight points the square's rows fill their bytes, and its transpose
    # and the product of the one member {} and X are the square and nothing
    assert packed_transpose(SQUARE[8]) == SQUARE[8] == pack_rows([255] * 8)
    assert packed_product((0, 255), 255) == 0
    # a single point below the other seven: row 0 is 254, column 0 is empty
    assert unpack_rows(packed_product((1,), 255), 8) == (254,) + (0,) * 7
    assert unpack_rows(packed_transpose(packed_product((1,), 255)), 8) == (0,) + (1,) * 7


def test_pack_rows_refuses_a_row_that_does_not_fit_a_byte():
    assert pack_rows([255, 0, 1]) == 0x0100FF
    for row in (256, 1 << 9, -1):
        with pytest.raises(ValueError):
            pack_rows([0, row])


def _points(mask):
    return {x for x in range(mask.bit_length()) if mask >> x & 1}


def _check_group_kernels(group, a, b):
    """set_product, both translations (the image tables read as reach) and
    translation closure of one subset pair, against the Cayley table."""
    table, u = group.table, group.universe
    assert set_product(group, a, b) == _mask({table[x][y] for x in _points(a) for y in _points(b)})
    fam = SetFamily(u, tuple({a, b}))
    closed = True
    for g in range(group.order):
        left = up_mask(group.left_images[g], a)
        right = up_mask(group.right_images[g], a)
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
    # the member formulas exist only for every region at once: read this
    # region's field
    regions = rel.universe.regions
    assert regions.unpack(down_mask_by_members(regions, masks))[region] == _mask(
        set().union(*(m for m in member_sets if not inside <= m))
    )
    assert regions.unpack(up_mask_by_complements(regions, masks))[region] == _mask(
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


def _check_lifted_kernels(nest):
    """Every lifted form on one nest against its region-at-a-time kernel or
    definition, field by field."""
    u = nest.universe
    regions, full, masks = u.regions, u.full_mask, nest.masks
    everywhere = range(full + 1)
    ctx = NestContext(nest)
    for rows in (ctx.order_rows, ctx.preorder_rows):
        assert regions.reach_table(rows) == regions.pack(reach_table(rows))
        assert regions.unpack(regions.up_mask(rows)) == tuple(
            up_mask(rows, r) for r in everywhere)
        assert regions.unpack(regions.down_mask(rows)) == tuple(
            down_mask(rows, r) for r in everywhere)
        assert regions.unpack(regions.upper_bounds(rows)) == tuple(
            upper_bounds(rows, full, r) for r in everywhere)
        assert regions.unpack(regions.lower_bounds(rows)) == tuple(
            lower_bounds(rows, r) for r in everywhere)
    assert regions.unpack(down_mask_by_members(regions, masks)) == tuple(
        _mask(x for x in range(u.size) if any(r & ~m and m >> x & 1 for m in masks))
        for r in everywhere)
    assert regions.unpack(up_mask_by_complements(regions, masks)) == tuple(
        _mask(x for x in range(u.size) if any(r & m and not m >> x & 1 for m in masks))
        for r in everywhere)
    assert ctx.up_reach == regions.up_mask(ctx.order_rows)
    for m in masks:
        assert regions.unpack(regions.meets(m)) == tuple(int(r & m != 0) for r in everywhere)


def _check_layout(regions):
    """The packed layout of one size against its definition: fields of the
    smallest width above n, the inside indicators, and the decoders."""
    n, full = regions.size, regions.full
    assert regions.width == min(w for w in (8, 16, 32, 64) if w > n)
    everywhere = range(full + 1)
    assert len(regions.inside) == full + 1
    for m in everywhere:
        indicator = regions.inside[m]
        assert regions.unpack(indicator) == tuple(int(r & ~m == 0) for r in everywhere)
        assert regions.masks_of(indicator) == [r for r in everywhere if r & ~m == 0]
    assert regions.ones == regions.pack([1] * (full + 1)) == regions.fill(1)
    rng = random.Random(n)
    for _ in range(20):
        table = tuple(rng.choice((0, rng.randrange(full + 1))) for _ in everywhere)
        packed = regions.pack(table)
        assert regions.unpack(packed) == table
        assert packed == sum(v << r * regions.width for r, v in enumerate(table))
        assert regions.unpack(regions.nonzero(packed)) == tuple(int(v != 0) for v in table)
        assert regions.masks_of(regions.nonzero(packed)) == [r for r, v in enumerate(table) if v]
    # every other field holds X
    table = tuple(full if r & 1 else r >> 1 for r in everywhere)
    assert regions.unpack(regions.covers(regions.pack(table))) == tuple(
        int(v == full) for v in table)


def test_lifted_kernels_match_the_region_kernels_on_every_small_nest():
    seen = 0
    for n in range(1, 6):
        u = Universe(n)
        _check_layout(u.regions)
        for nest in enumerate_nests(u, bound=5):
            _check_lifted_kernels(nest)
            seen += 1
    assert seen == 4 * (1 + 3 + 13 + 75 + 541)


def test_lifted_kernels_match_the_region_kernels_on_random_larger_nests():
    # the field width goes from 8 to 16 bits at eight points
    rng = random.Random(24)
    for n in range(6, 11):
        u = Universe(n)
        assert u.regions is u.regions
        _check_layout(u.regions)
        for _ in range(3):
            _check_lifted_kernels(random_nest(rng, u))
    with pytest.raises(ValueError, match="width"):
        Regions(64)


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
    cols = columns(rel.rows)
    answers = set()
    for mask in range(full + 1):
        inside = {x for x in range(n) if mask >> x & 1}
        want = _least_upper_bound(pairs, n, inside)
        assert sup_index(rel.rows, full, mask) == want
        answers.add(want)
        # the wrapper turns codes into reasons
        result = sup_of(rel, mask)
        assert (result.element if result.exists else None) == (want if want >= 0 else None)
        assert result.reason == {NO_BOUND: "no_upper_bound", NO_LEAST: "no_least_upper_bound"}.get(
            want, "ok")
        # infima are suprema upside down: the kernel on the columns, as the
        # right side of a dual pair reads them
        assert sup_index(cols, full, mask) == _least_upper_bound(flipped, n, inside)
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


def _dual_pairs():
    """Every complement pair on at most six points, then every dual pair on
    at most three."""
    for n in range(1, 7):
        for nest in enumerate_nests(Universe(n), bound=6):
            yield complement_dual(NestContext(nest))
    for n in range(1, 4):
        contexts = [NestContext(nest) for nest in enumerate_nests(Universe(n))]
        for left in contexts:
            for right in contexts:
                if right.order_rows == columns(left.order_rows):
                    yield DualPair(left, right)


def test_dual_ladder_is_the_right_ladder_by_either_kernel_route():
    # the right side's ladder, read off its blocks, against the kernel on
    # the right preorder's rows (sups) and on the left one's columns (infima)
    pairs, ladders = 0, set()
    for pair in _dual_pairs():
        right, full = pair.right, pair.left.nest.universe.full_mask
        ladder = dual_sup_conditions(pair)
        for rows in (right.preorder_rows, pair.left.preorder_columns):
            assert ladder == _ladder({m: sup_index(rows, full, m) for m in right.nest.masks}, full)
        pairs += 1
        ladders.add(ladder)
    assert pairs == 21536
    assert len(ladders) == 4


# ------------------------------------------------------------ block forms --


def _block_form_nests():
    """Every nest on at most seven points, uncapped and capped at 0-3
    members, then seeded random nests on 8-12 points, where the packed
    field width goes from 8 to 16 bits."""
    for n in range(1, 8):
        u = Universe(n)
        for cap in (None, 0, 1, 2, 3):
            yield from enumerate_nests(u, max_members=cap, bound=7)
    rng = random.Random(27)
    for n in range(8, 13):
        u = Universe(n)
        for _ in range(30):
            yield random_nest(rng, u)


def test_context_t0_and_sups_read_off_the_blocks_match_their_kernels():
    # the context reads T0, each member's sup and the ladder off the nest's
    # blocks; the direct T0 form, the sup kernel on the preorder rows and the
    # ladder of those sups are the oracles, and each ladder is a shared value
    t0_seen, codes, ladders = set(), set(), set()
    for nest in _block_form_nests():
        ctx, n, full = NestContext(nest), nest.universe.size, nest.universe.full_mask
        assert ctx.t0 == t0_masks(nest.masks, n)
        rows = ctx.preorder_rows
        assert ctx.sup_indices == {m: sup_index(rows, full, m) for m in nest.masks}
        assert ctx.sup_conditions is _ladder(ctx.sup_indices, full)
        t0_seen.add((n > 7, ctx.t0))
        codes |= set(ctx.sup_indices.values()) & {NO_BOUND, NO_LEAST}
        ladders.add(id(ctx.sup_conditions))
    assert t0_seen >= {(False, False), (False, True), (True, False)}
    assert codes == {NO_BOUND, NO_LEAST}
    assert ladders == {id(rung) for rung in (NO_SUPS, SUPS_EXIST, SUPS_ESCAPE, SUPS_ONTO)}


def _cutoff_nests():
    """Every nest on at most five points, then seeded random nests on 8 and
    9 points: the last size whose order packs into one int, and the first
    whose order does not."""
    for n in range(1, 6):
        yield from enumerate_nests(Universe(n), bound=5)
    rng = random.Random(89)
    for n in (8, 9):
        for _ in range(60):
            yield random_nest(rng, Universe(n))


def test_context_orders_on_both_sides_of_the_packed_cutoff(monkeypatch):
    # on at most 8 points a context packs its members' rectangles, on more it
    # walks them; the walk and `columns` are the oracles on both sides, and a
    # pair of contexts still checks that its orders are transposes
    from nestkit import orders

    product = orders.packed_product
    derived = []
    monkeypatch.setattr(orders, "order_rows", lambda *a: derived.append("walk") or order_rows(*a))
    monkeypatch.setattr(orders, "packed_product", lambda *a: derived.append("packed") or product(*a))
    sizes, refused = set(), 0
    for nest in _cutoff_nests():
        u = nest.universe
        ctx = NestContext(nest)
        derived.clear()
        rows = ctx.order_rows
        assert derived == ["packed" if u.size <= 8 else "walk"]
        assert rows == order_rows(nest.masks, u.size, u.full_mask)
        assert ctx.preorder_columns == columns(ctx.preorder_rows)
        pair = complement_dual(ctx)
        assert pair.right.order_rows == columns(rows)
        # a member other than ∅ and X orders some pair one way only, so the
        # nest is not its own dual
        if any(0 < m < u.full_mask for m in nest.masks):
            with pytest.raises(InstanceError, match="not dual"):
                DualPair(ctx, NestContext(nest))
            refused += 1
        sizes.add(u.size)
    assert sizes == {1, 2, 3, 4, 5, 8, 9} and refused > 2000


def test_packed_alexandroff_family_is_the_fixed_points_of_the_reach_table():
    for nest in _block_form_nests():
        ctx = NestContext(nest)
        assert nest.universe.regions.masks_of(ctx.alexandroff) == list(
            fixed_masks(reach_table(ctx.order_rows)))


def test_member_lower_set_views_match_the_report_of_each_member():
    # the views of every member at once, bit i for the i-th member, against
    # the per-member report
    for n in range(1, 7):
        u = Universe(n)
        for nest in enumerate_nests(u, bound=6):
            views = member_lower_set_views(NestContext(nest))
            want = [0, 0, 0]
            for i, mask in enumerate(nest.masks):
                report = member_lower_set_report(nest, Subset(u, mask))
                fields = (report.union_of_smaller_matches, report.is_lower_set,
                          report.no_greatest_element)
                for j, holds in enumerate(fields):
                    want[j] |= holds << i
            assert views == tuple(want)
    # the recorded non-T0 witness: {x1,x2} is no lower set, yet has no
    # greatest point; nor has X, whose top block is {x3,x4}
    u4 = Universe(4)
    assert member_lower_set_views(NestContext(Nest.of(u4, [[0, 1], [0, 1, 2, 3]]))) == (
        0b00, 0b00, 0b11)
