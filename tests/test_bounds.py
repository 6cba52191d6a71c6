from nestkit.analysis import NestContext
from nestkit.bounds import (
    covering_subfamilies,
    down_reach_covers,
    has_lower_bound,
    has_upper_bound,
    up_reach_covers,
)
from nestkit.core import Nest, Subset, Universe, enumerate_nests
from nestkit.topology import down_set, up_set
from nestkit.orders import generated_order

U2 = Universe(2)
U3 = Universe(3)
CHAIN = Nest.of(U3, [[], [0], [0, 1]])
FULL_CHAIN = Nest.of(U3, [[0], [0, 1], [0, 1, 2]])


def test_down_reach_examples():
    result = down_reach_covers(FULL_CHAIN, Subset.of(U3, [2]))
    assert not result.holds
    assert result.witness_family is None
    # the uncovered remainder is everything not strictly below the region
    assert result.violating_member.indices == (2,)
    assert result.to_dict() == {"holds": False, "witness_family": None, "violating_member": [2]}
    whole = down_reach_covers(FULL_CHAIN, Subset(U3, U3.full_mask))
    assert not whole.holds
    assert whole.violating_member.indices == (2,)  # only x3 escapes the reach


def test_up_reach_examples():
    u = Universe(2)
    nest = Nest.of(u, [[0], [0, 1]])
    result = up_reach_covers(nest, Subset.of(u, [0]))
    assert not result.holds
    assert result.violating_member.indices == (0,)
    # a region meeting no member reaches nothing at all
    lonely = up_reach_covers(Nest.of(U3, [[0]]), Subset.of(U3, [1]))
    assert not lonely.holds
    assert lonely.violating_member.mask == U3.full_mask


def _full_reach_context(nest):
    """A context of the nest whose order rows put every point below every
    other: the covering branch no finite nest order reaches."""
    ctx = NestContext(nest)
    ctx.order_rows = (nest.universe.full_mask,) * nest.universe.size
    return ctx


def test_covering_witnesses_are_the_members_the_region_meets_or_escapes():
    nest = Nest.of(U3, [[], [0], [0, 1], [0, 1, 2]])
    ctx = _full_reach_context(nest)
    for region in range(1, U3.full_mask + 1):
        up = up_reach_covers(ctx, Subset(U3, region))
        down = down_reach_covers(ctx, Subset(U3, region))
        assert up.holds and down.holds
        assert up.witness_family.masks == tuple(m for m in nest.masks if region & m)
        assert down.witness_family.masks == tuple(m for m in nest.masks if region & ~m)
    up = up_reach_covers(_full_reach_context(FULL_CHAIN), Subset.of(U3, [1]))
    assert up.to_dict() == {
        "holds": True, "witness_family": [[0, 1], [0, 1, 2]], "violating_member": None}


def test_reach_never_covers_finite_universes():
    # a nest order is a finite strict partial order, so maximal elements
    # escape every downward reach and minimal ones every upward reach; the
    # covering verdict can only fire on infinite carriers
    for n in (1, 2, 3):
        u = Universe(n)
        for nest in enumerate_nests(u):
            order = generated_order(nest)
            for mask in range(u.full_mask + 1):
                region = Subset(u, mask)
                down = down_reach_covers(nest, region)
                up = up_reach_covers(nest, region)
                assert not down.holds and not up.holds
                assert down.violating_member.mask == (
                    u.full_mask ^ down_set(order, region).mask
                )
                assert up.violating_member.mask == (
                    u.full_mask ^ up_set(order, region).mask
                )


def test_bound_predicates():
    assert has_upper_bound(CHAIN, Subset.of(U3, [0]))  # x2 sits strictly above
    assert has_upper_bound(CHAIN, Subset(U3, 0))  # vacuous for the empty region
    assert not has_upper_bound(CHAIN, Subset(U3, U3.full_mask))
    assert has_lower_bound(CHAIN, Subset.of(U3, [1, 2]))
    assert not has_lower_bound(CHAIN, Subset.of(U3, [0]))
    # reflexive bounds accept points of the region itself
    assert has_upper_bound(CHAIN, Subset(U3, U3.full_mask), strict=False)


def test_strict_form_diverges_at_the_top():
    nest = Nest.of(U2, [[0]])
    whole = Subset(U2, U2.full_mask)
    assert not down_reach_covers(nest, whole, want_witness=False).holds
    assert not has_upper_bound(nest, whole, strict=True)
    assert has_upper_bound(nest, whole, strict=False)


def test_member_bound_facts_on_t0_chains():
    # any member other than the whole set has a strict upper bound outside,
    # and a nonempty member has a strict lower bound iff the minimum escapes it
    for member in ([0], [0, 1]):
        assert has_upper_bound(FULL_CHAIN, Subset.of(U3, member))
    assert not has_lower_bound(FULL_CHAIN, Subset.of(U3, [0]))
    assert not has_lower_bound(CHAIN, Subset.of(U3, [0]))


def test_covering_subfamilies():
    covers = covering_subfamilies(FULL_CHAIN)
    assert covers
    for chosen in covers:
        union = 0
        for m in chosen:
            union |= m
        assert union == U3.full_mask
    assert covering_subfamilies(CHAIN) == []  # the chain never reaches x3


def test_every_cover_of_a_nest_ends_in_the_universe():
    # a nest's covering subfamily is a chain whose union is its last member,
    # so that member is X: no region has a point outside it, the
    # bound-covers converse loop skips every cover, and its premise never
    # fires
    for n in (1, 2, 3, 4, 5):
        u = Universe(n)
        for nest in enumerate_nests(u, bound=5):
            covers = covering_subfamilies(nest)
            assert all(chosen[-1] == u.full_mask for chosen in covers)
            # the brute-force unions, point by point: pick i holds member j
            # when bit j of i is set
            members = nest.masks
            picks = [
                tuple(m for j, m in enumerate(members) if i >> j & 1)
                for i in range(1 << len(members))
            ]
            assert covers == [
                chosen for chosen in picks
                if sum(1 << x for x in range(n) if any(m >> x & 1 for m in chosen))
                == u.full_mask
            ]


def test_nest_forms_match_the_context_forms():
    # every predicate answers the same from a nest and from the context
    # sweeps pass, on every nest and region up to four points, and the bound
    # predicates match their definition over "some member contains y but
    # not x"
    for n in (1, 2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            ctx = NestContext(nest)

            def below(y, x):
                return any(m >> y & 1 and not m >> x & 1 for m in nest.masks)

            for mask in range(u.full_mask + 1):
                region = Subset(u, mask)
                ys = region.indices
                for want in (True, False):
                    assert down_reach_covers(nest, region, want) == down_reach_covers(
                        ctx, region, want)
                    assert up_reach_covers(nest, region, want) == up_reach_covers(
                        ctx, region, want)
                for strict in (True, False):
                    upper = has_upper_bound(nest, region, strict)
                    lower = has_lower_bound(nest, region, strict)
                    assert upper == has_upper_bound(ctx, region, strict)
                    assert lower == has_lower_bound(ctx, region, strict)
                    assert upper == any(
                        all(below(y, x) or (not strict and y == x) for y in ys)
                        for x in u.elements()
                    )
                    assert lower == any(
                        all(below(x, y) or (not strict and y == x) for y in ys)
                        for x in u.elements()
                    )


def test_converse_premise_reads_the_last_chosen_member():
    # the bound-covers suite decides "no chosen member contains the region"
    # from the last member of the chosen chain alone
    for n in (1, 2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            for chosen in covering_subfamilies(nest):
                for mask in range(u.full_mask + 1):
                    by_scan = not any(mask & ~m == 0 for m in chosen)
                    assert bool(mask & ~chosen[-1]) == by_scan
