"""Suprema under nest orders, the sup-condition ladder, dual nests,
interlocking characterizations, and the linear-orderability report.

The sup-condition ladder on a nest, always taken with respect to the
reflexive closure of the nest's generated order:

* ``sups_exist``   - every member has a supremum;
* ``sups_escape``  - every member has a supremum lying outside the member;
* ``sups_onto``    - additionally every point of the universe arises as such
                     an escaping supremum of some member.

A supremum only exists when the set of upper bounds has a unique least
element; incomparable upper bounds yield "does not exist" with a reason,
never an arbitrary pick.  The kernel `sup_index` decides this on the rows
of a reflexive order and a region mask, starting from the region's upper
bounds, and answers with the supremum's element or a code (`NO_BOUND`,
`NO_LEAST`); `sup_of` wraps it at the `Relation` boundary.

A nest's generated order is the strict weak order of its blocks
(`Nest.blocks`): x < y iff x's block comes before y's.  So a context reads
T0 (every block has at most one point), each member's sup (fixed by the
member's top block and the next one) and the ladder off the blocks in O(k).
The ladder is one walk that builds no table of sups and stops at the first
member without one; it is one of four shared, immutable `SupConditions`
values (`NO_SUPS`, `SUPS_EXIST`, `SUPS_ESCAPE`, `SUPS_ONTO`).  The kernels
stay as their oracles in the sweeps: `orders.t0_masks` in core-algebra, and
in sup-conditions `sup_index`, on the preorder rows of every nest swept and,
for the right side of every dual pair, on the left preorder's columns, and
``_ladder`` of those sups against the ladder (``ladder:block-form``).

`NestContext` holds the values a sweep derives from one nest, at mask level
only (the rows of its order and preorder, the complement nest's own context,
member sups, both ladders, T0, and the strict reach tables, packed in the
layout of `topology.Regions`), and computes each at most once, on first use;
its Alexandroff fixed points are the constant {∅}.  On at most 8 points the
order's rows are the members' rectangles packed one row per byte
(`orders.packed_product`) and the preorder's columns its packed transpose;
on more points they are the walk of `orders.order_rows` and `columns`.
Topology-engine's member formulas pin the rows on every nest it sweeps,
sup-conditions' inf route (``dual:inf-route``) pins the columns, and the
tests pin both sides of the cutoff against the walk.  A `Relation`,
`SetFamily` or `Subset` is built only at a public boundary: a predicate that
takes a `Subset`, a wrapper such as `sup_of`, or a topology a premise needs.
The fields are `core.lazy` fields, which take no lock: after the first
access a field is a plain attribute read.  Each nest predicate below takes
a nest or its context (`NestContext.of`), so there is one evaluation path
whichever is passed: a sweep builds one context per nest and shares it
across all of that nest's properties.  The sup sweep reads the member
lower-set views of all members at once (`member_lower_set_views`).  A
predicate on single members or regions reads their reach from a region
kernel; only the sweeps read the reach tables over every region.

`DualPair` is the one form of a dual pair, and holds the two sides'
contexts.  It checks once that both sides are nests whose orders are mutual
transposes, so the right nest's ladder is its own context's, and its sups
are the infima under the left order.
`complement_dual` pairs a context with its ``dual``; the sup sweep, the
all-dual-pairs loop, the searches and ``analyze`` all take this one path,
and `dual_sup_conditions`, `lots_hypotheses` and `lots_report` read the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import orders
from .core import (
    InstanceError,
    Nest,
    SetFamily,
    Subset,
    _check_same_universe,
    family_complement,
    is_chain,
    lazy,
)
from .orders import (
    Relation,
    columns,
    linear_rows,
    pack_rows,
    packed_transpose,
    reflexive_rows,
    unpack_rows,
)
from .topology import (
    Regions,
    Topology,
    down_mask,
    field_width,
    topology_from_subbase,
    upper_bounds,
)

REASON_OK = "ok"
REASON_NO_BOUND = "no_upper_bound"
REASON_NO_LEAST = "no_least_upper_bound"


# `sup_index` codes for a region without a supremum
NO_BOUND = -1
NO_LEAST = -2


@dataclass(frozen=True)
class SupResult:
    exists: bool
    element: int | None
    reason: str

    def __post_init__(self) -> None:
        if self.exists != (self.element is not None):
            raise InstanceError("element must be present exactly when it exists")


def sup_index(rows: tuple[int, ...], full: int, region: int) -> int:
    """Least upper bound of a region mask under a reflexive order given by
    its rows: the element, or `NO_BOUND` when no point lies above the whole
    region, or `NO_LEAST` when the upper bounds have no unique least one.
    Validates nothing.

    The supremum of the empty region is the least element of the whole
    universe, when that is unique.
    """
    bounds = upper_bounds(rows, full, region)
    if not bounds:
        return NO_BOUND
    least = NO_LEAST
    candidates = bounds
    while candidates:
        low = candidates & -candidates
        x = low.bit_length() - 1
        if bounds & ~rows[x] == 0:
            if least != NO_LEAST:
                return NO_LEAST
            least = x
        candidates ^= low
    return least


def _result(index: int) -> SupResult:
    if index >= 0:
        return SupResult(True, index, REASON_OK)
    return SupResult(False, None, REASON_NO_BOUND if index == NO_BOUND else REASON_NO_LEAST)


def sup_of(rel_reflexive: Relation, region_mask: int) -> SupResult:
    """Least upper bound of the region under the given reflexive order.

    The supremum of the empty region is the least element of the whole
    universe, when that is unique.
    """
    return _result(sup_index(rel_reflexive.rows, rel_reflexive.universe.full_mask, region_mask))


@dataclass(frozen=True)
class SupConditions:
    sups_exist: bool
    sups_escape: bool
    sups_onto: bool


# the four rungs a ladder can stop at, shared by every nest: each rung
# implies the ones before it
NO_SUPS = SupConditions(False, False, False)
SUPS_EXIST = SupConditions(True, False, False)
SUPS_ESCAPE = SupConditions(True, True, False)
SUPS_ONTO = SupConditions(True, True, True)


def _ladder(sups: dict[int, int], full: int) -> SupConditions:
    """The ladder from each member's `sup_index`: every sup exists, every
    sup lies outside its member, and the escaping sups cover the universe."""
    escape, reached = True, 0
    for m, s in sups.items():
        if s < 0:
            return NO_SUPS
        if m >> s & 1:
            escape = False
        reached |= 1 << s
    if not escape:
        return SUPS_EXIST
    return SUPS_ONTO if reached == full else SUPS_ESCAPE


class NestContext:
    """Derived values of one nest, each computed at most once, on first use.

    A context belongs to a single nest and is dropped with it; nothing it
    holds is shared between nests but the immutable ladder values.  ``dual``
    is the context of the complement nest, which is the nest's dual
    (`complement_dual` pairs the two).  A context is never shared between
    threads (the suite workers are processes), so its `lazy` fields need no
    lock.
    """

    def __init__(self, nest: Nest) -> None:
        self.nest = nest

    @classmethod
    def of(cls, nest: Nest | NestContext) -> NestContext:
        """The given context, or a fresh one for the given nest: every public
        nest predicate takes either."""
        return nest if isinstance(nest, NestContext) else cls(nest)

    @lazy
    def order_rows(self) -> tuple[int, ...]:
        """Rows of the nest's generated (strict) order: on at most 8 points
        the members' rectangles packed one row per byte, else the walk of
        `orders.order_rows`."""
        u = self.nest.universe
        # through the module, where the tests patch both kernels
        if u.size <= 8:
            return orders.unpack_rows(orders.packed_product(self.nest.masks, u.full_mask), u.size)
        return orders.order_rows(self.nest.masks, u.size, u.full_mask)

    @lazy
    def preorder_rows(self) -> tuple[int, ...]:
        """Rows of the reflexive closure of the order."""
        return reflexive_rows(self.order_rows)

    @lazy
    def preorder_columns(self) -> tuple[int, ...]:
        """Entry y holds every x at or below y: the down-sets of the points.
        On at most 8 points the packed transpose of the rows, else their
        `columns`."""
        size = self.nest.universe.size
        if size <= 8:
            return unpack_rows(packed_transpose(pack_rows(self.preorder_rows)), size)
        return columns(self.preorder_rows)

    @lazy
    def dual(self) -> NestContext:
        """The context of the complement nest."""
        return NestContext(family_complement(self.nest))

    @lazy
    def sup_indices(self) -> dict[int, int]:
        """Each member's `sup_index` under the preorder, read off the nest's
        blocks in O(k).

        The upper bounds of a member are the points outside it, plus the
        point of its top block when that block holds one point alone; that
        point, then, is below the rest and is the sup.  Otherwise the sup is
        the least point outside the member: the point of the next block,
        when it holds one.  The next block is empty only above X (no upper
        bound), and a block of two or more points has no least one.
        """
        nest = self.nest
        blocks, sups = nest.blocks, {}
        for i, m in enumerate(nest.masks):
            top = blocks[i]
            if not top or top & (top - 1):
                # no greatest point inside: the least one outside, if any
                top = blocks[i + 1]
            if not top:
                sups[m] = NO_BOUND
            elif top & (top - 1):
                sups[m] = NO_LEAST
            else:
                sups[m] = top.bit_length() - 1
        return sups

    @lazy
    def sups(self) -> dict[int, SupResult]:
        return {m: _result(s) for m, s in self.sup_indices.items()}

    @lazy
    def sup_conditions(self) -> SupConditions:
        """The ladder read off the blocks in one walk, as `sup_indices` reads
        each sup, stopping at the first member without one.  A member's sup
        lies inside it exactly when its top block is one point alone, so
        escape fails there; ``_ladder`` of `sup_indices` is its oracle in
        sup-conditions (``ladder:block-form``)."""
        blocks = self.nest.blocks
        escape, reached = True, 0
        # each member's top block and the next one
        for top, above in zip(blocks, blocks[1:]):
            if top and not top & (top - 1):
                escape = False
                reached |= top
            elif above and not above & (above - 1):
                reached |= above
            else:
                return NO_SUPS
        if not escape:
            return SUPS_EXIST
        return SUPS_ONTO if reached == self.nest.universe.full_mask else SUPS_ESCAPE

    @lazy
    def t0(self) -> bool:
        """Whether the nest T0-separates the universe: two points are split
        by no member exactly when they share a block, so T0 holds iff every
        block has at most one point, that is iff n of the blocks, which
        partition the n points, are nonempty."""
        blocks = self.nest.blocks
        return len(blocks) - blocks.count(0) == self.nest.universe.size

    @lazy
    def up_reach(self) -> int:
        """Strict upward reach of every region under the order: the reach
        table, packed in the layout of the universe (`Regions.reach_table`)."""
        return self.nest.universe.regions.reach_table(self.order_rows)

    @lazy
    def down_reach(self) -> int:
        """Strict downward reach of every region under the order: the
        packed reach table of the columns."""
        return self.nest.universe.regions.reach_table(columns(self.order_rows))

    # The Alexandroff family of the order, packed (`Regions` layout): {∅},
    # field 0 alone, on every `Nest`, whose type validates the chain.  The
    # order is a strict weak order, so a nonempty region's minimal points
    # miss its strict upward reach.
    alexandroff = 1


def member_sups(nest: Nest | NestContext) -> dict[int, SupResult]:
    return NestContext.of(nest).sups


def sup_conditions(nest: Nest | NestContext) -> SupConditions:
    return NestContext.of(nest).sup_conditions


class DualPair:
    """Two nests whose generated orders are mutual transposes, held as their
    contexts.

    Each side is a nest or its context (`NestContext.of`); a pair built from
    contexts reads the order rows they hold and derives none.  Both sides
    must be nests with mutually transposed orders; nothing here demands that
    either separates the universe.  A side held as a `Nest` is a chain by
    its type, so only a side of another family is checked for one.
    """

    def __init__(self, left: Nest | NestContext, right: Nest | NestContext) -> None:
        self.left, self.right = NestContext.of(left), NestContext.of(right)
        for side, ctx in (("left", self.left), ("right", self.right)):
            if not isinstance(ctx.nest, Nest) and not is_chain(ctx.nest.masks):
                raise InstanceError(f"the {side} side of a dual pair is not a nest")
        u = self.left.nest.universe
        _check_same_universe(u, self.right.nest.universe)
        rows, rows_right = self.left.order_rows, self.right.order_rows
        if rows_right != columns(rows):
            witness = next(
                (x, y)
                for x in u.elements()
                for y in u.elements()
                if (rows[x] >> y ^ rows_right[y] >> x) & 1
            )
            raise InstanceError(
                f"nests are not dual: orders disagree at pair {witness}"
            )


def complement_dual(nest: Nest | NestContext) -> DualPair:
    """Pair a nest with its complement nest, which is always its dual; from a
    context, the pair holds that context and its ``dual``."""
    ctx = NestContext.of(nest)
    return DualPair(ctx, ctx.dual)


def dual_sup_conditions(pair: DualPair) -> SupConditions:
    """The sup-condition ladder for the right nest of a dual pair: the right
    context's own ladder, read off its blocks.

    The right order is the transpose of the left one, so these are also the
    infima under the left nest's order.  That inf route (`sup_index` on the
    left preorder's columns) is the oracle of every member's sup in the
    sup-conditions sweep (`dual:inf-route`), on every complement pair and
    every pair of its all-dual-pairs loop.
    """
    return pair.right.sup_conditions


def is_interlocking(family: SetFamily) -> bool:
    """Definition route, on an arbitrary family.

    Whenever a member equals the intersection of its strict supersets in the
    family (empty intersection = X), it must also equal the union of its
    strict subsets (empty union = empty set).
    """
    return all(
        member_union_of_smaller(family, t) == t
        for t in family.masks
        if member_closed_by_intersections(family, t)
    )


def is_interlocking_via_alexandroff(nest: Nest | NestContext) -> bool:
    """Alexandroff route: members closed for the nest's order must have their
    complements closed for the complement nest's order.

    On a finite nest the strict fixed-point family is {∅} on both sides, so
    the route reads the constant `NestContext.alexandroff` and reduces to "X
    is not a member"; topology-engine checks that constant against the
    reach-table fixed points on every nest it sweeps.  The constants are read
    at the layout's field width, which takes no `Universe.regions` layout:
    that holds 2^n fields of up to 2^n bits."""
    ctx = NestContext.of(nest)
    alex, alex_c = ctx.alexandroff, ctx.dual.alexandroff
    u = ctx.nest.universe
    full, width = u.full_mask, field_width(u.size)
    for m in ctx.nest.masks:
        if alex >> (m ^ full) * width & 1 and not alex_c >> m * width & 1:
            return False
    return True


def is_interlocking_via_lower_sets(nest: Nest | NestContext) -> bool:
    """Lower-set route: if a member's complement is a lower set for the
    complement nest's order, the member is a lower set for the nest's order."""
    ctx = NestContext.of(nest)
    rows, rows_c = ctx.order_rows, ctx.dual.order_rows
    full = ctx.nest.universe.full_mask
    for m in ctx.nest.masks:
        if down_mask(rows_c, m ^ full) == m ^ full and down_mask(rows, m) != m:
            return False
    return True


def member_closed_by_intersections(family: SetFamily, member_mask: int) -> bool:
    """Member closedness in the Alexandroff sense, via the member formula:
    the member equals the intersection of its strict member-supersets."""
    inter = family.universe.full_mask
    for s in family.masks:
        if s != member_mask and member_mask & ~s == 0:
            inter &= s
    return inter == member_mask


def member_union_of_smaller(family: SetFamily, member_mask: int) -> int:
    """The union of the member's strict member-subsets."""
    union = 0
    for s in family.masks:
        if s != member_mask and s & ~member_mask == 0:
            union |= s
    return union


def down_mask_by_members(regions: Regions, masks: tuple[int, ...]) -> int:
    """For every region at once, packed in the layout of ``regions``: the
    union of the members (given as masks) that do not contain the region."""
    ones, inside = regions.ones, regions.inside
    reach = 0
    for m in masks:
        reach |= (ones ^ inside[m]) * m
    return reach


def up_mask_by_complements(regions: Regions, masks: tuple[int, ...]) -> int:
    """For every region at once, packed in the layout of ``regions``: the
    union of the complements of the members (given as masks) that meet the
    region."""
    full = regions.full
    reach = 0
    for m in masks:
        reach |= regions.meets(m) * (m ^ full)
    return reach


@dataclass(frozen=True)
class MemberLowerSetReport:
    """Three views of "this member is a lower set".

    ``union_of_smaller_matches`` and ``is_lower_set`` agree on every nest;
    ``no_greatest_element`` (no point of the member lies at or above all of
    its points, under the preorder) is only promised to agree when the nest
    T0-separates the universe (the recorded two-nest counterexample shows the
    hypothesis is needed).
    """

    union_of_smaller_matches: bool
    is_lower_set: bool
    no_greatest_element: bool


def member_lower_set_report(nest: Nest | NestContext, member: Subset) -> MemberLowerSetReport:
    ctx = NestContext.of(nest)
    nest, mask = ctx.nest, member.mask
    _check_same_universe(nest.universe, member.universe)
    if mask not in nest.masks:
        raise InstanceError("subset is not a member of the nest")
    union_matches = member_union_of_smaller(nest, mask) == mask
    lower = down_mask(ctx.order_rows, mask) == mask
    # a greatest point's column (its down-set) holds the whole member
    below = ctx.preorder_columns
    greatest = any(
        mask & ~below[g] == 0 for g in nest.universe.elements() if mask >> g & 1
    )
    return MemberLowerSetReport(union_matches, lower, not greatest)


def member_lower_set_views(ctx: NestContext) -> tuple[int, int, int]:
    """The three views of `member_lower_set_report` for every member of the
    context's nest at once, as member indicators, bit i for the i-th member
    in the nest's order: ``(union_of_smaller_matches, is_lower_set,
    no_greatest_element)``.

    One walk up the chain.  Each member is the one below it plus its block,
    so its strict down-reach grows by the block's columns and its upper
    bounds under the preorder shrink by the block's rows; the union of its
    smaller members is the member below it, ∅ for the first.  A greatest
    point is an upper bound inside the member.
    """
    nest = ctx.nest
    cols, rows = ctx.preorder_columns, ctx.preorder_rows
    below = down = matches = lower = greatest = 0
    bounds = nest.universe.full_mask
    for i, (mask, block) in enumerate(zip(nest.masks, nest.blocks)):
        while block:
            low = block & -block
            y = low.bit_length() - 1
            # the preorder's column of y holds y itself; the strict one not
            down |= cols[y] ^ low
            bounds &= rows[y]
            block ^= low
        if below == mask:
            matches |= 1 << i
        if down == mask:
            lower |= 1 << i
        if bounds & mask:
            greatest |= 1 << i
        below = mask
    return matches, lower, greatest ^ ((1 << len(nest.masks)) - 1)


def open_ray_topology(rel_strict: Relation) -> Topology:
    """Topology generated by the strict down-rays and up-rays of all points."""
    rows = rel_strict.rows
    # the down-ray of x is its column, the up-ray its row
    return topology_from_subbase(SetFamily.dedupe(rel_strict.universe, rows + columns(rows)))


@dataclass(frozen=True)
class LotsReport:
    """Hypotheses and conclusion of the linear-orderability checks on a pair.

    ``is_lots`` pins down "the universe is a linearly ordered topological
    space" concretely: the left order is linear and the topology generated by
    both nests equals the open-ray topology of that order.  On finite linear
    orders the latter is the discrete topology.
    """

    sup_onto_pair: bool
    t0_escape_pair: bool
    order_linear: bool
    ray_topology_matches: bool

    @property
    def is_lots(self) -> bool:
        return self.order_linear and self.ray_topology_matches


def lots_hypotheses(pair: DualPair) -> tuple[bool, bool]:
    """The orderability hypotheses of a dual pair, ``(sup_onto_pair,
    t0_escape_pair)``, from the ladders and T0 its two contexts hold.

    The one source of the hypotheses for `lots_report` and for every caller
    that tests them before asking for the conclusion.
    """
    left, right = pair.left, pair.right
    cond, cond_dual = left.sup_conditions, right.sup_conditions
    sup_onto_pair = cond.sups_onto and cond_dual.sups_onto
    t0_escape_pair = cond.sups_escape and cond_dual.sups_escape and left.t0 and right.t0
    return sup_onto_pair, t0_escape_pair


def lots_report(pair: DualPair) -> LotsReport:
    sup_onto_pair, t0_escape_pair = lots_hypotheses(pair)
    left, right = pair.left, pair.right
    u = left.nest.universe
    both = topology_from_subbase(SetFamily.dedupe(u, left.nest.masks + right.nest.masks))
    return LotsReport(
        sup_onto_pair=sup_onto_pair,
        t0_escape_pair=t0_escape_pair,
        order_linear=linear_rows(left.order_rows, left.preorder_columns, u.full_mask),
        ray_topology_matches=both == open_ray_topology(Relation(u, left.order_rows)),
    )
