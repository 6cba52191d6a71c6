"""Finite topology engine: subbase generation, order topologies, products.

Topologies are stored as the explicit family of open masks.  That is only
viable because the verification universes stay tiny (|X| <= 6 or so), and it
makes every comparison in the suites an exact set comparison.  A finite
topology is fixed by each point's minimal open neighbourhood, so validation
and the continuity of group multiplication read those
(`Topology.neighbourhoods`) rather than pairs of opens.

Validation happens at the boundary: the public `Topology` constructor (and
so the ``topology`` document loader) checks its opens.  What the engine
closes itself, `topology_from_subbase` and every order, join, product and
group topology built on it, is a topology by construction and is built by
`Topology._closed` without a second check.  The oracle of that shortcut is
the topology-engine suite, which re-validates its random closures through
the constructor (``subbase:closure-is-topology``), and a test that compares
closures with the constructor and the reference closure.  Likewise the
subbases of the order topologies and of `join`, and the fixed-point family
of `alexandroff_family`, come from masks of relations and topologies already
checked, so they are built by `SetFamily._drawn`.  Rosters render
from the opens' masks (`core.Universe.render_masks`).

Convention notes, since the source material uses both:

* point-level up/down sets (``point_up_set``/``point_down_set``) expect the
  reflexive order chosen by the caller, matching how the worked examples
  compute them;
* set-level up/down sets (``up_set``/``down_set``) expect the strict order,
  matching the definition "x is above A iff some y in A lies strictly below".

The region kernels take an order's rows and a region mask and validate
nothing: strict reach (``up_mask``/``down_mask``), bounds
(``upper_bounds``/``lower_bounds``), and ``reach_table``, the upward reach
of every region at once.  The public forms wrap them at the ``Relation`` and
``Subset`` boundary.

`Regions` lifts the region kernels to every region of an n-point universe
at once.  One Python integer, a *packed* value, holds one w-bit field per
region mask R, at bits ``R*w`` to ``R*w + w - 1``; w is the smallest of 8,
16, 32 and 64 above n, so a field holds any mask with one spare bit on top.
The per-size data are ``inside[m]``, the indicator with a 1 in every
field R with ``R & ~m == 0``, and ``identity``, with R in field R.  A
kernel's loop body ``if cond(R): acc |= v`` becomes ``acc |= IND * v``,
with ``IND`` an indicator of the condition: its fields are 0 or 1 and
``v < 2**n``, so no field carries into the next.
A comparison over every region is one integer equality; `Regions.nonzero`
and `Regions.masks_of` find the regions where one fails.
`Regions.reach_table` builds the reach table in this layout by the same
doubling as `reach_table`; `Regions.fixed` reads its fixed points as an
indicator, and `Regions.covers` the regions whose reach is X.  A layout
lives on its `Universe` (``Universe.regions``), so a sweep shard builds it
once per universe size.

Empty intersections close to X and empty unions to the empty set.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    InstanceError,
    SetFamily,
    Subset,
    Universe,
    _check_index,
    _check_same_universe,
    canonical_masks,
    lazy,
)
from .orders import Relation


@dataclass(frozen=True)
class Topology:
    """Family of open masks containing X and {} and closed under ∪ and ∩.

    The public constructor validates; the engine's own closures skip it
    (`_closed`).  Validation runs through the minimal neighbourhoods N(x),
    the meet of the opens containing x (`neighbourhoods`), in O(k·n) for k
    opens on n points.  Every open is the union of its points' N(x), so the
    family lies inside the ∪-closure of the N(x); once every N(x) is an
    open, that closure is closed under ∩ as well (a point of two unions has
    its N(x) inside both).  The family is therefore a topology exactly when
    every N(x) is an open and the closure is no larger than the family.
    """

    universe: Universe
    opens: tuple[int, ...]

    def __post_init__(self) -> None:
        opens = canonical_masks(self.opens)
        object.__setattr__(self, "opens", opens)
        members = set(opens)
        if len(members) != len(opens):
            raise InstanceError("open families must be duplicate-free")
        full = self.universe.full_mask
        if 0 not in members or full not in members:
            raise InstanceError("a topology contains the empty set and the universe")
        if min(opens) < 0 or max(opens) > full:
            bad = next(m for m in opens if not 0 <= m <= full)
            raise InstanceError(f"open mask {bad:#x} does not fit the universe")
        closure = {0}
        for hood in self.neighbourhoods:
            if hood not in members:
                raise InstanceError("open family is not closed under ∩/∪")
            if hood not in closure:
                closure |= {c | hood for c in closure}
                if len(closure) > len(opens):
                    raise InstanceError("open family is not closed under ∩/∪")

    @classmethod
    def _closed(cls, universe: Universe, opens: Iterable[int]) -> Topology:
        """A topology the engine closed itself, without `__post_init__`:
        the caller guarantees the opens are distinct masks of the universe
        holding {} and X and closed under ∩ and ∪, so no check of the
        validation could fire; they are only put in canonical order."""
        topology = object.__new__(cls)
        # the frozen fields, set as `object.__setattr__` would set them
        fields = topology.__dict__
        fields["universe"], fields["opens"] = universe, canonical_masks(opens)
        return topology

    @lazy
    def _open_set(self) -> frozenset[int]:
        return frozenset(self.opens)

    @lazy
    def neighbourhoods(self) -> tuple[int, ...]:
        """Minimal open neighbourhood of every point: ``neighbourhoods[x]``
        is the meet of the opens that contain x."""
        hoods = [self.universe.full_mask] * self.universe.size
        for o in self.opens:
            m = o
            while m:
                low = m & -m
                hoods[low.bit_length() - 1] &= o
                m ^= low
        return tuple(hoods)

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    def is_discrete(self) -> bool:
        return len(self.opens) == 1 << self.universe.size

    def render(self) -> str:
        """The opens in canonical order, ``{{}, {a}, …}``, read straight off
        ``opens`` by `Universe.render_masks`."""
        return self.universe.render_masks(self.opens)


def topology_from_subbase(family: SetFamily) -> Topology:
    """Smallest topology containing the family.

    Closes under finite intersections first (the empty intersection giving X),
    then under unions (the empty union giving the empty set), one generator
    at a time: after a generator b, the set holds every union of the
    generators so far.  The result is a topology by construction (every
    union of an ∩-closed base holding X), so it is built by
    `Topology._closed` and not validated again.
    """
    universe = family.universe
    base = {universe.full_mask}
    for s in family.masks:
        base |= {b & s for b in base}
    opens = {0}
    for b in base:
        if b not in opens:
            opens |= {o | b for o in opens}
    return Topology._closed(universe, opens)


def point_up_set(rel: Relation, x: int) -> Subset:
    """All y with x rel y; pass the reflexive order for the usual up-set of x."""
    _check_index(x, rel.universe.size)
    return Subset(rel.universe, rel.rows[x])


def point_down_set(rel: Relation, x: int) -> Subset:
    """All y with y rel x; pass the reflexive order for the usual down-set of x."""
    _check_index(x, rel.universe.size)
    return Subset(rel.universe, down_mask(rel.rows, 1 << x))


def up_mask(rows: Sequence[int], region: int) -> int:
    """Strict upward reach of a region mask: the union of the rows of its
    elements, visiting set bits only."""
    reach = 0
    while region:
        low = region & -region
        reach |= rows[low.bit_length() - 1]
        region ^= low
    return reach


def down_mask(rows: Sequence[int], region: int) -> int:
    """Strict downward reach of a region mask: every x whose row meets it."""
    reach = 0
    bit = 1
    for row in rows:
        if row & region:
            reach |= bit
        bit <<= 1
    return reach


def up_set(rel: Relation, region: Subset) -> Subset:
    """Strict upward reach: all x such that some y in the region has y rel x."""
    _check_same_universe(rel.universe, region.universe)
    return Subset(rel.universe, up_mask(rel.rows, region.mask))


def down_set(rel: Relation, region: Subset) -> Subset:
    """Strict downward reach: all x such that some y in the region has x rel y."""
    _check_same_universe(rel.universe, region.universe)
    return Subset(rel.universe, down_mask(rel.rows, region.mask))


def upper_bounds(rows: Sequence[int], full: int, region: int) -> int:
    """The points x with y rel x for every y in the region mask: the
    intersection of the rows of the region's elements (``full`` for the
    empty region).  Strict or reflexive rows give the strict or the
    reflexive bounds."""
    bounds = full
    while region:
        low = region & -region
        bounds &= rows[low.bit_length() - 1]
        region ^= low
    return bounds


def lower_bounds(rows: Sequence[int], region: int) -> int:
    """The points x with x rel y for every y in the region mask: those whose
    row contains the region."""
    bounds = 0
    bit = 1
    for row in rows:
        if row & region == region:
            bounds |= bit
        bit <<= 1
    return bounds


def reach_table(rows: Sequence[int]) -> tuple[int, ...]:
    """Strict upward reach of every region under the relation with the given
    rows, indexed by region mask; validates nothing.

    ``table[m] == up_mask(rows, m)`` for every mask.  Reach distributes over
    unions, so a region whose highest element is x reaches what the region
    without x reaches plus ``rows[x]``: one pass that doubles the table per
    element, with integer operations only.  Downward reach is the table of
    the columns.
    """
    table = [0]
    for row in rows:
        table += [reach | row for reach in table]
    return tuple(table)


def field_width(size: int) -> int:
    """The field width of the packed region layout on ``size`` points: the
    least of 8, 16, 32, ... above ``size``, so that every mask of the
    universe fits a field with the field's top bit clear."""
    return max(8, 1 << size.bit_length())


class Regions:
    """The packed layout of every region of an n-point universe, with the
    region kernels lifted to it.

    Every table and row given to it holds masks of the universe: each entry
    lies in ``[0, 2**n)``.  Each lifted kernel evaluates the definition of
    its region-at-a-time form, field by field.
    """

    def __init__(self, size: int) -> None:
        width = field_width(size)
        if width > 64:
            raise ValueError(f"no packed field width holds masks of {size} points")
        self.size, self.width = size, width
        self.full = full = (1 << size) - 1
        self._code = next(c for c in "BHILQ" if array(c).itemsize * 8 == width)
        inside = [1]
        for b in range(size):
            inside += [s | s << (width << b) for s in inside]
        self.inside = tuple(inside)
        # one 1 in every field, and the value that pushes a nonzero field's
        # top bit up
        self.ones = ones = inside[full]
        self._top_minus_one = ones * ((1 << width - 1) - 1)
        # field R holds R
        self.identity = self.pack(range(full + 1))

    def fill(self, value: int) -> int:
        """``value`` in every field."""
        return self.ones * value

    def pack(self, table: Sequence[int]) -> int:
        """Field R holds ``table[R]``, for a table with one entry per region."""
        fields = array(self._code, table)
        if sys.byteorder == "big":
            fields.byteswap()
        return int.from_bytes(fields.tobytes(), "little")

    def unpack(self, packed: int) -> tuple[int, ...]:
        """The table `pack` packs: entry R is field R."""
        fields = array(self._code, packed.to_bytes(self.width << self.size >> 3, "little"))
        if sys.byteorder == "big":
            fields.byteswap()
        return tuple(fields)

    def nonzero(self, packed: int) -> int:
        """The indicator of the nonzero fields.  Each field is below
        ``2**(w-1)``, so adding ``2**(w-1) - 1`` sets its top bit exactly
        when it is nonzero, and carries into no other field."""
        return ((packed + self._top_minus_one) >> self.width - 1) & self.ones

    def fixed(self, packed: int) -> int:
        """The indicator of the regions a packed table maps to themselves:
        `fixed_masks` of every region at once."""
        return self.ones ^ self.nonzero(packed ^ self.identity)

    def covers(self, packed: int) -> int:
        """The indicator of the fields that hold ``full``: adding 1 to a
        field, at most ``full``, sets its bit n just then."""
        return (packed + self.ones) >> self.size & self.ones

    def masks_of(self, indicator: int) -> list[int]:
        """The region masks whose field of the indicator is set, ascending."""
        shift = self.width.bit_length() - 1
        out = []
        while indicator:
            low = indicator & -indicator
            out.append(low.bit_length() - 1 >> shift)
            indicator ^= low
        return out

    def meets(self, mask: int) -> int:
        """The indicator of the regions that meet the mask: those not inside
        its complement."""
        return self.ones ^ self.inside[self.full & ~mask]

    def reach_table(self, rows: Sequence[int]) -> int:
        """`reach_table` in the packed layout, by the same doubling: once
        the fields below 2**x hold their reach, field R | 2**x of them
        holds field R's reach plus ``rows[x]``.  One shifted copy per
        element, where `up_mask` is the brute-force form."""
        inside, width = self.inside, self.width
        packed = 0
        for x, row in enumerate(rows):
            packed |= (packed | inside[(1 << x) - 1] * row) << (width << x)
        return packed

    def up_mask(self, rows: Sequence[int]) -> int:
        """`up_mask` of every region: the rows of the points it holds."""
        reach = 0
        for y, row in enumerate(rows):
            reach |= self.meets(1 << y) * row
        return reach

    def down_mask(self, rows: Sequence[int]) -> int:
        """`down_mask` of every region: each x whose row meets it."""
        reach = 0
        for x, row in enumerate(rows):
            reach |= self.meets(row) << x
        return reach

    def upper_bounds(self, rows: Sequence[int]) -> int:
        """`upper_bounds` of every region: ``full`` less the points missing
        from the row of a point it holds."""
        full = self.full
        missed = 0
        for y, row in enumerate(rows):
            missed |= self.meets(1 << y) * (full ^ row)
        return self.fill(full) ^ missed

    def lower_bounds(self, rows: Sequence[int]) -> int:
        """`lower_bounds` of every region: each x whose row contains it."""
        full = self.full
        bounds = 0
        for x, row in enumerate(rows):
            bounds |= self.inside[row & full] << x
        return bounds


def fixed_masks(table: Sequence[int]) -> tuple[int, ...]:
    """The masks a reach table maps to themselves, in mask order."""
    return tuple(mask for mask, reach in enumerate(table) if reach == mask)


def _ray_topology(rel: Relation, rays: Sequence[int]) -> Topology:
    """Topology generated by the complements of the given ray masks."""
    u = rel.universe
    full = u.full_mask
    return topology_from_subbase(SetFamily._drawn(u, canonical_masks({ray ^ full for ray in rays})))


def lower_topology(rel_reflexive: Relation) -> Topology:
    """Generated by the subbase {X - up(x)}: the complements of the rows;
    expects the reflexive order."""
    return _ray_topology(rel_reflexive, rel_reflexive.rows)


def upper_topology(rel_reflexive: Relation) -> Topology:
    """Generated by the subbase {X - down(x)}: the complements of the
    columns; expects the reflexive order."""
    return _ray_topology(rel_reflexive, rel_reflexive.columns)


def join(t1: Topology, t2: Topology) -> Topology:
    """Coarsest topology refining both (their supremum in the topology lattice)."""
    _check_same_universe(t1.universe, t2.universe)
    opens = canonical_masks({*t1.opens, *t2.opens})
    return topology_from_subbase(SetFamily._drawn(t1.universe, opens))


def interval_topology(rel_reflexive: Relation) -> Topology:
    """The join of the upper and lower topologies, generated by the union of
    their subbases."""
    return _ray_topology(rel_reflexive, rel_reflexive.rows + rel_reflexive.columns)


def alexandroff_family(rel_strict: Relation) -> SetFamily:
    """All subsets equal to their strict upward reach.

    This is the fixed-point family of `up_set` under the strict order, read
    off `reach_table`.  It is closed under unions and intersections but
    need not contain X, so it is returned as a family, not a Topology.
    """
    fixed = canonical_masks(fixed_masks(reach_table(rel_strict.rows)))
    return SetFamily._drawn(rel_strict.universe, fixed)


def product_universe(u1: Universe, u2: Universe) -> Universe:
    labels = tuple(
        f"({u1.label(x)},{u2.label(y)})"
        for x in u1.elements()
        for y in u2.elements()
    )
    return Universe(u1.size * u2.size, labels)


def pair_index(u1: Universe, u2: Universe, x: int, y: int) -> int:
    return x * u2.size + y


def rectangle_mask(a: int, b: int, width: int) -> int:
    """Pair mask of the rectangle A x B in the bit layout of `pair_index`,
    for a second factor of ``width`` points: one shifted copy of B for each
    x in A."""
    mask = 0
    while a:
        low = a & -a
        mask |= b << (low.bit_length() - 1) * width
        a ^= low
    return mask


def product_topology(t1: Topology, t2: Topology) -> Topology:
    """Topology generated by the rectangle subbase {U x V : U, V open}."""
    u = product_universe(t1.universe, t2.universe)
    width = t2.universe.size
    rects = {rectangle_mask(a, b, width) for a in t1.opens for b in t2.opens}
    return topology_from_subbase(SetFamily(u, tuple(rects)))


def is_continuous(mapping: Sequence[int], tdom: Topology, tcod: Topology) -> bool:
    """Preimage of every open is open; the mapping must be total on the domain."""
    n = tdom.universe.size
    if len(mapping) != n:
        raise ValueError(f"mapping must assign all {n} domain elements")
    if any(not 0 <= v < tcod.universe.size for v in mapping):
        raise ValueError("mapping hits elements outside the codomain universe")
    # the preimage of an open is every x whose image bit meets it
    images = [1 << v for v in mapping]
    return all(tdom.is_open(down_mask(images, o)) for o in tcod.opens)
