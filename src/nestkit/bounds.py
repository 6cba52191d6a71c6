"""Cover-style characterizations of full downward/upward reach, and
existence of strict bounds for subsets, all relative to a nest's order.

``down_reach_covers`` decides whether every point lies strictly below the
target region; when it holds, the members not containing the region form a
cover of the universe with no single member swallowing the region, and that
cover is returned as the constructive witness.  ``up_reach_covers`` is the
mirror image, witnessed by the members meeting the region, whose
intersection must then be empty.

Each predicate takes a nest or its `NestContext` and answers for one region.
Under them sit mask-in/mask-out kernels on an order's rows: a reach cover
holds when the region's strict reach (``down_mask``/``up_mask``) is the
full mask, and ``upper_bounds``/``lower_bounds`` give the bound masks of a
region.  Sweeps call these on plain masks, or read a nest's reach tables
over every region, and build a `Subset` or `CoverWitness` only for a
verdict or payload they read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .analysis import NestContext
from .core import Nest, SetFamily, Subset, _check_same_universe
from .topology import down_mask, up_mask


@dataclass(frozen=True)
class CoverWitness:
    holds: bool
    witness_family: SetFamily | None
    violating_member: Subset | None

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness_family": (
                None
                if self.witness_family is None
                else [list(Subset(self.witness_family.universe, m).indices)
                      for m in self.witness_family.masks]
            ),
            "violating_member": (
                None if self.violating_member is None
                else list(self.violating_member.indices)
            ),
        }


def _reach_cover(
    nest: Nest | NestContext, region: Subset, upward: bool, want_witness: bool
) -> CoverWitness:
    """The cover verdict for the region's strict reach, read from the
    `up_mask`/`down_mask` kernel on the nest's order rows.

    The witness is the members not containing the region (downward) or the
    members meeting it (upward); the violating set is what the reach misses.
    """
    ctx = NestContext.of(nest)
    nest = ctx.nest
    _check_same_universe(nest.universe, region.universe)
    reach = (up_mask if upward else down_mask)(ctx.order_rows, region.mask)
    full = nest.universe.full_mask
    if reach != full:
        return CoverWitness(False, None, Subset(nest.universe, full ^ reach))
    witness = None
    if want_witness:
        r = region.mask
        witness = Nest(
            nest.universe,
            tuple(m for m in nest.masks if (r & m if upward else r & ~m)),
        )
    return CoverWitness(True, witness, None)


def down_reach_covers(
    nest: Nest | NestContext, region: Subset, want_witness: bool = True
) -> CoverWitness:
    """Does the strict downward reach of the region cover the universe?"""
    return _reach_cover(nest, region, False, want_witness)


def up_reach_covers(
    nest: Nest | NestContext, region: Subset, want_witness: bool = True
) -> CoverWitness:
    """Does the strict upward reach of the region cover the universe?"""
    return _reach_cover(nest, region, True, want_witness)


def has_upper_bound(nest: Nest | NestContext, region: Subset, strict: bool = True) -> bool:
    """Is there an x with y < x (or y <= x) for every y in the region?

    The strict form is the primary predicate; a strict bound automatically
    lies outside the region.  The reflexive form is the one that matches the
    downward-reach dichotomy on T0-separating nests (see the bound-covers
    suite for the divergence witnesses of the strict form).
    """
    ctx = NestContext.of(nest)
    _check_same_universe(ctx.nest.universe, region.universe)
    rows = ctx.order_rows if strict else ctx.preorder_rows
    return upper_bounds(rows, ctx.nest.universe.full_mask, region.mask) != 0


def has_lower_bound(nest: Nest | NestContext, region: Subset, strict: bool = True) -> bool:
    """Mirror of `has_upper_bound`: some x below every element of the region."""
    ctx = NestContext.of(nest)
    _check_same_universe(ctx.nest.universe, region.universe)
    return lower_bounds(ctx.order_rows if strict else ctx.preorder_rows, region.mask) != 0


def upper_bounds(rows: Sequence[int], full: int, region: int) -> int:
    """The points x with y rel x for every y in the region mask, where
    ``rows`` are the relation's rows: the intersection of the rows of the
    region's elements (``full`` for the empty region).  Strict or reflexive
    rows give the strict or the reflexive bounds."""
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


def covering_subfamilies(nest: Nest) -> list[tuple[int, ...]]:
    """All subfamilies whose union is the whole universe (exhaustive helper
    for the cover characterizations; exponential in the nest size).

    Subfamily ``pick`` holds member i when bit i of ``pick`` is set; the
    unions of all picks are tabulated by doubling, one member at a time."""
    members = nest.masks
    unions = [0]
    for m in members:
        unions += [union | m for union in unions]
    full = nest.universe.full_mask
    return [
        tuple(m for i, m in enumerate(members) if pick >> i & 1)
        for pick, union in enumerate(unions)
        if union == full
    ]
