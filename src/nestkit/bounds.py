"""Cover-style characterizations of full downward/upward reach, and
existence of strict bounds for subsets, all relative to a nest's order.

``down_reach_covers`` decides whether every point lies strictly below the
target region; when it holds, the members not containing the region form a
cover of the universe with no single member swallowing the region, and that
cover is returned as the constructive witness.  ``up_reach_covers`` is the
mirror image, witnessed by the members meeting the region, whose
intersection must then be empty.

Each predicate takes a nest or its `NestContext` and answers for one region,
from the region kernels of `topology` on the nest's order rows: a reach
cover holds when the region's strict reach is the full mask.  On a finite
nest it never does (the order has maximal and minimal points; topology-engine
checks it), so the bound-covers sweep reads no reach table, and only a
test's forced order reaches the witness branch, kept for the ``bounds``
command and for carriers where a cover can hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import NestContext
from .core import Nest, SetFamily, Subset, _check_same_universe
from .topology import down_mask, lower_bounds, reach_table, up_mask, upper_bounds


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


def covering_subfamilies(nest: Nest) -> list[tuple[int, ...]]:
    """All subfamilies whose union is the universe, by brute force (exponential
    in the nest size): the oracle of bound-covers' closed-form cover count.

    Subfamily ``pick`` holds member i when bit i of ``pick`` is set; its
    union is entry ``pick`` of the reach table whose rows are the members.
    The subfamilies are built in the same order, by doubling: those with
    member i are those without it, each with member i appended."""
    members = nest.masks
    full = nest.universe.full_mask
    picks: list[tuple[int, ...]] = [()]
    for m in members:
        picks += [pick + (m,) for pick in picks]
    return [pick for pick, union in zip(picks, reach_table(members)) if union == full]
