"""Orders generated by set families, and the relational algebra around them.

A family generates the strict relation  x < y  iff some member contains x
but not y.  Relations are stored as one successor bitmask per element, which
keeps the exhaustive sweeps fast at desk scale (|X| <= 64).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Literal

from .core import SetFamily, Universe, _check_same_universe

TransitivityMode = Literal["standard", "distinct_triples"]


@dataclass(frozen=True)
class Relation:
    """Binary relation on a universe; ``rows[x]`` is the successor mask of x."""

    universe: Universe
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.universe.size:
            raise ValueError("relation needs one row per element")
        # for ints, 0 <= row <= full says exactly that row & ~full == 0
        if min(self.rows) < 0 or max(self.rows) > self.universe.full_mask:
            raise ValueError("relation row mentions out-of-range elements")

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> Relation:
        rows = [0] * universe.size
        for x, y in pairs:
            rows[x] |= 1 << y
        return cls(universe, tuple(rows))

    @classmethod
    def empty(cls, universe: Universe) -> Relation:
        return cls(universe, (0,) * universe.size)

    @classmethod
    def diagonal(cls, universe: Universe) -> Relation:
        return cls(universe, tuple(1 << x for x in universe.elements()))

    def holds(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for x in self.universe.elements():
            row = self.rows[x]
            for y in self.universe.elements():
                if row >> y & 1:
                    out.append((x, y))
        return tuple(out)

    def union(self, other: Relation) -> Relation:
        _check_same_universe(self.universe, other.universe)
        return Relation(self.universe, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def is_reflexive(self) -> bool:
        return all(row >> x & 1 for x, row in enumerate(self.rows))

    def is_irreflexive(self) -> bool:
        return not any(row >> x & 1 for x, row in enumerate(self.rows))

    def is_antisymmetric(self) -> bool:
        # row x meets column x (the predecessors of x) at most in x itself
        return all(
            not row & col & ~(1 << x)
            for x, (row, col) in enumerate(zip(self.rows, _columns(self.rows)))
        )

    def is_asymmetric(self) -> bool:
        return self.is_irreflexive() and self.is_antisymmetric()

    def is_total(self) -> bool:
        full = self.universe.full_mask
        return all(row | col == full for row, col in zip(self.rows, _columns(self.rows)))

    def render(self) -> str:
        names = self.universe.label
        return "{" + ", ".join(f"({names(x)},{names(y)})" for x, y in self.pairs()) + "}"


def generated_order(family: SetFamily) -> Relation:
    """Strict order generated by the family: x < y iff some member splits them."""
    full = family.universe.full_mask
    rows = [0] * family.universe.size
    for member in family.masks:
        outside = member ^ full
        inside = member
        while inside:
            low = inside & -inside
            rows[low.bit_length() - 1] |= outside
            inside ^= low
    return Relation(family.universe, tuple(rows))


def rectangle(universe: Universe, member_mask: int) -> Relation:
    """The relation S x (X-S) for a single member S."""
    outside = member_mask ^ universe.full_mask
    rows = tuple(outside if member_mask >> x & 1 else 0 for x in universe.elements())
    return Relation(universe, rows)


def generated_order_via_rectangles(family: SetFamily) -> Relation:
    """Same order as `generated_order`, built as a union of member rectangles."""
    rows = [0] * family.universe.size
    for member in family.masks:
        for x, row in enumerate(rectangle(family.universe, member).rows):
            rows[x] |= row
    return Relation(family.universe, tuple(rows))


def compose(a: Relation, b: Relation) -> Relation:
    """Relational composition: (x,y) in a∘b iff x -b-> z -a-> y for some z."""
    _check_same_universe(a.universe, b.universe)
    rows = []
    for mids in b.rows:
        row = 0
        while mids:
            low = mids & -mids
            row |= a.rows[low.bit_length() - 1]
            mids ^= low
        rows.append(row)
    return Relation(a.universe, tuple(rows))


def relation_issubset(a: Relation, b: Relation) -> bool:
    _check_same_universe(a.universe, b.universe)
    return all(ra & ~rb == 0 for ra, rb in zip(a.rows, b.rows))


def absorbs_rectangle_compositions(family: SetFamily) -> bool:
    """For every ordered member pair (S,T), some member's rectangle contains
    [S x (X-S)] ∘ [T x (X-T)]."""
    u = family.universe
    rects = {m: rectangle(u, m) for m in family.masks}
    for s in family.masks:
        for t in family.masks:
            composed = compose(rects[s], rects[t])
            if not any(relation_issubset(composed, rects[r]) for r in family.masks):
                return False
    return True


def is_transitive(rel: Relation, mode: TransitivityMode = "standard") -> bool:
    """Transitivity over all triples, or only over pairwise-distinct ones.

    The two modes genuinely differ: {(a,b),(b,a)} is transitive over distinct
    triples (there are none) but not in the standard sense, since a<b<a fails
    to force a<a.
    """
    if mode not in ("standard", "distinct_triples"):
        raise ValueError(f"unknown transitivity mode {mode!r}")
    # every successor's successors are successors; over distinct triples x
    # itself is exempt (y is already in succ, and y = x tests row x on itself)
    distinct = mode == "distinct_triples"
    rows = rel.rows
    for x, succ in enumerate(rows):
        allowed = succ | 1 << x if distinct else succ
        mids = succ
        while mids:
            low = mids & -mids
            if rows[low.bit_length() - 1] & ~allowed:
                return False
            mids ^= low
    return True


def t0_separates(family: SetFamily) -> bool:
    """Every distinct pair is split by some member, one way or the other."""
    for x in family.universe.elements():
        for y in range(x + 1, family.universe.size):
            if not any((m >> x ^ m >> y) & 1 for m in family.masks):
                return False
    return True


def t1_separates(family: SetFamily) -> bool:
    """Every distinct pair is split both ways."""
    order = generated_order(family)
    return all(
        order.holds(x, y) and order.holds(y, x)
        for x in family.universe.elements()
        for y in range(x + 1, family.universe.size)
    )


def t0_separates_via_rectangles(family: SetFamily) -> bool:
    """Rectangle form of T0: the off-diagonal is covered by the members'
    rectangles and their transposes."""
    order = generated_order(family)
    full = family.universe.full_mask
    # row x of the order and of its transpose cover every y other than x
    return all(
        row | col | 1 << x == full
        for x, (row, col) in enumerate(zip(order.rows, transpose(order).rows))
    )


def pairwise_union(f1: SetFamily, f2: SetFamily) -> SetFamily:
    """All unions S1 ∪ S2 across the two families, deduplicated.

    The generated order of the result equals the union of the two generated
    orders provided both families contain the empty set; otherwise a warning
    is issued and the result is still returned.
    """
    _check_same_universe(f1.universe, f2.universe)
    if 0 not in f1.masks or 0 not in f2.masks:
        warnings.warn(
            "pairwise_union: order-union identity needs the empty set in both "
            "families",
            stacklevel=2,
        )
    return SetFamily.dedupe(f1.universe, (a | b for a in f1.masks for b in f2.masks))


def orders_equivalent(f1: SetFamily, f2: SetFamily) -> bool:
    """True iff the two families generate extensionally equal orders."""
    _check_same_universe(f1.universe, f2.universe)
    return generated_order(f1) == generated_order(f2)


def reflexive_closure(rel: Relation) -> Relation:
    return rel.union(Relation.diagonal(rel.universe))


def transpose(rel: Relation) -> Relation:
    return Relation(rel.universe, _columns(rel.rows))


def _columns(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Column masks of a relation: entry y holds every x with x -> y."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def is_linear_order(rel: Relation) -> bool:
    """The reflexive closure is a total order (reflexive, antisymmetric,
    transitive, total)."""
    closure = reflexive_closure(rel)
    return (
        closure.is_antisymmetric()
        and is_transitive(closure, "standard")
        and closure.is_total()
    )


__all__ = [
    "Relation",
    "TransitivityMode",
    "absorbs_rectangle_compositions",
    "compose",
    "generated_order",
    "generated_order_via_rectangles",
    "is_linear_order",
    "is_transitive",
    "orders_equivalent",
    "pairwise_union",
    "rectangle",
    "reflexive_closure",
    "relation_issubset",
    "t0_separates",
    "t0_separates_via_rectangles",
    "t1_separates",
    "transpose",
]
