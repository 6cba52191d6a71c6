"""Orders generated by set families, and the relational algebra around them.

A family generates the strict relation  x < y  iff some member contains x
but not y.  Relations are stored as one successor bitmask per element, which
keeps the exhaustive sweeps fast at desk scale (|X| <= 64).

Whether the members' rectangles S x (X-S) absorb their compositions (which
makes the generated order transitive) is decided on member masks alone by
`absorbs_rectangle_pairs`, through [S x (X-S)] ∘ [T x (X-T)] = T x (X-S).  The
row form `absorbs_rectangles` composes the rectangles' rows instead; it is the
body of the public `absorbs_rectangle_compositions` and the oracle that the
generated-orders suite checks the mask form against.  Row kernels that read
the columns of a relation take them as an argument, so a caller that needs
them several times computes them once.

On at most 8 points a relation also packs into one int, row x in byte x, so
the pair (x, y) is bit 8x + y (`pack_rows`, `unpack_rows`).  In that layout
the union of the members' rectangles is one multiply per member
(`packed_product`, through the byte table `SPREAD`), the transpose is three
masked swaps (`packed_transpose`), and the diagonal and the full square of
each size are the constants `DIAGONAL` and `SQUARE`.  The generated-orders
suite packs the walk of `order_rows` once and checks it against the packed
product; from its transpose it decides the rectangle form of T0 (against
`t0_masks`), irreflexivity and asymmetry, and it checks the product of the
complements against the transpose.  `analysis.NestContext` reads a nest's
order as the packed product, and its preorder's columns as the packed
transpose, on at most 8 points.  The row kernels
(`order_rows_via_rectangles`, `columns`, `rectangle_t0_rows`, ...) stay the
forms for any size and are the packed kernels' oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .core import SetFamily, Universe, _check_same_universe, indices_of, lazy

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

    @lazy
    def columns(self) -> tuple[int, ...]:
        """`columns` of the rows, derived once per relation."""
        return columns(self.rows)

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> Relation:
        rows = [0] * universe.size
        for x, y in pairs:
            rows[x] |= 1 << y
        return cls(universe, tuple(rows))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for x in self.universe.elements():
            row = self.rows[x]
            for y in self.universe.elements():
                if row >> y & 1:
                    out.append((x, y))
        return tuple(out)

    def render(self) -> str:
        """The pairs ``{(a,b), …}`` in the order of `pairs`, or ``{}``; each
        row is read by its set bits only, as `Universe.render_mask` reads a
        mask."""
        names = self.universe.names
        return "{" + ", ".join([
            f"({names[x]},{names[y]})" for x, row in enumerate(self.rows) for y in indices_of(row)
        ]) + "}"


# ------------------------------------------------------------- row kernels --
# Mask-in/mask-out forms of the order algebra.  ``masks`` are member masks,
# ``rows`` one successor mask per element, ``full`` the universe's full mask.
# They validate nothing: the public forms below check their arguments once and
# wrap them, and the sweeps call them on masks they built themselves.


def order_rows(masks: Iterable[int], size: int, full: int) -> tuple[int, ...]:
    """Rows of the generated order: every point of a member reaches the
    member's outside."""
    rows = [0] * size
    for member in masks:
        outside = member ^ full
        inside = member
        while inside:
            low = inside & -inside
            rows[low.bit_length() - 1] |= outside
            inside ^= low
    return tuple(rows)


def rectangle_rows(member: int, size: int, full: int) -> tuple[int, ...]:
    """Rows of the rectangle S x (X-S) of the member S."""
    outside = member ^ full
    return tuple(outside if member >> x & 1 else 0 for x in range(size))


def order_rows_via_rectangles(masks: Iterable[int], size: int, full: int) -> tuple[int, ...]:
    """Rows of the union of the members' rectangles; the same order as
    `order_rows`, computed apart from it."""
    rows = [0] * size
    for member in masks:
        for x, row in enumerate(rectangle_rows(member, size, full)):
            rows[x] |= row
    return tuple(rows)


def compose_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of a∘b: x reaches y iff x -b-> z -a-> y for some z."""
    out = []
    for mids in b:
        row = 0
        while mids:
            low = mids & -mids
            row |= a[low.bit_length() - 1]
            mids ^= low
        out.append(row)
    return tuple(out)


def rows_within(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Every pair of a is a pair of b."""
    return all(ra & ~rb == 0 for ra, rb in zip(a, b))


def absorbs_rectangles(masks: tuple[int, ...], size: int, full: int) -> bool:
    """For every ordered member pair (S,T), some member's rectangle contains
    the composition of the rectangles of S and T.  Row form, composed and
    compared pair by pair; the oracle for `absorbs_rectangle_pairs`."""
    rects = [rectangle_rows(m, size, full) for m in masks]
    for s in rects:
        for t in rects:
            composed = compose_rows(s, t)
            if not any(rows_within(composed, r) for r in rects):
                return False
    return True


def absorbs_rectangle_pairs(masks: tuple[int, ...], full: int) -> bool:
    """Mask form of `absorbs_rectangles`, one (S,T) pair of masks at a time.

    [S x (X-S)] ∘ [T x (X-T)] is T x (X-S) when T ≠ ∅, S ≠ X and S ⊄ T, and
    empty otherwise (it is inside any rectangle then); a nonempty T x (X-S)
    lies inside R x (X-R) iff T ⊆ R ⊆ S.
    """
    for s in masks:
        if s == full:
            continue
        for t in masks:
            if t and s & ~t:
                for r in masks:
                    if not t & ~r and not r & ~s:
                        break
                else:
                    return False
    return True


def transitive_rows(rows: tuple[int, ...], distinct: bool) -> bool:
    """Every successor's successors are successors; over distinct triples x
    itself is exempt (y is already in succ, and y = x tests row x on itself)."""
    for x, succ in enumerate(rows):
        allowed = succ | 1 << x if distinct else succ
        mids = succ
        while mids:
            low = mids & -mids
            if rows[low.bit_length() - 1] & ~allowed:
                return False
            mids ^= low
    return True


def irreflexive_rows(rows: tuple[int, ...]) -> bool:
    return not any(row >> x & 1 for x, row in enumerate(rows))


def antisymmetric_rows(rows: tuple[int, ...], cols: tuple[int, ...]) -> bool:
    # row x meets column x (the predecessors of x) at most in x itself
    return all(not row & col & ~(1 << x) for x, (row, col) in enumerate(zip(rows, cols)))


def total_rows(rows: tuple[int, ...], cols: tuple[int, ...], full: int) -> bool:
    return all(row | col == full for row, col in zip(rows, cols))


def reflexive_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of the reflexive closure: every element also reaches itself."""
    return tuple(row | 1 << x for x, row in enumerate(rows))


def linear_rows(rows: tuple[int, ...], cols: tuple[int, ...], full: int) -> bool:
    """The reflexive closure is reflexive, antisymmetric, transitive and total.
    ``cols`` are the columns of ``rows``, with or without the diagonal: the
    closure's columns add it."""
    closure, closure_cols = reflexive_rows(rows), reflexive_rows(cols)
    return (
        antisymmetric_rows(closure, closure_cols)
        and transitive_rows(closure, False)
        and total_rows(closure, closure_cols, full)
    )


def t0_masks(masks: tuple[int, ...], size: int) -> bool:
    """Direct form of T0: every distinct pair is split by some member."""
    for x in range(size):
        for y in range(x + 1, size):
            for m in masks:
                if (m >> x ^ m >> y) & 1:
                    break
            else:
                return False
    return True


def rectangle_t0_rows(rows: tuple[int, ...], cols: tuple[int, ...], full: int) -> bool:
    """Rectangle form of T0 on the rows and columns of a generated order:
    row x and column x cover every y other than x."""
    return all(row | col | 1 << x == full for x, (row, col) in enumerate(zip(rows, cols)))


def t1_rows(rows: tuple[int, ...], full: int) -> bool:
    """T1 on a generated order's rows: each point reaches every other."""
    return all(row | 1 << x == full for x, row in enumerate(rows))


def columns(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Column masks of a relation: entry y holds every x with x -> y."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


# --------------------------------------------------------- packed kernels --
# A relation on n <= 8 points as one int, row x in byte x: the pair (x, y) is
# bit 8x + y.  Like the row kernels they validate nothing; a row of 256 or more
# does not fit a byte, and `pack_rows` refuses it.


def pack_rows(rows: Iterable[int]) -> int:
    """The packed form of one row mask per point."""
    return int.from_bytes(bytes(rows), "little")


def unpack_rows(packed: int, size: int) -> tuple[int, ...]:
    """The rows of a packed relation on ``size`` points, bytes 0 to
    size - 1; any higher byte is dropped, not checked (a caller that wants
    it checked compares the packed value)."""
    return tuple(packed.to_bytes(8, "little")[:size])


def _spread_table() -> tuple[int, ...]:
    # by doubling: the masks with bit x set are those below it plus byte x
    table = [0]
    for x in range(8):
        table += [spread | 1 << 8 * x for spread in table]
    return tuple(table)


# SPREAD[m] has byte x equal to 1 for each x in m, so SPREAD[m] * v puts the
# row v (v < 256, no carry) in byte x of every x in m
SPREAD = _spread_table()
# per size n: the packed diagonal {(x, x)} and the full square X x X
DIAGONAL = tuple(sum(1 << 9 * x for x in range(n)) for n in range(9))
SQUARE = tuple(SPREAD[(1 << n) - 1] * ((1 << n) - 1) for n in range(9))


def packed_product(masks: Iterable[int], full: int) -> int:
    """The union of the members' rectangles S x (X-S), packed: one multiply
    per member, computed apart from the walk of `order_rows`."""
    packed = 0
    for member in masks:
        packed |= SPREAD[member] * (member ^ full)
    return packed


def packed_transpose(packed: int) -> int:
    """The transpose of a packed relation: the 8x8 bit matrix transposed by
    three masked swaps, of the 2x2 blocks' corners (bits 7 apart), then of
    the 2x2 blocks in each 4x4 block (14 apart), then of the 4x4 blocks (28
    apart)."""
    t = (packed ^ packed >> 7) & 0x00AA00AA00AA00AA
    packed ^= t ^ t << 7
    t = (packed ^ packed >> 14) & 0x0000CCCC0000CCCC
    packed ^= t ^ t << 14
    t = (packed ^ packed >> 28) & 0x00000000F0F0F0F0
    return packed ^ t ^ t << 28


# ------------------------------------------------------------ public forms --


def generated_order(family: SetFamily) -> Relation:
    """Strict order generated by the family: x < y iff some member splits them."""
    u = family.universe
    return Relation(u, order_rows(family.masks, u.size, u.full_mask))


def rectangle(universe: Universe, member_mask: int) -> Relation:
    """The relation S x (X-S) for a single member S."""
    return Relation(universe, rectangle_rows(member_mask, universe.size, universe.full_mask))


def compose(a: Relation, b: Relation) -> Relation:
    """Relational composition: (x,y) in a∘b iff x -b-> z -a-> y for some z."""
    _check_same_universe(a.universe, b.universe)
    return Relation(a.universe, compose_rows(a.rows, b.rows))


def relation_issubset(a: Relation, b: Relation) -> bool:
    _check_same_universe(a.universe, b.universe)
    return rows_within(a.rows, b.rows)


def absorbs_rectangle_compositions(family: SetFamily) -> bool:
    """For every ordered member pair (S,T), some member's rectangle contains
    [S x (X-S)] ∘ [T x (X-T)]."""
    u = family.universe
    return absorbs_rectangles(family.masks, u.size, u.full_mask)


def is_transitive(rel: Relation, mode: TransitivityMode = "standard") -> bool:
    """Transitivity over all triples, or only over pairwise-distinct ones.

    The two modes genuinely differ: {(a,b),(b,a)} is transitive over distinct
    triples (there are none) but not in the standard sense, since a<b<a fails
    to force a<a.
    """
    if mode not in ("standard", "distinct_triples"):
        raise ValueError(f"unknown transitivity mode {mode!r}")
    return transitive_rows(rel.rows, mode == "distinct_triples")


def t0_separates(family: SetFamily) -> bool:
    """Every distinct pair is split by some member, one way or the other."""
    return t0_masks(family.masks, family.universe.size)


def t1_separates(family: SetFamily) -> bool:
    """Every distinct pair is split both ways."""
    u = family.universe
    return t1_rows(order_rows(family.masks, u.size, u.full_mask), u.full_mask)


def reflexive_closure(rel: Relation) -> Relation:
    return Relation(rel.universe, reflexive_rows(rel.rows))


__all__ = [
    "DIAGONAL",
    "Relation",
    "SPREAD",
    "SQUARE",
    "TransitivityMode",
    "absorbs_rectangle_compositions",
    "absorbs_rectangle_pairs",
    "absorbs_rectangles",
    "antisymmetric_rows",
    "columns",
    "compose",
    "compose_rows",
    "generated_order",
    "irreflexive_rows",
    "is_transitive",
    "linear_rows",
    "order_rows",
    "order_rows_via_rectangles",
    "pack_rows",
    "packed_product",
    "packed_transpose",
    "rectangle",
    "rectangle_rows",
    "rectangle_t0_rows",
    "reflexive_closure",
    "reflexive_rows",
    "relation_issubset",
    "rows_within",
    "t0_masks",
    "t0_separates",
    "t1_rows",
    "t1_separates",
    "total_rows",
    "transitive_rows",
    "unpack_rows",
]
