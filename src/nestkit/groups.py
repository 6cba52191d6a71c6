"""Finite groups as validated Cayley tables, and the compatibility of
nest-generated orders with the group operation.

Built-in constructors cover the small abelian groups plus S3 and D4, so the
sweeps exercise a non-abelian case as well.

Continuity of multiplication is decided on minimal neighbourhoods, and the
multiplication premise on pair masks (bit ``x*n + y`` for the pair (x, y),
the layout of `topology.pair_index`); the route through the explicit product
topology stays as the continuity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InstanceError, Nest, SetFamily, Universe, lazy
from .orders import generated_order
from .topology import (
    Topology,
    is_continuous,
    pair_index,
    product_topology,
    rectangle_mask,
    topology_from_subbase,
    up_mask,
)


@dataclass(frozen=True)
class FiniteGroup:
    """Group given by its Cayley table; structure is verified on construction."""

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.table)
        if n < 1:
            raise InstanceError("a group has at least one element")
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        for row in table:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise InstanceError("Cayley table must be a square over element indices")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise InstanceError(
                            f"operation is not associative at ({a},{b},{c})"
                        )
        # finding the identity and every inverse is what checks they exist
        self.inverse

    @lazy
    def order(self) -> int:
        return len(self.table)

    @lazy
    def identity(self) -> int:
        n, table = self.order, self.table
        identities = [
            e for e in range(n)
            if all(table[e][a] == a == table[a][e] for a in range(n))
        ]
        if len(identities) != 1:
            raise InstanceError("table has no (unique) identity element")
        return identities[0]

    @lazy
    def inverse(self) -> tuple[int, ...]:
        e, n, table = self.identity, self.order, self.table
        inverse = []
        for a in range(n):
            b = next((b for b in range(n) if table[a][b] == e == table[b][a]), None)
            if b is None:
                raise InstanceError(f"element {a} has no inverse")
            inverse.append(b)
        return tuple(inverse)

    @lazy
    def universe(self) -> Universe:
        return Universe(self.order, self.labels)

    @lazy
    def left_images(self) -> tuple[tuple[int, ...], ...]:
        """Image bits of left translation: ``left_images[g][x] == 1 << g*x``."""
        return tuple(tuple(1 << v for v in row) for row in self.table)

    @lazy
    def right_images(self) -> tuple[tuple[int, ...], ...]:
        """Image bits of right translation: ``right_images[g][x] == 1 << x*g``."""
        return tuple(tuple(1 << row[g] for row in self.table) for g in range(self.order))

    @lazy
    def inverse_images(self) -> tuple[int, ...]:
        """Image bits of inversion: ``inverse_images[x] == 1 << x^-1``."""
        return tuple(1 << a for a in self.inverse)

    @lazy
    def preimage_bits(self) -> tuple[int, ...]:
        """Fibres of multiplication as pair masks in the layout of
        `pair_index`: bit ``x*n + y`` of ``preimage_bits[t]`` is set when
        x*y == t."""
        n = self.order
        bits = [0] * n
        for x, row in enumerate(self.table):
            for y, v in enumerate(row):
                bits[v] |= 1 << x * n + y
        return tuple(bits)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(table, tuple(str(i) for i in range(n)))

    @classmethod
    def klein_four(cls) -> FiniteGroup:
        # indices encode (bit0, bit1); xor is the operation
        table = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
        return cls(table, ("e", "a", "b", "ab"))

    @classmethod
    def symmetric_3(cls) -> FiniteGroup:
        perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
        names = ("e", "(01)", "(02)", "(12)", "(012)", "(021)")
        compose = lambda p, q: tuple(p[q[i]] for i in range(3))
        table = tuple(
            tuple(perms.index(compose(p, q)) for q in perms) for p in perms
        )
        return cls(table, names)

    @classmethod
    def dihedral_4(cls) -> FiniteGroup:
        # elements r^i s^j, i mod 4, j mod 2, encoded as i + 4j
        def mul(x: int, y: int) -> int:
            i, j = x % 4, x // 4
            k, l = y % 4, y // 4
            if j == 0:
                return (i + k) % 4 + 4 * l
            return (i - k) % 4 + 4 * ((j + l) % 2)

        table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
        names = ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")
        return cls(table, names)


BUILTIN_GROUPS = {
    "z2": lambda: FiniteGroup.cyclic(2),
    "z3": lambda: FiniteGroup.cyclic(3),
    "z4": lambda: FiniteGroup.cyclic(4),
    "z2xz2": FiniteGroup.klein_four,
    "s3": FiniteGroup.symmetric_3,
    "d4": FiniteGroup.dihedral_4,
}


def _require_order(group: FiniteGroup, universe: Universe, what: str) -> None:
    # sizes, not universes: the built-in groups carry labels, and callers pass
    # unlabelled universes of the right size
    if universe.size != group.order:
        raise InstanceError(
            f"{what} lives on {universe.size} points but the group has order {group.order}"
        )


def set_product(group: FiniteGroup, a_mask: int, b_mask: int) -> int:
    """{a*b : a in A, b in B} for masks that fit the group."""
    images = group.left_images
    right = []
    while b_mask:
        low = b_mask & -b_mask
        right.append(low.bit_length() - 1)
        b_mask ^= low
    out = 0
    while a_mask:
        low = a_mask & -a_mask
        row = images[low.bit_length() - 1]
        for b in right:
            out |= row[b]
        a_mask ^= low
    return out


def set_inverse(group: FiniteGroup, mask: int) -> int:
    """{a^-1 : a in A} for a mask that fits the group."""
    return up_mask(group.inverse_images, mask)


def translation_closed(group: FiniteGroup, family: SetFamily) -> bool:
    """Every left and right translate of every member stays in the family."""
    _require_order(group, family.universe, "family")
    members = set(family.masks)
    for left, right in zip(group.left_images, group.right_images):
        for m in family.masks:
            if up_mask(left, m) not in members or up_mask(right, m) not in members:
                return False
    return True


def order_compatible(group: FiniteGroup, nest: SetFamily) -> bool:
    """Is the generated order invariant, as a biconditional, under every left
    and right translation?"""
    _require_order(group, nest.universe, "nest")
    rows = generated_order(nest).rows
    table = group.table
    n = group.order
    for a in range(n):
        for b in range(n):
            v = rows[a] >> b & 1
            for g in range(n):
                if rows[table[a][g]] >> table[b][g] & 1 != v:
                    return False
                if rows[table[g][a]] >> table[g][b] & 1 != v:
                    return False
    return True


@dataclass(frozen=True)
class ContinuityReport:
    premise: bool
    continuous: bool


def subbase_topology(group: FiniteGroup, left: SetFamily, right: SetFamily) -> Topology:
    _require_order(group, left.universe, "left family")
    _require_order(group, right.universe, "right family")
    return topology_from_subbase(
        SetFamily.dedupe(group.universe, left.masks + right.masks)
    )


def inversion_continuity(
    group: FiniteGroup, left: SetFamily, right: SetFamily
) -> ContinuityReport:
    """Premise: the two families swap under elementwise inversion.
    Conclusion: x -> x^-1 is continuous for the topology they generate."""
    topo = subbase_topology(group, left, right)
    return ContinuityReport(
        inversion_premise(group, left, right), inversion_continuous(group, topo)
    )


def inversion_premise(group: FiniteGroup, left: SetFamily, right: SetFamily) -> bool:
    _require_order(group, left.universe, "left family")
    _require_order(group, right.universe, "right family")
    lmembers, rmembers = set(left.masks), set(right.masks)
    return all(set_inverse(group, m) in rmembers for m in left.masks) and all(
        set_inverse(group, m) in lmembers for m in right.masks
    )


def inversion_continuous(group: FiniteGroup, topo: Topology) -> bool:
    _require_order(group, topo.universe, "topology")
    return is_continuous(group.inverse, topo, topo)


def multiplication_continuity(
    group: FiniteGroup, left: SetFamily, right: SetFamily
) -> ContinuityReport:
    """Premise: products factor through member neighbourhoods, family by
    family.  Conclusion: (x,y) -> x*y is continuous from the product topology."""
    premise = multiplication_premise(group, left) and multiplication_premise(group, right)
    topo = subbase_topology(group, left, right)
    return ContinuityReport(premise, multiplication_continuous(group, topo))


def multiplication_premise(group: FiniteGroup, family: SetFamily) -> bool:
    _require_order(group, family.universe, "family")
    return _product_factorization(group, family.masks)


def multiplication_continuous(group: FiniteGroup, topo: Topology) -> bool:
    """Continuity of (x,y) -> x*y from the product topology, decided through
    minimal rectangles: the preimage of an open O is product-open iff every
    pair (x, y) in it sits inside some open rectangle U x V with U*V inside
    O.  `set_product` is monotone and the minimal neighbourhood N(x) is the
    least open containing x, so that holds for every open exactly when
    N(x)*N(y) lies inside N(x*y) for every pair.  Each distinct
    (N(x), N(y)) product is computed once per call.

    This never materializes the product topology, which is what keeps the
    sweeps over six-element groups tractable; `product_topology` plus
    `is_continuous` gives the same answer and the suites cross-check the two
    routes on the two- and three-element groups.
    """
    _require_order(group, topo.universe, "topology")
    hoods = topo.neighbourhoods
    products: dict[tuple[int, int], int] = {}
    for x, row in enumerate(group.table):
        for y, xy in enumerate(row):
            key = hoods[x], hoods[y]
            product = products.get(key)
            if product is None:
                product = products[key] = set_product(group, *key)
            if product & ~hoods[xy]:
                return False
    return True


def multiplication_continuous_via_product(
    group: FiniteGroup, topo: Topology
) -> bool:
    """Reference route through the explicit product topology; exponential in
    the group order, so only suitable for the smallest groups.  It reads the
    opens only, never the minimal neighbourhoods."""
    _require_order(group, topo.universe, "topology")
    tprod = product_topology(topo, topo)
    n = group.order
    u = group.universe
    mapping = [group.mul(x, y) for x in range(n) for y in range(n)]
    if any(
        mapping[pair_index(u, u, x, y)] != group.mul(x, y)
        for x in range(n)
        for y in range(n)
    ):
        raise RuntimeError("the product pairs are not laid out as pair_index says")
    return is_continuous(mapping, tprod, topo)


def _product_factorization(group: FiniteGroup, masks: tuple[int, ...]) -> bool:
    """Every product x*y inside a member T of the family with the given
    masks has member neighbourhoods U of x and V of y with U*V inside T;
    validates nothing.

    Decided on pair masks (the layout of `pair_index`): U*V lies inside T
    exactly when the rectangle U x V lies inside the preimage of T under
    multiplication, so the premise holds iff every member's preimage is the
    union of the member rectangles inside it.
    """
    # U x V is V times the rectangle U x {0}: the shifted copies of V do not
    # overlap, so the product has no carries
    columns = [rectangle_mask(a, 1, group.order) for a in masks]
    rects = [b * column for column in columns for b in masks]
    for target in masks:
        pairs = up_mask(group.preimage_bits, target)
        cover = 0
        for rect in rects:
            if rect & ~pairs == 0:
                cover |= rect
        if cover != pairs:
            return False
    return True


def nest_members_trivial(group: FiniteGroup, nest: Nest) -> bool:
    """Structural fact surfaced by the sweeps: a translation-closed nest on a
    finite group can only contain the empty set and the whole group
    (translations preserve cardinality, and nest members have distinct
    cardinalities)."""
    _require_order(group, nest.universe, "nest")
    full = group.universe.full_mask
    return all(m in (0, full) for m in nest.masks)
