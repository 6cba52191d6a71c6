"""Independent oracles: every check here is computed from definitions with
plain Python sets and integers, without calling into nestkit.

Subsets are frozensets of point indices 0..n-1; a family is a collection of
such frozensets.  The oracles state each notion the way the definitions do,
not the way the program computes it: the generated order as a set of pairs,
suprema as unique least upper bounds, topologies as explicit closures.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb, factorial

# ------------------------------------------------------------------ counts --


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """Ordered set partitions of an n-set (OEIS A000670)."""
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def surjections(n: int, m: int) -> int:
    """Surjections from an n-set onto an m-set, by inclusion-exclusion."""
    return sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1))


def chains(n: int, k: int) -> int:
    """Strict chains S1 < ... < Sk of subsets of an n-set (n >= 1).

    The blocks S1, S2-S1, ..., X-Sk form an ordered partition whose inner
    k-1 blocks are nonempty and whose two outer blocks may be empty.
    """
    return surjections(n, k + 1) + 2 * surjections(n, k) + surjections(n, k - 1)


def nest_count(n: int, max_members: int | None = None) -> int:
    """Nests (inclusion chains, the empty one included) on n points."""
    cap = n + 1 if max_members is None else min(max_members, n + 1)
    return 1 + sum(chains(n, k) for k in range(1, cap + 1))


def nests_up_to(max_n: int) -> int:
    """Nests on 1..max_n points; 4 x Fubini(n) per size."""
    return sum(4 * fubini(n) for n in range(1, max_n + 1))


def generated_orders_instances(iters: int) -> int:
    """Instances the generated-orders suite checks at family bound 3:
    every family, every pair of empty-set-containing families, every
    subset pair S <= T on up to four points, every linear order on up to
    four points, and the random sweep."""
    families = sum(2 ** (2 ** n) for n in range(1, 4))
    star_pairs = sum(4 ** (2 ** n - 1) for n in range(1, 4))
    subset_pairs = sum(3 ** n for n in range(1, 5))
    linear_orders = sum(factorial(n) for n in range(1, 5))
    return families + star_pairs + subset_pairs + linear_orders + iters


def group_compatibility_instances(iters: int) -> int:
    """Instances the group-compatibility suite checks: nests of at most three
    members on z2, z3, z4, z2xz2 and s3, the z3 shift witness, all 16 x 16
    family pairs on z2, all pairs of at most-two-member families on z3, the
    random sample (four groups), and the z3 inversion example."""
    nests = sum(nest_count(order, 3) for order in (2, 3, 4, 4, 6))
    z3_families = sum(comb(8, k) for k in range(3))
    return nests + 1 + 16 * 16 + z3_families ** 2 + 4 * max(1, iters // 4) + 1


def ray_classification_instances() -> int:
    """The ray battery: 2 carriers x 2 windows x 8 endpoint sets x 2 shapes,
    the rational carrier-consistency pairs (7 rational endpoint sets), the
    full-line probes, the shift/scale checks, and the integer-step witness."""
    battery = 2 * 2 * 8 * 2
    consistency = 2 * 7 * 2
    probes = battery // 2
    compat = 8 * 2
    return battery + consistency + probes + compat + 1


# ------------------------------------------------------------ set families --


def points(n: int) -> frozenset:
    return frozenset(range(n))


@lru_cache(maxsize=None)
def all_subsets(n: int) -> tuple[frozenset, ...]:
    return tuple(frozenset(i for i in range(n) if pick >> i & 1) for pick in range(1 << n))


def all_nests(n: int, max_members: int | None = None) -> list[tuple[frozenset, ...]]:
    """Every inclusion chain of distinct subsets, built by extending chains
    upward one strict superset at a time."""
    subsets = sorted(all_subsets(n), key=len)
    out: list[tuple[frozenset, ...]] = [()]

    def grow(chain: tuple[frozenset, ...]) -> None:
        if max_members is not None and len(chain) >= max_members:
            return
        for s in subsets:
            if chain[-1] < s:
                longer = chain + (s,)
                out.append(longer)
                grow(longer)

    for s in subsets:
        out.append((s,))
        grow((s,))
    return out


def is_chain(family) -> bool:
    members = list(family)
    return all(a <= b or b <= a for a in members for b in members)


def random_nest(rng, n: int) -> tuple[frozenset, ...]:
    """A uniformly chosen sub-chain of a random maximal chain."""
    order = list(range(n))
    rng.shuffle(order)
    prefixes = [frozenset(order[:k]) for k in range(n + 1)]
    return tuple(p for p in prefixes if rng.random() < 0.5)


def random_family(rng, n: int, max_members: int) -> tuple[frozenset, ...]:
    subsets = all_subsets(n)
    return tuple(set(rng.choice(subsets) for _ in range(rng.randint(0, max_members))))


def complement_family(family, n: int) -> tuple[frozenset, ...]:
    x = points(n)
    return tuple(x - m for m in family)


def from_document(doc: dict) -> tuple[int, tuple[frozenset, ...]]:
    """Universe size and members of a family instance document."""
    return doc["universe"], tuple(frozenset(m) for m in doc["family"])


# ------------------------------------------------------------------ orders --


def order(family, n: int) -> set[tuple[int, int]]:
    """x < y iff some member contains x but not y."""
    return {(x, y) for m in family for x in m for y in range(n) if y not in m}


def reflexive(rel: set, n: int) -> set:
    return rel | {(x, x) for x in range(n)}


def t0(family, n: int) -> bool:
    return all(
        any((x in m) != (y in m) for m in family)
        for x in range(n) for y in range(x + 1, n)
    )


def t1(family, n: int) -> bool:
    rel = order(family, n)
    return all((x, y) in rel and (y, x) in rel for x in range(n) for y in range(x + 1, n))


def up_strict(rel: set, region) -> frozenset:
    """Points strictly above some point of the region."""
    return frozenset(x for (y, x) in rel if y in region)


def down_strict(rel: set, region) -> frozenset:
    """Points strictly below some point of the region."""
    return frozenset(x for (x, y) in rel if y in region)


def is_linear(rel: set, n: int) -> bool:
    pre = reflexive(rel, n)
    total = all((x, y) in pre or (y, x) in pre for x in range(n) for y in range(n))
    antisymmetric = all(not ((x, y) in pre and (y, x) in pre) or x == y
                        for x in range(n) for y in range(n))
    transitive = all((x, z) in pre for (x, y) in pre for (w, z) in pre if y == w)
    return total and antisymmetric and transitive


# ------------------------------------------------------------ sup ladder --


def sup(pre: set, region, n: int) -> int | None:
    """The unique least upper bound of the region, or None."""
    bounds = [u for u in range(n) if all((y, u) in pre for y in region)]
    least = [b for b in bounds if all((b, u) in pre for u in bounds)]
    return least[0] if len(least) == 1 else None


def sup_ladder(family, n: int) -> tuple[bool, bool, bool]:
    """(sups_exist, sups_escape, sups_onto) under the reflexive order."""
    pre = reflexive(order(family, n), n)
    sups = {m: sup(pre, m, n) for m in family}
    exist = all(s is not None for s in sups.values())
    escape = exist and all(s not in m for m, s in sups.items())
    onto = escape and all(
        any(s == x and x not in m for m, s in sups.items()) for x in range(n)
    )
    return exist, escape, onto


# ------------------------------------------------------------- topologies --


def closure(subbase, n: int) -> frozenset:
    """Smallest topology containing the subbase: every finite intersection
    (the empty one is X), then every union (the empty one is {})."""
    base = {points(n)}
    for s in subbase:
        base |= {b & s for b in base}
    opens = {frozenset()}
    for b in base:
        opens |= {o | b for o in opens}
    return frozenset(opens)


def lower_topology(rel: set, n: int) -> frozenset:
    pre = reflexive(rel, n)
    return closure([points(n) - {y for y in range(n) if (x, y) in pre} for x in range(n)], n)


def upper_topology(rel: set, n: int) -> frozenset:
    pre = reflexive(rel, n)
    return closure([points(n) - {y for y in range(n) if (y, x) in pre} for x in range(n)], n)


def interval_topology(rel: set, n: int) -> frozenset:
    return closure(lower_topology(rel, n) | upper_topology(rel, n), n)


def alexandroff(rel: set, n: int) -> frozenset:
    """Subsets equal to their strict upward reach."""
    return frozenset(a for a in all_subsets(n) if up_strict(rel, a) == a)


def nest_topology(nest, n: int) -> frozenset:
    """A nest is closed under unions and intersections, so its topology is
    just its members plus the empty set and X."""
    return frozenset(nest) | {frozenset(), points(n)}


def ray_topology(rel: set, n: int) -> frozenset:
    rays = [frozenset(y for y in range(n) if (y, x) in rel) for x in range(n)]
    rays += [frozenset(y for y in range(n) if (x, y) in rel) for x in range(n)]
    return closure(rays, n)


# ------------------------------------------------------------ interlocking --


def interlocking(family, n: int) -> bool:
    """A member equal to the intersection of its strict supersets must equal
    the union of its strict subsets."""
    x = points(n)
    for t in family:
        above = [s for s in family if t < s]
        inter = x
        for s in above:
            inter = inter & s
        if inter != t:
            continue
        union = frozenset()
        for s in family:
            if s < t:
                union = union | s
        if union != t:
            return False
    return True


def lots(left, right, n: int) -> tuple[bool, bool]:
    """(hypotheses hold, is a linearly ordered topological space) for a pair."""
    exist_l, escape_l, onto_l = sup_ladder(left, n)
    exist_r, escape_r, onto_r = sup_ladder(right, n)
    hypotheses = (onto_l and onto_r) or (t0(left, n) and t0(right, n) and escape_l and escape_r)
    rel = order(left, n)
    both = closure(tuple(left) + tuple(right), n)
    return hypotheses, is_linear(rel, n) and both == ray_topology(rel, n)


# ------------------------------------------------------------------ groups --


def check_group_table(table: list[list[int]]) -> None:
    n = len(table)
    if any(sorted(row) != list(range(n)) for row in table):
        raise AssertionError("Cayley table rows are not permutations")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise AssertionError("Cayley table is not associative")


def identity(table) -> int:
    n = len(table)
    return next(e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n)))


def inverses(table) -> list[int]:
    e = identity(table)
    return [next(b for b in range(len(table)) if table[a][b] == e) for a in range(len(table))]


def translation_closed(table, family) -> bool:
    members = set(family)
    for g in range(len(table)):
        for m in family:
            if frozenset(table[g][x] for x in m) not in members:
                return False
            if frozenset(table[x][g] for x in m) not in members:
                return False
    return True


def order_compatible(table, family) -> bool:
    n = len(table)
    rel = order(family, n)
    return all(
        ((a, b) in rel) == ((table[a][g], table[b][g]) in rel) == ((table[g][a], table[g][b]) in rel)
        for a in range(n) for b in range(n) for g in range(n)
    )


def members_trivial(family, n: int) -> bool:
    return all(m in (frozenset(), points(n)) for m in family)


def _product(table, a, b) -> frozenset:
    return frozenset(table[x][y] for x in a for y in b)


def inversion_premise(table, left, right) -> bool:
    inv = inverses(table)
    flip = lambda m: frozenset(inv[x] for x in m)
    return all(flip(m) in set(right) for m in left) and all(flip(m) in set(left) for m in right)


def inversion_continuous(table, opens) -> bool:
    inv = inverses(table)
    return all(frozenset(x for x in range(len(table)) if inv[x] in o) in opens for o in opens)


def multiplication_premise(table, family) -> bool:
    n = len(table)
    return all(
        any(x in fx and y in fy and _product(table, fx, fy) <= target
            for fx in family for fy in family)
        for target in family for x in range(n) for y in range(n) if table[x][y] in target
    )


def multiplication_continuous(table, opens) -> bool:
    """The preimage of each open is open in the product topology: every pair
    in it sits in an open rectangle U x V with U*V inside the open."""
    n = len(table)
    return all(
        any(x in u and y in v and _product(table, u, v) <= target for u in opens for v in opens)
        for target in opens for x in range(n) for y in range(n) if table[x][y] in target
    )


# --------------------------------------------------------------- rendering --

_MEMBER = re.compile(r"\{([^{}]*)\}")


def parse_roster(text: str, labels: list[str]) -> frozenset:
    """Read a rendered roster "{{}, {a,b}, ...}" back into index sets."""
    index = {label: i for i, label in enumerate(labels)}
    inner = text.strip()[1:-1]
    return frozenset(
        frozenset(index[name] for name in body.split(",") if name)
        for body in _MEMBER.findall(inner)
    )


def default_labels(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]

