"""Registered property suites: exhaustive small-universe sweeps plus seeded
randomized fuzzing, each returning a deterministic SuiteReport.

The exhaustive suites run one check per nest through `_sweep`, which
partitions the enumeration stream by stride, so the worker count
(``workers`` in the config) only changes wall time, never the report
document.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import permutations
from math import comb
from typing import Callable, Iterable

from .analysis import (
    DualPair,
    NestContext,
    _ladder,
    complement_dual,
    dual_sup_conditions,
    is_interlocking,
    is_interlocking_via_alexandroff,
    is_interlocking_via_lower_sets,
    lots_hypotheses,
    lots_report,
    member_closed_by_intersections,
    member_lower_set_report,
    member_lower_set_views,
    member_union_of_smaller,
    sup_conditions,
    sup_index,
    up_mask_by_complements,
    down_mask_by_members,
)
from .bounds import down_reach_covers, has_upper_bound
from .core import (
    InstanceError,
    Nest,
    SetFamily,
    Subset,
    Universe,
    canonical_masks,
    count_nests,
    enumerate_families,
    enumerate_nests,
    family_complement,
    indices_of,
    is_chain,
    is_nest,
)
from .groups import (
    BUILTIN_GROUPS,
    FiniteGroup,
    _product_factorization,
    inversion_continuity,
    inversion_continuous,
    multiplication_continuous,
    multiplication_continuous_via_product,
    nest_members_trivial,
    order_compatible,
    set_inverse,
    subbase_topology,
    translation_closed,
)
from .instances import verify_all
from .orders import (
    DIAGONAL,
    SQUARE,
    Relation,
    absorbs_rectangle_compositions,
    absorbs_rectangle_pairs,
    absorbs_rectangles,
    columns,
    compose_rows,
    generated_order,
    is_transitive,
    linear_rows,
    order_rows,
    pack_rows,
    packed_product,
    packed_transpose,
    rectangle_rows,
    reflexive_closure,
    rows_within,
    t0_masks,
    t0_separates,
    t1_separates,
    transitive_rows,
    unpack_rows,
)
from .rays import (
    Carrier,
    EndpointSet,
    GroupCompatReport,
    Quadratic,
    RayNest,
    Window,
    dual as ray_dual,
    group_compatibility,
    order_holds,
    order_matches_carrier,
    separates,
    separation_witness,
    sup_conditions as ray_sup_conditions,
)
from .reporting import SuiteReport, Violation, sort_violations
from .serialize import family_to_dict, ray_to_dict
from .topology import (
    Regions,
    Topology,
    field_width,
    interval_topology,
    join,
    lower_bounds,
    lower_topology,
    reach_table,
    topology_from_subbase,
    upper_bounds,
    upper_topology,
)


@dataclass(frozen=True)
class SuiteConfig:
    max_n: int | None = None
    seed: int = 20260808
    iters: int | None = None
    max_members: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        require_at_least(self, max_n=1, iters=0, max_members=0, workers=0)

    def resolved_workers(self) -> int:
        return max(1, self.workers)


@dataclass(frozen=True)
class Suite:
    run: Callable[[SuiteConfig], tuple[int, list[Violation], list[str]]]
    summary: str
    defaults: SuiteConfig
    # the config fields the suite reads besides the seed; only these are
    # recorded in its document
    reads: frozenset[str]


SUITES: dict[str, Suite] = {}


def _suite(name: str, summary: str, **defaults):
    """Register the decorated function as suite ``name``, run with the
    ``defaults`` for the config fields its caller leaves unset.  A suite
    reads the fields it has defaults for (a sweep over the nests, `_sweep`,
    lists ``max_members=None``)."""
    def register(run):
        reads = frozenset(defaults)
        SUITES[name] = Suite(run, summary, SuiteConfig(**defaults), reads)
        return run
    return register


def require_at_least(config, **least: int) -> None:
    """Reject a config field below its least value.  The fields are command
    flags, so a bad one is named as both."""
    for name, bound in least.items():
        value = getattr(config, name)
        if value is not None and value < bound:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{name} ({flag}) must be >= {bound}, got {value}")


def _nest_payload(nest: SetFamily, **extra) -> dict:
    doc = family_to_dict(nest)
    doc.update(extra)
    return doc


def _pmap(fn: Callable, jobs: list, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    # imported here so that single-worker runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# A nest check returns how many instances it examined, the violations it
# found as (property id, extras of the nest payload), and the violations
# that carry their own payload, as (property id, payload).
NestCheck = Callable[[NestContext], tuple[int, list[tuple[str, dict]], list[tuple[str, dict]]]]


def _sweep(config: SuiteConfig, check: NestCheck) -> tuple[int, list[Violation]]:
    """Run a module-level ``check`` on every nest on n = 1..max_n points
    (at most ``max_members`` members), one stride shard per worker and size.
    Returns the instance count and the violations."""
    workers = config.resolved_workers()
    jobs = [
        (check, n, offset, workers, config.max_n, config.max_members)
        for n in range(1, config.max_n + 1)
        for offset in range(workers)
    ]
    count, violations = 0, []
    for shard_count, shard_violations in _pmap(_sweep_shard, jobs, workers):
        count += shard_count
        violations += shard_violations
    return count, violations


def _sweep_shard(job: tuple) -> tuple[int, list[Violation]]:
    check, n, offset, stride, max_n, max_members = job
    count, violations = 0, []
    for nest in enumerate_nests(
        Universe(n), max_members=max_members, bound=max_n, offset=offset, stride=stride
    ):
        examined, flagged, own = check(NestContext(nest))
        count += examined
        if flagged:
            violations += [Violation(pid, _nest_payload(nest, **extra)) for pid, extra in flagged]
        if own:
            violations += [Violation(pid, payload) for pid, payload in own]
    return count, violations


def random_family(rng: random.Random, universe: Universe, max_members: int = 4) -> SetFamily:
    """A seeded family of up to ``max_members`` members, drawn by
    `_random_masks`.  The masks are in range and distinct by construction,
    so the family is built in canonical order without re-validation."""
    masks = canonical_masks(_random_masks(rng, universe.full_mask, max_members))
    return SetFamily._drawn(universe, masks)


def _random_masks(rng: random.Random, full: int, max_members: int) -> set[int]:
    """The draws behind `random_family`: up to ``max_members`` masks in
    ``[0, full]``, duplicates merged.

    Stream contract: the same set as
    ``{rng.randrange(full + 1) for _ in range(rng.randint(0, max_members))}``,
    leaving ``rng`` in the same state.  CPython draws ``randrange(n)`` as
    ``k = n.bit_length()`` random bits, redrawn while the value is ``>= n``
    (``randint(0, m)`` is ``randrange(m + 1)``); this does the same with
    ``getrandbits`` directly, without the argument checks of each call.
    """
    getrandbits = rng.getrandbits
    k = (max_members + 1).bit_length()
    count = getrandbits(k)
    while count > max_members:
        count = getrandbits(k)
    k = (full + 1).bit_length()
    masks = set()
    for _ in range(count):
        mask = getrandbits(k)
        while mask > full:
            mask = getrandbits(k)
        masks.add(mask)
    return masks


def random_nest(rng: random.Random, universe: Universe, max_members: int | None = None) -> Nest:
    order = list(universe.elements())
    rng.shuffle(order)
    prefixes = [0]
    mask = 0
    for element in order:
        mask |= 1 << element
        prefixes.append(mask)
    # no cap: any number of the chain's n + 1 prefixes
    cap = len(prefixes) if max_members is None else min(max_members, len(prefixes))
    size = rng.randint(0, cap)
    return Nest(universe, tuple(rng.sample(prefixes, size)))


# ---------------------------------------------------------------- replay --


@_suite("replay", "re-run every canonical instance against its frozen verdicts")
def _suite_replay(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    violations = []
    count = 0
    for slug, checks in verify_all().items():
        count += 1
        for check in checks:
            if not check.passed:
                violations.append(Violation(
                    f"replay:{slug}:{check.key}",
                    {"want": str(check.want), "got": str(check.got)},
                ))
    return count, violations, []


# ----------------------------------------------------------- core algebra --


def _check_core(ctx: NestContext) -> tuple[int, list, list]:
    """The enumerator's nest, its complement, and the T0 verdict the
    context reads off the blocks, against the direct form `t0_masks`."""
    nest, comp = ctx.nest, ctx.dual.nest
    flagged = []
    if not is_nest(nest):
        flagged.append(("enumerate:not-a-nest", {}))
    if ctx.t0 != t0_masks(nest.masks, nest.universe.size):
        flagged.append(("t0:block-form", {}))
    if family_complement(comp).masks != nest.masks:
        flagged.append(("complement:involution", {}))
    if not is_nest(comp):
        flagged.append(("complement:nest-preserved", {}))
    return 1, flagged, []


@_suite("core-algebra", "complement involution and the nest enumerator's contracts",
        max_members=None, max_n=4)
def _suite_core(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    max_n = config.max_n
    count, violations = _sweep(config, _check_core)
    for n in range(1, max_n + 1):
        u = Universe(n)
        # the whole stream once more: no duplicates, and its length
        whole, seen = [], set()
        for nest in enumerate_nests(u, bound=max_n):
            if nest.masks in seen:
                violations.append(Violation("enumerate:duplicate", _nest_payload(nest)))
            seen.add(nest.masks)
            whole.append(nest.masks)
        if len(whole) != count_nests(u):
            violations.append(Violation(
                "enumerate:count", {"universe": n, "got": len(whole), "want": count_nests(u)}
            ))
        # the ordered set partitions count the chains of proper nonempty
        # subsets; the empty set and X each may or may not join a chain
        if count_nests(u) != 4 * _fubini(n):
            violations.append(Violation(
                "enumerate:fubini-count",
                {"universe": n, "got": count_nests(u), "want": 4 * _fubini(n)},
            ))
        # trivial-member exclusion
        for nest in enumerate_nests(u, include_trivial=False, bound=max_n):
            if 0 in nest.masks or u.full_mask in nest.masks:
                violations.append(Violation("enumerate:trivial-excluded", _nest_payload(nest)))
        # stride partition reassembles the stream
        pieces = []
        for offset in range(3):
            pieces += [
                nest.masks
                for nest in enumerate_nests(u, bound=max_n, offset=offset, stride=3)
            ]
        if sorted(whole) != sorted(pieces):
            violations.append(Violation("enumerate:partition", {"universe": n}))
    # counting oracle against a brute-force filter at the smallest sizes
    for n in (1, 2):
        u = Universe(n)
        brute = sum(1 for fam in enumerate_families(u, bound=2) if is_nest(fam))
        if brute != count_nests(u):
            violations.append(Violation(
                "enumerate:brute-count", {"universe": n, "got": count_nests(u), "want": brute}
            ))
    return count, violations, []


def _fubini(n: int) -> int:
    """Ordered set partitions of n points (OEIS A000670), by the recurrence
    a(m) = sum over k = 1..m of C(m, k) a(m - k), with a(0) = 1."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


# ------------------------------------------------------- generated orders --


@_suite("generated-orders", "generated-order identities: product form, absorption, T0 forms, "
        "star unions, transpose duality", max_n=3, iters=10_000)
def _suite_generated_orders(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    if config.max_n > 3:
        # the exhaustive family sweep is 2^(2^n) families on n points
        raise ValueError(f"max_n (--max-n) must be <= 3 for generated-orders, got {config.max_n}")
    rng = random.Random(config.seed)
    violations = []
    count = 0

    for n in range(1, config.max_n + 1):
        u = Universe(n)
        full = u.full_mask
        families = [fam.masks for fam in enumerate_families(u)]
        for masks in families:
            count += 1
            violations.extend(_order_checks(masks, n, full))
            # the row form is the oracle for the mask form the checks use
            if absorbs_rectangle_pairs(masks, full) != absorbs_rectangles(masks, n, full):
                violations.append(Violation(
                    "absorption:pair-form", _nest_payload(SetFamily(u, masks))
                ))
        # star-union over all pairs of empty-set-containing families.  The
        # list is indexed by pick bits (see `_star_table`), so those are the
        # odd indices.  Each family's order is computed once and packed one
        # row per byte, so the union of two orders is one OR
        orders = [pack_rows(order_rows(masks, n, full)) for masks in families]
        with_empty = range(1, len(families), 2)
        count += len(with_empty) ** 2
        for left in with_empty:
            star, order = _star_table(families[left], full), orders[left]
            for right in with_empty:
                if orders[star[right]] != order | orders[right]:
                    violations.append(_star_union_violation(n, families[left], families[right]))

    # rectangle composition absorbs along inclusions (exhaustive subset pairs)
    for n in range(1, 5):
        full = (1 << n) - 1
        rects = [rectangle_rows(m, n, full) for m in range(full + 1)]
        for small in range(full + 1):
            for big in range(full + 1):
                if small & ~big:
                    continue
                count += 1
                if not rows_within(compose_rows(rects[big], rects[small]), rects[big]):
                    violations.append(Violation(
                        "rectangles:absorb", {"universe": n, "small": small, "big": big}
                    ))

    # every linear order is generated by its nest of strict down-rays, and
    # that nest T0-separates the universe
    for n in range(1, 5):
        u = Universe(n)
        for perm in permutations(range(n)):
            count += 1
            rank = {element: index for index, element in enumerate(perm)}
            ray_masks = set()
            for x in range(n):
                ray_masks.add(sum(1 << y for y in range(n) if rank[y] < rank[x]))
            rays = SetFamily.dedupe(u, tuple(ray_masks))
            expected = Relation.from_pairs(
                u, [(x, y) for x in range(n) for y in range(n) if rank[x] < rank[y]]
            )
            if not is_nest(rays):
                violations.append(Violation("down-rays:nest", {"order": list(perm)}))
            if not t0_separates(rays):
                violations.append(Violation("down-rays:t0", {"order": list(perm)}))
            if generated_order(rays) != expected:
                violations.append(Violation("down-rays:regenerates", {"order": list(perm)}))

    # the all-singletons family: transitive over distinct triples only
    for n in (2, 3):
        u = Universe(n)
        singles = SetFamily(u, tuple(1 << i for i in range(n)))
        order = generated_order(singles)
        if absorbs_rectangle_compositions(singles):
            violations.append(Violation("singletons:absorption", {"universe": n}))
        if is_transitive(order, "standard"):
            violations.append(Violation("singletons:standard", {"universe": n}))
        if not is_transitive(order, "distinct_triples"):
            violations.append(Violation("singletons:distinct", {"universe": n}))
        if not t1_separates(singles):
            violations.append(Violation("singletons:t1", {"universe": n}))

    # seeded randomized sweep over larger universes: a draw on at most max_n
    # points is counted but not checked, since the exhaustive loop above ran
    # the order checks on its family and the star union on its pair
    for _ in range(config.iters):
        n = rng.randint(2, 6)
        full = (1 << n) - 1
        masks = _random_masks(rng, full, 4)
        right = _random_masks(rng, full, 3)
        count += 1
        if n <= config.max_n:
            continue
        masks = canonical_masks(masks)
        violations.extend(_order_checks(masks, n, full))
        left = {0, *masks}
        right.add(0)
        merged = {a | b for a in left for b in right}
        if packed_product(merged, full) != packed_product(left, full) | packed_product(right, full):
            violations.append(_star_union_violation(n, left, right))
    return count, violations, []


def _star_table(left: tuple[int, ...], full: int) -> tuple[int, ...]:
    """The star family {a | b : a in left, b in R} of the family ``left``
    and every family R on the universe of ``full``, in pick bits: bit s of a
    family's picks is set when subset s is a member, and the picks of R
    index the table, as `enumerate_families` counts.

    Entry b of the rows holds the picks of {a | b : a in left}; the star
    family is the union of the rows of R's members, so it is the reach of
    R under those rows, which `reach_table` gives for every R at once."""
    return reach_table([sum({1 << (a | b) for a in left}) for b in range(full + 1)])


def _star_union_violation(n: int, left: Iterable[int], right: Iterable[int]) -> Violation:
    u = Universe(n)
    return Violation("star-union:order", {
        "universe": n,
        "left": family_to_dict(SetFamily(u, tuple(left)))["family"],
        "right": family_to_dict(SetFamily(u, tuple(right)))["family"],
    })


def _order_checks(masks: tuple[int, ...], size: int, full: int) -> list[Violation]:
    """The order identities of one family, given by its canonical masks on
    at most 8 points; the family (or nest) is built only for the payload of
    a violation.

    The walk of `order_rows` is packed once, one row per byte, and checked
    against the packed product of the members' rectangles; its transpose
    and the diagonal decide T0, irreflexivity and asymmetry, and the product
    of the complements is checked against the transpose."""
    flagged = []
    order = order_rows(masks, size, full)
    packed = pack_rows(order)
    transposed = packed_transpose(packed)
    diagonal = DIAGONAL[size]
    if packed != packed_product(masks, full):
        flagged.append("order:product-form")
    t0 = t0_masks(masks, size)
    if t0 != (packed | transposed | diagonal == SQUARE[size]):
        flagged.append("t0:rectangle-form")
    # a nest has the family's masks, so this also decides nest:absorption
    absorbs = absorbs_rectangle_pairs(masks, full)
    if absorbs and not transitive_rows(order, False):
        flagged.append("absorption:transitivity")
    # generated orders are irreflexive by construction
    irreflexive = not packed & diagonal
    if not irreflexive:
        flagged.append("order:irreflexive")
    # padding with the trivial members never changes the order
    if order_rows({0, full, *masks}, size, full) != order:
        flagged.append("order:trivial-padding")
    out = [Violation(pid, _nest_payload(SetFamily(Universe(size), masks))) for pid in flagged]
    if not is_chain(masks):
        return out
    flagged = []
    if not absorbs:
        flagged.append("nest:absorption")
    for mode in ("standard", "distinct_triples"):
        if not transitive_rows(order, mode == "distinct_triples"):
            flagged.append(f"nest:transitive-{mode}")
    if not irreflexive or packed & transposed & ~diagonal:
        flagged.append("nest:asymmetric")
    if t0 and not linear_rows(order, unpack_rows(transposed, size), full):
        flagged.append("nest:t0-linear")
    # the complements generate the transposed order
    if packed_product([m ^ full for m in masks], full) != transposed:
        flagged.append("complement:transpose")
    return out + [Violation(pid, _nest_payload(Nest(Universe(size), masks))) for pid in flagged]


# -------------------------------------------------------- topology engine --


_REACH_ROUTES = ("down-set:formula", "up-set:formula", "down-set:table", "up-set:table")


def _check_topology(ctx: NestContext) -> tuple[int, list, list]:
    """Brute-force reach per region is the oracle for the member formulas,
    the reach tables the sweeps read and, by their fixed points, the constant
    Alexandroff family, and the theorem bound-covers reads: no strict reach
    is X.  All regions at once, in the universe's packed layout."""
    nest, rows = ctx.nest, ctx.order_rows
    masks, regions = nest.masks, nest.universe.regions
    down, up = regions.down_mask(rows), regions.up_mask(rows)
    by_complements = up_mask_by_complements(regions, masks)
    # each route's differences from the brute-force reach, in id order, and
    # the regions that reach covers: a finite nest order has maximal and
    # minimal points, which escape every strict reach
    routes = (
        down_mask_by_members(regions, masks) ^ down,
        by_complements ^ up,
        ctx.down_reach ^ down,
        ctx.up_reach ^ up,
    )
    never_full = regions.covers(down) | regions.covers(up)
    flagged = []
    if any(routes) or never_full:
        flagged = _flag_regions(regions, [
            *((pid, regions.nonzero(diff)) for pid, diff in zip(_REACH_ROUTES, routes)),
            ("reach:never-full", never_full),
        ])
    if not ctx.alexandroff == regions.fixed(ctx.up_reach) == regions.fixed(by_complements):
        flagged.append(("alexandroff:nest-formula", {}))
    return 1, flagged, []


def _flag_regions(regions: Regions, failures: list[tuple[str, int]]) -> list[tuple[str, dict]]:
    """One region payload per set field of each failure indicator: region by
    region in ascending order, and at each region the ids in the order
    given."""
    union = 0
    for _, failed in failures:
        union |= failed
    width = regions.width
    return [
        (pid, {"region": list(indices_of(mask))})
        for mask in regions.masks_of(union)
        for pid, failed in failures
        if failed >> mask * width & 1
    ]


@_suite("topology-engine", "subbase closure, order topologies, fixed-point families, join laws",
        max_members=None, max_n=4, iters=300)
def _suite_topology(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    rng = random.Random(config.seed)
    count, violations = _sweep(config, _check_topology)
    # join laws and interval topology on random nest pairs
    for _ in range(config.iters):
        n = rng.randint(1, 4)
        u = Universe(n)
        t1 = topology_from_subbase(random_family(rng, u, 3))
        t2 = topology_from_subbase(random_family(rng, u, 3))
        count += 1
        # the engine skips validation on its closures; the oracle puts
        # both through the validating constructor
        for closed in (t1, t2):
            if not _revalidates(closed):
                violations.append(Violation("subbase:closure-is-topology", {"universe": n}))
        joined = join(t1, t2)
        if join(t1, t1) != t1:
            violations.append(Violation("join:idempotent", {"universe": n}))
        if joined != join(t2, t1):
            violations.append(Violation("join:commutative", {"universe": n}))
        if not all(joined.is_open(o) for o in t1.opens + t2.opens):
            violations.append(Violation("join:upper-bound", {"universe": n}))
        indiscrete = Topology(u, (0, u.full_mask))
        if join(t1, indiscrete) != t1:
            violations.append(Violation("join:identity", {"universe": n}))
        pre = reflexive_closure(generated_order(random_nest(rng, u, 4)))
        tin = interval_topology(pre)
        for part in (upper_topology(pre), lower_topology(pre)):
            if not all(tin.is_open(o) for o in part.opens):
                violations.append(Violation("interval:contains-parts", {"universe": n}))
    # discrete-from-singletons, and the antichain order's lower topology
    for n in range(1, 5):
        u = Universe(n)
        singles = SetFamily(u, tuple(1 << i for i in range(n)))
        count += 1
        if not topology_from_subbase(singles).is_discrete():
            violations.append(Violation("subbase:singletons-discrete", {"universe": n}))
        diag = reflexive_closure(generated_order(SetFamily(u, ())))
        cosingles = SetFamily.dedupe(
            u, tuple((1 << i) ^ u.full_mask for i in range(n))
        )
        if lower_topology(diag) != topology_from_subbase(cosingles):
            violations.append(Violation("lower-topology:antichain", {"universe": n}))
        if upper_topology(diag) != topology_from_subbase(cosingles):
            violations.append(Violation("upper-topology:antichain", {"universe": n}))
    return count, violations, []


def _revalidates(closed: Topology) -> bool:
    """Whether the public `Topology` constructor accepts a closure's opens
    and rebuilds the same topology."""
    try:
        return Topology(closed.universe, closed.opens) == closed
    except InstanceError:
        return False


# --------------------------------------------------------- sup conditions --


def _check_sup(ctx: NestContext) -> tuple[int, list, list]:
    """Ladder, sup, order-topology and census facts of one nest, and the
    checks on its pair with the complement nest, whose violations carry pair
    payloads."""
    nest, cond, t0 = ctx.nest, ctx.sup_conditions, ctx.t0
    rows, sups = ctx.preorder_rows, ctx.sup_indices
    u = nest.universe
    masks, full = nest.masks, u.full_mask
    flagged = []
    if cond.sups_onto and not cond.sups_escape:
        flagged.append(("ladder:onto-escape", {}))
    if cond.sups_escape and not cond.sups_exist:
        flagged.append(("ladder:escape-exist", {}))
    if cond.sups_onto and not t0:
        flagged.append(("ladder:onto-t0", {}))
    # the ladder read off the blocks, against the ladder of the member sups
    if cond != _ladder(sups, full):
        flagged.append(("ladder:block-form", {}))

    # the sups read off the blocks, against the kernel on the preorder rows;
    # the up-set of a sup is its preorder row
    for mask, sup in sups.items():
        if sup != sup_index(rows, full, mask):
            flagged.append(("sup:block-form", {"member": mask}))
        if sup >= 0 and (full ^ rows[sup]) & ~mask:
            flagged.append(("sup:member-contains-downward", {"member": mask}))
    # the onto rungs imply the escape rungs, so one premise builds both
    # topologies
    if cond.sups_escape:
        t_nest = topology_from_subbase(nest)
        t_lower = lower_topology(Relation(u, rows))
        for mask, sup in sups.items():
            if mask != full ^ rows[sup]:
                flagged.append(("escape:member-equals-ray", {"member": mask}))
        if not all(t_lower.is_open(o) for o in t_nest.opens):
            flagged.append(("escape:nest-topology-in-lower", {}))
        if cond.sups_onto and t_nest != t_lower:
            flagged.append(("onto:nest-topology-is-lower", {}))

    # the census, decided per nest: onto fires only for {∅} on one point;
    # escape with T0 only on one point, where both are vacuous for the empty
    # nest and no member is nonempty; and escape past a nonempty member only
    # for a single member of at least two points that misses exactly one point
    one_point = u.size == 1
    if cond.sups_onto != (one_point and masks == (0,)):
        flagged.append(("census:onto-only-trivial", {}))
    if (cond.sups_escape and t0) != (one_point and masks in ((), (0,))):
        flagged.append(("census:escape-t0-inventory", {}))
    bare = cond.sups_escape and any(masks)
    if bare != (len(masks) == 1 and _co_singleton(masks[0], full) and masks[0].bit_count() > 1):
        flagged.append(("census:bare-escape-form", {}))

    # member lower-set views, as member indicators: where they disagree
    matches, lower, no_greatest = member_lower_set_views(ctx)
    split, greatest_split = matches ^ lower, (no_greatest ^ lower if t0 else 0)
    if split | greatest_split:
        for i, mask in enumerate(masks):
            if split >> i & 1:
                flagged.append(("lower-set:routes-agree", {"member": mask}))
            if greatest_split >> i & 1:
                flagged.append(("lower-set:t0-greatest", {"member": mask}))

    # the dual pair with the complement nest, which the context already
    # holds: a complement whose order is not the transpose leaves no pair
    try:
        pair = complement_dual(ctx)
    except InstanceError:
        flagged.append(("pair:complement-dual", {}))
        return 1, flagged, []
    return 1, flagged, _dual_pair_checks(pair)


def _co_singleton(mask: int, full: int) -> bool:
    """Whether the member misses exactly one point of X."""
    return (full ^ mask).bit_count() == 1


def _dual_pair_checks(pair: DualPair) -> list[tuple[str, dict]]:
    """The checks on one dual pair: the complement pair of every swept nest
    and every pair of the all-dual-pairs loop.  Premises first: the joint,
    interval and upper topologies and the orderability report are built only
    for the pairs whose premise fires."""
    left, right = pair.left, pair.right
    cond, dcond = sup_conditions(left), dual_sup_conditions(pair)
    out = []
    u = left.nest.universe
    masks = left.nest.masks + right.nest.masks

    def payload() -> dict:
        return {
            "universe": u.size,
            "left": family_to_dict(left.nest)["family"],
            "right": family_to_dict(right.nest)["family"],
        }

    # the right side's sups read off its blocks, against the inf route: the
    # kernel on the columns of the left preorder, the right one's transpose
    cols, full = left.preorder_columns, u.full_mask
    for mask, sup in right.sup_indices.items():
        if sup != sup_index(cols, full, mask):
            out.append(("dual:inf-route", {**payload(), "member": mask}))

    # the onto rungs imply the escape rungs, so the escape premise covers both
    if cond.sups_escape and dcond.sups_escape:
        both = topology_from_subbase(SetFamily.dedupe(u, masks))
        tin = interval_topology(Relation(u, left.preorder_rows))
        if not all(tin.is_open(o) for o in both.opens):
            out.append(("pair:escape-joint-in-interval", payload()))
        if any(masks):
            out.append(("census:paired-escape-empty-members", payload()))
        if cond.sups_onto and dcond.sups_onto and both != tin:
            out.append(("pair:onto-joint-is-interval", payload()))
    if dcond.sups_onto:
        if topology_from_subbase(right.nest) != upper_topology(Relation(u, left.preorder_rows)):
            out.append(("pair:dual-onto-upper", payload()))
    if any(lots_hypotheses(pair)) and not lots_report(pair).is_lots:
        out.append(("pair:lots-hypotheses", payload()))
    return out


@_suite("sup-conditions", "the sup-condition ladder, order-topology facts, dual pairs, and the "
        "firing census", max_members=None, max_n=4)
def _suite_sup_conditions(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    max_n, cap = config.max_n, config.max_members
    count, violations = _sweep(config, _check_sup)

    # all dual pairs (not just complements) at the smaller sizes
    pair_bound = min(max_n, 3)
    for n in range(1, pair_bound + 1):
        contexts = [
            NestContext(nest)
            for nest in enumerate_nests(Universe(n), max_members=cap, bound=max_n)
        ]
        buckets: dict[tuple, list[NestContext]] = {}
        for ctx in contexts:
            buckets.setdefault(ctx.order_rows, []).append(ctx)
        for ctx in contexts:
            for right in buckets.get(columns(ctx.order_rows), []):
                count += 1
                found = _dual_pair_checks(DualPair(ctx, right))
                violations += [Violation(pid, payload) for pid, payload in found]

    # the recorded hypothesis-failure witness for the greatest-element test
    u4 = Universe(4)
    quad = Nest.of(u4, [[0, 1], [0, 1, 2, 3]])
    witness = member_lower_set_report(quad, Subset.of(u4, [0, 1]))
    if witness.is_lower_set or not witness.no_greatest_element:
        violations.append(Violation(
            "lower-set:t0-hypothesis-witness",
            {"expected": "not lower yet no greatest element on the non-T0 quad nest"},
        ))

    # the census check admits one bare-escape nest per point of each
    # universe of three or more points: its single member misses that point
    bare = 0 if cap == 0 else sum(range(3, max_n + 1))
    # all dual pairs up to pair_bound points, complement pairs up to max_n
    if cap is None:
        scope, pair_scope, swept = "exhaustively", "exhaustively over all dual pairs", "every nest"
    else:
        scope = f"only on nests of at most {cap} members"
        pair_scope = f"only over the dual pairs of nests of at most {cap} members"
        swept = "each such nest"
    notes = [
        "the onto condition (every point an escaping sup) fires only for the "
        f"empty-member nest on a one-point universe, verified {scope}",
        "the paired escape condition on dual nests fires only for nests of "
        f"empty members, verified {pair_scope} on at most {pair_bound} points "
        f"and over the complement pair of {swept} on at most {max_n} points",
        f"the bare escape condition also fires for {bare} nests with a "
        "nonempty member (single co-singleton members, none T0-separating); "
        "the order-topology facts hold on every one of them",
    ]
    return count, violations, notes


# ------------------------------------------------------------ interlocking --


def _check_interlocking(ctx: NestContext) -> tuple[int, list, list]:
    nest = ctx.nest
    full = nest.universe.full_mask
    flagged = []
    by_def = is_interlocking(nest)
    by_alex = is_interlocking_via_alexandroff(ctx)
    by_lower = is_interlocking_via_lower_sets(ctx)
    if not (by_def == by_alex == by_lower):
        flagged.append((
            "interlocking:triple", {"by_def": by_def, "by_alex": by_alex, "by_lower": by_lower}
        ))
    # a region is closed when its complement is in the Alexandroff family,
    # whose indicators hold one bit per region; the field width is read
    # without building the universe's region layout
    alex, alex_c = ctx.alexandroff, ctx.dual.alexandroff
    width = field_width(nest.universe.size)
    for mask in nest.masks:
        if member_closed_by_intersections(nest, mask) != bool(alex >> (mask ^ full) * width & 1):
            flagged.append(("closed:intersection-form", {"member": mask}))
        if (member_union_of_smaller(nest, mask) == mask) != bool(alex_c >> mask * width & 1):
            flagged.append(("closed:union-form", {"member": mask}))
    return 1, flagged, []


@_suite("interlocking", "three-route equivalence of the interlocking property",
        max_members=None, max_n=4)
def _suite_interlocking(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    count, violations = _sweep(config, _check_interlocking)
    total = sum(count_nests(Universe(n)) for n in range(1, config.max_n + 1))
    notes = []
    if count < total:
        notes.append(
            f"nests are capped at {config.max_members} members: checked {count} of {total} nests"
        )
    return count, violations, notes


# ----------------------------------------------------------- bound covers --


def _check_bounds(ctx: NestContext) -> tuple[int, list, list]:
    """Every region of one nest, then every covering subfamily: one
    instance each.  No region's strict reach is X (topology-engine checks
    it), so a cover form fails where it finds a cover and, on T0-separating
    nests, a reflexive bound form where it finds no bound: all regions at
    once, in the packed layout of the universe.  On those nests the order
    is linear, so every member other than X has a strict upper bound, and
    every nonempty member holds the minimum and has no strict lower bound.
    The covers are only counted, in closed form, with
    `bounds.covering_subfamilies` as the oracle: every cover of a chain
    ends in X."""
    nest, t0 = ctx.nest, ctx.t0
    u = nest.universe
    masks, full = nest.masks, u.full_mask
    rows = ctx.order_rows
    pre_rows = ctx.preorder_rows if t0 else None
    regions = u.regions
    ones, nonzero = regions.ones, regions.nonzero
    down_bound = up_bound = 0
    if t0:
        down_bound = ones ^ nonzero(regions.upper_bounds(pre_rows))
        up_bound = ones ^ nonzero(regions.lower_bounds(pre_rows))
    # the empty region is field 0
    empty = int(not upper_bounds(rows, full, 0) or not lower_bounds(rows, 0))
    # the members not containing the region cover X, or the complements of
    # those meeting it do (their intersection is empty)
    flagged = _flag_regions(regions, [
        ("down:cover-form", regions.covers(down_mask_by_members(regions, masks))),
        ("up:intersection-form", regions.covers(up_mask_by_complements(regions, masks))),
        ("down:bound-dichotomy", down_bound),
        ("up:bound-dichotomy", up_bound),
        ("bounds:empty-region", empty),
    ])

    if t0:
        # the order is linear: its minimum, the point of the first nonempty
        # block, is the point whose preorder row is X (as a mask).  Every
        # nonempty member holds it, so none has a strict lower bound
        minimum = sum(1 << x for x in u.elements() if pre_rows[x] == full)
        for mask in masks:
            if mask != full and not upper_bounds(rows, full, mask):
                flagged.append(("member:strict-upper-bound", {"member": mask}))
            if mask and (not mask & minimum or lower_bounds(rows, mask)):
                flagged.append(("member:lower-bound-minimum", {"member": mask}))
    # one cover for each choice of the members below X, none without X
    return full + 1 + (1 << len(masks) - 1 if full in masks else 0), flagged, []


@_suite("bound-covers", "cover characterizations of reach and bound existence",
        max_members=None, max_n=4)
def _suite_bounds(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    count, violations = _sweep(config, _check_bounds)
    # the strict-bound form genuinely diverges from the dichotomy at the top
    u2 = Universe(2)
    nest2 = Nest.of(u2, [[0]])
    whole = Subset(u2, u2.full_mask)
    diverges = (
        not down_reach_covers(nest2, whole, want_witness=False).holds
        and not has_upper_bound(nest2, whole, strict=True)
    )
    if not diverges:
        violations.append(Violation(
            "bounds:strict-divergence-witness",
            {"expected": "strict upper bounds fail the dichotomy once the "
                         "region holds the maximum"},
        ))
    notes = [
        "reflexive bounds make the reach dichotomy exact on T0-separating "
        "nests; the strict form fails it whenever the region contains the "
        "top element (two-point witness re-verified)",
        "on finite universes every cover is finite, so the finite-subcover "
        "clause reduces to the single-member and empty-intersection forms "
        "checked above",
        "a nest order on a finite universe always has maximal and minimal "
        "elements, so the covering verdicts themselves never fire here; both "
        "routes agree on that everywhere, and the constructive witnesses "
        "only materialize on infinite carriers",
    ]
    return count, violations, notes


# ----------------------------------------------------- group compatibility --


@_suite("group-compatibility", "translation premises, order compatibility, and continuity of "
        "inversion/multiplication", iters=10_000)
def _suite_groups(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    rng = random.Random(config.seed)
    violations = []
    count = 0
    sweep_groups = ["z2", "z3", "z4", "z2xz2", "s3"]
    groups = {name: BUILTIN_GROUPS[name]() for name in sweep_groups}

    for name, group in groups.items():
        u = group.universe
        for nest in enumerate_nests(u, max_members=3, bound=u.size):
            count += 1
            if translation_closed(group, nest):
                if not order_compatible(group, nest):
                    violations.append(Violation(
                        "group:premise-compatible", {"group": name, "nest": _nest_payload(nest)}
                    ))
                if not nest_members_trivial(group, nest):
                    violations.append(Violation(
                        "group:premise-members-trivial",
                        {"group": name, "nest": _nest_payload(nest)},
                    ))

    z3 = groups["z3"]
    witness_nest = Nest.of(z3.universe, [[0]])
    count += 1
    if order_compatible(z3, witness_nest):
        violations.append(Violation(
            "group:z3-shift-incompatible", {"nest": _nest_payload(witness_nest)}
        ))

    # inversion and multiplication continuity: exhaustive on the smallest
    # groups (every family on z2, up to two members on z3), seeded random on
    # the rest; conclusion evaluated on premise hits.  A group's loops share
    # one table of its families' premises, dropped when they end
    exhaustive = {"z2": (4, True), "z3": (2, False)}
    sampled = ["z3", "z4", "z2xz2", "s3"]
    per_group = max(1, config.iters // len(sampled))
    for name, group in groups.items():
        premises = _PremiseTable(group)
        if name in exhaustive:
            most, cross = exhaustive[name]
            small = [f for f in enumerate_families(group.universe) if len(f) <= most]
            for left in small:
                for right in small:
                    count += 1
                    violations.extend(_continuity_checks(premises, name, left, right, cross))
        if name in sampled:
            for index in range(per_group):
                count += 1
                left = random_family(rng, group.universe, 3)
                right = random_family(rng, group.universe, 3)
                cross = name == "z3" and index % 50 == 0
                violations.extend(_continuity_checks(premises, name, left, right, cross))

    example = inversion_continuity(z3, SetFamily.of(z3.universe, [[1]]), SetFamily.of(z3.universe, [[2]]))
    count += 1
    if not (example.premise and example.continuous):
        violations.append(Violation("group:z3-inversion-example", {}))

    notes = [
        "translation-closed nests on the sweep groups contain only the empty "
        "set and the whole group, as cardinality plus nest totality force",
    ]
    return count, violations, notes


class _PremiseTable(dict):
    """The continuity premises of one group's families, each family's
    computed on its first lookup: ``table[masks]`` is ``(inverse,
    multiplies)`` for the family with those canonical masks, where
    ``inverse`` is the canonical masks of its members' elementwise inverses
    and ``multiplies`` its multiplication premise.  The groups are built-ins
    and the families fit them, so the kernels run without validation.
    """

    def __init__(self, group: FiniteGroup) -> None:
        super().__init__()
        self.group = group

    def __missing__(self, masks: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
        group = self.group
        inverse = canonical_masks(set_inverse(group, m) for m in masks)
        value = self[masks] = inverse, _product_factorization(group, masks)
        return value

    def inversion(self, left: SetFamily, right: SetFamily) -> bool:
        """`inversion_premise`: each family's inverses lie in the other.
        Inversion is an involution, so that holds exactly when the left
        family's inverse is the right family."""
        return self[left.masks][0] == right.masks

    def multiplication(self, left: SetFamily, right: SetFamily) -> bool:
        """`multiplication_premise` of both families."""
        return self[left.masks][1] and self[right.masks][1]


def _continuity_checks(
    premises: _PremiseTable, name: str, left: SetFamily, right: SetFamily, cross_check: bool
) -> list[Violation]:
    group, out = premises.group, []

    def payload() -> dict:
        return {
            "group": name,
            "left": family_to_dict(left)["family"],
            "right": family_to_dict(right)["family"],
        }

    inv_premise = premises.inversion(left, right)
    mul_premise = premises.multiplication(left, right)
    topo = None
    if inv_premise or mul_premise or cross_check:
        topo = subbase_topology(group, left, right)
    if inv_premise and not inversion_continuous(group, topo):
        out.append(Violation("group:inversion-implication", payload()))
    if mul_premise and not multiplication_continuous(group, topo):
        out.append(Violation("group:multiplication-implication", payload()))
    if cross_check:
        if multiplication_continuous(group, topo) != multiplication_continuous_via_product(group, topo):
            out.append(Violation("group:continuity-routes", payload()))
    return out


# ------------------------------------------------------------------- rays --


@_suite("ray-classification", "ray decision table coherence and symbolic order cross-checks")
def _suite_rays(config: SuiteConfig) -> tuple[int, list[Violation], list[str]]:
    violations = []
    count = 0
    one = Quadratic.rational(1)
    half = Quadratic.rational(Fraction(1, 2))
    battery: list[RayNest] = []
    windows = [None, Window(Quadratic.rational(0), one)]
    endpoint_sets = [
        EndpointSet.all_carrier(),
        EndpointSet.dense_interval(half, one),
        EndpointSet.dense_interval(Quadratic.rational(Fraction(1, 4)), Quadratic.rational(2)),
        EndpointSet.progression(Quadratic.rational(0), one),
        EndpointSet.progression(half, Quadratic.rational(Fraction(1, 3))),
        EndpointSet.finite([Quadratic.sqrt2()]),
        EndpointSet.finite([Quadratic.rational(Fraction(1, 3)), half]),
        EndpointSet.finite([]),
    ]
    for kind in ("Q", "Qsqrt2"):
        for window in windows:
            carrier = Carrier(kind, window)
            for eps in endpoint_sets:
                for shape in ("open", "closed"):
                    battery.append(RayNest(carrier, shape, eps))

    for nest in battery:
        count += 1
        cond = ray_sup_conditions(nest)
        if cond.sups_onto and not cond.sups_escape:
            violations.append(Violation("ray:ladder-onto-escape", _ray_payload(nest)))
        if cond.sups_escape and not cond.sups_exist:
            violations.append(Violation("ray:ladder-escape-exist", _ray_payload(nest)))
        if cond.sups_onto and not separates(nest):
            violations.append(Violation("ray:onto-t0", _ray_payload(nest)))
        mirrored = ray_dual(ray_dual(nest))
        if ray_sup_conditions(mirrored) != cond or separates(mirrored) != separates(nest):
            violations.append(Violation("ray:mirror-involution", _ray_payload(nest)))
        if separates(ray_dual(nest)) != separates(nest):
            violations.append(Violation("ray:mirror-t0", _ray_payload(nest)))
        witness = separation_witness(nest)
        if (witness is None) != separates(nest):
            violations.append(Violation("ray:witness-presence", _ray_payload(nest)))
        if witness is not None:
            x, y = (Quadratic.rational(v) for v in witness)
            if not x < y or order_holds(nest, x, y) or order_holds(nest, y, x):
                violations.append(Violation("ray:witness-valid", _ray_payload(nest)))
        matches, _why = order_matches_carrier(nest)
        if matches != separates(nest):
            violations.append(Violation("ray:order-match-rule", _ray_payload(nest)))

    # carrier consistency on rational data
    for window in windows:
        for eps in endpoint_sets:
            if eps.kind == "finite_list" and any(not p.is_rational for p in eps.points):
                continue
            for shape in ("open", "closed"):
                count += 1
                on_q = RayNest(Carrier("Q", window), shape, eps)
                on_q2 = RayNest(Carrier("Qsqrt2", window), shape, eps)
                if ray_sup_conditions(on_q) != ray_sup_conditions(on_q2) or separates(
                    on_q
                ) != separates(on_q2):
                    violations.append(Violation("ray:carrier-consistency", _ray_payload(on_q)))

    # symbolic order agrees with the carrier order when the table says so
    probes = [Fraction(-3, 2), Fraction(-1, 3), Fraction(0), Fraction(2, 5), Fraction(7, 8)]
    for nest in battery:
        if nest.carrier.window is not None:
            continue
        matches, _ = order_matches_carrier(nest)
        count += 1
        for a in probes:
            for b in probes:
                x, y = Quadratic.rational(a), Quadratic.rational(b)
                holds = order_holds(nest, x, y)
                if matches and holds != (a < b):
                    violations.append(Violation(
                        "ray:order-evaluation", _ray_payload(nest, pair=[str(a), str(b)])
                    ))
                if holds and not a < b:
                    violations.append(Violation(
                        "ray:order-respects-carrier", _ray_payload(nest, pair=[str(a), str(b)])
                    ))

    # group compatibility witnesses re-checked through the symbolic order
    for eps in endpoint_sets:
        for shape in ("open", "closed"):
            nest = RayNest(Carrier("Qsqrt2"), shape, eps)
            count += 1
            report = group_compatibility("add", nest)
            if eps.kind == "all_carrier":
                if not (report.premise_translation_closed and report.compatible):
                    violations.append(Violation("ray:add-dense-compatible", _ray_payload(nest)))
            elif eps.kind == "finite_list" and not eps.points:
                if not report.compatible:
                    violations.append(Violation("ray:add-empty-compatible", _ray_payload(nest)))
            else:
                if report.compatible or report.premise_translation_closed:
                    violations.append(Violation("ray:add-gap-incompatible", _ray_payload(nest)))
            scale = group_compatibility("multiply", nest)
            if eps.kind != "finite_list" or eps.points:
                if scale.compatible or scale.witness is None:
                    violations.append(Violation("ray:multiply-incompatible", _ray_payload(nest)))
            for pid, produced in (("ray:add-witness", report), ("ray:multiply-witness", scale)):
                if not _counterexample_holds(nest, produced):
                    violations.append(Violation(pid, _ray_payload(nest)))
    count += 1
    shift_nest = RayNest(
        Carrier("Qsqrt2"), "open", EndpointSet.progression(Quadratic.rational(0), one)
    )
    shift_report = group_compatibility("add", shift_nest)
    if shift_report.premise_translation_closed or shift_report.compatible:
        violations.append(Violation(
            "ray:integer-steps-shift", {"expected": "one-sided progressions are not shift-invariant"}
        ))
    if not _counterexample_holds(shift_nest, shift_report):
        violations.append(Violation("ray:add-witness", _ray_payload(shift_nest)))
    notes = [
        "one-sided integer-step rays are incompatible with every nontrivial "
        "shift subgroup: shifting a related pair into the endpoint-free region "
        "below the first endpoint unrelates it (witness recorded in the report)",
    ]
    return count, violations, notes


def _counterexample_holds(nest: RayNest, report: GroupCompatReport) -> bool:
    """An incompatible report carries (x, y, g) with x below y and x∘g not
    below y∘g; a compatible one carries none."""
    if report.compatible:
        return report.counterexample is None
    if report.counterexample is None:
        return False
    x, y, g = report.counterexample
    act = (lambda v: v + g) if report.operation == "add" else (lambda v: v * g)
    return order_holds(nest, x, y) and not order_holds(nest, act(x), act(y))


def _ray_payload(nest: RayNest, **extra) -> dict:
    doc = ray_to_dict(nest)
    doc.update(extra)
    return doc


# ------------------------------------------------------------------ runner --


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, config: SuiteConfig | None = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    suite = SUITES[name]
    given = {k: v for k, v in asdict(config or SuiteConfig()).items() if v is not None}
    config = replace(suite.defaults, **given)
    started = time.perf_counter()
    count, violations, notes = suite.run(config)
    elapsed = (time.perf_counter() - started) * 1000.0
    return SuiteReport(
        suite=name,
        # the seed and the fields the suite reads; the worker count stays
        # out: it must not influence the document
        config={
            k: v for k, v in asdict(config).items()
            if v is not None and (k == "seed" or k in suite.reads)
        },
        instances=count,
        violations=sort_violations(violations),
        wall_ms=elapsed,
        notes=tuple(notes),
    )
