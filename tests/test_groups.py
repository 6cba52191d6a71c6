import random
from itertools import combinations

import pytest

from nestkit.core import InstanceError, Nest, SetFamily, Subset, Universe
from nestkit.groups import (
    BUILTIN_GROUPS,
    FiniteGroup,
    inversion_continuity,
    inversion_continuous,
    inversion_premise,
    multiplication_continuity,
    multiplication_continuous,
    multiplication_continuous_via_product,
    multiplication_premise,
    nest_members_trivial,
    order_compatible,
    set_inverse,
    set_product,
    subbase_topology,
    translate,
    translation_closed,
)
from nestkit.topology import topology_from_subbase

from reference import O, members

Z3 = FiniteGroup.cyclic(3)
Z4 = FiniteGroup.cyclic(4)


def test_builtins_are_groups():
    for name, make in BUILTIN_GROUPS.items():
        group = make()
        e = group.identity
        for a in range(group.order):
            assert group.mul(a, group.inverse[a]) == e
            assert group.mul(e, a) == a
    s3 = BUILTIN_GROUPS["s3"]()
    assert any(
        s3.mul(a, b) != s3.mul(b, a)
        for a in range(6)
        for b in range(6)
    )
    assert BUILTIN_GROUPS["d4"]().order == 8


def test_invalid_tables_rejected():
    with pytest.raises(InstanceError):
        FiniteGroup(((0, 1), (1, 1)))  # the and-monoid: 1 has no inverse
    with pytest.raises(InstanceError):
        # subtraction mod 3 is a quasigroup without a two-sided identity
        FiniteGroup(tuple(tuple((a - b) % 3 for b in range(3)) for a in range(3)))
    with pytest.raises(InstanceError):
        FiniteGroup(((0, 1), (1, 2)))  # entry out of range
    # a relabelled two-cycle is still a group even with identity index 1
    assert FiniteGroup(((1, 0), (0, 1))).identity == 1


def test_translate():
    u = Z3.universe
    s = Subset.of(u, [0])
    assert translate(Z3, 1, s, "left").indices == (1,)
    assert translate(Z3, 0, s, "left") == s
    shifted = translate(Z3, 2, Subset.of(u, [0, 1]), "right")
    assert translate(Z3, Z3.inverse[2], shifted, "right").indices == (0, 1)
    with pytest.raises(ValueError):
        translate(Z3, 1, s, "sideways")


def test_translate_rejects_elements_outside_the_group():
    # a negative element used to wrap around to the last one
    s = Subset.of(Z3.universe, [0])
    for g in (-1, -3, 3):
        for side in ("left", "right"):
            with pytest.raises(InstanceError, match=f"element index {g} out of range for size 3"):
                translate(Z3, g, s, side)


def test_translation_closed():
    u4 = Z4.universe
    assert not translation_closed(Z4, SetFamily.of(u4, [[0, 1]]))
    assert translation_closed(Z4, SetFamily.of(u4, [[]]))
    assert translation_closed(Z4, SetFamily.of(u4, [[], [0, 1, 2, 3]]))


def test_order_compatible():
    u = Z3.universe
    assert not order_compatible(Z3, Nest.of(u, [[0]]))
    assert order_compatible(Z3, Nest.of(u, [[]]))
    assert order_compatible(Z3, Nest.of(u, [[], [0, 1, 2]]))
    assert nest_members_trivial(Z3, Nest.of(u, [[], [0, 1, 2]]))
    assert not nest_members_trivial(Z3, Nest.of(u, [[0]]))


def test_set_algebra():
    u = Z3.universe
    assert set_product(Z3, 0b011, 0b001) == 0b011
    assert set_inverse(Z3, 0b010) == 0b100  # 1^-1 = 2 in the 3-cycle
    for make in BUILTIN_GROUPS.values():
        group = make()
        for mask in range(group.universe.full_mask + 1):
            want = sum(1 << group.inverse[a] for a in range(group.order) if mask >> a & 1)
            assert set_inverse(group, mask) == want


def test_inversion_continuity():
    u = Z3.universe
    left = SetFamily.of(u, [[1]])
    right = SetFamily.of(u, [[2]])
    report = inversion_continuity(Z3, left, right)
    assert report.premise and report.continuous
    whole = SetFamily.of(u, [[0, 1, 2]])
    report = inversion_continuity(Z3, whole, whole)
    assert report.premise and report.continuous
    # a one-sided family misses the premise
    report = inversion_continuity(Z3, left, SetFamily.of(u, []))
    assert not report.premise


def test_multiplication_continuity():
    u = Z3.universe
    whole = SetFamily.of(u, [[0, 1, 2]])
    report = multiplication_continuity(Z3, whole, SetFamily.of(u, []))
    assert report.premise and report.continuous
    singles = SetFamily.of(u, [[0], [1], [2]])
    report = multiplication_continuity(Z3, singles, SetFamily.of(u, []))
    assert report.premise and report.continuous  # discrete topology
    partial = SetFamily.of(u, [[0, 1]])
    assert not multiplication_continuity(Z3, partial, partial).premise


def test_continuity_routes_agree():
    z2 = BUILTIN_GROUPS["z2"]()
    for pick_l in range(16):
        for pick_r in range(0, 16, 3):
            left = SetFamily(z2.universe, tuple(m for m in range(4) if pick_l >> m & 1))
            right = SetFamily(z2.universe, tuple(m for m in range(4) if pick_r >> m & 1))
            topo = subbase_topology(z2, left, right)
            assert multiplication_continuous(z2, topo) == (
                multiplication_continuous_via_product(z2, topo)
            )


def _continuous_by_any_rectangle(group: FiniteGroup, topo) -> bool:
    """The rectangle form of multiplication continuity over all opens: every
    pair (x, y) with x*y in an open T sits inside some open rectangle U x V
    with U*V inside T.  It stays beside `O.multiplication_continuous`, which
    states the same over frozensets but takes some 200 times longer on the
    topologies below (about 50 s against 0.2 s)."""
    n, table = group.order, group.table

    def product(a, b):
        return sum({1 << table[x][y] for x in range(n) if a >> x & 1
                    for y in range(n) if b >> y & 1})

    opens_at = [[o for o in topo.opens if o >> x & 1] for x in range(n)]
    return all(
        any(product(u, v) & ~target == 0 for u in opens_at[x] for v in opens_at[y])
        for target in topo.opens for x in range(n) for y in range(n)
        if target >> table[x][y] & 1
    )


def _coset_families(group: FiniteGroup) -> list[SetFamily]:
    """The left cosets of each cyclic subgroup: group topologies and premise
    hits where the subgroup is normal, misses where it is not."""
    out = []
    for g in range(group.order):
        sub, x = 0, group.identity
        while not sub >> x & 1:
            sub |= 1 << x
            x = group.mul(x, g)
        cosets = (set_product(group, 1 << a, sub) for a in range(group.order))
        out.append(SetFamily.dedupe(group.universe, cosets))
    return out


def test_minimal_rectangles_match_the_rectangle_routes():
    # every subbase of at most three members on the groups of order at most
    # four, against both rectangle routes; the product route's topology on
    # s3 and d4 is too large, so seeded subbases there meet the rectangle
    # form only
    rng = random.Random(14)
    for name in BUILTIN_GROUPS:
        group = BUILTIN_GROUPS[name]()
        u = group.universe
        if group.order <= 4:
            subbases = [SetFamily(u, masks) for k in range(4)
                        for masks in combinations(range(u.full_mask + 1), k)]
        else:
            subbases = [SetFamily.dedupe(u, (rng.randrange(1 << group.order)
                                             for _ in range(rng.randint(1, 3))))
                        for _ in range(1000)]
        topologies = {topology_from_subbase(f) for f in subbases + _coset_families(group)}
        verdicts = [multiplication_continuous(group, topo) for topo in topologies]
        assert True in verdicts and False in verdicts, name
        assert verdicts == [_continuous_by_any_rectangle(group, topo) for topo in topologies]
        if group.order <= 4:
            assert verdicts == [
                multiplication_continuous_via_product(group, topo) for topo in topologies]


def test_pair_mask_premise_matches_set_products():
    rng = random.Random(14)
    for name, make in BUILTIN_GROUPS.items():
        group = make()
        u = group.universe
        families = [SetFamily.dedupe(u, (rng.randrange(1 << group.order)
                                         for _ in range(rng.randint(0, 4))))
                    for _ in range(500)]
        families += _coset_families(group)
        verdicts = [multiplication_premise(group, family) for family in families]
        assert True in verdicts and False in verdicts, name
        assert verdicts == [O.multiplication_premise(group.table, members(family))
                            for family in families]


# the group predicates compare sizes at their boundary: a universe of the
# group's order passes whatever its labels, any other size raises

def test_translate_checks_the_subset_size():
    with pytest.raises(InstanceError, match="subset lives on 5 points"):
        translate(Z4, 1, Subset.of(Universe(5), [4]), "left")
    with pytest.raises(InstanceError, match="subset lives on 3 points"):
        translate(Z4, 1, Subset.of(Universe(3), [0]), "right")
    assert translate(Z4, 1, Subset.of(Universe(4), [3]), "left").indices == (0,)


def test_translation_closed_checks_the_family_size():
    with pytest.raises(InstanceError, match="family lives on 3 points"):
        translation_closed(Z4, Nest.of(Universe(3), [[0]]))
    assert translation_closed(Z4, Nest.of(Universe(4), [[], [0, 1, 2, 3]]))


def test_order_compatible_checks_the_nest_size():
    with pytest.raises(InstanceError, match="nest lives on 5 points"):
        order_compatible(Z4, Nest.of(Universe(5), [[4]]))
    with pytest.raises(InstanceError, match="nest lives on 3 points"):
        order_compatible(Z4, Nest.of(Universe(3), [[0]]))
    assert order_compatible(Z4, Nest.of(Universe(4), [[]]))


def test_nest_members_trivial_checks_the_nest_size():
    with pytest.raises(InstanceError, match="nest lives on 3 points"):
        nest_members_trivial(Z4, Nest.of(Universe(3), [[], [0, 1, 2]]))


def test_continuity_reports_check_both_family_sizes():
    good = SetFamily.of(Universe(3), [[1]])
    bad = SetFamily.of(Universe(2), [[1]])
    for report in (inversion_continuity, multiplication_continuity):
        with pytest.raises(InstanceError, match="lives on 2 points"):
            report(Z3, good, bad)
        with pytest.raises(InstanceError, match="lives on 2 points"):
            report(Z3, bad, good)
        report(Z3, good, good)


def test_continuity_premises_check_the_family_sizes():
    good = SetFamily.of(Universe(3), [[1]])
    bad = SetFamily.of(Universe(4), [[3]])
    with pytest.raises(InstanceError, match="right family lives on 4 points"):
        inversion_premise(Z3, good, bad)
    with pytest.raises(InstanceError, match="family lives on 4 points"):
        multiplication_premise(Z3, bad)
    with pytest.raises(InstanceError, match="left family lives on 4 points"):
        subbase_topology(Z3, bad, good)


def test_continuity_forms_check_the_topology_size():
    z2 = BUILTIN_GROUPS["z2"]()
    wrong = subbase_topology(Z3, SetFamily.of(Z3.universe, [[0]]), SetFamily.of(Z3.universe, []))
    for form in (inversion_continuous, multiplication_continuous,
                 multiplication_continuous_via_product):
        with pytest.raises(InstanceError, match="topology lives on 3 points"):
            form(z2, wrong)
        assert form(Z3, wrong) in (True, False)
