import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from nestkit import suites
from nestkit.core import InstanceError
from nestkit.rays import (
    Carrier,
    EndpointSet,
    Interval,
    Quadratic,
    RayNest,
    Window,
    dual,
    dual_sup_conditions,
    exists_endpoint_between,
    group_compatibility,
    order_holds,
    order_matches_carrier,
    rational_between,
    separates,
    separation_witness,
    sup_conditions,
)

Q = Quadratic.rational
R2 = Quadratic.sqrt2
LINE = Carrier("Qsqrt2")
UNIT = Carrier("Qsqrt2", Window(Q(0), Q(1)))


def test_quadratic_arithmetic_and_order():
    x = Q(Fraction(1, 2)) + R2(Fraction(1, 3))
    assert x.a == Fraction(1, 2) and x.b == Fraction(1, 3)
    assert (R2() * R2()).a == 2
    assert (x - x).sign() == 0
    assert Q(1) < R2() < Q(2) < R2(2)
    assert R2() > Q(Fraction(7, 5))  # 1.4 < sqrt2
    assert R2() < Q(Fraction(3, 2))
    # pairs with equal nonzero sqrt2 parts, then pairs with different ones
    values = [Q(a) + R2(b) for a in (-1, Fraction(1, 2), 2) for b in (Fraction(-2, 3), 1)]
    for y in values:
        for x in values + [Q(2) + y, y - Q(Fraction(1, 3)), R2() + y]:
            s = (x - y).sign()
            assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (R2() / R2()).a == 1
    assert (Q(1) / (Q(1) + R2())).b == Fraction(1)  # 1/(1+√2) = -1+√2
    with pytest.raises(ZeroDivisionError):
        Q(1) / Q(0)


def test_quadratic_floor_and_between():
    assert Q(Fraction(7, 2)).floor() == 3
    assert Q(-Fraction(7, 2)).floor() == -4
    assert R2().floor() == 1
    assert (R2(3)).floor() == 4  # 3*sqrt2 = 4.2426
    assert (-R2()).floor() == -2
    q = rational_between(Q(0), R2(Fraction(1, 100)))
    assert Q(0) < Q(q) < R2(Fraction(1, 100))
    with pytest.raises(ValueError):
        rational_between(Q(1), Q(1))



def test_quadratic_floor_matches_exact_comparisons():
    # floor(q) is the one integer n with n <= q < n + 1, decided exactly
    values = [Fraction(p, q) for p in range(-13, 14) for q in (1, 2, 3, 7)]
    for a in values:
        for b in values[::3]:
            x = Quadratic(a, b)
            n = x.floor()
            assert Q(n) <= x < Q(n + 1), (a, b)


def test_quadratic_floor_is_exact_past_float_range(time_limit):
    with time_limit(2):
        big = Fraction(10**400)
        assert Quadratic(big, Fraction(1)).floor() == 10**400 + 1
        assert Quadratic(-big, Fraction(1)).floor() == -(10**400) + 1
        assert Quadratic(big, Fraction(-1)).floor() == 10**400 - 2
        # a float seed lands thousands of integers away at this magnitude
        assert Quadratic(Fraction(10**24) + Fraction(1, 3), Fraction(1)).floor() == 10**24 + 1
        tiny = Fraction(1, 10**400)
        assert Quadratic(tiny, Fraction(0)).floor() == 0
        assert Quadratic(-tiny, Fraction(0)).floor() == -1


def test_rational_between_narrow_intervals(time_limit):
    with time_limit(2):
        for exponent in (20, 25, 100):
            hi = R2() + Q(Fraction(1, 10**exponent))
            q = rational_between(R2(), hi)
            assert R2() < Q(q) < hi


def _rational_between_by_scaling(lo, hi):
    """The dyadic search in Quadratic arithmetic: scale lo by 2^k, take the
    floor, and compare the candidate with hi."""
    k = 0
    while True:
        scale = 1 << k
        candidate = Fraction(lo.scaled(scale).floor() + 1, scale)
        if Q(candidate) < hi:
            return candidate
        k += 1


def test_rational_between_matches_the_scaled_search_on_seeded_intervals():
    rng = random.Random(60)
    kinds = set()
    for _ in range(2000):
        end = Quadratic(
            Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
            rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 7))]),
        )
        # a positive width a + b*sqrt(2) with a > 0, b >= 0, down to 2^-60,
        # taken above or below the drawn end
        width = Quadratic(
            Fraction(rng.randint(1, 9), rng.randint(1, 9) << rng.randint(0, 60)),
            rng.choice([0, Fraction(1, 1 << rng.randint(0, 60))]),
        )
        lo, hi = (end, end + width) if rng.random() < 0.5 else (end - width, end)
        want = _rational_between_by_scaling(lo, hi)
        assert rational_between(lo, hi) == want, (lo, hi)
        assert lo < Q(want) < hi
        kinds.add((lo.is_rational, hi.is_rational, lo.sign(), hi.sign()))
    # rational and irrational ends on both sides of zero
    assert {(True, True), (False, False), (True, False), (False, True)} <= {k[:2] for k in kinds}
    assert {-1, 1} <= {k[2] for k in kinds} and {-1, 1} <= {k[3] for k in kinds}


def test_quadratic_fields_are_exact_fractions_whatever_they_are_built_from():
    for a, b in ((3, "1/2"), ("7/3", True), (Fraction(5, 4), 0), (False, Fraction(-2, 6))):
        built = Quadratic(a, b)
        want = Quadratic(Fraction(a), Fraction(b))
        assert type(built.a) is Fraction and type(built.b) is Fraction
        assert built == want and hash(built) == hash(want)
    assert type(Quadratic(2).b) is Fraction


def _ray_contains(nest, x, endpoint):
    """Membership of a carrier point in the ray with the given endpoint."""
    if not nest.carrier.contains(x):
        raise InstanceError(f"{x.render()} lies outside the carrier window")
    diff = (x - endpoint).sign()
    if nest.orientation == "lower":
        return diff < 0 if nest.shape == "open" else diff <= 0
    return diff > 0 if nest.shape == "open" else diff >= 0


def test_ray_membership():
    nest = RayNest(LINE, "open", EndpointSet.all_carrier())
    assert _ray_contains(nest, Q(Fraction(1, 2)), Q(1))
    assert not _ray_contains(nest, Q(1), Q(1))
    closed = RayNest(LINE, "closed", EndpointSet.all_carrier())
    assert _ray_contains(closed, Q(1), Q(1))
    assert _ray_contains(
        RayNest(Carrier("Qsqrt2"), "open", EndpointSet.all_carrier()), R2(), Q(2)
    )  # sqrt2 < 2 by the square comparison
    windowed = RayNest(UNIT, "open", EndpointSet.all_carrier())
    with pytest.raises(InstanceError):
        _ray_contains(windowed, Q(2), Q(1))


def test_windows_and_carriers():
    assert UNIT.contains(Q(Fraction(1, 2)))
    assert not UNIT.contains(Q(1))
    assert not Carrier("Q").contains(R2())
    with pytest.raises(InstanceError):
        Window(Q(1), Q(0))


def test_endpoint_sets_reject_an_unknown_kind_and_non_boolean_flags():
    with pytest.raises(InstanceError, match="kind"):
        EndpointSet("bogus")
    for flags, field in ((("false", False), "include_lo"), ((True, 1), "include_hi")):
        with pytest.raises(InstanceError, match=field):
            EndpointSet.dense_interval(Q(0), Q(1), *flags)
    with pytest.raises(InstanceError, match="include_hi"):
        EndpointSet("finite_list", include_hi=None)


def _in_by_signs(interval, x):
    """Membership by the definition: the sign of x - lo and of hi - x."""
    above = interval.lo is None or (x - interval.lo).sign() > (0 if interval.lo_open else -1)
    below = interval.hi is None or (interval.hi - x).sign() > (0 if interval.hi_open else -1)
    return above and below


def test_interval_laws_against_the_definition_on_a_quadratic_grid():
    ends = [Q(0), R2() - Q(1), Q(Fraction(1, 2)), Q(1)]
    # every end, a point past each side, and inside each gap between ends a
    # rational one, which both carriers' fields hold
    probes = ends + [Q(rational_between(a, b)) for a, b in zip(ends, ends[1:])] + [Q(-1), Q(2)]
    sides = [(None, True)] + [(e, is_open) for e in ends for is_open in (True, False)]
    intervals = [
        Interval(lo, hi, lo_open, hi_open) for lo, lo_open in sides for hi, hi_open in sides
    ]
    members = {}
    for a in intervals:
        members[a] = frozenset(i for i, x in enumerate(probes) if _in_by_signs(a, x))
        assert members[a] == {i for i, x in enumerate(probes) if a.contains(x)}
        for carrier in (Carrier("Q"), LINE):
            assert a.has_point(carrier) == any(carrier.in_field(probes[i]) for i in members[a])
        interior = Interval(a.lo, a.hi)
        if any(_in_by_signs(interior, x) for x in probes):
            assert _in_by_signs(interior, Q(a.point()))
    for a in intervals:
        for b in intervals:
            meet = a.meet(b)
            assert {i for i, x in enumerate(probes) if meet.contains(x)} == members[a] & members[b]
            if members[a]:
                assert a.within(b) == (members[a] <= members[b])


def test_sup_condition_table():
    half, one = Q(Fraction(1, 2)), Q(1)
    open_dense = RayNest(LINE, "open", EndpointSet.all_carrier())
    assert sup_conditions(open_dense) == type(sup_conditions(open_dense))(True, True, True)
    closed_window = RayNest(UNIT, "closed", EndpointSet.dense_interval(half, one))
    cond = sup_conditions(closed_window)
    assert cond.sups_exist and not cond.sups_escape
    open_window = RayNest(UNIT, "open", EndpointSet.dense_interval(half, one))
    cond = sup_conditions(open_window)
    assert cond.sups_escape and not cond.sups_onto
    irrational = RayNest(Carrier("Q"), "open", EndpointSet.finite([R2()]))
    assert not sup_conditions(irrational).sups_exist
    naturals = RayNest(LINE, "open", EndpointSet.progression(Q(0), Q(1)))
    cond = sup_conditions(naturals)
    assert cond.sups_escape and not cond.sups_onto


def test_t0_rule_and_witnesses():
    assert separates(RayNest(LINE, "closed", EndpointSet.all_carrier()))
    gappy = RayNest(UNIT, "closed", EndpointSet.dense_interval(Q(Fraction(1, 2)), Q(1)))
    witness = separation_witness(gappy)
    assert witness is not None
    x, y = witness
    assert Q(0) < Q(x) < Q(y) < Q(Fraction(1, 2))
    naturals = RayNest(LINE, "open", EndpointSet.progression(Q(0), Q(1)))
    assert not separates(naturals)
    wx, wy = separation_witness(naturals)
    assert not order_holds(naturals, Q(wx), Q(wy))


def test_order_matches_carrier():
    matched, why = order_matches_carrier(RayNest(LINE, "open", EndpointSet.all_carrier()))
    assert matched and "dense" in why
    failed, why = order_matches_carrier(
        RayNest(LINE, "open", EndpointSet.progression(Q(0), Q(1)))
    )
    assert not failed and "no ray endpoint" in why
    failed, _ = order_matches_carrier(RayNest(LINE, "open", EndpointSet.finite([Q(0)])))
    assert not failed


def test_dual_mirror():
    naturals = RayNest(LINE, "open", EndpointSet.progression(Q(0), Q(1)))
    mirrored = dual(naturals)
    assert mirrored.orientation == "upper"
    assert dual(mirrored) == naturals
    assert dual_sup_conditions(naturals) == sup_conditions(naturals)
    assert separates(mirrored) == separates(naturals)
    # upper-ray order is the reverse of the carrier order where endpoints allow
    assert order_holds(mirrored, Q(2), Q(1))
    assert not order_holds(mirrored, Q(1), Q(2))


def test_symbolic_order_evaluation():
    dense = RayNest(LINE, "open", EndpointSet.all_carrier())
    assert order_holds(dense, Q(0), Q(1))
    assert not order_holds(dense, Q(1), Q(0))
    assert not order_holds(dense, Q(1), Q(1))
    closed = RayNest(LINE, "closed", EndpointSet.all_carrier())
    assert order_holds(closed, Q(0), Q(1))
    finite = RayNest(LINE, "open", EndpointSet.finite([R2()]))
    assert order_holds(finite, Q(1), Q(2))  # sqrt2 in (1, 2]
    assert not order_holds(finite, Q(2), Q(3))
    assert exists_endpoint_between(finite, Q(1), Q(2), True, False)
    assert not exists_endpoint_between(finite, Q(2), Q(3), True, False)


def test_group_compatibility():
    dense = RayNest(LINE, "open", EndpointSet.all_carrier())
    add = group_compatibility("add", dense)
    assert add.premise_translation_closed and add.compatible
    mult = group_compatibility("multiply", dense)
    assert not mult.compatible and mult.witness
    naturals = RayNest(LINE, "open", EndpointSet.progression(Q(0), Q(1)))
    shifted = group_compatibility("add", naturals)
    assert not shifted.premise_translation_closed and not shifted.compatible
    assert "gap" in shifted.witness
    with pytest.raises(ValueError):
        group_compatibility("add", RayNest(UNIT, "open", EndpointSet.all_carrier()))
    with pytest.raises(ValueError):
        group_compatibility("divide", dense)


def test_additive_witness_is_sound():
    # re-check every recorded witness through the symbolic order: x is below
    # y, and the shifted (or negated) pair is not
    for eps in (
        EndpointSet.progression(Q(0), Q(1)),
        EndpointSet.progression(Q(Fraction(1, 2)), Q(Fraction(1, 3))),
        EndpointSet.dense_interval(Q(Fraction(1, 2)), Q(1)),
        EndpointSet.dense_interval(Q(Fraction(1, 4)), Q(2)),
        EndpointSet.finite([R2()]),
        EndpointSet.finite([Q(0), Q(2)]),
    ):
        for shape in ("open", "closed"):
            nest = RayNest(LINE, shape, eps)
            for operation, act in (
                ("add", lambda v, g: v + g),
                ("multiply", lambda v, g: v * g),
            ):
                report = group_compatibility(operation, nest)
                assert not report.compatible and report.witness is not None
                x, y, g = report.counterexample
                assert order_holds(nest, x, y)
                assert not order_holds(nest, act(x, g), act(y, g))
                assert suites._counterexample_holds(nest, report)
                # the suite's re-check rejects a witness that does not unrelate
                swapped = dataclasses.replace(report, counterexample=(y, x, g))
                assert not suites._counterexample_holds(nest, swapped)
            assert report.counterexample[2] == Q(-1)


def test_compatible_reports_carry_no_counterexample():
    for eps, operation in (
        (EndpointSet.all_carrier(), "add"),
        (EndpointSet.finite([]), "add"),
        (EndpointSet.finite([]), "multiply"),
    ):
        report = group_compatibility(operation, RayNest(LINE, "open", eps))
        assert report.compatible and report.counterexample is None
        assert suites._counterexample_holds(RayNest(LINE, "open", eps), report)


def _grid_nests():
    """Nests beyond the suite's battery: half-bounded windows and windows with
    irrational ends; every include combination of dense intervals; progressions
    starting below, inside and above a window; finite lists with points outside
    it."""
    half, one, root = Q(Fraction(1, 2)), Q(1), R2()
    windows = [
        None,
        Window(Q(0), one),
        Window(None, one),
        Window(half, None),
        Window(Q(0), root),
        Window(-root, half),
    ]
    endpoint_sets = [EndpointSet.all_carrier()]
    for lo, hi in ((half, one), (-one, half), (Q(0), root)):
        for include_lo in (True, False):
            for include_hi in (True, False):
                endpoint_sets.append(EndpointSet.dense_interval(lo, hi, include_lo, include_hi))
    endpoint_sets += [
        EndpointSet.progression(Q(-3), half),
        EndpointSet.progression(-root, one),
        EndpointSet.progression(Q(Fraction(1, 4)), Q(Fraction(1, 3))),
        EndpointSet.progression(Q(2), one),
        EndpointSet.finite([Q(-1), Q(Fraction(1, 3)), Q(2)]),
        EndpointSet.finite([root, half, half]),
        EndpointSet.finite([Q(5)]),
        EndpointSet.finite([]),
    ]
    for kind in ("Q", "Qsqrt2"):
        for window in windows:
            for eps in endpoint_sets:
                for shape in ("open", "closed"):
                    for orientation in ("lower", "upper"):
                        yield RayNest(Carrier(kind, window), shape, eps, orientation)


def _grid_verdicts(rng):
    """One line per verdict or witness on the grid, with order queries and
    interval queries drawn from ``rng``."""
    grid = [None] + [Q(Fraction(k, 4)) for k in range(-6, 9)] + [R2(), -R2(), R2(Fraction(1, 2))]
    inside = {}
    for nest in _grid_nests():
        carrier = nest.carrier
        if carrier not in inside:
            inside[carrier] = [p for p in grid if p is not None and carrier.contains(p)]
        yield repr((sup_conditions(nest), dual_sup_conditions(nest)))
        yield repr((separation_witness(nest), order_matches_carrier(nest)))
        if carrier.window is None:
            for operation in ("add", "multiply"):
                yield repr(group_compatibility(operation, nest))
        for _ in range(3):
            x, y = rng.choice(inside[carrier]), rng.choice(inside[carrier])
            yield repr((x, y, order_holds(nest, x, y)))
        for _ in range(3):
            lo, hi = rng.choice(grid), rng.choice(grid)
            lo_open, hi_open = rng.random() < 0.5, rng.random() < 0.5
            found = exists_endpoint_between(nest, lo, hi, lo_open, hi_open)
            yield repr((lo, hi, lo_open, hi_open, found))


# sha256 of the grid's lines: a different value means some verdict or
# witness changed
GRID_DIGEST = "470240d4472226f13705db05f265c0209cbb6617d415a4d19ab18a6a68c8870d"


def test_ray_verdicts_and_witnesses_are_pinned_beyond_the_suite_battery():
    lines = list(_grid_verdicts(random.Random(20261019)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GRID_DIGEST
