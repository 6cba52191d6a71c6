"""Symbolic nests of rays over an exact dense ordered carrier.

The carrier is either the rationals or the quadratic field Q[sqrt(2)]; the
latter stands in for the real line.  Every verdict computed here depends
only on density of the carrier, absence of window endpoints, and membership
of specific endpoints in the carrier, so it transfers to the real-line
picture unchanged.

A ray nest is a family of lower rays (-inf, e) or (-inf, e] (or their upper
mirrors), intersected with an open window, with the endpoint e drawn from a
described endpoint set.  Such a family is a nest by construction.

`Interval` is the one form of every interval here: the window
(`Carrier.span`), the endpoints of the two dense kinds
(`EndpointSet.dense_span`), the endpoint-free gaps behind the witnesses,
and the order queries of `exists_endpoint_between`.

The sup-condition ladder and T0-separation are decided by a closed-form
table over (shape, endpoint-set kind, carrier) rather than by enumeration:

===============  =======================================================
condition        rule
===============  =======================================================
sups_exist       every endpoint lies in carrier *and* window: for a dense
                 carrier the sup of a ray is its endpoint, which must be a
                 point of the universe; rays whose endpoint escapes the
                 window collapse to the empty set or the whole window,
                 neither of which has a sup in a dense open window.
sups_escape      sups_exist and the shape is open: an open ray misses its
                 endpoint, a closed ray contains it.
sups_onto        sups_escape and the endpoint set covers every carrier
                 point of the window, so each point is some ray's sup.
t0-separation    the endpoint set is order-dense across the window: for
                 x < y an endpoint is needed inside (x, y] (open rays) or
                 [x, y) (closed rays); full or window-covering dense
                 endpoint sets qualify, arithmetic progressions and finite
                 lists always leave gaps in a dense carrier.
===============  =======================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, get_args

from .analysis import SupConditions
from .core import InstanceError

CarrierKind = Literal["Q", "Qsqrt2"]
Shape = Literal["open", "closed"]
Orientation = Literal["lower", "upper"]
EndpointKind = Literal["all_carrier", "dense_interval", "arithmetic_progression", "finite_list"]


@dataclass(frozen=True)
class Quadratic:
    """Exact field element a + b*sqrt(2) with rational a, b."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # arithmetic hands over Fractions already; coerce only the rest
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    @classmethod
    def rational(cls, value: int | str | Fraction) -> Quadratic:
        return cls(Fraction(value))

    @classmethod
    def sqrt2(cls, coefficient: int | str | Fraction = 1) -> Quadratic:
        return cls(Fraction(0), Fraction(coefficient))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        return _sign(self.a, self.b)

    def __add__(self, other: Quadratic) -> Quadratic:
        return Quadratic(self.a + other.a, self.b + other.b)

    def __sub__(self, other: Quadratic) -> Quadratic:
        return Quadratic(self.a - other.a, self.b - other.b)

    def __neg__(self) -> Quadratic:
        return Quadratic(-self.a, -self.b)

    def __mul__(self, other: Quadratic) -> Quadratic:
        return Quadratic(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __truediv__(self, other: Quadratic) -> Quadratic:
        denom = other.a * other.a - 2 * other.b * other.b
        if other.sign() == 0:
            raise ZeroDivisionError("division by zero")
        return Quadratic(
            (self.a * other.a - 2 * self.b * other.b) / denom,
            (self.b * other.a - self.a * other.b) / denom,
        )

    def scaled(self, factor: int | Fraction) -> Quadratic:
        f = Fraction(factor)
        return Quadratic(self.a * f, self.b * f)

    def _compare(self, other: Quadratic) -> int:
        """The sign of self - other, without building the difference."""
        if self.b == other.b:
            return (self.a > other.a) - (self.a < other.a)
        return _sign(self.a - other.a, self.b - other.b)

    def __lt__(self, other: Quadratic) -> bool:
        return self._compare(other) < 0

    def __le__(self, other: Quadratic) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other: Quadratic) -> bool:
        return self._compare(other) > 0

    def __ge__(self, other: Quadratic) -> bool:
        return self._compare(other) >= 0

    def _integer_form(self) -> tuple[int, int, int]:
        """Integers (A, B, d) with d > 0 and a + b*sqrt(2) = (A + B*sqrt(2)) / d,
        over the least common denominator d."""
        a, b = self.a, self.b
        d = math.lcm(a.denominator, b.denominator)
        return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d

    def floor(self) -> int:
        """Greatest integer <= a + b*sqrt(2), in integer arithmetic only.

        Over a common denominator d the value is (A + B*sqrt(2)) / d with
        integers A, B, and since A + floor(B*sqrt(2)) is an integer within 1
        of the numerator, the floor is (A + floor(B*sqrt(2))) // d.
        """
        big_a, big_b, d = self._integer_form()
        return (big_a + _floor_sqrt2(big_b)) // d

    def render(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = "√2" if self.b == 1 else f"{self.b}·√2"
        if self.a == 0:
            return root
        return f"{self.a}+{root}" if self.b > 0 else f"{self.a}{root}"

    def to_json(self) -> dict:
        return {
            "a": [self.a.numerator, self.a.denominator],
            "b": [self.b.numerator, self.b.denominator],
        }

    @classmethod
    def from_json(cls, data: dict) -> Quadratic:
        """Read ``{"a": [num, den], "b": [num, den]}``, rejecting anything
        that is not a pair of integers with a nonzero denominator."""
        if not isinstance(data, dict):
            raise InstanceError(f"point {data!r} must be an object with 'a' and 'b'")
        parts = []
        for key in ("a", "b"):
            value = data.get(key)
            if not (
                isinstance(value, list)
                and len(value) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
            ):
                raise InstanceError(
                    f"point coordinate {key!r} must be a [numerator, denominator] "
                    f"integer pair, got {value!r}"
                )
            if value[1] == 0:
                raise InstanceError(f"point coordinate {key!r} has a zero denominator")
            parts.append(Fraction(value[0], value[1]))
        return cls(*parts)


def _sign(a: int | Fraction, b: int | Fraction) -> int:
    """Sign of a + b*sqrt(2) for rational (or integer) a, b."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a^2 with 2 b^2; equality would force
    # sqrt(2) rational, so it cannot occur here
    if a > 0:
        return 1 if a * a > 2 * b * b else -1
    return 1 if a * a < 2 * b * b else -1


def _floor_sqrt2(b: int) -> int:
    """floor(b*sqrt(2)) for an integer b."""
    # |b|*sqrt(2) = sqrt(2*b^2) is irrational unless b == 0
    root = math.isqrt(2 * b * b)
    return root if b >= 0 else -root - 1


def rational_between(lo: Quadratic, hi: Quadratic) -> Fraction:
    """Some rational strictly inside a nonempty open interval (dyadic search).

    The first k with c = (floor(lo * 2^k) + 1) / 2^k < hi gives c.  Both ends
    are taken once to their integer forms (A + B*sqrt(2)) / d, so each step
    is integer arithmetic: floor(lo * 2^k) = (A 2^k + floor(B 2^k sqrt(2))) // d,
    and c < hi = (C + D*sqrt(2)) / e iff (C 2^k - c 2^k e) + D 2^k sqrt(2) > 0.
    """
    if not lo < hi:
        raise ValueError("interval is empty")
    lo_a, lo_b, lo_d = lo._integer_form()
    hi_a, hi_b, hi_d = hi._integer_form()
    k = 0
    while True:
        top = ((lo_a << k) + _floor_sqrt2(lo_b << k)) // lo_d + 1
        if _sign((hi_a << k) - top * hi_d, hi_b << k) > 0:
            return Fraction(top, 1 << k)
        k += 1


class Interval(NamedTuple):
    """Interval of the line with open or closed ends; ``None`` marks an
    unbounded side.  A named tuple rather than a frozen dataclass: the
    evaluator builds several per query, and a tuple builds and compares in
    a fraction of the time."""

    lo: Quadratic | None = None
    hi: Quadratic | None = None
    lo_open: bool = True
    hi_open: bool = True

    def contains(self, x: Quadratic) -> bool:
        if self.lo is not None and not (self.lo < x if self.lo_open else self.lo <= x):
            return False
        return self.hi is None or (x < self.hi if self.hi_open else x <= self.hi)

    def meet(self, other: Interval) -> Interval:
        # the tighter bound on each side; on a tie it is open if either is
        lo, hi, lo_open, hi_open = self
        if other.lo is not None:
            diff = 1 if lo is None else (other.lo - lo).sign()
            if diff > 0 or (diff == 0 and other.lo_open):
                lo, lo_open = other.lo, other.lo_open
        if other.hi is not None:
            diff = -1 if hi is None else (other.hi - hi).sign()
            if diff < 0 or (diff == 0 and other.hi_open):
                hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def within(self, other: Interval) -> bool:
        return self.meet(other) == self

    def has_point(self, carrier: Carrier) -> bool:
        """Does the interval hold a point of the carrier's field?"""
        if self.lo is None or self.hi is None:
            return True
        diff = (self.lo - self.hi).sign()
        if diff != 0:
            return diff < 0  # a dense field meets any interval with interior
        return not self.lo_open and not self.hi_open and carrier.in_field(self.lo)

    def point(self) -> Fraction:
        """Some rational strictly inside; the interior must be nonempty."""
        if self.lo is None and self.hi is None:
            return Fraction(0)
        if self.lo is None:
            return rational_between(self.hi - Quadratic.rational(1), self.hi)
        if self.hi is None:
            return rational_between(self.lo, self.lo + Quadratic.rational(1))
        return rational_between(self.lo, self.hi)


@dataclass(frozen=True)
class Window:
    """Open interval restricting the universe; either side may be unbounded."""

    lo: Quadratic | None = None
    hi: Quadratic | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise InstanceError("window bounds must satisfy lo < hi")


@dataclass(frozen=True)
class Carrier:
    """A dense ordered universe: Q or Q[sqrt(2)], restricted to an open window."""

    kind: CarrierKind
    window: Window | None = None

    @property
    def span(self) -> Interval:
        """The window as an open interval; unbounded without a window."""
        return Interval() if self.window is None else Interval(self.window.lo, self.window.hi)

    def in_field(self, x: Quadratic) -> bool:
        return x.is_rational if self.kind == "Q" else True

    def contains(self, x: Quadratic) -> bool:
        return self.in_field(x) and self.span.contains(x)


@dataclass(frozen=True)
class EndpointSet:
    """Description of the ray endpoints; endpoints may lie in the order
    completion of the carrier (e.g. sqrt(2) over Q)."""

    kind: EndpointKind
    lo: Quadratic | None = None
    hi: Quadratic | None = None
    include_lo: bool = True
    include_hi: bool = False
    start: Quadratic | None = None
    step: Quadratic | None = None
    points: tuple[Quadratic, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in get_args(EndpointKind):
            raise InstanceError(f"unknown endpoint set kind {self.kind!r}")
        for name in ("include_lo", "include_hi"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise InstanceError(f"endpoint set {name!r} must be true or false, got {value!r}")
        if self.kind == "dense_interval":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise InstanceError("dense interval needs lo < hi")
        if self.kind == "arithmetic_progression":
            if self.start is None or self.step is None or not self.step.sign() > 0:
                raise InstanceError("progression needs a start and a positive step")
        object.__setattr__(self, "points", tuple(self.points))

    @classmethod
    def all_carrier(cls) -> EndpointSet:
        return cls("all_carrier")

    @classmethod
    def dense_interval(
        cls,
        lo: Quadratic,
        hi: Quadratic,
        include_lo: bool = True,
        include_hi: bool = False,
    ) -> EndpointSet:
        return cls("dense_interval", lo=lo, hi=hi, include_lo=include_lo, include_hi=include_hi)

    @classmethod
    def progression(cls, start: Quadratic, step: Quadratic) -> EndpointSet:
        return cls("arithmetic_progression", start=start, step=step)

    @classmethod
    def finite(cls, points: Iterable[Quadratic]) -> EndpointSet:
        return cls("finite_list", points=tuple(points))

    def dense_span(self, carrier: Carrier) -> Interval | None:
        """The interval whose carrier points are the endpoints, for the two
        dense kinds; None for progressions and finite lists."""
        if self.kind == "all_carrier":
            return carrier.span
        if self.kind == "dense_interval":
            return Interval(self.lo, self.hi, not self.include_lo, not self.include_hi)
        return None


@dataclass(frozen=True)
class RayNest:
    """Nest of rays over a carrier: lower rays by default, upper for duals."""

    carrier: Carrier
    shape: Shape
    endpoints: EndpointSet
    orientation: Orientation = "lower"


def dual(nest: RayNest) -> RayNest:
    """Mirror the nest to the other side, keeping shape and endpoints."""
    orientation = "upper" if nest.orientation == "lower" else "lower"
    return RayNest(nest.carrier, nest.shape, nest.endpoints, orientation)


def _endpoints_in_carrier_window(nest: RayNest) -> bool:
    carrier = nest.carrier
    eps = nest.endpoints
    dense = eps.dense_span(carrier)
    if dense is not None:
        # the endpoints are the carrier points of the interval by definition
        return dense.within(carrier.span)
    if eps.kind == "arithmetic_progression":
        # the progression is unbounded above
        return (
            carrier.span.hi is None
            and carrier.contains(eps.start)
            and carrier.in_field(eps.step)
        )
    return all(carrier.contains(p) for p in eps.points)


def _endpoints_cover_window(nest: RayNest) -> bool:
    # progressions and finite lists cannot cover a dense window
    dense = nest.endpoints.dense_span(nest.carrier)
    return dense is not None and nest.carrier.span.within(dense)


def separates(nest: RayNest) -> bool:
    """T0-separation, decided by the endpoint-density rule."""
    return separation_witness(nest) is None


def separation_witness(nest: RayNest) -> tuple[Fraction, Fraction] | None:
    """None when the nest T0-separates; otherwise a carrier pair x < y with
    no endpoint available between them."""
    if _endpoints_cover_window(nest):
        return None
    gap = _gap_interval(nest)
    x = gap.point()
    y = Interval(Quadratic.rational(x), gap.hi).point()
    return (x, y)


def _gap_interval(nest: RayNest) -> Interval:
    """An open subinterval of the window free of endpoints (exists whenever
    the density rule fails): the first of the endpoint set's gaps, in
    increasing order, that meets the window."""
    eps = nest.endpoints
    span = nest.carrier.span
    if eps.kind == "dense_interval":
        gaps = [Interval(hi=eps.lo), Interval(lo=eps.hi)]
    elif eps.kind == "arithmetic_progression":
        gaps = [Interval(hi=eps.start)]
        if span.lo is not None and eps.start <= span.lo:
            # the window starts at or above the progression's start: the
            # inter-endpoint gap holding the window's lower end
            k = ((span.lo - eps.start) / eps.step).floor()
            gaps.append(
                Interval(eps.start + eps.step.scaled(k), eps.start + eps.step.scaled(k + 1))
            )
    else:
        ends = [None, *sorted(eps.points), None]
        gaps = [Interval(lo, hi) for lo, hi in zip(ends, ends[1:])]
    return next(
        gap for gap in (span.meet(g) for g in gaps) if gap.has_point(nest.carrier)
    )


def sup_conditions(nest: RayNest) -> SupConditions:
    """The sup-condition ladder, via the decision table in the module doc."""
    exist = _endpoints_in_carrier_window(nest)
    escape = exist and nest.shape == "open"
    onto = escape and _endpoints_cover_window(nest)
    return SupConditions(exist, escape, onto)


def dual_sup_conditions(nest: RayNest) -> SupConditions:
    """Ladder for the mirrored nest; the table is symmetric under the mirror."""
    return sup_conditions(dual(nest))


def order_matches_carrier(nest: RayNest) -> tuple[bool, str]:
    """Does the generated order coincide with the carrier's order?

    For x < y the generated order needs an endpoint in (x, y] (open rays) or
    [x, y) (closed rays); over a dense, window-covering endpoint set that is
    exactly x < y.  Endpoint sets with gaps leave witness pairs unrelated.
    """
    witness = separation_witness(nest)
    if witness is None:
        return True, (
            "dense endpoints: a ray endpoint exists between any two carrier "
            "points, so the generated order is the carrier order"
        )
    x, y = witness
    return False, (
        f"carrier points {x} < {y} have no ray endpoint between them, so the "
        "generated order does not relate them"
    )


def exists_endpoint_between(
    nest: RayNest,
    lo: Quadratic | None,
    hi: Quadratic | None,
    lo_open: bool,
    hi_open: bool,
) -> bool:
    """Is some ray endpoint inside the described interval?

    This is the evaluator behind `order_holds`; each endpoint-set kind gets
    an exact emptiness test, so it doubles as an independent check on the
    classification table's witnesses.
    """
    query = Interval(lo, hi, lo_open, hi_open)
    eps = nest.endpoints
    if eps.kind == "finite_list":
        return any(query.contains(p) for p in eps.points)
    if eps.kind == "arithmetic_progression":
        if lo is None:
            candidates = [0, 1]
        else:
            base = ((lo - eps.start) / eps.step).floor()
            candidates = [max(0, base), max(0, base + 1)]
        return any(query.contains(eps.start + eps.step.scaled(k)) for k in sorted(set(candidates)))
    return query.meet(eps.dense_span(nest.carrier)).has_point(nest.carrier)


def order_holds(nest: RayNest, x: Quadratic, y: Quadratic) -> bool:
    """Symbolic evaluation of "x below y" in the nest-generated order.

    For lower rays x < e <= y (open) or x <= e < y (closed) must hold for
    some endpoint e; upper rays mirror the inequalities.
    """
    for point in (x, y):
        if not nest.carrier.contains(point):
            raise InstanceError(f"{point.render()} lies outside the carrier window")
    if nest.orientation == "lower":
        if nest.shape == "open":
            return exists_endpoint_between(nest, x, y, True, False)
        return exists_endpoint_between(nest, x, y, False, True)
    if nest.shape == "open":
        return exists_endpoint_between(nest, y, x, False, True)
    return exists_endpoint_between(nest, y, x, True, False)


@dataclass(frozen=True)
class GroupCompatReport:
    """``witness`` explains an incompatibility in prose; ``counterexample``
    is the same witness as data: (x, y, g) with x below y in the order, and
    x∘g not below y∘g, where ∘ is the operation."""

    operation: str
    premise_translation_closed: bool
    compatible: bool
    witness: str | None
    counterexample: tuple[Quadratic, Quadratic, Quadratic] | None = None


def group_compatibility(operation: str, nest: RayNest) -> GroupCompatReport:
    """Compatibility of the ray-generated order with addition or
    multiplication on the carrier, decided symbolically.

    Addition over a full-line window is compatible exactly when the endpoint
    set is shift-invariant (the full carrier); any described gap yields an
    explicit witness pair and shift.  Multiplication always fails: a negative
    multiplier turns a lower ray into an upper ray and reverses the order.
    """
    if nest.carrier.window is not None:
        raise ValueError(
            f"group compatibility via {operation} needs a full-line window"
        )
    if operation == "add":
        return _additive_compatibility(nest)
    if operation == "multiply":
        return _multiplicative_compatibility(nest)
    raise ValueError(f"unsupported operation {operation!r}")


def _pick_endpoint(nest: RayNest) -> Quadratic | None:
    eps = nest.endpoints
    if eps.kind == "all_carrier":
        return Quadratic.rational(0)
    if eps.kind == "dense_interval":
        return Quadratic.rational(rational_between(eps.lo, eps.hi))
    if eps.kind == "arithmetic_progression":
        return eps.start
    return min(eps.points) if eps.points else None


def _additive_compatibility(nest: RayNest) -> GroupCompatReport:
    eps = nest.endpoints
    if eps.kind == "all_carrier":
        return GroupCompatReport(
            "add", True, True,
            "shifting a ray moves its endpoint by the same amount, and every "
            "carrier element is an endpoint",
        )
    endpoint = _pick_endpoint(nest)
    if endpoint is None:
        # no rays at all: the generated order is empty and trivially invariant
        return GroupCompatReport("add", True, True, None)
    # over the full line the first gap is the ray below the lowest endpoint
    anchor = _gap_interval(nest).hi - Quadratic.rational(1)
    quarter = Quadratic.rational(Fraction(1, 4))
    x = Quadratic.rational(rational_between(endpoint - quarter, endpoint))
    y = Quadratic.rational(rational_between(endpoint, endpoint + quarter))
    shift = Quadratic.rational(
        rational_between(anchor - x, anchor - x + quarter.scaled(Fraction(1, 2)))
    )
    witness = (
        f"{x.render()} relates to {y.render()} through the endpoint "
        f"{endpoint.render()}, but shifting both by {shift.render()} lands the "
        "pair in an endpoint-free gap, where they are unrelated"
    )
    return GroupCompatReport("add", False, False, witness, (x, y, shift))


def _multiplicative_compatibility(nest: RayNest) -> GroupCompatReport:
    endpoint = _pick_endpoint(nest)
    if endpoint is None:
        return GroupCompatReport("multiply", True, True, None)
    one = Quadratic.rational(1)
    x = Quadratic.rational(rational_between(endpoint - one, endpoint))
    y = Quadratic.rational(rational_between(endpoint, endpoint + one))
    witness = (
        f"{x.render()} relates to {y.render()} through the endpoint "
        f"{endpoint.render()}, but multiplying by -1 reverses them: a lower "
        "ray times a negative element is an upper ray, not a member"
    )
    return GroupCompatReport("multiply", False, False, witness, (x, y, -one))
