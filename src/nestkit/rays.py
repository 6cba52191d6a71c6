"""Symbolic nests of rays over an exact dense ordered carrier.

The carrier is either the rationals or the quadratic field Q[sqrt(2)]; the
latter stands in for the real line.  Every verdict computed here depends
only on density of the carrier, absence of window endpoints, and membership
of specific endpoints in the carrier, so it transfers to the real-line
picture unchanged.

A ray nest is a family of lower rays (-inf, e) or (-inf, e] (or their upper
mirrors), intersected with an open window, with the endpoint e drawn from a
described endpoint set.  Such a family is a nest by construction.

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
from typing import Iterable, Literal

from .analysis import SupConditions
from .core import InstanceError

CarrierKind = Literal["Q", "Qsqrt2"]
Shape = Literal["open", "closed"]
Orientation = Literal["lower", "upper"]


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

    def __lt__(self, other: Quadratic) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: Quadratic) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: Quadratic) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: Quadratic) -> bool:
        return (self - other).sign() >= 0

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


@dataclass(frozen=True)
class Window:
    """Open interval restricting the universe; either side may be unbounded."""

    lo: Quadratic | None = None
    hi: Quadratic | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise InstanceError("window bounds must satisfy lo < hi")

    def contains(self, x: Quadratic) -> bool:
        if self.lo is not None and not self.lo < x:
            return False
        if self.hi is not None and not x < self.hi:
            return False
        return True


@dataclass(frozen=True)
class Carrier:
    """A dense ordered universe: Q or Q[sqrt(2)], restricted to an open window."""

    kind: CarrierKind
    window: Window | None = None

    def in_field(self, x: Quadratic) -> bool:
        return x.is_rational if self.kind == "Q" else True

    def contains(self, x: Quadratic) -> bool:
        if not self.in_field(x):
            return False
        return self.window is None or self.window.contains(x)

    def window_lo(self) -> Quadratic | None:
        return None if self.window is None else self.window.lo

    def window_hi(self) -> Quadratic | None:
        return None if self.window is None else self.window.hi


@dataclass(frozen=True)
class EndpointSet:
    """Description of the ray endpoints; endpoints may lie in the order
    completion of the carrier (e.g. sqrt(2) over Q)."""

    kind: Literal["all_carrier", "dense_interval", "arithmetic_progression", "finite_list"]
    lo: Quadratic | None = None
    hi: Quadratic | None = None
    include_lo: bool = True
    include_hi: bool = False
    start: Quadratic | None = None
    step: Quadratic | None = None
    points: tuple[Quadratic, ...] = ()

    def __post_init__(self) -> None:
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

    def contains(self, x: Quadratic, carrier: Carrier) -> bool:
        if self.kind == "all_carrier":
            return carrier.contains(x)
        if self.kind == "dense_interval":
            if not carrier.in_field(x):
                return False
            above = x > self.lo if not self.include_lo else x >= self.lo
            below = x < self.hi if not self.include_hi else x <= self.hi
            return above and below
        if self.kind == "arithmetic_progression":
            k = (x - self.start) / self.step
            return k.is_rational and k.a.denominator == 1 and k.a >= 0
        return any((x - p).sign() == 0 for p in self.points)


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
    w_lo, w_hi = carrier.window_lo(), carrier.window_hi()
    if eps.kind == "all_carrier":
        return True
    if eps.kind == "dense_interval":
        # interval endpoints are carrier points of the interval by definition
        if w_lo is not None:
            if eps.include_lo and not w_lo < eps.lo:
                return False
            if not eps.include_lo and not w_lo <= eps.lo:
                return False
        if w_hi is not None:
            if eps.include_hi and not eps.hi < w_hi:
                return False
            if not eps.include_hi and not eps.hi <= w_hi:
                return False
        return True
    if eps.kind == "arithmetic_progression":
        if w_hi is not None:
            return False  # the progression is unbounded above
        return (
            carrier.in_field(eps.start)
            and carrier.in_field(eps.step)
            and (w_lo is None or w_lo < eps.start)
        )
    return all(carrier.contains(p) for p in eps.points)


def _endpoints_cover_window(nest: RayNest) -> bool:
    eps = nest.endpoints
    w_lo, w_hi = nest.carrier.window_lo(), nest.carrier.window_hi()
    if eps.kind == "all_carrier":
        return True
    if eps.kind == "dense_interval":
        if w_lo is None or w_hi is None:
            return False
        return eps.lo <= w_lo and w_hi <= eps.hi
    return False  # progressions and finite lists cannot cover a dense window


def separates(nest: RayNest) -> bool:
    """T0-separation, decided by the endpoint-density rule."""
    return separation_witness(nest) is None


def separation_witness(nest: RayNest) -> tuple[Fraction, Fraction] | None:
    """None when the nest T0-separates; otherwise a carrier pair x < y with
    no endpoint available between them."""
    eps = nest.endpoints
    if eps.kind == "all_carrier":
        return None
    if eps.kind == "dense_interval" and _endpoints_cover_window(nest):
        return None
    gap_lo, gap_hi = _gap_interval(nest)
    x = _point_in(gap_lo, gap_hi)
    y = _point_in(Quadratic.rational(x), gap_hi)
    return (x, y)


def _gap_interval(nest: RayNest) -> tuple[Quadratic | None, Quadratic | None]:
    """An open subinterval of the window free of endpoints (exists whenever
    the density rule fails)."""
    eps = nest.endpoints
    w_lo, w_hi = nest.carrier.window_lo(), nest.carrier.window_hi()
    if eps.kind == "dense_interval":
        if w_lo is None or w_lo < eps.lo:
            return (w_lo, _min(eps.lo, w_hi))
        return (_max(eps.hi, w_lo), w_hi)
    if eps.kind == "arithmetic_progression":
        below = (w_lo, _min(eps.start, w_hi))
        if _nonempty(below):
            return below
        # window starts above the progression's start: use the first
        # inter-endpoint gap meeting the window
        k = ((w_lo - eps.start) / eps.step).floor()
        lo = eps.start + eps.step.scaled(k)
        hi = eps.start + eps.step.scaled(k + 1)
        return (_max(lo, w_lo), _min(hi, w_hi))
    if eps.kind == "finite_list":
        if not eps.points:
            return (w_lo, w_hi)
        lowest = min(eps.points)
        below = (w_lo, _min(lowest, w_hi))
        if _nonempty(below):
            return below
        ordered = sorted(eps.points)
        for small, big in zip(ordered, ordered[1:]):
            gap = (_max(small, w_lo), _min(big, w_hi))
            if _nonempty(gap):
                return gap
        return (_max(max(eps.points), w_lo), w_hi)
    raise InstanceError("dense endpoint sets have no gap interval")


def _min(a: Quadratic | None, b: Quadratic | None) -> Quadratic | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a < b else b


def _max(a: Quadratic | None, b: Quadratic | None) -> Quadratic | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a > b else b


def _nonempty(interval: tuple[Quadratic | None, Quadratic | None]) -> bool:
    lo, hi = interval
    return lo is None or hi is None or lo < hi


def _point_in(lo: Quadratic | None, hi: Quadratic | None) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return rational_between(hi - Quadratic.rational(1), hi)
    if hi is None:
        return rational_between(lo, lo + Quadratic.rational(1))
    return rational_between(lo, hi)


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


def _bound_ok(e: Quadratic, bound: Quadratic | None, is_open: bool, side: str) -> bool:
    if bound is None:
        return True
    diff = (e - bound).sign()
    if side == "lo":
        return diff > 0 if is_open else diff >= 0
    return diff < 0 if is_open else diff <= 0


def _in_interval(
    e: Quadratic,
    lo: Quadratic | None,
    hi: Quadratic | None,
    lo_open: bool,
    hi_open: bool,
) -> bool:
    return _bound_ok(e, lo, lo_open, "lo") and _bound_ok(e, hi, hi_open, "hi")


def _merge_bound(
    a: Quadratic | None, a_open: bool, b: Quadratic | None, b_open: bool, side: str
) -> tuple[Quadratic | None, bool]:
    """Tighter of two interval bounds on the given side."""
    if a is None:
        return b, b_open
    if b is None:
        return a, a_open
    diff = (a - b).sign()
    if diff == 0:
        return a, a_open or b_open
    if side == "lo":
        return (a, a_open) if diff > 0 else (b, b_open)
    return (a, a_open) if diff < 0 else (b, b_open)


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
    eps = nest.endpoints
    carrier = nest.carrier
    if eps.kind == "finite_list":
        return any(_in_interval(p, lo, hi, lo_open, hi_open) for p in eps.points)
    if eps.kind == "arithmetic_progression":
        if lo is None:
            candidates = [0, 1]
        else:
            base = ((lo - eps.start) / eps.step).floor()
            candidates = [max(0, base), max(0, base + 1)]
        return any(
            _in_interval(eps.start + eps.step.scaled(k), lo, hi, lo_open, hi_open)
            for k in sorted(set(candidates))
        )
    if eps.kind == "dense_interval":
        e_lo, e_lo_open = eps.lo, not eps.include_lo
        e_hi, e_hi_open = eps.hi, not eps.include_hi
        return _dense_overlap(
            carrier, (lo, lo_open), (hi, hi_open), (e_lo, e_lo_open), (e_hi, e_hi_open)
        )
    # all_carrier: endpoints are the carrier points of the (open) window
    w_lo, w_hi = carrier.window_lo(), carrier.window_hi()
    return _dense_overlap(carrier, (lo, lo_open), (hi, hi_open), (w_lo, True), (w_hi, True))


def _dense_overlap(carrier, lo1, hi1, lo2, hi2) -> bool:
    lo, lo_open = _merge_bound(lo1[0], lo1[1], lo2[0], lo2[1], "lo")
    hi, hi_open = _merge_bound(hi1[0], hi1[1], hi2[0], hi2[1], "hi")
    if lo is None or hi is None:
        return True
    diff = (lo - hi).sign()
    if diff < 0:
        return True  # a dense field meets any open interval with interior
    if diff > 0:
        return False
    return not lo_open and not hi_open and carrier.in_field(lo)


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
    gap_lo, gap_hi = _gap_interval(nest)
    width = (
        Quadratic.rational(1)
        if gap_lo is None or gap_hi is None
        else gap_hi - gap_lo
    )
    quarter = width.scaled(Fraction(1, 4))
    x = Quadratic.rational(rational_between(endpoint - quarter, endpoint))
    y = Quadratic.rational(rational_between(endpoint, endpoint + quarter))
    anchor = gap_lo if gap_lo is not None else gap_hi - Quadratic.rational(1)
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
