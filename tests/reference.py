"""The definition-level reference the tests compare against.

`O` is `perfbench/oracles.py`: each notion of the paper over frozensets and
pairs of point indices, importing no nestkit.  A change to the benchmark is
to move those definitions here, with `perfbench` importing them.  The
adapters below turn masks, rows and opens into the oracles' sets, also without
nestkit, and so do the pair definitions of irreflexive, antisymmetric and
total relations; `test_reference.py` lists the oracle helpers the test
modules keep.
`FractionPair` is the Fraction-pair arithmetic of Q[sqrt(2)], the oracle of
`rays.Quadratic`.
"""

import importlib.util
import math
from fractions import Fraction
from functools import cache
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py")
O = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(O)


@cache
def _points(mask: int) -> frozenset:
    # cached: the topology tests convert the same few masks many times over
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def members(family) -> list[frozenset]:
    """A family's members (its masks) as frozensets of point indices."""
    return [_points(m) for m in family.masks]


def opens(topology) -> set[frozenset]:
    """A topology's opens as frozensets of point indices."""
    return {_points(m) for m in topology.opens}


def row_pairs(rows) -> set[tuple[int, int]]:
    """The pairs (x, y) of a relation given as one row mask per point."""
    return {(x, y) for x, row in enumerate(rows) for y in range(len(rows)) if row >> y & 1}


def irreflexive(pairs, n: int) -> bool:
    """No point of ``range(n)`` is related to itself."""
    return all((x, x) not in pairs for x in range(n))


def antisymmetric(pairs) -> bool:
    """No two distinct points are related both ways."""
    return all((y, x) not in pairs for x, y in pairs if x != y)


def total(pairs, n: int) -> bool:
    """Any two points of ``range(n)`` are related one way or the other."""
    return all((x, y) in pairs or (y, x) in pairs for x in range(n) for y in range(n))


class FractionPair:
    """a + b*sqrt(2) held as two Fractions: the Q[sqrt(2)] arithmetic that
    `rays.Quadratic`, on reduced integer triples, is checked against.  Each
    operation is the textbook formula on (a, b)."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, other):
        return FractionPair(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return FractionPair(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return FractionPair(-self.a, -self.b)

    def __mul__(self, other):
        return FractionPair(self.a * other.a + 2 * self.b * other.b,
                            self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        # times the conjugate over the norm, which is zero only at zero
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return FractionPair((self.a * other.a - 2 * self.b * other.b) / norm,
                            (self.b * other.a - self.a * other.b) / norm)

    def scaled(self, factor):
        return FractionPair(self.a * factor, self.b * factor)

    def sign(self):
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: the part of larger square wins; a^2 = 2 b^2 would
        # make sqrt(2) rational
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return 1 if a * a < 2 * b * b else -1

    def compare(self, other):
        return (self - other).sign()

    @property
    def is_rational(self):
        return self.b == 0

    def floor(self):
        """The integer n with n <= a + b*sqrt(2) < n + 1.  b*sqrt(2) lies
        strictly between m = floor(b*sqrt(2)), read off isqrt(floor(2 b^2)),
        and m + 1, since it is irrational for b != 0; so n is floor(a + m)
        or one more, told apart by one exact sign."""
        a, b = self.a, self.b
        if b == 0:
            return math.floor(a)
        root = math.isqrt(math.floor(2 * b * b))
        m = root if b > 0 else -root - 1
        n = math.floor(a + m) + 1
        return n if (self - FractionPair(n)).sign() >= 0 else n - 1
