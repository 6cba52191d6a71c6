"""The definition-level reference the tests compare against.

`O` is `perfbench/oracles.py`: each notion of the paper over frozensets and
pairs of point indices, importing no nestkit.  A change to the benchmark is
to move those definitions here, with `perfbench` importing them.  The
adapters below turn masks and rows into the oracles' sets, also without
nestkit; `test_reference.py` lists the oracle helpers the test modules keep.
"""

import importlib.util
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


def row_pairs(rows) -> set[tuple[int, int]]:
    """The pairs (x, y) of a relation given as one row mask per point."""
    return {(x, y) for x, row in enumerate(rows) for y in range(len(rows)) if row >> y & 1}
