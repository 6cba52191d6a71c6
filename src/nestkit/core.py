"""Finite ground model: universes, bitmask subsets, set families and nests.

Subsets are value-semantic membership masks over a fixed universe, so
equality is extensional, everything is hashable, and enumeration is cheap.
Families are kept in a canonical order (cardinality, then mask) so that
serialized instances and reports are byte-stable across runs.  A nest whose
members arrive strictly nested in the given order is already canonical, and
is validated in one pass without sorting; `enumerate_nests` and
`family_complement` build their nests that way by construction, so they
skip the validation (`SetFamily._drawn`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from .topology import Regions

NEST_ENUMERATION_BOUND = 4
FAMILY_ENUMERATION_BOUND = 3


class InstanceError(ValueError):
    """A value violates a structural invariant of its type."""


class lazy:
    """A field computed on first access and stored in the instance's
    ``__dict__``, so later reads are plain attribute lookups; on the class,
    the descriptor itself.

    The semantics of `functools.cached_property` from Python 3.12, without
    the lock that descriptor takes on every first access under 3.10 and
    3.11.  None is needed: an object carrying these fields (a nest context,
    a topology, a group) is built and read by one thread, and the suite
    workers are processes, so no two threads compute the same field.
    """

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Universe:
    """Ground set of ``size`` elements, optionally carrying display labels."""

    size: int
    labels: tuple[str, ...] | None = None
    # every element's bit; derived from ``size``, so not part of equality
    full_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InstanceError(f"universe size must be >= 1, got {self.size}")
        object.__setattr__(self, "full_mask", (1 << self.size) - 1)
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise InstanceError(
                    f"expected {self.size} labels, got {len(labels)}"
                )
            if len(set(labels)) != len(labels):
                raise InstanceError("labels must be distinct")

    @lazy
    def regions(self) -> Regions:
        """The packed layout of every region of the universe
        (`topology.Regions`), built on first use."""
        from .topology import Regions

        return Regions(self.size)

    @lazy
    def names(self) -> tuple[str, ...]:
        """Every element's display name in index order: its label, or
        ``x1``, ``x2``, … without labels; built on first use."""
        if self.labels is not None:
            return self.labels
        return tuple(f"x{i}" for i in range(1, self.size + 1))

    def label(self, index: int) -> str:
        return self.names[index]

    def render_mask(self, mask: int) -> str:
        """The subset of a mask's points, ``{a,b}``, or ``{}``, visiting set
        bits only: the one subset renderer, which `Subset`, `SetFamily` and
        `topology.Topology` share (`orders.Relation` reads the same
        `names`).  It trusts the mask, validated when its owner was built."""
        names, parts = self.names, []
        while mask:
            low = mask & -mask
            parts.append(names[low.bit_length() - 1])
            mask ^= low
        return "{" + ",".join(parts) + "}"

    def render_masks(self, masks: Iterable[int]) -> str:
        """A roster of subsets, ``{{a}, {a,b}}``, in the given order, or
        ``{}`` for none."""
        return "{" + ", ".join(map(self.render_mask, masks)) + "}"

    def elements(self) -> range:
        return range(self.size)


def mask_of(indices: Iterable[int], size: int) -> int:
    """Pack element indices into a membership mask, validating the range."""
    mask = 0
    for i in indices:
        _check_index(i, size)
        mask |= 1 << i
    return mask


def _check_index(index: int, size: int) -> None:
    """Reject an element index outside a universe of ``size`` points, naming
    it; a negative index would otherwise wrap around to the last points."""
    if not 0 <= index < size:
        raise InstanceError(f"element index {index} out of range for size {size}")


def indices_of(mask: int) -> tuple[int, ...]:
    """The indices of a mask's set bits, ascending, visiting set bits only."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Subset:
    """A subset of a universe, stored as a membership mask."""

    universe: Universe
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.universe.full_mask:
            raise InstanceError(f"mask {self.mask:#x} does not fit the universe")

    @classmethod
    def of(cls, universe: Universe, indices: Iterable[int]) -> Subset:
        return cls(universe, mask_of(indices, universe.size))

    @property
    def indices(self) -> tuple[int, ...]:
        return indices_of(self.mask)

    def contains(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def render(self) -> str:
        """``{a,b}``, or ``{}`` for the empty subset (`Universe.render_mask`)."""
        return self.universe.render_mask(self.mask)


def _check_same_universe(a: Universe, b: Universe) -> None:
    if a is not b and a != b:
        raise InstanceError("operands live in different universes")


def canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Sort masks by (cardinality, mask value); the one canonical family order.

    A sort by value, then a stable sort by cardinality: the same order as
    the key ``(m.bit_count(), m)``, without a Python-level key call."""
    out = sorted(masks)
    out.sort(key=int.bit_count)
    return tuple(out)


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free collection of subsets of one universe."""

    universe: Universe
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        masks = canonical_masks(self.masks)
        object.__setattr__(self, "masks", masks)
        full = self.universe.full_mask
        if masks and (min(masks) < 0 or max(masks) > full):
            bad = next(m for m in masks if not 0 <= m <= full)
            raise InstanceError(f"member mask {bad:#x} does not fit the universe")
        if len(set(masks)) != len(masks):
            raise InstanceError("family members must be distinct")

    @classmethod
    def _drawn(cls, universe: Universe, masks: tuple[int, ...]) -> SetFamily:
        """A family (or nest) on masks the program built itself, without
        `__post_init__`: the caller guarantees they lie in
        ``[0, universe.full_mask]``, are distinct and are in canonical order,
        and, for a nest, that each lies inside the next, so no check of the
        validation could fire."""
        family = object.__new__(cls)
        # the frozen fields, set as `object.__setattr__` would set them
        fields = family.__dict__
        fields["universe"], fields["masks"] = universe, masks
        return family

    @classmethod
    def of(cls, universe: Universe, members: Iterable[Iterable[int]]) -> SetFamily:
        return cls(universe, tuple(mask_of(ids, universe.size) for ids in members))

    @classmethod
    def dedupe(cls, universe: Universe, masks: Iterable[int]) -> SetFamily:
        return cls(universe, tuple(set(masks)))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def render(self) -> str:
        """The members in family order, ``{{a}, {a,b}}``, or ``{}`` for the
        empty family (`Universe.render_masks`)."""
        return self.universe.render_masks(self.masks)


class Nest(SetFamily):
    """A set family totally ordered by inclusion."""

    def __post_init__(self) -> None:
        masks = tuple(self.masks)
        object.__setattr__(self, "masks", masks)
        if masks and 0 <= masks[-1] <= self.universe.full_mask:
            for small, big in zip(masks, masks[1:]):
                if small & ~big or small == big:
                    break
            else:
                # strictly nested in the given order: each member has fewer
                # points than the next, so the tuple is canonical and
                # duplicate-free, and every member fits inside the last
                return
        super().__post_init__()
        # canonical order sorts by cardinality, so a chain is nested in order
        for small, big in zip(self.masks, self.masks[1:]):
            if small & ~big:
                raise InstanceError(
                    f"members {small:#x} and {big:#x} are not inclusion-comparable"
                )

    @lazy
    def blocks(self) -> tuple[int, ...]:
        """The ordered partition of X that the chain M_1 ⊂ … ⊂ M_k cuts:
        M_1, then each M_i − M_{i−1}, then X − M_k, as masks.

        Only the outer two can be empty: the first exactly when ∅ is a
        member, the last exactly when X is.  The generated order is the
        strict weak order of the blocks: x < y iff x's block comes before
        y's, so each point's row is the union of the blocks after its own.
        """
        blocks, below = [], 0
        for mask in self.masks:
            blocks.append(mask ^ below)
            below = mask
        blocks.append(self.universe.full_mask ^ below)
        return tuple(blocks)


def is_nest(family: SetFamily) -> bool:
    """True iff every pair of members is inclusion-comparable."""
    return is_chain(canonical_masks(family.masks))


def is_chain(masks: tuple[int, ...]) -> bool:
    """Mask form of `is_nest` for masks in canonical order: each one lies
    inside the next."""
    return all(small & ~big == 0 for small, big in zip(masks, masks[1:]))


def as_nest(family: SetFamily) -> Nest:
    return Nest(family.universe, family.masks)


def family_complement(family: SetFamily) -> SetFamily:
    """The family of complements {X-L : L in the family}; nests stay nests."""
    full = family.universe.full_mask
    if isinstance(family, Nest):
        # complements reverse inclusion, so a chain's members read backwards
        # complement to a strictly nested chain in canonical order
        return Nest._drawn(family.universe, tuple([m ^ full for m in reversed(family.masks)]))
    return SetFamily(family.universe, tuple(m ^ full for m in family.masks))


def enumerate_nests(
    universe: Universe,
    include_trivial: bool = True,
    max_members: int | None = None,
    *,
    bound: int = NEST_ENUMERATION_BOUND,
    offset: int = 0,
    stride: int = 1,
) -> Iterator[Nest]:
    """Yield every inclusion-chain of distinct subsets exactly once.

    The stream is deterministic; ``offset``/``stride`` select a residue class
    of the global sequence so workers can split the space and any slice can be
    regenerated independently.  ``include_trivial`` controls whether the empty
    set and the whole universe may appear as members, and ``max_members``
    caps the number of members (0 leaves only the empty nest).  The arguments
    are checked at the call, so a bad one raises before any nest is drawn.
    """
    if universe.size > bound:
        raise ValueError(
            f"universe size {universe.size} exceeds the nest enumeration bound "
            f"{bound}; pass bound= explicitly to go higher"
        )
    _check_max_members(max_members)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not 0 <= offset < stride:
        raise ValueError(f"offset must lie in [0, stride) = [0, {stride}), got {offset}")
    candidates, above = _nest_extensions(universe.size, include_trivial)
    cap = len(candidates) if max_members is None else max_members
    drawn = Nest._drawn

    def walk() -> Iterator[Nest]:
        # depth first with an explicit stack of chains still to visit, each
        # with the index of its top candidate (-1, the last entry of
        # ``above``, for the empty chain): a chain is yielded, then its
        # extensions are pushed in reverse, so they pop in candidate order
        # and the stream is the preorder of the chain tree
        stack = [((), -1)]
        pop, push = stack.pop, stack.extend
        counter = 0
        while stack:
            chain, top = pop()
            if counter % stride == offset:
                yield drawn(universe, chain)
            counter += 1
            if len(chain) < cap:
                push([(chain + (candidates[j],), j) for j in above[top]])

    return walk()


@lru_cache(maxsize=None)
def _nest_extensions(size: int, include_trivial: bool) -> tuple[tuple[int, ...], tuple]:
    """The nest candidates of a universe of ``size`` points, in canonical
    order, and for each the indices of the later candidates containing it,
    descending; a last entry lists every index, descending, for the empty
    chain.  Containing the top is the test, so a chain extended by these
    stays strictly nested and canonical."""
    candidates = _nest_candidates((1 << size) - 1, include_trivial)
    last = len(candidates) - 1
    above = [tuple(j for j in range(last, i, -1) if not cand & ~candidates[j])
             for i, cand in enumerate(candidates)]
    return candidates, (*above, tuple(range(last, -1, -1)))


def count_nests(
    universe: Universe,
    include_trivial: bool = True,
    max_members: int | None = None,
) -> int:
    """Number of nests `enumerate_nests` yields, via an independent recursion."""
    _check_max_members(max_members)
    candidates = _nest_candidates(universe.full_mask, include_trivial)
    cap = len(candidates) if max_members is None else max_members

    @lru_cache(maxsize=None)
    def chains_from(i: int, budget: int) -> int:
        # chains whose minimum member is candidates[i], with <= budget members
        if budget <= 0:
            return 0
        total = 1
        if budget > 1:
            for j in range(i + 1, len(candidates)):
                if candidates[i] & ~candidates[j] == 0 and candidates[j] != candidates[i]:
                    total += chains_from(j, budget - 1)
        return total

    return 1 + sum(chains_from(i, cap) for i in range(len(candidates)))


def _check_max_members(max_members: int | None) -> None:
    if max_members is not None and max_members < 0:
        raise ValueError(f"max_members must be >= 0, got {max_members}")


def _nest_candidates(full: int, include_trivial: bool) -> tuple[int, ...]:
    return canonical_masks(range(full + 1) if include_trivial else range(1, full))


def enumerate_families(
    universe: Universe,
    *,
    bound: int = FAMILY_ENUMERATION_BOUND,
) -> Iterator[SetFamily]:
    """Yield all 2^(2^n) families over the universe (exhaustive test driver)."""
    if universe.size > bound:
        raise ValueError(
            f"universe size {universe.size} exceeds the family enumeration bound "
            f"{bound}; pass bound= explicitly to go higher"
        )
    subsets = list(range(universe.full_mask + 1))
    for pick in range(1 << len(subsets)):
        masks = tuple(subsets[i] for i in range(len(subsets)) if pick >> i & 1)
        yield SetFamily(universe, masks)
