import random
from itertools import product

import pytest

from nestkit.core import (
    InstanceError,
    Nest,
    SetFamily,
    Subset,
    Universe,
    _check_same_universe,
    as_nest,
    canonical_masks,
    count_nests,
    enumerate_families,
    enumerate_nests,
    family_complement,
    is_nest,
)

from reference import O


def test_universe_validation():
    assert Universe(3).full_mask == 0b111
    assert Universe(2, ("a", "b")).label(1) == "b"
    with pytest.raises(InstanceError):
        Universe(0)
    with pytest.raises(InstanceError):
        Universe(2, ("a",))
    with pytest.raises(InstanceError):
        Universe(2, ("a", "a"))


def _issubset(small, big):
    _check_same_universe(small.universe, big.universe)
    return small.mask & ~big.mask == 0


def test_subset_basics():
    u = Universe(4)
    s = Subset.of(u, [0, 2])
    assert s.indices == (0, 2)
    assert s.cardinality == 2
    assert s.contains(2) and not s.contains(1)
    assert s.complement().indices == (1, 3)
    assert s.union(Subset.of(u, [1])).indices == (0, 1, 2)
    assert _issubset(s, Subset.of(u, [0, 1, 2]))
    with pytest.raises(InstanceError):
        Subset(u, 1 << 4)
    with pytest.raises(InstanceError):
        s.union(Subset.of(Universe(3), [0]))


def test_family_canonical_and_duplicates():
    u = Universe(3)
    fam = SetFamily.of(u, [[0, 1], [0], [2]])
    assert fam.masks == (0b001, 0b100, 0b011)  # cardinality, then mask value
    with pytest.raises(InstanceError):
        SetFamily.of(u, [[0], [0]])
    assert SetFamily.dedupe(u, (1, 1, 3)).masks == (0b01, 0b11)


def test_is_nest_examples():
    u4 = Universe(4)
    assert is_nest(SetFamily.of(u4, [[0, 1], [0, 1, 2, 3]]))
    assert is_nest(SetFamily.of(Universe(1), []))
    assert not is_nest(SetFamily.of(Universe(3), [[0], [1]]))
    with pytest.raises(InstanceError):
        Nest.of(Universe(3), [[0], [1]])
    assert isinstance(as_nest(SetFamily.of(u4, [[0], [0, 1]])), Nest)


def test_family_complement():
    u = Universe(2)
    assert family_complement(SetFamily.of(u, [[0]])).masks == (0b10,)
    u3 = Universe(3)
    fam = SetFamily.of(u3, [[0], [0, 1]])
    assert family_complement(fam).masks == SetFamily.of(u3, [[2], [1, 2]]).masks
    assert family_complement(family_complement(fam)).masks == fam.masks
    comp = family_complement(Nest.of(u3, [[0], [0, 1]]))
    assert isinstance(comp, Nest)
    # a family that happens to be a chain still complements to a family
    assert type(family_complement(SetFamily.of(u, [[0], [0, 1]]))) is SetFamily
    # every small nest: the complements in canonical order, and an involution
    for size in range(1, 5):
        u = Universe(size)
        for nest in enumerate_nests(u):
            comp = family_complement(nest)
            assert comp == Nest(u, canonical_masks(m ^ u.full_mask for m in nest.masks))
            assert type(comp) is Nest and family_complement(comp) == nest


def _sort_and_check(universe, masks):
    """The nest validation by sorting: canonical order first, then range,
    distinctness and inclusion, each reporting its first bad member."""
    masks = canonical_masks(masks)
    bad = [m for m in masks if not 0 <= m <= universe.full_mask]
    if bad:
        raise InstanceError(f"member mask {bad[0]:#x} does not fit the universe")
    if len(set(masks)) != len(masks):
        raise InstanceError("family members must be distinct")
    for small, big in zip(masks, masks[1:]):
        if small & ~big:
            raise InstanceError(
                f"members {small:#x} and {big:#x} are not inclusion-comparable"
            )
    return masks


def _outcome(build, universe, masks):
    try:
        return build(universe, masks)
    except InstanceError as exc:
        return str(exc)


def _random_masks(rng, size):
    full = (1 << size) - 1
    if rng.random() < 0.3:
        return tuple(rng.randint(-3, full + 3) for _ in range(rng.randint(0, 7)))
    mask = rng.randint(0, full)
    chain = [mask]
    while mask != full and rng.random() < 0.8:
        outside = full & ~mask
        mask |= outside & rng.randint(0, full) or outside & -outside
        chain.append(mask)
    spoil = rng.randint(0, 4)
    if spoil == 1:
        rng.shuffle(chain)
    elif spoil == 2:
        chain[rng.randrange(len(chain))] = rng.choice((-1, -2, full + 1, full + 2, -full - 1))
    elif spoil == 3:
        chain.insert(rng.randrange(len(chain) + 1), rng.randint(0, full))
    return tuple(chain)


def test_nest_validation_in_one_pass_matches_sort_and_check():
    """A tuple strictly nested in the given order is kept as given; every
    input yields the canonical masks or the error of the sorting path."""
    cases = []
    for size in (1, 2):
        candidates = range(-2, (1 << size) + 2)
        for length in range(4):
            cases += [(size, masks) for masks in product(candidates, repeat=length)]
    rng = random.Random(20261018)
    cases += [(size, _random_masks(rng, size))
              for size in (rng.randint(1, 6) for _ in range(2000))]
    kept_as_given, errors = 0, set()
    for size, masks in cases:
        u = Universe(size)
        want = _outcome(_sort_and_check, u, masks)
        got = _outcome(lambda u, m: Nest(u, m).masks, u, masks)
        assert got == want, (size, masks)
        if isinstance(got, str):
            errors.add(got.split()[0])
        kept_as_given += got == masks
    # both paths ran: about 900 chains in canonical order, and every reject
    assert kept_as_given > 500
    assert errors == {"member", "family", "members"}
    # a list or a generator of masks validates as the tuple would
    assert Nest(Universe(2), [1, 3]).masks == Nest(Universe(2), (m for m in (3, 1))).masks == (1, 3)


def test_enumerated_nests_are_strictly_nested_in_canonical_order():
    for size in range(1, 6):
        for nest in enumerate_nests(Universe(size), bound=5):
            assert nest.masks == canonical_masks(nest.masks)
            assert all(a & ~b == 0 and a != b for a, b in zip(nest.masks, nest.masks[1:]))


def test_enumerate_nests_counts():
    # one-element universe: {}, the empty-set nest, both, the whole-set nest
    names = [n.masks for n in enumerate_nests(Universe(1))]
    assert names == [(), (0,), (0, 1), (1,)]
    for size, expected in ((1, 4), (2, 12), (3, 52), (4, 300)):
        u = Universe(size)
        nests = list(enumerate_nests(u))
        assert len(nests) == expected == count_nests(u)
        assert len({n.masks for n in nests}) == expected
        assert all(is_nest(n) for n in nests)


def test_enumerate_against_brute_force():
    for size in (1, 2):
        u = Universe(size)
        brute = sum(1 for fam in enumerate_families(u, bound=2) if is_nest(fam))
        assert brute == count_nests(u)


def test_enumerate_exclude_trivial():
    u = Universe(2)
    nests = list(enumerate_nests(u, include_trivial=False))
    assert [n.masks for n in nests] == [(), (0b01,), (0b10,)]
    assert count_nests(u, include_trivial=False) == 3


def test_enumerate_max_members_and_partition():
    u = Universe(3)
    capped = [n.masks for n in enumerate_nests(u, max_members=2)]
    assert all(len(m) <= 2 for m in capped)
    assert len(capped) == count_nests(u, max_members=2)
    whole = [n.masks for n in enumerate_nests(u)]
    pieces = []
    for offset in range(4):
        pieces += [n.masks for n in enumerate_nests(u, offset=offset, stride=4)]
    assert sorted(pieces) == sorted(whole)


def test_enumerate_bound_refusal():
    with pytest.raises(ValueError, match="bound"):
        next(enumerate_nests(Universe(5)))
    # explicit override allows it
    assert next(enumerate_nests(Universe(5), bound=5)).masks == ()
    with pytest.raises(ValueError, match="bound"):
        next(enumerate_families(Universe(4)))


def test_enumerate_max_members_zero_yields_only_the_empty_nest():
    for size in (1, 2, 3):
        u = Universe(size)
        assert [n.masks for n in enumerate_nests(u, max_members=0)] == [()]
        assert count_nests(u, max_members=0) == 1
        for cap in range(0, (1 << size) + 2):
            capped = list(enumerate_nests(u, max_members=cap))
            assert len(capped) == count_nests(u, max_members=cap)
            assert all(len(n) <= cap for n in capped)


def test_enumerate_rejects_bad_stride_offset_and_cap():
    u = Universe(3)
    for stride in (0, -1):
        with pytest.raises(ValueError, match="stride"):
            list(enumerate_nests(u, stride=stride))
    for offset, stride in ((3, 3), (5, 2), (-1, 1), (-1, 4)):
        with pytest.raises(ValueError, match="offset"):
            list(enumerate_nests(u, offset=offset, stride=stride))
    with pytest.raises(ValueError, match="max_members"):
        list(enumerate_nests(u, max_members=-1))
    with pytest.raises(ValueError, match="max_members"):
        count_nests(u, max_members=-1)


def test_enumerate_nests_checks_its_arguments_at_the_call():
    # each bad argument raises before the stream is iterated
    u = Universe(3)
    with pytest.raises(ValueError, match="bound"):
        enumerate_nests(Universe(5))
    with pytest.raises(ValueError, match="stride"):
        enumerate_nests(u, stride=0)
    with pytest.raises(ValueError, match="offset"):
        enumerate_nests(u, offset=2, stride=2)
    with pytest.raises(ValueError, match="max_members"):
        enumerate_nests(u, max_members=-1)


def test_nest_count_is_four_times_fubini():
    # a nest on n points is an ordered partition of the points into its
    # successive differences, with the empty set and X each in or out
    expected = (4, 12, 52, 300, 2164, 18732, 189172)
    for size, want in zip(range(1, 8), expected):
        assert 4 * O.fubini(size) == want
        assert count_nests(Universe(size)) == want
    for size in range(1, 6):
        assert sum(1 for _ in enumerate_nests(Universe(size), bound=5)) == 4 * O.fubini(size)
