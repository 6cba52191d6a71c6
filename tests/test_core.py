import pytest

from nestkit.core import (
    InstanceError,
    Nest,
    SetFamily,
    Subset,
    Universe,
    as_nest,
    count_nests,
    enumerate_families,
    enumerate_nests,
    family_complement,
    is_nest,
)


def test_universe_validation():
    assert Universe(3).full_mask == 0b111
    assert Universe(2, ("a", "b")).label(1) == "b"
    with pytest.raises(InstanceError):
        Universe(0)
    with pytest.raises(InstanceError):
        Universe(2, ("a",))
    with pytest.raises(InstanceError):
        Universe(2, ("a", "a"))


def test_subset_basics():
    u = Universe(4)
    s = Subset.of(u, [0, 2])
    assert s.indices == (0, 2)
    assert s.cardinality == 2
    assert s.contains(2) and not s.contains(1)
    assert s.complement().indices == (1, 3)
    assert s.union(Subset.of(u, [1])).indices == (0, 1, 2)
    assert s.issubset(Subset.of(u, [0, 1, 2]))
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


def _fubini(n: int) -> int:
    """Ordered set partitions (OEIS A000670): a(m) = sum_k C(m,k) a(m-k)."""
    from math import comb

    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def test_nest_count_is_four_times_fubini():
    # a nest on n points is an ordered partition of the points into its
    # successive differences, with the empty set and X each in or out
    expected = (4, 12, 52, 300, 2164, 18732, 189172)
    for size, want in zip(range(1, 8), expected):
        assert 4 * _fubini(size) == want
        assert count_nests(Universe(size)) == want
    for size in range(1, 6):
        assert sum(1 for _ in enumerate_nests(Universe(size), bound=5)) == 4 * _fubini(size)
