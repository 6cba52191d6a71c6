import pytest

from nestkit.core import Nest, SetFamily, Universe, family_complement
from nestkit.orders import (
    Relation,
    absorbs_rectangle_compositions,
    columns,
    compose,
    generated_order,
    is_transitive,
    linear_rows,
    order_rows_via_rectangles,
    rectangle,
    rectangle_t0_rows,
    reflexive_closure,
    relation_issubset,
    t0_separates,
    t1_separates,
)

from reference import O, members

U2 = Universe(2)
U3 = Universe(3)
U4 = Universe(4)
QUAD = Nest.of(U4, [[0, 1], [0, 1, 2, 3]])


def _diagonal(u):
    return Relation(u, tuple(1 << x for x in range(u.size)))


def _is_linear(rel):
    return linear_rows(rel.rows, columns(rel.rows), rel.universe.full_mask)


def test_generated_order_examples():
    assert set(generated_order(QUAD).pairs()) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert generated_order(SetFamily.of(U3, [])).pairs() == ()
    singles = SetFamily.of(U3, [[0], [1], [2]])
    assert set(generated_order(singles).pairs()) == {
        (x, y) for x in range(3) for y in range(3) if x != y
    }


def test_product_form_matches():
    for fam in (QUAD, SetFamily.of(U3, [[0], [1, 2], [0, 2]]), SetFamily.of(U2, [])):
        u = fam.universe
        assert generated_order(fam).rows == order_rows_via_rectangles(fam.masks, u.size, u.full_mask)
    assert Relation(U2, order_rows_via_rectangles((0b01,), 2, 0b11)).pairs() == ((0, 1),)


def test_compose():
    diag = _diagonal(U3)
    assert compose(diag, diag) == diag
    b = Relation.from_pairs(U3, [(0, 1)])
    a = Relation.from_pairs(U3, [(1, 2)])
    assert compose(a, b).pairs() == ((0, 2),)
    with pytest.raises(Exception):
        compose(_diagonal(U2), _diagonal(U3))


def test_rectangle_composition_absorbed_along_inclusion():
    for u in (U2, U3, U4):
        for small in range(u.full_mask + 1):
            for big in range(u.full_mask + 1):
                if small & ~big:
                    continue
                composed = compose(rectangle(u, big), rectangle(u, small))
                assert relation_issubset(composed, rectangle(u, big))


def test_absorption_condition():
    assert absorbs_rectangle_compositions(QUAD)
    assert absorbs_rectangle_compositions(SetFamily.of(U3, [[]]))  # just the empty set
    singles = SetFamily.of(U3, [[0], [1], [2]])
    assert not absorbs_rectangle_compositions(singles)


def test_transitivity_modes():
    # two singletons on two points: a < b and b < a but never a < a
    order = generated_order(SetFamily.of(U2, [[0], [1]]))
    assert not is_transitive(order, "standard")
    assert is_transitive(order, "distinct_triples")
    diag = _diagonal(U3)
    assert is_transitive(diag, "standard") and is_transitive(diag, "distinct_triples")
    nest_order = generated_order(QUAD)
    assert is_transitive(nest_order, "standard")
    assert is_transitive(nest_order, "distinct_triples")
    with pytest.raises(ValueError):
        is_transitive(diag, "nonsense")


def test_separation_predicates():
    pair_nest = SetFamily.of(Universe(2, ("a", "b")), [[0]])
    assert t0_separates(pair_nest) and not t1_separates(pair_nest)
    assert not t0_separates(QUAD)  # x3 and x4 are never split
    singles = SetFamily.of(U3, [[0], [1], [2]])
    assert t1_separates(singles)


def test_t1_rows_form_matches_the_pairwise_form():
    from nestkit.core import enumerate_families

    verdicts = set()
    for n in (1, 2, 3):
        for fam in enumerate_families(Universe(n)):
            want = O.t1(members(fam), n)
            assert t1_separates(fam) == want
            verdicts.add(want)
    assert verdicts == {False, True}


def test_t0_rectangle_form_agrees_everywhere():
    from nestkit.core import enumerate_families

    def via_rectangles(fam):
        rows = generated_order(fam).rows
        return rectangle_t0_rows(rows, columns(rows), fam.universe.full_mask)

    assert via_rectangles(SetFamily.of(U2, [[0]]))
    assert not via_rectangles(SetFamily.of(U3, []))
    for fam in enumerate_families(U3):
        assert t0_separates(fam) == via_rectangles(fam)


def test_pairwise_union():
    # with the empty set in both families, the order generated by all
    # unions S1 ∪ S2 is the union of the two generated orders
    f1 = SetFamily.of(U3, [[], [0]])
    f2 = SetFamily.of(U3, [[], [1]])
    merged = SetFamily.dedupe(U3, (a | b for a in f1.masks for b in f2.masks))
    assert merged.masks == SetFamily.of(U3, [[], [0], [1], [0, 1]]).masks
    assert set(generated_order(merged).pairs()) == (
        set(generated_order(f1).pairs()) | set(generated_order(f2).pairs()))


def test_orders_equivalent():
    fam = SetFamily.of(U3, [[0], [1, 2]])
    padded = SetFamily.of(U3, [[0], [1, 2], [], [0, 1, 2]])
    # the empty set and the whole universe add no pair to the order
    assert generated_order(fam) == generated_order(padded)
    assert generated_order(SetFamily.of(U2, [[0]])) == generated_order(SetFamily.of(U2, [[0], [0, 1]]))
    assert generated_order(SetFamily.of(U2, [[0]])) != generated_order(SetFamily.of(U2, [[1]]))


def test_closure_and_transpose():
    empty = Relation(U3, (0, 0, 0))
    assert reflexive_closure(empty) == _diagonal(U3)
    rel = Relation.from_pairs(U3, [(0, 1), (2, 1)])
    assert columns(rel.rows) == Relation.from_pairs(U3, [(1, 0), (1, 2)]).rows
    assert columns(columns(rel.rows)) == rel.rows
    # complement nests generate the transposed order
    from nestkit.core import enumerate_nests

    for n in (2, 3, 4):
        u = Universe(n)
        for nest in enumerate_nests(u):
            assert generated_order(family_complement(nest)).rows == columns(
                generated_order(nest).rows
            )


def test_is_linear_order():
    chain = Nest.of(U3, [[], [0], [0, 1]])
    assert _is_linear(generated_order(chain))
    assert not _is_linear(generated_order(QUAD))
    assert _is_linear(Relation(Universe(1), (0,)))


def test_down_ray_nest_regenerates_a_linear_order():
    # order 2 < 0 < 1 on three points, as strict down-rays
    rays = SetFamily.of(U3, [[], [2], [0, 2]])
    assert t0_separates(rays)
    expected = Relation.from_pairs(U3, [(2, 0), (2, 1), (0, 1)])
    assert generated_order(rays) == expected
    assert _is_linear(generated_order(rays))
