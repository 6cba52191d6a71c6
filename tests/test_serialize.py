from fractions import Fraction

import pytest

from nestkit.core import InstanceError, Nest, SetFamily, Universe
from nestkit.groups import FiniteGroup
from nestkit.orders import Relation
from nestkit.rays import Carrier, EndpointSet, Quadratic, RayNest, Window
from nestkit.serialize import (
    canonical_json,
    family_from_dict,
    family_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    relation_from_dict,
    relation_to_dict,
)
from nestkit.topology import Topology, topology_from_subbase


def test_family_roundtrip(tmp_path):
    u = Universe(3, ("a", "b", "c"))
    nest = Nest.of(u, [[0], [0, 1]])
    doc = family_to_dict(nest)
    assert doc == {
        "universe": 3,
        "labels": ["a", "b", "c"],
        "family": [[0], [0, 1]],
        "kind": "nest",
    }
    back = family_from_dict(doc)
    assert isinstance(back, Nest) and back.masks == nest.masks
    path = tmp_path / "nest.json"
    path.write_text(canonical_json(instance_to_dict(nest)), encoding="utf-8")
    assert load_instance(path).masks == nest.masks
    # canonical dumps are byte-stable
    assert canonical_json(doc) == canonical_json(family_to_dict(back))


def test_family_validation():
    with pytest.raises(InstanceError):
        family_from_dict({"universe": 2, "family": [[0], [0]], "kind": "family"})
    with pytest.raises(InstanceError):
        family_from_dict({"universe": 2, "family": [[0], [1]], "kind": "nest"})
    with pytest.raises(InstanceError):
        family_from_dict({"universe": 2, "family": [[3]], "kind": "family"})
    with pytest.raises(InstanceError):
        family_from_dict({"universe": 2, "family": [[0]], "kind": "mystery"})
    with pytest.raises(InstanceError):
        family_from_dict({"universe": "two", "family": []})


def test_topology_roundtrip():
    topo = topology_from_subbase(SetFamily.of(Universe(2), [[0]]))
    doc = instance_to_dict(topo)
    assert doc["kind"] == "topology"
    back = instance_from_dict(doc)
    assert isinstance(back, Topology) and back.opens == topo.opens
    with pytest.raises(InstanceError):
        family_from_dict({"universe": 2, "family": [[0]], "kind": "topology"})


def test_relation_roundtrip():
    rel = Relation.from_pairs(Universe(3), [(2, 0), (0, 1)])
    doc = relation_to_dict(rel)
    assert doc["pairs"] == [[0, 1], [2, 0]]  # sorted
    assert relation_from_dict(doc) == rel
    with pytest.raises(InstanceError):
        relation_from_dict({"universe": 2, "pairs": [[0, 2]]})


def test_group_roundtrip(tmp_path):
    group = FiniteGroup.cyclic(3)
    doc = instance_to_dict(group)
    assert doc["order"] == 3
    back = instance_from_dict(doc)
    assert isinstance(back, FiniteGroup) and back.table == group.table
    path = tmp_path / "group.json"
    path.write_text(canonical_json(instance_to_dict(group)), encoding="utf-8")
    assert load_instance(path).table == group.table
    with pytest.raises(InstanceError):
        instance_from_dict({"order": 2, "table": [[0, 1], [1, 1]]})


def test_ray_roundtrip(tmp_path):
    nest = RayNest(
        Carrier("Q", Window(Quadratic.rational(0), Quadratic.rational(1))),
        "closed",
        EndpointSet.dense_interval(
            Quadratic.rational(Fraction(1, 2)), Quadratic.rational(1)
        ),
    )
    doc = instance_to_dict(nest)
    assert doc["carrier"] == "Q" and doc["shape"] == "closed"
    assert doc["endpoints"]["lo"] == {"a": [1, 2], "b": [0, 1]}
    back = instance_from_dict(doc)
    assert back == nest
    for eps in (
        EndpointSet.all_carrier(),
        EndpointSet.progression(Quadratic.rational(0), Quadratic.rational(1)),
        EndpointSet.finite([Quadratic.sqrt2()]),
    ):
        ray = RayNest(Carrier("Qsqrt2"), "open", eps, "upper")
        path = tmp_path / "ray.json"
        path.write_text(canonical_json(instance_to_dict(ray)), encoding="utf-8")
        assert load_instance(path) == ray
    with pytest.raises(InstanceError):
        instance_from_dict({"carrier": "R", "shape": "open", "endpoints": {"kind": "all_carrier"}})


def test_unrecognized_document():
    with pytest.raises(InstanceError):
        instance_from_dict({"mystery": 1})


_RAY = {"carrier": "Q", "window": None, "shape": "open", "orientation": "lower"}
_ONE = {"a": [1, 1], "b": [0, 1]}
_DENSE = {"kind": "dense_interval", "lo": {"a": [0, 1], "b": [0, 1]}, "hi": _ONE}


@pytest.mark.parametrize("document, field", [
    ({"universe": 3, "family": [0, 1], "kind": "family"}, "family"),
    ({"universe": 3, "family": [[True]], "kind": "family"}, "index"),
    ({"universe": True, "family": []}, "universe"),
    ({"universe": 2, "labels": "ab", "family": []}, "labels"),
    ({"universe": 3, "pairs": [["0", 1]]}, "pair"),
    ({"universe": 3, "pairs": [0]}, "pair"),
    ({"table": [[0, "1"], [1, 0]]}, "table"),
    ({"table": [0, 1]}, "table"),
    ({"table": [[0]], "labels": [0]}, "labels"),
    ({**_RAY, "window": 5, "endpoints": {"kind": "all_carrier"}}, "window"),
    ({**_RAY, "endpoints": {"kind": "arithmetic_progression", "start": _ONE}}, "step"),
    ({**_RAY, "endpoints": {"kind": "finite_list", "points": _ONE}}, "points"),
    ({**_RAY, "endpoints": {"kind": "finite_list", "points": [{"a": [1, 2]}]}}, "'b'"),
    ({**_RAY, "endpoints": {"kind": "finite_list", "points": [[1, 2]]}}, "point"),
    ({**_RAY, "endpoints": {"kind": "finite_list", "points": [{"a": [1, 0], "b": [0, 1]}]}},
     "denominator"),
    ({**_RAY, "endpoints": {"kind": "bogus"}}, "kind"),
    ({**_RAY, "endpoints": {**_DENSE, "include_lo": "false"}}, "include_lo"),
    ({**_RAY, "endpoints": {**_DENSE, "include_hi": 0}}, "include_hi"),
])
def test_malformed_documents_name_the_field(document, field):
    with pytest.raises(InstanceError, match=field):
        instance_from_dict(document)
