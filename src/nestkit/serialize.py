"""JSON instance formats and their validating loaders.

Family/nest instances::

    {"universe": 3, "labels": ["a","b","c"], "family": [[0],[0,1]], "kind": "nest"}

``kind`` is one of ``family``, ``nest`` or ``topology``; every loader checks
the structural invariants of its kind and rejects duplicate members.
Relations, groups and ray nests have their own documents (see the loaders
below).  A document past `UNIVERSE_BOUND` points or `GROUP_ORDER_BOUND`
elements is rejected before anything of its size is built.  Dumps are
canonical: members in family order, indices sorted, keys sorted, so
identical objects serialize identically byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core import InstanceError, Nest, SetFamily, Universe, indices_of, mask_of
from .groups import FiniteGroup
from .orders import Relation
from .rays import Carrier, EndpointSet, Quadratic, RayNest, Window
from .topology import Topology

# the largest universe any command answers: `bounds` builds the generated
# order, one row of n bits per point; on the densest order, a chain of n + 1
# members, the order and both reach covers take about 0.25 s at 2,048 points
# (rows of 0.5 MB), and each doubling costs about five times more time and
# four times more memory
UNIVERSE_BOUND = 2048

# the largest group table any command answers: the table's associativity
# check is cubic in the order; with the densest nest, a full chain, each of
# the three group checks takes about 0.22 s per request at order 64,
# interpreter start included, 0.4-0.5 s at 128 and 0.6-0.8 s at 160
GROUP_ORDER_BOUND = 64


def canonical_json(document: Any) -> str:
    """Sorted keys, no spaces, one trailing newline; ``default=str`` renders
    any value (say, in a violation instance) that JSON has no type for."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"), default=str) + "\n"


def _universe_fields(universe: Universe) -> dict:
    out: dict[str, Any] = {"universe": universe.size}
    if universe.labels is not None:
        out["labels"] = list(universe.labels)
    return out


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _labels_from(data: dict) -> tuple[str, ...] | None:
    labels = data.get("labels")
    if labels is None:
        return None
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise InstanceError("'labels' must be a list of strings")
    return tuple(labels)


def _universe_from(data: dict) -> Universe:
    size = data.get("universe")
    if not _is_int(size):
        raise InstanceError("instance needs an integer 'universe' size")
    if size > UNIVERSE_BOUND:
        raise InstanceError(f"'universe' size {size} exceeds the loader bound {UNIVERSE_BOUND}")
    return Universe(size, _labels_from(data))


def family_to_dict(family: SetFamily) -> dict:
    out = _universe_fields(family.universe)
    out["family"] = [list(indices_of(m)) for m in family.masks]
    out["kind"] = "nest" if isinstance(family, Nest) else "family"
    return out


def family_from_dict(data: dict) -> SetFamily | Topology:
    universe = _universe_from(data)
    kind = data.get("kind", "family")
    members = data.get("family")
    if not isinstance(members, list):
        raise InstanceError("instance needs a 'family' list of index lists")
    for ids in members:
        if not isinstance(ids, list):
            raise InstanceError(f"'family' member {ids!r} is not a list of element indices")
        for i in ids:
            if not _is_int(i):
                raise InstanceError(
                    f"'family' member {ids!r} has a non-integer element index {i!r}"
                )
    masks = tuple(mask_of(ids, universe.size) for ids in members)
    if len(set(masks)) != len(masks):
        raise InstanceError("family members must be distinct")
    if kind == "family":
        return SetFamily(universe, masks)
    if kind == "nest":
        return Nest(universe, masks)
    if kind == "topology":
        return Topology(universe, masks)
    raise InstanceError(f"unknown instance kind {kind!r}")


def topology_to_dict(topology: Topology) -> dict:
    out = _universe_fields(topology.universe)
    out["family"] = [list(indices_of(m)) for m in topology.opens]
    out["kind"] = "topology"
    return out


def relation_to_dict(relation: Relation) -> dict:
    out = _universe_fields(relation.universe)
    out["pairs"] = [list(p) for p in sorted(relation.pairs())]
    return out


def relation_from_dict(data: dict) -> Relation:
    universe = _universe_from(data)
    pairs = data.get("pairs")
    if not isinstance(pairs, list):
        raise InstanceError("relation needs a 'pairs' list")
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(_is_int(v) and 0 <= v < universe.size for v in pair)
        ):
            raise InstanceError(f"bad relation pair {pair!r}")
    return Relation.from_pairs(universe, [tuple(p) for p in pairs])


def group_to_dict(group: FiniteGroup) -> dict:
    out: dict[str, Any] = {"order": group.order, "table": [list(r) for r in group.table]}
    if group.labels is not None:
        out["labels"] = list(group.labels)
    return out


def group_from_dict(data: dict) -> FiniteGroup:
    table = data.get("table")
    if not isinstance(table, list) or not all(
        isinstance(row, list) and all(_is_int(v) for v in row) for row in table
    ):
        raise InstanceError("group needs a 'table' of integer rows")
    if len(table) > GROUP_ORDER_BOUND:
        raise InstanceError(
            f"'table' of {len(table)} rows exceeds the loader bound {GROUP_ORDER_BOUND}"
        )
    if data.get("order") not in (None, len(table)):
        raise InstanceError("group order and table size disagree")
    return FiniteGroup(tuple(tuple(row) for row in table), _labels_from(data))


def _quadratic_to_json(x: Quadratic | None) -> dict | None:
    return None if x is None else x.to_json()


def _quadratic_from(data: dict | None) -> Quadratic | None:
    return None if data is None else Quadratic.from_json(data)


def _endpoint(eps_data: dict, key: str) -> Quadratic:
    if key not in eps_data:
        raise InstanceError(
            f"endpoint set {eps_data.get('kind')!r} needs an endpoint {key!r}"
        )
    return Quadratic.from_json(eps_data[key])


def ray_to_dict(nest: RayNest) -> dict:
    endpoints = nest.endpoints
    eps: dict[str, Any] = {"kind": endpoints.kind}
    if endpoints.kind == "dense_interval":
        eps.update(
            lo=endpoints.lo.to_json(),
            hi=endpoints.hi.to_json(),
            include_lo=endpoints.include_lo,
            include_hi=endpoints.include_hi,
        )
    elif endpoints.kind == "arithmetic_progression":
        eps.update(start=endpoints.start.to_json(), step=endpoints.step.to_json())
    elif endpoints.kind == "finite_list":
        eps["points"] = [p.to_json() for p in endpoints.points]
    window = nest.carrier.window
    return {
        "carrier": nest.carrier.kind,
        "window": (
            None
            if window is None
            else {"lo": _quadratic_to_json(window.lo), "hi": _quadratic_to_json(window.hi)}
        ),
        "shape": nest.shape,
        "orientation": nest.orientation,
        "endpoints": eps,
    }


def ray_from_dict(data: dict) -> RayNest:
    kind = data.get("carrier")
    if kind not in ("Q", "Qsqrt2"):
        raise InstanceError(f"unknown carrier kind {kind!r}")
    window_data = data.get("window")
    if window_data is not None and not isinstance(window_data, dict):
        raise InstanceError("ray 'window' must be null or an object with 'lo' and 'hi'")
    window = (
        None
        if window_data is None
        else Window(_quadratic_from(window_data.get("lo")), _quadratic_from(window_data.get("hi")))
    )
    eps_data = data.get("endpoints")
    if not isinstance(eps_data, dict):
        raise InstanceError("ray instance needs an 'endpoints' object")
    eps_kind = eps_data.get("kind")
    if eps_kind == "all_carrier":
        endpoints = EndpointSet.all_carrier()
    elif eps_kind == "dense_interval":
        endpoints = EndpointSet.dense_interval(
            _endpoint(eps_data, "lo"),
            _endpoint(eps_data, "hi"),
            eps_data.get("include_lo", True),
            eps_data.get("include_hi", False),
        )
    elif eps_kind == "arithmetic_progression":
        endpoints = EndpointSet.progression(
            _endpoint(eps_data, "start"),
            _endpoint(eps_data, "step"),
        )
    elif eps_kind == "finite_list":
        points = eps_data.get("points", [])
        if not isinstance(points, list):
            raise InstanceError("endpoint set 'finite_list' needs a 'points' list")
        endpoints = EndpointSet.finite(Quadratic.from_json(p) for p in points)
    else:
        raise InstanceError(f"unknown endpoint set kind {eps_kind!r}")
    shape = data.get("shape")
    if shape not in ("open", "closed"):
        raise InstanceError(f"unknown ray shape {shape!r}")
    orientation = data.get("orientation", "lower")
    if orientation not in ("lower", "upper"):
        raise InstanceError(f"unknown orientation {orientation!r}")
    return RayNest(Carrier(kind, window), shape, endpoints, orientation)


def instance_to_dict(obj: SetFamily | Topology | Relation | FiniteGroup | RayNest) -> dict:
    if isinstance(obj, Topology):
        return topology_to_dict(obj)
    if isinstance(obj, SetFamily):
        return family_to_dict(obj)
    if isinstance(obj, Relation):
        return relation_to_dict(obj)
    if isinstance(obj, FiniteGroup):
        return group_to_dict(obj)
    if isinstance(obj, RayNest):
        return ray_to_dict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_from_dict(data: dict) -> SetFamily | Topology | Relation | FiniteGroup | RayNest:
    if "family" in data:
        return family_from_dict(data)
    if "pairs" in data:
        return relation_from_dict(data)
    if "table" in data:
        return group_from_dict(data)
    if "carrier" in data:
        return ray_from_dict(data)
    raise InstanceError("unrecognized instance document")


def load_instance(path: str | Path, expect: type = object):
    """The instance in the JSON file at ``path``; one that is not an
    ``expect`` is an `InstanceError`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    instance = instance_from_dict(data)
    if not isinstance(instance, expect):
        raise InstanceError(f"{path} holds a {type(instance).__name__}, not a {expect.__name__}")
    return instance
