"""nestkit: executable checks for nests of sets.

Finite universes are handled exactly by brute force (bitmask subsets,
explicit open families); the real-line style instances are handled
symbolically over exact dense ordered carriers.  See the README for the
layout and the CLI (``nestkit --help``) for the harness.
"""

from .analysis import (
    DualPair,
    LotsReport,
    MemberLowerSetReport,
    SupConditions,
    SupResult,
    complement_dual,
    dual_sup_conditions,
    is_interlocking,
    is_interlocking_via_alexandroff,
    is_interlocking_via_lower_sets,
    lots_report,
    member_lower_set_report,
    sup_conditions,
    sup_of,
)
from .bounds import CoverWitness, down_reach_covers, has_lower_bound, has_upper_bound, up_reach_covers
from .core import (
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
from .groups import BUILTIN_GROUPS, FiniteGroup, order_compatible, translation_closed
from .orders import (
    Relation,
    compose,
    generated_order,
    is_transitive,
    reflexive_closure,
    t0_separates,
    t1_separates,
)
from .rays import Carrier, EndpointSet, Quadratic, RayNest, Window
from .suites import SuiteConfig, run_suite, suite_names
from .topology import (
    Topology,
    alexandroff_family,
    interval_topology,
    join,
    lower_topology,
    topology_from_subbase,
    upper_topology,
)

__version__ = "0.1.0"
