"""Exact computations with finite groupoids.

Construction and validation of finite groupoids, right G-sets with their
orbit and fixed point calculus, subgroupoid conjugacy with explicit
witnesses, tables of marks, Burnside rigs and rings, the ghost map, and
the primitive idempotents of the rational Burnside algebra. All
arithmetic is exact; no floating point anywhere.
"""

from .burnside import (
    BurnsideElement,
    BurnsideHom,
    BurnsideRing,
    DifferencePair,
    GrothendieckRing,
    ProductDecomposition,
    boolean_rig_demo,
    burnside_difference_ring,
    induction_hom,
    product_decomposition,
)
from .core import (
    Component,
    FiniteGroupoid,
    GroupoidMorphism,
    IsotropyGroup,
    OneObjectSubgroupoid,
    Subgroupoid,
    action_groupoid,
    component_inclusion,
    connected_components,
    coproduct,
    equivalence_relation,
    fibered_pair,
    from_group,
    identity_morphism,
    induced_groupoid,
    one_object_subgroupoid,
    opposite,
    pair_groupoid,
    product,
    subgroupoid_from_json,
    trg,
    validate,
    validate_morphism,
)
from .errors import GroupoidError
from .generate import from_spec, group_from_spec
from .ghost import (
    ghost_apply,
    idempotents_json,
    primitive_idempotents,
    verify_idempotents,
)
from .groups import Group, cyclic, dihedral4, direct_product, named, quaternion8, symmetric3
from .gset import (
    EquivariantMap,
    GSetDecomposition,
    RightGSet,
    coset_gset,
    decompose,
    disjoint_union,
    empty_gset,
    fibered_product,
    fixed_points,
    identity_map,
    induced_transformation,
    induction,
    induction_product_witness,
    induction_union_witness,
    isomorphic,
    regular_gset,
    unit_gset,
    validate_gset,
)
from .subconj import (
    MarkTable,
    conjugacy_class_index,
    conjugally_equivalent,
    conjugated_isotropy_subgroups,
    enumerate_reps,
    enumerate_subgroups,
    mark_table,
)

__version__ = "0.1.0"
