"""Finite residuated lattices: filters, reticulations, constructions and
the Stone hierarchy, all over explicit operation tables."""

from .core import (
    KIND_BDL,
    KIND_RL,
    AlgebraMorphism,
    FiniteBoundedLattice,
    FiniteResiduatedLattice,
    boolean_center,
    check_arithmetic,
    check_morphism,
    compose,
    find_isomorphism,
    identity_morphism,
    invert,
    morphism,
    pseudocomplement,
    tables_from_covers,
    validate_bdl,
    validate_rl,
)
from .errors import (
    InvalidArgument,
    InvalidSystem,
    NotClosed,
    ParseError,
    SizeLimitExceeded,
    ValidationError,
)
from .filters import (
    Filter,
    all_filters,
    as_filter,
    filter_join,
    filters_subset_scan,
    generated_filter,
    is_filter,
    principal_filter,
    quotient_lattice,
    quotient_rl,
    stable_power,
)
from .reticulation import (
    Reticulation,
    check_axioms,
    functor_on_morphism,
    quotient_comparison,
    reticulate,
    reticulation_conditions,
    transport_filters,
    uniqueness_iso,
)
from .constructions import (
    InductiveSystem,
    boolean_power,
    check_boolean_power_preservation,
    check_colimit,
    check_colimit_preservation,
    check_product_preservation,
    check_subalgebra_preservation,
    closed_subsets,
    colimit,
    constant_system,
    direct_product,
    glue_classes,
    mediating_morphism,
    partition_poset,
    partition_system,
    poset_from_pairs,
    powerset_lattice,
    projection_system,
    subalgebra,
    validate_system,
)
from .stone import (
    co_ann_algebra,
    co_annihilator,
    is_stone,
    is_strongly_stone,
    m_stone_conditions,
    negation_identity,
    pc_identity,
    transfer_checks,
)
from .fixtures import (
    fixture_library,
    godel_chain,
    iorgulescu5,
    iorgulescu12,
    kowalski6,
    lattice_reduct,
    recorded_facts,
    verify_recorded_facts,
)
from .io import AlgebraDocument, dumps, export_dot, load, load_system, loads, save

__version__ = "0.1.0"
