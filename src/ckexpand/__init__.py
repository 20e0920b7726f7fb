"""Exact expansions of (2+1)d kinematical Lie algebras.

Everything is computed symbolically over the rationals: polynomial
scalars, PBW-ordered enveloping-algebra elements, reduction modulo
Casimir eigenvalue relations, and the Groebner-basis constraint ideals
that make an expansion close.
"""

from .poly import Poly, Scalar, ScalarDivisionError, as_scalar, parse_scalar
from .groebner import (
    ParamPoly,
    RelationIdeal,
    groebner_basis,
    ideal_equals,
    reduce_mod_ideal,
)
from .liealg import (
    BUILTIN_NAMES,
    CATALOG,
    ContractionError,
    Decomposition,
    FamilyMember,
    Involution,
    LieAlgebra,
    apply_involution,
    builtin_algebra,
    cartan_check,
    catalog_arrows,
    catalog_lookup,
    check_structure,
    contract,
    identify,
    make_ck_algebra,
    make_extended_galilei,
    standard_involutions,
    with_central_generator,
)
from .uea import (
    CentralReducer,
    CentralRelation,
    MixedAlgebraError,
    UEAElement,
    UnsupportedAlgebraError,
    casimir,
    central_reduce,
    is_central,
    parse_element,
    pbw_normalize,
    standard_relations,
    uea_commutator,
    uea_mul,
)
from .expand import (
    ATLAS,
    ExpansionError,
    ExpansionProblem,
    ExpansionReport,
    InconsistentSystemError,
    build_J,
    build_primed_generators,
    centralizer_split,
    derive_constraints,
    make_problem,
    run_atlas,
    run_expansion,
    split_casimirs,
    verify_expansion,
    verify_with_values,
)
from .kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION

__version__ = "0.1.0"
