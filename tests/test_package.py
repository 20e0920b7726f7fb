"""The package surface: every name ``ckexpand`` exports, eager or lazy."""

import sys

import pytest

import ckexpand

# every name ckexpand exports, by defining module
EXPORTS = {
    "poly": ("Poly", "Scalar", "ScalarDivisionError", "as_scalar",
             "parse_scalar"),
    "groebner": ("ParamPoly", "RelationIdeal", "groebner_basis",
                 "ideal_equals", "reduce_mod_ideal"),
    "liealg": (
        "BUILTIN_NAMES", "CATALOG", "ContractionError", "FamilyMember",
        "LieAlgebra", "UnsupportedAlgebraError", "builtin_algebra",
        "check_structure", "contract", "identify", "make_ck_algebra",
        "make_extended_galilei", "with_central_generator",
    ),
    "uea": (
        "CentralReducer", "CentralRelation", "MixedAlgebraError",
        "UEAElement", "casimir", "is_central",
        "parse_element", "pbw_normalize", "standard_relations",
        "uea_commutator", "uea_mul",
    ),
    "expand": (
        "ATLAS", "ExpansionError", "ExpansionProblem", "ExpansionReport",
        "InconsistentSystemError", "build_J", "build_primed_generators",
        "centralizer_split", "derive_constraints", "make_problem",
        "run_atlas", "run_expansion", "split_casimirs", "verify_expansion",
        "verify_with_values",
    ),
}
ORIGIN = {name: module for module, names in EXPORTS.items()
          for name in names}


@pytest.mark.parametrize("name", sorted(ORIGIN))
def test_export_is_the_defining_modules_object(name):
    module = sys.modules[f"ckexpand.{ORIGIN[name]}"]
    assert getattr(ckexpand, ORIGIN[name]) is module
    assert getattr(ckexpand, name) is getattr(module, name)


def test_examples_of_the_surface():
    assert ckexpand.make_problem is ckexpand.expand.make_problem
    assert (ckexpand.UnsupportedAlgebraError
            is ckexpand.liealg.UnsupportedAlgebraError)
    assert ckexpand.KERNEL_IMPLEMENTATION == "python"
    assert ckexpand.__version__ == "0.1.0"


def test_star_import_binds_the_same_names():
    assert sorted(ckexpand.__all__) == sorted(
        [*ORIGIN, "KERNEL_IMPLEMENTATION"])
    namespace = {}
    exec("from ckexpand import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ckexpand.__all__)
    for name, value in namespace.items():
        assert value is getattr(ckexpand, name)
    assert set(ckexpand.__all__) <= set(dir(ckexpand))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ckexpand.no_such_name
    assert not hasattr(ckexpand, "make_problems")
