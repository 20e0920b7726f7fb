"""Exact expansions of (2+1)d kinematical Lie algebras.

Everything is computed symbolically over the rationals: polynomial
scalars, PBW-ordered enveloping-algebra elements, reduction modulo
Casimir eigenvalue relations, and the Groebner-basis constraint ideals
that make an expansion close.

``kernel``, ``poly`` and ``liealg`` are imported with the package, since
every ``ck`` verb needs them.  ``groebner``, ``uea`` and ``expand`` are
registered in ``sys.modules`` with the package but compiled and run only
on their first attribute access, so ``ck algebra`` and ``ck contract``
never load them and ``ck verify`` loads only ``uea``.  The package's names
from those modules are looked up on each read by ``__getattr__``.
"""

import importlib.util
import sys

from .poly import Poly, Scalar, ScalarDivisionError, as_scalar, parse_scalar
from .liealg import (
    BUILTIN_NAMES,
    CATALOG,
    ContractionError,
    FamilyMember,
    LieAlgebra,
    UnsupportedAlgebraError,
    builtin_algebra,
    check_structure,
    contract,
    identify,
    make_ck_algebra,
    make_extended_galilei,
    with_central_generator,
)
from .kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION

__version__ = "0.1.0"

_LAZY = {
    "groebner": (
        "ParamPoly",
        "RelationIdeal",
        "groebner_basis",
        "ideal_equals",
        "reduce_mod_ideal",
    ),
    "uea": (
        "CentralReducer",
        "CentralRelation",
        "MixedAlgebraError",
        "UEAElement",
        "casimir",
        "is_central",
        "parse_element",
        "pbw_normalize",
        "standard_relations",
        "uea_commutator",
        "uea_mul",
    ),
    "expand": (
        "ATLAS",
        "ExpansionError",
        "ExpansionProblem",
        "ExpansionReport",
        "InconsistentSystemError",
        "build_J",
        "build_primed_generators",
        "centralizer_split",
        "derive_constraints",
        "make_problem",
        "run_atlas",
        "run_expansion",
        "split_casimirs",
        "verify_expansion",
        "verify_with_values",
    ),
}
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}


def _register_lazily(module: str) -> None:
    name = f"{__name__}.{module}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy  # as an import of the submodule would


for _module in _LAZY:
    _register_lazily(_module)
del _module

# the public names bound above, modules aside, then the lazy ones
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(sys))
] + sorted(_ORIGIN)


def __getattr__(name: str):
    # Not cached in this namespace: a name first read while a module's
    # function is wrapped (the benchmark's span tracer) would keep the
    # wrapper after it is restored.
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))
