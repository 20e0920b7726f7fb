"""Exact expansions of (2+1)d kinematical Lie algebras.

Everything is computed symbolically over the rationals: polynomial
scalars, PBW-ordered enveloping-algebra elements, reduction modulo
Casimir eigenvalue relations, and the Groebner-basis constraint ideals
that make an expansion close.

``kernel``, ``poly`` and ``liealg`` are imported with the package, since
every ``ck`` verb needs them.  ``groebner``, ``uea`` and ``expand`` are
registered in ``sys.modules`` with the package but compiled and run only
on their first attribute access, so ``ck algebra`` and ``ck contract``
never load them and ``ck verify`` loads only ``uea``.  The package
exports the names above and each lazy module's ``__all__``, so reading
``__all__`` loads all three.  ``__getattr__`` looks a name up on each read
in ``groebner``, ``uea`` and ``expand``, in that order, loading each module
it searches: a ``uea`` name read through the package also compiles
``groebner``, and a public name the package does not export compiles all
three.  No ``ck`` verb reads a name that way.  The name of a submodule
not yet imported is answered at once, so ``from ckexpand import cli``
loads ``cli`` alone.
"""

import functools
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

_LAZY = ("groebner", "uea", "expand")


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

# the public names bound above, modules aside
_EAGER = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(sys))
]


def __getattr__(name: str):
    # Not cached in this namespace: a name first read while a module's
    # function is wrapped (the benchmark's span tracer) would keep the
    # wrapper after it is restored.
    if name == "__all__":
        return _EAGER + [n for m in _LAZY for n in globals()[m].__all__]
    if not name.startswith("_") and not _is_submodule(name):
        for module in _LAZY:
            if name in globals()[module].__all__:
                return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.cache
def _is_submodule(name: str) -> bool:
    # the import system asks for a submodule with hasattr before it
    # imports it: the lazy modules must not run to answer that
    if not name.isidentifier():
        return False
    return importlib.util.find_spec(f"{__name__}.{name}") is not None


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
