"""In-memory span tracer that wraps the engine's public functions from outside.

Each call of a wrapped function becomes one span: name, start, end, parent
span and the benchmark item it belongs to.  Spans go into flat arrays while
the run lasts and are written out once at the end.  A span's self time is
its duration minus the part covered by its child spans; the per-layer
metrics are derived from the spans plus a few deterministic counters.

The engine binds some functions by name at import time (``expand`` imports
``uea_commutator`` and ``groebner_basis``, ``poly`` imports ``terms_mul``,
``cli`` imports ``make_problem``), so a wrapper replaces the original object
in every ``ckexpand`` namespace that holds it.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name)
FUNCTIONS = (
    ("ckexpand.expand", "make_problem", "expand.make_problem"),
    ("ckexpand.expand", "run_expansion", "expand.run_expansion"),
    ("ckexpand.expand", "split_casimirs", "expand.split_casimirs"),
    ("ckexpand.expand", "build_J", "expand.build_J"),
    ("ckexpand.expand", "centralizer_split", "expand.centralizer_split"),
    ("ckexpand.expand", "build_primed_generators",
     "expand.build_primed_generators"),
    ("ckexpand.expand", "derive_constraints", "expand.derive_constraints"),
    ("ckexpand.expand", "verify_expansion", "expand.verify_expansion"),
    ("ckexpand.expand", "analyze_closure", "expand.analyze_closure"),
    ("ckexpand.uea", "pbw_normalize", "uea.pbw_normalize"),
    ("ckexpand.uea", "uea_mul", "uea.uea_mul"),
    ("ckexpand.uea", "uea_commutator", "uea.uea_commutator"),
    ("ckexpand.groebner", "groebner_basis", "groebner.groebner_basis"),
    ("ckexpand.groebner", "reduce_mod_ideal", "groebner.reduce_mod_ideal"),
    ("ckexpand.groebner", "ideal_equals", "groebner.ideal_equals"),
    ("ckexpand.kernel", "terms_mul", "kernel.terms_mul"),
    ("ckexpand.liealg", "check_structure", "liealg.check_structure"),
)

# (module, class, method, span name)
METHODS = (
    ("ckexpand.uea", "CentralReducer", "__init__", "uea.reducer_init"),
    ("ckexpand.uea", "CentralReducer", "reduce", "uea.reducer_reduce"),
)

# stages whose uea_commutator calls are bracket passes over generator pairs
BRACKET_STAGES = (
    "expand.derive_constraints",
    "expand.verify_expansion",
    "expand.analyze_closure",
)

# per-layer metrics reported by a traced run: name -> unit
LAYER_METRICS = {
    "expand.make_problem.self_s": "s",
    "expand.run_expansion.self_s": "s",
    "expand.split_casimirs.self_s": "s",
    "expand.centralizer_split.self_s": "s",
    "expand.build_primed_generators.self_s": "s",
    "expand.derive_constraints.self_s": "s",
    "expand.verify_expansion.self_s": "s",
    "expand.analyze_closure.self_s": "s",
    "expand.commutators_per_pair": "ratio",
    "uea.pbw_normalize.calls": "count",
    "uea.pbw_normalize.self_s": "s",
    "uea.uea_mul.calls": "count",
    "uea.uea_mul.self_s": "s",
    "uea.uea_commutator.calls": "count",
    "uea.reducer_init.calls": "count",
    "uea.reducer_init.self_s": "s",
    "uea.reducer_reduce.calls": "count",
    "uea.reducer_reduce.self_s": "s",
    "uea.reducer_builds_per_key": "ratio",
    "groebner.groebner_basis.calls": "count",
    "groebner.groebner_basis.self_s": "s",
    "groebner.reduce_mod_ideal.calls": "count",
    "groebner.reduce_mod_ideal.self_s": "s",
    "groebner.basis_terms": "count",
    "poly.scalar.count": "count",
    "poly.scalar.den1_share": "ratio",
    "kernel.terms_mul.calls": "count",
    "kernel.terms_mul.self_s": "s",
    "liealg.check_structure.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Flat, append-only span store plus per-item counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = {}  # item -> Counter
        self.current = -1
        self._stack = [-1]

    def begin_item(self, item: int) -> None:
        self.current = item
        self.counters.setdefault(item, Counter())

    def count(self, key: str, n: int = 1) -> None:
        self.counters[self.current][key] += n

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        """Return fn wrapped in a span; note(tracer, args, result) runs
        after the span closes."""
        nid = self._name_id(name)
        names, parents, items = self.name, self.parent, self.item
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.current)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- persistence ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "item": self.item.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": {
                str(item): dict(c) for item, c in self.counters.items()
            },
        }

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle)

    def absorb(self, data: dict, item: int) -> None:
        """Append spans recorded by another process, as one item."""
        offset = len(self.start)
        remap = [self._name_id(n) for n in data["names"]]
        self.name.extend(remap[n] for n in data["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.item.extend(item for _ in data["item"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        merged = self.counters.setdefault(item, Counter())
        for counts in data["counters"].values():
            merged.update(counts)

    # -- derived per-item figures --------------------------------------------

    def item_figures(self) -> dict:
        """item -> Counter of '<span>.calls', '<span>.self_s' and counters."""
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += durations[i]
        bracket_ids = {self._ids[s] for s in BRACKET_STAGES if s in self._ids}
        commutator = self._ids.get("uea.uea_commutator")
        out = {item: Counter(c) for item, c in self.counters.items()}
        for i in range(n):
            figures = out.setdefault(self.item[i], Counter())
            name = self.names[self.name[i]]
            figures[name + ".calls"] += 1
            figures[name + ".self_s"] += durations[i] - covered[i]
            p = self.parent[i]
            if (self.name[i] == commutator and p >= 0
                    and self.name[p] in bracket_ids):
                figures["expand.bracket_commutators"] += 1
        return out


def _note_expansion(tracer, args, result):
    dim = result.problem.initial.dim
    tracer.count("expand.pairs", dim * (dim - 1) // 2)


def _note_reducer(tracer, args, result):
    reducer = args[0]
    tracer.count(f"reducer_key:{reducer.algebra.name}:{reducer.bound}")


def _note_basis(tracer, args, result):
    tracer.count("groebner.basis_terms",
                 sum(len(p.terms) for p in result.groebner))


NOTES = {
    "expand.run_expansion": _note_expansion,
    "uea.reducer_init": _note_reducer,
    "groebner.groebner_basis": _note_basis,
}


def _engine_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ckexpand"
                                  or name.startswith("ckexpand."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function and method while the block runs."""
    patches = []

    def patch(obj, attr, value):
        patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    try:
        modules = _engine_modules()
        for module, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = tracer.wrap(span, original, NOTES.get(span))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patch(m, key, wrapped)
        for module, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            patch(cls, method,
                  tracer.wrap(span, getattr(cls, method), NOTES.get(span)))
        scalar = sys.modules["ckexpand.poly"].Scalar
        scalar_init = scalar.__init__

        def counted_init(self, *args, **kwargs):
            scalar_init(self, *args, **kwargs)
            counts = tracer.counters[tracer.current]
            counts["poly.scalar.count"] += 1
            if self.den.is_one:
                counts["poly.scalar.den1"] += 1

        patch(scalar, "__init__", counted_init)
        yield tracer
    finally:
        for obj, attr, value in reversed(patches):
            setattr(obj, attr, value)


def layer_metrics(figures: Counter, speed: float = 1.0) -> dict:
    """The per-layer metrics of one pass from its summed item figures;
    self times are multiplied by the pass's speed factor."""
    out = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = figures.get(name, 0) * speed
        elif name.endswith(".calls"):
            out[name] = float(figures.get(name, 0))
    pairs = figures.get("expand.pairs", 0)
    out["expand.commutators_per_pair"] = (
        figures.get("expand.bracket_commutators", 0) / pairs if pairs else 0.0
    )
    keys = [k for k in figures if k.startswith("reducer_key:")]
    out["uea.reducer_builds_per_key"] = (
        sum(figures[k] for k in keys) / len(keys) if keys else 0.0
    )
    out["groebner.basis_terms"] = float(figures.get("groebner.basis_terms", 0))
    scalars = figures.get("poly.scalar.count", 0)
    out["poly.scalar.count"] = float(scalars)
    out["poly.scalar.den1_share"] = (
        figures.get("poly.scalar.den1", 0) / scalars if scalars else 0.0
    )
    return out


def counter_signature(figures: Counter) -> dict:
    """The deterministic part of a pass's figures: every count, no time."""
    return {k: v for k, v in sorted(figures.items())
            if not k.endswith(".self_s")}

