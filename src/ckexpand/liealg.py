"""Lie algebras given by structure constants.

Covers the two-parameter Cayley-Klein family of 3d isometry / (2+1)d
kinematical algebras, its centrally extended Galilei cousin, reading an
algebra's place in the family off its bracket table, Inonu-Wigner
contractions, and the names of the nine cells indexed by the signs of the
two curvature coefficients (w1, w2).

Generator order is fixed globally as H, P1, P2, K1, K2, J, Xi; bracket
tables store only pairs (i, j) with i < j, antisymmetry being implied.
Each algebra also keeps the signed table of both index orders, which the
PBW rewriting and the derivation rule read.
"""

from __future__ import annotations

from typing import NamedTuple

from .poly import (
    SYMBOL, Scalar, ScalarDivisionError, add_term, as_scalar, split_symbols,
)

__all__ = [
    "LieAlgebra",
    "ContractionError",
    "UnsupportedAlgebraError",
    "FamilyMember",
    "make_ck_algebra",
    "make_extended_galilei",
    "with_central_generator",
    "identify",
    "check_structure",
    "contract",
    "builtin_algebra",
    "BUILTIN_NAMES",
]

GLOBAL_ORDER = ("H", "P1", "P2", "K1", "K2", "J", "Xi")

CK_GENERATORS = ("H", "P1", "P2", "K1", "K2", "J")


class ContractionError(ValueError):
    """A rescaled structure constant has a negative power of epsilon."""


class UnsupportedAlgebraError(ValueError):
    """The algebra is not a member of the family, so it has no Casimirs."""


def _clean(combo):
    return {n: c for n, c in combo.items() if not c.is_zero}


class LieAlgebra:
    """Ordered generators plus an antisymmetric bracket table.

    ``brackets`` holds the pairs i < j as given; ``table[i][j]`` holds
    [X_i, X_j] for both orders as a tuple of (index, coefficient) pairs,
    empty when the bracket vanishes.
    """

    def __init__(self, name, generators, brackets, parameters=()):
        self.name = name
        self.generators = tuple(generators)
        self.brackets = {k: _clean(v) for k, v in brackets.items()}
        self.brackets = {k: v for k, v in self.brackets.items() if v}
        self.parameters = tuple(parameters)
        self._index = {g: i for i, g in enumerate(self.generators)}
        self.table = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), combo in self.brackets.items():
            self.table[i][j] = tuple(combo.items())
            self.table[j][i] = tuple((n, -c) for n, c in combo.items())

    @property
    def dim(self) -> int:
        return len(self.generators)

    def index(self, label: str) -> int:
        return self._index[label]

    def bracket(self, i: int, j: int) -> dict:
        """[X_i, X_j] as a map generator index -> Scalar coefficient."""
        return dict(self.table[i][j])

    def is_central(self, i: int) -> bool:
        """True when X_i commutes with every generator: its row of the
        table is empty."""
        return not any(self.table[i])

    def bracket_labels(self, x: str, y: str) -> dict:
        """[x, y] keyed by generator label."""
        combo = self.bracket(self.index(x), self.index(y))
        return {self.generators[n]: c for n, c in combo.items()}

    def ad_combo(self, pairs, k: int) -> dict:
        """[sum c X_n, X_k] by linearity over the (n, c) ``pairs``."""
        out: dict = {}
        for n, c in pairs:
            for m, d in self.table[n][k]:
                add_term(out, m, c * d)
        return out

    def combo_str(self, combo: dict) -> str:
        if not combo:
            return "0"
        parts = []
        for n in sorted(combo):
            c = combo[n]
            cs = str(c)
            label = self.generators[n]
            if cs == "1":
                body = label
            elif cs == "-1":
                body = f"-{label}"
            else:
                if " " in cs or "/" in cs:
                    cs = f"({cs})"
                body = f"{cs}*{label}"
            parts.append(body)
        return " + ".join(parts)

    def bracket_table(self) -> dict:
        """All stored brackets as '[X,Y]' -> combination string."""
        out = {}
        for (i, j), combo in sorted(self.brackets.items()):
            key = f"[{self.generators[i]},{self.generators[j]}]"
            out[key] = self.combo_str(combo)
        return out

    # -- JSON definition file schema ---------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "generators": list(self.generators),
            "parameters": list(self.parameters),
            "brackets": self.bracket_table(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LieAlgebra":
        """Inverse of ``to_json_dict``; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(
                f"definition must be a JSON object, not {type(data).__name__}"
            )
        name = data.get("name", "unnamed")
        if not isinstance(name, str):
            raise ValueError("'name' must be a string")
        labels = data.get("generators")
        if not isinstance(labels, list) or not all(
            isinstance(label, str) for label in labels
        ):
            raise ValueError("'generators' must be a list of labels")
        generators = tuple(labels)
        index = {g: i for i, g in enumerate(generators)}
        if len(index) < len(generators):
            twice = next(g for g in generators if generators.count(g) > 1)
            raise ValueError(f"generator {twice!r} is listed twice")
        parameters = data.get("parameters", [])
        if not isinstance(parameters, list) or not all(
            isinstance(p, str) for p in parameters
        ):
            raise ValueError("'parameters' must be a list of symbols")
        for symbol in (*generators, *parameters):
            if not SYMBOL.fullmatch(symbol):
                raise ValueError(f"{symbol!r} is not a symbol like H or w1")
        declared = set(parameters)
        for symbol in parameters:
            if parameters.count(symbol) > 1:
                raise ValueError(f"'parameters' lists {symbol!r} twice")
            if symbol in index:
                raise ValueError(
                    f"'parameters' lists {symbol!r}, which is a generator"
                )
        table = data.get("brackets", {})
        if not isinstance(table, dict):
            raise ValueError("'brackets' must be a JSON object")
        brackets = {}
        for key, expr in table.items():
            key = key.strip()
            if not (key.startswith("[") and key.endswith("]")):
                raise ValueError(f"bad bracket key {key!r}")
            x, _, y = key[1:-1].partition(",")
            x, y = x.strip(), y.strip()
            for label in (x, y):
                if label not in index:
                    raise ValueError(
                        f"bracket key {key!r}: unknown generator {label!r}"
                    )
            if not isinstance(expr, str):
                raise ValueError(f"bracket {key!r}: value must be a string")
            try:
                value = as_scalar(expr)
                combo = _linear_combo(value, generators)
            except (ValueError, ScalarDivisionError) as exc:
                raise ValueError(f"bracket {key!r}: {exc}") from None
            for symbol in value.variables():
                if symbol not in index and symbol not in declared:
                    raise ValueError(
                        f"bracket {key!r}: {symbol!r} is not declared in "
                        "'parameters'"
                    )
            i, j = index[x], index[y]
            if i == j:
                raise ValueError(f"self-bracket {key!r} must not be given")
            if (min(i, j), max(i, j)) in brackets:
                raise ValueError(f"bracket {key!r}: the pair is given twice")
            if i > j:
                i, j = j, i
                combo = {n: -c for n, c in combo.items()}
            brackets[(i, j)] = {index[n]: c for n, c in combo.items()}
        return cls(
            name,
            generators,
            brackets,
            parameters=tuple(parameters),
        )

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def _linear_combo(value: Scalar, labels) -> dict:
    """Split a Scalar linear in the given labels into label -> coefficient,
    in the order of labels."""
    combo = {}
    for exps, coeff in split_symbols(value, labels).items():
        if sum(exps) != 1:
            raise ValueError(f"expression is not linear in generators: {value}")
        combo[labels[exps.index(1)]] = coeff
    return {label: combo[label] for label in labels if label in combo}


def _family_table(w1, w2, m=0) -> dict:
    """The family's bracket table in the global order; m*Xi extends [P_i,K_i].

    Entries may carry zero coefficients, which ``LieAlgebra`` drops.
    """
    index = {g: i for i, g in enumerate(GLOBAL_ORDER)}
    table = {}
    for x, y, combo in (
        ("J", "P1", {"P2": 1}),
        ("J", "P2", {"P1": -1}),
        ("J", "K1", {"K2": 1}),
        ("J", "K2", {"K1": -1}),
        ("P1", "P2", {"J": w1 * w2}),
        ("K1", "K2", {"J": w2}),
        ("P1", "K1", {"H": w2, "Xi": m}),
        ("P2", "K2", {"H": w2, "Xi": m}),
        ("H", "P1", {"K1": w1}),
        ("H", "P2", {"K2": w1}),
        ("H", "K1", {"P1": -1}),
        ("H", "K2", {"P2": -1}),
    ):
        i, j = index[x], index[y]
        entry = {index[n]: as_scalar(c) for n, c in combo.items()}
        if i > j:
            i, j = j, i
            entry = {n: -c for n, c in entry.items()}
        table[(i, j)] = entry
    return table


def make_ck_algebra(w1, w2, name=None) -> LieAlgebra:
    """The two-parameter family of 3d isometry / kinematical algebras."""
    w1 = as_scalar(w1)
    w2 = as_scalar(w2)
    params = tuple(sorted(set(w1.variables()) | set(w2.variables())))
    if name is None:
        name = _ck_display_name(w1, w2)
    return LieAlgebra(name, CK_GENERATORS, _family_table(w1, w2), params)


def make_extended_galilei(m="m", name="ext-galilei") -> LieAlgebra:
    """Galilei with central generator Xi and [P_i, K_i] = m*Xi."""
    m = as_scalar(m)
    return LieAlgebra(
        name, GLOBAL_ORDER, _family_table(0, 0, m), tuple(m.variables())
    )


def with_central_generator(g: LieAlgebra, label: str = "Xi") -> LieAlgebra:
    """Direct sum of g with a one-dimensional center."""
    if label in g.generators:
        raise ValueError(f"{label!r} already present in {g.name}")
    return LieAlgebra(
        f"{g.name}+center",
        g.generators + (label,),
        dict(g.brackets),
        parameters=g.parameters,
    )


# -- identification from the bracket table --------------------------------------


class FamilyMember(NamedTuple):
    """Where an algebra sits in the family, as read by ``identify``."""

    w1: Scalar
    w2: Scalar
    m: Scalar  # the central extension [P_i, K_i] = m*central; zero if none
    central: str | None  # label of the seventh, central generator


def identify(g: LieAlgebra) -> FamilyMember:
    """Read (w1, w2, m) off the brackets and check the whole table.

    w1 is the K1 coefficient of [H,P1], w2 the H coefficient of [P1,K1]
    and m its coefficient on the optional seventh generator.  Every
    bracket must then equal the family's at those values, with m on
    [P_i,K_i] and the seventh generator central; the first one that does
    not is named in the UnsupportedAlgebraError.
    """
    gens = g.generators
    if gens[:6] != CK_GENERATORS or g.dim > 7:
        raise UnsupportedAlgebraError(
            f"{g.name}: generators must be H P1 P2 K1 K2 J [Xi] in this "
            f"order, got {' '.join(gens)}"
        )
    central = gens[6] if g.dim == 7 else None
    zero = Scalar.zero()
    w1 = g.bracket_labels("H", "P1").get("K1", zero)
    pk = g.bracket_labels("P1", "K1")
    w2 = pk.get("H", zero)
    m = pk.get(central, zero)
    want = _family_table(w1, w2, m)
    for key in sorted(set(g.brackets) | set(want)):
        got = g.brackets.get(key, {})
        expected = _clean(want.get(key, {}))
        if got != expected:
            i, j = key
            values = f"w1 = {w1}, w2 = {w2}" + (f", m = {m}" if central else "")
            raise UnsupportedAlgebraError(
                f"{g.name} is not in the Cayley-Klein family: "
                f"[{gens[i]},{gens[j]}] = {g.combo_str(got)}, expected "
                f"{g.combo_str(expected)} for {values}"
            )
    return FamilyMember(w1, w2, m, central)


# -- structure soundness -----------------------------------------------------


class StructureReport(NamedTuple):
    algebra: str
    antisymmetry_ok: bool
    triples_checked: int
    jacobi_failures: tuple = ()

    @property
    def ok(self) -> bool:
        return self.antisymmetry_ok and not self.jacobi_failures


def check_structure(g: LieAlgebra) -> StructureReport:
    """Brute-force Jacobi check over every generator triple."""
    failures = []
    n = g.dim
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                count += 1
                residual: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coeff in g.ad_combo(g.table[a][b], c).items():
                        add_term(residual, m, coeff)
                if residual:
                    triple = tuple(g.generators[t] for t in (i, j, k))
                    failures.append((triple, residual))
    # antisymmetry holds by the storage convention; self-brackets are absent
    return StructureReport(
        algebra=g.name,
        antisymmetry_ok=True,
        triples_checked=count,
        jacobi_failures=failures,
    )


# -- contractions -------------------------------------------------------------

CONTRACTION_SCALED = {
    "space-time": ("H", "P1", "P2"),
    "speed-space": ("P1", "P2", "K1", "K2"),
}


def contract(g: LieAlgebra, kind: str) -> LieAlgebra:
    """Inonu-Wigner contraction: rescale generators, keep the epsilon-free part.

    space-time rescales (H, P_i) and sends w1 to 0; speed-space rescales
    (P_i, K_i) and sends w2 to 0.
    """
    if kind not in CONTRACTION_SCALED:
        raise ValueError(f"unknown contraction kind {kind!r}")
    scaled = {g.index(lab) for lab in CONTRACTION_SCALED[kind] if lab in g._index}
    new_table = {}
    for (i, j), combo in g.brackets.items():
        power_ij = (i in scaled) + (j in scaled)
        kept = {}
        for n, c in combo.items():
            power = power_ij - (n in scaled)
            if power < 0:
                raise ContractionError(
                    f"bracket [{g.generators[i]},{g.generators[j]}] has a "
                    f"negative epsilon power on {g.generators[n]}"
                )
            if power == 0:
                kept[n] = c
        if kept:
            new_table[(i, j)] = kept
    out = LieAlgebra(f"{g.name}->{kind}", g.generators, new_table, g.parameters)
    try:
        member = identify(out)
    except UnsupportedAlgebraError:
        return out
    if member.central is None:
        out.name = _ck_display_name(member.w1, member.w2)
    return out


# -- the nine-cell catalog -----------------------------------------------------


# (sign of w1, sign of w2) -> algebra name; each comment names the space
CATALOG = {
    (1, 1): "so(4)",  # 3d Elliptic space, w1 = +1/R^2
    (0, 1): "iso(3)",  # 3d Euclidean space
    (-1, 1): "so(3,1)",  # 3d Hyperbolic space, w1 = -1/R^2
    (1, 0): "t4(so(2)+so(2))",  # Oscillating NH (2+1)d space-time, w1 = +1/R^2
    (0, 0): "iiso(2)",  # Galilean (2+1)d space-time
    (-1, 0): "t4(so(2)+so(1,1))",  # Expanding NH (2+1)d space-time, w1 = -1/R^2
    (1, -1): "so(2,2)",  # Anti-de Sitter (2+1)d space-time, w2 = -1/c^2
    (0, -1): "iso(2,1)",  # Minkowskian (2+1)d space-time, w2 = -1/c^2
    (-1, -1): "so(3,1)",  # de Sitter (2+1)d space-time, w2 = -1/c^2
}


def _scalar_sign(value: Scalar):
    q = value.value
    if q is None:
        return None
    return (q > 0) - (q < 0)


def _ck_display_name(w1: Scalar, w2: Scalar) -> str:
    s1, s2 = _scalar_sign(w1), _scalar_sign(w2)
    if s1 is not None and s2 is not None:
        return CATALOG[(s1, s2)]
    return f"ck(w1={w1}, w2={w2})"


BUILTIN_NAMES = {
    "galilei": (0, 0),
    "euclid3": (0, 1),
    "poincare": (0, -1),
    "nh-plus": (1, 0),
    "nh-minus": (-1, 0),
    "so4": (1, 1),
    "so31-hyp": (-1, 1),
    "so31-ds": (-1, -1),
    "so22": (1, -1),
}


def builtin_algebra(name: str) -> LieAlgebra:
    """Construct one of the bundled algebras by CLI name."""
    if name == "ext-galilei":
        return make_extended_galilei()
    if name in BUILTIN_NAMES:
        s1, s2 = BUILTIN_NAMES[name]
        return make_ck_algebra(s1, s2, name=name)
    if name == "ck":
        return make_ck_algebra("w1", "w2", name="ck")
    raise KeyError(
        f"unknown algebra {name!r}; choose from "
        f"{sorted(BUILTIN_NAMES) + ['ext-galilei', 'ck']}"
    )
