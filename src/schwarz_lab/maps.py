"""Expression trees for holomorphic and pluriharmonic maps between complex balls.

A MapExpr is a small AST that can be evaluated at single points or batches,
serialized to JSON, and differentiated numerically (see diff.py).  Scalar
nodes produce one output; MapTuple and LinearMatrix assemble vector maps.
Holomorphy is syntactic: a tree is holomorphic iff it contains no
ConjugateCoordinate leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, DimensionMismatch, PoleHit

_POLE_TOL = 1e-14
_UNIT_TOL = 1e-12


class _EvalCtx:
    """Per-evaluation scratch: tracks the smallest Moebius denominator seen."""

    __slots__ = ("min_denominator",)

    def __init__(self):
        self.min_denominator = np.inf


@dataclass(frozen=True, eq=False)
class MapExpr:
    """Base class.  Subclasses implement _eval and the dimension properties."""

    @property
    def input_dim(self) -> int:
        raise NotImplementedError

    @property
    def output_dim(self) -> int:
        raise NotImplementedError

    @property
    def is_scalar(self) -> bool:
        return self.output_dim == 1

    def children(self) -> tuple["MapExpr", ...]:
        return ()

    @property
    def is_holomorphic(self) -> bool:
        if isinstance(self, ConjugateCoordinate):
            return False
        return all(c.is_holomorphic for c in self.children())

    def _eval(self, z: np.ndarray, ctx: _EvalCtx):
        raise NotImplementedError

    def __call__(self, z):
        return evaluate(self, z)


def _as_points(z, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce z to shape (batch, dim); returns (points, was_single)."""
    arr = np.asarray(z, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim == 1:
        if arr.size != dim:
            raise DimensionMismatch(f"map expects C^{dim}, got point in C^{arr.size}")
        return arr.reshape(1, dim), True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise DimensionMismatch(f"map expects C^{dim}, got batch in C^{arr.shape[1]}")
        return arr, False
    raise DimensionMismatch("points must be a vector or a batch of vectors")


def evaluate(f: MapExpr, z, ctx: _EvalCtx | None = None) -> np.ndarray:
    """Evaluate f at one point (returns shape (m,)) or a batch (returns (B, m))."""
    pts, single = _as_points(z, f.input_dim)
    ctx = ctx or _EvalCtx()
    vals = f._eval(pts, ctx)
    if f.is_scalar and vals.ndim == 1:
        vals = vals.reshape(-1, 1)
    return vals[0] if single else vals


def eval_scalar(f: MapExpr, zeta) -> complex:
    """Evaluate a C -> C map at a scalar argument."""
    if f.input_dim != 1 or f.output_dim != 1:
        raise DimensionMismatch("eval_scalar needs a scalar map on the disk")
    return complex(evaluate(f, np.array([zeta], dtype=complex))[0])


def min_moebius_denominator(f: MapExpr, points) -> float:
    """Smallest |Moebius denominator| over all nodes and sample points."""
    ctx = _EvalCtx()
    evaluate(f, points, ctx=ctx)
    return float(ctx.min_denominator)


# ---------------------------------------------------------------------------
# leaf nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Coordinate(MapExpr):
    """z -> z_j (0-indexed) on C^dim."""

    index: int
    dim: int

    def __post_init__(self):
        if not 0 <= self.index < self.dim:
            raise BadParams(f"coordinate index {self.index} out of range for C^{self.dim}")

    @property
    def input_dim(self):
        return self.dim

    @property
    def output_dim(self):
        return 1

    def _eval(self, z, ctx):
        return z[:, self.index]


@dataclass(frozen=True, eq=False)
class ConjugateCoordinate(MapExpr):
    """z -> conj(z_j); the only anti-holomorphic leaf."""

    index: int
    dim: int

    def __post_init__(self):
        if not 0 <= self.index < self.dim:
            raise BadParams(f"coordinate index {self.index} out of range for C^{self.dim}")

    @property
    def input_dim(self):
        return self.dim

    @property
    def output_dim(self):
        return 1

    def _eval(self, z, ctx):
        return np.conj(z[:, self.index])


@dataclass(frozen=True, eq=False)
class Constant(MapExpr):
    """Constant scalar value viewed as a map on C^dim."""

    value: complex
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if self.dim < 1:
            raise BadParams("constant map needs a positive input dimension")

    @property
    def input_dim(self):
        return self.dim

    @property
    def output_dim(self):
        return 1

    def _eval(self, z, ctx):
        return np.full(z.shape[0], self.value, dtype=complex)


# ---------------------------------------------------------------------------
# scalar combinators
# ---------------------------------------------------------------------------


def _check_scalar_children(kind: str, nodes):
    nodes = tuple(nodes)
    if not nodes:
        raise BadParams(f"{kind} needs at least one operand")
    dim = nodes[0].input_dim
    for node in nodes:
        if not node.is_scalar:
            raise BadParams(f"{kind} operands must be scalar maps")
        if node.input_dim != dim:
            raise DimensionMismatch(f"{kind} operands disagree on input dimension")
    return nodes


@dataclass(frozen=True, eq=False)
class Sum(MapExpr):
    terms: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", _check_scalar_children("Sum", self.terms))

    @property
    def input_dim(self):
        return self.terms[0].input_dim

    @property
    def output_dim(self):
        return 1

    def children(self):
        return self.terms

    def _eval(self, z, ctx):
        acc = self.terms[0]._eval(z, ctx)
        for t in self.terms[1:]:
            acc = acc + t._eval(z, ctx)
        return acc


@dataclass(frozen=True, eq=False)
class Product(MapExpr):
    factors: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", _check_scalar_children("Product", self.factors))

    @property
    def input_dim(self):
        return self.factors[0].input_dim

    @property
    def output_dim(self):
        return 1

    def children(self):
        return self.factors

    def _eval(self, z, ctx):
        acc = self.factors[0]._eval(z, ctx)
        for t in self.factors[1:]:
            acc = acc * t._eval(z, ctx)
        return acc


@dataclass(frozen=True, eq=False)
class Scale(MapExpr):
    """Componentwise multiplication by a fixed complex factor."""

    factor: complex
    inner: MapExpr

    def __post_init__(self):
        object.__setattr__(self, "factor", complex(self.factor))

    @property
    def input_dim(self):
        return self.inner.input_dim

    @property
    def output_dim(self):
        return self.inner.output_dim

    def children(self):
        return (self.inner,)

    def _eval(self, z, ctx):
        return self.factor * self.inner._eval(z, ctx)


@dataclass(frozen=True, eq=False)
class Power(MapExpr):
    """Integer power w -> w^k, k >= 0, of a scalar map."""

    exponent: int
    inner: MapExpr

    def __post_init__(self):
        if int(self.exponent) != self.exponent or self.exponent < 0:
            raise BadParams(f"power exponent must be an integer >= 0, got {self.exponent}")
        object.__setattr__(self, "exponent", int(self.exponent))
        if not self.inner.is_scalar:
            raise BadParams("Power applies to scalar maps")

    @property
    def input_dim(self):
        return self.inner.input_dim

    @property
    def output_dim(self):
        return 1

    def children(self):
        return (self.inner,)

    def _eval(self, z, ctx):
        return self.inner._eval(z, ctx) ** self.exponent


@dataclass(frozen=True, eq=False)
class MoebiusDisk(MapExpr):
    """w -> (a + rotation * w) / (1 + conj(a) * rotation * w).

    A disk automorphism applied to a scalar map: |a| < 1 and |rotation| = 1.
    Sends 0 to a; with a = 0 it is a pure rotation.
    """

    a: complex
    rotation: complex
    inner: MapExpr

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "rotation", complex(self.rotation))
        if abs(self.a) >= 1.0:
            raise BadParams(f"Moebius parameter needs |a| < 1, got |a| = {abs(self.a):.6f}")
        if abs(abs(self.rotation) - 1.0) > _UNIT_TOL:
            raise BadParams("Moebius rotation must be unimodular")
        if not self.inner.is_scalar:
            raise BadParams("MoebiusDisk applies to scalar maps")

    @property
    def input_dim(self):
        return self.inner.input_dim

    @property
    def output_dim(self):
        return 1

    def children(self):
        return (self.inner,)

    def _eval(self, z, ctx):
        w = self.rotation * self.inner._eval(z, ctx)
        den = 1.0 + np.conj(self.a) * w
        dmin = float(np.min(np.abs(den)))
        if dmin < ctx.min_denominator:
            ctx.min_denominator = dmin
        if dmin <= _POLE_TOL:
            raise PoleHit("Moebius denominator vanished")
        return (self.a + w) / den


# ---------------------------------------------------------------------------
# vector nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearMatrix(MapExpr):
    """z -> M z for a fixed complex m-by-n matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.size == 0:
            raise BadParams("matrix must be 2-d and nonempty")
        if not np.all(np.isfinite(m)):
            raise BadParams("matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    @property
    def input_dim(self):
        return self.matrix.shape[1]

    @property
    def output_dim(self):
        return self.matrix.shape[0]

    def _eval(self, z, ctx):
        return z @ self.matrix.T


@dataclass(frozen=True, eq=False)
class Compose(MapExpr):
    """outer after inner."""

    outer: MapExpr
    inner: MapExpr

    def __post_init__(self):
        if self.outer.input_dim != self.inner.output_dim:
            raise DimensionMismatch(
                f"compose: outer expects C^{self.outer.input_dim}, "
                f"inner produces C^{self.inner.output_dim}"
            )

    @property
    def input_dim(self):
        return self.inner.input_dim

    @property
    def output_dim(self):
        return self.outer.output_dim

    def children(self):
        return (self.outer, self.inner)

    def _eval(self, z, ctx):
        mid = self.inner._eval(z, ctx)
        if mid.ndim == 1:
            mid = mid.reshape(-1, 1)
        return self.outer._eval(mid, ctx)


@dataclass(frozen=True, eq=False)
class MapTuple(MapExpr):
    """Bundle scalar maps with a common input into a vector map."""

    components: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "components", _check_scalar_children("MapTuple", self.components)
        )

    @property
    def input_dim(self):
        return self.components[0].input_dim

    @property
    def output_dim(self):
        return len(self.components)

    def children(self):
        return self.components

    def _eval(self, z, ctx):
        return np.stack([c._eval(z, ctx) for c in self.components], axis=-1)


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def identity_map(n: int) -> MapExpr:
    return MapTuple(tuple(Coordinate(j, n) for j in range(n)))


def conjugate_tuple(n: int) -> MapExpr:
    return MapTuple(tuple(ConjugateCoordinate(j, n) for j in range(n)))


def component(f: MapExpr, i: int) -> MapExpr:
    """Scalar component i of a vector map, as an expression tree."""
    if not 0 <= i < f.output_dim:
        raise BadParams(f"component {i} out of range for output dimension {f.output_dim}")
    if f.is_scalar:
        return f
    if isinstance(f, MapTuple):
        return f.components[i]
    if isinstance(f, LinearMatrix):
        n = f.input_dim
        row = f.matrix[i]
        return Sum(tuple(Scale(row[j], Coordinate(j, n)) for j in range(n)))
    if isinstance(f, Scale):
        return Scale(f.factor, component(f.inner, i))
    if isinstance(f, Compose):
        return Compose(component(f.outer, i), f.inner)
    raise BadParams(f"cannot extract a component from {type(f).__name__}")


def conjugate_map(f: MapExpr) -> MapExpr:
    """The map z -> conj(f(z)), as an expression tree.

    Swaps Coordinate and ConjugateCoordinate leaves and conjugates every
    fixed constant; composition conjugates the outer map only.
    """
    if isinstance(f, Coordinate):
        return ConjugateCoordinate(f.index, f.dim)
    if isinstance(f, ConjugateCoordinate):
        return Coordinate(f.index, f.dim)
    if isinstance(f, Constant):
        return Constant(np.conj(f.value), f.dim)
    if isinstance(f, Sum):
        return Sum(tuple(conjugate_map(t) for t in f.terms))
    if isinstance(f, Product):
        return Product(tuple(conjugate_map(t) for t in f.factors))
    if isinstance(f, Scale):
        return Scale(np.conj(f.factor), conjugate_map(f.inner))
    if isinstance(f, Power):
        return Power(f.exponent, conjugate_map(f.inner))
    if isinstance(f, MoebiusDisk):
        return MoebiusDisk(np.conj(f.a), np.conj(f.rotation), conjugate_map(f.inner))
    if isinstance(f, LinearMatrix):
        return Compose(LinearMatrix(np.conj(f.matrix)), conjugate_tuple(f.input_dim))
    if isinstance(f, Compose):
        return Compose(conjugate_map(f.outer), f.inner)
    if isinstance(f, MapTuple):
        return MapTuple(tuple(conjugate_map(c) for c in f.components))
    raise BadParams(f"cannot conjugate {type(f).__name__}")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _c2j(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def _j2c(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise BadParams(f"complex scalar must be [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def map_to_json(f: MapExpr) -> dict:
    """Node-tagged JSON encoding; inverse of map_from_json."""
    if isinstance(f, Coordinate):
        return {"node": "coordinate", "index": f.index, "dim": f.dim}
    if isinstance(f, ConjugateCoordinate):
        return {"node": "conjugate_coordinate", "index": f.index, "dim": f.dim}
    if isinstance(f, Constant):
        return {"node": "constant", "value": _c2j(f.value), "dim": f.dim}
    if isinstance(f, Sum):
        return {"node": "sum", "terms": [map_to_json(t) for t in f.terms]}
    if isinstance(f, Product):
        return {"node": "product", "factors": [map_to_json(t) for t in f.factors]}
    if isinstance(f, Scale):
        return {"node": "scale", "factor": _c2j(f.factor), "inner": map_to_json(f.inner)}
    if isinstance(f, Power):
        return {"node": "power", "exponent": f.exponent, "inner": map_to_json(f.inner)}
    if isinstance(f, MoebiusDisk):
        return {
            "node": "moebius",
            "a": _c2j(f.a),
            "rotation": _c2j(f.rotation),
            "inner": map_to_json(f.inner),
        }
    if isinstance(f, LinearMatrix):
        return {
            "node": "linear",
            "matrix": [[_c2j(v) for v in row] for row in f.matrix],
        }
    if isinstance(f, Compose):
        return {
            "node": "compose",
            "outer": map_to_json(f.outer),
            "inner": map_to_json(f.inner),
        }
    if isinstance(f, MapTuple):
        return {"node": "tuple", "components": [map_to_json(c) for c in f.components]}
    raise BadParams(f"cannot serialize {type(f).__name__}")


def map_from_json(data: dict) -> MapExpr:
    if not isinstance(data, dict) or "node" not in data:
        raise BadParams("map JSON must be an object with a 'node' tag")
    kind = data["node"]
    try:
        if kind == "coordinate":
            return Coordinate(int(data["index"]), int(data["dim"]))
        if kind == "conjugate_coordinate":
            return ConjugateCoordinate(int(data["index"]), int(data["dim"]))
        if kind == "constant":
            return Constant(_j2c(data["value"]), int(data["dim"]))
        if kind == "sum":
            return Sum(tuple(map_from_json(t) for t in data["terms"]))
        if kind == "product":
            return Product(tuple(map_from_json(t) for t in data["factors"]))
        if kind == "scale":
            return Scale(_j2c(data["factor"]), map_from_json(data["inner"]))
        if kind == "power":
            return Power(data["exponent"], map_from_json(data["inner"]))
        if kind == "moebius":
            return MoebiusDisk(
                _j2c(data["a"]), _j2c(data["rotation"]), map_from_json(data["inner"])
            )
        if kind == "linear":
            rows = [[_j2c(v) for v in row] for row in data["matrix"]]
            return LinearMatrix(np.array(rows, dtype=complex))
        if kind == "compose":
            return Compose(map_from_json(data["outer"]), map_from_json(data["inner"]))
        if kind == "tuple":
            return MapTuple(tuple(map_from_json(c) for c in data["components"]))
    except KeyError as exc:
        raise BadParams(f"map JSON node '{kind}' is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"malformed map JSON node '{kind}': {exc}") from exc
    raise BadParams(f"unknown map node '{kind}'")
