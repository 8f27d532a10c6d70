"""Expression trees for holomorphic and pluriharmonic maps between complex balls.

A MapExpr is a small AST that can be evaluated at single points or batches,
serialized to JSON, and differentiated numerically (see diff.py).  Scalar
nodes produce one output; MapTuple and LinearMatrix assemble vector maps.
Holomorphy is syntactic: a tree is holomorphic iff it contains no
ConjugateCoordinate leaf.  Each node class is the one description of its
node: a JSON ``tag``, and dataclass fields that are its JSON keys, in order.
"""

from __future__ import annotations

import cmath
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, NamedTuple, get_type_hints

import numpy as np

from .errors import BadParams, DimensionMismatch, PoleHit

_POLE_TOL = 1e-14
_UNIT_TOL = 1e-12

# Upper bound for every count in a suite job and every dimension or index read
# from JSON: each one sizes an allocation or a loop.
MAX_COUNT = 10**6


class _EvalCtx:
    """Per-evaluation scratch: tracks the smallest Moebius denominator seen."""

    __slots__ = ("min_denominator",)

    def __init__(self):
        self.min_denominator = np.inf


@dataclass(frozen=True, eq=False)
class MapExpr:
    """Base class.  Subclasses set ``tag`` and implement _eval; leaves also
    implement input_dim, and vector nodes output_dim and component."""

    tag: ClassVar[str]

    @property
    def input_dim(self) -> int:
        # children share the node's input, except Compose's outer (listed first)
        return self.children()[-1].input_dim

    @property
    def output_dim(self) -> int:
        return 1

    @property
    def is_scalar(self) -> bool:
        return self.output_dim == 1

    def children(self) -> tuple["MapExpr", ...]:
        return ()

    @property
    def is_holomorphic(self) -> bool:
        return all(c.is_holomorphic for c in self.children())

    def conjugate(self) -> "MapExpr":
        """z -> conj(f(z)); by default conjugates complex fields and subtrees."""
        return type(self)(*(_FIELD_TYPES[kind].conjugate(getattr(self, name))
                            for name, kind in _FIELDS[type(self)]))

    def component(self, i: int) -> "MapExpr":
        """Scalar component i, for 0 <= i < output_dim; a scalar map is its own."""
        return self

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


def _finite(value, what: str) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise BadParams(f"{what} must be finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# leaf nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Coordinate(MapExpr):
    """z -> z_j (0-indexed) on C^dim."""

    tag = "coordinate"
    index: int
    dim: int

    def __post_init__(self):
        if not 0 <= self.index < self.dim:
            raise BadParams(f"coordinate index {self.index} out of range for C^{self.dim}")

    @property
    def input_dim(self):
        return self.dim

    def conjugate(self):
        return ConjugateCoordinate(self.index, self.dim)

    def _eval(self, z, ctx):
        return z[:, self.index]


@dataclass(frozen=True, eq=False)
class ConjugateCoordinate(Coordinate):
    """z -> conj(z_j); the only anti-holomorphic leaf.  Its fields and checks
    are Coordinate's."""

    tag = "conjugate_coordinate"

    @property
    def is_holomorphic(self):
        return False

    def conjugate(self):
        return Coordinate(self.index, self.dim)

    def _eval(self, z, ctx):
        return np.conj(z[:, self.index])


@dataclass(frozen=True, eq=False)
class Constant(MapExpr):
    """Constant scalar value viewed as a map on C^dim."""

    tag = "constant"
    value: complex
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "value", _finite(self.value, "constant value"))
        if self.dim < 1:
            raise BadParams("constant map needs a positive input dimension")

    @property
    def input_dim(self):
        return self.dim

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
    tag = "sum"
    terms: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", _check_scalar_children("Sum", self.terms))

    def children(self):
        return self.terms

    def _eval(self, z, ctx):
        acc = self.terms[0]._eval(z, ctx)
        for t in self.terms[1:]:
            acc = acc + t._eval(z, ctx)
        return acc


@dataclass(frozen=True, eq=False)
class Product(MapExpr):
    tag = "product"
    factors: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", _check_scalar_children("Product", self.factors))

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

    tag = "scale"
    factor: complex
    inner: MapExpr

    def __post_init__(self):
        object.__setattr__(self, "factor", _finite(self.factor, "scale factor"))

    @property
    def output_dim(self):
        return self.inner.output_dim

    def children(self):
        return (self.inner,)

    def component(self, i):
        return Scale(self.factor, self.inner.component(i))

    def _eval(self, z, ctx):
        return self.factor * self.inner._eval(z, ctx)


@dataclass(frozen=True, eq=False)
class Power(MapExpr):
    """Integer power w -> w^k, k >= 0, of a scalar map."""

    tag = "power"
    exponent: int
    inner: MapExpr

    def __post_init__(self):
        if int(self.exponent) != self.exponent or self.exponent < 0:
            raise BadParams(f"power exponent must be an integer >= 0, got {self.exponent}")
        object.__setattr__(self, "exponent", int(self.exponent))
        if not self.inner.is_scalar:
            raise BadParams("Power applies to scalar maps")

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

    tag = "moebius"
    a: complex
    rotation: complex
    inner: MapExpr

    def __post_init__(self):
        object.__setattr__(self, "a", _finite(self.a, "Moebius parameter"))
        object.__setattr__(self, "rotation", _finite(self.rotation, "Moebius rotation"))
        if abs(self.a) >= 1.0:
            raise BadParams(f"Moebius parameter needs |a| < 1, got |a| = {abs(self.a):.6f}")
        if abs(abs(self.rotation) - 1.0) > _UNIT_TOL:
            raise BadParams("Moebius rotation must be unimodular")
        if not self.inner.is_scalar:
            raise BadParams("MoebiusDisk applies to scalar maps")

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

    tag = "linear"
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

    def conjugate(self):
        conj_z = identity_map(self.input_dim).conjugate()
        return Compose(LinearMatrix(np.conj(self.matrix)), conj_z)

    def component(self, i):
        n = self.input_dim
        return Sum(tuple(Scale(self.matrix[i, j], Coordinate(j, n)) for j in range(n)))

    def _eval(self, z, ctx):
        return z @ self.matrix.T


@dataclass(frozen=True, eq=False)
class Compose(MapExpr):
    """outer after inner."""

    tag = "compose"
    outer: MapExpr
    inner: MapExpr

    def __post_init__(self):
        if self.outer.input_dim != self.inner.output_dim:
            raise DimensionMismatch(
                f"compose: outer expects C^{self.outer.input_dim}, "
                f"inner produces C^{self.inner.output_dim}"
            )

    @property
    def output_dim(self):
        return self.outer.output_dim

    def children(self):
        return (self.outer, self.inner)

    def conjugate(self):
        return Compose(self.outer.conjugate(), self.inner)

    def component(self, i):
        return Compose(self.outer.component(i), self.inner)

    def _eval(self, z, ctx):
        mid = self.inner._eval(z, ctx)
        if mid.ndim == 1:
            mid = mid.reshape(-1, 1)
        return self.outer._eval(mid, ctx)


@dataclass(frozen=True, eq=False)
class MapTuple(MapExpr):
    """Bundle scalar maps with a common input into a vector map."""

    tag = "tuple"
    components: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "components", _check_scalar_children("MapTuple", self.components)
        )

    @property
    def output_dim(self):
        return len(self.components)

    def children(self):
        return self.components

    def component(self, i):
        return self.components[i]

    def _eval(self, z, ctx):
        return np.stack([c._eval(z, ctx) for c in self.components], axis=-1)


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def identity_map(n: int) -> MapExpr:
    return MapTuple(tuple(Coordinate(j, n) for j in range(n)))


def component(f: MapExpr, i: int) -> MapExpr:
    """Scalar component i of a vector map, as an expression tree."""
    if not 0 <= i < f.output_dim:
        raise BadParams(f"component {i} out of range for output dimension {f.output_dim}")
    return f.component(i)


def conjugate_map(f: MapExpr) -> MapExpr:
    """The map z -> conj(f(z)), as an expression tree."""
    return f.conjugate()


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

NODES: dict[str, type[MapExpr]] = {cls.tag: cls for cls in (
    Coordinate, ConjugateCoordinate, Constant, Sum, Product, Scale, Power,
    MoebiusDisk, LinearMatrix, Compose, MapTuple)}


def json_int(value) -> int:
    """An integral number of magnitude <= MAX_COUNT (2.0 reads as 2), else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= MAX_COUNT or value != int(value)):
        raise ValueError(f"expected an integer of magnitude <= {MAX_COUNT}, got {value!r}")
    return int(value)


def _c2j(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def is_real(value) -> bool:
    """A finite real number; booleans and numeric strings do not count."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def json_real(value) -> float:
    """A finite real number (see is_real), else ValueError."""
    if not is_real(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def json_complex(value) -> complex:
    """A finite number or an [re, im] pair of finite reals, else ValueError."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        return complex(json_real(value.real), json_real(value.imag))
    if np.shape(value) != (2,):
        raise ValueError(f"expected a number or an [re, im] pair, got {value!r}")
    return complex(json_real(value[0]), json_real(value[1]))


def json_matrix(rows) -> np.ndarray:
    """A complex matrix given as rows of json_complex entries."""
    return np.array([[json_complex(v) for v in row] for row in rows])


def map_to_json(f: MapExpr) -> dict:
    """Node-tagged JSON encoding; inverse of map_from_json."""
    return {"node": f.tag, **{name: _FIELD_TYPES[kind].encode(getattr(f, name))
                              for name, kind in _FIELDS[type(f)]}}


def map_from_json(data: dict) -> MapExpr:
    if not isinstance(data, dict) or "node" not in data:
        raise BadParams("map JSON must be an object with a 'node' tag")
    tag = data["node"]
    cls = NODES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise BadParams(f"unknown map node '{tag}'")
    try:
        return cls(*(_FIELD_TYPES[kind].decode(data[name]) for name, kind in _FIELDS[cls]))
    except KeyError as exc:
        raise BadParams(f"map JSON node '{tag}' is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"malformed map JSON node '{tag}': {exc}") from exc


class _FieldType(NamedTuple):
    encode: Callable
    decode: Callable
    conjugate: Callable


# how each field type is written to JSON, read back and conjugated; an int
# is its own encoding and its own conjugate
_FIELD_TYPES = {
    int: _FieldType(int, json_int, int),
    complex: _FieldType(_c2j, json_complex, complex.conjugate),
    MapExpr: _FieldType(map_to_json, map_from_json, lambda f: f.conjugate()),
    tuple[MapExpr, ...]: _FieldType(lambda fs: [map_to_json(f) for f in fs],
                                    lambda ds: tuple(map_from_json(d) for d in ds),
                                    lambda fs: tuple(f.conjugate() for f in fs)),
    np.ndarray: _FieldType(lambda m: [[_c2j(v) for v in row] for row in m],
                           json_matrix,
                           np.conj),
}

# (name, type) of each node's fields, in JSON key order
_FIELDS = {cls: tuple((f.name, get_type_hints(cls)[f.name]) for f in fields(cls))
           for cls in NODES.values()}
