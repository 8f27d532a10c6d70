"""Expression trees for holomorphic and pluriharmonic maps between complex balls.

A MapExpr is a small AST that can be evaluated at single points or batches,
serialized to JSON, and differentiated exactly by a forward-mode tangent
pass (see diff.py).  Scalar nodes produce one output; MapTuple and
LinearMatrix assemble vector maps.  Holomorphy is syntactic: a tree is
holomorphic iff it contains no ConjugateCoordinate leaf.  Each node class is
the one description of its node: a JSON ``tag``, dataclass fields that are
its JSON keys, in order, and its one arithmetic, _tangent, which gives its
value and, along a direction, its derivative; evaluate is that pass without
a direction.  Leaves add ``input_dim`` and vector nodes ``output_dim``.
_children() and the JSON encoding follow from the fields.  Conjugation and
component extraction are compositions: conj(f) is
``Compose(MapTuple(tuple(ConjugateCoordinate(j, m) for j in range(m))), f)``
and f_i is ``Compose(Coordinate(i, m), f)``, for f with output in C^m.
"""

from __future__ import annotations

import cmath
import functools
import json
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, NamedTuple, get_type_hints

import numpy as np

from .errors import BadParams, DimensionMismatch, PoleHit, SchemaError

_POLE_TOL = 1e-14
_UNIT_TOL = 1e-12

# Upper bound for every count in a suite job and every dimension or index read
# from JSON: each one sizes an allocation or a loop.
MAX_COUNT = 10**6
# Deepest nesting of arrays and objects in an input document, itself level 1,
# and of nodes in a map tree, its root level 1: a map tree is read, evaluated
# and differentiated by nested calls, one per node, so a deeper tree could
# exhaust the interpreter's recursion limit.
MAX_DEPTH = 64


class _EvalCtx:
    """Per-evaluation scratch: tracks the smallest Moebius denominator seen."""

    __slots__ = ("min_denominator",)

    def __init__(self):
        self.min_denominator = np.inf


@dataclass(frozen=True, eq=False)
class MapExpr:
    """Base class.  Subclasses set ``tag`` and implement _tangent; leaves also
    implement input_dim, and vector nodes output_dim."""

    tag: ClassVar[str]

    @functools.cached_property
    def input_dim(self) -> int:
        # children share the node's input, except Compose's outer (listed first)
        return self._children()[-1].input_dim

    @property
    def output_dim(self) -> int:
        return 1

    @property
    def is_scalar(self) -> bool:
        return self.output_dim == 1

    @functools.cached_property
    def _depth(self) -> int:
        """Nodes on the longest path from this node to a leaf, both counted."""
        return 1 + max((c._depth for c in self._children()), default=0)

    def __post_init__(self):
        # nodes with subtrees run this last; a leaf's depth is 1
        if self._depth > MAX_DEPTH:
            raise BadParams(f"map tree nested more than {MAX_DEPTH} nodes deep")

    def _children(self) -> tuple["MapExpr", ...]:
        """The subtrees held in the node's fields, in field order."""
        return tuple(sub for name, kind in _FIELDS[type(self)] if kind in _SUBTREES
                     for sub in _SUBTREES[kind](getattr(self, name)))

    @functools.cached_property
    def is_holomorphic(self) -> bool:
        return all(c.is_holomorphic for c in self._children())

    def _tangent(self, z: np.ndarray, v: np.ndarray | None, ctx: _EvalCtx):
        """(f(z), df/dz . v + df/dz-bar . conj(v)) row by row: f's values and the
        exact derivative along the real direction v of each row, or (f(z), None)
        when v is None, which computes no derivative."""
        raise NotImplementedError


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
    vals = f._tangent(pts, None, ctx)[0]
    if f.is_scalar and vals.ndim == 1:
        vals = vals.reshape(-1, 1)
    return vals[0] if single else vals


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

    def _at(self, x):
        return x[:, self.index]

    def _tangent(self, z, v, ctx):
        # real-linear, as are ConjugateCoordinate and LinearMatrix: d/dv is the value at v
        return self._at(z), None if v is None else self._at(v)


@dataclass(frozen=True, eq=False)
class ConjugateCoordinate(Coordinate):
    """z -> conj(z_j); the only anti-holomorphic leaf.  Its fields and checks
    are Coordinate's."""

    tag = "conjugate_coordinate"

    @property
    def is_holomorphic(self):
        return False

    def _at(self, x):
        return np.conj(x[:, self.index])


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

    def _tangent(self, z, v, ctx):
        val = np.full(z.shape[0], self.value, dtype=complex)
        return val, None if v is None else np.zeros(z.shape[0], dtype=complex)


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
        super().__post_init__()

    def _tangent(self, z, v, ctx):
        acc, dacc = self.terms[0]._tangent(z, v, ctx)
        for t in self.terms[1:]:
            val, dval = t._tangent(z, v, ctx)
            acc, dacc = acc + val, None if v is None else dacc + dval
        return acc, dacc


@dataclass(frozen=True, eq=False)
class Product(MapExpr):
    tag = "product"
    factors: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", _check_scalar_children("Product", self.factors))
        super().__post_init__()

    def _tangent(self, z, v, ctx):
        acc, dacc = self.factors[0]._tangent(z, v, ctx)
        for t in self.factors[1:]:
            val, dval = t._tangent(z, v, ctx)
            acc, dacc = acc * val, None if v is None else dacc * val + acc * dval
        return acc, dacc


@dataclass(frozen=True, eq=False)
class Scale(MapExpr):
    """Componentwise multiplication by a fixed complex factor."""

    tag = "scale"
    factor: complex
    inner: MapExpr

    def __post_init__(self):
        object.__setattr__(self, "factor", _finite(self.factor, "scale factor"))
        super().__post_init__()

    @property
    def output_dim(self):
        return self.inner.output_dim

    def _tangent(self, z, v, ctx):
        val, dval = self.inner._tangent(z, v, ctx)
        return self.factor * val, None if v is None else self.factor * dval


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
        super().__post_init__()

    def _tangent(self, z, v, ctx):
        w, dw = self.inner._tangent(z, v, ctx)
        k = self.exponent
        return w**k, None if v is None else (k * w ** max(k - 1, 0)) * dw


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
        super().__post_init__()

    def _tangent(self, z, v, ctx):
        u, du = self.inner._tangent(z, v, ctx)
        w = self.rotation * u
        den = 1.0 + np.conj(self.a) * w
        dmin = float(np.abs(den).min())
        if dmin < ctx.min_denominator:
            ctx.min_denominator = dmin
        if dmin <= _POLE_TOL:
            raise PoleHit("Moebius denominator vanished")
        # d/du (a + rotation u) / den = rotation (1 - |a|^2) / den^2
        return (self.a + w) / den, None if v is None else (
            self.rotation * (1.0 - abs(self.a) ** 2) / den**2) * du


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

    def _at(self, x):
        out = x @ self.matrix.T
        return out[:, 0] if self.is_scalar else out  # (k,) rows, as every scalar node

    def _tangent(self, z, v, ctx):
        return self._at(z), None if v is None else self._at(v)


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
        super().__post_init__()

    @property
    def output_dim(self):
        return self.outer.output_dim

    def _tangent(self, z, v, ctx):
        # chain rule: the inner derivative is the outer map's direction
        mid, dmid = self.inner._tangent(z, v, ctx)
        if mid.ndim == 1:
            mid = mid.reshape(-1, 1)
            dmid = None if v is None else dmid.reshape(-1, 1)
        return self.outer._tangent(mid, dmid, ctx)


@dataclass(frozen=True, eq=False)
class MapTuple(MapExpr):
    """Bundle scalar maps with a common input into a vector map."""

    tag = "tuple"
    components: tuple[MapExpr, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "components", _check_scalar_children("MapTuple", self.components)
        )
        super().__post_init__()

    @property
    def output_dim(self):
        return len(self.components)

    def _tangent(self, z, v, ctx):
        shape = (z.shape[0], len(self.components))
        if v is None:
            val = np.empty(shape, dtype=complex)
            for j, c in enumerate(self.components):
                val[:, j] = c._tangent(z, None, ctx)[0]
            return val, None
        val, dval = np.empty((2, *shape), dtype=complex)
        for j, c in enumerate(self.components):
            val[:, j], dval[:, j] = c._tangent(z, v, ctx)
        return val, dval


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def identity_map(n: int) -> MapExpr:
    return MapTuple(tuple(Coordinate(j, n) for j in range(n)))


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


def load_json(text):
    """json.loads, except that text nested too deep to decode is a SchemaError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError(f"nested too deep to decode; at most {MAX_DEPTH} levels are read",
                          path="/") from None


def json_pointer(path: str, key) -> str:
    """The JSON pointer to key below path, escaped as RFC 6901 asks: ~ as ~0, / as ~1."""
    return f"{path}/{str(key).replace('~', '~0').replace('/', '~1')}"


def json_too_deep(doc) -> str | None:
    """The JSON pointer of an array or object in doc nested below MAX_DEPTH
    levels, else None; the walk keeps its own stack, so no depth recurses."""
    stack = [(doc, "", 1)]
    while stack:
        node, path, level = stack.pop()
        if level > MAX_DEPTH:
            return path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        stack.extend((v, json_pointer(path, k), level + 1) for k, v in items
                     if isinstance(v, (dict, list)))
    return None


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


def map_from_json(data: dict, depth: int = 1, path: str = "") -> MapExpr:
    """Inverse of map_to_json.  data is a node at `depth` of its tree, the root
    at 1, and at JSON pointer `path` below it: a tree deeper than MAX_DEPTH nodes
    is BadParams before any node of it is built, and a key the node does not
    declare is BadParams at that key's path."""
    if depth > MAX_DEPTH:
        raise BadParams(f"map JSON nested more than {MAX_DEPTH} nodes deep")
    if not isinstance(data, dict) or "node" not in data:
        raise BadParams("map JSON must be an object with a 'node' tag")
    tag = data["node"]
    cls = NODES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise BadParams(f"unknown map node '{tag}'")
    keys = ["node", *(name for name, _ in _FIELDS[cls])]
    for key in data:
        if key not in keys:
            raise BadParams(f"map node '{tag}' has no key {key!r}; its keys are {keys}",
                            path=json_pointer(path, key))
    try:
        return cls(*(_FIELD_TYPES[kind].decode(data[name], depth + 1, f"{path}/{name}")
                     if kind in _SUBTREES
                     else _FIELD_TYPES[kind].decode(data[name]) for name, kind in _FIELDS[cls]))
    except KeyError as exc:
        raise BadParams(f"map JSON node '{tag}' is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"malformed map JSON node '{tag}': {exc}") from exc


class _FieldType(NamedTuple):
    encode: Callable
    decode: Callable


# how each field type is written to JSON and read back; an int is its own
# encoding, and a subtree's decoder takes its depth and JSON pointer
_FIELD_TYPES = {
    int: _FieldType(int, json_int),
    complex: _FieldType(_c2j, json_complex),
    MapExpr: _FieldType(map_to_json, map_from_json),
    tuple[MapExpr, ...]: _FieldType(lambda fs: [map_to_json(f) for f in fs],
                                    lambda ds, depth, path: tuple(map_from_json(
                                        d, depth, f"{path}/{i}") for i, d in enumerate(ds))),
    np.ndarray: _FieldType(lambda m: [[_c2j(v) for v in row] for row in m], json_matrix),
}

# the subtrees a field of each type holds
_SUBTREES = {MapExpr: lambda f: (f,), tuple[MapExpr, ...]: tuple}

# (name, type) of each node's fields, in JSON key order
_FIELDS = {cls: tuple((f.name, get_type_hints(cls)[f.name]) for f in fields(cls))
           for cls in NODES.values()}
