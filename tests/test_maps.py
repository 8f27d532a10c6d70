"""Map AST: evaluation, structure, serialization, gallery constructors."""

import cmath
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from schwarz_lab import (
    BadParams,
    Compose,
    ConjugateCoordinate,
    Constant,
    Coordinate,
    DimensionMismatch,
    InsufficientClearance,
    LinearMatrix,
    MapTuple,
    MoebiusDisk,
    PoleHit,
    Power,
    Product,
    Scale,
    Sum,
    complex_jacobian,
    evaluate,
    gallery,
    gallery_names,
    identity_map,
    map_from_json,
    map_to_json,
    norm_p,
)
from schwarz_lab import diff, maps
from schwarz_lab.maps import MapExpr, NODES, _EvalCtx
from schwarz_lab.rng import stream

from helpers import ball_self_map_instances, min_moebius_denominator


def test_power_frozen_value():
    f = Power(3, Coordinate(0, 1))
    assert evaluate(f, 0.5)[0] == pytest.approx(0.125, abs=0)
    assert evaluate(f, 0.0)[0] == 0.0
    with pytest.raises(BadParams):
        Power(-1, Coordinate(0, 1))


def test_basic_nodes_evaluate():
    n = 3
    z = np.array([0.2 + 0.1j, -0.4, 0.5j])
    assert evaluate(Coordinate(1, n), z)[0] == z[1]
    assert evaluate(ConjugateCoordinate(2, n), z)[0] == np.conj(z[2])
    assert evaluate(Constant(2 - 1j, n), z)[0] == 2 - 1j
    s = Sum((Coordinate(0, n), Coordinate(1, n)))
    assert evaluate(s, z)[0] == pytest.approx(z[0] + z[1])
    pr = Product((Coordinate(0, n), Coordinate(2, n)))
    assert evaluate(pr, z)[0] == pytest.approx(z[0] * z[2])
    sc = Scale(3j, Coordinate(0, n))
    assert evaluate(sc, z)[0] == pytest.approx(3j * z[0])


def test_batch_evaluation_matches_pointwise():
    f = gallery("square_first", {"n": 2})
    gen = stream(0, "batch")
    pts = 0.5 * (gen.standard_normal((40, 2)) + 1j * gen.standard_normal((40, 2)))
    batch = evaluate(f, pts)
    singles = np.stack([evaluate(f, p) for p in pts])
    assert np.array_equal(batch, singles)


def test_moebius_node_properties():
    m = MoebiusDisk(0.3, 1.0, Coordinate(0, 1))
    assert evaluate(m, 0.0)[0] == pytest.approx(0.3)
    assert evaluate(m, 1.0)[0] == pytest.approx(1.0)  # fixes 1 for real a
    with pytest.raises(BadParams):
        MoebiusDisk(1.2, 1.0, Coordinate(0, 1))
    with pytest.raises(BadParams):
        MoebiusDisk(0.2, 0.5, Coordinate(0, 1))
    # pole sits at -1/a on the real axis
    with pytest.raises(PoleHit):
        evaluate(MoebiusDisk(0.5, 1.0, Coordinate(0, 1)), -2.0)
    den = min_moebius_denominator(m, np.array([[0.5 + 0.0j]]))
    assert den == pytest.approx(1.15, abs=1e-12)


def test_linear_compose_tuple_dims():
    mat = np.array([[1.0, 2.0], [0.0, 1j], [1.0, 0.0]])
    lin = LinearMatrix(mat)
    assert lin.input_dim == 2 and lin.output_dim == 3
    z = np.array([1.0, 1j])
    assert np.allclose(evaluate(lin, z), mat @ z)
    comp = Compose(LinearMatrix(np.eye(3)), lin)
    assert np.allclose(evaluate(comp, z), mat @ z)
    with pytest.raises(DimensionMismatch):
        Compose(lin, lin)
    with pytest.raises(DimensionMismatch):
        evaluate(lin, np.array([1.0, 2.0, 3.0]))


def test_one_row_linear_matrix_is_a_scalar_operand():
    # a one-row LinearMatrix gives (k,) rows, as every scalar node: it used to
    # give (k, 1), which Sum and Product broadcast to (k, k)
    first, twice_second = LinearMatrix([[1.0, 0.0]]), LinearMatrix([[0.0, 2.0]])
    pts = np.array([[0.1, 0.2j], [0.3 - 0.1j, 0.4], [-0.5, 0.25 + 0.25j]])
    z, w = pts[:, 0], pts[:, 1]
    cases = [
        (Sum((first, Coordinate(1, 2))), (z + w)[:, None], [[1.0, 1.0]]),
        (Product((first, Coordinate(1, 2))), (z * w)[:, None], [[w[0], z[0]]]),
        (MapTuple((first, twice_second)), np.stack([z, 2.0 * w], axis=1),
         [[1.0, 0.0], [0.0, 2.0]]),
    ]
    for f, want, jac0 in cases:
        for g in (f, map_from_json(json.loads(json.dumps(map_to_json(f))))):
            vals = evaluate(g, pts)
            assert vals.shape == want.shape
            assert np.allclose(vals, want, rtol=0.0, atol=1e-15)
            assert np.allclose(complex_jacobian(g, pts[0]), jac0, rtol=0.0, atol=1e-15)


def test_holomorphy_flag_is_syntactic():
    assert gallery("square_first", {"n": 2}).is_holomorphic
    assert not gallery("conjugate", {"n": 2}).is_holomorphic
    assert not gallery("ph_linear_blend", {"n": 2, "mix": 0.5}).is_holomorphic
    assert gallery("zhu_extremal", {"a": 0.2, "d": 0.1}).is_holomorphic


def _component(f, i):
    """f_i as the composition Coordinate(i, m) after f."""
    return Compose(Coordinate(i, f.output_dim), f)


def _conjugate(f):
    """conj(f) as the composition of the gallery's conj(w) after f."""
    return Compose(gallery("conjugate", {"n": f.output_dim}), f)


def test_component_extraction():
    f = gallery("square_first", {"n": 3})
    z = np.array([0.4, 0.2j, -0.1])
    for i in range(3):
        assert evaluate(_component(f, i), z)[0] == evaluate(f, z)[i]
    composed = Compose(identity_map(3), f)
    for i in range(3):
        assert evaluate(_component(composed, i), z)[0] == evaluate(f, z)[i]
    lin = LinearMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    for i in range(2):
        assert evaluate(_component(lin, i), np.array([1.0, 1j]))[0] == (
            evaluate(lin, np.array([1.0, 1j]))[i]
        )
    # a scalar map's component 0 is its value, and it has no other
    scalar = Coordinate(0, 2)
    assert evaluate(_component(scalar, 0), z[:2])[0] == evaluate(scalar, z[:2])[0]
    for g, bad in ((f, (-1, 3)), (scalar, (-1, 1, 5))):
        for i in bad:
            with pytest.raises(BadParams):
                _component(g, i)


def test_conjugate_map_is_pointwise_conjugate():
    gen = stream(2, "conj")
    maps_to_try = [
        gallery("square_first", {"n": 2}),
        gallery("zhu_extremal", {"a": 0.3, "d": 0.2}),
        LinearMatrix(np.array([[0.5, 1j], [0.0, 0.25]])),
        Compose(gallery("square_first", {"n": 2}), gallery("scaled_identity", {"n": 2, "t": 0.5})),
    ]
    for f in maps_to_try:
        g = _conjugate(f)
        pts = 0.4 * (gen.standard_normal((10, f.input_dim)) + 1j * gen.standard_normal((10, f.input_dim)))
        assert np.allclose(evaluate(g, pts), np.conj(evaluate(f, pts)), atol=1e-14)


def test_json_roundtrip_all_nodes():
    n = 2
    tree = MapTuple(
        (
            Sum(
                (
                    Scale(1 - 2j, Power(3, Coordinate(0, n))),
                    Product((Coordinate(1, n), ConjugateCoordinate(0, n))),
                    Constant(0.25j, n),
                )
            ),
            MoebiusDisk(0.1 + 0.2j, np.exp(0.7j), Coordinate(1, n)),
        )
    )
    full = Compose(LinearMatrix(np.array([[1.0, 1j], [0.0, 2.0]])), tree)
    blob = json.dumps(map_to_json(full))
    back = map_from_json(json.loads(blob))
    gen = stream(4, "roundtrip")
    pts = 0.3 * (gen.standard_normal((20, n)) + 1j * gen.standard_normal((20, n)))
    assert np.allclose(evaluate(back, pts), evaluate(full, pts), atol=0)
    # serialization is stable under a second round trip
    assert map_to_json(back) == json.loads(blob)


# random trees over every node class, for the node protocol properties
_small = st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
_unimodular = st.floats(0.0, 6.3).map(lambda t: cmath.exp(1j * t))


def _matrices(m, n):
    return st.lists(_small, min_size=m * n, max_size=m * n).map(
        lambda v: LinearMatrix(np.array(v).reshape(m, n)))


def _scalars(n):
    leaves = st.one_of(
        st.builds(Coordinate, st.integers(0, n - 1), st.just(n)),
        st.builds(ConjugateCoordinate, st.integers(0, n - 1), st.just(n)),
        st.builds(Constant, _small, st.just(n)),
    )

    def grow(trees):
        operands = st.lists(trees, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Sum, operands),
            st.builds(Product, operands),
            st.builds(Scale, _small, trees),
            st.builds(Power, st.integers(0, 3), trees),
            st.builds(MoebiusDisk, _small, _unimodular, trees),
        )

    return st.recursive(leaves, grow, max_leaves=5)


def _vectors(n):
    return st.integers(2, 3).flatmap(lambda m: st.one_of(
        st.lists(_scalars(n), min_size=m, max_size=m).map(lambda c: MapTuple(tuple(c))),
        _matrices(m, n),
    ))


def _maps(n):
    def compose(inner):
        outer = st.one_of(_scalars(inner.output_dim), _vectors(inner.output_dim))
        return outer.map(lambda f: Compose(f, inner))

    vectors = _vectors(n)
    return st.one_of(
        _scalars(n),
        vectors,
        st.builds(Scale, _small, vectors),
        vectors.flatmap(compose),
    )


_trees = st.integers(1, 3).flatmap(_maps)


def _points(n):
    gen = stream(5, "node-protocol", n)
    return 0.5 * (gen.standard_normal((6, n)) + 1j * gen.standard_normal((6, n)))


@settings(max_examples=40, deadline=None)
@given(f=_trees)
def test_node_protocol_properties(f):
    pts = _points(f.input_dim)
    try:
        vals = evaluate(f, pts)
    except PoleHit:
        reject()
    close = dict(rtol=1e-12, atol=1e-14)
    blob = json.loads(json.dumps(map_to_json(f)))
    back = map_from_json(blob)
    assert map_to_json(back) == blob
    assert np.array_equal(evaluate(back, pts), vals)
    conj = _conjugate(f)
    np.testing.assert_allclose(evaluate(conj, pts), np.conj(vals), **close)
    np.testing.assert_allclose(evaluate(_conjugate(conj), pts), vals, **close)
    for i in range(f.output_dim):
        np.testing.assert_allclose(evaluate(_component(f, i), pts)[:, 0], vals[:, i], **close)
    for node in _nodes(f):
        subtrees = ()
        for fld in dataclasses.fields(node):
            value = getattr(node, fld.name)
            if isinstance(value, MapExpr):
                subtrees += (value,)
            elif isinstance(value, tuple):
                subtrees += value
        assert node._children() == subtrees
    try:
        fz, df = diff._derivatives(f, pts)
        conj_fz, conj_df = diff._derivatives(conj, pts)
    except InsufficientClearance:
        reject()
    np.testing.assert_allclose(conj_fz, np.conj(fz), **close)
    np.testing.assert_allclose(conj_df, np.conj(df), **close)
    for i in range(f.output_dim):
        cz, cd = diff._derivatives(_component(f, i), pts)
        assert cz[:, 0].tobytes() == fz[:, i].tobytes()
        assert cd[:, 0].tobytes() == df[:, i].tobytes()


def _nodes(f):
    """Every node of a tree, depth first."""
    yield f
    for c in f._children():
        yield from _nodes(c)


def _tuples(f):
    """Every MapTuple node of a tree."""
    return (node for node in _nodes(f) if isinstance(node, MapTuple))


@settings(max_examples=60, deadline=None)
@given(f=_trees, seed=st.integers(0, 10_000))
def test_tuple_values_and_tangents_equal_the_stacked_components(f, seed):
    for node in _tuples(f):
        n = node.input_dim
        gen = stream(seed, "tuple-stack", n)
        z, v = 0.5 * (gen.standard_normal((2, 6, n)) + 1j * gen.standard_normal((2, 6, n)))
        try:
            vals = [c._eval(z, _EvalCtx()) for c in node.components]
            parts = [c._tangent(z, v, _EvalCtx()) for c in node.components]
        except PoleHit:
            reject()
        val, dval = node._tangent(z, v, _EvalCtx())
        assert node._eval(z, _EvalCtx()).tobytes() == np.stack(vals, axis=-1).tobytes()
        assert val.tobytes() == np.stack([p[0] for p in parts], axis=-1).tobytes()
        assert dval.tobytes() == np.stack([p[1] for p in parts], axis=-1).tobytes()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_node_class_is_tagged_and_typed():
    for cls in _subclasses(MapExpr):
        assert NODES.get(cls.tag) is cls, cls.__name__
        for name, kind in maps._FIELDS[cls]:
            assert kind in maps._FIELD_TYPES, (cls.__name__, name)


@pytest.mark.filterwarnings("error")
def test_unitary_rejects_non_finite_entries_without_warnings():
    with pytest.raises(BadParams):
        gallery("unitary", {"matrix": [[math.inf, 0.0], [0.0, 1.0]]})


def test_json_rejects_garbage():
    with pytest.raises(BadParams):
        map_from_json({"node": "frobnicate"})
    with pytest.raises(BadParams):
        map_from_json({"no_node": 1})
    with pytest.raises(BadParams):
        map_from_json({"node": "power", "exponent": 2})  # missing inner


def _json_nodes(data, pointer=""):
    """(pointer, node object) of every node of a map's JSON, root first."""
    yield pointer, data
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _json_nodes(value, f"{pointer}/{key}")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                yield from _json_nodes(item, f"{pointer}/{key}/{i}")


@settings(max_examples=30, deadline=None)
@given(f=_trees, key=st.sampled_from(["bogus", "params", "a/b~c", "Node"]))
def test_an_undeclared_key_at_any_node_is_bad_params_at_its_pointer(f, key):
    escaped = key.replace("~", "~0").replace("/", "~1")
    blob = map_to_json(f)
    for pointer, node in _json_nodes(blob):
        node[key] = 1
        with pytest.raises(BadParams, match=f"has no key '{re.escape(key)}'") as err:
            map_from_json(blob)
        assert err.value.path == f"{pointer}/{escaped}"
        del node[key]
    assert map_to_json(map_from_json(blob)) == map_to_json(f)


def _scale_chain_json(levels: int) -> dict:
    """A map dict of `levels` nested nodes: scale nodes around one coordinate."""
    data = {"node": "coordinate", "index": 0, "dim": 1}
    for _ in range(levels - 1):
        data = {"node": "scale", "factor": 1.0, "inner": data}
    return data


def test_map_json_deeper_than_the_cap_is_bad_params():
    # 500 levels once ended map_from_json in a RecursionError
    assert evaluate(map_from_json(_scale_chain_json(maps.MAX_DEPTH)), 0.5)[0] == 0.5
    for levels in (maps.MAX_DEPTH + 1, 500, 5000):
        with pytest.raises(BadParams, match="nodes deep"):
            map_from_json(_scale_chain_json(levels))
    tuples = {"node": "coordinate", "index": 0, "dim": 1}
    for _ in range(maps.MAX_DEPTH):
        tuples = {"node": "tuple", "components": [tuples]}
    with pytest.raises(BadParams, match="nodes deep"):
        map_from_json(tuples)


def test_node_classes_refuse_a_tree_deeper_than_the_cap():
    # a 2000-node chain once built and then ended evaluate in a RecursionError
    f = Coordinate(0, 1)
    for _ in range(maps.MAX_DEPTH - 1):
        f = Scale(1.0, f)
    assert evaluate(f, 0.5)[0] == 0.5
    for wrap in (lambda g: Scale(1.0, g), lambda g: MapTuple((g,)), lambda g: Power(1, g),
                 lambda g: Compose(Coordinate(0, 1), g), lambda g: Sum((g, g))):
        with pytest.raises(BadParams, match="nodes deep"):
            wrap(f)


# ---------------------------------------------------------------------------
# gallery constructors
# ---------------------------------------------------------------------------


def test_gallery_zhu_degenerate_is_square():
    f = gallery("zhu_extremal", {"a": 0.0, "d": 0.0})
    gen = stream(6, "zhu0")
    for _ in range(10):
        z = complex(*gen.uniform(-0.7, 0.7, 2))
        assert evaluate(f, z)[0] == pytest.approx(z * z, abs=1e-14)


def test_gallery_zhu_matches_design_data():
    a, d = 0.3 - 0.1j, 0.4
    f = gallery("zhu_extremal", {"a": [a.real, a.imag], "d": d})
    assert evaluate(f, 0.0)[0] == pytest.approx(a, abs=1e-14)
    assert evaluate(f, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BadParams):
        gallery("zhu_extremal", {"a": 0.5, "d": 0.9})  # d > 1 - |a|^2


def test_gallery_kalaj_unit_direction_enforced():
    b = [1.0, 1.0]
    with pytest.raises(BadParams):
        gallery("kalaj_extremal", {"b": b, "a": 0.2, "d": 0.1, "p": 2})
    b = list(np.array([1.0, 1.0]) / np.sqrt(2.0))
    f = gallery("kalaj_extremal", {"b": b, "a": 0.2, "d": 0.1, "p": 2})
    w = evaluate(f, np.array([1.0 + 0j]))
    assert norm_p(w, 2) == pytest.approx(1.0, abs=1e-12)


def test_gallery_vector_params_accept_pairs():
    kalaj = gallery("kalaj_extremal", {"b": [[0.6, 0.0], [0.8, 0.0]],
                                       "a": 0.4, "d": 0.2, "p": 2})
    tuple_map = gallery("moebius_tuple", {"m": 2, "a": [[0.3, 0.1], [-0.2, 0.0]],
                                          "rotation": [[0.0, 1.0], [1.0, 0.0]]})
    assert kalaj.output_dim == 2
    assert tuple_map.output_dim == 2


def test_gallery_self_map_property_sampled():
    gen = stream(8, "selfmap")
    for p in (2.0, 3.0, np.inf):
        for name, f in ball_self_map_instances(p, 3):
            pts = gen.standard_normal((50, 3)) + 1j * gen.standard_normal((50, 3))
            norms = np.array([norm_p(z, p) for z in pts])
            pts = pts / norms[:, None] * gen.uniform(0.05, 0.999, 50)[:, None]
            vals = evaluate(f, pts)
            out = max(norm_p(w, p) for w in vals)
            assert out <= 1.0 + 1e-12, f"{name} escapes the ball at p={p}"
            assert np.allclose(evaluate(f, np.zeros(3, dtype=complex)), 0.0, atol=1e-14), name


def test_gallery_product_maps_shapes():
    f = gallery("product_projection", {"n": 2, "m": 3})
    assert f.input_dim == 5 and f.output_dim == 3
    zw = np.array([0.1, 0.2, 0.3j, 0.4, 0.5])
    assert np.allclose(evaluate(f, zw), [0.3j, 0.4, 0.5])
    g = gallery("product_mixed", {"n": 2, "m": 2})
    zw = np.array([0.5, 0.0, 0.6, -0.2j])
    w1 = 0.6
    assert evaluate(g, zw)[0] == pytest.approx((w1 + 0.5 * w1**2) / 2.0)


def test_gallery_ph_blend_fixes_anchor():
    f = gallery("ph_blend", {"n": 3, "mix": 0.4, "shift_holo": 0.2, "shift_anti": -0.3, "anchor": 1})
    e1 = np.zeros(3, dtype=complex)
    e1[1] = 1.0
    assert np.allclose(evaluate(f, e1), e1, atol=1e-14)
    expected_origin = 0.4 * 0.2 + 0.6 * (-0.3)
    assert evaluate(f, np.zeros(3, dtype=complex))[1] == pytest.approx(expected_origin)


def test_gallery_registry_guards():
    assert "identity" in gallery_names()
    with pytest.raises(BadParams):
        gallery("nope")
    with pytest.raises(BadParams):
        gallery("identity", {"bogus": 3})
    with pytest.raises(BadParams):
        gallery("first_times_last", {"n": 1})
    with pytest.raises(BadParams):
        gallery("diag_power", {"ks": [0, 1]})
    with pytest.raises(BadParams):
        gallery("unitary", {"matrix": [[1.0, 1.0], [0.0, 1.0]]})
