"""Jacobians, holomorphy checks, and boundary radial derivatives."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from schwarz_lab import (
    BoundaryPoint,
    Compose,
    ConjugateCoordinate,
    Coordinate,
    InsufficientClearance,
    MoebiusDisk,
    NoConvergence,
    PoleHit,
    Product,
    StepTooLarge,
    complex_jacobian,
    complex_jacobian_fd,
    evaluate,
    gallery,
    pluriharmonic_residual,
    radial_boundary_derivative,
    real_jacobian,
    tangent_pass,
)
from schwarz_lab import diff
from schwarz_lab.maps import _EvalCtx
from schwarz_lab.rng import stream
from helpers import cr_blocks, cr_defect
from test_maps import _trees


def test_square_jacobian_frozen():
    f = gallery("square_first", {"n": 3})
    z = np.ones(3, dtype=complex) * 0.5
    J = complex_jacobian(f, z)
    expected = np.diag([1.0, 1.0, 1.0]).astype(complex)
    expected[0, 0] = 1.0  # derivative of z1^2 at 0.5 is 1.0
    assert np.allclose(J, expected, atol=1e-10)


def test_real_jacobian_frozen_values():
    # z^2 at z=1: complex derivative 2, so the real Jacobian is [[2,0],[0,2]]
    f = gallery("square_first", {"n": 1})
    J = real_jacobian(f, np.array([1.0 + 0j]))
    assert J.shape == (2, 2)
    assert np.allclose(J, [[2.0, 0.0], [0.0, 2.0]], atol=1e-12)
    # conj(z): [[1,0],[0,-1]], holomorphy residual exactly 2
    g = gallery("conjugate", {"n": 1})
    Jg = real_jacobian(g, np.array([0.3 + 0.1j]))
    assert np.allclose(Jg, [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)
    A, B, C, D = cr_blocks(Jg)
    assert np.linalg.norm(A - D) == pytest.approx(2.0, abs=1e-12)
    assert tangent_pass(g, np.array([0.3 + 0.1j]))[2] == pytest.approx(2.0, abs=1e-12)


def test_holomorphy_residual_small_for_holomorphic():
    gen = stream(11, "holo")
    for name, f in [
        ("square_first", gallery("square_first", {"n": 2})),
        ("zhu", gallery("zhu_extremal", {"a": 0.3, "d": 0.2})),
    ]:
        z = 0.4 * (gen.standard_normal(f.input_dim) + 1j * gen.standard_normal(f.input_dim))
        assert tangent_pass(f, z)[2] < 1e-7, name


def test_cauchy_vs_fd_cross_validation():
    gen = stream(12, "xval")
    f = gallery("zhu_extremal", {"a": 0.25, "d": 0.3})
    for _ in range(5):
        z = np.array([complex(gen.uniform(-0.5, 0.5), gen.uniform(-0.5, 0.5))])
        a = complex_jacobian(f, z)
        b = complex_jacobian_fd(f, z).matrix
        assert np.max(np.abs(a - b)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(f=_trees.filter(lambda f: f.is_holomorphic))
def test_cauchy_and_fd_jacobians_agree_on_random_trees(f):
    n = f.input_dim
    gen = stream(13, "xval-trees", n)
    z = 0.3 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    try:
        a = complex_jacobian(f, z)
        b = complex_jacobian_fd(f, z).matrix
    except (InsufficientClearance, StepTooLarge):
        reject()
    assert np.max(np.abs(a - b)) <= 1e-6 * (1.0 + np.max(np.abs(a)))


@settings(max_examples=60, deadline=None)
@given(f=_trees, k=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_stacked_derivatives_match_per_point_calls_bit_for_bit(f, k, seed):
    n = f.input_dim
    gen = stream(seed, "stacked", n)
    zs = 0.4 * (gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n)))
    try:
        singles = [complex_jacobian(f, z) for z in zs]
        residuals = [tangent_pass(f, z)[2] for z in zs]
    except InsufficientClearance:
        reject()
    stacked = complex_jacobian(f, zs)
    assert stacked.shape == (k, f.output_dim, n)
    assert stacked.tobytes() == np.stack(singles).tobytes()
    assert tangent_pass(f, zs)[2].tolist() == residuals
    # the one-point residual is still the two Frobenius norms of the CR defect
    for z, res in zip(zs, residuals):
        assert res == cr_defect(f, z)
    assert real_jacobian(f, zs).tobytes() == np.stack(
        [real_jacobian(f, z) for z in zs]).tobytes()


@settings(max_examples=60, deadline=None)
@given(f=_trees, k=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_one_pass_jacobian_and_defect_equal_the_two_calls_bit_for_bit(f, k, seed):
    n = f.input_dim
    gen = stream(seed, "one-pass", n)
    zs = 0.4 * (gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n)))
    for z in (zs[0], zs):
        try:
            vals, jac, res, dx = tangent_pass(f, z)
        except InsufficientClearance:
            reject()
        assert vals.shape == evaluate(f, z).shape
        assert jac.tobytes() == complex_jacobian(f, z).tobytes()
        assert jac.shape == complex_jacobian(f, z).shape
        if z.ndim == 1:
            assert type(res) is float and res == cr_defect(f, z)
        else:
            assert res.tobytes() == cr_defect(f, z).tobytes()
        # df/dx_1 is the real Jacobian's first column, (Re, Im) stacked
        assert dx.shape == vals.shape
        first = real_jacobian(f, z)[..., 0]
        assert np.concatenate([dx.real, dx.imag], axis=-1).tobytes() == first.tobytes()


def _ref_cauchy_jacobian(f, z):
    """The Cauchy rule at one point: 64 nodes on circles of radius 1e-2, one sum
    per circle.  Returns the Jacobian and its gap to the 32-node subrule."""
    n, K, r = z.size, 32, 1e-2
    angles = 2.0 * np.pi * np.arange(2 * K) / (2 * K)
    pts = np.tile(z, (n, 2 * K, 1))
    pts[np.arange(n), :, np.arange(n)] += r * np.exp(1j * angles)
    vals = evaluate(f, pts.reshape(-1, n)).reshape(n, 2 * K, -1)
    weights = np.exp(-1j * angles)
    jac = np.stack([(weights[:, None] * v).sum(axis=0) for v in vals], axis=1) / (2 * K * r)
    half = np.stack([(weights[::2, None] * v[::2]).sum(axis=0) for v in vals], axis=1) / (K * r)
    return jac, float(np.max(np.abs(jac - half)))


@pytest.mark.parametrize("name", ["square_first", "first_times_last", "scaled_identity"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cauchy_jacobian_keeps_the_one_point_sums(name, n):
    f = gallery(name, {"n": n})
    gen = stream(n, "one-point-sums", name)
    shifts = 0.4 * (gen.standard_normal((3, n)) + 1j * gen.standard_normal((3, n)))
    zs = np.vstack([np.ones(n), shifts])
    want = np.stack([_ref_cauchy_jacobian(f, z)[0] for z in zs])
    stacked = complex_jacobian(f, zs)
    assert np.max(np.abs(stacked - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
    for z, J in zip(zs, stacked):
        # products with the matrix depend on its memory layout too
        assert (complex_jacobian(f, z) @ z).tobytes() == (np.ascontiguousarray(J) @ z).tobytes()


@settings(max_examples=50, deadline=None)
@given(f=_trees.filter(lambda f: f.is_holomorphic), seed=st.integers(0, 10_000))
def test_tangent_jacobian_equals_cauchy_rule_on_holomorphic_trees(f, seed):
    n = f.input_dim
    gen = stream(seed, "tangent-vs-cauchy", n)
    z = 0.3 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    try:
        J = complex_jacobian(f, z)
        ref, gap = _ref_cauchy_jacobian(f, z)
    except (InsufficientClearance, PoleHit):
        reject()
    if gap > 1e-10:
        reject()  # a pole near the circles: the rule cannot vouch for itself
    assert np.max(np.abs(J - ref)) <= 1e-9 * (1.0 + np.max(np.abs(J)))
    assert tangent_pass(f, z)[2] <= 1e-14


@settings(max_examples=50, deadline=None)
@given(f=_trees, seed=st.integers(0, 10_000))
def test_tangent_real_jacobian_equals_fd4_on_all_trees(f, seed):
    n = f.input_dim
    gen = stream(seed, "tangent-vs-fd4", n)
    z = 0.3 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    try:
        J = real_jacobian(f, z)
        d = diff._fd4(f, z, 1e-4, "finite difference")
    except (InsufficientClearance, StepTooLarge):
        reject()
    assert np.max(np.abs(J - np.vstack([d.real, d.imag]))) <= 1e-6 * (1.0 + np.max(np.abs(d)))


@settings(max_examples=60, deadline=None)
@given(f=_trees, seed=st.integers(0, 10_000))
def test_tangent_values_are_the_evaluated_values(f, seed):
    n = f.input_dim
    gen = stream(seed, "tangent-values", n)
    z = 0.4 * (gen.standard_normal((3, n)) + 1j * gen.standard_normal((3, n)))
    v = gen.standard_normal((3, n)) + 1j * gen.standard_normal((3, n))
    try:
        want = f._eval(z, _EvalCtx())
    except PoleHit:
        reject()
    assert f._tangent(z, v, _EvalCtx())[0].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), a=st.floats(0.05, 0.95), angles=st.tuples(
    st.floats(0.0, 6.3), st.floats(0.0, 6.3), st.floats(0.0, 6.3)),
    offset=st.floats(0.0, 1e-6), seed=st.integers(0, 10_000))
def test_points_near_a_moebius_pole_raise_insufficient_clearance(n, a, angles, offset, seed):
    a = a * np.exp(1j * angles[0])
    rotation = np.exp(1j * angles[1])
    j = seed % n
    f = MoebiusDisk(a, rotation, Coordinate(j, n))
    z = 0.5 * stream(seed, "near-pole", n).standard_normal(n).astype(complex)
    z[j] = -1.0 / (np.conj(a) * rotation) + offset * np.exp(1j * angles[2])
    for routine in (complex_jacobian, real_jacobian, tangent_pass):
        with pytest.raises(InsufficientClearance):
            routine(f, z)


def test_each_derivative_evaluates_one_batch(monkeypatch):
    calls = []

    def counting(f, z, ctx=None):
        calls.append(np.shape(z))
        return evaluate(f, z, ctx=ctx)

    monkeypatch.setattr(diff, "evaluate", counting)
    f = gallery("square_first", {"n": 3})
    z = np.array([0.1, 0.2j, -0.3])
    # the exact routes run the tangent pass and evaluate nothing
    for routine, batches in [(complex_jacobian, 0), (real_jacobian, 0),
                             (tangent_pass, 0), (pluriharmonic_residual, 1),
                             (complex_jacobian_fd, 2)]:
        calls.clear()
        routine(f, z)
        assert len(calls) == batches, (routine.__name__, calls)
    # a (k, n) stack is still one batch, or none
    zs = np.stack([z, 0.5 * z, -z, 1j * z])
    for routine, batches in [(complex_jacobian, 0), (real_jacobian, 0),
                             (tangent_pass, 0), (pluriharmonic_residual, 1)]:
        calls.clear()
        routine(f, zs)
        assert len(calls) == batches, (routine.__name__, calls)
    # the radial ladder evaluates its base point in the ladder's batch
    calls.clear()
    radial_boundary_derivative(f, z, z)
    assert calls == [(10, 3)]


def _ref_pluriharmonic_residual(f, z, h=2e-4, seed=0):
    """The one-point residual as it was before stacks: one line at a time."""
    n = z.size
    gen = stream(seed, "ph-residual", n)
    pts = []
    for _ in range(8):
        d = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        d /= np.linalg.norm(d)
        pts += [z + h * d, z - h * d, z + 1j * h * d, z - 1j * h * d, z]
    v = evaluate(f, np.array(pts)).reshape(8, 5, -1)
    lap = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3] - 4.0 * v[:, 4]) / h**2
    return float(np.max(np.abs(lap)))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["ph_linear_blend", "ph_blend"]), n=st.integers(1, 4),
       k=st.integers(1, 6), mix=st.floats(0.0, 1.0), shifts=st.tuples(
           st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)), seed=st.integers(0, 10_000))
def test_stacked_pluriharmonic_residual_matches_per_point_calls(name, n, k, mix, shifts, seed):
    params = {"n": n, "mix": mix}
    if name == "ph_blend":
        params.update(shift_holo=shifts[0], shift_anti=shifts[1], anchor=seed % n)
    f = gallery(name, params)
    gen = stream(seed, "stacked-ph", n)
    zs = gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n))
    # interior points, norms up to 0.95
    zs *= gen.uniform(0.0, 0.95, (k, 1)) / np.linalg.norm(zs, axis=1, keepdims=True)
    stacked = pluriharmonic_residual(f, zs, seed=seed)
    assert stacked.shape == (k,)
    assert stacked.tolist() == [pluriharmonic_residual(f, z, seed=seed) for z in zs]
    assert stacked.tolist() == [_ref_pluriharmonic_residual(f, z, seed=seed) for z in zs]


def test_chain_rule_holds():
    inner = gallery("scaled_identity", {"n": 2, "t": 0.5})
    outer = gallery("square_first", {"n": 2})
    comp = Compose(outer, inner)
    z = np.array([0.3 + 0.2j, -0.1j])
    Jf = complex_jacobian(inner, z)
    w = evaluate(inner, z)
    Jg = complex_jacobian(outer, w)
    Jc = complex_jacobian(comp, z)
    assert np.allclose(Jc, Jg @ Jf, atol=1e-10)


def test_cauchy_singularity_guards():
    f = MoebiusDisk(0.5, 1.0, Coordinate(0, 1))  # pole at z = -2
    # at the pole, and where the denominator 1 + z/2 is under the 1e-6 floor
    for z in (-2.0, -2.0 + 1e-6, -2.0 + 1e-6j):
        with pytest.raises(InsufficientClearance):
            complex_jacobian(f, np.array([z + 0j]))
    # just past the floor the exact derivative 0.75 / (1 + z/2)^2 is returned
    J = complex_jacobian(f, np.array([-2.0 + 4e-6 + 0j]))
    assert J[0, 0] == pytest.approx(0.75 / 2e-6**2, rel=1e-9)


def test_pluriharmonic_residual_detects_modulus_square():
    # |z|^2 = z * conj(z) has Laplacian 4 along every complex line
    f = Product((Coordinate(0, 1), ConjugateCoordinate(0, 1)))
    res = pluriharmonic_residual(f, np.array([0.2 + 0.1j]))
    assert res > 0.1
    # holomorphic and antiholomorphic parts are pluriharmonic
    g = gallery("ph_linear_blend", {"n": 2, "mix": 0.3})
    assert pluriharmonic_residual(g, np.array([0.1, 0.2j])) < 1e-6


def test_radial_derivative_of_square_at_one():
    f = gallery("zhu_extremal", {"a": 0.0, "d": 0.0})  # z^2
    bp = BoundaryPoint(np.array([1.0 + 0j]), 2)
    out = radial_boundary_derivative(f, bp, np.array([1.0 + 0j]))
    assert out.value[0] == pytest.approx(2.0, abs=1e-9)
    assert out.error_estimate < 1e-9


def test_radial_derivative_reports_nonconvergence():
    # a degree-8 difference quotient cannot be extrapolated to 1e-15 in 3 stages
    from schwarz_lab import Power, RichardsonConfig

    f = Power(9, Coordinate(0, 1))
    cfg = RichardsonConfig(t0=0.5, stages=3, tol=1e-15)
    with pytest.raises(NoConvergence):
        radial_boundary_derivative(f, np.array([1.0 + 0j]), np.array([1.0 + 0j]), cfg)
