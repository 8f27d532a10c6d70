"""The checks are equivariant under automorphisms of the ball.

If U is an automorphism of B_{lp^n} fixing 0, then g = U f U^-1 at U z0 meets
the same hypotheses as f at z0, with the same eigenvalue and bounds.  For
p != 2 the linear automorphisms are the unimodular diagonals times the
permutations; at p = 2 they are the unitary group.  Each test asks for the
same verdict and the same hypothesis flags, and for each compared quantity x
that |x(g) - x(f)| <= RELATIVE_BUDGET * max(1, |x(f)|).

Measured on seeded sweeps of 400 cases each: lp_boundary_schwarz's lambda
moved by at most 3.6e-15 (16 ulp of its scale), and liu_wang's lambda and
lower_bound by at most 9.6e-15 relative, the largest at a = -0.9, where
moebius_fix1's derivative at 1 is 19 and its denominator 1 + a z cancels to
0.1.  No verdict or flag flipped.

pluriharmonic_boundary pairs the realified image with a vector on the real
lp sphere of R^{2N}.  At p = 2 a unitary acts on the realification as an
orthogonal map and keeps that sphere; at p in {4, inf} only permutations
times quarter turns (diagonal entries in {1, i, -1, -i}) do, since they move
the real coordinates by signed permutations and any other phase leaves the
sphere.  rigidity pairs anchor rows with J a; rigidity_v's rows are real and
unconjugated, so only permutations keep its equations, and its anchors
real and nonnegative.  Sampled values are not compared: the pluriharmonic
residual's random lines, the rigidity self-map escape and the identity
residual on the Halton grid are read at fixed points, which U does not map
onto each other.
On 400 cases each: the pluriharmonic lhs, mid, low and Harnack margin moved
by at most 2.9e-15 at p = 2 and 2.2e-16 at p in {4, inf}; the rigidity
fixed-point residuals and equation values by at most 1.3e-15.  No verdict,
reason, rank or flag flipped.

product_slice's ball factor is permuted, which keeps the ball for every p.
On 400 cases (197 passing, 203 failing both chain bounds) the slice gap and
the Moebius fit residual were bit-equal, and no verdict or flag flipped.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_lab import (
    BoundaryPoint,
    CheckConfig,
    Compose,
    Constant,
    Coordinate,
    LinearMatrix,
    MapTuple,
    MoebiusDisk,
    Scale,
    Sum,
    gallery,
    haar_unitary,
    identity_map,
    norm_p,
    verify_liu_wang,
    verify_lp_boundary_schwarz,
    verify_pluriharmonic_boundary,
    verify_product_slice,
)
from schwarz_lab.rigidity import RigidityInstance, check_rigidity
from schwarz_lab.rng import stream
from test_rigidity import _EXPONENTS, _SELF_MAPS, _random_anchors

RELATIVE_BUDGET = 1e-13

_angles = st.floats(0.0, 2.0 * math.pi)


def _conjugated(f, U):
    """z -> U f(U^-1 z) for a unitary U."""
    return Compose(LinearMatrix(U), Compose(f, LinearMatrix(np.conj(U).T)))


def _assert_close(key, x, y):
    assert abs(y - x) <= RELATIVE_BUDGET * max(1.0, abs(x)), (key, x, y)


def _assert_same_reading(v, w, keys):
    assert w.passed == v.passed
    assert [(h.name, h.ok) for h in w.hypotheses] == [(h.name, h.ok) for h in v.hypotheses]
    for key in keys:
        _assert_close(key, v.quantities[key], w.quantities[key])


def _quarter_turns(draw, n):
    """A permutation times a diagonal with entries in {1, i, -1, -i}."""
    perm = draw(st.permutations(range(n)))
    turns = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return np.diag(1j ** np.array(turns)) @ np.eye(n)[list(perm)]


@st.composite
def _diag_power_cases(draw):
    n = draw(st.integers(2, 3))
    ks = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    units = [np.exp(1j * t) for t in draw(st.lists(_angles, min_size=n, max_size=n))]
    f = gallery("diag_power", {"ks": ks, "units": [[u.real, u.imag] for u in units]})
    perm = draw(st.permutations(range(n)))
    rotations = np.exp(1j * np.array(draw(st.lists(_angles, min_size=n, max_size=n))))
    U = np.diag(rotations) @ np.eye(n)[list(perm)]
    z0 = np.zeros(n, dtype=complex)
    z0[draw(st.integers(0, n - 1))] = np.exp(1j * draw(_angles))
    return f, U, z0


@settings(max_examples=30, deadline=None)
@given(case=_diag_power_cases(), p=st.sampled_from([2.0, 3.0, 4.0, 6.0]))
def test_lp_boundary_schwarz_is_equivariant_under_rotations_and_permutations(case, p):
    f, U, z0 = case
    v = verify_lp_boundary_schwarz(f, BoundaryPoint(z0, p))
    w = verify_lp_boundary_schwarz(_conjugated(f, U), BoundaryPoint(U @ z0, p))
    _assert_same_reading(v, w, ["lambda"])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 10_000), a=st.floats(-0.9, 0.9))
def test_liu_wang_is_equivariant_under_unitaries(n, seed, a):
    # the disc automorphism fixing 1 at n = 1; above that the identity, which
    # fixes every boundary point
    f = gallery("moebius_fix1", {"a": a}) if n == 1 else identity_map(n)
    U = haar_unitary(n, stream(seed, "liu-wang-equivariance", n))
    z0 = np.eye(n, dtype=complex)[0]
    v = verify_liu_wang(f, BoundaryPoint(z0, 2))
    w = verify_liu_wang(_conjugated(f, U), BoundaryPoint(U @ z0, 2))
    _assert_same_reading(v, w, ["lambda", "lower_bound"])


@st.composite
def _pluriharmonic_cases(draw):
    """(f, U, z0, p): a pluriharmonic self-map with f(z0) on the sphere, where the
    pairing vector exists, and a linear automorphism U that keeps it."""
    p = draw(st.sampled_from([2.0, 4.0, math.inf]))
    name = draw(st.sampled_from(["identity", "ph_linear_blend", "ph_blend"]))
    # e_k lies on the torus only at n = 1
    n = 1 if name == "ph_blend" and math.isinf(p) else draw(st.integers(1, 3))
    mix = draw(st.floats(0.0, 1.0))
    gen = stream(draw(st.integers(0, 10_000)), "pluriharmonic-equivariance", n)
    if name == "ph_blend":
        # f(0) = (mix a + (1 - mix) b) e_k, so mid and low move off 1/2
        k = draw(st.integers(0, n - 1))
        f = gallery(name, {"n": n, "mix": mix, "shift_holo": draw(st.floats(-0.5, 0.5)),
                           "shift_anti": draw(st.floats(-0.5, 0.5)), "anchor": k})
        z0 = np.eye(n, dtype=complex)[k]
    else:
        # the identity fixes every point, the blend the real ones
        identity = name == "identity"
        f = identity_map(n) if identity else gallery(name, {"n": n, "mix": mix})
        turns = gen.integers(0, 4, n) if identity else 2 * gen.integers(0, 2, n)
        if p == 2.0:
            z0 = gen.standard_normal(n) + (1j * gen.standard_normal(n) if identity else 0.0)
        elif p == 4.0:  # the pairing needs every coordinate on an axis
            z0 = np.abs(gen.standard_normal(n)) * 1j ** turns
        else:  # the pairing needs unimodular coordinates, one on an axis
            z0 = 1j ** turns
            if identity:
                z0[1:] = np.exp(2j * np.pi * gen.uniform(0.0, 1.0, n - 1))
        z0 = z0 / norm_p(z0, p)
    U = haar_unitary(n, gen) if p == 2.0 else _quarter_turns(draw, n)
    return f, U, z0, p


@settings(max_examples=40, deadline=None)
@given(case=_pluriharmonic_cases())
def test_pluriharmonic_boundary_is_equivariant(case):
    f, U, z0, p = case
    v = verify_pluriharmonic_boundary(f, BoundaryPoint(z0, p))
    w = verify_pluriharmonic_boundary(_conjugated(f, U), BoundaryPoint(U @ z0, p))
    _assert_same_reading(v, w, ["lhs", "mid", "low", "harnack_margin"])


@st.composite
def _rigidity_cases(draw):
    """(inst, moved): an instance and the same one under g = U f U^-1 with the
    anchors mapped by U: a Haar unitary at p = 2, a permutation for rigidity_v,
    else a permutation times a unimodular diagonal."""
    variant = draw(st.sampled_from(sorted(_EXPONENTS)))
    p = draw(st.sampled_from(_EXPONENTS[variant]))
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["basis", "nonneg", "real", "random"]))
    seed = draw(st.integers(0, 10_000))
    anchors = _random_anchors(variant, p, n, draw(st.integers(1, n)), kind, seed)
    # the identity fixes every anchor, so it reaches the equations and beyond
    name = draw(st.one_of(st.just("identity"), st.sampled_from(sorted(_SELF_MAPS))))
    f = gallery(name, dict(_SELF_MAPS[name], n=n))
    perm = np.eye(n)[list(draw(st.permutations(range(n))))]
    if variant == "rigidity_v":
        U = perm.astype(complex)
    elif p == 2:
        U = haar_unitary(n, stream(seed, "rigidity-equivariance", n))
    else:
        U = np.diag(np.exp(1j * np.array(draw(st.lists(_angles, min_size=n, max_size=n))))) @ perm
    moved = [BoundaryPoint(U @ a.point, p, tolerance=1e-9) for a in anchors]
    return (RigidityInstance(f, anchors, p, variant),
            RigidityInstance(_conjugated(f, U), moved, p, variant))


@settings(max_examples=60, deadline=None)
@given(case=_rigidity_cases())
def test_rigidity_is_equivariant(case):
    inst, moved = case
    cfg = CheckConfig(samples=64, grid_points=64)
    v, w = check_rigidity(inst, cfg), check_rigidity(moved, cfg)
    assert ((w.verdict, w.reason, w.quantities["rank"])
            == (v.verdict, v.reason, v.quantities["rank"]))
    assert [(h.name, h.ok) for h in w.hypotheses] == [(h.name, h.ok) for h in v.hypotheses]
    assert len(w.fixed_point_residuals) == len(v.fixed_point_residuals)
    assert len(w.equation_values) == len(v.equation_values)
    for x, y in zip(v.fixed_point_residuals, w.fixed_point_residuals):
        _assert_close("fixed_point_residual", x, y)
    for x, y in zip(v.equation_values, w.equation_values):
        _assert_close("equation_value", x, y)


@st.composite
def _product_slice_cases(draw):
    """(f, phi, z_fix, p, n, m, P): f(z, w)_i = mu_i(w_i) + leak (z_k - z_fix_k)
    on the product of the lp ball B^n (p in {2, inf}) and the polydisk D^m,
    which fixes the slice at z_fix; phi is the tuple of disk automorphisms
    mu_i; P permutes the ball factor's coordinates.  A zero leak gives a map
    of the product into D^m, a leak of 3 one far outside it."""
    p = draw(st.sampled_from([2.0, math.inf]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    gen = stream(draw(st.integers(0, 10_000)), "product-slice-equivariance", n, m)
    z_fix = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    z_fix *= gen.uniform(0.0, 0.5) / norm_p(z_fix, p)
    a = gen.uniform(-0.5, 0.5, m) + 1j * gen.uniform(-0.5, 0.5, m)
    leak = draw(st.sampled_from([0.0, 3.0])) * np.exp(1j * draw(_angles))
    k = draw(st.integers(0, n - 1))
    drift = Sum((Coordinate(k, n + m), Constant(-z_fix[k], n + m)))
    f = MapTuple(tuple(Sum((MoebiusDisk(a[i], 1.0, Coordinate(n + i, n + m)), Scale(leak, drift)))
                       for i in range(m)))
    phi = MapTuple(tuple(MoebiusDisk(a[i], 1.0, Coordinate(i, m)) for i in range(m)))
    return f, phi, z_fix, p, n, m, np.eye(n)[list(draw(st.permutations(range(n))))]


@settings(max_examples=30, deadline=None)
@given(case=_product_slice_cases())
def test_product_slice_is_equivariant_under_permutations_of_the_ball_factor(case):
    # g(z, w) = f(P^-1 z, w) fixes the slice at P z_fix.  The conclusion gap
    # and the chain slacks are read on sampled z, which P does not map onto
    # each other, so only the slice gap on its w-grid and the fit of phi,
    # which P leaves alone, are compared.
    f, phi, z_fix, p, n, m, P = case
    moved = np.eye(n + m, dtype=complex)
    moved[:n, :n] = P.T
    cfg = CheckConfig(samples=256)
    v = verify_product_slice(f, phi, z_fix, p, n, m, cfg)
    w = verify_product_slice(Compose(f, LinearMatrix(moved)), phi, P @ z_fix, p, n, m, cfg)
    _assert_same_reading(v, w, ["slice_gap", "moebius_fit_residual"])
