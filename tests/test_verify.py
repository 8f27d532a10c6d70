"""Verifier verdicts: frozen values, extremal equality, hypothesis gating."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_lab import (
    BadParams,
    BoundaryPoint,
    Compose,
    DiskGrid,
    HypothesisFailed,
    LinearMatrix,
    VerifyConfig,
    boundary_slope_check,
    evaluate,
    gallery,
    haar_unitary,
    harnack_certificate,
    identity_map,
    operator_norm_lower,
    pseudo_hyperbolic_distance,
    verify_kalaj,
    verify_liu_wang,
    verify_lp_boundary_schwarz,
    verify_pluriharmonic_boundary,
    verify_product_slice,
    verify_schwarz_pick,
    verify_zhu,
)
from schwarz_lab import diff as diff_module
from schwarz_lab import verify as verify_module
from schwarz_lab.geometry import as_exponent, cinner, cvector, lp_norm_value, realify
from schwarz_lab.verify import _pair_rows, _slice_chain, _square
from schwarz_lab.rng import stream

CFG = VerifyConfig(samples=500)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def test_operator_norm_exact_cases():
    J = np.array([[3.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert operator_norm_lower(J, 2) == pytest.approx(3.0, abs=1e-12)
    J2 = np.array([[1.0, -2.0], [0.5, 0.5j]], dtype=complex)
    assert operator_norm_lower(J2, "inf") == pytest.approx(3.0, abs=1e-12)


def test_operator_norm_ascent_matches_known_p3():
    # diagonal matrices have p->p norm = max |diag| for every p
    J = np.diag([0.7, 0.4, 0.9]).astype(complex)
    est = operator_norm_lower(J, 3, starts=16, iters=60)
    assert est == pytest.approx(0.9, abs=1e-6)


def _ref_dual(v, r):
    """|v|^(r-1) sign(v), 0 where v is 0, after scaling v to largest modulus 1."""
    top = np.max(np.abs(v))
    u = v / top if top > 0.0 else v
    a = np.abs(u)
    w = np.zeros(a.shape)
    w[a > 0.0] = a[a > 0.0] ** (r - 2.0)
    return u * w


def _ref_operator_norm_lower(J, p, starts, iters, seed):
    """The p-norm power method one start at a time."""
    e = as_exponent(p)
    if e.is_inf:
        return float(np.abs(J).sum(axis=1).max())
    if e.p == 2.0:
        return float(np.linalg.svd(J, compute_uv=False)[0])
    n = J.shape[1]
    gen = stream(seed, "opnorm", n, e.p)
    best = 0.0
    for _ in range(starts):
        x = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        x /= lp_norm_value(x, e.p)
        y = J @ x
        val = lp_norm_value(y, e.p)
        for _ in range(iters):
            x = _ref_dual(np.conj(J).T @ _ref_dual(y, e.p), e.conjugate_value)
            xn = lp_norm_value(x, e.p)
            if xn == 0.0:
                break
            x /= xn
            cy = J @ x
            cval = lp_norm_value(cy, e.p)
            if not cval > val:
                break
            y, val = cy, cval
        best = max(best, float(val))
    return best


def _ref_projected_ascent(J, p, starts, iters, seed):
    """The projected-gradient ascent the power method replaced."""
    e = as_exponent(p)
    if e.is_inf:
        return float(np.abs(J).sum(axis=1).max())
    if e.p == 2.0:
        return float(np.linalg.svd(J, compute_uv=False)[0])
    n = J.shape[1]
    gen = stream(seed, "opnorm", n, e.p)
    pval = e.p
    best = 0.0
    for _ in range(starts):
        xi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        xi /= lp_norm_value(xi, pval)
        step = 0.5
        val = lp_norm_value(J @ xi, pval)
        for _ in range(iters):
            y = J @ xi
            ay = np.abs(y)
            grad = np.conj(J).T @ (ay ** (pval - 2.0) * y)
            gn = np.linalg.norm(grad)
            if gn == 0.0:
                break
            cand = xi + step * grad / gn
            cn = lp_norm_value(cand, pval)
            if cn == 0.0:
                break
            cand /= cn
            cval = lp_norm_value(J @ cand, pval)
            if cval > val:
                xi, val = cand, cval
            else:
                step *= 0.5
                if step < 1e-9:
                    break
        best = max(best, float(val))
    return best


_OPNORM_CASES = dict(m=st.integers(1, 4), n=st.integers(1, 4),
                     p=st.sampled_from([1.5, 2, 3, 4, "inf"]),
                     seed=st.integers(0, 2**32 - 1), starts=st.integers(1, 6),
                     iters=st.integers(1, 40))


def _opnorm_matrix(m, n, seed):
    gen = stream(seed, "opnorm-reference", m, n)
    return gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))


@settings(max_examples=60, deadline=None)
@given(**_OPNORM_CASES)
def test_operator_norm_lower_equals_scalar_reference(m, n, p, seed, starts, iters):
    J = _opnorm_matrix(m, n, seed)
    assert operator_norm_lower(J, p, starts, iters, seed) == \
        _ref_operator_norm_lower(J, p, starts, iters, seed)


@settings(max_examples=60, deadline=None)
@given(**_OPNORM_CASES)
def test_operator_norm_power_method_is_no_lower_than_projected_ascent(m, n, p, seed,
                                                                      starts, iters):
    J = _opnorm_matrix(m, n, seed)
    old = _ref_projected_ascent(J, p, starts, iters, seed)
    assert operator_norm_lower(J, p, starts, iters, seed) >= old - 1e-12 * max(1.0, old)


@pytest.mark.parametrize("p", [1.25, 1.5])
def test_operator_norm_lower_at_p_below_2_survives_zero_entries(p, recwarn):
    # The projected ascent's |J xi|^(p - 2) was inf at a zero entry of J xi,
    # so such a start never moved: first_times_last at n = 3 gave 0.98972.
    D = np.diag([0.0, 1.0, 0.0]).astype(complex)
    assert operator_norm_lower(D, p) == pytest.approx(1.0, abs=1e-12)
    v = verify_schwarz_pick(gallery("first_times_last", {"n": 3}), p)
    assert v.quantities["opnorm_lower_estimate"] >= 1.0 - 1e-12
    assert not recwarn.list


@pytest.mark.parametrize("p", [3, 4])
def test_operator_norm_lower_zero_gradient_stops_each_start(p):
    Z = np.zeros((2, 3), dtype=complex)
    assert operator_norm_lower(Z, p, 4, 10) == _ref_operator_norm_lower(Z, p, 4, 10, 0) == 0.0


# ---------------------------------------------------------------------------
# interior bound
# ---------------------------------------------------------------------------


def test_schwarz_pick_identity_margin_zero():
    v = verify_schwarz_pick(identity_map(2), 3, samples=200, seed=1, cfg=CFG)
    assert v.passed
    assert v.margin == pytest.approx(0.0, abs=1e-12)
    assert v.quantities["opnorm_lower_estimate"] == pytest.approx(1.0, abs=1e-9)


def test_schwarz_pick_contraction_margin_positive():
    v = verify_schwarz_pick(gallery("scaled_identity", {"n": 2, "t": 0.5}), 2,
                            samples=200, seed=1, cfg=CFG)
    assert v.passed and v.margin > 0.0
    assert v.quantities["opnorm_lower_estimate"] == pytest.approx(0.5, abs=1e-9)


def test_schwarz_pick_requires_origin_fixed():
    f = gallery("moebius_fix1", {"a": 0.3})
    with pytest.raises(HypothesisFailed):
        verify_schwarz_pick(f, 2, samples=50, seed=0, cfg=CFG)


def test_schwarz_pick_first_times_last_p3():
    v = verify_schwarz_pick(gallery("first_times_last", {"n": 3}), 3,
                            samples=2000, seed=2, cfg=CFG)
    assert v.passed
    assert v.margin >= -1e-10


def _unitary_conjugate(f, U):
    """U o f o U*."""
    return Compose(LinearMatrix(U), Compose(f, LinearMatrix(U.conj().T)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 10_000),
       t=st.one_of(st.floats(0.1, 0.999), st.just(1.0), st.floats(1.001, 1.5)))
def test_schwarz_pick_margin_is_unitarily_invariant_at_p2(n, seed, t):
    # The 2-norm is unitarily invariant, so U o f o U* meets the Schwarz-Pick
    # bound exactly as f does.  The margin is a minimum over sampled points,
    # and U o f o U* at z is f at U* z, so it is the same minimum only when
    # ||f(z)||_2 depends on ||z||_2 alone: the maps t W with W unitary, which
    # pass for t <= 1 and fail beyond.
    gen = stream(seed, "pick-unitary", n)
    f = LinearMatrix(t * haar_unitary(n, gen))
    U = haar_unitary(n, gen)
    v = verify_schwarz_pick(f, 2, samples=300, seed=seed, cfg=CFG)
    vu = verify_schwarz_pick(_unitary_conjugate(f, U), 2, samples=300, seed=seed, cfg=CFG)
    assert vu.passed == v.passed == (t <= 1.0)
    assert [h.ok for h in vu.hypotheses] == [h.ok for h in v.hypotheses]
    assert abs(vu.margin - v.margin) <= 1e-9


@pytest.mark.parametrize("name, params", [
    ("first_times_last", {"n": 3}), ("square_first", {"n": 2}),
    ("diag_power", {"ks": [2, 1, 3]})])
def test_schwarz_pick_verdict_is_unitarily_invariant_at_p2(name, params):
    # Nonlinear maps: the sampled margins differ by sampling error, the
    # verdicts agree.
    f = gallery(name, params)
    U = haar_unitary(f.input_dim, stream(9, "pick-unitary-nonlinear"))
    v = verify_schwarz_pick(f, 2, samples=300, seed=4, cfg=CFG)
    vu = verify_schwarz_pick(_unitary_conjugate(f, U), 2, samples=300, seed=4, cfg=CFG)
    assert v.passed and vu.passed
    assert [h.ok for h in vu.hypotheses] == [h.ok for h in v.hypotheses]
    assert vu.margin >= 0.0 and abs(vu.margin - v.margin) <= 1e-3


# ---------------------------------------------------------------------------
# disk bounds
# ---------------------------------------------------------------------------


def test_zhu_identity_equality():
    v = verify_zhu(identity_map(1), CFG)
    assert v.passed
    assert v.quantities["fprime1"] == pytest.approx(1.0, abs=1e-10)
    assert v.quantities["bound"] == pytest.approx(1.0, abs=1e-12)
    assert abs(v.margin) <= 1e-9


def test_zhu_square_equality():
    f = gallery("zhu_extremal", {"a": 0.0, "d": 0.0})  # z^2
    v = verify_zhu(f, CFG)
    assert v.quantities["fprime1"] == pytest.approx(2.0, abs=1e-9)
    assert v.quantities["bound"] == pytest.approx(2.0, abs=1e-12)
    assert abs(v.margin) <= 1e-8


def test_zhu_extremal_grid_equality():
    for a in (0.0, 0.4, 0.8):
        for d in (0.0, 0.2):
            if d > 1.0 - a * a:
                continue
            v = verify_zhu(gallery("zhu_extremal", {"a": a, "d": d}), CFG)
            assert abs(v.margin) <= 1e-7, (a, d, v.margin)


def test_zhu_rejects_wrong_boundary_value():
    f = gallery("scaled_identity", {"n": 1, "t": 0.5})
    with pytest.raises(HypothesisFailed):
        verify_zhu(f, CFG)


def test_kalaj_disk_embedding_equality():
    # f(xi) = (xi, 0): boundary derivative norm 1, bound 1
    import schwarz_lab as sl

    f = sl.MapTuple((sl.Coordinate(0, 1), sl.Constant(0.0, 1)))
    v = verify_kalaj(f, 2, CFG)
    assert v.passed
    assert v.quantities["fprime1_norm"] == pytest.approx(1.0, abs=1e-9)
    assert v.quantities["bound"] == pytest.approx(1.0, abs=1e-12)


def test_kalaj_extremal_equality_p2():
    b = list(np.array([0.6, 0.8]))
    v = verify_kalaj(gallery("kalaj_extremal", {"b": b, "a": 0.4, "d": 0.2, "p": 2}),
                     2, CFG)
    assert abs(v.margin) <= 1e-7
    assert v.passed or abs(v.margin) <= 1e-7


def test_kalaj_scaled_square_embed_nonnegative():
    import schwarz_lab as sl

    inner = sl.MoebiusDisk(0.3, 1.0, sl.Power(2, sl.Coordinate(0, 1)))
    f = sl.MapTuple((inner, sl.Constant(0.0, 1)))
    v = verify_kalaj(f, 2, CFG)
    assert v.margin >= -1e-9


# ---------------------------------------------------------------------------
# lp boundary certificate
# ---------------------------------------------------------------------------


def test_lp_boundary_identity_lambda_one():
    for p in (2, 3, 4):
        z0 = BoundaryPoint(np.array([1.0, 0.0], dtype=complex), p)
        verdict, cert = verify_lp_boundary_schwarz(identity_map(2), z0, CFG)
        assert verdict.passed
        assert cert.lambda_ == pytest.approx(1.0, abs=1e-10)
        assert cert.imag_residual <= 1e-10
        assert cert.proportionality_residual <= 1e-10
        assert verdict.quantities["tangent_residual"] <= 1e-9


def test_lp_boundary_square_lambda_two():
    z0 = BoundaryPoint(np.array([1.0, 0.0, 0.0], dtype=complex), 3)
    verdict, cert = verify_lp_boundary_schwarz(gallery("square_first", {"n": 3}),
                                               z0, CFG)
    assert verdict.passed
    assert cert.lambda_ == pytest.approx(2.0, abs=1e-9)
    assert verdict.margin == pytest.approx(1.0, abs=1e-9)


def test_lp_boundary_slope_identity():
    z0 = BoundaryPoint(np.array([1.0, 0.0], dtype=complex), 4)
    rel = boundary_slope_check(gallery("square_first", {"n": 2}), z0, 2.0, 1e-3)
    assert rel <= 0.02


def test_lp_boundary_interior_diagonal_anchor():
    # z0 with both coordinates active exercises the full v-vector
    p = 4
    c = 2.0 ** (-1.0 / p)
    z0 = BoundaryPoint(np.array([c, c], dtype=complex), p)
    verdict, cert = verify_lp_boundary_schwarz(identity_map(2), z0, CFG)
    assert verdict.passed and cert.lambda_ == pytest.approx(1.0, abs=1e-10)


def test_lp_boundary_slope_residual_is_boundary_slope_check():
    f = gallery("diag_power", {"ks": [2, 1, 3], "units": [[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]]})
    for p in (2, 3, 4):
        z0 = BoundaryPoint(np.array([0.0, 0.0, np.exp(0.7j)]), p)
        verdict, cert = verify_lp_boundary_schwarz(f, z0, CFG)
        slope = {h.name: h.residual for h in verdict.hypotheses}["radial_slope_identity"]
        assert slope == boundary_slope_check(f, z0, cert.lambda_, CFG.slope_t)
        assert slope == verdict.quantities["slope_rel_error"]


def test_boundary_verifiers_batch_their_probes(monkeypatch):
    calls = []

    def counting(f, z, ctx=None):
        calls.append(np.shape(z))
        return evaluate(f, z, ctx=ctx)

    for module in (diff_module, verify_module):
        monkeypatch.setattr(module, "evaluate", counting)
    z0 = BoundaryPoint(np.array([0.0, 1.0, 0.0], dtype=complex), 3)
    verify_lp_boundary_schwarz(gallery("square_first", {"n": 3}), z0, CFG)
    # holomorphy batch, one batch of f(z0), f(0) and the slope probe, Cauchy batch
    assert len(calls) <= 3, calls
    calls.clear()
    f = gallery("ph_blend", {"n": 2, "mix": 0.4, "shift_holo": 0.3, "shift_anti": -0.2,
                             "anchor": 1})
    verify_pluriharmonic_boundary(f, BoundaryPoint(np.array([0.0, 1.0 + 0j]), 2), CFG)
    # residual batch, one batch of f(z0), f(0) and the Harnack grid, two real Jacobians
    assert len(calls) <= 4, calls


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), rows=st.integers(1, 20), lo=st.integers(-5, 5),
       seed=st.integers(0, 10_000))
def test_harnack_pairing_rows_equal_per_row_dots(n, rows, lo, seed):
    gen = stream(seed, "pair-rows", n)
    scale = 10.0 ** gen.uniform(lo, 5, (rows, 1))
    w = scale * (gen.standard_normal((rows, n)) + 1j * gen.standard_normal((rows, n)))
    V = 10.0 ** gen.uniform(-5, 5) * gen.standard_normal(2 * n)
    assert _pair_rows(w, V).tolist() == [float(realify(row) @ V) for row in w]


def test_lp_boundary_rejects_infinite_p_and_small_p():
    z0 = BoundaryPoint(np.array([1.0, 1.0], dtype=complex), "inf")
    with pytest.raises(HypothesisFailed):
        verify_lp_boundary_schwarz(identity_map(2), z0, CFG)
    z1 = BoundaryPoint(np.array([1.0, 0.0], dtype=complex), 1.5)
    with pytest.raises(HypothesisFailed):
        verify_lp_boundary_schwarz(identity_map(2), z1, CFG)


def test_lp_boundary_nonfixing_origin_reports_lambda_only():
    # unitary composed with nothing... use a Moebius tuple that moves 0 but fixes 1
    f = gallery("moebius_tuple", {"m": 1, "a": 0.3, "rotation": 1.0})
    z0 = BoundaryPoint(np.array([1.0 + 0j]), 2)
    verdict, cert = verify_lp_boundary_schwarz(f, z0, CFG)
    assert not verdict.passed
    assert np.isnan(verdict.margin)
    # angular derivative of (z+a)/(1+az) at 1 is (1-a)/(1+a)
    assert cert.lambda_ == pytest.approx((1 - 0.3) / (1 + 0.3), abs=1e-9)


# ---------------------------------------------------------------------------
# round-ball fixed point
# ---------------------------------------------------------------------------


def test_liu_wang_identity():
    z0 = BoundaryPoint(np.array([0.6, 0.8], dtype=complex), 2)
    v = verify_liu_wang(identity_map(2), z0, CFG)
    assert v.passed
    assert v.quantities["lambda"] == pytest.approx(1.0, abs=1e-10)
    assert v.quantities["lower_bound"] == pytest.approx(1.0, abs=1e-12)
    assert v.quantities["det_abs"] == pytest.approx(1.0, abs=1e-10)


def test_liu_wang_square_at_e1():
    import schwarz_lab as sl

    z0 = BoundaryPoint(np.array([1.0, 0.0, 0.0], dtype=complex), 2)
    # f(z) = (z1^2, 0, 0) is a self-map fixing e1
    f = sl.MapTuple((sl.Power(2, sl.Coordinate(0, 3)),
                     sl.Constant(0.0, 3), sl.Constant(0.0, 3)))
    v = verify_liu_wang(f, z0, CFG)
    assert v.quantities["lambda"] == pytest.approx(2.0, abs=1e-9)
    assert v.quantities["det_abs"] == pytest.approx(0.0, abs=1e-9)
    assert v.passed


def test_liu_wang_moebius_nonzero_center():
    # n=1 automorphism fixing 1: lambda = (1-a)/(1+a) equals the lower bound
    a = 0.35
    f = gallery("moebius_fix1", {"a": a})
    z0 = BoundaryPoint(np.array([1.0 + 0j]), 2)
    v = verify_liu_wang(f, z0, CFG)
    lam = v.quantities["lambda"]
    assert lam == pytest.approx((1 - a) / (1 + a), abs=1e-9)
    assert v.quantities["lower_bound"] == pytest.approx(lam, abs=1e-9)
    assert v.passed


def test_liu_wang_requires_fixed_point():
    z0 = BoundaryPoint(np.array([1.0, 0.0], dtype=complex), 2)
    f = gallery("scaled_identity", {"n": 2, "t": 0.5})
    with pytest.raises(HypothesisFailed):
        verify_liu_wang(f, z0, CFG)


# ---------------------------------------------------------------------------
# product slice
# ---------------------------------------------------------------------------


def test_product_projection_margin_zero():
    f = gallery("product_projection", {"n": 2, "m": 2})
    v = verify_product_slice(f, identity_map(2), np.zeros(2), 2, 2, 2, CFG)
    assert v.passed
    assert v.margin == pytest.approx(0.0, abs=1e-12)


def test_product_moebius_slice():
    f = gallery("product_moebius", {"n": 1, "m": 2, "a": [0.3, 0.3],
                                    "rotation": [1.0, 1.0]})
    phi = gallery("moebius_tuple", {"m": 2, "a": [0.3, 0.3],
                                    "rotation": [1.0, 1.0]})
    v = verify_product_slice(f, phi, np.zeros(1), 2, 1, 2, CFG)
    assert v.passed
    assert v.margin >= -1e-12


def test_product_mixed_fixes_no_slice():
    f = gallery("product_mixed", {"n": 2, "m": 2})
    with pytest.raises(HypothesisFailed):
        verify_product_slice(f, identity_map(2), np.zeros(2), 2, 2, 2, CFG)


def test_product_slice_polydisk_factor():
    f = gallery("product_projection", {"n": 2, "m": 1})
    v = verify_product_slice(f, identity_map(1), np.zeros(2), "inf", 2, 1, CFG)
    assert v.passed


def test_pseudo_hyperbolic_frozen():
    a = np.array([0.5 + 0j])
    b = np.array([0.0 + 0j])
    assert pseudo_hyperbolic_distance(a, b, 2) == pytest.approx(0.5, abs=1e-12)
    assert pseudo_hyperbolic_distance(a, b, "inf") == pytest.approx(0.5, abs=1e-12)
    c = np.array([0.3, 0.4 + 0.1j])
    assert pseudo_hyperbolic_distance(c, c, 2) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(BadParams):
        pseudo_hyperbolic_distance(a, b, 3)


def _ref_pseudo_hyperbolic(a, b, e):
    """The scalar distance the row form replaced."""
    a, b = cvector(a), cvector(b)
    if e.is_inf:
        return float(np.max(np.abs(a - b) / np.abs(1.0 - np.conj(a) * b)))
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    cross = abs(1.0 - complex(cinner(b, a))) ** 2
    return math.sqrt(max(0.0, 1.0 - (1.0 - na**2) * (1.0 - nb**2) / cross))


def _ref_slice_chain(zs, ws, vals, coefs, z_fix, e):
    """The point-by-point chain loop of verify_product_slice the rows replaced."""
    chain_first = chain_second = math.inf
    for k in range(zs.shape[0]):
        cap = 1.0 / max(1e-15, 1.0 - _ref_pseudo_hyperbolic(zs[k], z_fix, e) ** 2)
        for i in range(ws.shape[1]):
            wi = ws[k, i]
            al, be, ga = coefs[i]
            norm_val = complex((vals[k, i] - be) / (al - ga * vals[k, i]))
            lhs1 = abs(wi - norm_val) ** 2
            mid1 = abs(1.0 - np.conj(wi) * norm_val) ** 2
            rhs = (1.0 - abs(wi) ** 2) * cap
            chain_first = min(chain_first, mid1 - lhs1)
            chain_second = min(chain_second, rhs - mid1)
    return chain_first, chain_second


def test_square_rounds_as_python_float_power():
    # an array's ** 2 multiplies; libm pow differs from that in the last bit
    x = stream(3, "square").uniform(0.0, 2.0, 100_000)
    assert _square(x).tolist() == [v ** 2 for v in x.tolist()]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, "inf"]), n=st.integers(1, 3), m=st.integers(1, 3),
       rows=st.integers(1, 40), seed=st.integers(0, 10_000))
def test_slice_chain_rows_equal_the_scalar_loop(p, n, m, rows, seed):
    gen = stream(seed, "slice-chain", n, m)

    def cplx(*shape):
        return 0.4 * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))

    e = as_exponent(p)
    zs, ws, vals, z_fix = cplx(rows, n), cplx(rows, m), cplx(rows, m), cplx(n)
    coefs = [cplx(3) for _ in range(m)]
    assert _slice_chain(zs, ws, vals, coefs, z_fix, e) == \
        _ref_slice_chain(zs, ws, vals, coefs, z_fix, e)
    for z in zs:
        assert pseudo_hyperbolic_distance(z, z_fix, p) == _ref_pseudo_hyperbolic(z, z_fix, e)


# ---------------------------------------------------------------------------
# pluriharmonic chain and Harnack
# ---------------------------------------------------------------------------


def test_pluriharmonic_identity_frozen_chain():
    z0 = BoundaryPoint(np.array([1.0 + 0j]), 2)
    v = verify_pluriharmonic_boundary(identity_map(1), z0, CFG)
    assert v.passed
    assert v.quantities["lhs"] == pytest.approx(1.0, abs=1e-7)
    assert v.quantities["mid"] == pytest.approx(0.5, abs=1e-12)
    assert v.quantities["low"] == pytest.approx(0.5, abs=1e-12)


def test_pluriharmonic_real_part_blend():
    # f(z) = (z + conj(z))/2 fixes 1 and is pluriharmonic but not holomorphic
    f = gallery("ph_linear_blend", {"n": 1, "mix": 0.5})
    z0 = BoundaryPoint(np.array([1.0 + 0j]), 2)
    v = verify_pluriharmonic_boundary(f, z0, CFG)
    assert v.passed
    assert v.quantities["margin_lhs_mid"] >= -1e-8


def test_pluriharmonic_identity_unit_vector_p2():
    z0 = BoundaryPoint(np.array([0.6, 0.8], dtype=complex), 2)
    v = verify_pluriharmonic_boundary(identity_map(2), z0, CFG)
    assert v.passed
    assert v.quantities["lhs"] == pytest.approx(1.0, abs=1e-7)
    assert v.quantities["mid"] == pytest.approx(0.5, abs=1e-12)


def test_pluriharmonic_rejects_nonpluriharmonic():
    import schwarz_lab as sl

    f = sl.MapTuple((sl.Product((sl.Coordinate(0, 1), sl.ConjugateCoordinate(0, 1))),))
    z0 = BoundaryPoint(np.array([1.0 + 0j]), 2)
    with pytest.raises(HypothesisFailed):
        verify_pluriharmonic_boundary(f, z0, CFG)


def test_harnack_constant_and_sign_change():
    radii = (0.1, 0.5, 0.9)
    const = DiskGrid(radii, np.full((3, 8), 2.0), 2.0)
    v = harnack_certificate(const)
    assert v.passed and v.margin > 0.0
    # phi = Re(zeta): sign-changing, center value 0
    angles = 2 * np.pi * np.arange(8) / 8
    vals = np.stack([r * np.cos(angles) for r in radii])
    bad = harnack_certificate(DiskGrid(radii, vals, 0.0))
    assert not bad.passed


def test_harnack_one_minus_re():
    # phi(zeta) = 1 - Re zeta, harmonic positive, center 1
    radii = (0.5,)
    angles = 2 * np.pi * np.arange(32) / 32
    vals = (1.0 - 0.5 * np.cos(angles))[None, :]
    v = harnack_certificate(DiskGrid(radii, vals, 1.0))
    assert v.passed
    # min phi = 0.5, lower Harnack bound = 1/3
    assert v.quantities["lower_slack"] == pytest.approx(0.5 - 1.0 / 3.0, abs=1e-12)
