"""Verifier verdicts: frozen values, extremal equality, hypothesis gating."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from schwarz_lab import (
    BadParams,
    BoundaryPoint,
    CheckConfig,
    Compose,
    Constant,
    Coordinate,
    HypothesisFailed,
    InsufficientClearance,
    LinearMatrix,
    MapTuple,
    MoebiusDisk,
    NoConvergence,
    PoleHit,
    Power,
    Product,
    Scale,
    Sum,
    evaluate,
    gallery,
    haar_unitary,
    identity_map,
    map_to_json,
    operator_norm_lower,
    parse_suite,
    run_suite,
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
from schwarz_lab.cli import main
from schwarz_lab.geometry import (as_exponent, cinner, conjugate_exponent, cvector, lp_norm,
                                  pluriharmonic_V, realify)
from schwarz_lab.verify import _pseudo_hyperbolic_rows, _slice_chain, _square
from schwarz_lab.rng import stream
from helpers import boundary_slope_check, cr_defect, normal_tangent_decompose
from test_maps import _small, _unimodular
from test_rigidity import nan_map_json

CFG = CheckConfig(samples=500)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def test_operator_norm_exact_cases():
    J = np.array([[3.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert operator_norm_lower(J, 2) == pytest.approx(3.0, abs=1e-12)
    J2 = np.array([[1.0, -2.0], [0.5, 0.5j]], dtype=complex)
    assert operator_norm_lower(J2, "inf") == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("t", [5e-324, 1e-310])
def test_operator_norm_of_a_subnormal_matrix_raises_no_warning(t):
    # numpy divides a row by its largest modulus through the reciprocal, which
    # is inf below about 5.6e-309; the power method scales such rows up first
    J = t * np.array([[1.0, 0.0], [0.0, 1.0j]])
    assert operator_norm_lower(J, 3) == pytest.approx(t, rel=1e-9)


def test_operator_norm_ascent_matches_known_p3():
    # diagonal matrices have p->p norm = max |diag| for every p
    J = np.diag([0.7, 0.4, 0.9]).astype(complex)
    est = operator_norm_lower(J, 3, starts=16, iters=60)
    assert est == pytest.approx(0.9, abs=1e-6)


def test_operator_norm_lower_is_finite_when_powers_overflow():
    # (1e4)^100 overflows; the p->p norm of the diagonal matrix is 1e4.
    assert operator_norm_lower(np.diag([1e4, 1.0]), 100) == pytest.approx(1e4, rel=1e-12)


@pytest.mark.parametrize("p", [1e20, 1e300])
def test_operator_norm_at_a_huge_exponent_raises_no_warning(p):
    # A row scaled by its largest modulus can keep a modulus of 1 + 1 ulp,
    # whose power p - 2 overflowed; the conjugate exponent rounds to 1.0.
    # The tests turn RuntimeWarnings into errors.
    assert operator_norm_lower(np.eye(2), p) == pytest.approx(1.0, rel=1e-12)
    J = np.array([[1.0, 0.5], [0.2j, 0.7]])
    assert operator_norm_lower(J, p) == pytest.approx(1.5, rel=1e-12)
    assert main(["check", "schwarz_pick", "-p", str(p), "--map", "identity",
                 "--map-params", '{"n": 2}']) == 0


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
    if math.isinf(e):
        return float(np.abs(J).sum(axis=1).max())
    if e == 2.0:
        return float(np.linalg.svd(J, compute_uv=False)[0])
    n = J.shape[1]
    gen = stream(seed, "opnorm", n, e)
    best = 0.0
    for _ in range(starts):
        x = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        x /= lp_norm(x, e)
        y = J @ x
        val = lp_norm(y, e)
        for _ in range(iters):
            x = _ref_dual(np.conj(J).T @ _ref_dual(y, e), conjugate_exponent(e))
            xn = lp_norm(x, e)
            if xn == 0.0:
                break
            x /= xn
            cy = J @ x
            cval = lp_norm(cy, e)
            if not cval > val:
                break
            y, val = cy, cval
        best = max(best, float(val))
    return best


def _ref_projected_ascent(J, p, starts, iters, seed):
    """The projected-gradient ascent the power method replaced."""
    e = as_exponent(p)
    if math.isinf(e):
        return float(np.abs(J).sum(axis=1).max())
    if e == 2.0:
        return float(np.linalg.svd(J, compute_uv=False)[0])
    n = J.shape[1]
    gen = stream(seed, "opnorm", n, e)
    pval = e
    best = 0.0
    for _ in range(starts):
        xi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        xi /= lp_norm(xi, pval)
        step = 0.5
        val = lp_norm(J @ xi, pval)
        for _ in range(iters):
            y = J @ xi
            ay = np.abs(y)
            grad = np.conj(J).T @ (ay ** (pval - 2.0) * y)
            gn = np.linalg.norm(grad)
            if gn == 0.0:
                break
            cand = xi + step * grad / gn
            cn = lp_norm(cand, pval)
            if cn == 0.0:
                break
            cand /= cn
            cval = lp_norm(J @ cand, pval)
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
    v = verify_schwarz_pick(identity_map(2), 3, CheckConfig(samples=200, seed=1))
    assert v.passed
    assert v.margin == pytest.approx(0.0, abs=1e-12)
    assert v.quantities["opnorm_lower_estimate"] == pytest.approx(1.0, abs=1e-9)


def test_schwarz_pick_contraction_margin_positive():
    v = verify_schwarz_pick(gallery("scaled_identity", {"n": 2, "t": 0.5}), 2,
                            CheckConfig(samples=200, seed=1))
    assert v.passed and v.margin > 0.0
    assert v.quantities["opnorm_lower_estimate"] == pytest.approx(0.5, abs=1e-9)


def test_schwarz_pick_requires_origin_fixed():
    f = gallery("moebius_fix1", {"a": 0.3})
    with pytest.raises(HypothesisFailed):
        verify_schwarz_pick(f, 2, CheckConfig(samples=50, seed=0))


def test_schwarz_pick_origin_gate_reads_origin_tol():
    f = Sum((Scale(0.5, Coordinate(0, 1)), Constant(1e-9, 1)))
    with pytest.raises(HypothesisFailed, match="fix the origin"):
        verify_schwarz_pick(f, 2, CheckConfig(samples=50))
    v = verify_schwarz_pick(f, 2, CheckConfig(samples=50, origin_tol=1e-8))
    assert v.hypotheses[0].residual == pytest.approx(1e-9)


@pytest.mark.parametrize("count", ["samples", "grid_points", "starts", "iters"])
def test_check_config_rejects_a_zero_count(count):
    # a zero count would reach numpy as a reduction over no samples
    with pytest.raises(BadParams):
        CheckConfig(**{count: 0})


def test_schwarz_pick_first_times_last_p3():
    v = verify_schwarz_pick(gallery("first_times_last", {"n": 3}), 3,
                            CheckConfig(samples=2000, seed=2))
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
    v = verify_schwarz_pick(f, 2, CheckConfig(samples=300, seed=seed))
    vu = verify_schwarz_pick(_unitary_conjugate(f, U), 2, CheckConfig(samples=300, seed=seed))
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
    v = verify_schwarz_pick(f, 2, CheckConfig(samples=300, seed=4))
    vu = verify_schwarz_pick(_unitary_conjugate(f, U), 2, CheckConfig(samples=300, seed=4))
    assert v.passed and vu.passed
    assert [h.ok for h in vu.hypotheses] == [h.ok for h in v.hypotheses]
    assert vu.margin >= 0.0 and abs(vu.margin - v.margin) <= 1e-3


@st.composite
def _self_map_chains(draw, stretch=False):
    """(p, f, t): f is a Compose chain of 1-4 origin-fixing self-maps of the unit lp
    ball of C^n: unimodular diag_power, coordinate permutations as LinearMatrix,
    Scale by |t| <= 1, first_times_last and, at p = 2, unitaries.  With stretch,
    the blocks preserve every norm (permutations, unit diagonals, unitaries) and
    f is Scale(t, chain) with t in [1.05, 2]; otherwise t is 1."""
    p = draw(st.sampled_from([2.0, 3.0, math.inf]))
    n = draw(st.integers(2, 3))
    kinds = ["diag", "perm"] + ([] if stretch else ["scale", "first_times_last"])
    kinds += ["unitary"] if p == 2.0 else []
    ident = identity_map(n)
    f = None
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "diag":
            ks = draw(st.lists(st.integers(1, 1 if stretch else 3), min_size=n, max_size=n))
            block = gallery("diag_power", {"ks": ks, "units": draw(
                st.lists(_unimodular, min_size=n, max_size=n))})
        elif kind == "perm":
            block = LinearMatrix(np.eye(n)[draw(st.permutations(range(n)))])
        elif kind == "scale":
            block = Scale(draw(st.floats(0.0, 1.0)) * draw(_unimodular), ident)
        elif kind == "first_times_last":
            block = gallery("first_times_last", {"n": n})
        else:
            block = LinearMatrix(haar_unitary(n, stream(draw(st.integers(0, 10_000)), "chain")))
        f = block if f is None else Compose(block, f)
    t = draw(st.floats(1.05, 2.0)) if stretch else 1.0
    return p, (Scale(t, f) if stretch else f), t


@settings(max_examples=30, deadline=None)
@given(chain=_self_map_chains(), seed=st.integers(0, 10_000))
def test_schwarz_pick_passes_on_composed_self_maps(chain, seed):
    # origin-fixing self-maps of the ball are closed under composition
    p, f, _ = chain
    v = verify_schwarz_pick(f, p, CheckConfig(samples=200, seed=seed))
    assert v.passed, (p, map_to_json(f), v.margin, v.hypotheses)


@settings(max_examples=20, deadline=None)
@given(chain=_self_map_chains(stretch=True), seed=st.integers(0, 10_000))
def test_schwarz_pick_fails_on_a_stretched_isometry_chain(chain, seed):
    # t times a norm-preserving chain moves every point out by the factor t > 1
    p, f, t = chain
    v = verify_schwarz_pick(f, p, CheckConfig(samples=200, seed=seed))
    assert not v.passed
    assert v.margin < 0.0 and v.quantities["opnorm_lower_estimate"] == pytest.approx(t)


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


@pytest.mark.parametrize("f", [
    Constant(1.0, 1),
    # 1 - z + z^2: f(0) = f(1) = 1
    Sum((Constant(1.0, 1), Scale(-1.0, Coordinate(0, 1)), Power(2, Coordinate(0, 1)))),
], ids=["constant", "quadratic"])
def test_zhu_rejects_f0_on_the_circle(f):
    with pytest.raises(HypothesisFailed, match="f\\(0\\) must lie in the open disk"):
        verify_zhu(f, CFG)


@pytest.mark.parametrize("p", [2, 3, "inf"])
@pytest.mark.parametrize("f", [
    MapTuple((Constant(1.0, 1), Constant(0.0, 1))),
    # (1, (1 - z)/2): f(1) = (1, 0) on the sphere, f(0) = (1, 1/2) outside the ball
    MapTuple((Constant(1.0, 1), Sum((Constant(0.5, 1), Scale(-0.5, Coordinate(0, 1)))))),
], ids=["on-sphere", "outside"])
def test_kalaj_rejects_f0_outside_the_open_ball(f, p):
    with pytest.raises(HypothesisFailed, match="f\\(0\\) must lie in the open ball"):
        verify_kalaj(f, p, CFG)


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


def _kalaj_maps():
    """(map, p): criterion 02's 5x5 kalaj_extremal grid at p = 2 and 3, with its
    direction b and with b's second entry turned by i, and the two MapTuple
    maps of the kalaj tests above, at p = 2."""
    import itertools

    import schwarz_lab as sl

    for p, b in itertools.product((2, 3), ([0.6, 0.8], [0.6, 0.8j])):
        b = np.array(b, dtype=complex) / sl.norm_p(b, p)
        for a in (0.0, 0.2, 0.4, 0.6, 0.8):
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                params = {"b": [[x.real, x.imag] for x in b], "a": a,
                          "d": frac * (1.0 - a * a), "p": p}
                yield gallery("kalaj_extremal", params), p
    yield sl.MapTuple((sl.Coordinate(0, 1), sl.Constant(0.0, 1))), 2
    square = sl.MoebiusDisk(0.3, 1.0, sl.Power(2, sl.Coordinate(0, 1)))
    yield sl.MapTuple((square, sl.Constant(0.0, 1))), 2


def _ref_scalar_reduction(f, p, cfg):
    """The disk bound on psi = ell . f, run as verify_zhu on psi's map tree."""
    from schwarz_lab.geometry import norming_functional

    ell = norming_functional(evaluate(f, np.ones(1, dtype=complex)), p)
    zhu = verify_zhu(Compose(LinearMatrix(ell[None, :]), f), cfg)
    return zhu.quantities["fprime1"], zhu.margin


def test_kalaj_scalar_reduction_equals_the_disk_verifier_on_the_slice():
    count = 0
    for f, p in _kalaj_maps():
        v = verify_kalaj(f, p, CFG)
        fprime1, margin = _ref_scalar_reduction(f, p, CFG)
        assert abs(v.quantities["scalar_fprime1"] - fprime1) <= 1e-9, (p, fprime1)
        assert abs(v.quantities["scalar_margin"] - margin) <= 1e-9, (p, margin)
        ok = {h.name: h.ok for h in v.hypotheses}["scalar_reduction_margin_ok"]
        assert ok == (margin >= -CFG.margin_tol)
        count += 1
    assert count == 102


def test_kalaj_runs_no_nested_disk_verifier_and_draws_no_sample(monkeypatch):
    calls = {"verify_zhu": 0, "sample_ball": 0}

    def counted(name):
        inner = getattr(verify_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(verify_module, name, counted(name))
    doc = {"suite_name": "kalaj", "seed": 7, "jobs": [{
        "id": "kalaj", "check": "kalaj", "exponent": 3,
        "map": {"gallery": "kalaj_extremal",
                "params": {"b": [[1.0, 0.0], [0.0, 0.0]], "a": 0.3, "d": 0.2, "p": 3}}}]}
    [row] = run_suite(parse_suite(doc))
    assert row.passed and row.theorem_id == "kalaj_boundary_banach"
    assert calls == {"verify_zhu": 0, "sample_ball": 0}


def test_disk_verifiers_take_the_origin_jacobian_and_probe_defect_in_one_pass():
    import schwarz_lab as sl

    # |z|^2 z + z^2 has a Cauchy-Riemann defect at the probes and none at 0
    z = sl.Coordinate(0, 1)
    not_holo = sl.Sum((sl.Product((z, sl.ConjugateCoordinate(0, 1), z)), sl.Power(2, z)))
    origin = np.zeros(1, dtype=complex)
    for f in (gallery("zhu_extremal", {"a": 0.4, "d": 0.3}), not_holo,
              gallery("kalaj_extremal", {"b": [0.6, 0.8], "a": 0.2, "d": 0.5, "p": 2})):
        for probe in (0.3 + 0.1j, 0.2 + 0.2j):
            # the pass the disk verifiers make, over 0, the probe and 1
            (f0, _, f1), (J0, _, _), (_, res, _), (_, _, fprime1) = diff_module.tangent_pass(
                f, np.array([[0.0], [probe], [1.0]]))
            assert J0.tobytes() == diff_module.complex_jacobian(f, origin).tobytes()
            assert res == cr_defect(f, np.array([probe]))
            one_vals, one_d = diff_module._derivatives(f, np.ones(1, dtype=complex))
            assert f1.tobytes() == one_vals.tobytes()
            assert fprime1.tobytes() == one_d[:, 0].tobytes()
            assert np.allclose(f0, evaluate(f, origin), rtol=0.0, atol=1e-15)
    # Schwarz-Pick's probe is a point of C^n
    f, probe = gallery("first_times_last", {"n": 3}), np.array([0.1, -0.2j, 0.3 + 0.1j])
    _, (J0, _), (_, res), _ = diff_module.tangent_pass(f, np.stack([np.zeros(3), probe]))
    assert J0.tobytes() == diff_module.complex_jacobian(f, np.zeros(3, dtype=complex)).tobytes()
    assert res == cr_defect(f, probe)


def _grow_disk_maps(maps):
    operands = st.lists(maps, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        st.builds(Sum, operands),
        st.builds(Product, operands),
        st.builds(Scale, _small, maps),
        st.builds(Power, st.integers(0, 3), maps),
        st.builds(MoebiusDisk, _small, _unimodular, maps),
    )


# maps of one complex variable, from the nodes the disk verifiers' maps are made of
_disk_maps = st.recursive(st.just(Coordinate(0, 1)), _grow_disk_maps, max_leaves=4)


@settings(max_examples=80, deadline=None)
@given(f=_disk_maps)
def test_disk_jet_radial_derivative_equals_the_richardson_ladder(f):
    one = np.ones(1, dtype=complex)
    try:
        fprime1 = diff_module.tangent_pass(f, np.array([[0.0], [0.3 + 0.1j], [1.0]]))[-1][2]
        rad = diff_module.radial_boundary_derivative(f, one, one)
    except (InsufficientClearance, NoConvergence, PoleHit):
        reject()
    assert np.max(np.abs(fprime1 - rad.value)) <= max(1e-9, 10.0 * rad.error_estimate)


# ---------------------------------------------------------------------------
# lp boundary certificate
# ---------------------------------------------------------------------------


def test_lp_boundary_identity_lambda_one():
    for p in (2, 3, 4):
        z0 = BoundaryPoint(np.array([1.0, 0.0], dtype=complex), p)
        verdict = verify_lp_boundary_schwarz(identity_map(2), z0, CFG)
        assert verdict.passed
        assert verdict.quantities["lambda"] == pytest.approx(1.0, abs=1e-10)
        assert verdict.quantities["imag_residual"] <= 1e-10
        assert verdict.quantities["proportionality_residual"] <= 1e-10
        assert verdict.quantities["tangent_residual"] <= 1e-9


def test_lp_boundary_square_lambda_two():
    z0 = BoundaryPoint(np.array([1.0, 0.0, 0.0], dtype=complex), 3)
    verdict = verify_lp_boundary_schwarz(gallery("square_first", {"n": 3}), z0, CFG)
    assert verdict.passed
    assert verdict.quantities["lambda"] == pytest.approx(2.0, abs=1e-9)
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
    verdict = verify_lp_boundary_schwarz(identity_map(2), z0, CFG)
    assert verdict.passed and verdict.quantities["lambda"] == pytest.approx(1.0, abs=1e-10)


def test_lp_boundary_origin_gate_reads_origin_tol():
    # ||f(0)||_3 = 1e-9 lies between origin_tol (1e-10) and hypothesis_tol (1e-8)
    f = MapTuple((Coordinate(0, 2), Sum((Coordinate(1, 2), Constant(1e-9, 2)))))
    z0 = BoundaryPoint(np.array([1.0, 0.0], dtype=complex), 3)
    v = verify_lp_boundary_schwarz(f, z0, CFG)
    origin = v.hypotheses[0]
    assert (origin.name, origin.ok) == ("fixes_origin", False)
    assert origin.residual == pytest.approx(1e-9)
    assert math.isnan(v.margin) and not v.passed
    assert verify_lp_boundary_schwarz(f, z0, CheckConfig(samples=500, origin_tol=1e-8)).passed


def test_lp_boundary_slope_residual_is_boundary_slope_check():
    f = gallery("diag_power", {"ks": [2, 1, 3], "units": [[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]]})
    for p in (2, 3, 4):
        z0 = BoundaryPoint(np.array([0.0, 0.0, np.exp(0.7j)]), p)
        verdict = verify_lp_boundary_schwarz(f, z0, CFG)
        slope = {h.name: h.residual for h in verdict.hypotheses}["radial_slope_identity"]
        assert slope == boundary_slope_check(f, z0, verdict.quantities["lambda"])
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
    # one batch of f(z0), f(0) and the slope probe; the exact Jacobians evaluate nothing
    assert len(calls) <= 1, calls
    calls.clear()
    f = gallery("ph_blend", {"n": 2, "mix": 0.4, "shift_holo": 0.3, "shift_anti": -0.2,
                             "anchor": 1})
    verify_pluriharmonic_boundary(f, BoundaryPoint(np.array([0.0, 1.0 + 0j]), 2), CFG)
    # residual batch, one batch of f(z0), f(0) and the Harnack grid
    assert len(calls) <= 2, calls


def _ref_tangent_residual(J, z0, gw):
    """The tangent-invariance check one coordinate probe at a time."""
    n = z0.dim
    res = 0.0
    for j in range(n):
        for probe in (np.eye(n, dtype=complex)[j], 1j * np.eye(n, dtype=complex)[j]):
            _, beta = normal_tangent_decompose(probe, z0)
            bn = float(np.linalg.norm(beta))
            if bn < 1e-12:
                continue
            res = max(res, abs(complex(cinner(J @ (beta / bn), gw)).real))
    return res


def _sphere_point(gen, n, p, zeros, real):
    z = gen.standard_normal(n) + (0.0 if real else 1j * gen.standard_normal(n))
    z[np.array(zeros[:n])] = 0.0
    if not np.any(z):
        z[0] = 1.0
    return BoundaryPoint(z / lp_norm(z, p), p)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5), p=st.sampled_from([2.0, 2.5, 3.0, 4.0, 7.0]),
       zeros=st.lists(st.booleans(), min_size=5, max_size=5), real=st.booleans(),
       seed=st.integers(0, 10_000))
def test_stacked_tangent_check_equals_the_probe_loop(n, p, zeros, real, seed):
    gen = stream(seed, "tangent-check", n)
    z0 = _sphere_point(gen, n, p, zeros, real)
    w0 = _sphere_point(gen, n, p, zeros[::-1], False)
    J = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    gw = p * w0.normal
    stacked = verify_module._tangent_residual(J, z0.tangent_probes, gw)
    assert stacked == _ref_tangent_residual(J, z0, gw)
    # a NaN image is not dropped, as the loop's Python max dropped it
    J[0, 0] = math.nan
    assert math.isnan(verify_module._tangent_residual(J, z0.tangent_probes, gw))


@pytest.mark.parametrize("check", ["liu_wang", "lp_boundary_schwarz"])
def test_boundary_verifiers_reject_a_map_that_is_nan_off_the_origin(check):
    # f(z0) and the holomorphy residual are NaN; a gate `x > tol` passed them
    job = {"id": "nan-map", "check": check, "map": nan_map_json(),
           "point": [[0.6, 0.0], [0.8, 0.0]], "expect": "raises:HypothesisFailed"}
    if check == "lp_boundary_schwarz":
        job["exponent"] = 2
    config = parse_suite({"suite_name": "nan", "seed": 1, "jobs": [job]})
    with np.errstate(over="ignore", invalid="ignore"):
        (result,) = run_suite(config)
    assert result.passed and result.hypotheses[0]["name"] == "raised_HypothesisFailed", result


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), rows=st.integers(1, 20), lo=st.integers(-5, 5),
       seed=st.integers(0, 10_000))
def test_harnack_pairing_rows_equal_per_row_dots(n, rows, lo, seed):
    # the pairing verify_pluriharmonic_boundary makes of its Harnack rows
    gen = stream(seed, "pair-rows", n)
    scale = 10.0 ** gen.uniform(lo, 5, (rows, 1))
    w = scale * (gen.standard_normal((rows, n)) + 1j * gen.standard_normal((rows, n)))
    V = 10.0 ** gen.uniform(-5, 5) * gen.standard_normal(2 * n)
    paired = np.vecdot(np.concatenate([w.real, w.imag], axis=1), V)
    assert paired.tolist() == [float(realify(row) @ V) for row in w]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_pluriharmonic_harnack_values_are_per_row_dots(n, seed):
    # the verdict's Harnack grid, 1 - realify(f(zeta z0)) @ V, pairs each row alone
    gen = stream(seed, "harnack-rows", n)
    f = LinearMatrix(haar_unitary(n, gen))
    z = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    z0 = BoundaryPoint(z / np.linalg.norm(z), 2)
    seen, harnack = [], verify_module._harnack

    def capture(values, center):
        seen.append(values)
        return harnack(values, center)

    with mock.patch.object(verify_module, "_harnack", capture):
        verify_pluriharmonic_boundary(f, z0, CFG)
    angles = 2.0 * np.pi * np.arange(verify_module.HARNACK_ANGLES) / verify_module.HARNACK_ANGLES
    zetas = np.asarray(verify_module.HARNACK_RADII)[:, None] * np.exp(1j * angles)
    fvals = evaluate(f, np.vstack([z0.point, np.zeros(n, dtype=complex),
                                   (zetas[:, :, None] * z0.point).reshape(-1, n)]))
    V = pluriharmonic_V(BoundaryPoint(fvals[0], 2))
    expected = [1.0 - float(realify(row) @ V) for row in fvals[2:]]
    assert seen[0].reshape(-1).tolist() == expected


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
    verdict = verify_lp_boundary_schwarz(f, z0, CFG)
    assert not verdict.passed
    assert np.isnan(verdict.margin)
    # angular derivative of (z+a)/(1+az) at 1 is (1-a)/(1+a)
    assert verdict.quantities["lambda"] == pytest.approx((1 - 0.3) / (1 + 0.3), abs=1e-9)


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
    a = np.array([[0.5 + 0j]])
    b = np.array([0.0 + 0j])
    assert _pseudo_hyperbolic_rows(a, b, as_exponent(2))[0] == pytest.approx(0.5, abs=1e-12)
    assert _pseudo_hyperbolic_rows(a, b, as_exponent("inf"))[0] == pytest.approx(0.5, abs=1e-12)
    c = np.array([0.3, 0.4 + 0.1j])
    assert _pseudo_hyperbolic_rows(c[None], c, as_exponent(2))[0] == pytest.approx(0.0, abs=1e-7)
    # the rows hold the p = 2 and p = inf formulas only; the verifier guards the rest
    with pytest.raises(BadParams):
        verify_product_slice(gallery("product_projection", {"n": 1, "m": 1}),
                             identity_map(1), np.zeros(1), 3, 1, 1, CFG)


def _ref_pseudo_hyperbolic(a, b, e):
    """The scalar distance the row form replaced."""
    a, b = cvector(a), cvector(b)
    if math.isinf(e):
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
        assert _pseudo_hyperbolic_rows(z[None], z_fix, e)[0] == _ref_pseudo_hyperbolic(z, z_fix, e)


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
    radii = verify_module.HARNACK_RADII
    ok, margin = verify_module._harnack(np.full((len(radii), 8), 2.0), 2.0)
    assert ok and margin > 0.0
    # phi = Re(zeta): sign-changing, center value 0
    angles = 2 * np.pi * np.arange(8) / 8
    vals = np.stack([r * np.cos(angles) for r in radii])
    assert not verify_module._harnack(vals, 0.0)[0]


def test_harnack_one_minus_re():
    # phi(zeta) = 1 - Re zeta, harmonic positive, center 1
    radii = np.array(verify_module.HARNACK_RADII)
    angles = 2 * np.pi * np.arange(32) / 32
    vals = 1.0 - radii[:, None] * np.cos(angles)
    ok, margin = verify_module._harnack(vals, 1.0)
    assert ok
    # on the circle of radius r: min phi = 1 - r, lower Harnack bound = (1 - r)/(1 + r);
    # the upper bound's slack is larger on every circle, so the lower sets the margin
    lower = (1.0 - radii) - (1.0 - radii) / (1.0 + radii)
    assert margin == pytest.approx(np.min(lower), abs=1e-12)
    assert lower[4] == pytest.approx(0.5 - 1.0 / 3.0, abs=1e-12)


def _harnack_slacks_by_row(radii, vals, c):
    # the radius-by-radius loop verify._harnack replaced, kept as its reference
    lower_slack = upper_slack = math.inf
    for i, r in enumerate(radii):
        lo = (1.0 - r) / (1.0 + r) * c
        hi = (1.0 + r) / (1.0 - r) * c
        lower_slack = min(lower_slack, float(np.min(vals[i] - lo)))
        upper_slack = min(upper_slack, float(np.min(hi - vals[i])))
    return lower_slack, upper_slack


_grid_values = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]),
                         st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=150, deadline=None)
@given(angles=st.integers(1, 17), data=st.data(),
       center=st.one_of(st.floats(0.0, 4.0), st.just(math.nan),
                        st.floats(allow_nan=True, allow_infinity=True)))
def test_harnack_slacks_equal_the_radius_loop_bit_for_bit(angles, data, center):
    radii = verify_module.HARNACK_RADII
    vals = np.array(data.draw(st.lists(_grid_values, min_size=len(radii) * angles,
                                       max_size=len(radii) * angles)))
    vals = vals.reshape(len(radii), angles)
    with np.errstate(all="ignore"):
        want = _harnack_slacks_by_row(radii, vals, center)
        ok, margin = verify_module._harnack(vals, center)
    assert margin.hex() == min(want).hex()
    assert ok == (center > 0.0 and float(vals.min()) >= 0.0 and min(want) >= -1e-12)
