"""Rigidity certificates, the proof chain, and the counterexample gallery."""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from schwarz_lab import (
    BadParams,
    BoundaryPoint,
    CheckConfig,
    Compose,
    Coordinate,
    HypothesisFailed,
    LinearMatrix,
    MapTuple,
    MoebiusDisk,
    PoleHit,
    Power,
    Scale,
    Sum,
    complex_jacobian,
    evaluate,
    gallery,
    haar_unitary,
    identity_map,
    norm_p,
    parse_suite,
    run_suite,
)
from schwarz_lab import diff, rigidity
from schwarz_lab.geometry import lp_norm, with_lp_norms
from schwarz_lab.rigidity import (
    RigidityInstance,
    RigidityReport,
    check_proof_chain,
    check_rigidity,
    counterexample_polydisk_eigen,
    equality_case_1d,
    halton_ball_grid,
)
from schwarz_lab.rng import stream

from helpers import cr_defect
from test_maps import _trees

FAST = CheckConfig(samples=400, grid_points=1500)


def basis_anchors(n, p):
    out = []
    for k in range(n):
        v = np.zeros(n, dtype=complex)
        v[k] = 1.0
        out.append(BoundaryPoint(v, p))
    return out


def dft_anchors(n):
    # rows of the DFT matrix are torus points and linearly independent
    F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return [BoundaryPoint(F[k], "inf", tolerance=1e-9) for k in range(n)]


def test_identity_certified_all_variants():
    n = 3
    cases = [
        ("p2", 2, basis_anchors(n, 2)),
        ("schwarz_v", 4, basis_anchors(n, 4)),
        ("schwarz_v", "inf", dft_anchors(n)),
        ("rigidity_v", 3, basis_anchors(n, 3)),
        ("polydisk", "inf", dft_anchors(n)),
    ]
    for variant, p, anchors in cases:
        inst = RigidityInstance(identity_map(n), anchors, p, variant)
        rep = check_rigidity(inst, FAST)
        assert rep.verdict == "certified", (variant, p, rep.reason)
        target = float(n) if variant == "polydisk" else 1.0
        assert all(abs(v - target) <= 1e-9 for v in rep.equation_values)
        assert rep.quantities["rank"] == n
        assert rep.quantities["identity_residual"] <= 1e-12


def test_insufficient_anchors_withholds_certificate():
    n = 3
    f = gallery("first_times_last", {"n": n})
    anchors = basis_anchors(n, 3)[1:]  # e2, e3 only; all fixed by f
    inst = RigidityInstance(f, anchors, 3, "schwarz_v")
    rep = check_rigidity(inst, FAST)
    assert rep.verdict == "hypotheses_fail"
    assert rep.reason == "insufficient anchors"
    assert all(abs(v - 1.0) <= 1e-9 for v in rep.equation_values)
    assert rep.quantities["rank"] == n - 1
    assert rep.quantities["identity_residual"] >= 0.1


def test_negated_anchors_fail_equations():
    n = 2
    anchors = [BoundaryPoint(-np.eye(n, dtype=complex)[k], 2) for k in range(n)]
    inst = RigidityInstance(identity_map(n), anchors, 2, "rigidity_v")
    rep = check_rigidity(inst, FAST)
    assert rep.verdict == "equations_fail"
    assert all(abs(v + 1.0) <= 1e-9 for v in rep.equation_values)


def test_hypotheses_fail_short_circuits():
    n = 2
    f = gallery("scaled_identity", {"n": n, "t": 0.5})
    inst = RigidityInstance(f, basis_anchors(n, 2), 2, "p2")
    rep = check_rigidity(inst, FAST)
    assert rep.verdict == "hypotheses_fail"
    assert rep.reason == "anchor is not a fixed point"
    assert rep.equation_values == ()
    f2 = gallery("moebius_fix1", {"a": 0.3})
    inst2 = RigidityInstance(f2, basis_anchors(1, 2), 2, "p2")
    rep2 = check_rigidity(inst2, FAST)
    assert rep2.verdict == "hypotheses_fail"
    assert rep2.reason == "map does not fix the origin"


def nan_map_json() -> dict:
    """f_j = 1e309 z_j - 1e309 z_j on C^2: it overflows to inf - inf = NaN
    everywhere but at 0 (run it under np.errstate(over=, invalid="ignore"))."""
    def comp(j):
        coord = {"node": "coordinate", "index": j, "dim": 2}
        return {"node": "sum", "terms": [
            {"node": "scale", "factor": [s * 1e308, 0.0],
             "inner": {"node": "scale", "factor": [10.0, 0.0], "inner": coord}}
            for s in (1.0, -1.0)]}
    return {"node": "tuple", "components": [comp(0), comp(1)]}


def test_a_map_that_is_nan_off_the_origin_is_not_certified():
    # every residual past the origin check is NaN; a gate `x > tol` or a
    # Python max would let each one through.
    job = {"id": "nan-map", "check": "rigidity", "exponent": 2, "variant": "p2",
           "map": nan_map_json(),
           "anchors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    config = parse_suite({"suite_name": "nan", "seed": 1,
                          "jobs": [dict(job, expect="hypotheses_fail")]})
    with np.errstate(over="ignore", invalid="ignore"):
        (result,) = run_suite(config)
    assert result.passed
    assert result.hypotheses[0]["name"] == "verdict_hypotheses_fail"
    assert math.isnan(result.quantities["holomorphy_residual"])


def test_holder_chain_when_equations_pass():
    n = 2
    inst = RigidityInstance(identity_map(n), basis_anchors(n, 3), 3, "rigidity_v")
    rep = check_rigidity(inst, FAST)
    assert rep.verdict == "certified"
    assert 1.0 - 1e-7 <= rep.quantities["holder_norm_min"]
    assert rep.quantities["holder_norm_max"] <= 1.0 + 1e-7


def test_instance_validation():
    n = 2
    with pytest.raises(BadParams):
        RigidityInstance(identity_map(n), basis_anchors(n, 2), 2, "frobnicate")
    with pytest.raises(BadParams):
        RigidityInstance(identity_map(n), basis_anchors(n, 3), 3, "p2")
    with pytest.raises(BadParams):  # duplicate anchors
        a = basis_anchors(n, 2)
        RigidityInstance(identity_map(n), [a[0], a[0]], 2, "p2")
    with pytest.raises(BadParams):  # basis vectors are not torus points
        RigidityInstance(identity_map(n), basis_anchors(n, "inf"), "inf", "polydisk")
    with pytest.raises(BadParams):  # rigidity_v needs finite p
        RigidityInstance(identity_map(n), dft_anchors(n), "inf", "rigidity_v")


@pytest.mark.parametrize("angle, distinct", [(3e-6, True), (1e-13, False), (0.0, False)])
def test_anchor_distinctness_is_an_absolute_test(angle, distinct):
    # (0.6, 0.8) turned by `angle` lies `angle` away from it in the 2-norm;
    # a relative tolerance would call 3e-6 equal, and by the order of the pair
    a = np.array([0.6, 0.8], dtype=complex)
    pair = [BoundaryPoint(a, 2), BoundaryPoint(np.exp(1j * angle) * a, 2)]
    for anchors in (pair, pair[::-1]):
        if distinct:
            assert len(RigidityInstance(identity_map(2), anchors, 2, "p2").anchors) == 2
        else:
            with pytest.raises(BadParams, match="distinct"):
                RigidityInstance(identity_map(2), anchors, 2, "p2")


def _near_duplicate_by_pairs(points):
    # the pairwise loop RigidityInstance ran before the sorted window, kept as its reference
    return any(np.allclose(points[i], points[j], rtol=0.0, atol=1e-12)
               for i in range(len(points)) for j in range(i + 1, len(points)))


_plants = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 2), st.booleans(),
                             st.sampled_from([0.5e-12, 1e-12, 1.5e-12, 3e-12]), st.booleans()),
                   max_size=4)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 12), shared=st.integers(0, 12),
       plants=_plants, seed=st.integers(0, 10_000))
def test_near_duplicate_anchors_are_judged_as_the_pairwise_loop(n, k, shared, plants, seed):
    # rows moved by 0.5, 1, 1.5 or 3 times the 1e-12 tolerance in one real or
    # imaginary part, and rows sharing a first coordinate, which fill one window
    gen = stream(seed, "near-duplicates", n)
    rows = list(gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n)))
    for row in rows[:shared]:
        row[0] = rows[0][0]
    for i, j, imag, offset, negative in plants:
        row = rows[i % k].copy()
        row[j % n] += (1j if imag else 1.0) * (-offset if negative else offset)
        rows.append(row)
    points = np.array(rows)[gen.permutation(len(rows))]
    assert rigidity._has_near_duplicate(points) == _near_duplicate_by_pairs(points)


_offsets = st.sampled_from([0.5e-12, 1e-12 * (1 - 2**-30), 1e-12, 1e-12 * (1 + 2**-30), 1.5e-12])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 12),
       plants=st.lists(st.tuples(st.integers(0, 11), _offsets, st.booleans()), max_size=4),
       seed=st.integers(0, 10_000))
def test_near_duplicates_at_the_key_bound_are_judged_as_the_pairwise_loop(n, k, plants, seed):
    # every row shares its first coordinate and the others lie on the unit
    # circle; a planted row moves each coordinate by the same modulus along the
    # key's phase u_j, so its key moves by n times that, the most a pair within
    # that modulus can differ there
    gen = stream(seed, "aligned-duplicates", n)
    first = gen.standard_normal() + 1j * gen.standard_normal()
    rows = [np.concatenate([[first], np.exp(2j * np.pi * gen.uniform(0.0, 1.0, n - 1))])
            for _ in range(k)]
    u = np.exp(2j * np.pi * rigidity._KEY_TURNS * np.arange(1, n + 1))
    for i, offset, negative in plants:
        rows.append(rows[i % k] + (-offset if negative else offset) * u)
    points = np.array(rows)[gen.permutation(len(rows))]
    assert rigidity._has_near_duplicate(points) == _near_duplicate_by_pairs(points)


def test_ten_thousand_anchors_sharing_a_coordinate_are_judged_in_half_a_second():
    # (0, e^{i theta_j}) once fell in one window keyed on Re z_1 alone: 5 s here
    theta = 2 * np.pi * np.arange(10_000) / 10_000
    points = np.stack([np.zeros(10_000), np.exp(1j * theta)], axis=1)
    start = time.perf_counter()
    assert not rigidity._has_near_duplicate(points)
    assert time.perf_counter() - start < 0.5


def _scaled_identity(n, t):
    return MapTuple(tuple(Scale(t, Coordinate(j, n)) for j in range(n)))


@pytest.mark.parametrize("p, n, samples", [(2, 1, 50), (3, 2, 400), (1.5, 3, 2000)])
def test_selfmap_escape_is_the_largest_norm_over_the_samples_grid(p, n, samples):
    f = _scaled_identity(n, 1.5)
    inst = RigidityInstance(f, basis_anchors(n, p), p, "rigidity_v")
    rep = check_rigidity(inst, CheckConfig(samples=samples, grid_points=64))
    assert rep.reason == "map leaves the unit ball on samples"
    grid = halton_ball_grid(p, n, samples)
    assert rep.quantities["selfmap_escape"] == float(np.max(lp_norm(evaluate(f, grid), p))) - 1.0


@pytest.mark.parametrize("factor, reason", [
    (1 + 5e-10, "map leaves the unit ball on samples"),
    (1 + 5e-11, "anchor is not a fixed point"),
    (1 - 1e-12, "anchor is not a fixed point"),
])
def test_selfmap_gate_admits_escapes_up_to_1e_10(factor, reason):
    # f = t z with t = factor / m, m the grid's largest norm, so the escape is
    # factor - 1; t is not 1, so a map that passes the gate stops at the anchors
    p, n = 3, 2
    m = float(np.max(lp_norm(halton_ball_grid(p, n, FAST.samples), p)))
    f = _scaled_identity(n, factor / m)
    rep = check_rigidity(RigidityInstance(f, basis_anchors(n, p), p, "schwarz_v"), FAST)
    assert (rep.verdict, rep.reason) == ("hypotheses_fail", reason)


@pytest.mark.parametrize("t, verdict, reason", [
    (1 - 5e-8, "hypotheses_fail", "anchor is not a fixed point"),
    (1 - 5e-9, "certified", ""),
])
def test_fixed_point_gate_admits_residuals_up_to_1e_8(t, verdict, reason):
    # f = t z moves each anchor e_j by 1 - t; fixed_tol at 1e-7 certifies the
    # first map, and at 1e-9 refuses the second
    inst = RigidityInstance(_scaled_identity(2, t), basis_anchors(2, 2), 2, "p2")
    rep = check_rigidity(inst, FAST)
    assert (rep.verdict, rep.reason) == (verdict, reason)
    assert max(rep.fixed_point_residuals) == pytest.approx(1 - t, rel=1e-6)


@pytest.mark.parametrize("eps, verdict, reason", [
    (5e-7, "equations_fail", "pairing equations miss the target 1.0"),
    (3e-8, "certified", ""),
])
def test_equation_gate_admits_gaps_up_to_1e_7(eps, verdict, reason):
    # f = (z_1 + eps (z_1^2 - z_1), z_2) fixes e_1 and e_2 with df_1/dz_1 = 1 + eps
    # at e_1, so the equation gap is eps; equation_tol at 1e-6 passes the first
    # map's equations (its identity residual, about 2 eps, then refuses it), and
    # at 1e-8 refuses the second
    z1 = Coordinate(0, 2)
    bend = Scale(eps, Sum((Power(2, z1), Scale(-1.0, z1))))
    f = MapTuple((Sum((z1, bend)), Coordinate(1, 2)))
    rep = check_rigidity(RigidityInstance(f, basis_anchors(2, 2), 2, "p2"), FAST)
    assert (rep.verdict, rep.reason) == (verdict, reason)
    assert rep.quantities["equation_gap"] == pytest.approx(eps, rel=1e-6)


def test_proof_chain_identity_all_links():
    n = 2
    inst = RigidityInstance(identity_map(n), basis_anchors(n, 2), 2, "p2")
    v = check_proof_chain(inst, FAST)
    assert v.passed
    assert all(h.ok for h in v.hypotheses)
    assert v.quantities["jf0_identity_residual"] <= 1e-10


def test_proof_chain_rank_deficiency_detected():
    n = 3
    f = gallery("first_times_last", {"n": n})
    inst = RigidityInstance(f, basis_anchors(n, 3)[1:], 3, "schwarz_v")
    v = check_proof_chain(inst, FAST)
    assert not v.passed
    by_name = {h.name: h for h in v.hypotheses}
    assert by_name["slice_into_disk"].ok
    assert by_name["slice_boundary_data"].ok
    assert by_name["slice_is_identity"].ok
    assert by_name["origin_jacobian_fixes_anchors"].ok
    assert not by_name["origin_jacobian_is_identity"].ok
    assert v.quantities["rank"] == n - 1


def test_proof_chain_rejects_failing_equations():
    n = 2
    anchors = [BoundaryPoint(-np.eye(n, dtype=complex)[k], 2) for k in range(n)]
    inst = RigidityInstance(identity_map(n), anchors, 2, "rigidity_v")
    with pytest.raises(HypothesisFailed):
        check_proof_chain(inst, FAST)


def test_equality_case_identity_and_square():
    v = equality_case_1d(identity_map(1), FAST)
    assert v.passed
    assert v.quantities["equality_detected"] == 1.0
    assert v.quantities["identity_residual"] <= 1e-12
    v2 = equality_case_1d(gallery("zhu_extremal", {"a": 0.0, "d": 0.0}), FAST)
    assert v2.passed
    assert v2.quantities["equality_detected"] == 0.0
    assert v2.quantities["fprime1"] == pytest.approx(2.0, abs=1e-9)


def test_equality_case_extremal_derivative():
    v = equality_case_1d(gallery("zhu_extremal", {"a": 0.0, "d": 0.5}), FAST)
    assert v.quantities["fprime1"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert v.quantities["equality_detected"] == 0.0


def test_counterexample_frozen_values():
    v3 = counterexample_polydisk_eigen(3)
    assert v3.passed
    assert v3.quantities["residual"] == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-9)
    assert v3.quantities["lambda_star"] == pytest.approx(4.0 / 3.0, abs=1e-10)
    v2 = counterexample_polydisk_eigen(2)
    assert v2.quantities["residual"] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)


def test_polydisk_counterexample_builds_its_map_once_per_n(monkeypatch):
    # a warm boundary-fine pass runs n = 2..5 and builds no tree
    cold = [counterexample_polydisk_eigen(n) for n in (2, 3, 4, 5)]
    built = []
    monkeypatch.setattr(rigidity, "gallery", lambda *args: built.append(args))
    assert [counterexample_polydisk_eigen(n) for n in (2, 3, 4, 5)] == cold
    assert built == []


def test_halton_grid_deterministic_and_interior():
    g1 = halton_ball_grid(3, 2, 500)
    g2 = halton_ball_grid(3, 2, 500)
    assert np.array_equal(g1, g2)
    norms = (np.abs(g1) ** 3).sum(axis=1) ** (1 / 3)
    assert norms.max() < 1.0


def test_halton_grid_is_shared_and_read_only():
    # a memoised size is built once; every call returns that read-only array
    g1 = halton_ball_grid(3, 2, 500)
    assert halton_ball_grid(3, 2, 500) is g1
    assert not g1.flags.writeable
    with pytest.raises(ValueError):
        g1[0] = 0.0
    assert np.allclose(halton_ball_grid(3, 2, 400), g1[:400], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("count", [1, 2, 600, 1000, 2000, 7500])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_halton_sample_equals_scipy_bit_for_bit(n, count):
    # n = 12 takes 25 bases, past the fifteen primes up to 47.
    qmc = pytest.importorskip("scipy.stats").qmc
    want = qmc.Halton(d=2 * n + 1, scramble=False).random(count + 1)[1:]
    got = np.stack([rigidity._halton_column(base, count, np.empty(count))
                    for base in rigidity._first_primes(2 * n + 1).tolist()], axis=1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _ref_halton_column(base, count):
    """The van der Corput column by dividing out each index's digits, lowest
    first: out += digit * b2r, then b2r /= base."""
    q = np.arange(1, count + 1)
    digit, term = np.empty_like(q), np.empty(count)
    out = np.zeros(count)
    b2r = 1.0 / base
    while q.any():
        np.divmod(q, base, out=(q, digit))
        out += np.multiply(digit, b2r, out=term)
        b2r /= base
    return out


@settings(max_examples=60, deadline=None)
@given(base=st.sampled_from(rigidity._first_primes(25).tolist()),
       count=st.one_of(st.integers(1, 12_345), st.sampled_from([10**5])))
@example(base=2, count=1)
@example(base=47, count=47 * 47 + 1)
@example(base=97, count=96)
def test_block_written_halton_column_equals_the_digit_loop_bit_for_bit(base, count):
    got = rigidity._halton_column(base, count, np.empty(count))
    assert got.tobytes() == _ref_halton_column(base, count).tobytes()


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([1.25, 2.0, 3.0, 4.0, math.inf]), n=st.integers(1, 3),
       count=st.integers(1, 3000))
def test_shared_grid_equals_a_fresh_build_byte_for_byte(p, n, count):
    got = halton_ball_grid(p, n, count)
    want = rigidity._ball_grid(p, n, count)
    assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert got is rigidity._shared_grid(p, n, count) and not got.flags.writeable


def _ref_ball_grid(p, n, count):
    """The grid as whole-array operations on the stacked (count, 2n + 1) sample,
    stored column by column as the reference Halton sampler stores it."""
    bases = rigidity._first_primes(2 * n + 1).tolist()
    u = np.array([rigidity._halton_column(b, count, np.empty(count)) for b in bases]).T
    x = 2.0 * u[:, : 2 * n] - 1.0
    return with_lp_norms(x[:, :n] + 1j * x[:, n:], p, 0.999 * u[:, -1])


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([1.25, 2.0, 3.0, math.inf]), n=st.integers(1, 9),
       count=st.integers(1, 6000))
@example(p=2.0, n=8, count=2049)  # a one-row last block would sum its row in another order
def test_in_place_grid_equals_the_whole_array_build_bit_for_bit(p, n, count):
    got = rigidity._ball_grid(p, n, count)
    want = _ref_ball_grid(p, n, count)
    assert got.tobytes() == want.tobytes()
    assert got.flags.f_contiguous and want.flags.f_contiguous  # each coordinate a column


def test_grids_over_the_memo_cap_are_not_kept():
    n = 2
    count = rigidity._GRID_MEMO_COORDS // n
    before = rigidity._shared_grid.cache_info()
    big = halton_ball_grid(3, n, count + 1)
    assert rigidity._shared_grid.cache_info() == before
    assert not big.flags.writeable
    assert big.tobytes() == rigidity._ball_grid(3.0, n, count + 1).tobytes()
    assert halton_ball_grid(3, n, count + 1) is not big
    halton_ball_grid(3, n, count)
    after = rigidity._shared_grid.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1
    assert after.maxsize == 32


def test_an_over_cap_grid_is_built_in_little_more_than_its_own_memory():
    # the grid is 32.0 MB; with a (count, 2n + 1) Halton sample and whole-grid
    # temporaries its build peaked at 162.5 MB
    tracemalloc.start()
    try:
        grid = halton_ball_grid(2, 20, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.nbytes == 32_000_000 and peak < 40_000_000


_LINEAR_2 = LinearMatrix(np.array([[0.5, 0.2j], [-0.1, 0.4 + 0.1j]]))
_MOEBIUS_2 = MapTuple((MoebiusDisk(0.3, 1j, Coordinate(0, 2)), Coordinate(1, 2)))


@settings(max_examples=40, deadline=None)
@given(f=_trees.filter(lambda f: f.output_dim == f.input_dim),
       p=st.sampled_from([2.0, 3.0]))
@example(f=_LINEAR_2, p=2.0)
@example(f=_MOEBIUS_2, p=3.0)
@example(f=Compose(_LINEAR_2, _MOEBIUS_2), p=2.0)
def test_blocked_identity_residual_equals_one_evaluate_bit_for_bit(f, p):
    n = f.input_dim
    inst = RigidityInstance(f, basis_anchors(n, p), p, "p2" if p == 2.0 else "rigidity_v")
    for count in (1, 2047, 2048, 2049, 10_000):
        pts = np.vstack([halton_ball_grid(p, n, count), inst.segment_points])
        try:
            want = np.max(lp_norm(evaluate(f, pts) - pts, p))
        except PoleHit:
            reject()
        got = rigidity._identity_residual(inst, replace(FAST, grid_points=count))
        assert np.float64(got).tobytes() == want.tobytes(), count


def test_first_primes_grow_past_the_first_sieve():
    primes = rigidity._first_primes(1000)
    assert primes[:10].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes[-1] == 7919 and np.all(np.diff(primes) > 0)
    assert all(all(p % d for d in range(2, math.isqrt(int(p)) + 1)) for p in primes)


def test_gallery_completeness_no_false_certificates():
    # every non-identity origin-fixing gallery self-map must fail something
    n = 2
    anchors = basis_anchors(n, 2)
    for name, params in [
        ("scaled_identity", {"n": n, "t": 0.5}),
        ("first_times_last", {"n": n}),
        ("square_first", {"n": n}),
    ]:
        f = gallery(name, params)
        rep = check_rigidity(RigidityInstance(f, anchors, 2, "p2"), FAST)
        assert rep.verdict != "certified", name


# ---------------------------------------------------------------------------
# the one-anchor-at-a-time checker, kept as the reference for the stacked one


def _ref_identity_residual(f, inst, cfg):
    e = inst.exponent
    grid = halton_ball_grid(e, inst.dim, cfg.grid_points)
    segs = []
    for a in inst.anchors:
        for t in np.linspace(0.05, 0.99, 12):
            segs.append(t * a.point)
    pts = np.vstack([grid, np.array(segs)])
    return float(np.max(lp_norm(evaluate(f, pts) - pts, e)))


def _ref_check_rigidity(inst, cfg):
    f = inst.map
    e = inst.exponent
    n = inst.dim
    quantities = {}

    def partial(verdict, reason, fixed=(), eqs=(), rank=-1, nonneg=True,
                jf0=(), ident=math.nan):
        return RigidityReport(verdict, reason, tuple(fixed), tuple(eqs), nonneg, tuple(jf0),
                              dict(quantities, rank=float(rank), identity_residual=ident))

    origin_res = float(norm_p(evaluate(f, np.zeros(n, dtype=complex)), e))
    quantities["origin_residual"] = origin_res
    if origin_res > cfg.origin_tol:
        return partial("hypotheses_fail", "map does not fix the origin")
    worst_holo = 0.0
    for a in inst.anchors:
        worst_holo = max(worst_holo, cr_defect(f, a.point))
    quantities["holomorphy_residual"] = worst_holo
    if not f.is_holomorphic or worst_holo > cfg.holo_tol:
        return partial("hypotheses_fail", "map is not holomorphic at the anchors")
    pts = halton_ball_grid(e, n, cfg.samples)
    escape = float(np.max(lp_norm(evaluate(f, pts), e)))
    quantities["selfmap_escape"] = max(0.0, escape - 1.0)
    if escape > 1.0 + 1e-10:
        return partial("hypotheses_fail", "map leaves the unit ball on samples")
    fixed = [float(norm_p(evaluate(f, a.point) - a.point, e)) for a in inst.anchors]
    if max(fixed) > cfg.fixed_tol:
        return partial("hypotheses_fail", "anchor is not a fixed point", fixed=fixed)

    J0 = complex_jacobian(f, np.zeros(n, dtype=complex))
    eqs, jf0, holder_norms = [], [], []
    for a in inst.anchors:
        row = rigidity._pairing_row(inst, a)
        J = complex_jacobian(f, a.point)
        eqs.append(complex(row @ (J @ a.point)))
        jf0.append(float(norm_p(J0 @ a.point - a.point, e)))
        holder_norms.append(float(norm_p(J0 @ a.point, e)))
    quantities["holder_norm_max"] = max(holder_norms)
    quantities["holder_norm_min"] = min(holder_norms)
    eq_gap = max(abs(v - inst.target) for v in eqs)
    quantities["equation_gap"] = eq_gap
    if eq_gap > cfg.equation_tol:
        return partial("equations_fail", f"pairing equations miss the target {inst.target}",
                       fixed=fixed, eqs=eqs, jf0=jf0)

    A = np.array([a.point for a in inst.anchors])
    nonneg = True
    if inst.variant == "rigidity_v":
        max_imag = float(np.max(np.abs(A.imag)))
        min_real = float(np.min(A.real))
        quantities["anchor_max_imag"] = max_imag
        quantities["anchor_min_real"] = min_real
        nonneg = max_imag <= 1e-12 and min_real >= -1e-12
    M = A.real if inst.variant == "rigidity_v" else A
    svals = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals[0] > 0 else 0
    ident = _ref_identity_residual(f, inst, cfg)
    rest = dict(fixed=fixed, eqs=eqs, rank=rank, nonneg=nonneg, jf0=jf0, ident=ident)
    if not nonneg:
        return partial("hypotheses_fail", "anchors must be real with nonnegative coordinates",
                       **rest)
    if rank < n:
        return partial("hypotheses_fail", "insufficient anchors", **rest)
    if ident > cfg.identity_tol:
        return partial("hypotheses_fail",
                       "identity residual too large despite passing equations", **rest)
    return partial("certified", "", **rest)


# Gallery self-maps of C^n.  "unitary" is left out on purpose: a LinearMatrix
# evaluated on a stack of anchors can differ by an ulp from one-point calls.
_SELF_MAPS = {
    "identity": {},
    "first_times_last": {},
    "square_first": {},
    "scaled_identity": {"t": 0.5},
    "ph_linear_blend": {"mix": 0.5},
}
_EXPONENTS = {"p2": [2], "polydisk": ["inf"], "schwarz_v": [2, 3, 4, "inf"],
              "rigidity_v": [1.5, 2, 3]}


def _random_anchors(variant, p, n, k, kind, seed):
    gen = stream(seed, "rigidity-anchors", n)
    torus = p == "inf"
    out = []
    for j in range(k):
        if kind == "basis" and not torus:
            v = np.zeros(n, dtype=complex)
            v[j] = 1.0
        elif torus:
            v = np.exp(2j * np.pi * gen.uniform(0.0, 1.0, n))
        elif kind in ("real", "nonneg"):
            v = gen.standard_normal(n) + 0j
            v = np.abs(v) if kind == "nonneg" else v
        else:
            v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        out.append(BoundaryPoint(v / norm_p(v, p), p, tolerance=1e-9))
    return out


@st.composite
def _instances(draw):
    variant = draw(st.sampled_from(sorted(_EXPONENTS)))
    p = draw(st.sampled_from(_EXPONENTS[variant]))
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["basis", "nonneg", "real", "random"]))
    # the identity fixes every anchor, so it reaches the equations and beyond
    name = draw(st.one_of(st.just("identity"), st.sampled_from(sorted(_SELF_MAPS))))
    anchors = _random_anchors(variant, p, n, k, kind, draw(st.integers(0, 10_000)))
    f = gallery(name, dict(_SELF_MAPS[name], n=n))
    return RigidityInstance(f, anchors, p, variant)


@settings(max_examples=100, deadline=None)
@given(inst=_instances(), seed=st.integers(0, 3))
def test_stacked_rigidity_equals_the_per_anchor_reference(inst, seed):
    cfg = CheckConfig(samples=64, grid_points=64, seed=seed)
    assert check_rigidity(inst, cfg) == _ref_check_rigidity(inst, cfg)


def _ref_slice_map(inst, anchor):
    """psi(xi) = row . f(xi * anchor) / target, a scalar disk map."""
    row = rigidity._pairing_row(inst, anchor) / inst.target
    col = anchor.point[:, None]
    return Compose(LinearMatrix(row[None, :]), Compose(inst.map, LinearMatrix(col)))


@settings(max_examples=60, deadline=None)
@given(inst=_instances())
def test_stacked_slice_probes_equal_the_per_anchor_slice_maps_bit_for_bit(inst):
    # the proof chain's probes, the Halton disk grid and the radial ts grid;
    # the reference evaluates each anchor's slice map at them, 0 and 1 in one batch
    xis = np.concatenate([halton_ball_grid(2, 1, 200), np.linspace(0.05, 0.95, 10)[:, None]])
    got = rigidity._slice_values(inst, xis)
    probes = np.concatenate([xis, [[0.0], [1.0]]])
    want = [evaluate(_ref_slice_map(inst, a), probes)[:-2, 0] for a in inst.anchors]
    assert got.tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("p, variant", [(1.5, "rigidity_v"), (2, "p2"), (3, "schwarz_v")])
def test_stacked_fixed_point_residuals_equal_one_anchor_norms(p, variant):
    # many anchors that the map moves: each row's root must match its lone norm
    f = gallery("scaled_identity", {"n": 3, "t": 0.5})
    anchors = _random_anchors(variant, p, 3, 60, "random", 5)
    rep = check_rigidity(RigidityInstance(f, anchors, p, variant), FAST)
    assert rep.reason == "anchor is not a fixed point"
    assert rep.fixed_point_residuals == tuple(
        float(norm_p(evaluate(f, a.point) - a.point, p)) for a in anchors)


def _count_evaluate_calls(monkeypatch):
    calls = []

    def counting(f, z, ctx=None):
        calls.append(np.shape(z))
        return evaluate(f, z, ctx=ctx)

    monkeypatch.setattr(rigidity, "evaluate", counting)
    monkeypatch.setattr(diff, "evaluate", counting)
    return calls


def test_rigidity_batches_do_not_grow_with_the_anchors(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    counts = []
    for k in (2, 3):
        inst = RigidityInstance(identity_map(3), basis_anchors(3, 2)[:k], 2, "p2")
        calls.clear()
        check_rigidity(inst, FAST)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_proof_chain_reuses_the_core_without_an_identity_residual(monkeypatch):
    seen = {"identity": 0, "rigidity": 0, "grids": []}
    real_identity_residual = rigidity._identity_residual

    def identity_residual(*args):
        seen["identity"] += 1
        return real_identity_residual(*args)

    def rigidity_check(*args):
        seen["rigidity"] += 1
        return check_rigidity(*args)

    def grid(p, n, count):
        seen["grids"].append(count)
        return halton_ball_grid(p, n, count)

    monkeypatch.setattr(rigidity, "_identity_residual", identity_residual)
    monkeypatch.setattr(rigidity, "check_rigidity", rigidity_check)
    monkeypatch.setattr(rigidity, "halton_ball_grid", grid)
    inst = RigidityInstance(identity_map(2), basis_anchors(2, 2), 2, "p2")
    assert check_proof_chain(inst, FAST).passed
    assert seen["identity"] == 0
    assert seen["rigidity"] == 0
    assert FAST.grid_points not in seen["grids"]


@pytest.mark.parametrize("name, k", [("identity", 3), ("first_times_last", 2)])
def test_p2_rigidity_invariant_under_unitary_conjugation(name, k):
    n = 3
    f = gallery(name, {"n": n})
    anchors = basis_anchors(n, 2)[n - k:]
    rep = check_rigidity(RigidityInstance(f, anchors, 2, "p2"), FAST)
    for seed in range(4):
        U = haar_unitary(n, stream(seed, "conjugation", n))
        g = Compose(LinearMatrix(U), Compose(f, LinearMatrix(U.conj().T)))
        moved = [BoundaryPoint(U @ a.point, 2, tolerance=1e-9) for a in anchors]
        rep_u = check_rigidity(RigidityInstance(g, moved, 2, "p2"), FAST)
        assert ((rep_u.verdict, rep_u.quantities["rank"])
                == (rep.verdict, rep.quantities["rank"]))
        assert np.max(np.abs(np.subtract(rep_u.equation_values, rep.equation_values))) <= 1e-9
