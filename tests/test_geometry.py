"""Unit-ball geometry: norms, normals, tangent data, dual functionals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from schwarz_lab import (
    BadParams,
    BoundaryPoint,
    HypothesisFailed,
    NotOnBoundary,
    ZeroVector,
    as_exponent,
    cinner,
    conjugate_exponent,
    cvector,
    norm_p,
    norming_functional,
    pluriharmonic_V,
    realify,
    rigidity_v,
    schwarz_v,
)
from schwarz_lab.geometry import (
    _NORMAL_MIN,
    _lp_last_axis,
    _reduce_last_axis,
    duality_map,
    l2_norm_rows,
    lp_norm,
)
from schwarz_lab.rng import stream

from helpers import normal_tangent_decompose


def _boundary(z, p, tol=1e-9):
    return BoundaryPoint(np.asarray(z, dtype=complex), as_exponent(p), tol)


# ---------------------------------------------------------------------------
# norms / realification
# ---------------------------------------------------------------------------


def test_norm_frozen_values():
    assert norm_p([1.0, 1.0], 3) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-15)
    assert norm_p([3.0, 4.0], 2) == pytest.approx(5.0, abs=1e-12)
    assert norm_p([1j, -2.0, 0.5], "inf") == pytest.approx(2.0, abs=0)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                                5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(a=arrays(np.float64, st.one_of(array_shapes(min_dims=1, max_dims=1, max_side=12),
                                      st.tuples(st.integers(1, 300), st.integers(1, 12))),
                elements=st.one_of(_EDGE_FLOATS, st.floats(width=64))))
def test_short_row_reductions_of_moduli_equal_numpy_bit_for_bit(a):
    # moduli, as lp norms reduce them: numpy's reductions may set the sign of
    # a zero or a NaN differently from a column-by-column pass
    a = np.abs(a)
    with np.errstate(all="ignore"):
        for ufunc in (np.add, np.maximum):
            got, want = _reduce_last_axis(ufunc, a), ufunc.reduce(a, axis=-1)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_exponent_validation():
    for bad in (1.0, 0.5, "1", math.nan, "nan", -math.inf, "1e400", "+inf", "abc", "", None):
        with pytest.raises(BadParams):
            as_exponent(bad)
    for spelling in ("inf", "Infinity", "OO", math.inf):
        assert as_exponent(spelling) == math.inf
    assert type(as_exponent(3)) is float and as_exponent("3.5") == 3.5
    assert conjugate_exponent(3.0) == 1.5
    assert conjugate_exponent(math.inf) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    t_re=st.floats(-3, 3, allow_nan=False),
    t_im=st.floats(-3, 3, allow_nan=False),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0, math.inf]),
    seed=st.integers(0, 10_000),
)
def test_norm_homogeneity(t_re, t_im, p, seed):
    gen = stream(seed, "homog")
    z = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    t = complex(t_re, t_im)
    assert norm_p(t * z, p) == pytest.approx(abs(t) * norm_p(z, p), abs=1e-10, rel=1e-10)


def test_realify_roundtrip_and_isometry():
    z = np.array([1j, 0.0], dtype=complex)
    assert np.array_equal(realify(z), np.array([0.0, 0.0, 1.0, 0.0]))
    gen = stream(7, "realify")
    w = gen.standard_normal(5) + 1j * gen.standard_normal(5)
    x = realify(w)
    assert np.array_equal(x[:5] + 1j * x[5:], w)
    assert np.linalg.norm(realify(w)) == pytest.approx(norm_p(w, 2), abs=1e-13)


# ---------------------------------------------------------------------------
# defining function and gradient
# ---------------------------------------------------------------------------


def _rho(z, p):
    return lp_norm(z, p) ** p - 1.0


def test_rho_and_gradient_frozen_values():
    # grad rho = p * duality_map(z, p), p times the boundary normal
    assert _rho(np.array([0.5, 0.5]), 2) == pytest.approx(-0.5, abs=1e-15)
    assert np.array_equal(4 * _boundary([1.0, 0.0], 4).normal, [4.0, 0.0])
    # below p = 2 the gradient's modulus p |z_j|^(p-1) tends to 0 at a zero coordinate
    assert np.array_equal(1.5 * _boundary([1.0, 0.0], 1.5).normal, [1.5, 0.0])


def test_gradient_is_outward_normal():
    gen = stream(3, "normal")
    for p in (2.0, 3.0, 4.0, 1.5):
        z = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        z /= norm_p(z, p)
        g = p * duality_map(z, p)
        # moving outward along the normal increases rho
        eps = 1e-6
        ahead = _rho(z + eps * g, p)
        behind = _rho(z - eps * g, p)
        assert ahead > 0 > behind


# ---------------------------------------------------------------------------
# boundary points and the v-vectors
# ---------------------------------------------------------------------------


def test_boundary_point_rejects_interior():
    with pytest.raises(NotOnBoundary):
        _boundary([0.5, 0.5], 2)
    bp = _boundary([1.0, 0.0], 2)
    assert bp.dim == 2


def test_schwarz_v_frozen_p4():
    r = 2.0 ** (-0.25)
    bp = _boundary([r, r], 4)
    v = schwarz_v(bp)
    assert np.allclose(v, [2.0 ** (-0.75), 2.0 ** (-0.75)], atol=1e-12)
    # normalization <z, v> = ||z||_p^p = 1 on the sphere
    assert cinner(bp.point, v).real == pytest.approx(1.0, abs=1e-12)


def test_schwarz_v_polydisk_cases():
    bp = _boundary([1.0, 1.0, 1.0], "inf")
    assert np.allclose(schwarz_v(bp), np.full(3, 1.0 / 3.0), atol=0)
    off_torus = _boundary([1.0, 0.0], "inf")  # on the sphere, off the torus
    with pytest.raises(NotOnBoundary):
        schwarz_v(off_torus)


def test_boundary_normal_is_kept_but_its_error_is_raised_again():
    bp = _boundary([0.6, 0.8j], 2)
    assert bp.normal is bp.normal and np.array_equal(bp.normal, schwarz_v(bp))
    assert not bp.normal.flags.writeable and not bp.tangent_probes.flags.writeable
    off_torus = _boundary([1.0, 0.0], "inf")
    messages = []
    for _ in range(2):
        with pytest.raises(NotOnBoundary) as err:
            off_torus.normal
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "normal" not in vars(off_torus)


def test_rigidity_v_frozen_p3():
    r = 2.0 ** (-1.0 / 3.0)
    bp = _boundary([r, r], 3)
    v = rigidity_v(bp)
    assert np.allclose(v, [2.0 ** (-2.0 / 3.0)] * 2, atol=1e-12)
    q = conjugate_exponent(3.0)
    assert lp_norm(v, q) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BadParams):
        rigidity_v(_boundary([1.0, 1.0], "inf"))


def test_rigidity_v_dual_norm_random():
    gen = stream(11, "rig-v")
    for p in (1.5, 2.0, 3.0, 7.0):
        z = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        z /= norm_p(z, p)
        v = rigidity_v(_boundary(z, p))
        assert np.all(np.abs(v.imag) == 0)
        assert np.all(v.real >= 0)
        assert lp_norm(v, p / (p - 1.0)) == pytest.approx(1.0, abs=1e-10)


def test_pluriharmonic_V_cases():
    # polydisk, N = 1, w0 = 1: realification (1, 0), V = (1, 0)/2
    V = pluriharmonic_V(_boundary([1.0], "inf"))
    assert np.allclose(V, [0.5, 0.0], atol=0)
    # p = 2: realification is an isometry, so V is just w0'
    gen = stream(5, "phV")
    w = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    w /= norm_p(w, 2)
    assert np.allclose(pluriharmonic_V(_boundary(w, 2)), realify(w), atol=1e-12)
    # p = 4 with a phase: the realification misses the real l4 sphere
    w0 = np.array([np.exp(1j * np.pi / 4)])
    assert lp_norm(realify(w0), 4.0) == pytest.approx(2.0 ** (-0.25), abs=1e-12)
    with pytest.raises(HypothesisFailed):
        pluriharmonic_V(_boundary(w0, 4))
    # p = 4 without a phase is fine
    V4 = pluriharmonic_V(_boundary([1.0 + 0.0j], 4))
    assert np.allclose(V4, [1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# tangent spaces
# ---------------------------------------------------------------------------


def test_normal_tangent_decompose():
    gen = stream(13, "decomp")
    for p in (2.0, 3.0, 4.0):
        z = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        z /= norm_p(z, p)
        bp = _boundary(z, p)
        v = schwarz_v(bp)
        u = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        lam, beta = normal_tangent_decompose(u, bp)
        assert np.allclose(lam * v + beta, u, atol=1e-13)
        assert abs(cinner(beta, v).real) < 1e-12


def test_tangent_probes_span_the_real_tangent_space():
    # realified, the probes have rank 2n - 1, and Re<u, normal> = 0 for each
    cases = [(z, p) for p in (1.5, 2.0, 3.0, 4.0)
             for z in ([0.6, 0.8j], [1.0, 0.0], [0.5, 0.0, -0.7 + 0.2j])]
    cases.append(([1.0, 1j, np.exp(0.3j)], "inf"))
    for z, p in cases:
        z = np.asarray(z, dtype=complex)
        bp = _boundary(z / norm_p(z, p), p)
        probes = bp.tangent_probes
        assert np.linalg.matrix_rank(np.hstack([probes.real, probes.imag])) == 2 * bp.dim - 1
        assert np.max(np.abs((probes * np.conj(bp.normal)).sum(axis=1).real)) < 1e-12


# ---------------------------------------------------------------------------
# duality map and norming functional
# ---------------------------------------------------------------------------


_entries = st.tuples(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=200, deadline=None)
@given(p=st.floats(1.0, 64.0, exclude_min=True), entries=st.lists(_entries, min_size=1, max_size=6))
def test_duality_map_pairs_to_the_norm_and_has_the_dual_norm(p, entries):
    x = np.array([r * np.exp(1j * t) for r, t in entries])
    jx = duality_map(x, p)
    assert np.all(jx[x == 0.0] == 0.0)
    nx = lp_norm(x, p)
    # Re<J_p(x), x> = ||x||_p^p and ||J_p(x)||_q = ||x||_p^(p-1), 1/p + 1/q = 1
    assert cinner(jx, x).real == pytest.approx(nx**p, rel=1e-12, abs=0.0)
    assert lp_norm(jx, p / (p - 1.0)) == pytest.approx(nx ** (p - 1.0), rel=1e-12, abs=0.0)
    assert np.array_equal(duality_map(x, 2), x)


def test_norming_functional_frozen_p3():
    x = np.array([1.0, 1.0], dtype=complex)
    c = norming_functional(x, 3)
    assert np.allclose(c, [2.0 ** (-2.0 / 3.0)] * 2, atol=1e-12)
    val = np.sum(c * x)
    assert val.real == pytest.approx(norm_p(x, 3), abs=1e-12)
    assert abs(val.imag) < 1e-14


def test_norming_functional_zero_coordinate_and_inf():
    c = norming_functional(np.array([0.0, 2.0j]), 3)
    assert c[0] == 0
    cinf = norming_functional(np.array([0.5, -2.0j, 1.0]), "inf")
    assert np.allclose(cinf, [0.0, 1j, 0.0], atol=1e-14)
    assert lp_norm(cinf, 1.0) == pytest.approx(1.0, abs=0)
    with pytest.raises(ZeroVector):
        norming_functional(np.zeros(2), 2)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([1.5, 2.0, 3.0, 5.0, math.inf]), seed=st.integers(0, 10_000))
def test_norming_functional_is_holder_tight(p, seed):
    gen = stream(seed, "norming")
    x = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    y = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    c = norming_functional(x, p)
    # attains the norm at x ...
    attained = np.sum(c * x)
    assert attained.real == pytest.approx(norm_p(x, p), rel=1e-10, abs=1e-10)
    # ... and never exceeds the norm elsewhere
    assert abs(np.sum(c * y)) <= norm_p(y, p) * (1 + 1e-10) + 1e-12


def test_cvector_contract():
    z = cvector([1, 2j, 3.5])
    assert z.dtype == complex and z.shape == (3,)
    assert cvector([[1.0, 2.0]]).shape == (2,)
    for bad in ([], np.zeros((0, 2)), [1.0, math.nan], [math.inf], [1j * -math.inf]):
        with pytest.raises(BadParams):
            cvector(bad)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
def test_lp_norm_shapes(q):
    batch = stream(5, "lp-norm-shapes").standard_normal((4, 3)) * [1.0, -2.0, 0.5]
    assert type(lp_norm(batch[0], q)) is float
    assert type(lp_norm(np.array(-2.5), q)) is float and lp_norm(np.array(-2.5), q) == 2.5
    assert type(lp_norm(list(batch[1]), q)) is float
    rows = lp_norm(batch, q)
    assert rows.shape == (4,)
    assert [float(r).hex() for r in rows] == [lp_norm(x, q).hex() for x in batch]


def test_norm_p_takes_an_exponent_or_a_value():
    z = np.array([0.3 + 0.4j, -0.7, 0.1j])
    assert norm_p(z, as_exponent(3)).hex() == norm_p(z, 3).hex() == norm_p(list(z), "3").hex()
    assert norm_p(z, "inf").hex() == norm_p(z, math.inf).hex() == (0.7).hex()
    with pytest.raises(BadParams):
        norm_p(z, 1)


@pytest.mark.parametrize("q", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_row_norms_match_one_vector_norms_bit_for_bit(q):
    # Each row of a 2-D batch equals the same vector passed alone, bit for bit.
    gen = stream(12, "row-norms", str(q))
    # Entry scales: ordinary, near the ends of the float range (where the
    # q-th powers overflow or underflow), and one whose power sums are
    # subnormal.
    subnormal = 1e-310 ** (1.0 / q) if math.isfinite(q) else 1e-310
    for scale in (1.0, 1e-300, 1e300, subnormal):
        for n in (1, 2, 3, 5):
            for count in (1, 2, 7, 200, 400):
                x = scale * gen.standard_normal((count, n))
                x[gen.uniform(size=count) < 0.1] = 0.0
                for rows in (x, x + 1j * scale * gen.standard_normal((count, n))):
                    with np.errstate(over="ignore", under="ignore"):
                        want = np.array([lp_norm(r, q) for r in rows])
                        assert lp_norm(rows, q).tobytes() == want.tobytes()
                        want = np.array([np.linalg.norm(r) for r in rows])
                        assert l2_norm_rows(rows).tobytes() == want.tobytes()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the branch a row takes depends on the floating-point flags its whole batch "
    "raises: beside a row whose power sum underflows, a row with an exact subnormal "
    "power sum takes the rescaled branch, one ulp away from its plain root"))
def test_a_row_norm_does_not_depend_on_the_rest_of_its_batch():
    row = 2.0 ** -530 * np.array([7.0, 4.0, 5.0])
    alone = lp_norm(row[None, :], 2.0)[0]
    assert alone.hex() == "0x1.2f9422c23c47ep-527"
    assert lp_norm(np.array([row, [1e-200, 0.0, 0.0]]), 2.0)[0].hex() == alone.hex()


def _row_operands(gen, shape, entries, layout):
    """A standard normal array of `shape` with row scales from 1e-5 to 1e5: real or
    complex, contiguous, or a strided view (the .real of a complex array, or
    every other column of a complex one)."""
    x = gen.standard_normal((2, *shape[:-1], 2 * shape[-1]))
    x = (x[0] + 1j * x[1]) * 10.0 ** gen.uniform(-5, 5, (*shape[:-1], 1))
    if entries == "real":
        return x[..., :shape[-1]].real if layout == "strided" else x[..., :shape[-1]].real.copy()
    return x[..., ::2] if layout == "strided" else x[..., :shape[-1]].copy()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 64), m=st.integers(1, 6), rows=st.integers(1, 9),
       entries=st.sampled_from(["real", "complex"]),
       layout=st.sampled_from(["contiguous", "strided"]), stacked=st.booleans(),
       transposed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_vecdot_and_matvec_rows_equal_one_point_products_bit_for_bit(
        n, m, rows, entries, layout, stacked, transposed, seed):
    # The premise of every per-row product in the package (l2_norm_rows, the
    # Harnack pairing, the tangent residual, the power method, the rigidity
    # slices): each row of np.vecdot and np.matvec is the one-point @.
    gen = stream(seed, "row-products", n)
    lead = (3, rows) if stacked else (rows,)
    A, B = (_row_operands(gen, (*lead, n), entries, layout) for _ in range(2))
    # np.vecdot conjugates its first argument; conj is exact
    out = np.vecdot(np.conj(A), B)
    assert all(out[i] == A[i] @ B[i] for i in np.ndindex(lead))
    # a stack of matrices, one per vector, or one matrix for every vector.  A
    # matrix with no unit stride takes another loop in np.matvec than in @, so
    # the package passes C-ordered or transposed matrices only
    mats = (3, m) if stacked else (m,)
    if transposed:  # the power method's conj(J).T
        M = np.conj(np.swapaxes(_row_operands(gen, (*mats[:-1], n, m), entries, "contiguous"),
                                -1, -2))
    else:
        M = _row_operands(gen, (*mats, n), entries, "contiguous")
    X = _row_operands(gen, (3, n) if stacked else (rows, n), entries, layout)
    out = np.matvec(M, X)
    for i in range(len(X)):
        assert out[i].tobytes() == ((M[i] if stacked else M) @ X[i]).tobytes()


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, math.inf]), seed=st.integers(0, 10_000),
       order=st.permutations(range(5)), n=st.integers(1, 5))
def test_lp_norm_invariant_under_permutations_and_unimodular_factors(q, seed, order, n):
    gen = stream(seed, "lp-invariance", n)
    x = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    phases = np.exp(2j * np.pi * gen.uniform(0.0, 1.0, n))
    perm = [i for i in order if i < n]
    base = lp_norm(x, q)
    for y in (x[perm], phases * x, phases * x[perm]):
        assert abs(lp_norm(y, q) - base) <= 1e-12 * base


@pytest.mark.parametrize("x, q, want", [([1e200, 0.0], 3.0, 1e200),
                                        ([1e-200, 0.0], 3.0, 1e-200),
                                        ([1e308, 1e308], 1.5, 1e308 * 2.0 ** (1 / 1.5))])
def test_norms_survive_power_sums_past_the_float_range(x, q, want):
    # The q-th powers overflow or underflow; the norm itself is in range.
    assert norm_p(x, q) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert lp_norm(np.array([x, x]), q) == pytest.approx([want, want], rel=1e-12, abs=0.0)


_DECADES = (-320, -300, -200, -105, 0, 105, 200, 300, 307)


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 100.0]), seed=st.integers(0, 10_000),
       count=st.integers(1, 8), n=st.integers(1, 5))
def test_norms_keep_their_bits_unless_the_power_sum_leaves_the_normal_floats(q, seed,
                                                                              count, n):
    gen = stream(seed, "lp-range", q, count, n)
    scale = 10.0 ** gen.choice(_DECADES, size=(count, 1))
    x = scale * (gen.uniform(-1.0, 1.0, (count, n)) + 1j * gen.uniform(-1.0, 1.0, (count, n)))
    x[gen.uniform(size=(count, n)) < 0.2] = 0.0
    mags = np.abs(x)
    with np.errstate(over="ignore", under="ignore"):  # the plain formulas
        sums = (mags**q).sum(axis=-1)
        plain_rows = np.float_power(sums, 1.0 / q)
    top = mags.max(axis=-1)
    kept = ((sums >= np.finfo(float).tiny) & (sums < math.inf)) | (top == 0.0)
    rows = lp_norm(x, q)
    assert rows[kept].tobytes() == plain_rows[kept].tobytes()
    for i in np.flatnonzero(~kept):
        want = top[i] * math.fsum((m / top[i]) ** q for m in mags[i].tolist()) ** (1.0 / q)
        assert rows[i] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert lp_norm(x[i], q) == rows[i]


def _ref_lp_last_axis(mags, q):
    """The finite-q kernel with no q = 1 shortcut: it always takes the power
    and the root."""
    try:
        with np.errstate(over="raise", under="raise"):
            return np.float_power(_reduce_last_axis(np.add, mags**q), 1.0 / q)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        s = _reduce_last_axis(np.add, mags**q)
        top = _reduce_last_axis(np.maximum, mags)
        scaled = _reduce_last_axis(np.add, (mags / top[..., None]) ** q)
        rescaled = top * np.float_power(scaled, 1.0 / q)
        lost = ((s == math.inf) | (s < _NORMAL_MIN)) & np.isfinite(top) & (top > 0.0)
        return np.where(lost, rescaled, np.float_power(s, 1.0 / q))


# A subnormal row whose rescaled norm is not its plain sum: libm's root of 1.0
# flags underflow on it, so the kernel must still take the rescaled branch.
_SUBNORMAL_ROW = [4.07200983968544e-309, 9.367397670734625e-309, 7.99617138651234e-309]


@pytest.mark.parametrize("rows", [[[1e308, 1e308]], [[1e308, 1e308], [1.0, 2.0]],
                                  [_SUBNORMAL_ROW], [_SUBNORMAL_ROW, [1.0, 2.0, 3.0]],
                                  [[5e-324, 1e-323]], [[0.0, 0.0], [1.0, 0.5]],
                                  [[math.inf, 1.0], [math.nan, 1.0]], _SUBNORMAL_ROW])
def test_q1_norm_equals_the_kernel_with_power_and_root(rows):
    mags = np.array(rows)
    got, want = _lp_last_axis(mags, 1.0), _ref_lp_last_axis(mags, 1.0)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=150, deadline=None)
@example(count=200, n=3, seed=0, decade=-309)
@given(count=st.integers(1, 200), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       decade=st.sampled_from([-323, -320, -310, -309, -308, -300, 0, 300, 307, 308]))
def test_q1_norms_equal_the_kernel_with_power_and_root_bit_for_bit(count, n, seed, decade):
    # Moduli around 10**decade, with zero rows: subnormal power sums, sums
    # that overflow, and ordinary ones, alone or mixed in one batch.
    gen = stream(seed, "q1-kernel", count, n)
    with np.errstate(over="ignore", under="ignore"):
        mags = np.abs(gen.standard_normal((count, n))) * 10.0 ** gen.choice([decade, 0], (count, 1))
    mags[gen.uniform(size=count) < 0.1] = 0.0
    for rows in (mags, mags[0]):
        got, want = _lp_last_axis(rows, 1.0), _ref_lp_last_axis(rows, 1.0)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
