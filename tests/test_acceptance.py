"""Acceptance suite: ten desk-scale criteria, one pass/fail line each.

Every criterion prints `criterion NN: PASS/FAIL - detail` and asserts, so a
verbose pytest run shows one line per criterion and the printed detail
carries the measured extremes.
"""

import json
import math
import pathlib

import numpy as np

import schwarz_lab as sl
from schwarz_lab.rng import stream

from helpers import ball_self_map_instances, pluriharmonic_boundary_instances

SUITE_FILE = pathlib.Path(__file__).resolve().parent.parent / "suites" / "paper.json"


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_schwarz_pick_norm_decrease():
    worst = math.inf
    count = 0
    for p in (2, 3, 4, "inf"):
        for n in (1, 2, 3, 5):
            for name, f in ball_self_map_instances(p, n):
                v = sl.verify_schwarz_pick(f, p, sl.CheckConfig(samples=10_000, seed=count))
                worst = min(worst, v.margin)
                count += 1
                assert v.passed, (name, p, n, v.margin)
    _line(1, worst >= -1e-10, f"min margin {worst:.3e} over {count} verdicts")


def test_criterion_02_zhu_kalaj_sharpness():
    a_vals = (0.0, 0.2, 0.4, 0.6, 0.8)
    fracs = (0.0, 0.25, 0.5, 0.75, 1.0)
    b = np.array([0.6, 0.8], dtype=complex)
    worst = 0.0
    for a in a_vals:
        for frac in fracs:
            d = frac * (1.0 - a * a)
            vz = sl.verify_zhu(sl.gallery("zhu_extremal", {"a": a, "d": d}))
            vk = sl.verify_kalaj(
                sl.gallery("kalaj_extremal", {"b": b, "a": a, "d": d, "p": 2}), 2)
            worst = max(worst, abs(vz.margin), abs(vk.margin))
            assert all(h.ok for h in vz.hypotheses), (a, d)
            assert all(h.ok for h in vk.hypotheses), (a, d)
    _line(2, worst <= 1e-7, f"max |margin| {worst:.3e} on the 5x5 grid")


def test_criterion_03_boundary_eigenvalue_certificates():
    n = 3
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    square = sl.MapTuple((sl.Power(2, sl.Coordinate(0, n)),
                          sl.Constant(0.0, n), sl.Constant(0.0, n)))
    worst_lambda = 0.0
    worst_aux = 0.0
    worst_slope = 0.0
    for p in (2, 3, 4):
        z0 = sl.BoundaryPoint(e1, p)
        for f, lam_true in ((sl.identity_map(n), 1.0), (square, 2.0)):
            v = sl.verify_lp_boundary_schwarz(f, z0)
            assert v.passed, (p, lam_true, v.quantities)
            worst_lambda = max(worst_lambda, abs(v.quantities["lambda"] - lam_true))
            worst_aux = max(worst_aux, v.quantities["imag_residual"],
                            v.quantities["proportionality_residual"])
            worst_slope = max(worst_slope, v.quantities["slope_rel_error"])
            assert v.quantities["tangent_residual"] <= 1e-7
    ok = worst_lambda <= 1e-8 and worst_aux <= 1e-8 and worst_slope <= 0.02
    _line(3, ok, f"lambda error {worst_lambda:.3e}, residuals {worst_aux:.3e}, "
          f"slope error {worst_slope:.3e}")


def _fixed_point_instance(i: int):
    n = 2 + (i % 2)
    k = 1 + (i % 3)
    gen = stream(i, "lw-acceptance", n)
    V = np.eye(n, dtype=complex)
    V[1:, 1:] = sl.haar_unitary(n - 1, gen)
    diag = sl.gallery("diag_power", {"ks": [k] + [1] * (n - 1)})
    f = sl.Compose(sl.LinearMatrix(V),
                   sl.Compose(diag, sl.LinearMatrix(np.conj(V).T)))
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    return f, e1, float(k)


def test_criterion_04_round_ball_lambda_consistency():
    worst_gap = 0.0
    worst_det = math.inf
    for i in range(10):
        f, e1, k = _fixed_point_instance(i)
        z0 = sl.BoundaryPoint(e1, 2)
        va = sl.verify_lp_boundary_schwarz(f, z0)
        vb = sl.verify_liu_wang(f, z0)
        assert va.passed and vb.passed, (i, va.quantities, vb.quantities)
        worst_gap = max(worst_gap,
                        abs(va.quantities["lambda"] - vb.quantities["lambda"]))
        worst_det = min(worst_det,
                        vb.quantities["det_cap"] - vb.quantities["det_abs"])
    ok = worst_gap <= 1e-9 and worst_det >= -1e-9
    _line(4, ok, f"max lambda gap {worst_gap:.3e}, min det slack {worst_det:.3e} "
          "over 10 instances")


def test_criterion_05_polydisk_counterexample():
    v = sl.counterexample_polydisk_eigen(3)
    gap = abs(v.quantities["residual"] - math.sqrt(6.0) / 3.0)
    _line(5, v.passed and gap <= 1e-9,
          f"eigen residual off sqrt(6)/3 by {gap:.3e}")


def test_criterion_06_pluriharmonic_chain():
    worst = math.inf
    for name, f, z0 in pluriharmonic_boundary_instances(20, seed=5):
        v = sl.verify_pluriharmonic_boundary(f, sl.BoundaryPoint(z0, 2))
        assert v.passed, (name, v.quantities)
        assert v.quantities["low"] > 0.0, name
        harnack_ok = [h for h in v.hypotheses if h.name == "harnack"][0].ok
        assert harnack_ok, name
        worst = min(worst, v.quantities["margin_lhs_mid"],
                    v.quantities["margin_mid_low"])
    _line(6, worst >= -1e-7, f"min chain margin {worst:.3e} over 20 maps")


def test_criterion_07_caratheodory_attainment():
    budget = sl.CheckConfig(starts=10, iters=120, seed=0)
    worst = 0.0
    unsound = 0.0
    for p in (2, 3, "inf"):
        for n in (1, 2, 3, 5):
            gen = stream(0, "cara-acceptance", n, str(p))
            for _ in range(10):
                xi = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / 2.0
                want = sl.metric_origin_closed(xi, p)
                out = sl.metric_lower_bound_opt(np.zeros(n, dtype=complex), xi, p,
                                                "linear_dual", budget)
                worst = max(worst, want - out.value)
                unsound = max(unsound, out.value - want)
    dist = sl.distance_lower_bound_opt([0.5], [0.0], 2, cfg=budget)
    dist_gap = abs(dist.value - 0.5 * math.log(3.0))
    ok = worst <= 1e-3 and unsound <= 1e-9 and dist_gap <= 1e-9
    _line(7, ok, f"max attainment gap {worst:.3e}, max overshoot {unsound:.3e}, "
          f"half-log-3 error {dist_gap:.3e}")


def _basis_anchors(n: int, p):
    eye = np.eye(n, dtype=complex)
    return tuple(sl.BoundaryPoint(eye[k], p) for k in range(n))


def _dft_anchors(n: int):
    F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return tuple(sl.BoundaryPoint(F[k], "inf", tolerance=1e-9) for k in range(n))


def test_criterion_08_rigidity_suite():
    n = 3
    ident = sl.identity_map(n)
    # distinguished-boundary variants take torus anchors; rows of the DFT
    # matrix stand in for the basis there
    cases = [("p2", 2, _basis_anchors(n, 2)),
             ("polydisk", "inf", _dft_anchors(n)),
             ("schwarz_v", 2, _basis_anchors(n, 2)),
             ("schwarz_v", 4, _basis_anchors(n, 4)),
             ("schwarz_v", "inf", _dft_anchors(n)),
             ("rigidity_v", 1.5, _basis_anchors(n, 1.5)),
             ("rigidity_v", 2, _basis_anchors(n, 2)),
             ("rigidity_v", 3, _basis_anchors(n, 3))]
    for variant, p, anchors in cases:
        rep = sl.check_rigidity(sl.RigidityInstance(ident, anchors, p, variant))
        assert rep.verdict == "certified", (variant, p, rep.reason)
        target = float(n) if variant == "polydisk" else 1.0
        assert all(abs(v - target) <= 1e-8 for v in rep.equation_values)

    partial = sl.check_rigidity(sl.RigidityInstance(
        sl.gallery("first_times_last", {"n": n}),
        _basis_anchors(n, 3)[1:], 3, "schwarz_v"))
    withheld = (partial.verdict == "hypotheses_fail"
                and all(abs(v - 1.0) <= 1e-8 for v in partial.equation_values)
                and partial.quantities["identity_residual"] >= 0.1)
    assert withheld, (partial.verdict, partial.reason, partial.quantities)

    eye = np.eye(2, dtype=complex)
    negated = sl.check_rigidity(sl.RigidityInstance(
        sl.identity_map(2),
        tuple(sl.BoundaryPoint(-eye[k], 2) for k in range(2)), 2, "rigidity_v"))
    miss = (negated.verdict == "equations_fail"
            and all(abs(v + 1.0) <= 1e-8 for v in negated.equation_values))
    assert miss, (negated.verdict, negated.equation_values)
    _line(8, True, f"{len(cases)} certificates, withheld on rank "
          f"{partial.quantities['rank']:.0f}/{n}, negated anchors rejected")


def _gallery_instances():
    specs = {
        "identity": {"n": 2},
        "scaled_identity": {"n": 2, "t": 0.6},
        "square_first": {"n": 2},
        "first_times_last": {"n": 3},
        "diag_power": {"ks": [2, 1]},
        "unitary": {"matrix": sl.haar_unitary(2, stream(3, "acc-unitary"))},
        "moebius_fix1": {"a": 0.3},
        "zhu_extremal": {"a": 0.2, "d": 0.3},
        "kalaj_extremal": {"b": [0.6, 0.8], "a": 0.3, "d": 0.2, "p": 2},
        "moebius_tuple": {"m": 2, "a": [0.2, -0.1]},
        "product_projection": {"n": 1, "m": 2},
        "product_moebius": {"n": 1, "m": 2, "a": [0.2, 0.1]},
        "product_mixed": {"n": 1, "m": 2},
        "conjugate": {"n": 2},
        "ph_linear_blend": {"n": 2, "mix": 0.3},
        "ph_blend": {"n": 2, "mix": 0.5, "shift_holo": 0.2, "shift_anti": 0.1},
    }
    missing = set(sl.gallery_names()) - set(specs)
    assert not missing, f"gallery entries without acceptance coverage: {missing}"
    return [(name, sl.gallery(name, params)) for name, params in specs.items()]


def test_criterion_09_differentiation_cross_checks():
    worst = 0.0
    for name, f in _gallery_instances():
        gen = stream(9, "acc-jacobian", name)
        dim = f.input_dim
        pts = 0.6 * (gen.uniform(-1, 1, (100, dim)) + 1j * gen.uniform(-1, 1, (100, dim))) / math.sqrt(2)
        for z in pts:
            exact = sl.complex_jacobian(f, z)
            rf = sl.complex_jacobian_fd(f, z)
            worst = max(worst, float(np.max(np.abs(exact - rf))))

    worst_chain = 0.0
    parts = [sl.gallery("scaled_identity", {"n": 2, "t": 0.6}),
             sl.gallery("square_first", {"n": 2}),
             sl.gallery("first_times_last", {"n": 2}),
             sl.gallery("diag_power", {"ks": [2, 1]}),
             sl.gallery("unitary", {"matrix": sl.haar_unitary(2, stream(4, "acc-u2"))})]
    gen = stream(9, "acc-chain")
    for _ in range(50):
        f = parts[int(gen.integers(len(parts)))]
        g = parts[int(gen.integers(len(parts)))]
        z = 0.4 * (gen.uniform(-1, 1, 2) + 1j * gen.uniform(-1, 1, 2))
        composed = sl.complex_jacobian(sl.Compose(g, f), z)
        product = sl.complex_jacobian(g, sl.evaluate(f, z)) @ sl.complex_jacobian(f, z)
        worst_chain = max(worst_chain, float(np.max(np.abs(composed - product))))
    ok = worst <= 1e-8 and worst_chain <= 1e-8
    _line(9, ok, f"max exact-vs-difference gap {worst:.3e}, "
          f"max chain-rule residual {worst_chain:.3e}")


def test_criterion_10_shipped_suite_deterministic():
    raw = SUITE_FILE.read_bytes()
    first = sl.emit_report(sl.run_suite(sl.parse_suite(raw)), "jsonl")
    second = sl.emit_report(sl.run_suite(sl.parse_suite(raw)), "jsonl")
    rows = [json.loads(line) for line in first.decode().splitlines()]
    all_pass = all(r["passed"] for r in rows) and len(rows) > 0
    _line(10, first == second and all_pass,
          f"{len(rows)} jobs, reruns byte-identical: {first == second}")
