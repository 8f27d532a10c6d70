"""Closed forms at the origin against the optimizer oracle."""

import json
import math
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_lab import caratheodory, hyperbolic_distance, norm_p
from schwarz_lab.caratheodory import (
    FAMILY_KINDS,
    CompetitorFamily,
    MetricQuery,
    OptBudget,
    OptResult,
    _coefficients,
    _coordinate_ascent,
    competitor_map,
    competitor_membership_max,
    distance_lower_bound_opt,
    distance_origin_closed,
    metric_lower_bound_opt,
    metric_origin_closed,
)
from schwarz_lab.errors import BadParams, OutsideBall
from schwarz_lab.geometry import as_exponent, cvector, lp_norm_value
from schwarz_lab.maps import evaluate
from schwarz_lab.rng import stream
from schwarz_lab.suite import parse_suite, run_suite

SUITE_DIR = pathlib.Path(__file__).resolve().parent.parent / "suites"
FAST = OptBudget(starts=6, iters=80, seed=0)


def test_closed_forms_frozen():
    assert metric_origin_closed([0.5, 0.0], 2) == 0.5
    assert metric_origin_closed([0.0, 0.0], 3) == 0.0
    assert distance_origin_closed([0.5], 2) == pytest.approx(0.5 * math.log(3.0),
                                                             abs=1e-15)
    with pytest.raises(OutsideBall):
        distance_origin_closed([1.0], 2)


def test_distance_matches_disk_formula_n1():
    gen = stream(3, "disk-dist")
    for _ in range(20):
        z = complex(*gen.uniform(-0.6, 0.6, 2))
        got = distance_origin_closed([z], 2)
        want = hyperbolic_distance(0.0, z)
        assert got == pytest.approx(want, abs=1e-14)


def test_metric_homogeneity():
    gen = stream(4, "homog")
    xi = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    for t in (-2.0, 0.25, 1.5):
        assert metric_origin_closed(t * xi, 3) == pytest.approx(
            abs(t) * metric_origin_closed(xi, 3), rel=1e-12)


def test_linear_dual_attains_basis_direction():
    q = MetricQuery(np.zeros(2), np.array([1.0, 0.0]), 2)
    out = metric_lower_bound_opt(q, CompetitorFamily("linear_dual"), FAST)
    assert out.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("p", [2, 3, "inf"])
def test_optimizer_attains_closed_form(p):
    gen = stream(5, "attain", str(p))
    for n in (1, 3):
        xi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        xi /= max(1.0, float(norm_p(xi, p)))
        q = MetricQuery(np.zeros(n), xi, p)
        out = metric_lower_bound_opt(q, CompetitorFamily("linear_dual"), FAST)
        want = metric_origin_closed(xi, p)
        assert abs(out.value - want) <= 1e-3, (p, n, out.value, want)
        # soundness: never exceeds the closed form
        assert out.value <= want + 1e-9


def test_optimizer_soundness_membership():
    q = MetricQuery(np.zeros(2), np.array([0.3, 0.4j]), 3)
    out = metric_lower_bound_opt(q, CompetitorFamily("linear_dual"), FAST)
    worst = competitor_membership_max(CompetitorFamily("linear_dual"), out.params,
                                      np.zeros(2), 3)
    assert worst < 1.0


def test_competitor_map_vanishes_at_base():
    base = np.array([0.3, -0.2j])
    theta = np.array([0.5, -1.0, 0.25, 2.0])
    f = competitor_map(CompetitorFamily("linear_moebius"), theta, base, 2)
    assert abs(evaluate(f, base)[0]) <= 1e-14


def test_distance_optimizer_reaches_closed_form():
    out = distance_lower_bound_opt(np.zeros(1), np.array([0.5 + 0j]), 2,
                                   budget=FAST)
    assert abs(out.value - 0.5 * math.log(3.0)) <= 1e-3
    assert out.value <= 0.5 * math.log(3.0) + 1e-9


def test_distance_optimizer_symmetry_sampled():
    z = np.array([0.2 + 0.1j, -0.3])
    w = np.array([-0.1, 0.25j])
    a = distance_lower_bound_opt(z, w, 2, budget=FAST).value
    b = distance_lower_bound_opt(w, z, 2, budget=FAST).value
    assert abs(a - b) <= 2e-3
    assert distance_lower_bound_opt(z, z, 2, budget=FAST).value == pytest.approx(
        0.0, abs=1e-9)


def test_family_and_query_validation():
    with pytest.raises(BadParams):
        CompetitorFamily("spline")
    with pytest.raises(OutsideBall):
        MetricQuery(np.array([1.2, 0.0]), np.array([1.0, 0.0]), 2)
    q = MetricQuery(np.array([0.5, 0.0]), np.array([1.0, 0.0]), 2)
    with pytest.raises(BadParams):
        metric_lower_bound_opt(q, CompetitorFamily("linear_dual"), FAST)


def test_moebius_family_off_origin_bound():
    # base away from 0: optimizer still returns a sound lower bound,
    # which at p=2 equals the known automorphism-invariant value
    base = np.array([0.5 + 0j])
    q = MetricQuery(base, np.array([1.0 + 0j]), 2)
    out = metric_lower_bound_opt(q, CompetitorFamily("linear_moebius"), FAST)
    # n=1 Poincare metric of the disk: 1/(1-|z|^2)
    assert out.value == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-3)


def test_converged_flag_belongs_to_the_best_start():
    # The first start sees a flat objective: no candidate improves, so its
    # step halves from 0.5 to below 1e-6 in 19 passes of 2 * dim candidates
    # and it converges.  The second start sees a new maximum at every call,
    # so it is the best one and is still improving when its passes run out.
    # Rows come in start order, and start 1 outlives start 0, so the last
    # row of every batch is start 1's.
    dim = 2
    rising = iter(range(1, 10**6))

    def objective(thetas):
        vals = np.zeros(len(thetas))
        vals[-1] = next(rising)
        return vals

    out = _coordinate_ascent(objective, dim, OptBudget(starts=2, iters=30),
                             "flat-then-rising")
    assert out.evaluations == 1 + 19 * 2 * dim + 1 + 30 * 2 * dim
    assert out.value > 0.0
    assert not out.converged


# ---------------------------------------------------------------------------
# scalar references: the one-start-at-a-time ascent the batched one replaced
# ---------------------------------------------------------------------------


def _ref_coefficients(theta, n, q):
    g = theta[:n] + 1j * theta[n:]
    gn = lp_norm_value(g, q)
    if gn == 0.0:
        return None
    return g / gn


def _ref_ascent(objective, dim, budget, label, accepted=None):
    """The scan one start and one move at a time; each acceptance is appended
    to `accepted` as (start, pass, move), move 2k for +step and 2k + 1 for
    -step at coordinate k."""
    gen = stream(budget.seed, "caratheodory-opt", label, dim)
    best_val = -math.inf
    best_theta = np.zeros(dim)
    evals = 0
    converged = False
    for start in range(budget.starts):
        theta = gen.standard_normal(dim)
        nt = np.linalg.norm(theta)
        if nt > 0.0:
            theta /= nt
        val = objective(theta)
        evals += 1
        step = 0.5
        start_converged = False
        for sweep in range(budget.iters):
            improved = False
            for k in range(dim):
                for sign in (1.0, -1.0):
                    cand = theta.copy()
                    cand[k] += sign * step
                    cand /= np.linalg.norm(cand)
                    cv = objective(cand)
                    evals += 1
                    if cv > val:
                        theta, val = cand, cv
                        improved = True
                        if accepted is not None:
                            accepted.append((start, sweep, 2 * k + (sign < 0.0)))
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    start_converged = True
                    break
        if val > best_val:
            best_val, best_theta, converged = val, theta, start_converged
    return OptResult(float(best_val), best_theta, converged, evals)


def _ref_metric(query, family, budget):
    e = query.exponent
    n = query.base.shape[0]
    q = e.conjugate_value

    def objective(theta):
        c = _ref_coefficients(theta, n, q)
        if c is None:
            return -math.inf
        pairing = abs(complex(np.sum(c * query.direction)))
        if family.kind == "linear_dual":
            return pairing
        a0 = abs(complex(np.sum(c * query.base)))
        return pairing / (1.0 - a0 * a0)

    return _ref_ascent(objective, 2 * n, budget, f"metric-{family.kind}-{e.p}")


def _ref_distance(z, w, p, budget):
    e = as_exponent(p)
    n = z.shape[0]
    q = e.conjugate_value

    def objective(theta):
        c = _ref_coefficients(theta, n, q)
        if c is None:
            return -math.inf
        a0 = complex(np.sum(c * z))
        b0 = complex(np.sum(c * w))
        img = (b0 - a0) / (1.0 - np.conj(a0) * b0)
        r = abs(img)
        if r >= 1.0:
            return -math.inf
        return math.atanh(r)

    return _ref_ascent(objective, 2 * n, budget, f"distance-{e.p}")


def _assert_same(got, want):
    assert got.value == want.value
    assert np.array_equal(got.params, want.params)
    assert got.converged == want.converged
    assert got.evaluations == want.evaluations


def _ball_point(gen, n, p, radius):
    z = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return z * (radius / float(norm_p(z, p)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), p=st.sampled_from([1.5, 2, 3, 4, "inf"]),
       seed=st.integers(0, 2**32 - 1), starts=st.integers(1, 4),
       iters=st.integers(1, 40), kind=st.sampled_from(FAMILY_KINDS))
def test_batched_ascents_equal_scalar_reference(n, p, seed, starts, iters, kind):
    gen = stream(seed, "ascent-reference", n)
    budget = OptBudget(starts=starts, iters=iters, seed=seed)
    base = np.zeros(n, dtype=complex)
    if kind == "linear_moebius":
        base = _ball_point(gen, n, p, gen.uniform(0.0, 0.9))
    xi = cvector(gen.standard_normal(n) + 1j * gen.standard_normal(n))
    query = MetricQuery(base, xi, p)
    family = CompetitorFamily(kind)
    _assert_same(metric_lower_bound_opt(query, family, budget),
                 _ref_metric(query, family, budget))
    z = _ball_point(gen, n, p, gen.uniform(0.0, 0.9))
    w = _ball_point(gen, n, p, gen.uniform(0.0, 0.9))
    _assert_same(distance_lower_bound_opt(z, w, p, budget=budget),
                 _ref_distance(z, w, p, budget))


def test_all_minus_inf_objective_matches_scalar_reference():
    budget = OptBudget(starts=3, iters=25, seed=5)
    got = _coordinate_ascent(lambda thetas: np.full(len(thetas), -math.inf), 3,
                             budget, "all-minus-inf")
    want = _ref_ascent(lambda theta: -math.inf, 3, budget, "all-minus-inf")
    _assert_same(got, want)
    assert got.value == -math.inf and not got.params.any()


def test_zero_coefficient_rows_are_flagged():
    theta = stream(6, "zero-coefficients").standard_normal((3, 6))
    theta[1] = 0.0
    c, zero = _coefficients(theta, 1.5)
    assert zero.tolist() == [False, True, False]
    assert not c[1].any()
    for i in (0, 2):
        assert np.array_equal(c[i], _ref_coefficients(theta[i], 3, 1.5))
    with pytest.raises(BadParams):
        competitor_map(CompetitorFamily("linear_dual"), np.zeros(6), np.zeros(3), 3)


# ---------------------------------------------------------------------------
# the speculative sweep replay against the one-move-at-a-time scan
# ---------------------------------------------------------------------------


def _bumpy(seed, dim, cutoff=math.inf):
    """A smooth objective with many local maxima; -inf where |theta_0| > cutoff."""
    gen = stream(seed, "bumpy", dim)
    W = 3.0 * gen.standard_normal((4, dim))
    c = gen.uniform(0.0, 2.0 * math.pi, 4)

    def f(theta):
        if abs(theta[0]) > cutoff:
            return -math.inf
        return float(np.sum(np.cos(W @ theta + c)))

    return f


def _stop_pass(accepted, start, iters):
    """The pass in which `start` converges (its 19th pass without an
    acceptance halves the step below 1e-6), or None if it never does."""
    improving = {sweep for s, sweep, _ in accepted if s == start}
    misses = 0
    for sweep in range(iters):
        misses += sweep not in improving
        if misses == 19:
            return sweep
    return None


def test_sweep_replay_matches_scalar_scan_on_hard_cases():
    # Row-wise objectives, so only the replay of acceptances is under test.
    # The scan's log must show every case the replay has to get right.
    seen = set()
    for dim in (2, 3, 4):
        for seed in range(3):
            for cutoff in (math.inf, 0.5):
                for starts, iters in ((6, 60), (1, 60), (3, 1), (3, 2)):
                    f = _bumpy(seed, dim, cutoff)
                    budget = OptBudget(starts=starts, iters=iters, seed=seed)
                    accepted = []
                    want = _ref_ascent(f, dim, budget, "bumpy", accepted)
                    got = _coordinate_ascent(lambda T: np.array([f(t) for t in T]), dim,
                                             budget, "bumpy")
                    _assert_same(got, want)
                    seen |= _log_cases(accepted, dim, starts, iters)
    assert len(seen) == 7, seen


def _log_cases(accepted, dim, starts, iters):
    """The cases of the replay that the scan's acceptance log shows."""
    seen = set()
    moves = set(accepted)
    per_sweep = Counter((s, sweep) for s, sweep, _ in accepted)
    last = {(s, sweep): j for s, sweep, j in accepted}  # each pass's last acceptance
    stops = {_stop_pass(accepted, s, iters) for s in range(starts)}
    if any(j == 2 * dim - 1 for _, _, j in accepted):
        seen.add("accepts the last move")
    if any(j % 2 == 0 and (s, sweep, j + 1) in moves for s, sweep, j in accepted):
        seen.add("accepts +step then -step at one k")
    if max(per_sweep.values(), default=0) >= 3:
        seen.add("three or more acceptances in one sweep")
    if len(stops - {None}) >= 2:
        seen.add("starts converge at different passes")
    if 0 < len({s for s, _, _ in accepted}) < starts:
        seen.add("starts stuck at -inf beside improving ones")
    for (s, sweep), j in last.items():
        if sweep + 1 >= iters:
            continue
        if (s, sweep + 1) not in last:
            seen.add("an improved pass, then a pass without acceptance")
        elif j < 2 * dim - 1:  # the next pass's first acceptance was scored with this pass's tail
            seen.add("an improved pass wraps round into an improved pass")
    return seen


def _counting(monkeypatch):
    """Count the objective calls of every ascent from here on."""
    calls = []
    ascent = caratheodory._coordinate_ascent

    def counted(objective, *args):
        def objective_counted(thetas):
            calls.append(len(thetas))
            return objective(thetas)
        return ascent(objective_counted, *args)

    monkeypatch.setattr(caratheodory, "_coordinate_ascent", counted)
    return calls


def test_sweep_without_an_acceptance_is_one_objective_call(monkeypatch):
    calls = _counting(monkeypatch)
    budget = OptBudget(starts=3, iters=7, seed=1)
    out = caratheodory._coordinate_ascent(lambda thetas: np.zeros(len(thetas)), 4,
                                          budget, "flat")
    assert out.evaluations == 3 + 7 * 2 * 4 * 3
    assert calls == [3] + [2 * 4 * 3] * 7


def test_metric_p2_job_makes_fewer_objective_calls_than_moves(monkeypatch):
    # The one-move-at-a-time scan made 321 calls for this job: one for the
    # starts and 2 * dim per pass.  Scoring a sweep at once needs less than
    # half of that.
    doc = json.loads((SUITE_DIR / "paper.json").read_text())
    doc["jobs"] = [job for job in doc["jobs"] if job["id"] == "metric-p2"]
    calls = _counting(monkeypatch)
    (result,) = run_suite(parse_suite(doc))
    assert result.passed
    assert len(calls) < 321 // 2, len(calls)


def test_shipped_caratheodory_jobs_halve_their_objective_calls(monkeypatch):
    # Rows waiting for the slowest start at every pass boundary made 549
    # calls for these four jobs; each start scanning on its own, and wrapping
    # round into its next pass, needs about half of that.
    doc = json.loads((SUITE_DIR / "paper.json").read_text())
    doc["jobs"] = [job for job in doc["jobs"] if job["check"].startswith("caratheodory_")]
    calls = _counting(monkeypatch)
    results = run_suite(parse_suite(doc))
    assert len(results) == 4 and all(r.passed for r in results)
    assert sum(r.quantities["evaluations"] for r in results) == 19_896
    assert len(calls) <= 280, len(calls)
