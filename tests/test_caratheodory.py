"""Closed forms at the origin against the optimizer oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_lab import hyperbolic_distance, norm_p
from schwarz_lab.caratheodory import (
    CompetitorFamily,
    MetricQuery,
    OptBudget,
    OptResult,
    _coordinate_ascent,
    competitor_map,
    competitor_membership_max,
    distance_lower_bound_opt,
    distance_origin_closed,
    metric_lower_bound_opt,
    metric_origin_closed,
)
from schwarz_lab.errors import BadParams, OutsideBall
from schwarz_lab.maps import evaluate
from schwarz_lab.rng import stream

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
    # and it converges.  Every later call returns a new maximum, so the second
    # start is the best one and is still improving when its passes run out.
    dim = 2
    flat_calls = 1 + 19 * 2 * dim
    calls = iter(range(10**6))

    def objective(theta):
        k = next(calls)
        return 0.0 if k < flat_calls else float(k)

    out = _coordinate_ascent(objective, dim, OptBudget(starts=2, iters=30),
                             "flat-then-rising")
    assert out.evaluations == flat_calls + 1 + 30 * 2 * dim
    assert out.value > 0.0
    assert not out.converged
