"""Floating-point kernels against the 50-digit oracle of mp_oracle.py.

Each bound is a few ulps of the true value.  Four known defects are marked
xfail(strict=True) with their measured errors, so a fix shows as an XPASS.
"""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

import mp_oracle as mp  # noqa: E402
from schwarz_lab.caratheodory import (distance_origin_closed,  # noqa: E402
                                      metric_origin_closed)
from schwarz_lab.diff import complex_jacobian  # noqa: E402
from schwarz_lab.geometry import (conjugate_exponent, duality_map, lp_norm,  # noqa: E402
                                  norm_p)
from schwarz_lab.maps import Coordinate, MoebiusDisk  # noqa: E402
from schwarz_lab.rng import stream  # noqa: E402
from schwarz_lab.verify import _disk_bound  # noqa: E402


def _vectors(label, scale=1.0):
    """Four complex Gaussian vectors in each dimension 1-6, times scale."""
    gen = stream(0, "mp-oracle", label, scale)
    return [scale * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
            for n in range(1, 7) for _ in range(4)]


def _worst_lp_ulps(q, scale):
    return max(mp.ulps(lp_norm(x, q), mp.lp_norm(x, q)) for x in _vectors("lp", scale))


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0, 5.0, 8.0, math.inf])
def test_lp_norm_is_within_four_ulps(q, scale):
    # at 1e-160 and 1e150 every finite q >= 2 underflows or overflows the
    # power sum, so those rows take the rescaled branch
    assert _worst_lp_ulps(q, scale) <= 4.0


@pytest.mark.parametrize("q", [1.25, 1.5])
def test_lp_norm_is_within_four_ulps_at_unit_scale_for_q_below_two(q):
    assert _worst_lp_ulps(q, 1.0) <= 4.0


@pytest.mark.xfail(strict=True, reason="measured up to 182 ulp: the power sum stays in "
                   "range, and the rounding of the root's exponent 1.0/q is multiplied "
                   "by |ln(sum)|, 430 to 560 at these scales")
@pytest.mark.parametrize("scale", [1e-160, 1e150])
@pytest.mark.parametrize("q", [1.25, 1.5])
def test_lp_norm_is_within_four_ulps_far_from_unit_scale_for_q_below_two(q, scale):
    assert _worst_lp_ulps(q, scale) <= 4.0


@pytest.mark.parametrize("scale", [1e-12, 1e12])
@pytest.mark.parametrize("q", [2.0, 4.0])
def test_lp_norm_is_within_four_ulps_away_from_unit_scale(q, scale):
    # the power sum stays in range here, so the direct branch runs
    assert _worst_lp_ulps(q, scale) <= 4.0


@pytest.mark.xfail(strict=True, reason="measured 13.5 and 14.4 ulp at q = 3, 14.2 and "
                   "14.4 ulp at q = 5 (scales 1e-12 and 1e12): the root's exponent "
                   "1.0/q is inexact, and its rounding is multiplied by |ln(sum)|")
@pytest.mark.parametrize("scale", [1e-12, 1e12])
@pytest.mark.parametrize("q", [3.0, 5.0])
def test_lp_norm_is_within_four_ulps_away_from_unit_scale_at_an_inexact_root(q, scale):
    assert _worst_lp_ulps(q, scale) <= 4.0


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0, 7.5])
def test_duality_map_is_within_a_few_ulps(p):
    # the modulus's rounding is raised to the power p - 2
    for x in _vectors("duality") + [np.array([0.0, 0.6 - 0.8j])]:
        for got, want in zip(duality_map(x, p), mp.duality_map(x, p)):
            assert mp.ulps(got, want) <= 2.0 * (abs(p - 2.0) + 2.0), (p, x)


def test_conjugate_exponent_is_correctly_rounded():
    # p - 1 is exact for every p in (1, 2**53], so only the quotient rounds
    ps = stream(0, "mp-oracle", "conjugate").uniform(1.0, 12.0, 200).tolist()
    for p in ps + [1.25, 1.5, 3.0, 1.0 + 2.0 ** -40, 1e6]:
        assert mp.ulps(conjugate_exponent(p), mp.conjugate_exponent(p)) <= 0.5 + 1e-12, p
    assert conjugate_exponent(math.inf) == 1.0


def test_disk_bound_is_within_eight_ulps_inside_the_disk():
    gen = stream(0, "mp-oracle", "disk-bound")
    for r, theta, share in gen.uniform(0.0, 1.0, (200, 3)).tolist():
        w0 = 0.9 * r * complex(math.cos(6.3 * theta), math.sin(6.3 * theta))
        d = share * (1.0 - abs(w0) ** 2)
        assert mp.ulps(_disk_bound(w0, d), mp.disk_bound(w0, d)) <= 8.0, (w0, d)


def _moebius_ulps(a):
    """The Möbius node's derivative at 0 (from its tangent pass) against the oracle."""
    got = complex_jacobian(MoebiusDisk(a, 1.0, Coordinate(0, 1)), np.zeros(1, dtype=complex))
    return mp.ulps(got[0, 0], mp.moebius_derivative(a, 1.0, 0.0))


@pytest.mark.parametrize("a", [0.0, 0.5, -0.3 + 0.4j, 0.9, 0.3 + 0.891j])
def test_moebius_derivative_is_within_four_ulps_away_from_the_circle(a):
    assert _moebius_ulps(a) <= 4.0


@pytest.mark.xfail(strict=True, reason="measured 1.7e7 ulp (relative error 3.5e-9): "
                   "MoebiusDisk._tangent forms 1 - |a|^2 by cancellation")
def test_moebius_derivative_is_within_four_ulps_near_the_circle():
    assert _moebius_ulps(0.6 + 0.79999999j) <= 4.0


# exponents whose root 1/p is exact: lp_norm's own error, up to 14 ulp at q = 3 for
# rows scaled by 1e-12, stays out of the closed forms' budgets
_CLOSED_FORM_PS = [2.0, 4.0, math.inf]


def _at_norm(r, p, label):
    """Vectors in dimensions 1-4 rescaled to ||z||_p = r."""
    return [x * (r / norm_p(x, p)) for x in _vectors(label)[::4][:4]]


def _distance_ulps_per_condition(r):
    """Worst ulps of distance_origin_closed at ||z||_p = r, each over the condition
    number r / ((1 - r^2) atanh r) of atanh, which carries the norm's rounding."""
    worst = 0.0
    for p in _CLOSED_FORM_PS:
        for z in _at_norm(r, p, "distance"):
            want = mp.distance_origin_closed(z, p)
            with mpmath.workdps(mp.DIGITS):
                norm = mp.lp_norm(z, p)
                cond = float(norm / ((1 - norm ** 2) * want))
            worst = max(worst, mp.ulps(distance_origin_closed(z, p), want) / max(1.0, cond))
    return worst


@pytest.mark.parametrize("r", [0.01, 0.3, 0.7, 0.99])
def test_metric_origin_closed_is_within_four_ulps(r):
    for p in _CLOSED_FORM_PS:
        for z in _at_norm(r, p, "metric"):
            assert mp.ulps(metric_origin_closed(z, p), mp.metric_origin_closed(z, p)) <= 4.0


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7, 0.9, 0.99])
def test_distance_origin_closed_is_within_four_ulps_per_condition(r):
    assert _distance_ulps_per_condition(r) <= 4.0


@pytest.mark.xfail(strict=True, reason="measured relative error 8.9e-5 at r = 1e-12 and "
                   "5.0e-9 at r = 1e-8: 0.5*log((1+r)/(1-r)) rounds the quotient near 1 "
                   "before the log; math.atanh stays within 1.4 ulp")
@pytest.mark.parametrize("r", [1e-12, 1e-8])
def test_distance_origin_closed_is_within_four_ulps_near_the_origin(r):
    assert _distance_ulps_per_condition(r) <= 4.0
