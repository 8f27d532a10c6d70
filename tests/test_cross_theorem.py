"""At n = 1 and p = 2 the disk and ball theorems read the same boundary data.

On a disk self-map f with f(1) = 1, lp_boundary_schwarz's lambda, liu_wang's
lambda and zhu's fprime1 are all f'(1).  They must agree within ULP_BUDGET
units in the last place of the largest of them.  The bounds must come in
order: Zhu's bound 2|1 - a|^2 / (1 - |a|^2 + d), with a = f(0) and
d = |f'(0)|, is never below Liu-Wang's lower_bound |1 - a|^2 / (1 - |a|^2),
because d <= 1 - |a|^2; and Kalaj's bound on the same map, which reads |a|
where Zhu reads a, is never above Zhu's, because |1 - |a|| <= |1 - a|.

Measured: the three readings are bit-equal on moebius_fix1(0.6),
zhu_extremal(0, 0.5) and (z + z^3)/2 (0.24999999999999997,
1.3333333333333333 and 2.0), and at most 1 ulp apart over 2,000 seeded
moebius_fix1(a), a in (-0.95, 0.95).  moebius_fix1 meets d = 1 - |a|^2, so
there Zhu's bound and Liu-Wang's lower_bound agree in value, and Zhu's was
never the smaller float.
"""

import math

import numpy as np
import pytest

from schwarz_lab import (
    BoundaryPoint,
    Coordinate,
    Power,
    Scale,
    Sum,
    gallery,
    verify_kalaj,
    verify_liu_wang,
    verify_lp_boundary_schwarz,
    verify_zhu,
)
from schwarz_lab.rng import stream

ULP_BUDGET = 4

ONE = BoundaryPoint(np.ones(1, dtype=complex), 2)
_z = Coordinate(0, 1)
# (map, f'(1))
MAPS = {
    "moebius_fix1": (gallery("moebius_fix1", {"a": 0.6}), 0.25),
    "zhu_extremal": (gallery("zhu_extremal", {"a": 0.0, "d": 0.5}), 4.0 / 3.0),
    "half_z_plus_z3": (Scale(0.5, Sum((_z, Power(3, _z)))), 2.0),
}


def _readings(f):
    lp = verify_lp_boundary_schwarz(f, ONE)
    liu_wang = verify_liu_wang(f, ONE)
    zhu = verify_zhu(f)
    return lp, liu_wang, zhu


def _assert_one_derivative(lp, liu_wang, zhu):
    lams = [lp.quantities["lambda"], liu_wang.quantities["lambda"], zhu.quantities["fprime1"]]
    assert max(lams) - min(lams) <= ULP_BUDGET * math.ulp(max(map(abs, lams))), lams
    return lams


def _assert_bounds_in_order(f, liu_wang, zhu):
    assert zhu.quantities["bound"] >= liu_wang.quantities["lower_bound"]
    assert verify_kalaj(f, 2).quantities["bound"] <= zhu.quantities["bound"]


@pytest.mark.parametrize("name", MAPS)
def test_lp_liu_wang_and_zhu_read_one_boundary_derivative(name):
    f, fprime1 = MAPS[name]
    lp, liu_wang, zhu = _readings(f)
    lams = _assert_one_derivative(lp, liu_wang, zhu)
    assert abs(lams[0] - fprime1) <= ULP_BUDGET * math.ulp(fprime1)
    _assert_bounds_in_order(f, liu_wang, zhu)


def test_the_three_readings_agree_over_seeded_moebius_shifts():
    for a in stream(0, "cross-theorem", "moebius_fix1").uniform(-0.95, 0.95, 64).tolist():
        f = gallery("moebius_fix1", {"a": a})
        lp, liu_wang, zhu = _readings(f)
        _assert_one_derivative(lp, liu_wang, zhu)
        _assert_bounds_in_order(f, liu_wang, zhu)


def test_kalaj_reads_the_modulus_of_f0_where_zhu_reads_f0():
    # off the real axis the two bounds part: |1 - |a|| < |1 - a| for a = 0.3 + 0.1i
    f = gallery("zhu_extremal", {"a": [0.3, 0.1], "d": 0.5})
    kalaj, zhu = verify_kalaj(f, 2).quantities["bound"], verify_zhu(f).quantities["bound"]
    assert kalaj < zhu
    assert kalaj == pytest.approx(0.66792066852332, rel=1e-12)
    assert zhu == pytest.approx(0.7142857142857141, rel=1e-12)
