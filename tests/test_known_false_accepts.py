"""Maps that break a theorem's self-map hypothesis, yet get every row of it ok.

Each test asserts what a sound check must report and is a strict xfail: the
check samples the hypothesis where the supremum does not live, or does not
test it at all.  The ROADMAP item named in each reason removes the xfail;
the numbers are those the checks report with the default configuration.
"""

import numpy as np
import pytest

from schwarz_lab import (
    BoundaryPoint,
    Constant,
    Coordinate,
    MapTuple,
    Power,
    Product,
    Scale,
    Sum,
    evaluate,
    norm_p,
    verify_liu_wang,
    verify_schwarz_pick,
    verify_zhu,
)
from schwarz_lab.rigidity import equality_case_1d

Z = Coordinate(0, 1)


def _polynomial(coefs: dict):
    """sum of c z^k over {k: c}, a map of the disc."""
    return Sum(tuple(Scale(c, Power(k, Z)) for k, c in coefs.items()))


def _circle_max(f, r: float, points: int = 100_000) -> float:
    t = r * np.exp(2j * np.pi * np.arange(points) / points)
    return float(np.abs(evaluate(f, t[:, None])).max())


ZHU_BUMP = _polynomial({1: 1.0, 4001: 0.25, 4002: -0.25})  # z + z^4001 (1 - z) / 4
LIU_WANG_MAP = _polynomial({1: 2.0, 2: -1.0})  # 2z - z^2
EQUALITY_MAP = _polynomial({1: 1.0, 2: 0.5, 3: -1.0, 4: 0.5})  # z + z^2 (z - 1)^2 / 2
_Z1, _Z2 = Coordinate(0, 2), Coordinate(1, 2)
_BUMP = Sum((Constant(1.0, 2), Scale(0.5, Power(1000, _Z1))))
PICK_BUMP = MapTuple((Product((_Z1, _BUMP)), Product((_Z2, _BUMP))))  # z (1 + z_1^1000 / 2)


def test_each_map_leaves_the_ball():
    # outside the xfails, so that each of them can fail only on its verdict
    assert _circle_max(ZHU_BUMP, 0.9999) > 1.33
    assert abs(evaluate(LIU_WANG_MAP, -1.0)[0]) == 3.0
    assert _circle_max(EQUALITY_MAP, 1.0) > 2.2
    for p in (2, 3):
        assert norm_p(evaluate(PICK_BUMP, np.array([0.999, 0.0])), p) - 0.999 > 0.18


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 15 and 4: all four zhu rows are ok (margin -0.25) although "
    "|f| reaches 1.335 on the 0.9999-circle; maps_disk_to_disk samples the disc"))
def test_zhu_rejects_a_bump_that_leaves_the_disc():
    rows = {h.name: h for h in verify_zhu(ZHU_BUMP).hypotheses}
    assert not rows["maps_disk_to_disk"].ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 9: all four liu_wang rows are ok (margin -1.0) at z0 = 1 although "
    "|f(-1)| = 3; no row tests that f maps the ball into the ball"))
def test_liu_wang_rejects_a_map_that_leaves_the_disc():
    v = verify_liu_wang(LIU_WANG_MAP, BoundaryPoint([1.0], 2))
    assert not all(h.ok for h in v.hypotheses)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 9: fixes_origin and fixes_one are ok and only identity_when_equality "
    "fails, although sup |f| = 2.206 on the circle; equality_1d has no self-map row"))
def test_equality_case_rejects_a_map_that_leaves_the_disc():
    v = equality_case_1d(EQUALITY_MAP)
    assert not all(h.ok for h in v.hypotheses if h.name != "identity_when_equality")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: schwarz_pick passes at p = 2 (margin -4.4e-16) and p = 3 "
    "(margin -1.7e-12) although ||f(0.999 e_1)||_p - 0.999 = +0.184; "
    "sample_ball puts few points near the sphere"))
@pytest.mark.parametrize("p", [2, 3])
def test_schwarz_pick_rejects_a_bump_that_leaves_the_ball(p):
    assert not verify_schwarz_pick(PICK_BUMP, p).passed
