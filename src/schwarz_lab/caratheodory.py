"""Carathéodory metric and distance from the origin, plus an optimizer oracle.

The closed forms at the origin are one-liners; the point of this module is
the independent lower-bound estimator: a derivative-free multi-start ascent
over explicit competitor families of holomorphic maps into the disk.  At the
origin the two routes must meet, which is what the acceptance suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, OutsideBall
from .geometry import as_exponent, cvector, lp_norm_value, norm_p, with_lp_norms
from .maps import Compose, Coordinate, LinearMatrix, MapExpr, MoebiusDisk, evaluate
from .rng import stream

__all__ = [
    "MetricQuery",
    "CompetitorFamily",
    "OptBudget",
    "OptResult",
    "metric_origin_closed",
    "distance_origin_closed",
    "metric_lower_bound_opt",
    "distance_lower_bound_opt",
    "competitor_map",
    "competitor_membership_max",
]

FAMILY_KINDS = ("linear_dual", "linear_moebius")


@dataclass(frozen=True)
class MetricQuery:
    base: np.ndarray
    direction: np.ndarray
    exponent: object

    def __post_init__(self):
        e = as_exponent(self.exponent)
        b = cvector(self.base)
        d = cvector(self.direction)
        if b.shape != d.shape:
            raise BadParams("base and direction must share a dimension")
        if norm_p(b, e) >= 1.0:
            raise OutsideBall("metric query base must lie in the open ball")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "exponent", e)


@dataclass(frozen=True)
class CompetitorFamily:
    """Competitors f: ball -> disk with f(base) = 0 built into the chart.

    linear_dual: f(w) = sum c_j w_j with c on the dual-norm unit sphere
    (valid at base 0 only).  linear_moebius: the same linear map followed by
    the disk automorphism sending the base image to 0 (any base).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise BadParams(f"unknown competitor family {self.kind!r}")


@dataclass(frozen=True)
class OptBudget:
    starts: int = 32
    iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.iters < 1:
            raise BadParams("budget needs at least one start and one pass")


@dataclass(frozen=True)
class OptResult:
    value: float
    params: np.ndarray
    converged: bool
    evaluations: int


def metric_origin_closed(z, p) -> float:
    """Infinitesimal metric at the origin: the norm of the direction."""
    return float(norm_p(cvector(z), as_exponent(p)))


def distance_origin_closed(z, p) -> float:
    e = as_exponent(p)
    r = float(norm_p(cvector(z), e))
    if r >= 1.0:
        raise OutsideBall(f"||z||_p = {r} is not inside the unit ball")
    return 0.5 * math.log((1.0 + r) / (1.0 - r))


def _theta_to_coefficients(theta: np.ndarray, n: int, q: float):
    g = theta[:n] + 1j * theta[n:]
    gn = lp_norm_value(g, q)
    if gn == 0.0:
        return None
    return g / gn


def competitor_map(family: CompetitorFamily, theta: np.ndarray, base: np.ndarray,
                   p) -> MapExpr:
    """Materialize one family member as an expression tree."""
    e = as_exponent(p)
    base = cvector(base)
    n = base.shape[0]
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * n,):
        raise BadParams("theta must have 2n real entries")
    c = _theta_to_coefficients(theta, n, e.conjugate_value)
    if c is None:
        raise BadParams("degenerate parameters: zero coefficient vector")
    lin = LinearMatrix(c[None, :])
    if family.kind == "linear_dual":
        if float(norm_p(base, e)) > 0.0:
            raise BadParams("linear_dual competitors require base 0")
        return lin
    a0 = complex(np.sum(c * base))
    moeb = MoebiusDisk(-a0, 1.0, Coordinate(0, 1))
    return Compose(moeb, lin)


def competitor_membership_max(family: CompetitorFamily, theta: np.ndarray,
                              base: np.ndarray, p, samples: int = 1000,
                              seed: int = 0) -> float:
    """Largest |f| over boundary-adjacent sample points; sound if < 1."""
    e = as_exponent(p)
    base = cvector(base)
    n = base.shape[0]
    f = competitor_map(family, theta, base, e)
    gen = stream(seed, "membership", n, str(e.p))
    raw = gen.standard_normal((samples, n)) + 1j * gen.standard_normal((samples, n))
    pts = with_lp_norms(raw, e.p, 0.999)
    return float(np.max(np.abs(evaluate(f, pts))))


def _coordinate_ascent(objective, dim: int, budget: OptBudget, label: str):
    """Multi-start coordinate ascent for objectives invariant to theta scaling.

    Candidates stay on the unit sphere (the parameterization is projective),
    so a fixed step always means a comparable change of direction.
    """
    gen = stream(budget.seed, "caratheodory-opt", label, dim)
    best_val = -math.inf
    best_theta = np.zeros(dim)
    evals = 0
    converged = False  # whether the best start's ascent converged
    for _ in range(budget.starts):
        theta = gen.standard_normal(dim)
        nt = np.linalg.norm(theta)
        if nt > 0.0:
            theta /= nt
        val = objective(theta)
        evals += 1
        step = 0.5
        start_converged = False
        for _ in range(budget.iters):
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
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    start_converged = True
                    break
        if val > best_val:
            best_val, best_theta, converged = val, theta, start_converged
    return OptResult(float(best_val), best_theta, converged, evals)


def metric_lower_bound_opt(query: MetricQuery, family: CompetitorFamily,
                           budget: OptBudget = OptBudget()) -> OptResult:
    """Maximize |f'(base) . direction| over the family; lower bound for the metric."""
    e = query.exponent
    n = query.base.shape[0]
    q = e.conjugate_value
    xi = query.direction
    base = query.base
    base_norm = float(norm_p(base, e))
    if family.kind == "linear_dual" and base_norm > 0.0:
        raise BadParams("linear_dual competitors require base 0")

    def objective(theta):
        c = _theta_to_coefficients(theta, n, q)
        if c is None:
            return -math.inf
        pairing = abs(complex(np.sum(c * xi)))
        if family.kind == "linear_dual":
            return pairing
        a0 = abs(complex(np.sum(c * base)))
        return pairing / (1.0 - a0 * a0)

    return _coordinate_ascent(objective, 2 * n, budget,
                              f"metric-{family.kind}-{e.p}")


def distance_lower_bound_opt(z, w, p, family: CompetitorFamily | None = None,
                             budget: OptBudget = OptBudget()) -> OptResult:
    """Maximize the disk hyperbolic distance of the images; lower bound for d^c."""
    e = as_exponent(p)
    z = cvector(z)
    w = cvector(w)
    if z.shape != w.shape:
        raise BadParams("z and w must share a dimension")
    if norm_p(z, e) >= 1.0 or norm_p(w, e) >= 1.0:
        raise OutsideBall("distance endpoints must lie in the open ball")
    if family is None:
        family = CompetitorFamily("linear_moebius")
    if family.kind != "linear_moebius":
        raise BadParams("distance optimization needs the Moebius-normalized family")
    n = z.shape[0]
    q = e.conjugate_value

    def objective(theta):
        c = _theta_to_coefficients(theta, n, q)
        if c is None:
            return -math.inf
        a0 = complex(np.sum(c * z))
        b0 = complex(np.sum(c * w))
        img = (b0 - a0) / (1.0 - np.conj(a0) * b0)
        r = abs(img)
        if r >= 1.0:
            return -math.inf
        return math.atanh(r)

    return _coordinate_ascent(objective, 2 * n, budget, f"distance-{e.p}")
