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
from .geometry import (as_exponent, cvector, l2_norm_rows, lp_norm_rows, modulus, norm_p,
                       with_lp_norms)
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


def _coefficients(theta: np.ndarray, q: float):
    """Rows (k, 2n) of theta -> the lq-normalised coefficient rows c (k, n)
    and the mask of rows whose coefficient vector is zero (their c is zero)."""
    n = theta.shape[1] // 2
    g = theta[:, :n] + 1j * theta[:, n:]
    gn = lp_norm_rows(g, q)
    zero = gn == 0.0
    gn[zero] = 1.0
    return g / gn[:, None], zero


def _pair(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.sum(row * v) per row of c, bit for bit; as a broadcast 1-D operand, v
    would send a one-element product down numpy's unfused scalar loop."""
    return (c * v[None, :]).sum(axis=1)


def competitor_map(family: CompetitorFamily, theta: np.ndarray, base: np.ndarray,
                   p) -> MapExpr:
    """Materialize one family member as an expression tree."""
    e = as_exponent(p)
    base = cvector(base)
    n = base.shape[0]
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * n,):
        raise BadParams("theta must have 2n real entries")
    c, zero = _coefficients(theta[None, :], e.conjugate_value)
    if zero[0]:
        raise BadParams("degenerate parameters: zero coefficient vector")
    lin = LinearMatrix(c)
    if family.kind == "linear_dual":
        if float(norm_p(base, e)) > 0.0:
            raise BadParams("linear_dual competitors require base 0")
        return lin
    a0 = complex(np.sum(c[0] * base))
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
    so a fixed step always means a comparable change of direction.  A pass
    tries the 2 * dim moves (k, +step), (k, -step) in that order and accepts
    each one that beats the current value; a pass without an acceptance
    halves the step.  A start stops at a pass boundary, once its step is
    below 1e-6 or it has run `iters` passes.

    Every start runs this cyclic scan on its own state: theta, value, step,
    its next move `first` (the pass has improved iff first > 0) and its pass
    count.  `objective` maps (m, dim) thetas to m values, and a round scores
    all 2 * dim moves of every live start, built from its current theta, in
    one call.  Each start then takes its first move from `first` on that
    beats its value; the moves after it were scored from the old theta, so
    its next round scores them again.  When the rest of an improved pass has
    no hit, the next pass starts from the same theta with the same step, so
    its moves before `first` are the ones just scored: the start wraps round
    and takes its first acceptance from them.  If there is none, that whole
    pass accepts nothing and the step halves in the same round.

    This equals the one-move-at-a-time scan bit for bit, because every
    helper of the objectives is row-exact: a scored move is the same float
    vector, with the same value, as the sequential scan computes at that
    point.  `evaluations` counts the moves of that scan, 2 * dim per pass
    and start.
    """
    gen = stream(budget.seed, "caratheodory-opt", label, dim)
    theta = gen.standard_normal((budget.starts, dim))
    nt = l2_norm_rows(theta)
    theta /= np.where(nt > 0.0, nt, 1.0)[:, None]
    val = objective(theta)
    step = np.full(budget.starts, 0.5)
    passes = np.zeros(budget.starts, dtype=np.intp)
    moves = 2 * dim
    order = np.arange(moves)
    # Move 2k adds +step to coordinate k and move 2k + 1 adds -step; the
    # other coordinates get + 0.0, which leaves them as they are (it could
    # only turn a -0.0 into +0.0).
    delta = np.zeros((moves, dim))
    delta[order, order // 2] = np.tile([1.0, -1.0], dim)
    # cyc[f, j]: the place of move j in a scan that starts at move f and
    # wraps round into the next pass.
    cyc = (order[None, :] - order[:, None]) % moves
    live = np.arange(budget.starts)
    T, V, S, P = theta.copy(), val.copy(), step.copy(), passes.copy()
    first = np.zeros(budget.starts, dtype=np.intp)
    rows = live.copy()
    while live.size:
        cand = T[:, None, :] + S[:, None, None] * delta  # |T| is 1 (or 0) and S <= 0.5: no move is 0
        cand /= l2_norm_rows(cand)[:, :, None]
        cv = objective(cand.reshape(-1, dim)).reshape(-1, moves)
        rank = np.where(cv > V[:, None], cyc[first], moves)
        j = rank.argmin(axis=1)
        k = rank[rows, j]
        cross = k >= moves - first  # the current pass ends without a further acceptance
        P += cross & (first > 0)  # an improved pass ends
        more = P < budget.iters
        accept = (k < moves) & (more | ~cross)
        idle = cross & ~accept & more  # a pass without acceptance
        np.multiply(S, 0.5, out=S, where=idle)
        P += idle
        np.copyto(T, cand[rows, j], where=accept[:, None])
        np.copyto(V, cv[rows, j], where=accept)
        first = np.where(accept, j + 1, 0)
        full = first == moves  # the pass ended on its last move's acceptance
        P += full
        first[full] = 0
        stop = (P >= budget.iters) | (S < 1e-6)
        if np.count_nonzero(stop):
            out = live[stop]
            theta[out], val[out], step[out], passes[out] = T[stop], V[stop], S[stop], P[stop]
            keep = ~stop
            live, T, V, S, P, first = live[keep], T[keep], V[keep], S[keep], P[keep], first[keep]
            rows = np.arange(live.size)
    evals = budget.starts + moves * int(passes.sum())
    best = int(np.argmax(val))  # the first maximum, as a strict > scan keeps
    if val[best] == -math.inf:
        return OptResult(-math.inf, np.zeros(dim), False, evals)
    return OptResult(float(val[best]), theta[best], bool(step[best] < 1e-6), evals)


def metric_lower_bound_opt(query: MetricQuery, family: CompetitorFamily,
                           budget: OptBudget = OptBudget()) -> OptResult:
    """Maximize |f'(base) . direction| over the family; lower bound for the metric."""
    e = query.exponent
    n = query.base.shape[0]
    q = e.conjugate_value
    if family.kind == "linear_dual" and float(norm_p(query.base, e)) > 0.0:
        raise BadParams("linear_dual competitors require base 0")

    def objective(thetas):
        c, zero = _coefficients(thetas, q)
        val = modulus(_pair(c, query.direction))
        if family.kind == "linear_moebius":
            a0 = modulus(_pair(c, query.base))
            val /= 1.0 - a0 * a0
        val[zero] = -math.inf
        return val

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
    if family is not None and family.kind != "linear_moebius":
        raise BadParams("distance optimization needs the Moebius-normalized family")
    n = z.shape[0]
    q = e.conjugate_value

    def objective(thetas):
        c, zero = _coefficients(thetas, q)
        a0 = _pair(c, z)
        b0 = _pair(c, w)
        # 1 - conj(a0) b0 written out: numpy's complex array product fuses
        # a multiply-add, which its one-point scalar product does not.
        den = (1.0 - (a0.real * b0.real + a0.imag * b0.imag)
               + 1j * (0.0 - (a0.real * b0.imag - a0.imag * b0.real)))
        r = modulus((b0 - a0) / den)
        val = np.full(r.size, -math.inf)
        keep = ~(zero | (r >= 1.0))
        val[keep] = [math.atanh(x) for x in r[keep].tolist()]
        return val

    return _coordinate_ascent(objective, 2 * n, budget, f"distance-{e.p}")
