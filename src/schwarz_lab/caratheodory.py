"""Carathéodory metric and distance from the origin, plus an optimizer oracle.

The closed forms at the origin are one-liners; the point of this module is
the independent lower-bound estimator: a derivative-free multi-start ascent
over explicit competitor families of holomorphic maps into the disk.  At the
origin the two routes must meet, which verify_caratheodory_metric and
verify_caratheodory_distance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, OutsideBall, SchwarzLabError
from .geometry import (
    _reduce_last_axis,
    as_exponent,
    conjugate_exponent,
    cvector,
    l2_norm_rows,
    lp_norm,
    modulus,
    norm_p,
)
from .rng import stream
from .verify import DEFAULT_CONFIG, CheckConfig, HypothesisCheck, Verdict

# Maps f: ball -> disk with f(base) = 0.  linear_dual: f(w) = sum c_j w_j, c on the
# dual-norm unit sphere (base 0 only); linear_moebius: then the disk automorphism
# u -> (u - a0) / (1 - conj(a0) u), a0 = sum c_j base_j (any base in the ball).
FAMILY_KINDS = ("linear_dual", "linear_moebius")


def _check_family(kind: str, base_norm: float) -> None:
    if base_norm >= 1.0:
        raise OutsideBall("competitor base must lie in the open ball")
    if kind not in FAMILY_KINDS:
        raise BadParams(f"unknown competitor family {kind!r}")
    if kind == "linear_dual" and base_norm > 0.0:
        raise BadParams("linear_dual competitors require base 0")


@dataclass(frozen=True)
class OptResult:
    value: float
    params: np.ndarray
    converged: bool
    evaluations: int


def metric_origin_closed(z, p) -> float:
    """Infinitesimal metric at the origin: the norm of the direction."""
    return float(norm_p(z, p))


def distance_origin_closed(z, p) -> float:
    r = float(norm_p(z, p))
    if r >= 1.0:
        raise OutsideBall(f"||z||_p = {r} is not inside the unit ball")
    return 0.5 * math.log((1.0 + r) / (1.0 - r))


def _coefficients(theta: np.ndarray, q: float):
    """Rows (k, 2n) of theta -> the lq-normalised coefficient rows c (k, n)
    and the mask of rows whose coefficient vector is zero (their c is zero)."""
    n = theta.shape[1] // 2
    g = np.empty((len(theta), n), dtype=complex)
    g.real = theta[:, :n]
    g.imag = theta[:, n:]
    gn = lp_norm(g, q)
    zero = gn == 0.0
    gn[zero] = 1.0
    # g / gn[:, None] divides by gn + 0j with Smith's rule, which for a zero
    # imaginary part multiplies by 1.0 / gn (up to the sign of a zero result)
    g *= (1.0 / gn)[:, None]
    return g, zero


def _pair(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.sum(row * v) per row of c, bit for bit; as a broadcast 1-D operand, v
    would send a one-element product down numpy's unfused scalar loop.  Many
    rows of 1-3 entries are summed by columns, in numpy's order for them."""
    return _reduce_last_axis(np.add, c * v[None, :])


def competitor_membership_max(kind: str, theta: np.ndarray, base: np.ndarray, p) -> float:
    """sup |f| over the ball of radius 0.999 for the member theta of `kind`; sound if < 1.

    By Hoelder, sum c_j w_j reaches r = 0.999 ||c||_q there, in any phase, so the disk
    automorphism of linear_moebius reaches (r + |a0|) / (1 + |a0| r) at -r a0 / |a0|."""
    p = as_exponent(p)
    base = cvector(base)
    _check_family(kind, norm_p(base, p))
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * base.shape[0],):
        raise BadParams("theta must have 2n real entries")
    if not np.all(np.isfinite(theta)):
        raise BadParams("theta must be finite")
    q = conjugate_exponent(p)
    c, zero = _coefficients(theta[None, :], q)
    if zero[0]:
        raise BadParams("degenerate parameters: zero coefficient vector")
    r = 0.999 * lp_norm(c[0], q)
    if kind == "linear_dual":
        return r
    a0 = abs(complex(np.sum(c[0] * base)))
    return (r + a0) / (1.0 + a0 * r)


def _coordinate_ascent(objective, dim: int, cfg: CheckConfig, label: str):
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

    A round costs one objective call plus a fixed block of small array
    operations: the candidates (a broadcast add, one BLAS dot per row and a
    division), one comparison of the scores with the values, read back as
    lists, and one fancy assignment of the accepted rows.  Each start's
    next acceptance is `list.index(True, first)` on its row of that
    comparison, with a sentinel past the last move; the live rows are
    compacted only when a start stops.  The objectives' shortcuts are exact
    for finite theta: `_coefficients` scales by 1.0 / |g|_q, which is what
    numpy's complex division by a real divisor computes; `_pair` sums 1-3
    columns in numpy's order; and the q = 1 norm skips a power and a root of
    1.0, which return their input.
    """
    gen = stream(cfg.seed, "caratheodory-opt", label, dim)
    theta = gen.standard_normal((cfg.starts, dim))
    nt = l2_norm_rows(theta)
    theta /= np.where(nt > 0.0, nt, 1.0)[:, None]
    val = objective(theta)
    step = np.full(cfg.starts, 0.5)
    passes = [0] * cfg.starts
    moves = 2 * dim
    order = np.arange(moves)
    # Move 2k adds +step to coordinate k and move 2k + 1 adds -step; the
    # other coordinates get + 0.0, which leaves them as they are (it could
    # only turn a -0.0 into +0.0).
    delta = np.zeros((moves, dim))
    delta[order, order // 2] = np.tile([1.0, -1.0], dim)
    # Row i of T, V and S belongs to start live[i], as do P[i] and first[i],
    # its pass count and next move.
    live = list(range(cfg.starts))
    T, V, S = theta.copy(), val.copy(), step.copy()
    P, first = [0] * cfg.starts, [0] * cfg.starts
    iters = cfg.iters
    while live:
        cand = T[:, None, :] + S[:, None, None] * delta  # |T| is 1 (or 0) and S <= 0.5: no move is 0
        cand /= l2_norm_rows(cand)[:, :, None]
        cand = cand.reshape(-1, dim)
        cv = objective(cand)
        rows, picks, stop = [], [], []
        for i, hits in enumerate((cv.reshape(-1, moves) > V[:, None]).tolist()):
            f = first[i]
            hits.append(True)  # past the last move: the pass ends without a further acceptance
            j = hits.index(True, f)
            if j == moves:
                P[i] += f > 0  # an improved pass ends
                if P[i] >= iters:
                    stop.append(i)
                    continue
                j = hits.index(True)  # the next pass re-reads moves 0 .. f - 1 from this round
                if j == moves:  # a pass without acceptance
                    S[i] *= 0.5
                    P[i] += 1
                    first[i] = 0
                    if P[i] >= iters or S[i] < 1e-6:
                        stop.append(i)
                    continue
            rows.append(i)
            picks.append(i * moves + j)
            first[i] = j + 1
            if j + 1 == moves:  # the pass ended on its last move's acceptance
                first[i] = 0
                P[i] += 1
                if P[i] >= iters:
                    stop.append(i)
        if rows:
            rows, picks = np.array(rows), np.array(picks)
            T[rows] = cand.take(picks, axis=0)
            V[rows] = cv.take(picks)
        if stop:
            for i in stop:
                theta[live[i]], val[live[i]], step[live[i]], passes[live[i]] = T[i], V[i], S[i], P[i]
            keep = [i for i in range(len(live)) if i not in stop]
            T, V, S = T[keep], V[keep], S[keep]
            live, P, first = ([x[i] for i in keep] for x in (live, P, first))
    evals = cfg.starts + moves * sum(passes)
    best = int(np.argmax(val))  # the first maximum, as a strict > scan keeps
    if val[best] == -math.inf:
        return OptResult(-math.inf, np.zeros(dim), False, evals)
    return OptResult(float(val[best]), theta[best], bool(step[best] < 1e-6), evals)


def metric_lower_bound_opt(base, direction, p, kind: str,
                           cfg: CheckConfig = DEFAULT_CONFIG) -> OptResult:
    """Maximize |f'(base) . direction| over the family `kind`; lower bound for the metric."""
    p = as_exponent(p)
    base = cvector(base)
    direction = cvector(direction)
    if base.shape != direction.shape:
        raise BadParams("base and direction must share a dimension")
    _check_family(kind, norm_p(base, p))
    n = base.shape[0]
    q = conjugate_exponent(p)

    def objective(thetas):
        c, zero = _coefficients(thetas, q)
        val = modulus(_pair(c, direction))
        if kind == "linear_moebius":
            a0 = modulus(_pair(c, base))
            val /= 1.0 - a0 * a0
        val[zero] = -math.inf
        return val

    return _coordinate_ascent(objective, 2 * n, cfg, f"metric-{kind}-{p}")


def distance_lower_bound_opt(z, w, p, cfg: CheckConfig = DEFAULT_CONFIG) -> OptResult:
    """Maximize the disk hyperbolic distance of linear_moebius images; lower bound for d^c."""
    p = as_exponent(p)
    z = cvector(z)
    w = cvector(w)
    if z.shape != w.shape:
        raise BadParams("z and w must share a dimension")
    if norm_p(z, p) >= 1.0 or norm_p(w, p) >= 1.0:
        raise OutsideBall("distance endpoints must lie in the open ball")
    n = z.shape[0]
    q = conjugate_exponent(p)

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

    return _coordinate_ascent(objective, 2 * n, cfg, f"distance-{p}")


def _attainment(theorem_id: str, closed: float, out: OptResult, kind: str, base, p,
                tol: float) -> Verdict:
    """The closed form against the ascent's lower bound, its gap in [-1e-9, tol], and
    the best competitor of the family `kind` at base against the disk."""
    membership = competitor_membership_max(kind, out.params, base, p)
    gap = closed - out.value
    margin = min(tol - gap, gap + 1e-9)
    checks = (
        HypothesisCheck("competitors_map_into_disk", membership <= 1.0 + 1e-9,
                        max(0.0, membership - 1.0)),
        HypothesisCheck("optimizer_converged", bool(out.converged), 0.0),
    )
    quantities = {"closed_form": closed, "optimized": out.value, "gap": gap,
                  "evaluations": float(out.evaluations)}
    return Verdict(theorem_id, checks, quantities, margin, tolerance=0.0)


def verify_caratheodory_metric(direction, p, family: str = "linear_dual",
                               cfg: CheckConfig = DEFAULT_CONFIG, base=None) -> Verdict:
    """The ascent over `family` attains the metric's closed form at base 0."""
    base = np.zeros_like(direction) if base is None else base
    if np.any(base):
        raise SchwarzLabError(
            "metric check compares against the origin closed form; base must be 0")
    out = metric_lower_bound_opt(base, direction, p, family, cfg)
    return _attainment("caratheodory_metric_origin", metric_origin_closed(direction, p), out,
                       family, base, p, cfg.attain_tol)


def verify_caratheodory_distance(z, p, cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """The ascent over linear_moebius attains the distance's closed form from 0 to z."""
    w = np.zeros_like(z)
    out = distance_lower_bound_opt(z, w, p, cfg)
    return _attainment("caratheodory_distance_origin", distance_origin_closed(z, p), out,
                       "linear_moebius", w, p, cfg.attain_tol)
