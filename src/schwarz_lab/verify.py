"""Executable verifiers for the boundary Schwarz statements.

Each verifier checks the hypotheses of one statement, computes the
quantities appearing in its conclusion, and packages the slack into a
:class:`Verdict`.  Hard preconditions raise :class:`HypothesisFailed`;
softer sanity checks are recorded in the verdict and gate ``passed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diff import pluriharmonic_residual, real_jacobian, tangent_pass
from .errors import BadParams, HypothesisFailed
from .geometry import (
    BoundaryPoint,
    as_exponent,
    cinner,
    conjugate_exponent,
    cvector,
    duality_map,
    l2_norm_rows,
    lp_norm,
    modulus,
    norm_p,
    norming_functional,
    pluriharmonic_V,
    realify,
    with_lp_norms,
)
from .maps import MapExpr, evaluate
from .rng import gaussian_pairs, gaussian_rows, stream


@dataclass(frozen=True)
class HypothesisCheck:
    """One named check with its numeric residual."""

    name: str
    ok: bool
    residual: float


@dataclass(frozen=True)
class Verdict:
    theorem_id: str
    hypotheses: tuple
    quantities: dict
    margin: float
    tolerance: float = 1e-7

    @property
    def passed(self) -> bool:
        if not all(h.ok for h in self.hypotheses):
            return False
        if math.isnan(self.margin):
            return False
        return self.margin >= -self.tolerance


@dataclass(frozen=True)
class CheckConfig:
    """The tolerances, sample counts and seed every check reads; a suite builds one
    per job.  Each ``*_tol`` field is a suite override name."""

    hypothesis_tol: float = 1e-8
    margin_tol: float = 1e-7
    tangent_tol: float = 1e-7
    slope_rel_tol: float = 0.02
    origin_tol: float = 1e-10
    holo_tol: float = 1e-7
    fixed_tol: float = 1e-8
    equation_tol: float = 1e-7
    identity_tol: float = 1e-7
    attain_tol: float = 1e-3
    samples: int = 2000
    grid_points: int = 10_000
    starts: int = 24
    iters: int = 150
    seed: int = 0

    def __post_init__(self):
        if min(self.samples, self.grid_points, self.starts, self.iters) < 1:
            raise BadParams("samples, grid_points, starts and iters must each be at least 1")


DEFAULT_CONFIG = CheckConfig()
SLOPE_T = 1e-3  # inward step of the lp verifier's radial slope probe
# the circles of the pluriharmonic chain's Harnack grid, and the angles on each
HARNACK_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
HARNACK_ANGLES = 16


def sample_ball(p, n: int, count: int, seed: int, label: str, shell: float = 0.999):
    """Deterministic interior sample: p-sphere directions times uniform radii."""
    p = as_exponent(p)
    gen = stream(seed, label, n, str(p))
    return with_lp_norms(gaussian_rows(gen, count, n), p, gen.uniform(0.0, shell, count))


def _holomorphy_check(f: MapExpr, res: float, tol: float) -> HypothesisCheck:
    """The "holomorphic" row, given the Cauchy-Riemann defect at a probe."""
    res = float(res)
    return HypothesisCheck("holomorphic", f.is_holomorphic and res <= tol, res)


def _dual_rows(v: np.ndarray, r: float) -> np.ndarray:
    """duality_map(row, r) of each row scaled by its largest modulus (the maps
    below normalise, so the scale is free, and every power is then of a
    number in (0, 1], or 1 + 1 ulp, which from r = 2**53 on is taken as 1 lest
    its power overflow).  numpy divides by a real through its reciprocal, which
    overflows below about 5.6e-309, so rows under 2**-1000 are scaled up first."""
    top = np.abs(v).max(axis=1, keepdims=True)
    tiny = ((top > 0.0) & (top < 2.0 ** -1000))[:, 0]
    if tiny.any():
        v, top = v.copy(), top.copy()
        v[tiny] *= 2.0 ** 600
        top[tiny] *= 2.0 ** 600
    u = v / np.where(top > 0.0, top, 1.0)
    return np.minimum(np.abs(u), 1.0) ** (r - 2.0) * u if r > 2.0 ** 53 else duality_map(u, r)


def operator_norm_lower(matrix: np.ndarray, p, starts: int = 64, iters: int = 80,
                        seed: int = 0) -> float:
    """Lower estimate of the p->p operator norm of a complex matrix.

    Exact for p = 2 (largest singular value) and p = inf (max row l1 norm).
    Otherwise the p-norm power method of Boyd (The power method for l^p
    norms, Linear Algebra Appl. 9, 1974) as Higham gives it (Estimating the
    matrix p-norm, Numer. Math. 62, 1992): x <- dual_q(J^H dual_p(J x)),
    normalised to ||x||_p = 1, from keyed random starts, all in lockstep.
    A start stops once ||J x||_p stops strictly increasing, or after `iters`
    steps.  Every iterate is a unit vector, so the best value is a lower
    bound; np.matvec gives each start the product a lone start gets.
    """
    J = np.asarray(matrix, dtype=complex)
    p = as_exponent(p)
    if math.isinf(p):
        return float(np.abs(J).sum(axis=1).max())
    if p == 2.0:
        return float(np.linalg.svd(J, compute_uv=False)[0])
    n = J.shape[1]
    JH = np.conj(J).T
    x = gaussian_pairs(stream(seed, "opnorm", n, p), starts, n)
    x /= lp_norm(x, p)[:, None]
    y = np.matvec(J, x)  # J x for each start's current x
    val = lp_norm(y, p)
    live = np.arange(starts)
    for _ in range(iters):
        z = np.matvec(JH, _dual_rows(y[live], p))
        cand = _dual_rows(z, conjugate_exponent(p))
        cn = lp_norm(cand, p)
        live, cand, cn = live[cn != 0.0], cand[cn != 0.0], cn[cn != 0.0]
        cand /= cn[:, None]
        cy = np.matvec(J, cand)
        cval = lp_norm(cy, p)
        better = cval > val[live]
        live = live[better]
        y[live], val[live] = cy[better], cval[better]
        if not live.size:
            break
    return float(np.max(val))


# ---------------------------------------------------------------------------
# interior Schwarz-Pick bound
# ---------------------------------------------------------------------------


def verify_schwarz_pick(f: MapExpr, p, cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """Norm decrease under an origin-fixing self-map, plus derivative norm at 0.

    margin = min over samples of ||z||_p - ||f(z)||_p.
    """
    p = as_exponent(p)
    n = f.input_dim
    if f.output_dim != n:
        raise BadParams("self-map verification needs matching dimensions")
    origin = np.zeros(n, dtype=complex)
    f0 = evaluate(f, origin)
    origin_res = float(norm_p(f0, p))
    if not origin_res <= cfg.origin_tol:
        raise HypothesisFailed(
            f"map must fix the origin; ||f(0)||_p = {origin_res:.3e}"
        )

    pts = sample_ball(p, n, cfg.samples, cfg.seed, "schwarz-pick")
    vals = evaluate(f, pts)
    in_norms = lp_norm(pts, p)
    out_norms = lp_norm(vals, p)
    margin = float(np.min(in_norms - out_norms))

    _, (J0, _), (_, holo_res), _ = tangent_pass(f, np.stack([origin, pts[0] * 0.5]))
    opnorm = operator_norm_lower(J0, p, seed=cfg.seed)

    checks = (
        HypothesisCheck("fixes_origin", True, origin_res),
        _holomorphy_check(f, holo_res, cfg.holo_tol),
        HypothesisCheck("operator_norm_le_1", opnorm <= 1.0 + 1e-9,
                        max(0.0, opnorm - 1.0)),
    )
    quantities = {
        "worst_norm_gap": margin,
        "opnorm_lower_estimate": opnorm,
        "samples": float(cfg.samples),
    }
    return Verdict("schwarz_pick_lp_ball", checks, quantities, margin,
                   max(1e-10, cfg.margin_tol * 1e-3))


# ---------------------------------------------------------------------------
# disk boundary derivative bounds
# ---------------------------------------------------------------------------


def _disk_bound(w0, d: float) -> float:
    """Zhu's sharp lower bound 2|1 - w0|^2 / (1 - |w0|^2 + d) on the radial
    derivative at 1, from the value w0 and the derivative's size d at 0."""
    return 2.0 * abs(1.0 - w0) ** 2 / (1.0 - abs(w0) ** 2 + d)


def verify_zhu(f: MapExpr, cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """Sharp lower bound for the radial derivative of a disk self-map at 1.

    f(0), f(1), J_f(0) and f'(1) come from one tangent pass; f'(1) is exact,
    so derivative_error, kept in the report's keys, is 0.0."""
    if f.input_dim != 1 or f.output_dim != 1:
        raise BadParams("disk verifier needs a scalar map of one variable")
    (f0, _, f1), (J0, _, _), (_, holo_res, _), (_, _, fprime1) = tangent_pass(
        f, np.array([[0.0], [0.3 + 0.1j], [1.0]]))
    f0, f1, fprime1 = complex(f0[0]), complex(f1[0]), complex(fprime1[0])
    fix_res = abs(f1 - 1.0)
    if not fix_res <= cfg.hypothesis_tol:
        raise HypothesisFailed(f"radial limit at 1 is {f1}, not 1")
    if not abs(f0) < 1.0:
        raise HypothesisFailed("f(0) must lie in the open disk")
    imag_res = abs(fprime1.imag)
    d = abs(J0[0, 0])
    bound = _disk_bound(f0, d)

    pts = sample_ball(2, 1, 500, cfg.seed, "zhu-selfmap")
    escape = float(np.max(lp_norm(evaluate(f, pts), 2.0)))

    checks = (
        HypothesisCheck("fixes_one_radially", True, fix_res),
        HypothesisCheck("derivative_real", imag_res <= cfg.hypothesis_tol, imag_res),
        _holomorphy_check(f, holo_res, cfg.holo_tol),
        HypothesisCheck("maps_disk_to_disk", escape <= 1.0 + 1e-10,
                        max(0.0, escape - 1.0)),
    )
    quantities = {
        "fprime1": fprime1.real,
        "bound": bound,
        "f0_abs": abs(f0),
        "fprime0_abs": d,
        "derivative_error": 0.0,
    }
    return Verdict("zhu_boundary_disk", checks, quantities,
                   fprime1.real - bound, cfg.margin_tol)


def verify_kalaj(f: MapExpr, p, cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """Vector-valued boundary derivative bound for a disk-to-ball map.

    The scalar reduction pairs f with the norming functional ell of f(1) and
    applies the disk bound to ell.f's data, read off f's own values (ell is
    linear); both margins are reported.
    """
    if f.input_dim != 1:
        raise BadParams("expected a map of one complex variable")
    p = as_exponent(p)
    (f0, _, b), (J0, _, _), (_, holo_res, _), (_, _, fprime1) = tangent_pass(
        f, np.array([[0.0], [0.2 + 0.2j], [1.0]]))
    b_norm = float(norm_p(b, p))
    if not abs(b_norm - 1.0) <= cfg.hypothesis_tol:
        raise HypothesisFailed(f"||f(1)||_p = {b_norm}, expected 1")
    fprime1_norm = float(norm_p(fprime1, p))

    a = float(norm_p(f0, p))
    if not a < 1.0:
        raise HypothesisFailed("f(0) must lie in the open ball")
    col = J0[:, 0]
    d = float(norm_p(col, p))
    bound = _disk_bound(a, d)

    # verify_zhu's bound on psi = ell . f
    ell = norming_functional(b, p)
    psi1 = complex(ell @ b)
    if not abs(psi1 - 1.0) <= cfg.hypothesis_tol:
        raise HypothesisFailed(f"radial limit at 1 is {psi1}, not 1")
    scalar_fprime1 = complex(ell @ fprime1).real
    scalar_margin = scalar_fprime1 - _disk_bound(complex(ell @ f0), abs(complex(ell @ col)))

    checks = (
        HypothesisCheck("boundary_image_unit_norm", True, abs(b_norm - 1.0)),
        _holomorphy_check(f, holo_res, cfg.holo_tol),
        HypothesisCheck("scalar_reduction_margin_ok", scalar_margin >= -cfg.margin_tol,
                        max(0.0, -scalar_margin)),
    )
    quantities = {
        "fprime1_norm": fprime1_norm,
        "bound": bound,
        "f0_norm": a,
        "fprime0_norm": d,
        "scalar_fprime1": scalar_fprime1,
        "scalar_margin": scalar_margin,
    }
    return Verdict("kalaj_boundary_banach", checks, quantities,
                   fprime1_norm - bound, cfg.margin_tol)


# ---------------------------------------------------------------------------
# boundary Schwarz lemma on the lp ball
# ---------------------------------------------------------------------------


def _slope_rel_error(val, z0: BoundaryPoint, v, lam: float, t: float) -> float:
    """Relative error of (1 - ||val||_p^p)/t against p*lambda*||v||_2^2, where
    val = f(z0 - t v) and v = z0.normal."""
    p = z0.exponent
    slope = (1.0 - float(norm_p(val, p)) ** p) / t
    target = p * lam * float(np.linalg.norm(v)) ** 2
    if target == 0.0:
        return math.inf
    return abs(slope - target) / abs(target)


def _tangent_residual(J: np.ndarray, probes: np.ndarray, g: np.ndarray) -> float:
    """max |Re<J u, g>| over the rows u of probes, all at once, each rounded as alone."""
    rows = np.matvec(J, probes)
    # (1, n) by (1, n) for one row: numpy multiplies a one-element broadcast
    # in its unfused scalar loop, a lone probe's (n,) by (n,) in its fused one
    return float(np.max(np.abs((rows * np.conj(g)[None, :]).sum(axis=1).real), initial=0.0))


def verify_lp_boundary_schwarz(f: MapExpr, z0: BoundaryPoint,
                               cfg: CheckConfig = DEFAULT_CONFIG):
    """Normal-eigenvalue certificate at a boundary point carried to the boundary.

    The eigenvalue is quantities["lambda"].  When f does not fix the origin the
    eigenvalue is still reported but the margin is withheld (nan): the lower
    bound lambda >= 1 is only claimed for origin-fixing maps.
    """
    p = z0.exponent
    if math.isinf(p) or p < 2.0:
        raise HypothesisFailed("certificate requires a finite exponent p >= 2")
    n = z0.dim
    if f.input_dim != n or f.output_dim != n:
        raise BadParams("map dimensions must match the boundary point")

    w0, J, holo_res, _ = tangent_pass(f, z0.point)
    if not (f.is_holomorphic and holo_res <= cfg.holo_tol):
        raise HypothesisFailed(f"map is not holomorphic at z0 (residual {holo_res:.2e})")

    # one batch: f(0) and the slope probe f(z0 - t v)
    vz = z0.normal
    f0, slope_val = evaluate(f, np.stack([np.zeros(n, dtype=complex), z0.point - SLOPE_T * vz]))
    w0 = cvector(w0)
    w_norm = lp_norm(w0, p)
    if not abs(w_norm - 1.0) <= cfg.hypothesis_tol:
        raise HypothesisFailed(f"||f(z0)||_p = {w_norm}, boundary image required")
    # schwarz_v at w0 (the gate implies its BoundaryPoint check); grad rho is p times it
    vw = duality_map(w0, p)

    origin_res = float(norm_p(f0, p))
    fixes_origin = origin_res <= cfg.origin_tol

    pulled = np.conj(J).T @ vw
    vz_sq = float(np.linalg.norm(vz)) ** 2
    pairing = complex(cinner(pulled, vz))
    lam = pairing.real / vz_sq
    imag_res = abs(pairing.imag) / vz_sq
    prop_res = float(np.linalg.norm(pulled - lam * vz))

    tangent_res = _tangent_residual(J, z0.tangent_probes, p * vw)

    slope_rel = _slope_rel_error(slope_val, z0, vz, lam, SLOPE_T)

    checks = (
        HypothesisCheck("fixes_origin", fixes_origin, origin_res),
        HypothesisCheck("holomorphic", True, holo_res),
        HypothesisCheck("boundary_to_boundary", True, abs(w_norm - 1.0)),
        HypothesisCheck("lambda_real", imag_res <= cfg.hypothesis_tol, imag_res),
        HypothesisCheck("normal_proportionality", prop_res <= 1e-6, prop_res),
        HypothesisCheck("tangent_invariance", tangent_res <= cfg.tangent_tol,
                        tangent_res),
        HypothesisCheck("radial_slope_identity", slope_rel <= cfg.slope_rel_tol,
                        slope_rel),
    )
    quantities = {
        "lambda": lam,
        "imag_residual": imag_res,
        "proportionality_residual": prop_res,
        "tangent_residual": tangent_res,
        "slope_rel_error": slope_rel,
        "origin_residual": origin_res,
    }
    margin = lam - 1.0 if fixes_origin else math.nan
    return Verdict("lp_boundary_schwarz", checks, quantities, margin, cfg.margin_tol)


def verify_liu_wang(f: MapExpr, z0: BoundaryPoint,
                    cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """Euclidean-ball boundary fixed point: eigenvalue bound and determinant cap."""
    if z0.exponent != 2.0:
        raise HypothesisFailed("this statement is specific to the round ball p = 2")
    n = z0.dim
    if f.input_dim != n or f.output_dim != n:
        raise BadParams("map dimensions must match the boundary point")

    w0 = evaluate(f, z0.point)
    fix_res = float(np.linalg.norm(w0 - z0.point))
    if not fix_res <= cfg.hypothesis_tol:
        raise HypothesisFailed(f"z0 is not fixed: ||f(z0) - z0|| = {fix_res:.3e}")

    vals, J, holo, _ = tangent_pass(f, np.stack([z0.point, np.zeros(n, dtype=complex)]))
    f0, J, holo_res = vals[1], J[0], float(holo[0])
    if not (f.is_holomorphic and holo_res <= cfg.holo_tol):
        raise HypothesisFailed(f"map is not holomorphic at z0 (residual {holo_res:.2e})")

    pairing = complex(cinner(J @ z0.point, z0.point))
    lam = pairing.real
    imag_res = abs(pairing.imag)

    f0_norm = float(np.linalg.norm(f0))
    if not f0_norm < 1.0:
        raise HypothesisFailed("f(0) must lie in the open ball")
    lower = abs(1.0 - complex(cinner(z0.point, f0))) ** 2 / (1.0 - f0_norm**2)

    det_abs = float(abs(np.linalg.det(J)))
    det_cap = float(lam ** ((n + 1) / 2.0)) if lam > 0 else 0.0
    eigen_res = float(np.linalg.norm(np.conj(J).T @ z0.point - lam * z0.point))

    checks = (
        HypothesisCheck("fixes_boundary_point", True, fix_res),
        HypothesisCheck("holomorphic", True, holo_res),
        HypothesisCheck("lambda_real", imag_res <= cfg.hypothesis_tol, imag_res),
        HypothesisCheck("normal_eigenvector", eigen_res <= 1e-6, eigen_res),
    )
    quantities = {
        "lambda": lam,
        "lower_bound": lower,
        "det_abs": det_abs,
        "det_cap": det_cap,
        "eigen_residual": eigen_res,
        "f0_norm": f0_norm,
    }
    margin = min(lam - lower, det_cap - det_abs)
    return Verdict("liu_wang_boundary_ball", checks, quantities, margin,
                   cfg.margin_tol)


# ---------------------------------------------------------------------------
# product-slice rigidity
# ---------------------------------------------------------------------------


def _square(x):
    """x ** 2 by libm pow, as Python's float ** 2 rounds it; an array's ** 2
    multiplies, which can differ in the last bit."""
    return np.float_power(x, 2.0)


def _cmul(a, b):
    """a * b elementwise, rounded as numpy's one-point (unfused) complex product."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _pseudo_hyperbolic_rows(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Pseudo-hyperbolic distance from each row of a (k, n) to b, for p in {2, inf}."""
    if math.isinf(p):
        num = np.abs(a - b)
        den = np.abs(1.0 - np.conj(a) * b[None, :])
        return np.max(num / den, axis=1)
    cross = (b[None, :] * np.conj(a)).sum(axis=1)  # cinner(b, row)
    cross = _square(modulus(1.0 - cross))
    inside = 1.0 - (1.0 - _square(l2_norm_rows(a))) * (1.0 - float(np.linalg.norm(b)) ** 2) / cross
    return np.sqrt(np.maximum(0.0, inside))


def _fit_moebius_3pt(xs, ys):
    """Fit mu(x) = (alpha x + beta)/(gamma x + 1) through three points."""
    A = np.array([[x, 1.0, -y * x] for x, y in zip(xs, ys)], dtype=complex)
    rhs = np.array(ys, dtype=complex)
    sol = np.linalg.solve(A, rhs)
    return sol  # (alpha, beta, gamma)


def _moebius_apply(coef, x):
    al, be, ga = coef
    return (al * x + be) / (ga * x + 1.0)


def _slice_chain(zs, ws, vals, coefs, z_fix, p):
    """Least slacks of the proof's two inequalities over the rows (z, w) -> f(z, w).

    With v the Moebius-normalised value of each f-row, the chain is
    |w - v|^2 <= |1 - conj(w) v|^2 <= (1 - |w|^2) / (1 - delta(z, z_fix)^2).
    """
    delta = _pseudo_hyperbolic_rows(zs, z_fix, p)
    cap = 1.0 / np.maximum(1e-15, 1.0 - _square(delta))
    al, be, ga = np.array(coefs).T
    norm_val = (vals - be) / (al - _cmul(ga, vals))
    lhs1 = _square(modulus(ws - norm_val))
    mid1 = _square(modulus(1.0 - _cmul(np.conj(ws), norm_val)))
    rhs = (1.0 - _square(modulus(ws))) * cap[:, None]
    return (float(np.min(mid1 - lhs1, initial=math.inf)),
            float(np.min(rhs - mid1, initial=math.inf)))


def verify_product_slice(f: MapExpr, phi: MapExpr, z_fix: np.ndarray, p,
                         n: int, m: int,
                         cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """A map of a ball-polydisk product that fixes one slice is slice-constant.

    f takes the concatenated input (z, w) in C^{n+m} and returns m disk values;
    the hypothesis is f(z_fix, w) = phi(w) for all w.  The margin certifies the
    conclusion f(z, w) = phi(w) everywhere; the proof's inequality chain is
    checked on samples after numerically normalizing phi to the identity.
    """
    p = as_exponent(p)
    if p not in (2.0, math.inf):
        raise BadParams("product-slice verification supports p in {2, inf}")
    if f.input_dim != n + m or f.output_dim != m:
        raise BadParams("expected f: C^(n+m) -> C^m")
    if phi.input_dim != m or phi.output_dim != m:
        raise BadParams("expected phi: C^m -> C^m")
    z_fix = cvector(z_fix)
    if z_fix.shape[0] != n:
        raise BadParams("z_fix must live in the first factor")

    # slice hypothesis on a deterministic w-grid
    w_grid = sample_ball("inf", m, 64, cfg.seed, "slice-grid", 0.95)
    slice_pts = np.concatenate([np.tile(z_fix, (64, 1)), w_grid], axis=1)
    slice_gap = float(np.max(np.abs(evaluate(f, slice_pts) - evaluate(phi, w_grid))))
    if not slice_gap <= 1e-10:
        raise HypothesisFailed(
            f"slice at z_fix is not fixed: sup gap {slice_gap:.3e}"
        )

    # conclusion: f(z, w) = phi(w) for all z
    zs = sample_ball(p, n, cfg.samples, cfg.seed, "product-z", 0.98)
    ws = sample_ball("inf", m, cfg.samples, cfg.seed, "product-w", 0.98)
    pts = np.concatenate([zs, ws], axis=1)
    fvals = evaluate(f, pts)
    gap = float(np.max(np.abs(fvals - evaluate(phi, ws))))
    margin = -gap

    # normalize phi to the identity, one disk Moebius per component
    xs = np.array([0.0, 0.4, -0.35 + 0.2j])
    coefs = []
    fit_res = 0.0
    gen2 = stream(cfg.seed, "moebius-fit", m)
    for i in range(m):
        col = np.zeros((3, m), dtype=complex)
        col[:, i] = xs
        ys = evaluate(phi, col)[:, i]
        try:
            coef = _fit_moebius_3pt(xs, ys)
        except np.linalg.LinAlgError:
            raise BadParams("phi must act componentwise by disk Moebius maps")
        probe = 0.5 * gaussian_rows(gen2, 8, 1)[:, 0]
        probe /= np.maximum(1.0, np.abs(probe) / 0.9)
        cols = np.zeros((8, m), dtype=complex)
        cols[:, i] = probe
        fit_res = max(fit_res, float(np.max(np.abs(
            _moebius_apply(coef, probe) - evaluate(phi, cols)[:, i]))))
        coefs.append(coef)
    if fit_res > 1e-9:
        raise BadParams("phi must act componentwise by disk Moebius maps")

    chain_first, chain_second = _slice_chain(zs[:256], ws[:256], fvals[:256], coefs, z_fix, p)

    holo_res = tangent_pass(f, np.concatenate([z_fix * 0.5, np.zeros(m)]).astype(complex))[2]
    checks = (
        HypothesisCheck("slice_is_fixed", True, slice_gap),
        _holomorphy_check(f, holo_res, cfg.holo_tol),
        HypothesisCheck("phi_componentwise_moebius", True, fit_res),
        HypothesisCheck("chain_pointwise_bound", chain_first >= -1e-10,
                        max(0.0, -chain_first)),
        HypothesisCheck("chain_slice_bound", chain_second >= -1e-10,
                        max(0.0, -chain_second)),
    )
    quantities = {
        "conclusion_gap": gap,
        "slice_gap": slice_gap,
        "chain_first_slack": chain_first,
        "chain_second_slack": chain_second,
        "moebius_fit_residual": fit_res,
    }
    return Verdict("product_slice_rigidity", checks, quantities, margin,
                   cfg.margin_tol)


# ---------------------------------------------------------------------------
# pluriharmonic boundary inequality
# ---------------------------------------------------------------------------


def _harnack(values, center) -> tuple:
    """(ok, margin): the two-sided Harnack slack of a positive harmonic function
    sampled on the circles of HARNACK_RADII, one row of ``values`` per radius,
    given its center value; ok when the center is positive, no sample is
    negative and the margin reaches -1e-12."""
    c = float(center)
    lo = np.array([(1.0 - r) / (1.0 + r) * c for r in HARNACK_RADII])
    hi = np.array([(1.0 + r) / (1.0 - r) * c for r in HARNACK_RADII])
    # the row minima folded from inf as min(slack, row_min) folds them one by
    # one: a NaN minimum never compares below the slack, so its row drops out
    lower_slack = min([math.inf, *np.min(values - lo[:, None], axis=1).tolist()])
    upper_slack = min([math.inf, *np.min(hi[:, None] - values, axis=1).tolist()])
    margin = min(lower_slack, upper_slack)
    return c > 0.0 and float(values.min()) >= 0.0 and margin >= -1e-12, margin  # NaN fails


def verify_pluriharmonic_boundary(f: MapExpr, z0: BoundaryPoint,
                                  cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """Chain of lower bounds for the radial real-derivative pairing at z0.

    lhs = (J_r z0') . V >= mid = (1 - f(0)' . V)/2 >= low = (1 - ||f(0)'||_p)/2 > 0
    where V is the boundary weight vector at w0 = f(z0) and J_r the real
    Jacobian of the realified map.
    """
    p = z0.exponent
    n = z0.dim
    if f.input_dim != n:
        raise BadParams("map input dimension must match the boundary point")

    # interior pluriharmonicity
    gen = stream(cfg.seed, "ph-interior", n)
    probes = 0.3 * gaussian_rows(gen, 4, n)
    probes = np.vstack([probes, 0.9 * z0.point[None, :]])
    ph_res = float(np.max(pluriharmonic_residual(f, probes, seed=cfg.seed)))  # NaN stays NaN
    if not ph_res <= 1e-6:
        raise HypothesisFailed(f"map is not pluriharmonic (residual {ph_res:.2e})")

    # one batch: f(z0), f(0) and the Harnack grid of phi(zeta) = 1 - (f(zeta z0))' . V
    angles = 2.0 * np.pi * np.arange(HARNACK_ANGLES) / HARNACK_ANGLES
    zetas = np.asarray(HARNACK_RADII)[:, None] * np.exp(1j * angles)
    fvals = evaluate(f, np.vstack([z0.point, np.zeros(n, dtype=complex),
                                   (zetas[:, :, None] * z0.point).reshape(-1, n)]))
    w0, f0, fvals = fvals[0], fvals[1], fvals[2:]
    w_norm = float(norm_p(w0, p))
    if not abs(w_norm - 1.0) <= cfg.hypothesis_tol:
        raise HypothesisFailed(f"||f(z0)||_p = {w_norm}, boundary image required")
    slack = 1e-6 if math.isinf(p) else max(1e-9, 4.0 * p * cfg.hypothesis_tol)
    w0bp = BoundaryPoint(w0, p, tolerance=slack)
    V = pluriharmonic_V(w0bp)

    # C1 at z0: the tangent pass's pole guard backs the c1_at_boundary row,
    # whose residual is 0 because an exact Jacobian has no ladder to disagree
    J = real_jacobian(f, z0.point)
    z0r = realify(z0.point)
    lhs = float((J @ z0r) @ V)
    f0r = realify(f0)
    mid = (1.0 - float(f0r @ V)) / 2.0
    low = (1.0 - lp_norm(f0r, p)) / 2.0

    cvector(fvals)  # rejects non-finite entries, as realify does
    # realify(row) @ V per row, bit for bit: R @ V and (R * V).sum(1) can round otherwise
    vals = 1.0 - np.vecdot(np.concatenate([fvals.real, fvals.imag], axis=1), V)
    phi0 = 1.0 - float(f0r @ V)
    harnack_ok, harnack_margin = _harnack(vals.reshape(zetas.shape), phi0)

    checks = (
        HypothesisCheck("pluriharmonic", True, ph_res),
        HypothesisCheck("boundary_to_boundary", True, abs(w_norm - 1.0)),
        HypothesisCheck("c1_at_boundary", True, 0.0),
        HypothesisCheck("low_positive", low > 0.0, max(0.0, -low)),
        HypothesisCheck("harnack", harnack_ok, max(0.0, -harnack_margin)),
    )
    quantities = {
        "lhs": lhs,
        "mid": mid,
        "low": low,
        "margin_lhs_mid": lhs - mid,
        "margin_mid_low": mid - low,
        "harnack_margin": harnack_margin,
    }
    margin = min(lhs - mid, mid - low)
    return Verdict("pluriharmonic_boundary_schwarz", checks, quantities, margin,
                   cfg.margin_tol)
