"""Executable verifiers for the boundary Schwarz statements.

Each verifier checks the hypotheses of one statement, computes the
quantities appearing in its conclusion, and packages the slack into a
:class:`Verdict`.  Hard preconditions raise :class:`HypothesisFailed`;
softer sanity checks are recorded in the verdict and gate ``passed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diff import (
    CauchyConfig,
    RichardsonConfig,
    complex_jacobian,
    holomorphy_residual,
    pluriharmonic_residual,
    radial_boundary_derivative,
    real_jacobian,
)
from .errors import BadParams, HypothesisFailed, PoleHit
from .geometry import (
    BoundaryPoint,
    as_exponent,
    cinner,
    cvector,
    grad_rho,
    l2_norm_rows,
    lp_norm_rows,
    lp_norm_value,
    modulus,
    norm_p,
    normal_tangent_decompose,
    norming_functional,
    pluriharmonic_V,
    realify,
    schwarz_v,
    with_lp_norms,
)
from .maps import Compose, LinearMatrix, MapExpr, evaluate
from .rng import stream

__all__ = [
    "HypothesisCheck",
    "Verdict",
    "LambdaCertificate",
    "VerifyConfig",
    "DiskGrid",
    "sample_ball",
    "operator_norm_lower",
    "verify_schwarz_pick",
    "verify_zhu",
    "verify_kalaj",
    "verify_lp_boundary_schwarz",
    "boundary_slope_check",
    "verify_liu_wang",
    "verify_product_slice",
    "pseudo_hyperbolic_distance",
    "verify_pluriharmonic_boundary",
    "harnack_certificate",
]


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
class LambdaCertificate:
    """Eigenvalue data for the boundary normal at a fixed-norm pair."""

    lambda_: float
    imag_residual: float
    proportionality_residual: float
    tangent_samples_checked: int


@dataclass(frozen=True)
class VerifyConfig:
    hypothesis_tol: float = 1e-8
    margin_tol: float = 1e-7
    samples: int = 2000
    seed: int = 0
    interior_shell: float = 0.999
    tangent_tol: float = 1e-7
    slope_t: float = 1e-3
    slope_rel_tol: float = 0.02
    opnorm_starts: int = 64
    opnorm_iters: int = 80
    cauchy: CauchyConfig = field(default_factory=CauchyConfig)
    richardson: RichardsonConfig = field(default_factory=RichardsonConfig)
    grid_radii: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    grid_angles: int = 16


DEFAULT_CONFIG = VerifyConfig()


def sample_ball(p, n: int, count: int, seed: int, label: str, shell: float = 0.999):
    """Deterministic interior sample: p-sphere directions times uniform radii."""
    e = as_exponent(p)
    gen = stream(seed, label, n, str(e.p))
    raw = gen.standard_normal((count, n)) + 1j * gen.standard_normal((count, n))
    return with_lp_norms(raw, e.p, gen.uniform(0.0, shell, count))


def _holomorphy_check(f: MapExpr, probe: np.ndarray, tol: float) -> HypothesisCheck:
    res = float(holomorphy_residual(f, probe))
    return HypothesisCheck("holomorphic", f.is_holomorphic and res <= tol, res)


def _dual_rows(v: np.ndarray, r: float) -> np.ndarray:
    """|v|^(r-1) sign(v) entrywise, 0 where v is 0, for each row scaled by its
    largest modulus (the maps below normalise, so the scale is free, and every
    power is then of a number in (0, 1])."""
    top = np.abs(v).max(axis=1, keepdims=True)
    u = v / np.where(top > 0.0, top, 1.0)
    a = np.abs(u)
    w = np.zeros_like(a)
    np.power(a, r - 2.0, out=w, where=a > 0.0)
    return u * w


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
    bound; stacked matmuls give each start the gemv a lone start gets.
    """
    J = np.asarray(matrix, dtype=complex)
    e = as_exponent(p)
    if e.is_inf:
        return float(np.abs(J).sum(axis=1).max())
    if e.p == 2.0:
        return float(np.linalg.svd(J, compute_uv=False)[0])
    n = J.shape[1]
    JH = np.conj(J).T
    gen = stream(seed, "opnorm", n, e.p)
    raw = gen.standard_normal((starts, 2, n))
    x = raw[:, 0] + 1j * raw[:, 1]
    x /= lp_norm_rows(x, e.p)[:, None]
    y = (J @ x[:, :, None])[:, :, 0]  # J x for each start's current x
    val = lp_norm_rows(y, e.p)
    live = np.arange(starts)
    for _ in range(iters):
        z = (JH @ _dual_rows(y[live], e.p)[:, :, None])[:, :, 0]
        cand = _dual_rows(z, e.conjugate_value)
        cn = lp_norm_rows(cand, e.p)
        live, cand, cn = live[cn != 0.0], cand[cn != 0.0], cn[cn != 0.0]
        cand /= cn[:, None]
        cy = (J @ cand[:, :, None])[:, :, 0]
        cval = lp_norm_rows(cy, e.p)
        better = cval > val[live]
        live = live[better]
        y[live], val[live] = cy[better], cval[better]
        if not live.size:
            break
    return max([0.0, *val.tolist()])


# ---------------------------------------------------------------------------
# interior Schwarz-Pick bound
# ---------------------------------------------------------------------------


def verify_schwarz_pick(f: MapExpr, p, samples: int | None = None, seed: int | None = None,
                        cfg: VerifyConfig = DEFAULT_CONFIG) -> Verdict:
    """Norm decrease under an origin-fixing self-map, plus derivative norm at 0.

    margin = min over samples of ||z||_p - ||f(z)||_p.
    """
    e = as_exponent(p)
    n = f.input_dim
    if f.output_dim != n:
        raise BadParams("self-map verification needs matching dimensions")
    count = cfg.samples if samples is None else int(samples)
    sd = cfg.seed if seed is None else int(seed)

    origin = np.zeros(n, dtype=complex)
    f0 = evaluate(f, origin)
    origin_res = float(norm_p(f0, e)) if np.any(f0) else 0.0
    if origin_res > 1e-10:
        raise HypothesisFailed(
            f"map must fix the origin; ||f(0)||_p = {origin_res:.3e}"
        )

    pts = sample_ball(e, n, count, sd, "schwarz-pick", cfg.interior_shell)
    vals = evaluate(f, pts)
    in_norms = lp_norm_value(pts, e.p)
    out_norms = lp_norm_value(vals, e.p)
    margin = float(np.min(in_norms - out_norms))

    J0 = complex_jacobian(f, origin, cfg.cauchy).matrix
    opnorm = operator_norm_lower(J0, e, cfg.opnorm_starts, cfg.opnorm_iters, sd)

    probe = pts[0] * 0.5
    checks = (
        HypothesisCheck("fixes_origin", True, origin_res),
        _holomorphy_check(f, probe, cfg.hypothesis_tol * 10),
        HypothesisCheck("operator_norm_le_1", opnorm <= 1.0 + 1e-9,
                        max(0.0, opnorm - 1.0)),
    )
    quantities = {
        "worst_norm_gap": margin,
        "opnorm_lower_estimate": opnorm,
        "samples": float(count),
    }
    return Verdict("schwarz_pick_lp_ball", checks, quantities, margin,
                   max(1e-10, cfg.margin_tol * 1e-3))


# ---------------------------------------------------------------------------
# disk boundary derivative bounds
# ---------------------------------------------------------------------------


def _eval_at_one(f: MapExpr):
    z1 = np.array([1.0 + 0.0j])
    try:
        return evaluate(f, z1)
    except PoleHit:
        return evaluate(f, np.array([1.0 - 1e-9 + 0.0j]))


def verify_zhu(f: MapExpr, cfg: VerifyConfig = DEFAULT_CONFIG) -> Verdict:
    """Sharp lower bound for the radial derivative of a disk self-map at 1."""
    if f.input_dim != 1 or f.output_dim != 1:
        raise BadParams("disk verifier needs a scalar map of one variable")
    f1 = complex(_eval_at_one(f)[0])
    fix_res = abs(f1 - 1.0)
    if fix_res > cfg.hypothesis_tol:
        raise HypothesisFailed(f"radial limit at 1 is {f1}, not 1")

    rad = radial_boundary_derivative(f, np.array([1.0 + 0.0j]),
                                     np.array([1.0 + 0.0j]), cfg.richardson)
    fprime1 = complex(rad.value[0])
    imag_res = abs(fprime1.imag)

    f0 = complex(evaluate(f, np.zeros(1, dtype=complex))[0])
    d = abs(complex_jacobian(f, np.zeros(1, dtype=complex), cfg.cauchy).matrix[0, 0])
    bound = 2.0 * abs(1.0 - f0) ** 2 / (1.0 - abs(f0) ** 2 + d)

    pts = sample_ball(2, 1, 500, cfg.seed, "zhu-selfmap", cfg.interior_shell)
    escape = float(np.max(lp_norm_value(evaluate(f, pts), 2.0)))

    checks = (
        HypothesisCheck("fixes_one_radially", True, fix_res),
        HypothesisCheck("derivative_real", imag_res <= cfg.hypothesis_tol, imag_res),
        _holomorphy_check(f, np.array([0.3 + 0.1j]), cfg.hypothesis_tol * 10),
        HypothesisCheck("maps_disk_to_disk", escape <= 1.0 + 1e-10,
                        max(0.0, escape - 1.0)),
    )
    quantities = {
        "fprime1": fprime1.real,
        "bound": bound,
        "f0_abs": abs(f0),
        "fprime0_abs": d,
        "derivative_error": rad.error_estimate,
    }
    return Verdict("zhu_boundary_disk", checks, quantities,
                   fprime1.real - bound, cfg.margin_tol)


def verify_kalaj(f: MapExpr, p, cfg: VerifyConfig = DEFAULT_CONFIG) -> Verdict:
    """Vector-valued boundary derivative bound for a disk-to-ball map.

    The scalar reduction pairs f with the norming functional of f(1) and
    reruns the disk bound on that slice; both margins are reported.
    """
    if f.input_dim != 1:
        raise BadParams("expected a map of one complex variable")
    e = as_exponent(p)
    b = _eval_at_one(f)
    b_norm = float(norm_p(b, e))
    if abs(b_norm - 1.0) > cfg.hypothesis_tol:
        raise HypothesisFailed(f"||f(1)||_p = {b_norm}, expected 1")

    rad = radial_boundary_derivative(f, np.array([1.0 + 0.0j]),
                                     np.array([1.0 + 0.0j]), cfg.richardson)
    fprime1_norm = float(norm_p(rad.value, e))

    zero = np.zeros(1, dtype=complex)
    f0 = evaluate(f, zero)
    a = float(norm_p(f0, e))
    col = complex_jacobian(f, zero, cfg.cauchy).matrix[:, 0]
    d = float(norm_p(col, e))
    bound = 2.0 * (1.0 - a) ** 2 / (1.0 - a**2 + d)

    ell = norming_functional(b, e)
    scalar = Compose(LinearMatrix(ell[None, :]), f)
    zhu = verify_zhu(scalar, cfg)

    checks = (
        HypothesisCheck("boundary_image_unit_norm", True, abs(b_norm - 1.0)),
        _holomorphy_check(f, np.array([0.2 + 0.2j]), cfg.hypothesis_tol * 10),
        HypothesisCheck("scalar_reduction_margin_ok", zhu.margin >= -cfg.margin_tol,
                        max(0.0, -zhu.margin)),
    )
    quantities = {
        "fprime1_norm": fprime1_norm,
        "bound": bound,
        "f0_norm": a,
        "fprime0_norm": d,
        "scalar_fprime1": zhu.quantities["fprime1"],
        "scalar_margin": zhu.margin,
    }
    return Verdict("kalaj_boundary_banach", checks, quantities,
                   fprime1_norm - bound, cfg.margin_tol)


# ---------------------------------------------------------------------------
# boundary Schwarz lemma on the lp ball
# ---------------------------------------------------------------------------


def boundary_slope_check(f: MapExpr, z0: BoundaryPoint, lam: float,
                         t: float = 1e-3) -> float:
    """Relative error of (1 - ||f(z0 - t v)||_p^p)/t against p*lambda*||v||_2^2."""
    v = schwarz_v(z0)
    return _slope_rel_error(evaluate(f, z0.point - t * v), z0, v, lam, t)


def _slope_rel_error(val, z0: BoundaryPoint, v, lam: float, t: float) -> float:
    """boundary_slope_check given val = f(z0 - t v) and v = schwarz_v(z0)."""
    e = z0.exponent
    slope = (1.0 - float(norm_p(val, e)) ** e.p) / t
    target = e.p * lam * float(np.linalg.norm(v)) ** 2
    if target == 0.0:
        return math.inf
    return abs(slope - target) / abs(target)


def verify_lp_boundary_schwarz(f: MapExpr, z0: BoundaryPoint,
                               cfg: VerifyConfig = DEFAULT_CONFIG):
    """Normal-eigenvalue certificate at a boundary point carried to the boundary.

    Returns (Verdict, LambdaCertificate).  When f does not fix the origin the
    eigenvalue is still reported but the margin is withheld (nan): the lower
    bound lambda >= 1 is only claimed for origin-fixing maps.
    """
    e = z0.exponent
    if e.is_inf or e.p < 2.0:
        raise HypothesisFailed("certificate requires a finite exponent p >= 2")
    n = z0.dim
    if f.input_dim != n or f.output_dim != n:
        raise BadParams("map dimensions must match the boundary point")

    holo_res = float(holomorphy_residual(f, z0.point))
    if not f.is_holomorphic or holo_res > 1e-7:
        raise HypothesisFailed(f"map is not holomorphic at z0 (residual {holo_res:.2e})")

    # one batch: f(z0), f(0) and the slope probe f(z0 - t v)
    vz = schwarz_v(z0)
    w0, f0, slope_val = evaluate(
        f, np.stack([z0.point, np.zeros(n, dtype=complex), z0.point - cfg.slope_t * vz]))
    w_norm = float(norm_p(w0, e))
    if abs(w_norm - 1.0) > cfg.hypothesis_tol:
        raise HypothesisFailed(f"||f(z0)||_p = {w_norm}, boundary image required")
    w0bp = BoundaryPoint(w0, e, tolerance=max(1e-9, 4.0 * e.p * cfg.hypothesis_tol))

    origin_res = float(norm_p(f0, e))
    fixes_origin = origin_res <= cfg.hypothesis_tol

    J = complex_jacobian(f, z0.point, cfg.cauchy).matrix
    vw = schwarz_v(w0bp)
    pulled = np.conj(J).T @ vw
    vz_sq = float(np.linalg.norm(vz)) ** 2
    pairing = complex(cinner(pulled, vz))
    lam = pairing.real / vz_sq
    imag_res = abs(pairing.imag) / vz_sq
    prop_res = float(np.linalg.norm(pulled - lam * vz))

    # tangent invariance: decompose coordinate probes and push the tangent
    # parts through J; images must stay tangent at w0
    gw = grad_rho(w0bp.point, e)
    tangent_res = 0.0
    checked = 0
    for j in range(n):
        for probe in (np.eye(n, dtype=complex)[j], 1j * np.eye(n, dtype=complex)[j]):
            _, beta = normal_tangent_decompose(probe, z0)
            bn = float(np.linalg.norm(beta))
            if bn < 1e-12:
                continue
            image = J @ (beta / bn)
            tangent_res = max(tangent_res, abs(complex(cinner(image, gw)).real))
            checked += 1

    slope_rel = _slope_rel_error(slope_val, z0, vz, lam, cfg.slope_t)

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
    cert = LambdaCertificate(lam, imag_res, prop_res, checked)
    return Verdict("lp_boundary_schwarz", checks, quantities, margin,
                   cfg.margin_tol), cert


def verify_liu_wang(f: MapExpr, z0: BoundaryPoint,
                    cfg: VerifyConfig = DEFAULT_CONFIG) -> Verdict:
    """Euclidean-ball boundary fixed point: eigenvalue bound and determinant cap."""
    e = z0.exponent
    if e.is_inf or e.p != 2.0:
        raise HypothesisFailed("this statement is specific to the round ball p = 2")
    n = z0.dim
    if f.input_dim != n or f.output_dim != n:
        raise BadParams("map dimensions must match the boundary point")

    w0 = evaluate(f, z0.point)
    fix_res = float(np.linalg.norm(w0 - z0.point))
    if fix_res > cfg.hypothesis_tol:
        raise HypothesisFailed(f"z0 is not fixed: ||f(z0) - z0|| = {fix_res:.3e}")

    holo_res = float(holomorphy_residual(f, z0.point))
    if not f.is_holomorphic or holo_res > 1e-7:
        raise HypothesisFailed(f"map is not holomorphic at z0 (residual {holo_res:.2e})")

    J = complex_jacobian(f, z0.point, cfg.cauchy).matrix
    pairing = complex(cinner(J @ z0.point, z0.point))
    lam = pairing.real
    imag_res = abs(pairing.imag)

    f0 = evaluate(f, np.zeros(n, dtype=complex))
    f0_norm = float(np.linalg.norm(f0))
    if f0_norm >= 1.0:
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


def pseudo_hyperbolic_distance(a: np.ndarray, b: np.ndarray, p) -> float:
    """Pseudo-hyperbolic distance on the round ball (p=2) or polydisk (p=inf)."""
    e = as_exponent(p)
    a = cvector(a)
    b = cvector(b)
    if not (e.is_inf or e.p == 2.0):
        raise BadParams("pseudo-hyperbolic distance implemented for p in {2, inf}")
    return float(_pseudo_hyperbolic_rows(a[None, :], b, e)[0])


def _square(x):
    """x ** 2 by libm pow, as Python's float ** 2 rounds it; an array's ** 2
    multiplies, which can differ in the last bit."""
    return np.float_power(x, 2.0)


def _cmul(a, b):
    """a * b elementwise, rounded as numpy's one-point (unfused) complex product."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _pseudo_hyperbolic_rows(a: np.ndarray, b: np.ndarray, e) -> np.ndarray:
    """Pseudo-hyperbolic distance from each row of a (k, n) to b, for p in {2, inf}."""
    if e.is_inf:
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


def _slice_chain(zs, ws, vals, coefs, z_fix, e):
    """Least slacks of the proof's two inequalities over the rows (z, w) -> f(z, w).

    With v the Moebius-normalised value of each f-row, the chain is
    |w - v|^2 <= |1 - conj(w) v|^2 <= (1 - |w|^2) / (1 - delta(z, z_fix)^2).
    """
    delta = _pseudo_hyperbolic_rows(zs, z_fix, e)
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
                         cfg: VerifyConfig = DEFAULT_CONFIG) -> Verdict:
    """A map of a ball-polydisk product that fixes one slice is slice-constant.

    f takes the concatenated input (z, w) in C^{n+m} and returns m disk values;
    the hypothesis is f(z_fix, w) = phi(w) for all w.  The margin certifies the
    conclusion f(z, w) = phi(w) everywhere; the proof's inequality chain is
    checked on samples after numerically normalizing phi to the identity.
    """
    e = as_exponent(p)
    if not (e.is_inf or e.p == 2.0):
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
    if slice_gap > 1e-10:
        raise HypothesisFailed(
            f"slice at z_fix is not fixed: sup gap {slice_gap:.3e}"
        )

    # conclusion: f(z, w) = phi(w) for all z
    zs = sample_ball(e, n, cfg.samples, cfg.seed, "product-z", 0.98)
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
        probe = 0.5 * (gen2.standard_normal(8) + 1j * gen2.standard_normal(8))
        probe /= np.maximum(1.0, np.abs(probe) / 0.9)
        cols = np.zeros((8, m), dtype=complex)
        cols[:, i] = probe
        fit_res = max(fit_res, float(np.max(np.abs(
            _moebius_apply(coef, probe) - evaluate(phi, cols)[:, i]))))
        coefs.append(coef)
    if fit_res > 1e-9:
        raise BadParams("phi must act componentwise by disk Moebius maps")

    chain_first, chain_second = _slice_chain(zs[:256], ws[:256], fvals[:256], coefs, z_fix, e)

    checks = (
        HypothesisCheck("slice_is_fixed", True, slice_gap),
        _holomorphy_check(f, np.concatenate([z_fix * 0.5, np.zeros(m)]).astype(complex),
                          cfg.hypothesis_tol * 10),
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


def _pair_rows(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """realify(row) @ V for each row of w, bit for bit (one BLAS dot per row).

    R @ V and (R * V).sum(1) can round differently from the per-row dot.
    """
    cvector(w)  # rejects non-finite entries, as realify does
    R = np.concatenate([w.real, w.imag], axis=1)
    return (R[:, None, :] @ V[:, None])[:, 0, 0]


@dataclass(frozen=True)
class DiskGrid:
    """Real samples of a function on concentric circles plus the center value."""

    radii: tuple
    values: np.ndarray  # shape (len(radii), angles)
    center: float


def harnack_certificate(grid: DiskGrid) -> Verdict:
    """Two-sided Harnack slack for a positive harmonic function sample grid."""
    vals = np.asarray(grid.values, dtype=float)
    c = float(grid.center)
    lower_slack = math.inf
    upper_slack = math.inf
    for i, r in enumerate(grid.radii):
        lo = (1.0 - r) / (1.0 + r) * c
        hi = (1.0 + r) / (1.0 - r) * c
        lower_slack = min(lower_slack, float(np.min(vals[i] - lo)))
        upper_slack = min(upper_slack, float(np.min(hi - vals[i])))
    margin = min(lower_slack, upper_slack)
    checks = (
        HypothesisCheck("center_positive", c > 0.0, max(0.0, -c)),
        HypothesisCheck("samples_nonnegative", float(vals.min()) >= 0.0,
                        max(0.0, -float(vals.min()))),
    )
    quantities = {
        "center_value": c,
        "lower_slack": lower_slack,
        "upper_slack": upper_slack,
        "min_sample": float(vals.min()),
    }
    return Verdict("harnack_positivity", checks, quantities, margin, 1e-12)


def verify_pluriharmonic_boundary(f: MapExpr, z0: BoundaryPoint,
                                  cfg: VerifyConfig = DEFAULT_CONFIG) -> Verdict:
    """Chain of lower bounds for the radial real-derivative pairing at z0.

    lhs = (J_r z0') . V >= mid = (1 - f(0)' . V)/2 >= low = (1 - ||f(0)'||_p)/2 > 0
    where V is the boundary weight vector at w0 = f(z0) and J_r the real
    Jacobian of the realified map.
    """
    e = z0.exponent
    n = z0.dim
    if f.input_dim != n:
        raise BadParams("map input dimension must match the boundary point")

    # interior pluriharmonicity
    gen = stream(cfg.seed, "ph-interior", n)
    probes = 0.3 * (gen.standard_normal((4, n)) + 1j * gen.standard_normal((4, n)))
    probes = np.vstack([probes, 0.9 * z0.point[None, :]])
    # Python's max, as a loop over the probes takes it (a NaN residual is dropped)
    ph_res = max(0.0, *pluriharmonic_residual(f, probes, seed=cfg.seed).tolist())
    if ph_res > 1e-6:
        raise HypothesisFailed(f"map is not pluriharmonic (residual {ph_res:.2e})")

    # one batch: f(z0), f(0) and the Harnack grid of phi(zeta) = 1 - (f(zeta z0))' . V
    angles = 2.0 * np.pi * np.arange(cfg.grid_angles) / cfg.grid_angles
    zetas = np.asarray(cfg.grid_radii)[:, None] * np.exp(1j * angles)
    fvals = evaluate(f, np.vstack([z0.point, np.zeros(n, dtype=complex),
                                   (zetas[:, :, None] * z0.point).reshape(-1, n)]))
    w0, f0, fvals = fvals[0], fvals[1], fvals[2:]
    w_norm = float(norm_p(w0, e))
    if abs(w_norm - 1.0) > cfg.hypothesis_tol:
        raise HypothesisFailed(f"||f(z0)||_p = {w_norm}, boundary image required")
    slack = 1e-6 if e.is_inf else max(1e-9, 4.0 * e.p * cfg.hypothesis_tol)
    w0bp = BoundaryPoint(w0, e, tolerance=slack)
    V = pluriharmonic_V(w0bp)

    # C1 at z0: two ladder rungs of the real Jacobian must agree
    Jh = real_jacobian(f, z0.point, h=1e-4).matrix
    Jh2 = real_jacobian(f, z0.point, h=5e-5).matrix
    c1_res = float(np.max(np.abs(Jh - Jh2)))
    if c1_res > 1e-5:
        raise HypothesisFailed(f"real Jacobian ladder disagrees ({c1_res:.2e})")

    z0r = realify(z0.point)
    lhs = float((Jh2 @ z0r) @ V)
    f0r = realify(f0)
    mid = (1.0 - float(f0r @ V)) / 2.0
    low = (1.0 - lp_norm_value(f0r, e.p)) / 2.0

    vals = (1.0 - _pair_rows(fvals, V)).reshape(zetas.shape)
    phi0 = 1.0 - float(f0r @ V)
    harnack = harnack_certificate(DiskGrid(tuple(cfg.grid_radii), vals, phi0))

    checks = (
        HypothesisCheck("pluriharmonic", True, ph_res),
        HypothesisCheck("boundary_to_boundary", True, abs(w_norm - 1.0)),
        HypothesisCheck("c1_at_boundary", True, c1_res),
        HypothesisCheck("low_positive", low > 0.0, max(0.0, -low)),
        HypothesisCheck("harnack", harnack.passed, max(0.0, -harnack.margin)),
    )
    quantities = {
        "lhs": lhs,
        "mid": mid,
        "low": low,
        "margin_lhs_mid": lhs - mid,
        "margin_mid_low": mid - low,
        "harnack_margin": harnack.margin,
    }
    margin = min(lhs - mid, mid - low)
    return Verdict("pluriharmonic_boundary_schwarz", checks, quantities, margin,
                   cfg.margin_tol)
