"""Rigidity certificates: boundary fixed points plus Jacobian pairing equations.

A rigidity instance bundles a self-map, a set of boundary anchors, and one of
four pairing variants.  The checker evaluates the anchor equations and, when
they pass with a full-rank anchor set, certifies the conclusion f = id on a
low-discrepancy interior grid.  The proof-chain verifier walks the
intermediate identities one link at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .diff import (
    CauchyConfig,
    RichardsonConfig,
    complex_jacobian,
    holomorphy_residual,
    radial_boundary_derivative,
)
from .errors import BadParams, HypothesisFailed
from .geometry import (
    BoundaryPoint,
    as_exponent,
    lp_norm_value,
    norm_p,
    rigidity_v,
    schwarz_v,
    with_lp_norms,
)
from .maps import Compose, LinearMatrix, MapExpr, evaluate
from .verify import HypothesisCheck, Verdict

__all__ = [
    "VARIANTS",
    "RigidityInstance",
    "RigidityReport",
    "RigidityConfig",
    "check_rigidity",
    "check_proof_chain",
    "equality_case_1d",
    "counterexample_polydisk_eigen",
    "halton_ball_grid",
]

VARIANTS = ("p2", "polydisk", "schwarz_v", "rigidity_v")

CERTIFIED = "certified"
EQUATIONS_FAIL = "equations_fail"
HYPOTHESES_FAIL = "hypotheses_fail"


@dataclass(frozen=True)
class RigidityConfig:
    origin_tol: float = 1e-10
    holo_tol: float = 1e-7
    fixed_tol: float = 1e-8
    equation_tol: float = 1e-7
    identity_tol: float = 1e-7
    selfmap_samples: int = 2000
    grid_points: int = 10_000
    seed: int = 0
    cauchy: CauchyConfig = field(default_factory=CauchyConfig)
    richardson: RichardsonConfig = field(default_factory=RichardsonConfig)


DEFAULT_RIGIDITY_CONFIG = RigidityConfig()


@dataclass(frozen=True)
class RigidityInstance:
    map: MapExpr
    anchors: tuple
    exponent: object
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise BadParams(f"unknown rigidity variant {self.variant!r}")
        e = as_exponent(self.exponent)
        object.__setattr__(self, "exponent", e)
        anchors = tuple(self.anchors)
        if not anchors:
            raise BadParams("at least one anchor is required")
        for a in anchors:
            if not isinstance(a, BoundaryPoint):
                raise BadParams("anchors must be BoundaryPoint instances")
            if a.exponent != e:
                raise BadParams("anchor exponent disagrees with the instance")
        object.__setattr__(self, "anchors", anchors)
        n = anchors[0].dim
        if any(a.dim != n for a in anchors):
            raise BadParams("anchors must share one dimension")
        if self.map.input_dim != n or self.map.output_dim != n:
            raise BadParams("map must be a self-map of the anchors' space")
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                if np.allclose(anchors[i].point, anchors[j].point, atol=1e-12):
                    raise BadParams("anchors must be distinct")
        if self.variant == "p2" and (e.is_inf or e.p != 2.0):
            raise BadParams("the p2 variant requires exponent 2")
        if self.variant == "polydisk":
            if not e.is_inf:
                raise BadParams("the polydisk variant requires exponent inf")
            for a in anchors:
                if not a.on_distinguished_boundary():
                    raise BadParams("polydisk anchors must be torus points")
        if self.variant == "schwarz_v" and not e.is_inf:
            if e.p < 2.0:
                raise BadParams("the schwarz_v variant requires p >= 2 or inf")
        if self.variant == "schwarz_v" and e.is_inf:
            for a in anchors:
                if not a.on_distinguished_boundary():
                    raise BadParams("schwarz_v anchors at p=inf must be torus points")
        if self.variant == "rigidity_v" and e.is_inf:
            raise BadParams("the rigidity_v variant requires a finite exponent")

    @property
    def dim(self) -> int:
        return self.anchors[0].dim

    @property
    def target(self) -> float:
        return float(self.dim) if self.variant == "polydisk" else 1.0


@dataclass(frozen=True)
class RigidityReport:
    verdict: str
    reason: str
    fixed_point_residuals: tuple
    equation_values: tuple
    rank: int
    nonneg_ok: bool
    jf0_residuals: tuple
    identity_residual: float
    quantities: dict

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_json(self) -> dict:
        eq = [[v.real, v.imag] for v in self.equation_values]
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "fixed_point_residuals": list(self.fixed_point_residuals),
            "equation_values": eq,
            "rank": self.rank,
            "nonneg_ok": self.nonneg_ok,
            "jf0_residuals": list(self.jf0_residuals),
            "identity_residual": self.identity_residual,
            "quantities": dict(self.quantities),
        }


def _pairing_row(inst: RigidityInstance, anchor: BoundaryPoint) -> np.ndarray:
    """Row vector r with equation value r . (J alpha)."""
    if inst.variant in ("p2", "polydisk"):
        return np.conj(anchor.point)
    if inst.variant == "schwarz_v":
        return np.conj(schwarz_v(anchor))
    return rigidity_v(anchor)  # real; the theorem pairs without conjugating J alpha


def halton_ball_grid(p, n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy interior grid of the unit p-ball."""
    e = as_exponent(p)
    sampler = qmc.Halton(d=2 * n + 1, scramble=False)
    u = sampler.random(count + 1)[1:]  # drop the all-zero first point
    x = 2.0 * u[:, : 2 * n] - 1.0
    z = x[:, :n] + 1j * x[:, n:]
    return with_lp_norms(z, e.p, 0.999 * u[:, -1])


def _identity_residual(f: MapExpr, inst: RigidityInstance,
                       cfg: RigidityConfig) -> float:
    e = inst.exponent
    n = inst.dim
    grid = halton_ball_grid(e, n, cfg.grid_points)
    segs = []
    for a in inst.anchors:
        for t in np.linspace(0.05, 0.99, 12):
            segs.append(t * a.point)
    pts = np.vstack([grid, np.array(segs)])
    gaps = lp_norm_value(evaluate(f, pts) - pts, e.p)
    return float(np.max(gaps))


def check_rigidity(inst: RigidityInstance,
                   cfg: RigidityConfig = DEFAULT_RIGIDITY_CONFIG) -> RigidityReport:
    """Evaluate the anchor equations and certify or refute the identity conclusion."""
    f = inst.map
    e = inst.exponent
    n = inst.dim
    quantities: dict = {}

    def partial(verdict, reason, fixed=(), eqs=(), rank=-1, nonneg=True,
                jf0=(), ident=math.nan):
        return RigidityReport(verdict, reason, tuple(fixed), tuple(eqs), rank,
                              nonneg, tuple(jf0), ident, dict(quantities))

    f0 = evaluate(f, np.zeros(n, dtype=complex))
    origin_res = float(norm_p(f0, e))
    quantities["origin_residual"] = origin_res
    if origin_res > cfg.origin_tol:
        return partial(HYPOTHESES_FAIL, "map does not fix the origin")

    worst_holo = 0.0
    for a in inst.anchors:
        worst_holo = max(worst_holo, float(holomorphy_residual(f, a.point)))
    quantities["holomorphy_residual"] = worst_holo
    if not f.is_holomorphic or worst_holo > cfg.holo_tol:
        return partial(HYPOTHESES_FAIL, "map is not holomorphic at the anchors")

    from .verify import sample_ball

    pts = sample_ball(e, n, cfg.selfmap_samples, cfg.seed, "rigidity-selfmap", 0.999)
    escape = float(np.max(lp_norm_value(evaluate(f, pts), e.p)))
    quantities["selfmap_escape"] = max(0.0, escape - 1.0)
    if escape > 1.0 + 1e-10:
        return partial(HYPOTHESES_FAIL, "map leaves the unit ball on samples")

    fixed = []
    for a in inst.anchors:
        fixed.append(float(norm_p(evaluate(f, a.point) - a.point, e)))
    if max(fixed) > cfg.fixed_tol:
        return partial(HYPOTHESES_FAIL, "anchor is not a fixed point", fixed=fixed)

    J0 = complex_jacobian(f, np.zeros(n, dtype=complex), cfg.cauchy).matrix
    eqs = []
    jf0 = []
    holder_norms = []
    for a in inst.anchors:
        row = _pairing_row(inst, a)
        J = complex_jacobian(f, a.point, cfg.cauchy).matrix
        eqs.append(complex(row @ (J @ a.point)))
        jf0.append(float(norm_p(J0 @ a.point - a.point, e)))
        holder_norms.append(float(norm_p(J0 @ a.point, e)))
    quantities["holder_norm_max"] = max(holder_norms)
    quantities["holder_norm_min"] = min(holder_norms)

    eq_gap = max(abs(v - inst.target) for v in eqs)
    quantities["equation_gap"] = eq_gap
    if eq_gap > cfg.equation_tol:
        return partial(EQUATIONS_FAIL,
                       f"pairing equations miss the target {inst.target}",
                       fixed=fixed, eqs=eqs, jf0=jf0)

    # variant hypothesis: real anchors with nonnegative coordinates
    A = np.array([a.point for a in inst.anchors])
    nonneg = True
    if inst.variant == "rigidity_v":
        max_imag = float(np.max(np.abs(A.imag)))
        min_real = float(np.min(A.real))
        quantities["anchor_max_imag"] = max_imag
        quantities["anchor_min_real"] = min_real
        nonneg = max_imag <= 1e-12 and min_real >= -1e-12

    # rank over R for real-anchor variants, over C otherwise
    M = A.real if inst.variant == "rigidity_v" else A
    svals = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals[0] > 0 else 0
    quantities["rank"] = float(rank)

    ident = _identity_residual(f, inst, cfg)
    quantities["identity_residual"] = ident

    if not nonneg:
        return partial(HYPOTHESES_FAIL,
                       "anchors must be real with nonnegative coordinates",
                       fixed=fixed, eqs=eqs, rank=rank, nonneg=False,
                       jf0=jf0, ident=ident)
    if rank < n:
        return partial(HYPOTHESES_FAIL, "insufficient anchors",
                       fixed=fixed, eqs=eqs, rank=rank, nonneg=nonneg,
                       jf0=jf0, ident=ident)
    if ident > cfg.identity_tol:
        return partial(HYPOTHESES_FAIL,
                       "identity residual too large despite passing equations",
                       fixed=fixed, eqs=eqs, rank=rank, nonneg=nonneg,
                       jf0=jf0, ident=ident)
    return partial(CERTIFIED, "", fixed=fixed, eqs=eqs, rank=rank,
                   nonneg=nonneg, jf0=jf0, ident=ident)


def _slice_map(inst: RigidityInstance, anchor: BoundaryPoint) -> MapExpr:
    """psi(xi) = row . f(xi * anchor) / target, a scalar disk map."""
    row = _pairing_row(inst, anchor) / inst.target
    col = anchor.point[:, None]
    return Compose(LinearMatrix(row[None, :]), Compose(inst.map, LinearMatrix(col)))


def check_proof_chain(inst: RigidityInstance,
                      cfg: RigidityConfig = DEFAULT_RIGIDITY_CONFIG) -> Verdict:
    """Walk the intermediate identities behind the rigidity conclusion.

    Links per anchor: (a) the slice psi maps the disk into the closed disk,
    (b) psi(0) = 0, psi(1) = 1, psi'(1) = 1, (c) psi = id on a radial grid,
    (d) J_f(0) anchor = anchor; then (e) full anchor rank forces J_f(0) = I.
    """
    report = check_rigidity(inst, cfg)
    if report.verdict == EQUATIONS_FAIL:
        raise HypothesisFailed("pairing equations fail; no chain to certify")
    if not report.equation_values:
        raise HypothesisFailed(f"instance rejected before equations: {report.reason}")

    f = inst.map
    e = inst.exponent
    n = inst.dim
    gen_pts = halton_ball_grid(2, 1, 200)[:, 0]

    a_res = 0.0
    b_res = 0.0
    c_res = 0.0
    for a in inst.anchors:
        psi = _slice_map(inst, a)
        vals = evaluate(psi, gen_pts[:, None])
        a_res = max(a_res, float(np.max(np.abs(vals))) - 1.0)
        psi0 = complex(evaluate(psi, np.zeros(1, dtype=complex))[0])
        psi1 = complex(evaluate(psi, np.ones(1, dtype=complex))[0])
        der = radial_boundary_derivative(psi, np.ones(1, dtype=complex),
                                         np.ones(1, dtype=complex), cfg.richardson)
        b_res = max(b_res, abs(psi0), abs(psi1 - 1.0),
                    abs(complex(der.value[0]) - 1.0))
        ts = np.linspace(0.05, 0.95, 10)
        ids = evaluate(psi, ts.astype(complex)[:, None])[:, 0]
        c_res = max(c_res, float(np.max(np.abs(ids - ts))))

    d_res = max(report.jf0_residuals)
    full_rank = report.rank == n
    J0 = complex_jacobian(f, np.zeros(n, dtype=complex), cfg.cauchy).matrix
    e_res = float(np.linalg.norm(J0 - np.eye(n))) if full_rank else math.inf

    checks = (
        HypothesisCheck("slice_into_disk", a_res <= 1e-10, max(0.0, a_res)),
        HypothesisCheck("slice_boundary_data", b_res <= 1e-7, b_res),
        HypothesisCheck("slice_is_identity", c_res <= 1e-9, c_res),
        HypothesisCheck("origin_jacobian_fixes_anchors", d_res <= 1e-7, d_res),
        HypothesisCheck("origin_jacobian_is_identity", e_res <= 1e-7,
                        e_res if math.isfinite(e_res) else 1.0),
    )
    quantities = {
        "slice_escape": max(0.0, a_res),
        "slice_boundary_residual": b_res,
        "slice_identity_residual": c_res,
        "jf0_anchor_residual": d_res,
        "jf0_identity_residual": e_res,
        "rank": float(report.rank),
    }
    slacks = [1e-10 - a_res, 1e-7 - b_res, 1e-9 - c_res, 1e-7 - d_res]
    slacks.append(1e-7 - e_res if math.isfinite(e_res) else -1.0)
    return Verdict("rigidity_proof_chain", checks, quantities,
                   min(slacks), 0.0)


def equality_case_1d(f: MapExpr, cfg: RigidityConfig = DEFAULT_RIGIDITY_CONFIG) -> Verdict:
    """Boundary derivative exactly 1 forces the identity on the disk."""
    if f.input_dim != 1 or f.output_dim != 1:
        raise BadParams("expected a scalar self-map of the disk")
    f0 = complex(evaluate(f, np.zeros(1, dtype=complex))[0])
    if abs(f0) > cfg.origin_tol:
        raise HypothesisFailed(f"f(0) = {f0}, expected 0")
    f1 = complex(evaluate(f, np.ones(1, dtype=complex))[0])
    if abs(f1 - 1.0) > cfg.fixed_tol:
        raise HypothesisFailed(f"f(1) = {f1}, expected 1")
    der = radial_boundary_derivative(f, np.ones(1, dtype=complex),
                                     np.ones(1, dtype=complex), cfg.richardson)
    fprime1 = complex(der.value[0])
    equality = abs(fprime1 - 1.0) <= cfg.fixed_tol

    ident = math.nan
    if equality:
        grid = halton_ball_grid(2, 1, 2000)
        ident = float(np.max(np.abs(evaluate(f, grid) - grid)))
        margin = cfg.identity_tol - ident
        ok = ident <= cfg.identity_tol
    else:
        margin = fprime1.real - 1.0
        ok = True
    checks = (
        HypothesisCheck("fixes_origin", True, abs(f0)),
        HypothesisCheck("fixes_one", True, abs(f1 - 1.0)),
        HypothesisCheck("identity_when_equality", ok,
                        0.0 if not equality else max(0.0, ident - cfg.identity_tol)),
    )
    quantities = {
        "fprime1": fprime1.real,
        "equality_detected": 1.0 if equality else 0.0,
        "identity_residual": ident,
    }
    return Verdict("disk_rigidity_equality", checks, quantities, margin, 0.0)


def counterexample_polydisk_eigen(n: int = 3,
                                  cfg: RigidityConfig = DEFAULT_RIGIDITY_CONFIG) -> Verdict:
    """Squaring one polydisk coordinate breaks normal proportionality at (1,...,1).

    The Jacobian applied to the torus point has least-squares proportionality
    residual sqrt((n-1)/n) against the point itself, far from zero.
    """
    from .gallery import gallery

    if n < 2:
        raise BadParams("the counterexample needs n >= 2")
    f = gallery("square_first", {"n": n})
    z0 = np.ones(n, dtype=complex)
    J = complex_jacobian(f, z0, cfg.cauchy).matrix
    expected = np.diag([2.0] + [1.0] * (n - 1)).astype(complex)
    diag_res = float(np.max(np.abs(J - expected)))
    jw = J @ z0
    lam_star = float((np.conj(z0) @ jw).real / n)
    residual = float(np.linalg.norm(jw - lam_star * z0))
    checks = (
        HypothesisCheck("jacobian_diagonal", diag_res <= 1e-9, diag_res),
    )
    quantities = {
        "lambda_star": lam_star,
        "residual": residual,
        "threshold": 0.5,
    }
    return Verdict("polydisk_normal_counterexample", checks, quantities,
                   residual - 0.5, 0.0)
