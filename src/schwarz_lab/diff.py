"""Numerical differentiation of map expressions.

Two independent routes to the complex Jacobian are kept deliberately
separate so they can cross-check each other:

* complex_jacobian: trapezoidal Cauchy-integral quadrature on small circles
  (spectrally accurate for analytic maps);
* complex_jacobian_fd: fourth-order central differences in the real and
  imaginary directions, combined via the Cauchy-Riemann relations.

The one-sided boundary derivative uses a Richardson ladder on the radial
difference quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientClearance,
    NoConvergence,
    PoleHit,
    QuadratureDivergence,
    StepTooLarge,
)
from .geometry import BoundaryPoint, cvector, l2_norm_rows
from .maps import MapExpr, _EvalCtx, evaluate
from . import rng as _rng


@dataclass(frozen=True)
class CauchyConfig:
    nodes: int = 32             # quadrature points on the base circle
    radius: float = 1e-2        # circle radius per coordinate
    divergence_tol: float = 1e-8  # allowed change when doubling the node count
    denominator_floor: float = 1e-6  # smallest admissible Moebius denominator


@dataclass(frozen=True)
class RichardsonConfig:
    t0: float = 1e-2            # coarsest one-sided step
    stages: int = 8             # halvings of the step
    tol: float = 1e-9           # convergence of successive extrapolants


@dataclass(frozen=True)
class JacobianRecord:
    matrix: np.ndarray
    method: str
    scale: float                # circle radius or step size
    error_estimate: float


@dataclass(frozen=True)
class RadialDerivative:
    value: np.ndarray           # J_f(z0) . inward
    error_estimate: float
    stages_used: int


def _eval_guarded(f: MapExpr, points, floor: float, err_cls, what: str) -> np.ndarray:
    """Evaluate f on a batch, rejecting near-pole samples."""
    ctx = _EvalCtx()
    try:
        vals = evaluate(f, points, ctx=ctx)
    except PoleHit as exc:
        raise err_cls(f"{what}: {exc}") from exc
    if ctx.min_denominator < floor:
        raise err_cls(
            f"{what}: Moebius denominator {ctx.min_denominator:.2e} below floor {floor:.1e}"
        )
    return vals


# ---------------------------------------------------------------------------
# complex Jacobians
# ---------------------------------------------------------------------------

def _stack(z):
    """One point (n,) or a stack (k, n) as a validated (k, n) array, plus the
    leading shape to give the results back in."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return cvector(z).reshape(-1, z.shape[-1]), z.shape[:-1]


def _weighted_sums(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """(k, c, s, m) samples -> (k, m, c) sums over s weighted by w.

    One numpy sum per (k, c) slice, as a one-point call takes it: a single
    sum over the s axis of the whole stack can round differently.
    """
    return np.array([np.stack([(w[:, None] * v).sum(axis=0) for v in g], axis=1) for g in vals])


# Fourth-order central difference: f'(x) ~ sum_k w_k f(x + o_k h) / (12 h).
_FD4_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD4_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0])


def complex_jacobian(f: MapExpr, z, cfg: CauchyConfig | None = None) -> JacobianRecord:
    """Cauchy-integral Jacobian at an interior point of analyticity.

    Column j is (1/(2K r)) * sum_k f(z + r w^k e_j) w^{-k} over 2K roots of
    unity; the even-node subsum gives the K-point rule and the discrepancy
    between the two rules is the reported error estimate.  z is one point
    (n,), giving an (m, n) matrix, or a stack (k, n), giving (k, m, n)
    matrices and the worst error estimate; a stack's matrices equal the
    one-point results bit for bit.  All n circles of every point are
    evaluated as one batch.
    """
    cfg = cfg or CauchyConfig()
    zs, lead = _stack(z)
    k, n = zs.shape
    K = int(cfg.nodes)
    r = float(cfg.radius)
    if K < 4 or r <= 0.0:
        raise QuadratureDivergence("quadrature needs nodes >= 4 and radius > 0")
    angles = 2.0 * np.pi * np.arange(2 * K) / (2 * K)
    roots = np.exp(1j * angles)
    weights = np.exp(-1j * angles)
    pts = np.tile(zs[:, None, None, :], (1, n, 2 * K, 1))
    cols = np.arange(n)
    pts[:, cols, :, cols] += r * roots
    vals = _eval_guarded(
        f, pts.reshape(-1, n), cfg.denominator_floor, InsufficientClearance, "cauchy quadrature"
    ).reshape(k, n, 2 * K, -1)
    jac2 = _weighted_sums(weights, vals) / (2 * K * r)
    jac1 = _weighted_sums(weights[::2], vals[:, :, ::2]) / (K * r)
    err = float(np.max(np.abs(jac2 - jac1))) if jac2.size else 0.0
    if err > cfg.divergence_tol:
        raise QuadratureDivergence(
            f"doubling the node count moved entries by {err:.2e} "
            f"(tol {cfg.divergence_tol:.1e}); point too close to a singularity?"
        )
    return JacobianRecord(jac2.reshape(lead + jac2.shape[1:]), "cauchy_integral", r, err)


def _fd4(f: MapExpr, z, h: float, what: str) -> np.ndarray:
    """Fourth-order derivatives of f along the 2n real directions e_j, i e_j.

    Returns shape (m, 2n) for one point, (k, m, 2n) for a (k, n) stack, the
    x-directions first.  The 8n probe points of every point are evaluated as
    one batch.
    """
    zs, lead = _stack(z)
    k, n = zs.shape
    dirs = np.vstack([np.eye(n), 1j * np.eye(n)])
    pts = zs[:, None, None, :] + (_FD4_OFFSETS[:, None, None] * h) * dirs
    vals = _eval_guarded(
        f, pts.reshape(-1, n), CauchyConfig.denominator_floor, StepTooLarge, what
    ).reshape(k, len(_FD4_OFFSETS), 2 * n, -1)
    d = _weighted_sums(_FD4_WEIGHTS / (12.0 * h), vals.transpose(0, 2, 1, 3))
    return d.reshape(lead + d.shape[1:])


def complex_jacobian_fd(f: MapExpr, z, h: float = 1e-4) -> JacobianRecord:
    """Finite-difference Jacobian: (d/dx - i d/dy)/2 per coordinate.

    Independent of the quadrature route; used as its cross-check.  The
    error estimate compares steps h and 2h.
    """
    z = cvector(z)
    n = z.size
    d, d2 = (_fd4(f, z, step, "finite difference") for step in (h, 2.0 * h))
    jac = 0.5 * (d[:, :n] - 1j * d[:, n:])
    jac_coarse = 0.5 * (d2[:, :n] - 1j * d2[:, n:])
    err = float(np.max(np.abs(jac - jac_coarse))) / 15.0 if jac.size else 0.0
    return JacobianRecord(jac, "central_difference", h, err)


def real_jacobian(f: MapExpr, z, h: float = 1e-4) -> JacobianRecord:
    """Real 2m-by-2n Jacobian acting on realifications (Re, Im stacked).

    D maps the realification of an input perturbation to the realification
    of the output change: rows are (Re f, Im f), columns (x_j then y_j).
    Fourth-order central differences in each of the 2n real directions.
    A (k, n) stack of points gives a (k, 2m, 2n) stack of matrices.
    """
    d = _fd4(f, z, h, "real jacobian")
    return JacobianRecord(np.concatenate([d.real, d.imag], axis=-2), "real_central_difference",
                          h, math.nan)


def cr_blocks(real_jac: np.ndarray):
    """Split a 2m-by-2n real Jacobian (or a stack of them) into its (A, B; C, D) blocks."""
    two_m, two_n = real_jac.shape[-2:]
    m, n = two_m // 2, two_n // 2
    return (
        real_jac[..., :m, :n],
        real_jac[..., :m, n:],
        real_jac[..., m:, :n],
        real_jac[..., m:, n:],
    )


def holomorphy_residual(f: MapExpr, z, h: float = 1e-4):
    """Cauchy-Riemann defect ||A - D||_F + ||B + C||_F of the real Jacobian.

    Zero (to discretization error) iff f is holomorphic near z.  One point
    gives a float; a (k, n) stack gives the k defects from one real-Jacobian
    batch, each equal to its one-point value bit for bit.
    """
    a, b, c, d = cr_blocks(real_jacobian(f, z, h=h).matrix)
    size = a.shape[-2] * a.shape[-1]
    res = l2_norm_rows((a - d).reshape(-1, size)) + l2_norm_rows((b + c).reshape(-1, size))
    return res if a.ndim == 3 else float(res[0])


def pluriharmonic_residual(f: MapExpr, z, h: float = 2e-4, seed=0) -> float:
    """Max 5-point discrete Laplacian of f along 8 random complex lines through z.

    Pluriharmonic maps are harmonic on every complex line, so the residual
    is O(h^2) for them and order-one for genuinely non-harmonic maps such
    as z -> |z_1|^2.  All 40 probe points are evaluated as one batch.
    """
    z = cvector(z)
    n = z.size
    gen = _rng.stream(seed, "ph-residual", n)
    pts = []
    for _ in range(8):
        d = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        d /= np.linalg.norm(d)
        pts += [z + h * d, z - h * d, z + 1j * h * d, z - 1j * h * d, z]
    v = evaluate(f, np.array(pts)).reshape(8, 5, -1)
    lap = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3] - 4.0 * v[:, 4]) / h**2
    return float(np.max(np.abs(lap)))


# ---------------------------------------------------------------------------
# one-sided boundary derivative
# ---------------------------------------------------------------------------


def radial_boundary_derivative(
    f: MapExpr,
    z0,
    inward,
    cfg: RichardsonConfig | None = None,
) -> RadialDerivative:
    """Richardson-extrapolated J_f(z0) . inward from one-sided quotients.

    Uses Q(t) = (f(z0) - f(z0 - t * inward)) / t on the ladder
    t = t0 * 2^{-k}; the quotient has an expansion in integer powers of t,
    so each extrapolation stage cancels one more order.
    """
    cfg = cfg or RichardsonConfig()
    z0 = z0.point if isinstance(z0, BoundaryPoint) else cvector(z0)
    inward = cvector(inward)
    if inward.size != z0.size:
        raise StepTooLarge("inward direction dimension mismatch")
    base = evaluate(f, z0)
    ts = cfg.t0 * 0.5 ** np.arange(cfg.stages + 1)
    pts = np.stack([z0 - t * inward for t in ts])
    vals = evaluate(f, pts)
    quot = (base[None, :] - vals) / ts[:, None]

    # Richardson tableau on vector entries; diag[k] is the order-(k+1) value
    rows = [[quot[0]]]
    best = quot[0]
    best_err = math.inf
    stages_used = 1
    prev_diag = quot[0]
    for k in range(1, len(ts)):
        row = [quot[k]]
        for i in range(1, k + 1):
            fac = 2.0**i
            row.append(row[i - 1] + (row[i - 1] - rows[-1][i - 1]) / (fac - 1.0))
        rows.append(row)
        diag = row[-1]
        err = float(np.max(np.abs(diag - prev_diag)))
        if err < best_err:
            best, best_err, stages_used = diag, err, k + 1
        prev_diag = diag
        if best_err <= cfg.tol:
            break
    if best_err > cfg.tol:
        raise NoConvergence(
            f"radial ladder stalled at error {best_err:.2e} (tol {cfg.tol:.1e})"
        )
    return RadialDerivative(np.atleast_1d(best), best_err, stages_used)
