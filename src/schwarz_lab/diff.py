"""Differentiation of map expressions.

* complex_jacobian, real_jacobian and tangent_pass read exact
  derivatives from one forward-mode tangent pass (Griewank and Walther,
  Evaluating Derivatives, 2nd ed., 2008): each node's _tangent carries f(z)
  and df/dz . v + df/dz-bar . conj(v) along the directions v = e_j, i e_j;
* complex_jacobian_fd: one fourth-order central-difference stencil at step
  1e-4 along the same directions, via the Cauchy-Riemann relations; the exact
  route's cross-check.  A near-pole probe raises InsufficientClearance.

tangent_pass, the checks' reader, returns from one pass f's values at its
points, the complex Jacobian, the Cauchy-Riemann defect and the derivative
along e_1.  radial_boundary_derivative, a Richardson ladder on the
one-sided radial quotient, serves only the one-variable equality case,
which makes no tangent pass.  Every step is a module constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientClearance, NoConvergence, PoleHit
from .geometry import BoundaryPoint, _directions, cvector, l2_norm_rows
from .maps import MapExpr, _as_points, _EvalCtx, evaluate
from . import rng as _rng

# smallest admissible Moebius denominator at a differentiation point or probe
_DENOMINATOR_FLOOR = 1e-6
_FD_STEP = 1e-4                 # complex_jacobian_fd's stencil step
_PH_STEP = 2e-4                 # pluriharmonic_residual's Laplacian step


@dataclass(frozen=True)
class RichardsonConfig:
    t0: float = 1e-2            # coarsest one-sided step
    stages: int = 8             # halvings of the step
    tol: float = 1e-9           # convergence of successive extrapolants


@dataclass(frozen=True)
class RadialDerivative:
    value: np.ndarray           # J_f(z0) . inward
    error_estimate: float
    stages_used: int


def _guarded(run, what: str):
    """run(ctx) on a fresh evaluation context, rejecting near-pole points."""
    ctx = _EvalCtx()
    try:
        out = run(ctx)
    except PoleHit as exc:
        raise InsufficientClearance(f"{what}: {exc}") from exc
    if ctx.min_denominator < _DENOMINATOR_FLOOR:
        raise InsufficientClearance(f"{what}: Moebius denominator {ctx.min_denominator:.2e} "
                                    f"below floor {_DENOMINATOR_FLOOR:.1e}")
    return out


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def _derivatives(f: MapExpr, z):
    """(values, derivatives) of f from one tangent pass: the values f(z), (m,)
    per point, and the exact derivatives along the 2n real directions e_j, i e_j,
    laid out as _fd4's: (m, 2n), x-directions first; a (k, n) stack gives (k, m)
    and (k, m, 2n).  The 2n directions of every point are the rows of the pass; a
    pole hit or a Moebius denominator under the floor at a point raises
    InsufficientClearance.
    """
    zs, single = _as_points(z, f.input_dim)
    cvector(zs)
    k, n = zs.shape
    pts = np.repeat(zs, 2 * n, axis=0)
    dirs = np.tile(_directions(n), (k, 1))
    vals, d = _guarded(lambda ctx: f._tangent(pts, dirs, ctx), "tangent pass")
    vals = vals.reshape(k, 2 * n, -1)[:, 0]
    # C order: products with the matrices round by their memory layout
    d = np.ascontiguousarray(d.reshape(k, 2 * n, -1).transpose(0, 2, 1))
    return (vals[0], d[0]) if single else (vals, d)


def _wirtinger(d: np.ndarray) -> np.ndarray:
    """df/dz = (d/dx - i d/dy)/2 from derivatives laid out as _derivatives'."""
    n = d.shape[-1] // 2
    return 0.5 * (d[..., :n] - 1j * d[..., n:])


def complex_jacobian(f: MapExpr, z) -> np.ndarray:
    """Exact complex Jacobian df/dz = (d/dx - i d/dy)/2 per coordinate.

    z is one point (n,), giving an (m, n) matrix, or a stack (k, n), giving
    (k, m, n) matrices equal to the one-point results bit for bit.
    """
    return _wirtinger(_derivatives(f, z)[1])


# Fourth-order central difference: f'(x) ~ sum_k w_k f(x + o_k h) / (12 h).
_FD4_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD4_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0])


def _fd4(f: MapExpr, z) -> np.ndarray:
    """Fourth-order derivatives of f at one point along the 2n real directions
    e_j, i e_j at step _FD_STEP: shape (m, 2n), the x-directions first.  The 8n
    probe points are evaluated as one batch.
    """
    z = cvector(z)
    n = z.size
    pts = z + (_FD4_OFFSETS[:, None, None] * _FD_STEP) * _directions(n)
    vals = _guarded(lambda ctx: evaluate(f, pts.reshape(-1, n), ctx=ctx),
                    "finite difference").reshape(len(_FD4_OFFSETS), 2 * n, -1)
    w = _FD4_WEIGHTS[:, None] / (12.0 * _FD_STEP)
    # one sum per direction: one sum over the whole batch can round differently
    return np.stack([(w * vals[:, c]).sum(axis=0) for c in range(2 * n)], axis=1)


def complex_jacobian_fd(f: MapExpr, z) -> np.ndarray:
    """Finite-difference Jacobian (d/dx - i d/dy)/2 per coordinate at one point:
    the (m, n) matrix from _fd4's stencil.  Independent of the tangent pass;
    used as its cross-check.
    """
    return _wirtinger(_fd4(f, z))


def real_jacobian(f: MapExpr, z) -> np.ndarray:
    """Exact real 2m-by-2n Jacobian acting on realifications (Re, Im stacked).

    D maps the realification of an input perturbation to the realification
    of the output change: rows are (Re f, Im f), columns (x_j then y_j).
    A (k, n) stack of points gives a (k, 2m, 2n) stack of matrices.
    """
    d = _derivatives(f, z)[1]
    return np.concatenate([d.real, d.imag], axis=-2)


def _cr_defect(d: np.ndarray):
    """The Cauchy-Riemann defect ||A - D||_F + ||B + C||_F of the real Jacobian
    (A, B; C, D) from _derivatives' output, A - D = Re d/dx - Im d/dy and
    B + C = Re d/dy + Im d/dx: ||Re s||_F + ||Im s||_F for s = 2 df/dz-bar, so 0
    up to rounding on holomorphic maps.  A float for one point, (k,) for a stack."""
    n = d.shape[-1] // 2
    dx, dy = d[..., :n], d[..., n:]
    size = dx.shape[-2] * n
    res = (l2_norm_rows((dx.real - dy.imag).reshape(-1, size))
           + l2_norm_rows((dy.real + dx.imag).reshape(-1, size)))
    return res if d.ndim == 3 else float(res[0])


def tangent_pass(f: MapExpr, z):
    """(f(z), complex_jacobian(f, z), the Cauchy-Riemann defect of real_jacobian(f, z),
    df/dx_1 at z) from one tangent pass, each equal to its one-point value bit for
    bit.  df/dx_1 is the derivative along the first real direction e_1: (m,) per
    point, f'(1) along the inward radius at 1 on the disk."""
    vals, d = _derivatives(f, z)
    return vals, _wirtinger(d), _cr_defect(d), d[..., 0]


def pluriharmonic_residual(f: MapExpr, z, seed=0):
    """Max 5-point discrete Laplacian of f along 8 random complex lines through z.

    Pluriharmonic maps are harmonic on every complex line, so the residual
    is O(h^2), h = _PH_STEP, for them and order-one for genuinely non-harmonic
    maps such as z -> |z_1|^2.  One point (n,) gives a float; a (k, n) stack
    gives the k residuals, each equal to its one-point value bit for bit,
    because every point uses the same 8 lines.  The 40 probe points of every
    point are evaluated as one batch.
    """
    zs, single = _as_points(z, f.input_dim)
    cvector(zs)
    k, n = zs.shape
    h = _PH_STEP
    d = _rng.gaussian_pairs(_rng.stream(seed, "ph-residual", n), 8, n)
    d /= l2_norm_rows(d)[:, None]
    c = np.broadcast_to(zs[:, None, :], (k, 8, n))
    pts = np.stack([c + h * d, c - h * d, c + 1j * h * d, c - 1j * h * d, c], axis=2)
    v = evaluate(f, pts.reshape(-1, n)).reshape(k, 8, 5, -1)
    lap = (v[:, :, 0] + v[:, :, 1] + v[:, :, 2] + v[:, :, 3] - 4.0 * v[:, :, 4]) / h**2
    res = np.max(np.abs(lap).reshape(k, -1), axis=1)
    return float(res[0]) if single else res


# ---------------------------------------------------------------------------
# one-sided boundary derivative
# ---------------------------------------------------------------------------


def radial_boundary_derivative(f: MapExpr, z0, inward) -> RadialDerivative:
    """Richardson-extrapolated J_f(z0) . inward from one-sided quotients.

    Uses Q(t) = (f(z0) - f(z0 - t * inward)) / t on RichardsonConfig()'s ladder
    t = t0 * 2^{-k}; the quotient has an expansion in integer powers of t,
    so each extrapolation stage cancels one more order; z0 joins the ladder's batch.
    """
    cfg = RichardsonConfig()
    z0 = z0.point if isinstance(z0, BoundaryPoint) else cvector(z0)
    inward = cvector(inward)
    if inward.size != z0.size:
        raise DimensionMismatch("inward direction dimension mismatch")
    ts = cfg.t0 * 0.5 ** np.arange(cfg.stages + 1)
    vals = evaluate(f, np.stack([z0] + [z0 - t * inward for t in ts]))
    quot = (vals[:1] - vals[1:]) / ts[:, None]

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
