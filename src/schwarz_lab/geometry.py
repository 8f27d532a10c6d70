"""Geometry of the unit ball of lp(C^n): norms, normals, tangent spaces, dual data.

Conventions used throughout the package:

* the inner product is conjugate-linear in the second slot,
  <a, b> = sum_j a_j * conj(b_j);
* the realification of z in C^n is z' = (Re z, Im z) in R^{2n};
* the defining function of the ball is rho(z) = ||z||_p^p - 1 for finite p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    HypothesisFailed,
    NotOnBoundary,
    OutsideDisk,
    SingularGradient,
    ZeroVector,
)

DEFAULT_BOUNDARY_TOL = 1e-9


# ---------------------------------------------------------------------------
# exponent and vector plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponent:
    """Ball exponent p in (1, inf]; math.inf encodes the polydisk case."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        object.__setattr__(self, "p", p)
        if not p > 1.0:
            raise BadParams(f"exponent must satisfy p > 1, got {p}")

    @classmethod
    def infinity(cls) -> "Exponent":
        return cls(math.inf)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    @property
    def conjugate_value(self) -> float:
        """Hoelder conjugate q with 1/p + 1/q = 1, as a plain float."""
        if self.is_inf:
            return 1.0
        return self.p / (self.p - 1.0)

    def __repr__(self):
        return "Exponent(inf)" if self.is_inf else f"Exponent({self.p:g})"


def as_exponent(p) -> Exponent:
    """Coerce an Exponent, a number, or the string 'inf' to an Exponent."""
    if isinstance(p, Exponent):
        return p
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity", "oo"):
            return Exponent.infinity()
        return Exponent(float(p))
    return Exponent(float(p))


def cvector(entries) -> np.ndarray:
    """Validate and return a 1-d complex vector with finite entries."""
    z = np.asarray(entries, dtype=complex).reshape(-1)
    if z.size == 0:
        raise BadParams("empty vector")
    if not np.all(np.isfinite(z)):
        raise BadParams("vector has non-finite entries")
    return z


def rvector(entries) -> np.ndarray:
    """Validate and return a 1-d real vector with finite entries."""
    x = np.asarray(entries, dtype=float).reshape(-1)
    if x.size == 0:
        raise BadParams("empty vector")
    if not np.all(np.isfinite(x)):
        raise BadParams("vector has non-finite entries")
    return x


def cinner(a, b) -> complex:
    """<a, b> = sum_j a_j conj(b_j)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise BadParams(f"inner product shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a * np.conj(b)))


def lp_norm_value(x, q: float) -> float:
    """||x||_q for q in [1, inf], on real or complex arrays (last axis).

    A row of a 2-D batch can differ by 1 ulp from the same vector passed
    alone, because numpy's vectorised pow takes the batch's root; use
    lp_norm_rows where each row must match.
    """
    mags = np.abs(np.asarray(x))
    if math.isinf(q):
        out = np.max(mags, axis=-1)
    else:
        with np.errstate(over="ignore"):  # a huge entry gives the IEEE norm inf
            out = np.sum(mags**q, axis=-1) ** (1.0 / q)
    return float(out) if np.ndim(out) == 0 else out


def lp_norm_rows(x: np.ndarray, q: float) -> np.ndarray:
    """lp_norm_value(row, q) of each row of a 2-D array, bit for bit.

    np.float_power takes each root with libm pow, as the lone vector's
    scalar pow does; np.power and np.sqrt can differ from it in the last bit.
    """
    mags = np.abs(x)
    if math.isinf(q):
        return np.max(mags, axis=-1)
    with np.errstate(over="ignore"):
        return np.float_power((mags**q).sum(axis=-1), 1.0 / q)


def l2_norm_rows(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(row) of each row (last axis) of an array, bit for bit
    (one BLAS dot per row)."""
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return np.sqrt(sum((a[..., None, :] @ a[..., :, None])[..., 0, 0] for a in parts))


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise by hypot, as Python's abs(complex) computes it."""
    return np.hypot(z.real, z.imag)


def with_lp_norms(z: np.ndarray, q: float, radii) -> np.ndarray:
    """Rows of z rescaled to lq norms `radii` (one per row, or one for all);
    zero rows stay zero."""
    norms = lp_norm_value(z, q)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None] * np.reshape(radii, (-1, 1))


def norm_p(z, p) -> float:
    """lp norm of a complex vector; p may be an Exponent or a number."""
    p = as_exponent(p)
    return lp_norm_value(cvector(z), p.p)


def realify(z) -> np.ndarray:
    """z in C^n -> (Re z, Im z) in R^{2n}."""
    z = cvector(z)
    return np.concatenate([z.real, z.imag])


def unrealify(x) -> np.ndarray:
    """(Re z, Im z) in R^{2n} -> z in C^n."""
    x = rvector(x)
    if x.size % 2:
        raise BadParams("realified vector must have even length")
    n = x.size // 2
    return x[:n] + 1j * x[n:]


# ---------------------------------------------------------------------------
# defining function and boundary normals
# ---------------------------------------------------------------------------


def defining_rho(z, p) -> float:
    """rho(z) = ||z||_p^p - 1.  Finite p only."""
    p = as_exponent(p)
    if p.is_inf:
        raise BadParams("defining function is not available at p = inf")
    z = cvector(z)
    return float(np.sum(np.abs(z) ** p.p) - 1.0)


def grad_rho(z, p) -> np.ndarray:
    """Gradient p * (|z_j|^{p-2} z_j)_j of rho; outward normal on the sphere.

    For p < 2 the gradient blows up at zero coordinates, which is reported
    rather than silently regularized.
    """
    p = as_exponent(p)
    if p.is_inf:
        raise BadParams("gradient of the defining function needs finite p")
    z = cvector(z)
    mags = np.abs(z)
    if p.p < 2.0 and np.any(mags == 0.0):
        raise SingularGradient(f"grad rho singular at zero coordinate for p = {p.p}")
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(mags > 0.0, mags ** (p.p - 2.0), 0.0 if p.p > 2.0 else 1.0)
    return p.p * weights * z


@dataclass(frozen=True)
class BoundaryPoint:
    """A point certified to lie on the unit sphere of lp(C^n) within tolerance."""

    point: np.ndarray
    exponent: Exponent
    tolerance: float = DEFAULT_BOUNDARY_TOL

    def __post_init__(self):
        object.__setattr__(self, "point", cvector(self.point))
        object.__setattr__(self, "exponent", as_exponent(self.exponent))
        gap = abs(norm_p(self.point, self.exponent) - 1.0)
        if gap > self.tolerance:
            raise NotOnBoundary(
                f"|‖z‖_p - 1| = {gap:.3e} exceeds tolerance {self.tolerance:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.point.size

    def on_distinguished_boundary(self) -> bool:
        """True when every coordinate has modulus 1 within tolerance (p = inf torus)."""
        return bool(np.max(np.abs(np.abs(self.point) - 1.0)) <= self.tolerance)


# ---------------------------------------------------------------------------
# the three boundary vector fields used by the verifiers
# ---------------------------------------------------------------------------


def schwarz_v(bp: BoundaryPoint) -> np.ndarray:
    """Normal-alignment vector at a boundary point.

    Finite p: (|z_j|^{p-2} z_j)_j, a positive multiple of grad rho.
    p = inf: z / n, defined only on the distinguished boundary (|z_j| = 1 for
    all j); off the torus there is no canonical choice and the point is
    rejected.
    """
    z = bp.point
    if bp.exponent.is_inf:
        if not bp.on_distinguished_boundary():
            raise NotOnBoundary(
                "polydisk normal vector needs all |z_j| = 1 (distinguished boundary)"
            )
        return z / z.size
    p = bp.exponent.p
    mags = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(mags > 0.0, mags ** (p - 2.0), 0.0)
    # |z_j|^{p-2} z_j -> 0 as z_j -> 0 for every p > 1, so 0 is the right fill
    return weights * z


def rigidity_v(bp: BoundaryPoint) -> np.ndarray:
    """Dual-unit vector (|z_j|^{p-1})_j with real nonnegative entries.

    Satisfies ||v||_q = 1 for the conjugate exponent q.  Finite p only.
    """
    if bp.exponent.is_inf:
        raise BadParams("rigidity vector is defined for finite p only")
    p = bp.exponent.p
    return (np.abs(bp.point) ** (p - 1.0)).astype(complex)


def pluriharmonic_V(bp: BoundaryPoint) -> np.ndarray:
    """Real 2N-vector pairing the realified image point in the boundary estimate.

    Finite p >= 2: entrywise |w'_i|^{p-2} w'_i applied to the realification,
    requiring w' itself to lie on the real lp sphere of R^{2N}.
    p = inf: (w')/(2N), requiring w on the distinguished boundary and w' on
    the real sup-norm sphere.
    """
    w = bp.point
    wr = realify(w)
    tol = max(bp.tolerance, 1e-9)
    if bp.exponent.is_inf:
        if not bp.on_distinguished_boundary():
            raise HypothesisFailed("image must lie on the distinguished boundary")
        if abs(lp_norm_value(wr, math.inf) - 1.0) > tol:
            raise HypothesisFailed("realified image must lie on the sup-norm unit sphere")
        return wr / (2.0 * w.size)
    p = bp.exponent.p
    if p < 2.0:
        raise HypothesisFailed("pluriharmonic pairing vector needs p >= 2")
    gap = abs(lp_norm_value(wr, p) - 1.0)
    if gap > tol:
        raise HypothesisFailed(
            f"realification misses the real lp sphere by {gap:.3e} (tol {tol:.1e})"
        )
    mags = np.abs(wr)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(mags > 0.0, mags ** (p - 2.0), 0.0)
    return weights * wr


# ---------------------------------------------------------------------------
# tangent spaces
# ---------------------------------------------------------------------------


def tangent_residuals(alpha, bp: BoundaryPoint) -> tuple[float, float]:
    """(|Re<alpha, grad rho>|, |<alpha, grad rho>|) at a boundary point.

    The first residual measures membership in the real tangent space T_z,
    the second in the complex tangent space T_z^{1,0}.  Finite p >= 2.
    """
    if bp.exponent.is_inf or bp.exponent.p < 2.0:
        raise BadParams("tangent residuals need finite p >= 2 (C^1 boundary)")
    g = grad_rho(bp.point, bp.exponent)
    pairing = cinner(cvector(alpha), g)
    return abs(pairing.real), abs(pairing)


def normal_tangent_decompose(u, bp: BoundaryPoint) -> tuple[float, np.ndarray]:
    """Split u = lam * v + beta with Re<beta, v> = 0, v the normal-alignment vector.

    Returns (lam, beta).  lam is the real coefficient minimizing the real
    part of the pairing defect.
    """
    u = cvector(u)
    v = schwarz_v(bp)
    vv = float(np.sum(np.abs(v) ** 2))
    if vv == 0.0:
        raise ZeroVector("normal vector vanished; point is not usable")
    lam = cinner(u, v).real / vv
    beta = u - lam * v
    return lam, beta


def tangent_basis(bp: BoundaryPoint) -> list[np.ndarray]:
    """Orthonormal (w.r.t. Re<.,.>) basis of the real tangent space T_z.

    T_z has real dimension 2n - 1; the basis is the SVD null space of the
    realified normal direction, mapped back to C^n.
    """
    g = grad_rho(bp.point, bp.exponent) if not bp.exponent.is_inf else schwarz_v(bp)
    gr = realify(g).reshape(1, -1)
    _, _, vt = np.linalg.svd(gr)
    return [unrealify(row) for row in vt[1:]]


# ---------------------------------------------------------------------------
# dual functionals and the disk metric
# ---------------------------------------------------------------------------


def norming_functional(x, p) -> np.ndarray:
    """Coefficients c with ||c||_q = 1 and sum_j c_j x_j = ||x||_p.

    Finite p: c_j = |x_j|^{p-2} conj(x_j) / ||x||_p^{p-1}, with 0 at zero
    coordinates.  p = inf: dual unit vector supported on the first maximal
    coordinate.
    """
    p = as_exponent(p)
    x = cvector(x)
    nx = norm_p(x, p)
    if nx == 0.0:
        raise ZeroVector("norming functional of the zero vector is not unique")
    if p.is_inf:
        j = int(np.argmax(np.abs(x)))
        c = np.zeros_like(x)
        c[j] = np.conj(x[j]) / abs(x[j])
        return c
    mags = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(mags > 0.0, mags ** (p.p - 2.0), 0.0)
    return weights * np.conj(x) / nx ** (p.p - 1.0)


def hyperbolic_distance(a, b) -> float:
    """Poincare distance on the unit disk.

    omega(a, b) = (1/2) log((|1 - conj(a) b| + |a - b|) / (|1 - conj(a) b| - |a - b|)).
    """
    a = complex(a)
    b = complex(b)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise OutsideDisk(f"hyperbolic distance needs |a|, |b| < 1, got {abs(a):.4f}, {abs(b):.4f}")
    cross = abs(1.0 - np.conj(a) * b)
    sep = abs(a - b)
    if cross <= sep:
        raise OutsideDisk("degenerate configuration: |1 - conj(a) b| <= |a - b|")
    return 0.5 * math.log((cross + sep) / (cross - sep))
