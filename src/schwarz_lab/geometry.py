"""Geometry of the unit ball of lp(C^n): norms, normals, tangent spaces, dual data.

Conventions used throughout the package:

* the inner product is conjugate-linear in the second slot,
  <a, b> = sum_j a_j * conj(b_j);
* the realification of z in C^n is z' = (Re z, Im z) in R^{2n};
* the defining function of the ball is rho(z) = ||z||_p^p - 1 for finite p,
  with gradient p * duality_map(z, p); BoundaryPoint keeps the normal and the
  tangent probes every check reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, HypothesisFailed, NotOnBoundary, ZeroVector

DEFAULT_BOUNDARY_TOL = 1e-9
_NORMAL_MIN = np.finfo(float).tiny  # the least positive normal float


# ---------------------------------------------------------------------------
# exponent and vector plumbing
# ---------------------------------------------------------------------------


# the strings, in any case, that name the polydisk exponent
INF_SPELLINGS = ("inf", "infinity", "oo")


def as_exponent(p) -> float:
    """The ball exponent p in (1, inf] as a float, math.inf for the polydisk, from a
    number, a string naming a finite number, or one of INF_SPELLINGS."""
    if isinstance(p, str) and p.lower() in INF_SPELLINGS:
        return math.inf
    try:
        value = float(p)
    except (TypeError, ValueError):
        value = math.nan
    if not value > 1.0 or isinstance(p, str) and math.isinf(value):
        raise BadParams(f"exponent must be a number > 1 or 'inf', got {p!r}")
    return value


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate q with 1/p + 1/q = 1 of an exponent p > 1 (1.0 at p = inf)."""
    return 1.0 if math.isinf(p) else p / (p - 1.0)


def cvector(entries) -> np.ndarray:
    """Validate and return a 1-d complex vector with finite entries."""
    z = np.asarray(entries, dtype=complex).reshape(-1)
    if z.size == 0:
        raise BadParams("empty vector")
    if not np.isfinite(z).all():
        raise BadParams("vector has non-finite entries")
    return z


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _directions(n: int) -> np.ndarray:
    """e_j, then i e_j, as the rows of one read-only (2n, n) array, built once per n."""
    return _read_only(np.vstack([np.eye(n), 1j * np.eye(n)]))


def cinner(a, b) -> complex:
    """<a, b> = sum_j a_j conj(b_j)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise BadParams(f"inner product shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a * np.conj(b)))


def _reduce_last_axis(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=-1), np.add or np.maximum, bit for bit on moduli, powers
    and complex products: many rows of under 8 doubles (1-7 float64 or 1-3 complex128
    columns), slow row by row, go by columns in numpy's order.  From 8 doubles on,
    numpy's reduce unrolls a row into pairwise partial sums, which columns do not."""
    if (a.ndim != 2 or a.dtype.char not in "dD"
            or not 0 < a.shape[1] * a.itemsize < 64 or len(a) < 32 * a.shape[1]):
        return ufunc.reduce(a, axis=-1)
    return functools.reduce(ufunc, a.T)


def _lp_last_axis(mags: np.ndarray, q: float) -> np.ndarray:
    """float_power(sum(mags**q), 1/q) over the last axis, for finite q.

    Where that power sum overflowed to inf or underflowed below the normal
    floats on a row whose largest modulus top is finite and nonzero, the row
    is top * float_power(sum((mags/top)**q), 1/q) instead: the norm is then
    inf only past the float range and 0.0 only for a zero row.  Every other
    row keeps the plain formula's bits.  Only an inexact result can overflow,
    or underflow to 0.0, so the IEEE flags, which numpy raises here as
    FloatingPointError, tell when to look for such rows (an exact subnormal
    sum raises no flag, and its root is accurate as it stands).

    At q = 1 the power and the root return their input bit for bit, so the
    sum is the norm, save that libm's pow flags underflow on a subnormal sum.
    A batch with a row below the normal floats (zero ones included) still
    takes the root, and with its flag the rescaled branch, as before.
    """
    try:
        with np.errstate(over="raise", under="raise"):
            if q != 1.0:
                return np.float_power(_reduce_last_axis(np.add, mags**q), 1.0 / q)
            s = _reduce_last_axis(np.add, mags)
            return np.float_power(s, 1.0) if np.count_nonzero(s < _NORMAL_MIN) else s
    except FloatingPointError:
        pass
    # only a norm past the float range is inf; the rescaled branch of a zero
    # row divides by zero, and np.where drops it
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        s = _reduce_last_axis(np.add, mags**q)
        top = _reduce_last_axis(np.maximum, mags)
        scaled = _reduce_last_axis(np.add, (mags / top[..., None]) ** q)
        rescaled = top * np.float_power(scaled, 1.0 / q)
        lost = ((s == math.inf) | (s < _NORMAL_MIN)) & np.isfinite(top) & (top > 0.0)
        return np.where(lost, rescaled, np.float_power(s, 1.0 / q))


def lp_norm(x, q: float):
    """||x||_q for q in [1, inf] over the last axis of a real or complex array:
    a float for a vector, one norm per row for a 2-D array.

    np.float_power takes every root with libm pow, as Python's scalar pow
    does, so each row of a batch equals the same vector passed alone bit for
    bit (np.power and np.sqrt can differ from it in the last bit).
    """
    mags = np.abs(x)
    out = _reduce_last_axis(np.maximum, mags) if math.isinf(q) else _lp_last_axis(mags, q)
    return float(out) if out.ndim == 0 else out


def l2_norm_rows(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(row) of each row (last axis) of an array, bit for bit
    (np.vecdot takes one BLAS dot per row, as the lone row's norm does)."""
    if np.iscomplexobj(x):
        return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))
    return np.sqrt(np.vecdot(x, x))


def duality_map(x, p: float) -> np.ndarray:
    """J_p(x) = |x_j|^(p-2) x_j entrywise, with 0 where x_j = 0; finite p > 1.

    It is the direction of the lp sphere's normal and, divided by
    ||x||_p^(p-1), the norming functional: Re<J_p(x), x> = ||x||_p^p and
    ||J_p(x)||_q = ||x||_p^(p-1) for the conjugate exponent q.
    """
    x = np.asarray(x)
    mags = np.abs(x)
    weights = np.zeros(mags.shape)
    np.power(mags, p - 2.0, out=weights, where=mags > 0.0)
    return weights * x


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise by hypot, as Python's abs(complex) computes it."""
    return np.hypot(z.real, z.imag)


def with_lp_norms(z: np.ndarray, q: float, radii) -> np.ndarray:
    """z with its rows rescaled in place to lq norms `radii` (one per row, or
    one for all), and returned; zero rows stay zero.  z is a complex array."""
    norms = lp_norm(z, q)[:, None]
    np.divide(z, norms, out=z, where=norms != 0.0)
    return np.multiply(z, np.reshape(radii, (-1, 1)), out=z)


def norm_p(z, p) -> float:
    """lp norm of a complex vector; p is anything as_exponent reads."""
    return lp_norm(cvector(z), as_exponent(p))


def realify(z) -> np.ndarray:
    """z in C^n -> (Re z, Im z) in R^{2n}."""
    z = cvector(z)
    return np.concatenate([z.real, z.imag])


# ---------------------------------------------------------------------------
# boundary points: normal and tangent probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPoint:
    """A point certified to lie on the unit sphere of lp(C^n) within tolerance."""

    point: np.ndarray
    exponent: float
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

    # kept read-only from first use; an error is not kept and so raised on every use
    @functools.cached_property
    def normal(self) -> np.ndarray:
        """schwarz_v at this point."""
        return _read_only(schwarz_v(self))

    @functools.cached_property
    def tangent_probes(self) -> np.ndarray:
        """The parts beta = u - (Re<u, v>/|v|^2) v of u = e_j, then i e_j, tangent
        to the normal v, over their lengths, save |beta| < 1e-12."""
        v = self.normal
        probes = _directions(v.size)
        lam = (probes * np.conj(v)).sum(axis=1).real / float(np.sum(np.abs(v) ** 2))
        beta = probes - lam[:, None] * v
        bn = l2_norm_rows(beta)
        keep = ~(bn < 1e-12)  # NaN rows stay
        return _read_only(beta[keep] / bn[keep, None])


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
    if math.isinf(bp.exponent):
        if not bp.on_distinguished_boundary():
            raise NotOnBoundary(
                "polydisk normal vector needs all |z_j| = 1 (distinguished boundary)"
            )
        return z / z.size
    return duality_map(z, bp.exponent)


def rigidity_v(bp: BoundaryPoint) -> np.ndarray:
    """Dual-unit vector (|z_j|^{p-1})_j with real nonnegative entries.

    Satisfies ||v||_q = 1 for the conjugate exponent q.  Finite p only.
    """
    if math.isinf(bp.exponent):
        raise BadParams("rigidity vector is defined for finite p only")
    return (np.abs(bp.point) ** (bp.exponent - 1.0)).astype(complex)


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
    p = bp.exponent
    if math.isinf(p):
        if not bp.on_distinguished_boundary():
            raise HypothesisFailed("image must lie on the distinguished boundary")
        if abs(lp_norm(wr, math.inf) - 1.0) > tol:
            raise HypothesisFailed("realified image must lie on the sup-norm unit sphere")
        return wr / (2.0 * w.size)
    if p < 2.0:
        raise HypothesisFailed("pluriharmonic pairing vector needs p >= 2")
    gap = abs(lp_norm(wr, p) - 1.0)
    if gap > tol:
        raise HypothesisFailed(
            f"realification misses the real lp sphere by {gap:.3e} (tol {tol:.1e})"
        )
    return duality_map(wr, p)


# ---------------------------------------------------------------------------
# dual functionals
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
    if math.isinf(p):
        j = int(np.argmax(np.abs(x)))
        c = np.zeros_like(x)
        c[j] = np.conj(x[j]) / abs(x[j])
        return c
    return np.conj(duality_map(x, p)) / nx ** (p - 1.0)
