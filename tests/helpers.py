"""Routines only the tests call: instance sweeps, a slope probe, a Jacobian
block split with its Cauchy-Riemann defect and a normal/tangent split, built
on the package's own functions.

The checks themselves never call these, so they live beside the tests that
do rather than in ``schwarz_lab``.
"""

from __future__ import annotations

import math

import numpy as np

from schwarz_lab.diff import real_jacobian
from schwarz_lab.errors import ZeroVector
from schwarz_lab.gallery import (
    build_diag_power,
    build_first_times_last,
    build_identity,
    build_ph_blend,
    build_ph_linear_blend,
    build_scaled_identity,
    build_square_first,
    build_unitary,
    build_zhu_extremal,
    haar_unitary,
)
from schwarz_lab.geometry import BoundaryPoint, as_exponent, cinner, cvector, schwarz_v
from schwarz_lab.maps import MapExpr, _EvalCtx, evaluate
from schwarz_lab.rng import stream
from schwarz_lab.verify import SLOPE_T, _slope_rel_error


def min_moebius_denominator(f: MapExpr, points) -> float:
    """Smallest |Moebius denominator| over all nodes and sample points."""
    ctx = _EvalCtx()
    evaluate(f, points, ctx=ctx)
    return float(ctx.min_denominator)


def boundary_slope_check(f: MapExpr, z0: BoundaryPoint, lam: float,
                         t: float = SLOPE_T) -> float:
    """Relative error of (1 - ||f(z0 - t v)||_p^p)/t against p*lambda*||v||_2^2."""
    v = z0.normal
    return _slope_rel_error(evaluate(f, z0.point - t * v), z0, v, lam, t)


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


def cr_defect(f: MapExpr, z):
    """||A - D||_F + ||B + C||_F of real_jacobian(f, z) = (A, B; C, D): a float
    for one point (n,), and for a stack (k, n) the k one-point floats."""
    z = np.asarray(z)
    if z.ndim == 2:
        return np.array([cr_defect(f, row) for row in z])
    a, b, c, d = cr_blocks(real_jacobian(f, z))
    return float(np.linalg.norm(a - d) + np.linalg.norm(b + c))


def ball_self_map_instances(p, n: int) -> list[tuple[str, MapExpr]]:
    """Holomorphic gallery self-maps of the unit lp ball with f(0) = 0.

    Unitaries are included only at p = 2; everything else contracts every
    lp norm coordinatewise.
    """
    p = as_exponent(p)
    out = [
        ("identity", build_identity(n)),
        ("scaled_identity", build_scaled_identity(n, 0.5)),
        ("square_first", build_square_first(n)),
        (
            "diag_power",
            build_diag_power([2] + [1] * (n - 1), [1j] + [1.0] * (n - 1)),
        ),
        (
            "diag_power_heavy",
            build_diag_power([3] + [2] * (n - 1), [-1.0] + [np.exp(1j * np.pi / 3)] * (n - 1)),
        ),
    ]
    if n >= 2:
        out.append(("first_times_last", build_first_times_last(n)))
    if n == 1:
        out.append(("zhu_extremal_origin", build_zhu_extremal(0.0, 0.5)))
    if abs(p - 2.0) < 1e-12:
        gen = stream(0, "gallery-unitary", n)
        out.append(("unitary", build_unitary(haar_unitary(n, gen))))
        dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
        out.append(("unitary_dft", build_unitary(dft)))
    return out


def pluriharmonic_boundary_instances(count: int, seed) -> list[tuple[str, MapExpr, np.ndarray]]:
    """(label, map, boundary anchor) triples for the pluriharmonic estimate at p = 2.

    Each map is pluriharmonic, sends the ball into the ball, and maps the
    anchor to a boundary point whose realification is also boundary (p = 2
    makes the second condition automatic).
    """
    gen = stream(seed, "ph-instances")
    out = []
    dims = [1, 2, 3, 4]
    while len(out) < count:
        idx = len(out)
        n = dims[idx % len(dims)]
        if idx % 2 == 0:
            mix = float(gen.uniform(0.0, 1.0))
            x = gen.standard_normal(n)
            x /= np.linalg.norm(x)
            out.append(
                (
                    f"ph_linear_blend_{idx}",
                    build_ph_linear_blend(n, mix),
                    x.astype(complex),
                )
            )
        else:
            mix = float(gen.uniform(0.0, 1.0))
            a = float(gen.uniform(-0.6, 0.6))
            b = float(gen.uniform(-0.6, 0.6))
            k = int(gen.integers(0, n))
            z0 = np.zeros(n, dtype=complex)
            z0[k] = 1.0
            out.append(
                (
                    f"ph_blend_{idx}",
                    build_ph_blend(n, mix, a, b, anchor=k),
                    z0,
                )
            )
    return out
