"""A 50-digit mpmath oracle for the package's floating-point kernels.

Each function takes the floats the kernel it mirrors takes, converts them
exactly (an mpf holds every double) and evaluates the textbook formula with
50 significant digits, far below one ulp of a double.  ``ulps(got, want)``
measures a kernel's result in units in the last place of the true value.
"""

import math

import mpmath

DIGITS = 50


def _mp(z) -> mpmath.mpc:
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def lp_norm(x, q):
    """(sum_j |x_j|^q)^(1/q), or max_j |x_j| at q = inf."""
    with mpmath.workdps(DIGITS):
        mags = [abs(_mp(v)) for v in x]
        if math.isinf(q):
            return max(mags)
        q = mpmath.mpf(q)
        return mpmath.fsum(m ** q for m in mags) ** (1 / q)


def duality_map(x, p):
    """(|x_j|^(p-2) x_j)_j, with 0 where x_j = 0."""
    with mpmath.workdps(DIGITS):
        return [abs(v) ** (mpmath.mpf(p) - 2) * v if v else mpmath.mpc(0)
                for v in map(_mp, x)]


def conjugate_exponent(p):
    """p / (p - 1), and 1 at p = inf."""
    with mpmath.workdps(DIGITS):
        return mpmath.mpf(1) if math.isinf(p) else mpmath.mpf(p) / (mpmath.mpf(p) - 1)


def disk_bound(w0, d):
    """Zhu's bound 2|1 - w0|^2 / (1 - |w0|^2 + d)."""
    with mpmath.workdps(DIGITS):
        w0 = _mp(w0)
        return 2 * abs(1 - w0) ** 2 / (1 - abs(w0) ** 2 + mpmath.mpf(d))


def moebius_derivative(a, rotation, u):
    """d/du (a + rotation u) / (1 + conj(a) rotation u) = rotation (1 - |a|^2) / den^2."""
    with mpmath.workdps(DIGITS):
        a, rotation, u = _mp(a), _mp(rotation), _mp(u)
        return rotation * (1 - abs(a) ** 2) / (1 + mpmath.conj(a) * rotation * u) ** 2


def ulps(got, want) -> float:
    """|got - want| over the ulp of the double nearest |want|; got and want may be complex."""
    with mpmath.workdps(DIGITS):
        err = abs(_mp(got) - want)
        if not want:
            return 0.0 if not err else math.inf
        return float(err / math.ulp(float(abs(want))))


def metric_origin_closed(z, p):
    """The Carathéodory metric at the origin in the direction z: ||z||_p."""
    return lp_norm(z, p)


def distance_origin_closed(z, p):
    """The Carathéodory distance from the origin to z: atanh ||z||_p."""
    with mpmath.workdps(DIGITS):
        return mpmath.atanh(lp_norm(z, p))
