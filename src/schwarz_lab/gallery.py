"""Named constructors for the maps exercised by the verifiers.

Every entry builds a MapExpr from JSON-friendly parameters, so suite files
can reference maps as {"gallery": name, "params": {...}}.  Parameter
validation lives in the builders; anything out of range raises BadParams.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng as _rng
from .errors import BadParams
from .geometry import Exponent, as_exponent, cvector, norm_p
from .maps import (
    ConjugateCoordinate,
    Constant,
    Coordinate,
    LinearMatrix,
    MapExpr,
    MapTuple,
    MoebiusDisk,
    Power,
    Product,
    Scale,
    Sum,
    identity_map,
    json_complex,
    json_int,
    json_matrix,
    json_real,
)

_UNIT_TOL = 1e-9


def _check_dim(n) -> int:
    n = json_int(n)
    if n < 1:
        raise BadParams(f"dimension must be >= 1, got {n}")
    return n


def _complex_list(values) -> list[complex]:
    """A vector parameter: one number, or a list of numbers and [re, im] pairs."""
    return [json_complex(v) for v in (values if np.ndim(values) else [values])]


# ---------------------------------------------------------------------------
# ball self-maps
# ---------------------------------------------------------------------------


def build_identity(n) -> MapExpr:
    return identity_map(_check_dim(n))


def build_scaled_identity(n, t=0.5) -> MapExpr:
    n = _check_dim(n)
    t = json_complex(t)
    if not abs(t) <= 1.0:
        raise BadParams("scaling factor must satisfy |t| <= 1 for a ball self-map")
    return MapTuple(tuple(Scale(t, Coordinate(j, n)) for j in range(n)))


def build_square_first(n) -> MapExpr:
    """(z_1^2, z_2, ..., z_n): fixes (1,...,1) on the polydisk torus but its
    derivative there is diag(2, 1, ..., 1), the stock normal-alignment
    counterexample."""
    n = _check_dim(n)
    comps = [Power(2, Coordinate(0, n))]
    comps += [Coordinate(j, n) for j in range(1, n)]
    return MapTuple(tuple(comps))


def build_first_times_last(n) -> MapExpr:
    """(z_1 z_n, z_2, ..., z_n): fixes e_2, ..., e_n yet is not the identity,
    so n - 1 anchors can never certify rigidity."""
    n = _check_dim(n)
    if n < 2:
        raise BadParams("first_times_last needs n >= 2")
    comps = [Product((Coordinate(0, n), Coordinate(n - 1, n)))]
    comps += [Coordinate(j, n) for j in range(1, n)]
    return MapTuple(tuple(comps))


def build_diag_power(ks, units=None) -> MapExpr:
    """z -> (u_j z_j^{k_j}) with unimodular u_j and integer k_j >= 1."""
    ks = [json_int(k) for k in (ks if np.ndim(ks) else [ks])]
    n = len(ks)
    if n < 1 or any(k < 1 for k in ks):
        raise BadParams("diag_power needs integer exponents k_j >= 1")
    if units is None:
        units = [1.0] * n
    units = _complex_list(units)
    if len(units) != n:
        raise BadParams("units and exponents must have the same length")
    if any(abs(abs(u) - 1.0) > _UNIT_TOL for u in units):
        raise BadParams("diag_power units must be unimodular")
    return MapTuple(tuple(Scale(u, Power(k, Coordinate(j, n))) for j, (u, k) in enumerate(zip(units, ks))))


def build_unitary(matrix) -> MapExpr:
    """z -> U z for a unitary U; a ball self-map for p = 2."""
    lin = LinearMatrix(json_matrix(matrix))
    m = lin.matrix
    if m.shape[0] != m.shape[1]:
        raise BadParams("unitary matrix must be square")
    defect = np.max(np.abs(np.conj(m.T) @ m - np.eye(m.shape[0])))
    if defect > 1e-9:
        raise BadParams(f"matrix is not unitary (defect {defect:.2e})")
    return lin


def haar_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian, phases fixed."""
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# disk extremals
# ---------------------------------------------------------------------------


def _inner_factor(c: float) -> MapExpr:
    """A(z) = z * (z + c)/(1 + c z) on the disk, with the degenerate ends
    c = 0 (A = z^2) and c = 1 (A = z) simplified exactly."""
    zc = Coordinate(0, 1)
    if c < 1e-15:
        return Power(2, zc)
    if c > 1.0 - 1e-12:
        return zc
    return Product((zc, MoebiusDisk(c, 1.0, zc)))


def build_zhu_extremal(a=0.0, d=0.0) -> MapExpr:
    """Self-map of the disk attaining the sharp boundary-derivative bound at 1.

    a = f(0) (complex, |a| < 1), d = |f'(0)| with d <= 1 - |a|^2.
    With a = d = 0 the map degenerates to z -> z^2.
    """
    a = json_complex(a)
    d = json_real(d)
    if not abs(a) < 1.0:
        raise BadParams("zhu_extremal needs |a| < 1")
    if not 0.0 <= d <= 1.0 - abs(a) ** 2 + 1e-12:
        raise BadParams("zhu_extremal needs 0 <= d <= 1 - |a|^2")
    c = min(d / (1.0 - abs(a) ** 2), 1.0)
    inner = _inner_factor(c)
    beta = 1.0 if a == 0 else (1.0 - a) / (1.0 - np.conj(a))
    return MoebiusDisk(a, beta, inner)


def build_kalaj_extremal(b, a=0.0, d=0.0, p=2) -> MapExpr:
    """Disk-to-ball extremal b * (A(z) + a)/(1 + a A(z)) with ||b||_p = 1.

    a = ||f(0)||, d = ||f'(0)||, both real with 0 <= a < 1 and d <= 1 - a^2.
    """
    p = as_exponent(p)
    b = cvector(_complex_list(b))
    if abs(norm_p(b, p) - 1.0) > _UNIT_TOL:
        raise BadParams("kalaj_extremal direction b must be a unit vector for the given p")
    a = json_real(a)
    d = json_real(d)
    if not 0.0 <= a < 1.0:
        raise BadParams("kalaj_extremal needs 0 <= a < 1")
    if not 0.0 <= d <= 1.0 - a**2 + 1e-12:
        raise BadParams("kalaj_extremal needs 0 <= d <= 1 - a^2")
    c = min(d / (1.0 - a**2), 1.0)
    sigma = MoebiusDisk(a, 1.0, _inner_factor(c)) if a > 0 else _inner_factor(c)
    return MapTuple(tuple(Scale(bj, sigma) for bj in b))


def build_moebius_fix1(a=0.0) -> MapExpr:
    """Disk automorphism (z + a)/(1 + a z), a real: fixes 1, sends 0 to a."""
    a = json_real(a)
    if not -1.0 < a < 1.0:
        raise BadParams("moebius_fix1 needs a real shift in (-1, 1)")
    return MoebiusDisk(a, 1.0, Coordinate(0, 1))


def build_moebius_tuple(m, a, rotation=None) -> MapExpr:
    """Componentwise disk automorphism of the polydisk D^m."""
    m = _check_dim(m)
    a = _complex_list(a)
    rotation = [1.0] * m if rotation is None else _complex_list(rotation)
    if len(a) != m or len(rotation) != m:
        raise BadParams("moebius_tuple needs m shifts and m rotations")
    return MapTuple(tuple(MoebiusDisk(a[i], rotation[i], Coordinate(i, m)) for i in range(m)))


# ---------------------------------------------------------------------------
# product-domain maps  (input is the concatenated (z, w) in C^{n+m})
# ---------------------------------------------------------------------------


def build_product_projection(n, m) -> MapExpr:
    """(z, w) -> w."""
    n, m = _check_dim(n), _check_dim(m)
    return MapTuple(tuple(Coordinate(n + i, n + m) for i in range(m)))


def build_product_moebius(n, m, a, rotation=None) -> MapExpr:
    """(z, w) -> componentwise Moebius of w; constant in z."""
    n, m = _check_dim(n), _check_dim(m)
    inner = build_moebius_tuple(m, a, rotation)
    comps = []
    for i in range(m):
        node = inner.components[i]
        comps.append(MoebiusDisk(node.a, node.rotation, Coordinate(n + i, n + m)))
    return MapTuple(tuple(comps))


def build_product_mixed(n, m) -> MapExpr:
    """(z, w) -> ((w_i + z_1 w_i^2)/2): into the polydisk but fixes no slice."""
    n, m = _check_dim(n), _check_dim(m)
    comps = []
    for i in range(m):
        wi = Coordinate(n + i, n + m)
        comps.append(Scale(0.5, Sum((wi, Product((Coordinate(0, n + m), Power(2, wi)))))))
    return MapTuple(tuple(comps))


# ---------------------------------------------------------------------------
# pluriharmonic maps
# ---------------------------------------------------------------------------


def build_conjugate(n) -> MapExpr:
    """z -> conj(z); anti-holomorphic, pluriharmonic."""
    return identity_map(_check_dim(n)).conjugate()


def build_ph_linear_blend(n, mix=0.5) -> MapExpr:
    """z -> mix * z + (1 - mix) * conj(z); fixes every real boundary point."""
    n = _check_dim(n)
    s = json_real(mix)
    if not 0.0 <= s <= 1.0:
        raise BadParams("mix must lie in [0, 1]")
    comps = tuple(
        Sum((Scale(s, Coordinate(j, n)), Scale(1.0 - s, ConjugateCoordinate(j, n))))
        for j in range(n)
    )
    return MapTuple(comps)


def build_ph_blend(n, mix=0.5, shift_holo=0.0, shift_anti=0.0, anchor=0) -> MapExpr:
    """Pluriharmonic self-map supported on one coordinate slot.

    Slot `anchor` carries mix * m_a(z_k) + (1 - mix) * conj(m_b(z_k)) with
    real shifts a, b; the remaining slots are 0.  Sends e_k to e_k and 0 to
    (mix * a + (1 - mix) * b) e_k.
    """
    n = _check_dim(n)
    k = json_int(anchor)
    if not 0 <= k < n:
        raise BadParams("anchor index out of range")
    s = json_real(mix)
    if not 0.0 <= s <= 1.0:
        raise BadParams("mix must lie in [0, 1]")
    a, b = json_real(shift_holo), json_real(shift_anti)
    if not (-1.0 < a < 1.0 and -1.0 < b < 1.0):
        raise BadParams("shifts must lie in (-1, 1)")
    holo = MoebiusDisk(a, 1.0, Coordinate(k, n)) if a != 0.0 else Coordinate(k, n)
    anti = (
        MoebiusDisk(b, 1.0, ConjugateCoordinate(k, n))
        if b != 0.0
        else ConjugateCoordinate(k, n)
    )
    slot = Sum((Scale(s, holo), Scale(1.0 - s, anti)))
    comps = tuple(slot if j == k else Constant(0.0, n) for j in range(n))
    return MapTuple(comps)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


GALLERY = {
    "identity": build_identity,
    "scaled_identity": build_scaled_identity,
    "square_first": build_square_first,
    "first_times_last": build_first_times_last,
    "diag_power": build_diag_power,
    "unitary": build_unitary,
    "zhu_extremal": build_zhu_extremal,
    "kalaj_extremal": build_kalaj_extremal,
    "moebius_fix1": build_moebius_fix1,
    "moebius_tuple": build_moebius_tuple,
    "product_projection": build_product_projection,
    "product_moebius": build_product_moebius,
    "product_mixed": build_product_mixed,
    "conjugate": build_conjugate,
    "ph_linear_blend": build_ph_linear_blend,
    "ph_blend": build_ph_blend,
}


def gallery(name: str, params: dict | None = None) -> MapExpr:
    """Build a gallery map by name with JSON-style parameters."""
    if name not in GALLERY:
        raise BadParams(f"unknown gallery map '{name}' (see gallery_names())")
    try:
        return GALLERY[name](**(params or {}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"bad parameters for gallery map '{name}': {exc}") from exc


def gallery_names() -> list[str]:
    return sorted(GALLERY)


# ---------------------------------------------------------------------------
# curated instance sweeps used by the acceptance suite
# ---------------------------------------------------------------------------


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
    if not p.is_inf and abs(p.p - 2.0) < 1e-12:
        gen = _rng.stream(0, "gallery-unitary", n)
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
    gen = _rng.stream(seed, "ph-instances")
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
