"""Rigidity certificates: boundary fixed points plus Jacobian pairing equations.

A rigidity instance bundles a self-map, a set of boundary anchors, and one of
four pairing variants.  The checker evaluates the anchor equations and, when
they pass with a full-rank anchor set, certifies the conclusion f = id on a
low-discrepancy interior grid.  Both it and the proof-chain verifier, which
walks the intermediate identities one link at a time, run one shared core
that checks all anchors as stacked batches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .diff import complex_jacobian, radial_boundary_derivative, tangent_pass
from .errors import BadParams, HypothesisFailed
from .gallery import gallery
from .geometry import (
    BoundaryPoint,
    _read_only,
    as_exponent,
    lp_norm,
    norm_p,
    rigidity_v,
    with_lp_norms,
)
from .maps import MapExpr, evaluate
from .verify import DEFAULT_CONFIG, CheckConfig, HypothesisCheck, Verdict

VARIANTS = ("p2", "polydisk", "schwarz_v", "rigidity_v")

CERTIFIED = "certified"
EQUATIONS_FAIL = "equations_fail"
HYPOTHESES_FAIL = "hypotheses_fail"
# every verdict a rigidity check reaches, the one a suite job expects by default first
VERDICTS = (CERTIFIED, EQUATIONS_FAIL, HYPOTHESES_FAIL)


@dataclass(frozen=True)
class RigidityInstance:
    map: MapExpr
    anchors: tuple
    exponent: float
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
        if _has_near_duplicate(self.anchor_matrix):
            raise BadParams("anchors must be distinct")
        if self.variant == "p2" and e != 2.0:
            raise BadParams("the p2 variant requires exponent 2")
        if self.variant == "polydisk":
            if not math.isinf(e):
                raise BadParams("the polydisk variant requires exponent inf")
            for a in anchors:
                if not a.on_distinguished_boundary():
                    raise BadParams("polydisk anchors must be torus points")
        if self.variant == "schwarz_v" and e < 2.0:
            raise BadParams("the schwarz_v variant requires p >= 2 or inf")
        if self.variant == "schwarz_v" and math.isinf(e):
            for a in anchors:
                if not a.on_distinguished_boundary():
                    raise BadParams("schwarz_v anchors at p=inf must be torus points")
        if self.variant == "rigidity_v" and math.isinf(e):
            raise BadParams("the rigidity_v variant requires a finite exponent")

    @property
    def dim(self) -> int:
        return self.anchors[0].dim

    @property
    def target(self) -> float:
        return float(self.dim) if self.variant == "polydisk" else 1.0

    # built on first use and kept read-only: none reads f, a seed or a tolerance
    @functools.cached_property
    def anchor_matrix(self) -> np.ndarray:
        return _read_only(np.array([a.point for a in self.anchors]))

    @functools.cached_property
    def pairing_rows(self) -> np.ndarray:
        return _read_only(np.array([_pairing_row(self, a) for a in self.anchors]))

    @functools.cached_property
    def segment_points(self) -> np.ndarray:
        """The points t a, t in linspace(0.05, 0.99, 12), of each anchor a."""
        segs = np.linspace(0.05, 0.99, 12)[None, :, None] * self.anchor_matrix[:, None, :]
        return _read_only(segs.reshape(-1, self.dim))

    @functools.cached_property
    def anchor_rank(self) -> int:
        """Numerical rank of the anchors, over R for rigidity_v, else over C."""
        A = self.anchor_matrix
        svals = np.linalg.svd(A.real if self.variant == "rigidity_v" else A, compute_uv=False)
        return int(np.sum(svals > 1e-10 * svals[0])) if svals[0] > 0 else 0


@dataclass(frozen=True)
class RigidityReport:
    verdict: str
    reason: str
    fixed_point_residuals: tuple
    equation_values: tuple
    nonneg_ok: bool
    jf0_residuals: tuple
    quantities: dict  # rank and identity_residual are -1.0 and NaN until reached

    @property
    def hypotheses(self) -> tuple:
        """The anchor condition as a row: real, nonnegative anchors for rigidity_v."""
        return (HypothesisCheck("nonneg_pairings", self.nonneg_ok, 0.0),)


_KEY_TURNS = 0.6180339887498949  # golden-ratio turns: the key phases e^{2 pi i j turns} never repeat


def _has_near_duplicate(points: np.ndarray) -> bool:
    """Whether two rows lie within 1e-12 in every coordinate, as np.allclose(a, b,
    rtol=0, atol=1e-12) judges each pair.  The sort key Re sum_j conj(u_j) z_j,
    u_j fixed unit phases, is a filter only: a pair within 1e-12 differs there
    by n * 1e-12 at most, and two keys and a window's end round by less than
    4n eps times the largest sum of |terms|, so each row is judged against the
    rows within both bounds after it."""
    n = points.shape[1]
    u = np.exp(2j * math.pi * _KEY_TURNS * np.arange(1, n + 1))
    terms = np.concatenate([points.real, points.imag], axis=1)
    w = np.concatenate([u.real, u.imag])
    key = terms @ w
    window = n * 1.000001e-12 + 4 * n * np.finfo(float).eps * np.max(np.abs(terms) @ np.abs(w))
    order = np.argsort(key, kind="stable")
    rows, key = points[order], key[order]
    width = np.searchsorted(key, key + window, side="right") - np.arange(len(rows))
    for d in range(1, int(np.max(width))):
        i = np.flatnonzero(width[:-d] > d)
        if np.any(np.max(np.abs(rows[i + d] - rows[i]), axis=1) <= 1e-12):
            return True
    return False


def _pairing_row(inst: RigidityInstance, anchor: BoundaryPoint) -> np.ndarray:
    """Row vector r with equation value r . (J alpha)."""
    if inst.variant in ("p2", "polydisk"):
        return np.conj(anchor.point)
    if inst.variant == "schwarz_v":
        return np.conj(anchor.normal)
    return rigidity_v(anchor)  # real; the theorem pairs without conjugating J alpha


def _first_primes(k: int) -> np.ndarray:
    """The first k primes, from a sieve of Eratosthenes doubled until it holds k."""
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for i in range(2, math.isqrt(limit - 1) + 1):
            if sieve[i]:
                sieve[i * i::i] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= k:
            return primes[:k]
        limit *= 2


def _halton_column(base: int, count: int, out: np.ndarray) -> np.ndarray:
    """out[:] = the van der Corput sequence in `base` at indices 1..count, in place.
    Level k holds the sums of the k lowest digits of the indices 0..base**k - 1;
    level k + 1 is base copies of it, copy d plus digit k's term d * b2r, and
    the last level stops at index count, so none holds over 2(count + 1)
    entries.  Digits add lowest first, b2r = 1/base then /= base: the roundings
    tests/test_rigidity.py pins to the reference Halton sampler bit for bit."""
    vals, b2r = np.zeros(1), 1.0 / base
    while vals.size <= count:
        digits = min(base, -(-(count + 1) // vals.size))
        vals = (vals + (np.arange(digits) * b2r)[:, None]).ravel()
        b2r /= base
    out[:] = vals[1:count + 1]
    return out


def _blocks(a: np.ndarray) -> list:
    """a's rows as the fewest views of at most _BLOCK_ROWS rows, near equal in
    size: a one-row block would sum a row's terms in another order."""
    return np.array_split(a, max(1, -(-len(a) // _BLOCK_ROWS)))


def _ball_grid(p: float, n: int, count: int) -> np.ndarray:
    """Halton column j gives z_j its real part 2u - 1 and column n + j its
    imaginary part; the last column u sets each row's lp norm to 0.999 u."""
    bases = _first_primes(2 * n + 1).tolist()
    grid = np.empty((n, count), dtype=complex).T  # column-major, as the sampler stores it
    for base, col in zip(bases, [*grid.real.T, *grid.imag.T]):
        _halton_column(base, count, col)
        col *= 2.0
        col -= 1.0
    radii = 0.999 * _halton_column(bases[-1], count, np.empty(count))
    for rows, r in zip(_blocks(grid), _blocks(radii)):
        with_lp_norms(rows, p, r)
    return grid


_GRID_MEMO_COORDS = 32_768  # count * n, 512 KiB of complex128
_BLOCK_ROWS = 2048  # rows a grid is rescaled and read in at a time


@functools.lru_cache(maxsize=32)
def _shared_grid(p: float, n: int, count: int) -> np.ndarray:
    return _read_only(_ball_grid(p, n, count))


def halton_ball_grid(p, n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy interior grid of the unit p-ball, (count, n).

    Every grid is read-only.  Grids of count * n <= 32,768 are built once per
    (p, n, count), the 32 most recently used (16 MiB at most), and every call
    returns the same array from a process-wide memo.  A larger grid is built
    on every call and not kept.
    """
    p = as_exponent(p)
    if count * n > _GRID_MEMO_COORDS:
        return _read_only(_ball_grid(p, n, count))
    return _shared_grid(p, n, count)


def _identity_residual(inst: RigidityInstance, cfg: CheckConfig) -> float:
    """max ||f(x) - x||_p over the interior grid, block by block, and the segments."""
    p = inst.exponent
    grid = halton_ball_grid(p, inst.dim, cfg.grid_points)
    return float(np.max([np.max(lp_norm(evaluate(inst.map, pts) - pts, p))
                         for pts in [*_blocks(grid), inst.segment_points]]))


def _rigidity_core(inst: RigidityInstance, cfg: CheckConfig):
    """Every rigidity check short of the identity residual, anchors stacked.

    Checks the origin, holomorphy, the self-map grid, the fixed points and
    the pairing equations in that order, stopping at the first failure; then
    the nonneg test and the rank.  One tangent pass, at the origin and the
    anchors, gives F = f there, J_f(0) and the anchor Jacobians.  Returns
    (report, J0, F), None before the pass: the verdict is final when a check
    failed and "" when the equations passed.
    """
    f = inst.map
    p = inst.exponent
    n = inst.dim
    A = inst.anchor_matrix
    quantities: dict = {"rank": -1.0, "identity_residual": math.nan}
    J0 = F = None

    def partial(verdict, reason, fixed=(), eqs=(), nonneg=True, jf0=()):
        return RigidityReport(verdict, reason, tuple(fixed), tuple(eqs),
                              nonneg, tuple(jf0), quantities), J0, F

    f0 = evaluate(f, np.zeros(n, dtype=complex))
    origin_res = float(norm_p(f0, p))
    quantities["origin_residual"] = origin_res
    if not origin_res <= cfg.origin_tol:  # every gate fails on NaN
        return partial(HYPOTHESES_FAIL, "map does not fix the origin")

    F, jacs, holo, _ = tangent_pass(f, np.vstack([np.zeros(n), A]))
    J0, jacs = jacs[0], jacs[1:]
    quantities["holomorphy_residual"] = worst_holo = float(np.max(holo[1:]))
    if not (f.is_holomorphic and worst_holo <= cfg.holo_tol):
        return partial(HYPOTHESES_FAIL, "map is not holomorphic at the anchors")

    pts = halton_ball_grid(p, n, cfg.samples)
    escape = float(np.max(lp_norm(evaluate(f, pts), p)))
    quantities["selfmap_escape"] = float(np.maximum(0.0, escape - 1.0))
    if not escape <= 1.0 + 1e-10:
        return partial(HYPOTHESES_FAIL, "map leaves the unit ball on samples")

    fixed = lp_norm(F[1:] - A, p).tolist()
    if not np.max(fixed) <= cfg.fixed_tol:
        return partial(HYPOTHESES_FAIL, "anchor is not a fixed point", fixed=fixed)

    eqs = [complex(row @ (J @ a.point))
           for row, a, J in zip(inst.pairing_rows, inst.anchors, jacs)]
    J0A = np.matvec(J0, A)
    jf0 = lp_norm(J0A - A, p).tolist()
    holder_norms = lp_norm(J0A, p).tolist()
    quantities["holder_norm_max"] = float(np.max(holder_norms))
    quantities["holder_norm_min"] = float(np.min(holder_norms))

    eq_gap = float(np.max([abs(v - inst.target) for v in eqs]))
    quantities["equation_gap"] = eq_gap
    if not eq_gap <= cfg.equation_tol:
        return partial(EQUATIONS_FAIL, f"pairing equations miss the target {inst.target}",
                       fixed=fixed, eqs=eqs, jf0=jf0)

    # variant hypothesis: real anchors with nonnegative coordinates
    nonneg = True
    if inst.variant == "rigidity_v":
        max_imag = float(np.max(np.abs(A.imag)))
        min_real = float(np.min(A.real))
        quantities["anchor_max_imag"] = max_imag
        quantities["anchor_min_real"] = min_real
        nonneg = max_imag <= 1e-12 and min_real >= -1e-12

    quantities["rank"] = float(inst.anchor_rank)
    return partial("", "", fixed=fixed, eqs=eqs, nonneg=nonneg, jf0=jf0)


def check_rigidity(inst: RigidityInstance,
                   cfg: CheckConfig = DEFAULT_CONFIG) -> RigidityReport:
    """Evaluate the anchor equations and certify or refute the identity conclusion."""
    report = _rigidity_core(inst, cfg)[0]
    if report.verdict:
        return report
    ident = _identity_residual(inst, cfg)
    if not report.nonneg_ok:
        verdict, reason = HYPOTHESES_FAIL, "anchors must be real with nonnegative coordinates"
    elif inst.anchor_rank < inst.dim:
        verdict, reason = HYPOTHESES_FAIL, "insufficient anchors"
    elif not ident <= cfg.identity_tol:
        verdict, reason = HYPOTHESES_FAIL, "identity residual too large despite passing equations"
    else:
        verdict, reason = CERTIFIED, ""
    return replace(report, verdict=verdict, reason=reason,
                   quantities=dict(report.quantities, identity_residual=ident))


def _slices(inst: RigidityInstance, F: np.ndarray) -> np.ndarray:
    """row_a . F[a] / target for each anchor a and each row of F[a], F (k, P, n): (k, P)."""
    rows = inst.pairing_rows / inst.target
    return np.matvec(F, rows)


def _slice_values(inst: RigidityInstance, xis: np.ndarray) -> np.ndarray:
    """psi_a(xi) = row_a . f(xi a) / target at xis (P, 1) for each anchor a: (k, P)
    from one evaluate, each value as psi_a's own map tree gives it."""
    pts = np.stack([xis @ a.point[None, :] for a in inst.anchors])
    return _slices(inst, evaluate(inst.map, pts.reshape(-1, inst.dim)).reshape(pts.shape))


def check_proof_chain(inst: RigidityInstance,
                      cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """Walk the intermediate identities behind the rigidity conclusion.

    Links per anchor a, on the slice psi_a(xi) = row_a . f(xi a) / target:
    (a) psi_a maps the disk into the closed disk, (b) psi_a(0) = 0,
    psi_a(1) = 1, psi_a'(1) = 1, (c) psi_a = id on a radial grid,
    (d) J_f(0) a = a; then (e) full anchor rank forces J_f(0) = I.
    Everything but (a) and (c), which probe every slice in one evaluate, comes
    from the rigidity core: psi_a(0) and psi_a(1) from its pass's values, and
    psi_a'(1) exactly, as its pairing equation row_a . J_f(a) a over the target.
    The chain computes no identity residual, so grid_points does not enter it.
    """
    report, J0, F = _rigidity_core(inst, cfg)
    if report.verdict == EQUATIONS_FAIL:
        raise HypothesisFailed("pairing equations fail; no chain to certify")
    if report.verdict:
        raise HypothesisFailed(f"instance rejected before equations: {report.reason}")

    n = inst.dim
    # every anchor's slice at the Halton disk grid and the ts grid
    ts = np.linspace(0.05, 0.95, 10)
    psi = _slice_values(inst, np.concatenate([halton_ball_grid(2, 1, 200), ts[:, None]]))
    a_res = float(np.maximum(0.0, np.max(np.abs(psi[:, :-len(ts)])) - 1.0))
    c_res = float(np.max(np.abs(psi[:, -len(ts):] - ts)))
    psi0, psi1 = _slices(inst, np.stack([np.broadcast_to(F[0], F[1:].shape), F[1:]], axis=1)).T
    der = np.array(report.equation_values) / inst.target
    b_res = float(np.max(np.abs([psi0, psi1 - 1.0, der - 1.0])))

    d_res = float(np.max(report.jf0_residuals))
    e_res = float(np.linalg.norm(J0 - np.eye(n))) if inst.anchor_rank == n else math.inf

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
        "rank": float(inst.anchor_rank),
    }
    slacks = [1e-10 - a_res, 1e-7 - b_res, 1e-9 - c_res, 1e-7 - d_res]
    slacks.append(1e-7 - e_res if math.isfinite(e_res) else -1.0)
    return Verdict("rigidity_proof_chain", checks, quantities,
                   min(slacks), 0.0)


def equality_case_1d(f: MapExpr, cfg: CheckConfig = DEFAULT_CONFIG) -> Verdict:
    """Boundary derivative exactly 1 forces the identity on the disk."""
    if f.input_dim != 1 or f.output_dim != 1:
        raise BadParams("expected a scalar self-map of the disk")
    f0 = complex(evaluate(f, np.zeros(1, dtype=complex))[0])
    if not abs(f0) <= cfg.origin_tol:
        raise HypothesisFailed(f"f(0) = {f0}, expected 0")
    f1 = complex(evaluate(f, np.ones(1, dtype=complex))[0])
    if not abs(f1 - 1.0) <= cfg.fixed_tol:
        raise HypothesisFailed(f"f(1) = {f1}, expected 1")
    der = radial_boundary_derivative(f, np.ones(1, dtype=complex), np.ones(1, dtype=complex))
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


@functools.lru_cache(maxsize=8)
def _square_first(n: int) -> MapExpr:
    return gallery("square_first", {"n": n})  # the counterexample's map, built once per n


def counterexample_polydisk_eigen(n: int = 3) -> Verdict:
    """Squaring one polydisk coordinate breaks normal proportionality at (1,...,1).

    The Jacobian applied to the torus point has least-squares proportionality
    residual sqrt((n-1)/n) against the point itself, far from zero.
    """
    if n < 2:
        raise BadParams("the counterexample needs n >= 2")
    f = _square_first(n)
    z0 = np.ones(n, dtype=complex)
    J = complex_jacobian(f, z0)
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
