"""Suite documents for the benchmark workloads.

Each generator is a pure function of the workload seed and returns one suite
document built only from the suite schema: gallery references, or
``map_to_json`` output for composed maps.  The program under test receives
nothing but the document (as JSON text) and parses it with ``parse_suite``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

import schwarz_lab as sl

# The shipped suite's own seed; at this seed paper-suite is suites/paper.json
# byte for byte, and each workload's report is checked against a stored one.
DEFAULT_SEED = 20260816

_INF = "inf"


def _pairs(vec) -> list:
    return [[float(v.real), float(v.imag)] for v in np.atleast_1d(np.asarray(vec, dtype=complex))]


def _unimodular(gen, count: int) -> list:
    return _pairs(np.exp(2j * np.pi * gen.uniform(0.0, 1.0, count)))


def _unit_vector(gen, n: int, p) -> np.ndarray:
    x = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return x / sl.norm_p(x, p)


def _gallery(name: str, **params) -> dict:
    return {"gallery": name, "params": params}


# ---------------------------------------------------------------------------
# paper-suite
# ---------------------------------------------------------------------------


def paper_suite(seed: int, root: pathlib.Path) -> dict:
    """The shipped suite with its seed replaced by the workload seed.

    Why: this is the traffic users actually run (`schwarz-lab run
    suites/paper.json`); most of a pass is Caratheodory coordinate ascent
    and `operator_norm_lower`, the two batching targets.
    """
    doc = json.loads((root / "suites" / "paper.json").read_text())
    doc["seed"] = int(seed)
    return doc


# ---------------------------------------------------------------------------
# boundary-fine
# ---------------------------------------------------------------------------

# Rounds of the same job families, each with fresh parameters.
FINE_ROUNDS = 3
# Few distinct (n, grid_points) pairs, so Halton grids repeat within a pass.
FINE_GRID_POINTS = (1000, 2000)


def _lp_boundary_jobs(gen) -> list:
    jobs = []
    for p in (2, 3, 4):
        for n in (1, 2, 3):
            jobs.append({"id": f"boundary-identity-n{n}-p{p}", "check": "lp_boundary_schwarz",
                         "map": _gallery("identity", n=n),
                         "point": _pairs(_unit_vector(gen, n, p)), "exponent": p})
        for n in (2, 3):
            # a unimodular first coordinate stays on the sphere under z1 -> z1^2
            point = np.zeros(n, dtype=complex)
            point[0] = np.exp(2j * np.pi * gen.uniform())
            jobs.append({"id": f"boundary-square-first-n{n}-p{p}",
                         "check": "lp_boundary_schwarz",
                         "map": _gallery("square_first", n=n),
                         "point": _pairs(point), "exponent": p})
        n = 3
        k = int(gen.integers(0, n))
        point = np.zeros(n, dtype=complex)
        point[k] = np.exp(2j * np.pi * gen.uniform())
        jobs.append({"id": f"boundary-diag-power-p{p}", "check": "lp_boundary_schwarz",
                     "map": _gallery("diag_power", ks=[int(v) for v in gen.integers(1, 4, n)],
                                     units=_unimodular(gen, n)),
                     "point": _pairs(point), "exponent": p})
    return jobs


def _extremal_jobs(gen) -> list:
    jobs = []
    for i in range(6):
        a = float(gen.uniform(0.0, 0.8))
        d = float(gen.uniform(0.0, 1.0)) * (1.0 - a * a)
        jobs.append({"id": f"zhu-extremal-{i}", "check": "zhu",
                     "map": _gallery("zhu_extremal", a=a, d=d)})
    for i in range(6):
        p = (2, 3)[i % 2]
        a = float(gen.uniform(0.0, 0.8))
        d = float(gen.uniform(0.0, 1.0)) * (1.0 - a * a)
        # real entries: gallery params read a list of [re, im] pairs as a matrix here
        x = gen.standard_normal(2)
        b = [float(v) for v in x / sl.norm_p(x, p)]
        jobs.append({"id": f"kalaj-extremal-{i}-p{p}", "check": "kalaj",
                     "map": _gallery("kalaj_extremal", b=b, a=a, d=d, p=p), "exponent": p})
    return jobs


def _rigidity_jobs(gen, r: int) -> list:
    jobs = []
    for n in (2, 3):
        # sizes and exponents follow the round, not the seed, so every seed
        # asks for the same amount of work
        grid = FINE_GRID_POINTS[(n + r) % 2]
        u = sl.haar_unitary(n, gen)
        torus = np.exp(2j * np.pi * gen.uniform(0.0, 1.0, (n, n)))
        p_v = (3, 4)[(n + r) % 2]
        spheres = [_unit_vector(gen, n, p_v) for _ in range(n)]
        p_r = (2, 3)[(n + r) % 2]
        positive = [np.abs(_unit_vector(gen, n, p_r)) for _ in range(n)]
        cases = (("p2", 2, list(u.T)), ("polydisk", _INF, list(torus)),
                 ("schwarz_v", p_v, spheres), ("rigidity_v", p_r, positive))
        for variant, p, anchors in cases:
            jobs.append({"id": f"rigid-{variant}-n{n}", "check": "rigidity",
                         "map": _gallery("identity", n=n),
                         "anchors": [_pairs(a) for a in anchors], "exponent": p,
                         "variant": variant, "grid_points": grid, "expect": "certified"})
        jobs.append({"id": f"chain-p2-n{n}", "check": "proof_chain",
                     "map": _gallery("identity", n=n),
                     "anchors": [_pairs(a) for a in u.T], "exponent": 2, "variant": "p2"})
    eye = np.eye(3)
    jobs.append({"id": "rigid-too-few-anchors", "check": "rigidity",
                 "map": _gallery("first_times_last", n=3),
                 "anchors": [_pairs(eye[1]), _pairs(eye[2])], "exponent": 3,
                 "variant": "schwarz_v", "grid_points": FINE_GRID_POINTS[0],
                 "expect": "hypotheses_fail"})
    jobs.append({"id": "rigid-negated-anchors", "check": "rigidity",
                 "map": _gallery("identity", n=2),
                 "anchors": [_pairs(-eye[0, :2]), _pairs(-eye[1, :2])], "exponent": 2,
                 "variant": "rigidity_v", "grid_points": FINE_GRID_POINTS[0],
                 "expect": "equations_fail"})
    return jobs


def _pluriharmonic_jobs(gen) -> list:
    """The parameter ranges of gallery.pluriharmonic_boundary_instances, except
    that shifts stay within +-0.5: beyond that the 5-point Laplacian's
    truncation error at the 0.9 * z0 probe can exceed the verifier's 1e-6
    pluriharmonicity tolerance (1.09e-6 at shift 0.6), rejecting a map that is
    pluriharmonic."""
    jobs = []
    for i in range(8):
        n = (1, 2, 3, 4)[i % 4]
        mix = float(gen.uniform(0.0, 1.0))
        if i % 2 == 0:
            x = gen.standard_normal(n)
            ref = _gallery("ph_linear_blend", n=n, mix=mix)
            point = x / np.linalg.norm(x)
        else:
            k = int(gen.integers(0, n))
            ref = _gallery("ph_blend", n=n, mix=mix,
                           shift_holo=float(gen.uniform(-0.5, 0.5)),
                           shift_anti=float(gen.uniform(-0.5, 0.5)), anchor=k)
            point = np.zeros(n)
            point[k] = 1.0
        jobs.append({"id": f"pluriharmonic-{i}", "check": "pluriharmonic_boundary",
                     "map": ref, "point": _pairs(point), "exponent": 2})
    return jobs


def boundary_fine(seed: int) -> dict:
    """Many cheap boundary, rigidity and chain jobs on small batches.

    Why: the time is per-call overhead on small batches (Jacobian probe
    stacking, Halton grids requested again and again, per-job dispatch);
    it shows those changes and predicts no change for the ascent loops.
    """
    gen = np.random.default_rng([int(seed), 2])
    jobs = []
    for r in range(FINE_ROUNDS):
        round_jobs = (_lp_boundary_jobs(gen) + _extremal_jobs(gen) + _rigidity_jobs(gen, r)
                      + _pluriharmonic_jobs(gen))
        round_jobs += [{"id": f"counterexample-polydisk-n{n}",
                        "check": "polydisk_counterexample", "n": n} for n in (2, 3, 4, 5)]
        for job in round_jobs:
            job["id"] = f"{job['id']}-r{r}"
        jobs += round_jobs
    return {"suite_name": "boundary-fine", "seed": int(seed), "jobs": jobs}


WORKLOADS = {
    "paper-suite": lambda seed, root: paper_suite(seed, root),
    "boundary-fine": lambda seed, root: boundary_fine(seed),
}


def document(workload: str, seed: int, root: pathlib.Path) -> bytes:
    """The workload's suite document as the JSON text the program receives."""
    return json.dumps(WORKLOADS[workload](seed, root)).encode()


def samples_per_job(doc: dict) -> list:
    """Sample or grid-point counts the document sets, one entry per job that sets one."""
    return [j[k] for j in doc["jobs"] for k in ("samples", "grid_points") if k in j]


