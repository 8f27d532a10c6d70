"""Declarative verification suites.

A suite is one JSON document naming jobs; each job binds a check to a map
(gallery reference or inline expression JSON), point data, and an exponent.
Every input is parsed once, by ``parse_suite``; the runners read only the
parsed values.  Execution is deterministic: every random draw is keyed by the
suite seed and the job id, so re-running a config byte-for-byte reproduces the
report.  Adding a check means adding one entry to ``CHECKS``.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .caratheodory import (
    CompetitorFamily,
    MetricQuery,
    OptBudget,
    competitor_membership_max,
    distance_lower_bound_opt,
    distance_origin_closed,
    metric_lower_bound_opt,
    metric_origin_closed,
)
from .errors import SchemaError, SchwarzLabError
from .gallery import gallery, gallery_names
from .geometry import BoundaryPoint, as_exponent
from .maps import MAX_COUNT, MapExpr, is_real, map_from_json
from .rigidity import (
    RigidityConfig,
    RigidityInstance,
    RigidityReport,
    check_proof_chain,
    check_rigidity,
    counterexample_polydisk_eigen,
    equality_case_1d,
)
from .verify import (
    HypothesisCheck,
    Verdict,
    VerifyConfig,
    verify_kalaj,
    verify_liu_wang,
    verify_lp_boundary_schwarz,
    verify_pluriharmonic_boundary,
    verify_product_slice,
    verify_schwarz_pick,
    verify_zhu,
)

RIGIDITY_VERDICTS = ("certified", "equations_fail", "hypotheses_fail")

# Distance from the unit sphere allowed for boundary points and anchors.
_BOUNDARY_TOL = 1e-8

_VERIFY_TOL_KEYS = ("hypothesis_tol", "margin_tol", "tangent_tol",
                    "slope_rel_tol")
_RIGIDITY_TOL_KEYS = ("origin_tol", "holo_tol", "fixed_tol", "equation_tol",
                      "identity_tol")
_KNOWN_TOL_KEYS = set(_VERIFY_TOL_KEYS) | set(_RIGIDITY_TOL_KEYS) | {"attain_tol"}


@dataclass(frozen=True)
class JobSpec:
    """One validated job: raw JSON inputs in ``params`` (for ``serialize_suite``),
    and in ``parsed`` as the runners read them (MapExpr, read-only arrays, Exponent)."""

    id: str
    check: str
    expect: str
    params: dict
    parsed: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class SuiteConfig:
    suite_name: str
    seed: int
    tolerance_overrides: dict
    jobs: tuple


@dataclass(frozen=True)
class JobResult:
    """One executed job; serializes with the frozen report keys."""

    job_id: str
    theorem_id: str
    passed: bool
    margin: float | None
    quantities: dict
    hypotheses: tuple
    residuals: dict
    runtime_ms: float | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "id": self.job_id,
            "theorem_id": self.theorem_id,
            "passed": bool(self.passed),
            "margin": _finite_or_none(self.margin),
            "quantities": {k: _finite_or_none(v)
                           for k, v in self.quantities.items()},
            "hypotheses": [
                {"name": h["name"], "ok": bool(h["ok"]),
                 "residual": _finite_or_none(h["residual"])}
                for h in self.hypotheses
            ],
            "residuals": {k: _finite_or_none(v)
                          for k, v in self.residuals.items()},
            "runtime_ms": self.runtime_ms,
        }


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# schema


def _fail(path: str, message: str):
    raise SchemaError(message, path=path)


def _want_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    return value


def _want_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of [re, im] pairs")
    out = np.empty(len(value), dtype=complex)
    for i, entry in enumerate(value):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(is_real(t) for t in entry)):
            _fail(f"{path}/{i}", "expected an [re, im] number pair")
        out[i] = complex(entry[0], entry[1])
    # shared by every run of the job, so no runner may write to it
    out.flags.writeable = False
    return out


def _want_anchors(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of vectors")
    return tuple(_want_vector(entry, f"{path}/{i}")
                 for i, entry in enumerate(value))


def _want_exponent(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        _fail(path, "expected a number greater than 1 or the string 'inf'")
    try:
        return as_exponent(value)
    except (SchwarzLabError, ValueError, OverflowError) as exc:
        _fail(path, str(exc))


def _want_map(value, path: str) -> MapExpr:
    if not isinstance(value, dict):
        _fail(path, "expected a map object")
    if "gallery" in value:
        extra = set(value) - {"gallery", "params"}
        if extra:
            _fail(path, f"unexpected keys in gallery reference: {sorted(extra)}")
        name = _want_str(value["gallery"], f"{path}/gallery")
        if name not in gallery_names():
            _fail(f"{path}/gallery", f"unknown gallery map {name!r}")
        params = value.get("params", {})
        if not isinstance(params, dict):
            _fail(f"{path}/params", "expected an object")
        try:
            return gallery(name, params)
        except SchwarzLabError as exc:
            _fail(f"{path}/params", str(exc))
    try:
        return map_from_json(value)
    except SchwarzLabError as exc:
        _fail(path, str(exc))


def _want_count(value, path: str) -> int:
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 1 <= value <= MAX_COUNT):
        _fail(path, f"expected an integer in [1, {MAX_COUNT}]")
    return value


# one parser per job key; each returns the value the runners read
_PARSERS = {
    **dict.fromkeys(("map", "phi"), _want_map),
    **dict.fromkeys(("point", "z_fix", "direction", "base", "z"), _want_vector),
    **dict.fromkeys(("samples", "grid_points", "starts", "iters", "n", "m"),
                    _want_count),
    **dict.fromkeys(("variant", "family"), _want_str),
    "anchors": _want_anchors,
    "exponent": _want_exponent,
}


def _validate_job(raw: dict, index: int) -> JobSpec:
    path = f"/jobs/{index}"
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    job_id = _want_str(raw.get("id"), f"{path}/id")
    check = _want_str(raw.get("check"), f"{path}/check")
    spec = CHECKS.get(check)
    if spec is None:
        _fail(f"{path}/check", f"unknown check {check!r}; "
              f"expected one of {sorted(CHECKS)}")
    params = {k: v for k, v in raw.items() if k not in ("id", "check", "expect")}
    missing = spec.required - set(params)
    if missing:
        _fail(path, f"missing required keys for {check}: {sorted(missing)}")
    extra = set(params) - spec.required - spec.optional
    if extra:
        _fail(path, f"unexpected keys for {check}: {sorted(extra)}")

    expect = _want_str(raw.get("expect", spec.verdicts[0]), f"{path}/expect")
    raises = expect.startswith("raises:") and expect[len("raises:"):].isidentifier()
    if not raises and expect not in spec.verdicts:
        _fail(f"{path}/expect", f"invalid expectation {expect!r} for {check}")

    # structural validation; runtime errors stay with the job result
    parsed = {key: _PARSERS[key](value, f"{path}/{key}")
              for key, value in params.items()}
    dims = {v.shape[0] for v in parsed.get("anchors", ())}
    if "point" in parsed:
        dims.add(parsed["point"].shape[0])
    if "map" in parsed:
        dims.add(parsed["map"].input_dim)
    if len(dims) > 1:
        _fail(path, f"inconsistent dimensions {sorted(dims)}")
    return JobSpec(job_id, check, expect, params, parsed)


def validate_overrides(overrides) -> dict:
    """Check tolerance overrides (known names, positive numbers); SchemaError if not."""
    if not isinstance(overrides, dict):
        _fail("/tolerance_overrides", "expected an object")
    clean = {}
    for key, value in overrides.items():
        if key not in _KNOWN_TOL_KEYS:
            _fail(f"/tolerance_overrides/{key}", "unknown tolerance name")
        if not is_real(value) or value <= 0:
            _fail(f"/tolerance_overrides/{key}", "expected a positive number")
        clean[key] = float(value)
    return clean


def parse_suite(source) -> SuiteConfig:
    """Validate a suite document (dict, JSON text, or bytes) into a SuiteConfig.

    Raises SchemaError whose ``path`` is a JSON pointer to the offending field.
    """
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except ValueError as exc:
            _fail("/", f"invalid JSON: {exc}")
    if not isinstance(source, dict):
        _fail("/", "expected a JSON object")
    extra = set(source) - {"suite_name", "seed", "tolerance_overrides", "jobs"}
    if extra:
        _fail("/", f"unexpected keys: {sorted(extra)}")

    name = _want_str(source.get("suite_name"), "/suite_name")
    seed = source.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _fail("/seed", "expected a non-negative integer (wall-clock seeding "
              "is not allowed)")

    overrides = validate_overrides(source.get("tolerance_overrides", {}))

    raw_jobs = source.get("jobs")
    if not isinstance(raw_jobs, list):
        _fail("/jobs", "expected an array")
    jobs = tuple(_validate_job(raw, i) for i, raw in enumerate(raw_jobs))
    seen = set()
    for i, job in enumerate(jobs):
        if job.id in seen:
            _fail(f"/jobs/{i}/id", f"duplicate job id {job.id!r}")
        seen.add(job.id)
    return SuiteConfig(name, seed, overrides, jobs)


def serialize_suite(config: SuiteConfig) -> dict:
    """Normalized document: defaults filled in, ready for json.dumps."""
    return {
        "suite_name": config.suite_name,
        "seed": config.seed,
        "tolerance_overrides": dict(sorted(config.tolerance_overrides.items())),
        "jobs": [
            {"id": j.id, "check": j.check, "expect": j.expect, **j.params}
            for j in config.jobs
        ],
    }


# ---------------------------------------------------------------------------
# execution


def _job_seed(suite_seed: int, job_id: str) -> int:
    digest = hashlib.blake2s(f"{suite_seed}:{job_id}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2 ** 63)


@dataclass(frozen=True)
class _RunContext:
    seed: int
    overrides: dict

    def verify_cfg(self, job: JobSpec) -> VerifyConfig:
        kw = {k: self.overrides[k] for k in _VERIFY_TOL_KEYS
              if k in self.overrides}
        if "samples" in job.parsed:
            kw["samples"] = job.parsed["samples"]
        return VerifyConfig(seed=_job_seed(self.seed, job.id), **kw)

    def rigidity_cfg(self, job: JobSpec) -> RigidityConfig:
        kw = {k: self.overrides[k] for k in _RIGIDITY_TOL_KEYS
              if k in self.overrides}
        if "samples" in job.parsed:
            kw["selfmap_samples"] = job.parsed["samples"]
        if "grid_points" in job.parsed:
            kw["grid_points"] = job.parsed["grid_points"]
        return RigidityConfig(seed=_job_seed(self.seed, job.id), **kw)

    def opt_budget(self, job: JobSpec) -> OptBudget:
        return OptBudget(starts=job.parsed.get("starts", 24),
                         iters=job.parsed.get("iters", 150),
                         seed=_job_seed(self.seed, job.id))

    def attain_tol(self) -> float:
        return self.overrides.get("attain_tol", 1e-3)


def _row_from_verdict(job: JobSpec, verdict: Verdict) -> JobResult:
    hyps = tuple(
        {"name": h.name, "ok": bool(h.ok), "residual": float(h.residual)}
        for h in verdict.hypotheses
    )
    residuals = {h.name: float(h.residual) for h in verdict.hypotheses}
    quantities = {k: float(v) for k, v in verdict.quantities.items()}
    return JobResult(
        job_id=job.id,
        theorem_id=verdict.theorem_id,
        passed=verdict.passed if job.expect == "pass" else not verdict.passed,
        margin=float(verdict.margin),
        quantities=quantities,
        hypotheses=hyps,
        residuals=residuals,
    )


def _row_from_rigidity(job: JobSpec, report: RigidityReport) -> JobResult:
    passed = report.verdict == job.expect
    quantities = {k: float(v) for k, v in report.quantities.items()}
    quantities["rank"] = float(report.rank)
    quantities["identity_residual"] = float(report.identity_residual)
    residuals = {}
    for i, r in enumerate(report.fixed_point_residuals):
        residuals[f"fixed_point_{i}"] = float(r)
    for i, v in enumerate(report.equation_values):
        residuals[f"equation_{i}_re"] = float(v.real)
        residuals[f"equation_{i}_im"] = float(v.imag)
    for i, r in enumerate(report.jf0_residuals):
        residuals[f"jf0_{i}"] = float(r)
    hyps = (
        {"name": f"verdict_{report.verdict}", "ok": passed, "residual": 0.0},
        {"name": "nonneg_pairings", "ok": bool(report.nonneg_ok),
         "residual": 0.0},
    )
    return JobResult(
        job_id=job.id,
        theorem_id="rigidity_certificate",
        passed=passed,
        margin=None,
        quantities=quantities,
        hypotheses=hyps,
        residuals=residuals,
        note=report.reason,
    )


def _row_from_error(job: JobSpec, exc: Exception) -> JobResult:
    name = type(exc).__name__
    passed = job.expect == f"raises:{name}"
    hyps = ({"name": f"raised_{name}", "ok": passed, "residual": 0.0},)
    return JobResult(
        job_id=job.id,
        theorem_id=job.check,
        passed=passed,
        margin=None,
        quantities={},
        hypotheses=hyps,
        residuals={},
        note=str(exc),
    )


# Boundary points are built per run: NotOnBoundary is a job result, not a
# schema error.
def _boundary_point(job: JobSpec, exponent=None) -> BoundaryPoint:
    e = job.parsed["exponent"] if exponent is None else exponent
    return BoundaryPoint(job.parsed["point"], e, tolerance=_BOUNDARY_TOL)


def _rigidity_instance(job: JobSpec) -> RigidityInstance:
    a = job.parsed
    anchors = tuple(BoundaryPoint(v, a["exponent"], tolerance=_BOUNDARY_TOL)
                    for v in a["anchors"])
    return RigidityInstance(a["map"], anchors, a["exponent"], a["variant"])


def _attainment_verdict(theorem_id: str, closed: float, out, membership: float,
                        tol: float) -> Verdict:
    gap = closed - out.value
    margin = min(tol - gap, gap + 1e-9)
    checks = (
        HypothesisCheck("competitors_map_into_disk", membership <= 1.0 + 1e-9,
                        max(0.0, membership - 1.0)),
        HypothesisCheck("optimizer_converged", bool(out.converged), 0.0),
    )
    quantities = {
        "closed_form": closed,
        "optimized": out.value,
        "gap": gap,
        "evaluations": float(out.evaluations),
    }
    return Verdict(theorem_id, checks, quantities, margin, tolerance=0.0)


def _run_caratheodory_metric(job: JobSpec, ctx: _RunContext) -> Verdict:
    a = job.parsed
    p, direction = a["exponent"], a["direction"]
    base = a["base"] if "base" in a else np.zeros_like(direction)
    if np.any(base):
        raise SchwarzLabError(
            "metric check compares against the origin closed form; base must be 0")
    family = CompetitorFamily(a.get("family", "linear_dual"))
    out = metric_lower_bound_opt(MetricQuery(base, direction, p), family,
                                 ctx.opt_budget(job))
    membership = competitor_membership_max(family, out.params, base, p)
    closed = metric_origin_closed(direction, p)
    return _attainment_verdict("caratheodory_metric_origin", closed, out,
                               membership, ctx.attain_tol())


def _run_caratheodory_distance(job: JobSpec, ctx: _RunContext) -> Verdict:
    p, z = job.parsed["exponent"], job.parsed["z"]
    w = np.zeros_like(z)
    out = distance_lower_bound_opt(z, w, p, budget=ctx.opt_budget(job))
    membership = competitor_membership_max(CompetitorFamily("linear_moebius"),
                                           out.params, w, p)
    closed = distance_origin_closed(z, p)
    return _attainment_verdict("caratheodory_distance_origin", closed, out,
                               membership, ctx.attain_tol())


@dataclass(frozen=True)
class CheckSpec:
    """One check: the job keys it requires and also accepts, ``run(job, ctx)``
    (a Verdict or RigidityReport), and the outcomes a job may expect, default first."""

    required: set
    optional: set
    run: Callable
    verdicts: tuple = ("pass", "fail")


CHECKS = {
    "schwarz_pick": CheckSpec(
        {"map", "exponent"}, {"samples"},
        lambda job, ctx: verify_schwarz_pick(
            job.parsed["map"], job.parsed["exponent"], cfg=ctx.verify_cfg(job))),
    "zhu": CheckSpec(
        {"map"}, set(),
        lambda job, ctx: verify_zhu(job.parsed["map"], ctx.verify_cfg(job))),
    "kalaj": CheckSpec(
        {"map", "exponent"}, set(),
        lambda job, ctx: verify_kalaj(
            job.parsed["map"], job.parsed["exponent"], ctx.verify_cfg(job))),
    "lp_boundary_schwarz": CheckSpec(
        {"map", "point", "exponent"}, set(),
        lambda job, ctx: verify_lp_boundary_schwarz(
            job.parsed["map"], _boundary_point(job), ctx.verify_cfg(job))[0]),
    "liu_wang": CheckSpec(
        {"map", "point"}, set(),
        lambda job, ctx: verify_liu_wang(
            job.parsed["map"], _boundary_point(job, 2), ctx.verify_cfg(job))),
    "product_slice": CheckSpec(
        {"map", "phi", "z_fix", "exponent", "n", "m"}, {"samples"},
        lambda job, ctx: verify_product_slice(
            *(job.parsed[k] for k in ("map", "phi", "z_fix", "exponent", "n", "m")),
            ctx.verify_cfg(job))),
    "pluriharmonic_boundary": CheckSpec(
        {"map", "point", "exponent"}, set(),
        lambda job, ctx: verify_pluriharmonic_boundary(
            job.parsed["map"], _boundary_point(job), ctx.verify_cfg(job))),
    "rigidity": CheckSpec(
        {"map", "anchors", "exponent", "variant"}, {"samples", "grid_points"},
        lambda job, ctx: check_rigidity(
            _rigidity_instance(job), ctx.rigidity_cfg(job)),
        RIGIDITY_VERDICTS),
    "proof_chain": CheckSpec(
        {"map", "anchors", "exponent", "variant"}, set(),
        lambda job, ctx: check_proof_chain(
            _rigidity_instance(job), ctx.rigidity_cfg(job))),
    "equality_1d": CheckSpec(
        {"map"}, set(),
        lambda job, ctx: equality_case_1d(job.parsed["map"], ctx.rigidity_cfg(job))),
    "polydisk_counterexample": CheckSpec(
        {"n"}, set(),
        lambda job, ctx: counterexample_polydisk_eigen(
            job.parsed["n"], ctx.rigidity_cfg(job))),
    "caratheodory_metric": CheckSpec(
        {"direction", "exponent"}, {"base", "family", "starts", "iters"},
        _run_caratheodory_metric),
    "caratheodory_distance": CheckSpec(
        {"z", "exponent"}, {"starts", "iters"},
        _run_caratheodory_distance),
}


def _run_job(job: JobSpec, ctx: _RunContext) -> JobResult:
    out = CHECKS[job.check].run(job, ctx)
    if isinstance(out, RigidityReport):
        return _row_from_rigidity(job, out)
    return _row_from_verdict(job, out)


def run_suite(config: SuiteConfig, workers: int = 1) -> list:
    """Execute all jobs, collecting one JobResult per job in job order.

    Job errors are captured in that job's result and never abort the suite;
    a raised error counts as passed only when the job expects it by name.
    """
    ctx = _RunContext(config.seed, dict(config.tolerance_overrides))

    def one(job: JobSpec) -> JobResult:
        try:
            return _run_job(job, ctx)
        except Exception as exc:  # noqa: BLE001 - captured per contract
            return _row_from_error(job, exc)

    if workers > 1 and len(config.jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, config.jobs))
    return [one(job) for job in config.jobs]


def suite_passed(results) -> bool:
    return all(r.passed for r in results)


# ---------------------------------------------------------------------------
# reporting


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _fmt_float(x) -> str:
    if x is None or not math.isfinite(x):
        return ""
    return repr(float(x))


def _emit_jsonl(results) -> bytes:
    lines = [_dumps(r.to_json()) for r in results]
    return ("\n".join(lines) + "\n" if lines else "").encode()


def _emit_csv(results) -> bytes:
    keys = sorted({k for r in results for k in r.quantities})
    header = ["id", "theorem_id", "passed", "margin"] + keys
    rows = [",".join(header)]
    for r in results:
        cells = [r.job_id, r.theorem_id, "true" if r.passed else "false",
                 _fmt_float(r.margin)]
        cells += [_fmt_float(r.quantities.get(k)) for k in keys]
        rows.append(",".join(cells))
    return ("\n".join(rows) + "\n").encode()


def _emit_text(results) -> bytes:
    ordered = ([r for r in results if not r.passed]
               + [r for r in results if r.passed])
    id_w = max([len(r.job_id) for r in results], default=2)
    th_w = max([len(r.theorem_id) for r in results], default=2)
    lines = []
    for r in ordered:
        margin = ("n/a" if r.margin is None or not math.isfinite(r.margin)
                  else format(r.margin, ".3g"))
        line = (f"{'PASS' if r.passed else 'FAIL'}  {r.job_id:<{id_w}}  "
                f"{r.theorem_id:<{th_w}}  margin={margin}")
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    npass = sum(1 for r in results if r.passed)
    lines.append(f"{npass} passed, {len(results) - npass} failed, "
                 f"{len(results)} total")
    return ("\n".join(lines) + "\n").encode()


def emit_report(results, format: str = "jsonl") -> bytes:
    """Render executed jobs: jsonl (frozen keys), csv (flattened), or text."""
    if format == "jsonl":
        return _emit_jsonl(results)
    if format == "csv":
        return _emit_csv(results)
    if format == "text":
        return _emit_text(results)
    raise SchwarzLabError(f"unknown report format {format!r}")
