"""Declarative verification suites.

A suite is one JSON document naming jobs; each job binds a check to a map
(gallery reference or inline expression JSON), point data, and an exponent.
Every input is parsed once, by ``parse_suite``, which also builds each job's
boundary point or rigidity instance and its ``CheckConfig``; the runners read
only the parsed values.
Execution is deterministic: every random draw is keyed by the suite seed and
the job id, so re-running a config byte-for-byte reproduces the report.
Adding a check means adding one entry to ``CHECKS``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .caratheodory import FAMILY_KINDS, verify_caratheodory_distance, verify_caratheodory_metric
from .errors import BadParams, SchemaError, SchwarzLabError
from .gallery import gallery, gallery_names
from .geometry import INF_SPELLINGS, BoundaryPoint, as_exponent
from .maps import (MAX_COUNT, MAX_DEPTH, MapExpr, is_real, json_pointer, json_too_deep,
                   load_json, map_from_json)
from .rigidity import (
    VARIANTS,
    VERDICTS,
    RigidityInstance,
    RigidityReport,
    check_proof_chain,
    check_rigidity,
    counterexample_polydisk_eigen,
    equality_case_1d,
)
from .verify import (
    CheckConfig,
    verify_kalaj,
    verify_liu_wang,
    verify_lp_boundary_schwarz,
    verify_pluriharmonic_boundary,
    verify_product_slice,
    verify_schwarz_pick,
    verify_zhu,
)

# Distance from the unit sphere allowed for boundary points and anchors.
_BOUNDARY_TOL = 1e-8

# the tolerances a suite may override, and the job keys that set a CheckConfig count
_KNOWN_TOLS = {f.name for f in fields(CheckConfig) if f.name.endswith("_tol")}
_CONFIG_COUNTS = ("samples", "grid_points", "starts", "iters")


@dataclass(frozen=True)
class JobSpec:
    """One validated job: its inputs in ``parsed`` as the runners read them (MapExpr,
    read-only arrays, the exponent as a float, and under "built" the check's BoundaryPoint or
    RigidityInstance), and ``cfg``, its keyed seed, overrides and counts."""

    id: str
    check: str
    expect: str
    cfg: CheckConfig
    parsed: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class SuiteConfig:
    suite_name: str
    seed: int
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
            "runtime_ms": None,
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


def _want_str(value, path: str, names=None) -> str:
    """A non-empty string; one of ``names`` when they are given."""
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    if names is not None and value not in names:
        _fail(path, f"unknown name {value!r}; expected one of {sorted(names)}")
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
    """A finite number > 1, or "inf" ("infinity" and "oo" too, any case)."""
    if not (is_real(value) and value > 1
            or isinstance(value, str) and value.lower() in INF_SPELLINGS):
        _fail(path, "expected a finite number greater than 1 or the string 'inf'")
    return as_exponent(value)


def _want_map(value, path: str) -> MapExpr:
    if not isinstance(value, dict):
        _fail(path, "expected a map object")
    if "gallery" in value:
        extra = set(value) - {"gallery", "params"}
        if extra:
            _fail(path, f"unexpected keys in gallery reference: {sorted(extra)}")
        name = _want_str(value["gallery"], f"{path}/gallery", gallery_names())
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
        _fail(path + exc.path, exc.message)


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
    "variant": lambda value, path: _want_str(value, path, VARIANTS),
    "family": lambda value, path: _want_str(value, path, FAMILY_KINDS),
    "anchors": _want_anchors,
    "exponent": _want_exponent,
}


def _job_seed(suite_seed: int, job_id: str) -> int:
    digest = hashlib.blake2s(f"{suite_seed}:{job_id}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2 ** 63)


def _validate_job(raw: dict, index: int, seed: int, overrides: dict) -> JobSpec:
    path = f"/jobs/{index}"
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    job_id = _want_str(raw.get("id"), f"{path}/id")
    check = _want_str(raw.get("check"), f"{path}/check", CHECKS)
    spec = CHECKS[check]
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
    if spec.build is not None:
        # a semantic error (NotOnBoundary, BadParams) is the job's result, not a
        # schema error: nothing is stored, and each run rebuilds and raises it
        try:
            parsed["built"] = spec.build(parsed)
        except SchwarzLabError:
            pass
    cfg = CheckConfig(seed=_job_seed(seed, job_id), **overrides,
                      **{k: parsed[k] for k in _CONFIG_COUNTS if k in parsed})
    return JobSpec(job_id, check, expect, cfg, parsed)


def _validate_overrides(overrides) -> dict:
    """Check tolerance overrides (known names, positive numbers); SchemaError if not."""
    if not isinstance(overrides, dict):
        _fail("/tolerance_overrides", "expected an object")
    clean = {}
    for key, value in overrides.items():
        if key not in _KNOWN_TOLS:
            _fail(json_pointer("/tolerance_overrides", key), "unknown tolerance name")
        if not is_real(value) or value <= 0:
            _fail(json_pointer("/tolerance_overrides", key), "expected a positive number")
        clean[key] = float(value)
    return clean


def parse_suite(source) -> SuiteConfig:
    """Validate a suite document (dict, JSON text, or bytes) into a SuiteConfig.

    Raises SchemaError whose ``path`` is a JSON pointer to the offending field.
    """
    if isinstance(source, (str, bytes)):
        try:
            source = load_json(source)
        except ValueError as exc:
            _fail("/", f"invalid JSON: {exc}")
    if not isinstance(source, dict):
        _fail("/", "expected a JSON object")
    deep = json_too_deep(source)
    if deep is not None:
        _fail(deep, f"nested more than {MAX_DEPTH} levels deep")
    extra = set(source) - {"suite_name", "seed", "tolerance_overrides", "jobs"}
    if extra:
        _fail("/", f"unexpected keys: {sorted(extra)}")

    name = _want_str(source.get("suite_name"), "/suite_name")
    seed = source.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _fail("/seed", "expected a non-negative integer (wall-clock seeding "
              "is not allowed)")

    overrides = _validate_overrides(source.get("tolerance_overrides", {}))

    raw_jobs = source.get("jobs")
    if not isinstance(raw_jobs, list):
        _fail("/jobs", "expected an array")
    jobs = tuple(_validate_job(raw, i, seed, overrides) for i, raw in enumerate(raw_jobs))
    seen = set()
    for i, job in enumerate(jobs):
        if job.id in seen:
            _fail(f"/jobs/{i}/id", f"duplicate job id {job.id!r}")
        seen.add(job.id)
    return SuiteConfig(name, seed, jobs)


# ---------------------------------------------------------------------------
# execution


def _row(job: JobSpec, outcome: str, theorem_id: str, checks, outcome_row: str = "",
         margin=None, quantities=None, residuals=None, note: str = "") -> JobResult:
    """The one report row of every job: it passes iff ``outcome`` (a Verdict's
    "pass"/"fail", a RigidityReport's verdict, or "raises:<Name>") equals its
    expect.  ``outcome_row``, when given, names a first hypothesis row whose
    ok is that pass; the hypothesis checks follow, and their residuals are
    the row's unless ``residuals`` is given."""
    passed = outcome == job.expect
    hyps = tuple({"name": h.name, "ok": bool(h.ok), "residual": float(h.residual)}
                 for h in checks)
    if outcome_row:
        hyps = ({"name": outcome_row, "ok": passed, "residual": 0.0},) + hyps
    if residuals is None:
        residuals = {h.name: h.residual for h in checks}
    return JobResult(job.id, theorem_id, passed, None if margin is None else float(margin),
                     {k: float(v) for k, v in (quantities or {}).items()}, hyps,
                     {k: float(v) for k, v in residuals.items()}, note=note)


def _boundary_point(parsed: dict, exponent=None) -> BoundaryPoint:
    e = parsed["exponent"] if exponent is None else exponent
    return BoundaryPoint(parsed["point"], e, tolerance=_BOUNDARY_TOL)


def _rigidity_instance(parsed: dict) -> RigidityInstance:
    anchors = tuple(BoundaryPoint(v, parsed["exponent"], tolerance=_BOUNDARY_TOL)
                    for v in parsed["anchors"])
    return RigidityInstance(parsed["map"], anchors, parsed["exponent"], parsed["variant"])


def _built(job: JobSpec):
    """The job's boundary point or rigidity instance as ``parse_suite`` built it;
    when that build raised, it is built again here, so the job reports the error."""
    built = job.parsed.get("built")
    return CHECKS[job.check].build(job.parsed) if built is None else built


@dataclass(frozen=True)
class CheckSpec:
    """One check: the job keys it requires and also accepts, ``run(job)``
    (a Verdict or RigidityReport), the outcomes a job may expect, default first,
    and ``build(parsed)``, if any, the input object ``parse_suite`` makes once."""

    required: set
    optional: set
    run: Callable
    verdicts: tuple = ("pass", "fail")
    build: Callable | None = None


CHECKS = {
    "schwarz_pick": CheckSpec(
        {"map", "exponent"}, {"samples"},
        lambda job: verify_schwarz_pick(job.parsed["map"], job.parsed["exponent"], job.cfg)),
    "zhu": CheckSpec(
        {"map"}, set(),
        lambda job: verify_zhu(job.parsed["map"], job.cfg)),
    "kalaj": CheckSpec(
        {"map", "exponent"}, set(),
        lambda job: verify_kalaj(job.parsed["map"], job.parsed["exponent"], job.cfg)),
    "lp_boundary_schwarz": CheckSpec(
        {"map", "point", "exponent"}, set(),
        lambda job: verify_lp_boundary_schwarz(job.parsed["map"], _built(job), job.cfg),
        build=_boundary_point),
    "liu_wang": CheckSpec(
        {"map", "point"}, set(),
        lambda job: verify_liu_wang(job.parsed["map"], _built(job), job.cfg),
        build=lambda parsed: _boundary_point(parsed, 2)),
    "product_slice": CheckSpec(
        {"map", "phi", "z_fix", "exponent", "n", "m"}, {"samples"},
        lambda job: verify_product_slice(
            *(job.parsed[k] for k in ("map", "phi", "z_fix", "exponent", "n", "m")),
            job.cfg)),
    "pluriharmonic_boundary": CheckSpec(
        {"map", "point", "exponent"}, set(),
        lambda job: verify_pluriharmonic_boundary(job.parsed["map"], _built(job), job.cfg),
        build=_boundary_point),
    "rigidity": CheckSpec(
        {"map", "anchors", "exponent", "variant"}, {"samples", "grid_points"},
        lambda job: check_rigidity(_built(job), job.cfg),
        VERDICTS, build=_rigidity_instance),
    "proof_chain": CheckSpec(
        {"map", "anchors", "exponent", "variant"}, set(),
        lambda job: check_proof_chain(_built(job), job.cfg),
        build=_rigidity_instance),
    "equality_1d": CheckSpec(
        {"map"}, set(),
        lambda job: equality_case_1d(job.parsed["map"], job.cfg)),
    "polydisk_counterexample": CheckSpec(
        {"n"}, set(),
        lambda job: counterexample_polydisk_eigen(job.parsed["n"])),
    "caratheodory_metric": CheckSpec(
        {"direction", "exponent"}, {"base", "family", "starts", "iters"},
        lambda job: verify_caratheodory_metric(
            job.parsed["direction"], job.parsed["exponent"], cfg=job.cfg,
            **{k: job.parsed[k] for k in ("family", "base") if k in job.parsed})),
    "caratheodory_distance": CheckSpec(
        {"z", "exponent"}, {"starts", "iters"},
        lambda job: verify_caratheodory_distance(job.parsed["z"], job.parsed["exponent"], job.cfg)),
}


def _run_job(job: JobSpec) -> JobResult:
    out = CHECKS[job.check].run(job)
    if not isinstance(out, RigidityReport):
        return _row(job, "pass" if out.passed else "fail", out.theorem_id, out.hypotheses,
                    margin=out.margin, quantities=out.quantities)
    residuals = {f"fixed_point_{i}": r for i, r in enumerate(out.fixed_point_residuals)}
    residuals.update((f"equation_{i}_{part}", x) for i, v in enumerate(out.equation_values)
                     for part, x in (("re", v.real), ("im", v.imag)))
    residuals.update((f"jf0_{i}", r) for i, r in enumerate(out.jf0_residuals))
    return _row(job, out.verdict, "rigidity_certificate", out.hypotheses,
                outcome_row=f"verdict_{out.verdict}", residuals=residuals, note=out.reason,
                quantities=out.quantities)


def run_suite(config: SuiteConfig, workers: int = 1) -> list:
    """Execute all jobs in order, serially, collecting one JobResult per job.

    Job errors are captured in that job's result and never abort the suite;
    ``_row`` writes and judges every result, a verdict, report or error alike.
    ``workers`` accepts only 1; it remains for callers that still pass it.
    """
    if workers != 1:
        raise BadParams(f"suites run serially; workers must be 1, got {workers!r}")
    results = []
    for job in config.jobs:
        try:
            results.append(_run_job(job))
        except Exception as exc:  # noqa: BLE001 - captured per contract
            name = type(exc).__name__
            results.append(_row(job, f"raises:{name}", job.check, (), f"raised_{name}",
                                note=str(exc)))
    return results


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "theorem_id", "passed", "margin"] + keys)
    for r in results:
        writer.writerow([r.job_id, r.theorem_id, "true" if r.passed else "false",
                         _fmt_float(r.margin)]
                        + [_fmt_float(r.quantities.get(k)) for k in keys])
    return buf.getvalue().encode()


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


REPORT_FORMATS = {"jsonl": _emit_jsonl, "csv": _emit_csv, "text": _emit_text}


def emit_report(results, format: str = "jsonl") -> bytes:
    """Render executed jobs: jsonl (frozen keys), csv (flattened), or text."""
    if format not in REPORT_FORMATS:
        raise SchwarzLabError(f"unknown report format {format!r}")
    return REPORT_FORMATS[format](results)
