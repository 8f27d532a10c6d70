"""The benchmark's stored reports and its tracer still fit this program.

perfbench/run.py rejects a run whose jobs miss their expect, or whose cold
report at the default seed drifts from perfbench/reference/<workload>.jsonl
beyond rel 1e-6 / abs 1e-9.  Its per-layer metrics come from
perfbench/tracer.py, which rebinds named functions in every schwarz_lab
module.  These tests make the same checks as run.py and selftest.py in the
test gate, with the benchmark's own modules, loaded read-only (no bytecode is
written under perfbench/).  A last test counts the tangent passes of one pass
of each workload: a count, unlike a timing, does not drift with the host.
"""

import importlib.util
import pathlib
import sys
from collections import Counter

import numpy as np
import pytest

import schwarz_lab as sl

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load("workloads")
run = _load("run")
tracer_mod = _load("tracer")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_report_matches_the_benchmark_reference(name):
    doc = workloads.document(name, workloads.DEFAULT_SEED, PERFBENCH.parent)
    results = sl.run_suite(sl.parse_suite(doc), workers=1)
    assert [r.job_id for r in results if not r.passed] == []
    assert run.reference_mismatches(name, sl.emit_report(results, "jsonl")) == {}


def _bindings() -> dict:
    return {(m.__name__, k): v for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("schwarz_lab")
            for k, v in vars(m).items() if callable(v)}


def test_tracer_finds_its_targets_and_leaves_the_report_alone():
    config = sl.parse_suite(workloads.document("paper-suite", 1, PERFBENCH.parent))
    plain = sl.emit_report(sl.run_suite(config, workers=1), "jsonl")
    originals = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
        # every module that imported norm_p holds the one wrapper
        rebound = sl.verify.norm_p is sl.geometry.norm_p is sl.norm_p
        wrapped = getattr(sl.norm_p, "__wrapped__", None) is not None
        traced = sl.emit_report(sl.run_suite(config, workers=1), "jsonl")
    finally:
        tracer.uninstall()
    assert missing == [] and rebound and wrapped
    assert _bindings() == originals
    assert traced == plain
    spans = tracer.take()
    jobs = {s[tracer_mod.JOB] for s in spans if s[tracer_mod.NAME] == "geometry.norm_p"}
    assert None not in jobs and len(jobs) > 1
    # a paper-suite pass reaches every target but these two
    expected = {t[0] for t in tracer_mod.TARGETS} - {"suite.parse_suite", "diff.complex_jacobian_fd"}
    assert expected - {s[tracer_mod.NAME] for s in spans} == set()


def _tangent_passes(name: str, monkeypatch) -> tuple[int, int, int]:
    """(tangent passes, repeated (map, point) pairs within a job, most passes
    of one job) of one pass of a workload at the default seed, counted at
    diff._derivatives."""
    doc = workloads.document(name, workloads.DEFAULT_SEED, PERFBENCH.parent)
    config = sl.parse_suite(doc)
    run_job, derivatives = sl.suite._run_job, sl.diff._derivatives
    current, seen, held, per_job = [None], set(), [], Counter()
    passes = repeats = 0

    def job(spec, ctx):
        current[0] = spec.id
        return run_job(spec, ctx)

    def counted(f, z):
        nonlocal passes, repeats
        passes += 1
        per_job[current[0]] += 1
        held.append(f)  # keeps id(f) unique for the whole pass
        for row in np.atleast_2d(np.asarray(z, dtype=complex)):
            key = (current[0], id(f), row.tobytes())
            repeats += key in seen
            seen.add(key)
        return derivatives(f, z)

    monkeypatch.setattr(sl.suite, "_run_job", job)
    monkeypatch.setattr(sl.diff, "_derivatives", counted)
    sl.run_suite(config, workers=1)
    return passes, repeats, max(per_job.values())


@pytest.mark.parametrize("name, max_passes", [("boundary-fine", 162), ("paper-suite", 24)])
def test_no_job_differentiates_a_point_twice(name, max_passes, monkeypatch):
    # each job takes every Jacobian and Cauchy-Riemann defect it needs from
    # one tangent pass; boundary-fine made 324 passes when a point took two
    passes, repeats, most = _tangent_passes(name, monkeypatch)
    assert repeats == 0 and most == 1
    assert passes <= max_passes
