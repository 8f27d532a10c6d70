"""The benchmark's stored reports and its tracer still fit this program.

perfbench/run.py rejects a run whose jobs miss their expect, or whose cold
report at the default seed drifts from perfbench/reference/<workload>.jsonl
beyond rel 1e-6 / abs 1e-9.  Its per-layer metrics come from
perfbench/tracer.py, which rebinds named functions in every schwarz_lab
module.  These tests make the same checks as run.py and selftest.py in the
test gate, with the benchmark's own modules, loaded read-only (no bytecode is
written under perfbench/).  The last tests count the tangent passes, map
evaluations and ladder calls of one pass of each workload: a count, unlike a
timing, does not drift with the host.
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
    results = sl.run_suite(sl.parse_suite(doc))
    assert [r.job_id for r in results if not r.passed] == []
    assert run.reference_mismatches(name, sl.emit_report(results, "jsonl")) == {}


def _bindings() -> dict:
    return {(m.__name__, k): v for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("schwarz_lab")
            for k, v in vars(m).items() if callable(v)}


def test_tracer_finds_its_targets_and_leaves_the_report_alone():
    config = sl.parse_suite(workloads.document("paper-suite", 1, PERFBENCH.parent))
    plain = sl.emit_report(sl.run_suite(config), "jsonl")
    originals = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
        # every module that imported norm_p holds the one wrapper
        rebound = sl.verify.norm_p is sl.geometry.norm_p is sl.norm_p
        wrapped = getattr(sl.norm_p, "__wrapped__", None) is not None
        traced = sl.emit_report(sl.run_suite(config), "jsonl")
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


def _rebind(home, name: str, wrap, monkeypatch) -> None:
    """Put wrap(fn), fn = home.name, in place of fn in every schwarz_lab module
    that holds it, as the tracer does: a call through any import of fn counts."""
    fn = getattr(home, name)
    wrapper = wrap(fn)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("schwarz_lab")
                and vars(module).get(name) is fn):
            monkeypatch.setattr(module, name, wrapper)


def _workload_pass(name: str, monkeypatch) -> dict:
    """Counts over one pass of a workload at the default seed: tangent passes,
    repeated (map, point) pairs within a job, the most passes of one job,
    maps.evaluate calls, the checks that called the Richardson ladder, and
    the points a job evaluated f at after differentiating f there."""
    doc = workloads.document(name, workloads.DEFAULT_SEED, PERFBENCH.parent)
    config = sl.parse_suite(doc)
    run_job = sl.suite._run_job
    current, seen, held, per_job = [None, None], set(), [], Counter()
    out = {"passes": 0, "repeats": 0, "evaluates": 0, "evaluated_again": 0,
           "ladder_checks": set()}

    def job(spec):
        current[:] = spec.id, spec.check
        return run_job(spec)

    def rows(f, z):
        held.append(f)  # keeps id(f) unique for the whole pass
        return [(current[0], id(f), row.tobytes())
                for row in np.atleast_2d(np.asarray(z, dtype=complex))]

    def counted_derivatives(derivatives):
        def counted(f, z):
            out["passes"] += 1
            per_job[current[0]] += 1
            for key in rows(f, z):
                out["repeats"] += key in seen
                seen.add(key)
            return derivatives(f, z)
        return counted

    def counted_evaluate(evaluate):
        def counted(f, z, ctx=None):
            out["evaluates"] += 1
            out["evaluated_again"] += sum(key in seen for key in rows(f, z))
            return evaluate(f, z, ctx=ctx)
        return counted

    def counted_ladder(ladder):
        def counted(*args, **kwargs):
            out["ladder_checks"].add(current[1])
            return ladder(*args, **kwargs)
        return counted

    monkeypatch.setattr(sl.suite, "_run_job", job)
    _rebind(sl.diff, "_derivatives", counted_derivatives, monkeypatch)
    _rebind(sl.maps, "evaluate", counted_evaluate, monkeypatch)
    _rebind(sl.diff, "radial_boundary_derivative", counted_ladder, monkeypatch)
    sl.run_suite(config)
    out["most"] = max(per_job.values())
    return out


@pytest.mark.parametrize("name, max_passes", [("boundary-fine", 162), ("paper-suite", 24)])
def test_no_job_differentiates_a_point_twice(name, max_passes, monkeypatch):
    # each job takes every Jacobian and Cauchy-Riemann defect it needs from
    # one tangent pass; boundary-fine made 324 passes when a point took two
    counts = _workload_pass(name, monkeypatch)
    assert counts["repeats"] == 0 and counts["most"] == 1
    assert counts["passes"] <= max_passes


@pytest.mark.parametrize("name, max_evaluates", [("boundary-fine", 252), ("paper-suite", 91)])
def test_boundary_derivatives_and_values_come_from_the_tangent_pass(
        name, max_evaluates, monkeypatch):
    # Zhu, Kalaj and the proof chain read f and f'(1) off their one pass;
    # boundary-fine made 393 evaluate calls and 51 ladder calls before.  A
    # rigidity job's identity residual takes one call per grid block of at
    # most 2,048 rows and one for its segment points: 5 + 1 for each of the
    # five 10,000-point paper-suite jobs, 1 + 1 for each of the 27 boundary-fine
    # jobs (grids of at most 2,000 points)
    counts = _workload_pass(name, monkeypatch)
    assert counts["ladder_checks"] <= {"equality_1d"}
    assert counts["evaluates"] <= max_evaluates
    assert counts["evaluated_again"] == 0
