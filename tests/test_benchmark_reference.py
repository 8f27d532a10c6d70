"""The benchmark's stored reports still describe this program.

perfbench/run.py rejects a run whose jobs miss their expect, or whose cold
report at the default seed drifts from perfbench/reference/<workload>.jsonl
beyond rel 1e-6 / abs 1e-9.  This test makes the same checks in the test
gate, with the benchmark's own workload generator and comparison, loaded
read-only (no bytecode is written under perfbench/).
"""

import importlib.util
import pathlib
import sys

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


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_report_matches_the_benchmark_reference(name):
    doc = workloads.document(name, workloads.DEFAULT_SEED, PERFBENCH.parent)
    results = sl.run_suite(sl.parse_suite(doc), workers=1)
    assert [r.job_id for r in results if not r.passed] == []
    assert run.reference_mismatches(name, sl.emit_report(results, "jsonl")) == {}
