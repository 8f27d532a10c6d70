"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  * each workload generator is deterministic in its seed, and parse_suite
    accepts what it generates;
  * the tracer finds every target, wraps every module's reference, restores
    them all, and a traced pass gives the same report bytes as an untraced one;
  * every metric name run.py prints equals one declared in BENCHMARK.json,
    with the declared unit, for every workload and both --trace values;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import schwarz_lab as sl  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, 1, 2)


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_generators():
    for name in workloads.WORKLOADS:
        docs = {}
        for seed in SEEDS:
            doc = workloads.document(name, seed, ROOT)
            check(doc == workloads.document(name, seed, ROOT),
                  f"{name} seed {seed}: same document twice")
            config = sl.parse_suite(doc)
            check(config.seed == seed and len(config.jobs) > 0,
                  f"{name} seed {seed}: parse_suite accepts {len(config.jobs)} jobs")
            check({j.check for j in config.jobs} <= set(run.CHECKS),
                  f"{name} seed {seed}: every check has a job_ms metric")
            docs[seed] = doc
        check(len(set(docs.values())) == len(SEEDS), f"{name}: seeds give distinct documents")


def test_tracer():
    doc = workloads.document("paper-suite", 1, ROOT)
    config = sl.parse_suite(doc)
    plain = sl.emit_report(sl.run_suite(config, workers=1), "jsonl")
    originals = {(m.__name__, k): v for m in list(sys.modules.values())
                 if getattr(m, "__name__", "").startswith("schwarz_lab")
                 for k, v in vars(m).items() if callable(v)}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        check(not tracer.missing, f"tracer finds every target (missing: {tracer.missing})")
        check(sl.verify.norm_p is sl.geometry.norm_p is sl.norm_p
              and getattr(sl.verify.norm_p, "__wrapped__", None) is not None,
              "tracer rebinds a function in every module that imports it")
        traced = sl.emit_report(sl.run_suite(config, workers=1), "jsonl")
    finally:
        tracer.uninstall()
    spans = tracer.take()
    restored = {(m.__name__, k): v for m in list(sys.modules.values())
                if getattr(m, "__name__", "").startswith("schwarz_lab")
                for k, v in vars(m).items() if callable(v)}
    check(restored == originals, "uninstall restores every binding")
    check(traced == plain, "traced and untraced passes give identical report bytes")
    names = {s[tracer_mod.NAME] for s in spans}
    expected = {t[0] for t in tracer_mod.TARGETS} - {"suite.parse_suite", "diff.complex_jacobian_fd"}
    check(expected <= names, f"a paper-suite pass records spans of {len(expected)} targets")
    jobs = {s[tracer_mod.JOB] for s in spans if s[tracer_mod.NAME] == "geometry.norm_p"}
    check(None not in jobs and len(jobs) > 1, "nested spans carry their job id")


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json declares the generator's workloads")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _run(["--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)], ROOT)
            check(proc.returncode == 0, f"{name} trace {trace}: exit code 0 "
                  f"({proc.stderr[-500:]})")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0,
                  f"{name} trace {trace}: correct result line")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == declared[trace],
                  f"{name} trace {trace}: metric names and units equal BENCHMARK.json "
                  f"(extra {sorted(set(printed) - set(declared[trace]))}, "
                  f"missing {sorted(set(declared[trace]) - set(printed))})")
            human = {line.split()[0] for line in proc.stdout.splitlines()[:-1]
                     if line and not line.startswith("#")}
            check(human <= set(declared[trace]),
                  f"{name} trace {trace}: every metric line names a declared metric")


def test_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(["--workload", "paper-suite", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program, run.py exits non-zero and prints no result")


if __name__ == "__main__":
    test_generators()
    test_tracer()
    test_bare_directory()
    test_metric_names()
    print("selftest passed")
