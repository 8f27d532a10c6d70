"""Benchmark of schwarz-lab suite runs, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 20260816 --seconds 20 --trace 0

A pass runs one whole suite serially in this process through the public API,
the way ``schwarz-lab run`` does: the document is parsed once with
``parse_suite``, then each pass is ``run_suite(config, workers=1)`` followed
by ``emit_report(results, "jsonl")``.  The loop is closed: one client, and
the next pass starts only after the previous one finished.

``--trace 0`` measures with tracing off and prints the end-to-end metrics:
``setup_s`` (median over fresh interpreters of import, parse and the cold
pass), ``jobs_per_s`` (jobs over the time of all warm passes) and
``peak_rss_mb``.  The median warm pass, its quartiles, a high percentile and
the pass count are printed beside them.  The median pass is context, not a
metric: the speed of a shared host drifts by tens of percent over seconds to
minutes, and across runs the median of a run's passes follows that drift
more than the mean over all of them does.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics, including the tracing overhead.

Every pass is checked: each job must meet its ``expect``, every report must
equal the cold pass byte for byte, and at the default seed the cold report
must match the stored reference in ``perfbench/reference``.  The last line of
stdout is one JSON object ``{correct, attempted, failed, metrics}``; the exit
code is 0 only when every check passed.  A run record (and, when traced, the
spans of the first traced pass as Chrome trace-event JSON) is written under
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120

# Reference match: numbers within REL_TOL of each other, or ABS_FLOOR apart.
REL_TOL = 1e-6
ABS_FLOOR = 1e-9

# Every check the suite schema knows; suite.job_ms.<check> is printed for each.
CHECKS = ("schwarz_pick", "zhu", "kalaj", "lp_boundary_schwarz", "liu_wang",
          "product_slice", "pluriharmonic_boundary", "rigidity", "proof_chain",
          "equality_1d", "polydisk_counterexample", "caratheodory_metric",
          "caratheodory_distance")

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# environment record (context only; nothing here normalises a metric)


def spin_seconds() -> float:
    """Time of a fixed pure-Python loop, a reading of this machine's speed."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return time.perf_counter() - start


def _blas_threads() -> str:
    """Thread cap of the loaded OpenBLAS, read through its own API."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    return f"unknown {env}" if env else "unknown"


def _commit() -> str:
    """The git commit when run from a clone; a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    head = "not a git checkout"
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        head = ref
    except OSError:
        pass
    return f"{head}, src sha256 {digest.hexdigest()[:16]}"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# output checks


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= max(ABS_FLOOR, REL_TOL * max(abs(a), abs(b)))
    return a == b


def reference_mismatches(workload: str, report: bytes) -> dict:
    """Job id -> reason, for cold-report rows that disagree with the reference."""
    path = REFERENCE / f"{workload}.jsonl"
    want = [json.loads(line) for line in path.read_text().splitlines()]
    got = [json.loads(line) for line in report.decode().splitlines()]
    bad = {}
    if [r["id"] for r in want] != [r["id"] for r in got]:
        return {"*": "job ids differ from the reference"}
    for w, g in zip(want, got):
        if w["theorem_id"] != g["theorem_id"] or w["passed"] is not g["passed"]:
            bad[g["id"]] = "theorem_id or passed differs from the reference"
        elif not _close(w, g):
            bad[g["id"]] = (f"numbers differ from the reference beyond rel {REL_TOL:g} "
                            f"/ abs {ABS_FLOOR:g}")
    return bad


class Checks:
    """Counts jobs attempted and failed over every pass of a run."""

    def __init__(self, results, report: bytes):
        self.report = report
        self.lines = report.splitlines()
        self.ids = [r.job_id for r in results]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cold_problems = self._missed_expect(results)

    @staticmethod
    def _missed_expect(results) -> dict:
        """Jobs whose outcome, or whose unexpected error, misses their expect."""
        problems = {}
        for r in results:
            if not r.passed:
                raised = r.hypotheses and r.hypotheses[0]["name"].startswith("raised_")
                problems[r.job_id] = (f"{'error' if raised else 'outcome'} misses expect "
                                      f"({r.note or r.theorem_id})")
        return problems

    def add_cold_problem(self, job_id: str, reason: str):
        self.cold_problems.setdefault(job_id, reason)

    def cold_pass(self):
        self._count(dict(self.cold_problems), "cold pass")

    def later_pass(self, results, report: bytes, what: str):
        problems = self._missed_expect(results)
        if report != self.report:
            lines = report.splitlines()
            for i, job_id in enumerate(self.ids):
                if i >= len(lines) or lines[i] != self.lines[i]:
                    problems.setdefault(job_id, "jsonl line differs from the cold pass")
        self._count(problems, what)

    def probe_pass(self, line_hashes: list, what: str):
        mine = [hashlib.sha256(line).hexdigest() for line in self.lines]
        problems = {job_id: "fresh-interpreter report line differs"
                    for job_id, theirs, ours in zip(self.ids, line_hashes, mine) if theirs != ours}
        if len(line_hashes) != len(mine):
            problems["*"] = "fresh-interpreter report has another job count"
        self._count(problems, what)

    def _count(self, problems: dict, what: str):
        self.attempted += len(self.ids)
        self.failed += len(problems)
        for job_id, reason in problems.items():
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {job_id}: {reason}")


# ---------------------------------------------------------------------------
# measurement


def one_pass(sl, config):
    start = time.perf_counter()
    results = sl.run_suite(config, workers=1)
    report = sl.emit_report(results, "jsonl")
    return time.perf_counter() - start, results, report


def setup_probe(doc: bytes, checks: Checks, what: str) -> float:
    """setup_s of one fresh interpreter; its cold report is checked too."""
    proc = subprocess.run([sys.executable, str(HERE / "cold.py")], input=doc,
                          capture_output=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
    out = json.loads(proc.stdout.decode().splitlines()[-1])
    checks.probe_pass(out["lines"], what)
    return out["setup_s"]


def percentile_line(times: list) -> str:
    """Quartiles and the highest percentile with at least ten passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    parts = []
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        parts.append(f"q1 {q1:.4f}, q3 {q3:.4f}")
    if n >= 11:
        parts.append(f"p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}")
    else:
        parts.append("no percentile with ten passes beyond it")
    parts.append(f"{n} passes")
    return ", ".join(parts)


def measure_end_to_end(sl, config, doc, checks, seconds, log):
    """Warm passes for ``seconds`` of pass time, split into SETUP_RUNS segments
    with one set-up probe before each, so both metrics sample the whole run."""
    times, setup_times = [], []
    for segment in range(1, SETUP_RUNS + 1):
        setup_times.append(setup_probe(doc, checks, f"set-up probe {segment}"))
        while not times or sum(times) < seconds * segment / SETUP_RUNS:
            dt, results, report = one_pass(sl, config)
            times.append(dt)
            checks.later_pass(results, report, f"warm pass {len(times)}")
    jobs = len(config.jobs)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": jobs * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    log(f"setup_s {metrics['setup_s']:.4f} s  (median of {len(setup_times)} fresh "
        f"interpreters: {', '.join(f'{t:.4f}' for t in setup_times)})")
    log(f"# median warm pass {statistics.median(times):.4f} s  ({percentile_line(times)})")
    log(f"jobs_per_s {metrics['jobs_per_s']:.2f} 1/s  ({jobs} jobs x {len(times)} warm passes)")
    log(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    return metrics, {"warm_s": times, "setup_s": setup_times}


def measure_layers(sl, tracer_mod, tracer, config, checks, seconds, parse_spans, log):
    """Alternate untraced and traced passes for ``seconds``; per-layer metrics."""
    untraced, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        dt, results, report = one_pass(sl, config)
        untraced.append(dt)
        checks.later_pass(results, report, f"untraced pass {len(untraced)}")
        tracer.install()
        try:
            dt, results, report = one_pass(sl, config)
        finally:
            tracer.uninstall()
        traced.append(dt)
        passes.append(tracer.take())
        checks.later_pass(results, report, f"traced pass {len(traced)}")
    metrics = tracer_mod.summarize(passes, CHECKS)
    metrics["suite.parse_suite.s"] = tracer_mod.self_seconds(parse_spans, "suite.parse_suite")
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if tracer.missing:
        log(f"# tracer targets not found (their metrics read 0): {', '.join(tracer.missing)}")
    log(f"# median traced pass {statistics.median(traced):.4f} s ({percentile_line(traced)}); "
        f"untraced {statistics.median(untraced):.4f} s ({percentile_line(untraced)})")
    return metrics, passes[0], {"untraced_s": untraced, "traced_s": traced}


def layer_units(metrics: dict) -> dict:
    """Unit of each per-layer metric, from its name."""
    units = {}
    for name in metrics:
        suffix = name.rsplit(".", 1)[-1]
        if name.startswith("suite.job_ms."):
            units[name] = "ms"
        elif suffix == "s":
            units[name] = "s"
        elif suffix.endswith("_per_s"):
            units[name] = "1/s"
        elif suffix in ("calls", "points", "evaluations", "small_calls", "raised",
                        "evals_per_call"):
            units[name] = "count"
        else:
            units[name] = "ratio"
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "schwarz_lab" / "__init__.py", ROOT / "suites" / "paper.json"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a "
                  "schwarz-lab checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import schwarz_lab as sl
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def log(line: str):
        print(line, flush=True)

    spin_before = spin_seconds()
    env = environment()
    doc = workloads.document(args.workload, args.seed, ROOT)
    doc_obj = json.loads(doc)
    sizes = workloads.samples_per_job(doc_obj)
    log(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    log("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    log(f"# input {len(doc_obj['jobs'])} jobs, "
        f"{len({j['check'] for j in doc_obj['jobs']})} checks; samples or grid points per job "
        + (f"{min(sizes)}..{max(sizes)} (median {statistics.median(sizes):g}, "
           f"{len(sizes)} jobs set one)" if sizes else "all defaults"))
    log("# one client, closed loop, run_suite(workers=1); "
        f"{SETUP_RUNS if args.trace == 0 else 0} set-up probes")

    tracer = tracer_mod.Tracer()
    if args.trace:
        tracer.install()
    try:
        config = sl.parse_suite(doc)
    finally:
        tracer.uninstall()
    parse_spans = tracer.take()

    _, cold_results, cold_report = one_pass(sl, config)
    checks = Checks(cold_results, cold_report)
    if args.seed == workloads.DEFAULT_SEED:
        for job_id, reason in reference_mismatches(args.workload, cold_report).items():
            checks.add_cold_problem(job_id, reason)

    checks.cold_pass()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace == 0:
        metrics, record["passes"] = measure_end_to_end(
            sl, config, doc, checks, args.seconds, log)
        units = END_TO_END_UNITS
    else:
        metrics, first_spans, record["passes"] = measure_layers(
            sl, tracer_mod, tracer, config, checks, args.seconds, parse_spans, log)
        metrics["failed_frac"] = checks.failed / checks.attempted
        units = layer_units(metrics)
        for name in sorted(metrics):
            log(f"{name} {metrics[name]:.6g} {units[name]}")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(tracer_mod.chrome_trace(parse_spans, first_spans)))
        log(f"# spans of the parse and the first traced pass: {trace_path.relative_to(ROOT)}")

    spin_after = spin_seconds()
    log(f"# spin_s before {spin_before:.4f} after {spin_after:.4f} (context only)")
    log(f"# failed {checks.failed} of {checks.attempted} jobs attempted "
        f"(failed_frac {checks.failed / checks.attempted:g})")
    for line in checks.problems:
        log(f"# FAIL {line}")
    correct = checks.failed == 0
    record.update(spin_s=[spin_before, spin_after], metrics=metrics, problems=checks.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
