"""Alternating in-process A/B timing of two schwarz-lab checkouts.

    python3 tools/ab_inprocess.py A_ROOT B_ROOT --workload boundary-fine --pairs 200
    python3 tools/ab_inprocess.py A_ROOT B_ROOT --seeds 20260816,7,99 --pairs 0

Each checkout's ``src/schwarz_lab`` is copied into a temporary directory as
the packages ``schwarz_lab_a`` and ``schwarz_lab_b``, and both are imported
into this one interpreter.  The suite documents are A's perfbench workload at
each of ``--seeds``.  At every seed each side parses the document once and
makes a cold and a warm pass.  The cold passes must give equal jsonl, csv
and text reports byte for byte (only text prints each row's note), and each
warm pass the cold jsonl.  Then, at the first seed, warm passes alternate, A
then B in even pairs and B then A in odd ones; a pass is
``run_suite(config)`` plus ``emit_report(results, "jsonl")``, as perfbench
times it.  With ``--pairs 0`` only the reports are compared.

Printed: the sum ratio (A's total time over B's, so B's jobs_per_s over A's),
the median of the per-pair ratios t_A / t_B, and the pairs B won.  Passing the
same checkout twice is the A/A control.  Alternating in one process keeps
host drift, which moves separate runs by up to about 10%, out of the ratio.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

# Untimed passes per side before the pairs, so lazy set-up and caches settle.
WARMUP_PASSES = 5
# The report formats a cold pass must render alike on both sides; jsonl first.
FORMATS = ("jsonl", "csv", "text")


def load_package(root: pathlib.Path, name: str, tmp: pathlib.Path):
    shutil.copytree(root / "src" / "schwarz_lab", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def load_workloads(root: pathlib.Path):
    # workloads.py imports schwarz_lab by its own name; A's copy serves it
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_pass(sl, config) -> tuple[float, bytes]:
    start = time.perf_counter()
    report = sl.emit_report(sl.run_suite(config), "jsonl")
    return time.perf_counter() - start, report


def same_reports(sides, doc: bytes, seed: int):
    """Both sides' configs for doc, and their jsonl report, when the sides'
    cold passes give the same report in every format and each side's warm
    pass the same jsonl, else None."""
    configs = [sl.parse_suite(doc) for sl in sides]
    cold, warm = [], []
    for sl, cfg in zip(sides, configs):
        results = sl.run_suite(cfg)
        cold.append([sl.emit_report(results, fmt) for fmt in FORMATS])
        warm.append(one_pass(sl, cfg)[1])
    differ = [fmt for fmt, a, b in zip(FORMATS, *cold) if a != b]
    if any(r != cold[0][0] for r in warm):
        differ.append("warm jsonl")
    if differ:
        print(f"ab_inprocess: the {', '.join(differ)} reports differ at seed {seed}",
              file=sys.stderr)
        return None
    return configs, cold[0][0]


def compare(sides, configs, cold: bytes, args) -> int:
    for _ in range(WARMUP_PASSES):
        for sl, cfg in zip(sides, configs):
            one_pass(sl, cfg)

    times = ([], [])
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            dt, report = one_pass(sides[side], configs[side])
            if report != cold:
                print(f"ab_inprocess: pass {i} of side {'AB'[side]} changed its report",
                      file=sys.stderr)
                return 1
            times[side].append(dt)

    a, b = times
    ratios = [ta / tb for ta, tb in zip(a, b)]
    quartiles = statistics.quantiles(ratios, n=4)
    print(f"workload {args.workload} seed {args.seeds[0]}: {len(configs[0].jobs)} jobs, "
          f"{args.pairs} pairs")
    print(f"median pass A {statistics.median(a) * 1e3:.2f} ms  B {statistics.median(b) * 1e3:.2f} ms")
    print(f"sum ratio A/B {sum(a) / sum(b):.4f}  (B jobs_per_s {sum(a) / sum(b) - 1.0:+.1%})")
    print(f"median pair ratio A/B {statistics.median(ratios):.4f}  "
          f"(quartiles {quartiles[0]:.4f} {quartiles[2]:.4f})")
    print(f"B faster in {sum(r > 1.0 for r in ratios)} of {args.pairs} pairs")
    return 0


def seed_list(text: str) -> list:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_root", type=pathlib.Path)
    ap.add_argument("b_root", type=pathlib.Path)
    ap.add_argument("--workload", default="boundary-fine")
    ap.add_argument("--seeds", type=seed_list, default=[20260816],
                    help="comma-separated workload seeds; timing runs at the first")
    ap.add_argument("--pairs", type=int, default=200, help="0 compares reports only")
    args = ap.parse_args(argv)
    if args.pairs < 0 or args.pairs == 1:
        ap.error("--pairs needs 0 or at least 2 (the quartiles take two ratios)")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load_package(args.a_root.resolve(), "schwarz_lab_a", pathlib.Path(tmp)),
                 load_package(args.b_root.resolve(), "schwarz_lab_b", pathlib.Path(tmp))]
        workloads = load_workloads(args.a_root.resolve())
        checked = []
        for seed in args.seeds:
            doc = workloads.document(args.workload, seed, args.a_root.resolve())
            checked.append(same_reports(sides, doc, seed))
            if checked[-1] is None:
                return 1
        print(f"workload {args.workload}: reports equal at seeds "
              f"{', '.join(map(str, args.seeds))}")
        return compare(sides, *checked[0], args) if args.pairs else 0


if __name__ == "__main__":
    sys.exit(main())
