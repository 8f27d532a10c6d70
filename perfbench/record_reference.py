"""Record the reference reports the benchmark checks at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.jsonl: the jsonl report of each
workload's document at workloads.DEFAULT_SEED.  Re-record only when a change
to the reports is deliberate, and say so where the change is described.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import schwarz_lab as sl
    import workloads

    reports = {}
    for name in workloads.WORKLOADS:
        doc = workloads.document(name, workloads.DEFAULT_SEED, ROOT)
        results = sl.run_suite(sl.parse_suite(doc), workers=1)
        if not sl.suite.suite_passed(results):
            print(f"{name}: not every job met its expect; nothing recorded", file=sys.stderr)
            return 1
        reports[name] = sl.emit_report(results, "jsonl")
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for name, report in reports.items():
        (out / f"{name}.jsonl").write_bytes(report)
        print(f"{name}: {len(report.splitlines())} jobs recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
