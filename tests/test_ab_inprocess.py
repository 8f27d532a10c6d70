"""tools/ab_inprocess.py, the A/B timer and report comparator, still runs."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_an_a_a_run_reports_equal_output():
    # Two pairs time nothing worth reading, so only the exit code and the
    # report-equality line are checked; no bytecode is written under perfbench/.
    out = subprocess.run(
        [sys.executable, "tools/ab_inprocess.py", ".", ".", "--workload", "paper-suite",
         "--seeds", "1", "--pairs", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert out.returncode == 0, out.stderr
    assert "workload paper-suite: reports equal at seeds 1\n" in out.stdout
