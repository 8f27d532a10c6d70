"""Set-up probe: one fresh interpreter runs a suite document once.

Reads the suite document from stdin, then times ``import schwarz_lab``,
``parse_suite`` (which builds the gallery maps) and the first, cold pass of
``run_suite(config, workers=1)`` plus ``emit_report(..., "jsonl")``.  Prints
one JSON object: the seconds taken and the SHA-256 of each report line, so
the caller can check the cold report against its own.

    python3 perfbench/cold.py < suite.json
"""

import hashlib
import json
import pathlib
import sys
import time


def main() -> int:
    doc = sys.stdin.buffer.read()
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import schwarz_lab

    config = schwarz_lab.parse_suite(doc)
    report = schwarz_lab.emit_report(schwarz_lab.run_suite(config, workers=1), "jsonl")
    seconds = time.perf_counter() - start
    lines = [hashlib.sha256(line).hexdigest() for line in report.splitlines()]
    print(json.dumps({"setup_s": seconds, "lines": lines}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
