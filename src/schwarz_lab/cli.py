"""Command line entry points.

    schwarz-lab run suite.json [--format f] [--tolerance k=v]
    schwarz-lab gallery list
    schwarz-lab check NAME --map MAP [--point VEC] [-p P] [...]
    schwarz-lab caratheodory --dir VEC -p P [--base VEC] [--to VEC]

``run``, ``check`` and ``caratheodory`` each build one suite document (the file
with the --tolerance pairs merged in, or a one-job suite keyed by the flags),
which ``parse_suite`` reads once.  A flag value is its JSON reading, else its
text; JSON's NaN and Infinity stay text, so ``-p Infinity`` names the polydisk.
Vector flags also take bare reals (one number, a JSON array or a comma list)
as [re, 0] pairs, and ``--map`` a gallery name or map JSON.  Suites run
serially, in file order.  Exit status is 0 iff every executed job passed;
schema problems, including malformed arguments, exit 2 with the JSON pointer
of the key at fault.
"""

from __future__ import annotations

import argparse
import sys

from .caratheodory import FAMILY_KINDS
from .errors import SchemaError, SchwarzLabError
from .gallery import gallery_names
from .maps import load_json
from .suite import REPORT_FORMATS, emit_report, parse_suite, run_suite, suite_passed


def _read(text: str):
    """A flag value: its JSON reading, else (and for JSON's NaN and Infinity) its text."""
    if text.strip() in ("NaN", "Infinity", "-Infinity"):
        return text
    try:
        return load_json(text)
    except ValueError:
        return text


def _read_vector(text: str):
    """_read, but bare reals (a number, a JSON array or a comma list) become [re, 0] pairs."""
    data = _read(text)
    if isinstance(data, str):
        try:
            return [[float(t), 0.0] for t in text.split(",") if t.strip()]
        except ValueError:
            return text
    coords = data if isinstance(data, list) else [data]
    if coords and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in coords):
        return [[t, 0.0] for t in coords]  # as read: the schema points at one out of range
    return data


def _read_map(text: str) -> dict:
    """Map JSON, or else a gallery reference by name."""
    data = _read(text)
    return data if isinstance(data, dict) else {"gallery": data}


# the job key each check and caratheodory flag sets, and how its text is read
_JOB_FLAGS = {
    **dict.fromkeys(("check", "exponent", "samples", "variant", "expect",
                     "family", "starts", "iters"), _read),
    **dict.fromkeys(("point", "direction", "base", "z"), _read_vector),
    "anchors": lambda texts: [_read_vector(t) for t in texts],
    "map": _read_map,
}


def _tolerances(items) -> dict:
    """The --tolerance K=V pairs, a later one replacing an earlier one."""
    pairs = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise SchemaError(f"expected K=V, got {item!r}", path="/tolerance_overrides")
        pairs[key] = _read(value)
    return pairs


def _file_suite(args):
    """run's suite file, each --tolerance pair replacing the file's value."""
    try:
        with open(args.suite, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read suite file {args.suite!r}: {exc.strerror}") from None
    try:
        doc = load_json(text)
    except ValueError:
        return text  # parse_suite points at the invalid JSON
    # a document or overrides of the wrong type is left for parse_suite to point at
    overrides = doc.get("tolerance_overrides", {}) if isinstance(doc, dict) else None
    if isinstance(overrides, dict):
        doc["tolerance_overrides"] = {**overrides, **_tolerances(args.tolerance)}
    return doc


def _job_suite(args) -> dict:
    """The one-job suite of a check or caratheodory command: one key per flag given."""
    job = {"id": "cli", **{key: _JOB_FLAGS[key](value) for key, value in vars(args).items()
                           if key in _JOB_FLAGS and value is not None}}
    if args.command == "caratheodory":
        job["check"] = "caratheodory_distance" if "z" in job else "caratheodory_metric"
    if getattr(args, "map_params", None) is not None:
        job["map"]["params"] = _read(args.map_params)
    return {"suite_name": "cli", "seed": _read(args.seed),
            "tolerance_overrides": _tolerances(args.tolerance), "jobs": [job]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schwarz-lab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a suite file")
    p_run.add_argument("suite")
    p_run.set_defaults(suite_doc=_file_suite)

    p_gal = sub.add_parser("gallery", help="inspect the map gallery")
    p_gal.add_argument("action", choices=("list",))

    p_chk = sub.add_parser("check", help="run one verification job")
    p_chk.add_argument("check", metavar="NAME")
    p_chk.add_argument("--map", required=True, help="gallery name or map JSON")
    p_chk.add_argument("--map-params", help="gallery params JSON")
    p_chk.add_argument("--point", help="boundary point vector")
    p_chk.add_argument("-p", "--exponent")
    p_chk.add_argument("--samples")
    p_chk.add_argument("--variant")
    p_chk.add_argument("--anchor", dest="anchors", action="append", metavar="VEC",
                       help="rigidity anchor vector (repeatable)")
    p_chk.add_argument("--expect")

    p_car = sub.add_parser("caratheodory", help="metric / distance bounds")
    p_car.add_argument("--base", metavar="VEC", help="base point (default origin)")
    p_car.add_argument("--dir", dest="direction", metavar="VEC", help="metric direction")
    p_car.add_argument("--to", dest="z", metavar="VEC",
                       help="endpoint: report distance from 0 instead")
    p_car.add_argument("-p", "--exponent", required=True)
    p_car.add_argument("--family", choices=FAMILY_KINDS)
    p_car.add_argument("--starts")
    p_car.add_argument("--iters")

    for p in (p_chk, p_car):
        p.add_argument("--seed", default="0")
        p.set_defaults(suite_doc=_job_suite)
    for p in (p_run, p_chk, p_car):
        p.add_argument("--format", choices=REPORT_FORMATS, default="text")
        p.add_argument("--tolerance", action="append", metavar="K=V")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gallery":
        print("\n".join(gallery_names()))
        return 0
    try:
        results = run_suite(parse_suite(args.suite_doc(args)))
        sys.stdout.buffer.write(emit_report(results, args.format))
        sys.stdout.buffer.flush()
        return 0 if suite_passed(results) else 1
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except SchwarzLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
