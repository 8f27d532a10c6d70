"""Command line entry points.

    schwarz-lab run suite.json [--format f] [--tolerance k=v]
    schwarz-lab gallery list
    schwarz-lab check NAME --map MAP [--point VEC] [-p P] [...]
    schwarz-lab caratheodory --dir VEC -p P [--base VEC] [--to VEC]

Suites run serially, one job after another, in file order.  Exit status is 0
iff every executed job passed; schema problems, including malformed arguments,
exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .caratheodory import FAMILY_KINDS
from .errors import SchemaError, SchwarzLabError
from .gallery import gallery_names
from .geometry import INF_SPELLINGS
from .maps import load_json
from .suite import (
    REPORT_FORMATS,
    emit_report,
    parse_suite,
    run_suite,
    suite_passed,
)


def _parse_vector_arg(text: str):
    """Accept [re, im] pair JSON, or reals: one number, a JSON array or a comma list."""
    try:
        data = load_json(text)
    except ValueError:
        try:
            return [[float(t), 0.0] for t in text.split(",") if t.strip()]
        except ValueError:
            raise SchemaError(f"cannot parse vector argument {text!r}")
    coords = data if isinstance(data, list) else [data]
    if coords and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in coords):
        return [[t, 0.0] for t in coords]  # as read: the schema points at one out of range
    return data


def _parse_map_arg(text: str, params_text: str | None):
    try:
        data = load_json(text)
    except ValueError:
        data = None
    if isinstance(data, dict):
        return data
    # bare gallery name, params in a separate flag
    ref = {"gallery": text}
    if params_text:
        try:
            ref["params"] = load_json(params_text)
        except ValueError:
            raise SchemaError(
                f"--map-params is not valid JSON: {params_text!r}") from None
    return ref


def _parse_exponent_arg(text: str):
    if text.lower() in INF_SPELLINGS:
        return text
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"cannot parse exponent argument {text!r}") from None
    return int(value) if value.is_integer() else value


def _tolerance_pairs(items):
    out = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise SchemaError(f"--tolerance expects k=v, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise SchemaError(
                f"--tolerance {key} expects a number, got {value!r}") from None
    return out


def _emit(results, fmt: str) -> int:
    sys.stdout.buffer.write(emit_report(results, fmt))
    sys.stdout.buffer.flush()
    return 0 if suite_passed(results) else 1


def _cmd_run(args) -> int:
    try:
        with open(args.suite, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read suite file {args.suite!r}: {exc.strerror}") from None
    config = parse_suite(text)
    if args.tolerance:
        # the file parsed, so it is an object; each flag replaces the file's value
        doc = load_json(text)
        doc["tolerance_overrides"] = {**doc.get("tolerance_overrides", {}),
                                      **_tolerance_pairs(args.tolerance)}
        config = parse_suite(doc)
    return _emit(run_suite(config), args.format)


def _cmd_gallery(args) -> int:
    if args.action != "list":
        raise SchemaError(f"unknown gallery action {args.action!r}")
    for name in gallery_names():
        print(name)
    return 0


def _single_job_config(job: dict, seed: int, tolerances: dict) -> dict:
    return {
        "suite_name": "cli",
        "seed": seed,
        "tolerance_overrides": tolerances,
        "jobs": [job],
    }


def _cmd_check(args) -> int:
    job = {"id": "cli", "check": args.name,
           "map": _parse_map_arg(args.map, args.map_params)}
    if args.point:
        job["point"] = _parse_vector_arg(args.point)
    if args.exponent is not None:
        job["exponent"] = _parse_exponent_arg(args.exponent)
    if args.samples is not None:
        job["samples"] = args.samples
    if args.variant:
        job["variant"] = args.variant
    if args.anchor:
        job["anchors"] = [_parse_vector_arg(a) for a in args.anchor]
    if args.expect:
        job["expect"] = args.expect
    config = parse_suite(_single_job_config(
        job, args.seed, _tolerance_pairs(args.tolerance)))
    return _emit(run_suite(config), args.format)


def _cmd_caratheodory(args) -> int:
    # one job from every flag given: the check's schema rejects a flag it does not take
    job = {"id": "cli", "check": "caratheodory_distance" if args.to else "caratheodory_metric",
           "exponent": _parse_exponent_arg(args.exponent)}
    for key, text in (("z", args.to), ("direction", args.dir), ("base", args.base)):
        if text:
            job[key] = _parse_vector_arg(text)
    if args.family:
        job["family"] = args.family
    if args.starts is not None:
        job["starts"] = args.starts
    if args.iters is not None:
        job["iters"] = args.iters
    config = parse_suite(_single_job_config(
        job, args.seed, _tolerance_pairs(args.tolerance)))
    return _emit(run_suite(config), args.format)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schwarz-lab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=REPORT_FORMATS, default="text")
        p.add_argument("--tolerance", action="append", metavar="K=V")
        p.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="execute a suite file")
    p_run.add_argument("suite")
    p_run.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p_run.add_argument("--tolerance", action="append", metavar="K=V")
    p_run.set_defaults(func=_cmd_run)

    p_gal = sub.add_parser("gallery", help="inspect the map gallery")
    p_gal.add_argument("action", choices=("list",))
    p_gal.set_defaults(func=_cmd_gallery)

    p_chk = sub.add_parser("check", help="run one verification job")
    p_chk.add_argument("name")
    p_chk.add_argument("--map", required=True,
                       help="gallery name or map JSON")
    p_chk.add_argument("--map-params", help="gallery params JSON")
    p_chk.add_argument("--point", help="boundary point vector")
    p_chk.add_argument("-p", "--exponent")
    p_chk.add_argument("--samples", type=int)
    p_chk.add_argument("--variant")
    p_chk.add_argument("--anchor", action="append",
                       help="rigidity anchor vector (repeatable)")
    p_chk.add_argument("--expect")
    common(p_chk)
    p_chk.set_defaults(func=_cmd_check)

    p_car = sub.add_parser("caratheodory", help="metric / distance bounds")
    p_car.add_argument("--base", help="base point (default origin)")
    p_car.add_argument("--dir", help="direction vector for the metric")
    p_car.add_argument("--to", help="endpoint: report distance from 0 instead")
    p_car.add_argument("-p", "--exponent", required=True)
    p_car.add_argument("--family", choices=FAMILY_KINDS)
    p_car.add_argument("--starts", type=int)
    p_car.add_argument("--iters", type=int)
    common(p_car)
    p_car.set_defaults(func=_cmd_caratheodory)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except SchwarzLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
