"""Suite parsing, execution, report emission, and the shipped suite file."""

import copy
import functools
import json
import operator
import pathlib
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_lab import SchemaError, suite
from schwarz_lab.suite import (
    emit_report,
    parse_suite,
    run_suite,
    serialize_suite,
    suite_passed,
)

SUITE_DIR = pathlib.Path(__file__).resolve().parent.parent / "suites"


def small_config(**kw):
    doc = {
        "suite_name": "unit",
        "seed": 7,
        "jobs": [
            {"id": "zhu", "check": "zhu",
             "map": {"gallery": "zhu_extremal", "params": {"a": 0.3, "d": 0.2}}},
            {"id": "pick", "check": "schwarz_pick",
             "map": {"gallery": "scaled_identity", "params": {"n": 2, "t": 0.5}},
             "exponent": 2, "samples": 200},
        ],
    }
    doc.update(kw)
    return doc


def test_empty_job_list_passes():
    config = parse_suite(small_config(jobs=[]))
    results = run_suite(config)
    assert results == []
    assert suite_passed(results)


def test_schema_round_trip_idempotent():
    config = parse_suite(small_config())
    normalized = serialize_suite(config)
    assert serialize_suite(parse_suite(normalized)) == normalized
    assert serialize_suite(parse_suite(json.dumps(normalized))) == normalized
    # defaults are filled in
    assert normalized["jobs"][0]["expect"] == "pass"
    assert normalized["tolerance_overrides"] == {}


@pytest.mark.parametrize("mutate, pointer", [
    (lambda d: d.pop("seed"), "/seed"),
    (lambda d: d.update(seed=-1), "/seed"),
    (lambda d: d.update(seed=True), "/seed"),
    (lambda d: d.update(suite_name=3), "/suite_name"),
    (lambda d: d.update(extra=1), "/"),
    (lambda d: d.update(tolerance_overrides={"bogus": 1e-6}),
     "/tolerance_overrides/bogus"),
    (lambda d: d.update(tolerance_overrides={"margin_tol": -1.0}),
     "/tolerance_overrides/margin_tol"),
    (lambda d: d["jobs"][0].pop("map"), "/jobs/0"),
    (lambda d: d["jobs"][0].update(check="frobnicate"), "/jobs/0/check"),
    (lambda d: d["jobs"][0].update(map={"gallery": "nope"}), "/jobs/0/map/gallery"),
    (lambda d: d["jobs"][0].update(map={"node": "bogus"}), "/jobs/0/map"),
    (lambda d: d["jobs"].append(
        {"id": "lw", "check": "liu_wang",
         "map": {"gallery": "identity", "params": {"n": 2}},
         "point": [[0.0, 0.0], ["x", 0.0]]}),
     "/jobs/2/point/1"),
    (lambda d: d["jobs"][1].update(id="zhu"), "/jobs/1/id"),
    (lambda d: d["jobs"][0].update(expect="maybe"), "/jobs/0/expect"),
    (lambda d: d["jobs"][1].update(exponent=1.0), "/jobs/1/exponent"),
    (lambda d: d["jobs"][1].update(samples=0), "/jobs/1/samples"),
    # new cases carry ids, so the generated ids above stay unique
    pytest.param(lambda d: d["jobs"][1].update(samples=10**12),
                 "/jobs/1/samples", id="samples-over-cap"),
    pytest.param(lambda d: d["jobs"][1].update(exponent="abc"),
                 "/jobs/1/exponent", id="exponent-not-a-number"),
    pytest.param(lambda d: d["jobs"][0].update(map={"node": "sum", "terms": 5}),
                 "/jobs/0/map", id="map-sum-terms-not-a-list"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "coordinate", "index": [1], "dim": 1}),
                 "/jobs/0/map", id="map-coordinate-index-list"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "power", "exponent": 2.5,
             "inner": {"node": "coordinate", "index": 0, "dim": 1}}),
                 "/jobs/0/map", id="map-power-exponent-not-integer"),
    pytest.param(lambda d: d["jobs"][1]["map"]["params"].update(n="two"),
                 "/jobs/1/map/params", id="gallery-n-string"),
    pytest.param(lambda d: d["jobs"][1]["map"]["params"].update(n=1e400),
                 "/jobs/1/map/params", id="gallery-n-overflow"),
    pytest.param(lambda d: d.update(tolerance_overrides={"margin_tol": float("nan")}),
                 "/tolerance_overrides/margin_tol", id="tolerance-nan"),
    pytest.param(lambda d: d["jobs"].append(
        {"id": "lw", "check": "liu_wang",
         "map": {"gallery": "identity", "params": {"n": 2}},
         "point": [[1.0, 0.0], [10**400, 0.0]]}),
                 "/jobs/2/point/1", id="point-entry-overflow"),
    pytest.param(lambda d: d["jobs"][1].update(
        map={"node": "coordinate", "index": 1.5, "dim": 2.9}),
                 "/jobs/1/map", id="map-coordinate-fractional"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "power", "exponent": True,
             "inner": {"node": "coordinate", "index": 0, "dim": 1}}),
                 "/jobs/0/map", id="map-power-exponent-bool"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "scale", "factor": float("nan"),
             "inner": {"node": "coordinate", "index": 0, "dim": 1}}),
                 "/jobs/0/map", id="map-scale-factor-nan"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "constant", "value": [float("nan"), 0.0], "dim": 1}),
                 "/jobs/0/map", id="map-constant-value-nan"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "moebius", "a": float("nan"), "rotation": 1.0,
             "inner": {"node": "coordinate", "index": 0, "dim": 1}}),
                 "/jobs/0/map", id="map-moebius-a-nan"),
    pytest.param(lambda d: d["jobs"][1].update(
        map={"node": "coordinate", "index": 0, "dim": 10**7}),
                 "/jobs/1/map", id="map-dim-over-cap"),
    pytest.param(lambda d: d["jobs"][1]["map"]["params"].update(n=2.5),
                 "/jobs/1/map/params", id="gallery-n-fractional"),
    pytest.param(lambda d: d["jobs"][1]["map"]["params"].update(n=True),
                 "/jobs/1/map/params", id="gallery-n-bool"),
    pytest.param(lambda d: d["jobs"][1]["map"]["params"].update(n=10**7),
                 "/jobs/1/map/params", id="gallery-n-over-cap"),
    pytest.param(lambda d: d["jobs"][1]["map"]["params"].update(t=float("nan")),
                 "/jobs/1/map/params", id="gallery-scaled-identity-t-nan"),
    pytest.param(lambda d: d["jobs"][1].update(
        map={"gallery": "ph_blend", "params": {"n": 2, "anchor": 1.7}}),
                 "/jobs/1/map/params", id="gallery-anchor-fractional"),
    pytest.param(lambda d: d["jobs"][1].update(
        map={"gallery": "diag_power", "params": {"ks": [2.5, 1]}}),
                 "/jobs/1/map/params", id="gallery-ks-fractional"),
    pytest.param(lambda d: d["jobs"][0]["map"]["params"].update(a=float("nan")),
                 "/jobs/0/map/params", id="gallery-zhu-a-nan"),
    pytest.param(lambda d: d["jobs"][0]["map"]["params"].update(d=float("nan")),
                 "/jobs/0/map/params", id="gallery-zhu-d-nan"),
    pytest.param(lambda d: d["jobs"][1].update(
        map={"gallery": "moebius_tuple",
             "params": {"m": 2, "a": [float("nan"), 0.0]}}),
                 "/jobs/1/map/params", id="gallery-moebius-tuple-a-nan"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "constant", "value": ["1", "2"], "dim": 1}),
                 "/jobs/0/map", id="map-constant-value-strings"),
    pytest.param(lambda d: d["jobs"][0].update(
        map={"node": "scale", "factor": True,
             "inner": {"node": "coordinate", "index": 0, "dim": 1}}),
                 "/jobs/0/map", id="map-scale-factor-bool"),
    pytest.param(lambda d: d["jobs"][0]["map"]["params"].update(a="0.2", d="0.1"),
                 "/jobs/0/map/params", id="gallery-zhu-a-d-strings"),
    pytest.param(lambda d: d["jobs"][0]["map"]["params"].update(d="0.1"),
                 "/jobs/0/map/params", id="gallery-zhu-d-string"),
    pytest.param(lambda d: d["jobs"][1]["map"]["params"].update(t=True),
                 "/jobs/1/map/params", id="gallery-scaled-identity-t-bool"),
    pytest.param(lambda d: d["jobs"][1].update(
        map={"gallery": "unitary", "params": {"matrix": [["1", 0], [0, 1]]}}),
                 "/jobs/1/map/params", id="gallery-unitary-entry-string"),
])
def test_schema_errors_carry_json_pointers(mutate, pointer):
    doc = small_config()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_suite(doc)
    assert str(err.value).startswith(pointer + ":"), str(err.value)
    assert err.value.path == pointer


def test_huge_kalaj_direction_is_schema_error_without_warnings():
    doc = json.loads((SUITE_DIR / "paper.json").read_text())
    assert doc["jobs"][7]["map"]["gallery"] == "kalaj_extremal"
    doc["jobs"][7]["map"]["params"]["b"] = [[1e308, 0], [0.5, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError) as err:
            parse_suite(doc)
    assert err.value.path == "/jobs/7/map/params"


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "paper.jsonl"


def _close(got, want) -> bool:
    """Equal structure and flags; numbers within rel 1e-6 / abs 1e-9."""
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in got)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(map(_close, got, want))
    if isinstance(got, (bool, type(None))) or isinstance(want, (bool, type(None))):
        return got is want
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        return got == want or abs(got - want) <= max(1e-9, 1e-6 * max(abs(got), abs(want)))
    return got == want


def test_shipped_suite_matches_golden_report():
    # tests/golden/paper.jsonl is `schwarz-lab run suites/paper.json --format jsonl`
    config = parse_suite((SUITE_DIR / "paper.json").read_bytes())
    report = emit_report(run_suite(config), "jsonl")
    got = [json.loads(line) for line in report.decode().splitlines()]
    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [r["id"] for r in got] == [r["id"] for r in want]
    for g, w in zip(got, want):
        assert (g["theorem_id"], g["passed"]) == (w["theorem_id"], w["passed"]), g["id"]
        assert ([(h["name"], h["ok"]) for h in g["hypotheses"]]
                == [(h["name"], h["ok"]) for h in w["hypotheses"]]), g["id"]
        assert _close(g, w), g["id"]


def test_every_check_key_has_a_parser():
    for name, spec in suite.CHECKS.items():
        assert spec.required | spec.optional <= set(suite._PARSERS), name


def test_invalid_json_text_is_schema_error():
    with pytest.raises(SchemaError) as err:
        parse_suite("{not json")
    assert str(err.value).startswith("/:")


def test_dimension_consistency_checked_at_parse():
    doc = small_config()
    doc["jobs"] = [{
        "id": "bad", "check": "lp_boundary_schwarz",
        "map": {"gallery": "identity", "params": {"n": 2}},
        "point": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "exponent": 3,
    }]
    with pytest.raises(SchemaError) as err:
        parse_suite(doc)
    assert "/jobs/0" in str(err.value)


def test_job_error_is_captured_not_raised():
    doc = small_config()
    doc["jobs"] = [
        {"id": "boom", "check": "lp_boundary_schwarz",
         "map": {"gallery": "identity", "params": {"n": 2}},
         "point": [[0.5, 0.0], [0.0, 0.0]], "exponent": 3},
        {"id": "fine", "check": "zhu",
         "map": {"gallery": "identity", "params": {"n": 1}}},
    ]
    results = run_suite(parse_suite(doc))
    assert len(results) == 2
    assert not results[0].passed
    assert results[0].theorem_id == "lp_boundary_schwarz"
    assert results[0].hypotheses[0]["name"].startswith("raised_")
    assert results[1].passed


def test_expected_error_counts_as_pass():
    doc = small_config()
    doc["jobs"] = [{
        "id": "rejected", "check": "schwarz_pick",
        "map": {"gallery": "moebius_fix1", "params": {"a": 0.3}},
        "exponent": 2, "expect": "raises:HypothesisFailed",
    }]
    results = run_suite(parse_suite(doc))
    assert results[0].passed
    assert suite_passed(results)


def test_inverted_expectation_fails_suite():
    doc = small_config()
    doc["jobs"] = [{
        "id": "inverted", "check": "polydisk_counterexample", "n": 3,
        "expect": "fail",
    }]
    results = run_suite(parse_suite(doc))
    assert not results[0].passed
    assert not suite_passed(results)


def test_tolerance_override_reaches_runner():
    doc = small_config()
    doc["jobs"] = [doc["jobs"][0]]
    baseline = run_suite(parse_suite(doc))
    assert baseline[0].passed
    doc["tolerance_overrides"] = {"margin_tol": 1e-16}
    tightened = run_suite(parse_suite(doc))
    # the extremal margin sits at roundoff, far above 1e-16
    assert not tightened[0].passed


def test_jsonl_frozen_keys_and_validity():
    results = run_suite(parse_suite(small_config()))
    payload = emit_report(results, "jsonl").decode()
    lines = payload.splitlines()
    assert len(lines) == len(results)
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"id", "theorem_id", "passed", "margin",
                            "quantities", "hypotheses", "residuals",
                            "runtime_ms"}
        assert row["runtime_ms"] is None


def test_csv_header_and_rows():
    results = run_suite(parse_suite(small_config()))
    text = emit_report(results, "csv").decode()
    lines = text.splitlines()
    assert lines[0].startswith("id,theorem_id,passed,margin")
    assert len(lines) == 1 + len(results)


def test_text_report_puts_failures_first():
    doc = small_config()
    doc["jobs"].append({"id": "flip", "check": "zhu",
                        "map": {"gallery": "identity", "params": {"n": 1}},
                        "expect": "fail"})
    results = run_suite(parse_suite(doc))
    lines = emit_report(results, "text").decode().splitlines()
    assert lines[0].startswith("FAIL  flip")
    assert lines[-1] == "2 passed, 1 failed, 3 total"


def test_unknown_format_rejected():
    results = run_suite(parse_suite(small_config(jobs=[])))
    with pytest.raises(Exception):
        emit_report(results, "yaml")


def test_determinism_across_worker_counts():
    config = parse_suite(small_config())
    one = emit_report(run_suite(config, workers=1), "jsonl")
    four = emit_report(run_suite(config, workers=4), "jsonl")
    assert one == four


def test_seed_changes_samples_not_stability():
    base = parse_suite(small_config())
    other = parse_suite(small_config(seed=8))
    row_a = run_suite(base)[1]
    row_b = run_suite(other)[1]
    assert row_a.passed and row_b.passed
    assert row_a.margin != row_b.margin


def test_runs_read_only_parsed_inputs(monkeypatch):
    config = parse_suite((SUITE_DIR / "paper.json").read_bytes())

    def reparse(*args, **kwargs):
        raise AssertionError("a map was built again at run time")

    monkeypatch.setattr(suite, "gallery", reparse)
    monkeypatch.setattr(suite, "map_from_json", reparse)
    results = run_suite(config)
    assert [r.job_id for r in results if not r.passed] == []


def test_shipped_suite_all_pass():
    config = parse_suite((SUITE_DIR / "paper.json").read_bytes())
    results = run_suite(config, workers=2)
    failed = [r.job_id for r in results if not r.passed]
    assert failed == []
    assert len(results) == len(config.jobs)


# ---------------------------------------------------------------------------
# fuzz: single-value mutants of the shipped suite
# ---------------------------------------------------------------------------


def _json_paths(node, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return (int, float) if isinstance(value, (int, float)) else type(value)


def _resolve(doc, pointer: str, missing_ok: bool = False):
    """Follow a JSON pointer ('/' is the root); KeyError/IndexError if it dangles.

    With missing_ok, the last token may also name a member absent from the
    object it ends in: that is how a missing required field is pointed at.
    """
    node = doc
    tokens = pointer.strip("/").split("/") if pointer != "/" else []
    for i, token in enumerate(tokens):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, list):
            if not token.isdigit():
                raise KeyError(token)
            node = node[int(token)]
        elif isinstance(node, dict):
            if missing_ok and i == len(tokens) - 1 and token not in node:
                return None
            node = node[token]
        else:
            raise KeyError(token)
    return node


PAPER = json.loads((SUITE_DIR / "paper.json").read_text())
PAPER_PATHS = list(_json_paths(PAPER))
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                           max_leaves=6)
RETYPED = (None, True, 0, -1, 2.5, 1e400, "", "x", [], [1.0], {}, {"x": 1})


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(PAPER_PATHS), action=st.sampled_from(["delete", "retype",
                                                                 "replace"]),
       data=st.data())
def test_mutated_shipped_suite_parses_or_points_at_its_error(path, action, data):
    # A mutant either parses, or fails with a SchemaError whose pointer
    # resolves in the mutant; any other exception is a defect.
    doc = copy.deepcopy(PAPER)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key = path[-1]
    if action == "delete":
        del parent[key]
    elif action == "retype":
        old = _json_type(parent[key])
        parent[key] = data.draw(st.sampled_from(
            [v for v in RETYPED if _json_type(v) != old]))
    else:
        parent[key] = data.draw(JSON_VALUES)
    try:
        parse_suite(doc)
    except SchemaError as err:
        _resolve(doc, err.path, missing_ok=True)
