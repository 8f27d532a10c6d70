"""Suite parsing, execution, report emission, and the shipped suite file."""

import copy
import csv
import functools
import io
import json
import operator
import pathlib
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarz_lab import (BadParams, Coordinate, Power, Scale, SchemaError, geometry,
                         map_to_json, rigidity, suite)
from schwarz_lab.maps import MAX_DEPTH
from schwarz_lab.rng import stream
from schwarz_lab.suite import (
    emit_report,
    parse_suite,
    run_suite,
    suite_passed,
)
from schwarz_lab.verify import CheckConfig

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
    # a document parses to the same suite from a dict and from its JSON text
    config = parse_suite(small_config())
    again = parse_suite(json.dumps(small_config()))
    assert again == config
    assert emit_report(run_suite(again)) == emit_report(run_suite(config))
    # defaults are filled in; each job's config holds its keyed seed and its counts
    assert config.jobs[0].expect == "pass"
    assert config.jobs[0].cfg == CheckConfig(seed=suite._job_seed(7, "zhu"))
    assert config.jobs[1].cfg == CheckConfig(seed=suite._job_seed(7, "pick"), samples=200)


def test_job_config_takes_the_overrides_and_the_count_keys_only():
    tols = {"holo_tol": 1e-6, "attain_tol": 0.01}
    doc = small_config(tolerance_overrides=tols, jobs=[
        {"id": "dist", "check": "caratheodory_distance", "z": [[0.5, 0.0]], "exponent": 2,
         "starts": 3, "iters": 9},
        {"id": "poly", "check": "polydisk_counterexample", "n": 3}])
    dist, poly = parse_suite(doc).jobs
    assert dist.cfg == CheckConfig(seed=suite._job_seed(7, "dist"), starts=3, iters=9, **tols)
    assert poly.cfg == CheckConfig(seed=suite._job_seed(7, "poly"), **tols)


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
    # JSON 1e400 and Infinity both parse to float inf; only "inf" names p = inf
    pytest.param(lambda d: d["jobs"][1].update(exponent=float("inf")),
                 "/jobs/1/exponent", id="exponent-infinite-number"),
    pytest.param(lambda d: d["jobs"][1].update(exponent=float("nan")),
                 "/jobs/1/exponent", id="exponent-nan"),
    pytest.param(lambda d: d["jobs"][1].update(exponent=10**400),
                 "/jobs/1/exponent", id="exponent-int-overflow"),
    pytest.param(lambda d: d["jobs"][1].update(exponent="1e400"),
                 "/jobs/1/exponent", id="exponent-overflowing-string"),
    pytest.param(lambda d: d["jobs"][1].update(exponent="3"),
                 "/jobs/1/exponent", id="exponent-numeric-string"),
    pytest.param(lambda d: d["jobs"][1].update(exponent=True),
                 "/jobs/1/exponent", id="exponent-bool"),
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
    pytest.param(lambda d: d["jobs"].append(
        {"id": "rig", "check": "rigidity", "map": _IDENTITY_2, "anchors": [_E1, _E2],
         "exponent": 2, "variant": "bogus"}),
                 "/jobs/2/variant", id="rigidity-variant-unknown"),
    pytest.param(lambda d: d["jobs"].append(
        {"id": "metric", "check": "caratheodory_metric", "direction": [[0.3, 0.0]],
         "exponent": 2, "family": "bogus"}),
                 "/jobs/2/family", id="caratheodory-family-unknown"),
])
def test_schema_errors_carry_json_pointers(mutate, pointer):
    doc = small_config()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_suite(doc)
    assert str(err.value).startswith(pointer + ":"), str(err.value)
    assert err.value.path == pointer


@pytest.mark.parametrize("value", [3, 2.5, "inf", "INF", "Infinity", "oo"])
def test_exponent_accepts_numbers_over_one_and_infinity_spellings(value):
    doc = small_config()
    doc["jobs"][1]["exponent"] = value
    want = float("inf") if isinstance(value, str) else value
    got = parse_suite(doc).jobs[1].parsed["exponent"]
    assert type(got) is float and got == want


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


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_every_outcome_path_matches_its_golden_bytes(fmt):
    # tests/golden/outcomes.<fmt> is `schwarz-lab run tests/golden/outcomes.json
    # --format <fmt>`: a verdict that passes, fails, or misses its expect; an
    # error that meets or misses its expect; and every exit of the rigidity
    # check. Text is the one format that prints each row's note.
    golden = GOLDEN.parent
    config = parse_suite((golden / "outcomes.json").read_bytes())
    assert emit_report(run_suite(config), fmt) == (golden / f"outcomes.{fmt}").read_bytes()


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


def test_returned_verdict_never_meets_a_raises_expect():
    # moebius_fix1 does not fix the origin: the lp certificate returns a
    # verdict with its margin withheld (NaN) instead of raising
    doc = small_config()
    doc["jobs"] = [{
        "id": "no-raise", "check": "lp_boundary_schwarz",
        "map": {"gallery": "moebius_fix1", "params": {"a": 0.3}},
        "point": [[1.0, 0.0]], "exponent": 2, "expect": "raises:HypothesisFailed",
    }]
    [row] = run_suite(parse_suite(doc))
    assert row.theorem_id == "lp_boundary_schwarz" and row.margin != row.margin
    assert not row.passed


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
    # z -> (1 - 5e-9) z^2 has f'(1) = 2 - 1e-8 against Zhu's bound 2: its
    # margin -1e-8 is inside the default margin_tol 1e-7 and outside 1e-9
    f = Scale(1.0 - 5e-9, Power(2, Coordinate(0, 1)))
    doc = small_config(jobs=[{"id": "zhu", "check": "zhu", "map": map_to_json(f)}])
    baseline = run_suite(parse_suite(doc))
    assert baseline[0].passed
    assert baseline[0].margin == pytest.approx(-1e-8, rel=1e-6)
    doc["tolerance_overrides"] = {"margin_tol": 1e-9}
    tightened = run_suite(parse_suite(doc))
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


def test_csv_quotes_ids_with_commas_quotes_and_newlines():
    ids = ['pick,"quoted"', "two\nlines", 'a "b", c']
    doc = small_config(jobs=[{"id": job_id, "check": "zhu",
                              "map": {"gallery": "zhu_extremal",
                                      "params": {"a": 0.3, "d": 0.2}}}
                             for job_id in ids])
    text = emit_report(run_suite(parse_suite(doc)), "csv").decode()
    header, *rows = csv.reader(io.StringIO(text))
    assert [row[0] for row in rows] == ids
    assert {len(row) for row in rows} == {len(header)}


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


def test_workers_keyword_accepts_only_one():
    config = parse_suite(small_config())
    assert emit_report(run_suite(config, workers=1), "jsonl") == \
        emit_report(run_suite(config), "jsonl")
    for workers in (0, 2, 4):
        with pytest.raises(BadParams):
            run_suite(config, workers=workers)


def test_seed_changes_samples_not_stability():
    base = parse_suite(small_config())
    other = parse_suite(small_config(seed=8))
    row_a = run_suite(base)[1]
    row_b = run_suite(other)[1]
    assert row_a.passed and row_b.passed
    assert row_a.margin != row_b.margin


def test_rigidity_and_chain_rows_do_not_move_with_the_seed():
    # both read the deterministic grid, the self-map escape of rigid-selfmap-escape too
    paper = json.loads((SUITE_DIR / "paper.json").read_text())
    outcomes = json.loads((GOLDEN.parent / "outcomes.json").read_text())
    jobs = [job for job in paper["jobs"] + outcomes["jobs"]
            if job["check"] in ("rigidity", "proof_chain")]
    assert "rigid-selfmap-escape" in [job["id"] for job in jobs]
    want, got = (emit_report(run_suite(parse_suite(dict(paper, jobs=jobs, seed=seed))), "jsonl")
                 for seed in (7, 8))
    assert got == want


def test_a_second_paper_run_builds_no_grid():
    config = parse_suite((SUITE_DIR / "paper.json").read_bytes())
    run_suite(config)
    misses = rigidity._shared_grid.cache_info().misses
    run_suite(config)
    assert rigidity._shared_grid.cache_info().misses == misses


def test_runs_read_only_parsed_inputs(monkeypatch):
    config = parse_suite((SUITE_DIR / "paper.json").read_bytes())

    def reparse(*args, **kwargs):
        raise AssertionError("a map was built again at run time")

    monkeypatch.setattr(suite, "gallery", reparse)
    monkeypatch.setattr(suite, "map_from_json", reparse)
    results = run_suite(config)
    assert [r.job_id for r in results if not r.passed] == []


_IDENTITY_2 = {"gallery": "identity", "params": {"n": 2}}
_E1, _E2 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]


def test_a_thousand_anchor_rigidity_suite_parses_in_under_a_second():
    # anchor distinctness once took a Python loop over every pair: 12.5 s here
    gen = stream(5, "many-anchors", 2)
    z = gen.standard_normal((1000, 2)) + 1j * gen.standard_normal((1000, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    anchors = [[[c.real, c.imag] for c in row] for row in z.tolist()]
    doc = small_config(jobs=[{"id": "many", "check": "rigidity", "map": _IDENTITY_2,
                              "anchors": anchors, "exponent": 2, "variant": "p2"}])
    start = time.perf_counter()
    config = parse_suite(doc)
    assert time.perf_counter() - start < 1.0
    assert len(config.jobs[0].parsed["built"].anchors) == 1000


def test_boundary_points_and_rigidity_instances_are_built_at_parse(monkeypatch):
    doc = small_config(jobs=[
        {"id": "lp", "check": "lp_boundary_schwarz", "map": _IDENTITY_2,
         "point": _E1, "exponent": 3},
        {"id": "lw", "check": "liu_wang", "map": _IDENTITY_2,
         "point": [[0.6, 0.0], [0.8, 0.0]]},
        {"id": "ph", "check": "pluriharmonic_boundary",
         "map": {"gallery": "ph_linear_blend", "params": {"n": 2, "mix": 0.5}},
         "point": [[0.6, 0.0], [0.8, 0.0]], "exponent": 2},
        {"id": "rig", "check": "rigidity", "map": _IDENTITY_2, "anchors": [_E1, _E2],
         "exponent": 3, "variant": "rigidity_v", "expect": "certified"},
        {"id": "chain", "check": "proof_chain", "map": _IDENTITY_2, "anchors": [_E1, _E2],
         "exponent": 2, "variant": "p2"},
    ])
    config = parse_suite(doc)

    def instance(*args, **kwargs):
        raise AssertionError("a rigidity instance was built at run time")

    received = []

    def spy(verifier):
        def wrapped(f, z0, cfg):
            received.append(z0)
            return verifier(f, z0, cfg)
        return wrapped

    monkeypatch.setattr(suite, "RigidityInstance", instance)
    for name in ("verify_lp_boundary_schwarz", "verify_liu_wang",
                 "verify_pluriharmonic_boundary"):
        monkeypatch.setattr(suite, name, spy(getattr(suite, name)))
    first, second = run_suite(config), run_suite(config)
    assert suite_passed(first) and first == second
    assert len(received) == 6
    assert all(a is b for a, b in zip(received[:3], received[3:]))
    assert received[1].exponent == 2.0


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_input_geometry_is_derived_once_and_kept_read_only(monkeypatch):
    config = parse_suite(small_config(jobs=[
        {"id": "lp", "check": "lp_boundary_schwarz", "map": _IDENTITY_2,
         "point": [[0.6, 0.0], [0.0, 0.8]], "exponent": 2},
        {"id": "rig", "check": "rigidity", "map": _IDENTITY_2, "anchors": [_E1, _E2],
         "exponent": 3, "variant": "schwarz_v", "expect": "certified"},
        {"id": "rig-v", "check": "rigidity", "map": _IDENTITY_2, "anchors": [_E1, _E2],
         "exponent": 3, "variant": "rigidity_v", "expect": "certified"},
        {"id": "chain", "check": "proof_chain", "map": _IDENTITY_2, "anchors": [_E1, _E2],
         "exponent": 4, "variant": "schwarz_v"},
    ]))
    counts = {"schwarz_v": 0, "_pairing_row": 0, "svd": 0}
    _count_calls(monkeypatch, geometry, "schwarz_v", counts)
    _count_calls(monkeypatch, rigidity, "_pairing_row", counts)
    _count_calls(monkeypatch, np.linalg, "svd", counts)
    first = run_suite(config)
    assert all(counts.values()), counts
    counts.update(dict.fromkeys(counts, 0))
    second = run_suite(config)
    assert suite_passed(first) and first == second
    assert counts == {"schwarz_v": 0, "_pairing_row": 0, "svd": 0}

    point = config.jobs[0].parsed["built"]
    instances = [job.parsed["built"] for job in config.jobs[1:]]
    cached = [point.normal, point.tangent_probes]
    for inst in instances:
        cached += [inst.anchor_matrix, inst.pairing_rows, inst.segment_points]
    for a in cached:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert all(isinstance(inst.anchor_rank, int) for inst in instances)


def test_threads_sharing_the_grid_memo_give_the_serial_report():
    jobs = [{"id": f"rig-{i}", "check": "rigidity", "map": _IDENTITY_2,
             "anchors": [_E1, _E2], "exponent": 2 + i % 2, "variant": "rigidity_v",
             "grid_points": 700, "expect": "certified"} for i in range(8)]
    doc = small_config(jobs=jobs)
    want = emit_report(run_suite(parse_suite(doc)), "jsonl")
    # the memo is process-wide, so callers that run suites on their own
    # threads share it, and one parsed config's built instances with it
    config = parse_suite(doc)
    reports = [None] * 6

    def run(i):
        reports[i] = emit_report(run_suite(config), "jsonl")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
    rigidity._shared_grid.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reports == [want] * 6
    # per exponent, the 700-point identity grid and the 2,000-point self-map grid
    assert rigidity._shared_grid.cache_info().currsize == 4


@pytest.mark.parametrize("job, error", [
    ({"check": "lp_boundary_schwarz", "map": _IDENTITY_2,
      "point": [[0.5, 0.0], [0.0, 0.0]], "exponent": 3}, "NotOnBoundary"),
    ({"check": "rigidity", "map": _IDENTITY_2, "anchors": [_E1, _E1],
      "exponent": 2, "variant": "p2"}, "BadParams"),
    ({"check": "proof_chain", "map": _IDENTITY_2, "anchors": [_E1, _E2],
      "exponent": 3, "variant": "p2"}, "BadParams"),
    # on the sup-norm sphere, off the torus
    *(({"check": check, "map": _IDENTITY_2, "point": [[1.0, 0.0], [0.0, 0.5]],
        "exponent": "inf"}, "HypothesisFailed")
      for check in ("lp_boundary_schwarz", "pluriharmonic_boundary")),
])
def test_input_errors_stay_job_results_on_every_run(job, error):
    config = parse_suite(small_config(jobs=[
        {"id": "bad", **job, "expect": f"raises:{error}"}]))
    [first], [second] = run_suite(config), run_suite(config)
    assert first == second
    assert first.passed and first.hypotheses[0]["name"] == f"raised_{error}"
    assert first.note


def _nested_map(kind: str, nodes: int) -> dict:
    """z -> z on C^1 as ``nodes`` nested scale-by-one, first-power or compose
    nodes over a coordinate; each node nests its inner map one JSON level deeper."""
    m = {"node": "coordinate", "index": 0, "dim": 1}
    for _ in range(nodes):
        m = {"scale": {"node": "scale", "factor": [1.0, 0.0], "inner": m},
             "power": {"node": "power", "exponent": 1, "inner": m},
             "compose": {"node": "compose", "outer": _nested_map(kind, 0), "inner": m}}[kind]
    return m


# the suite document, its jobs array and the job hold the map three levels down,
# so a map of this many nested nodes makes the document exactly MAX_DEPTH deep
_NODES_AT_CAP = MAX_DEPTH - 4


@pytest.mark.parametrize("kind", ["scale", "power", "compose"])
def test_map_at_the_nesting_cap_runs_every_boundary_check(kind):
    deep = _nested_map(kind, _NODES_AT_CAP)
    results = run_suite(parse_suite(small_config(jobs=[
        {"id": "zhu", "check": "zhu", "map": deep},
        {"id": "pick", "check": "schwarz_pick", "map": deep, "exponent": 2, "samples": 50},
        {"id": "lp", "check": "lp_boundary_schwarz", "map": deep, "point": [[1.0, 0.0]],
         "exponent": 2},
    ])))
    assert [r.hypotheses[0]["name"] for r in results if r.hypotheses[0]["name"].startswith(
        "raised_")] == []
    assert suite_passed(results)


def test_an_undeclared_map_key_in_a_suite_file_is_a_schema_error_at_its_pointer(tmp_path):
    square = {"node": "power", "exponent": 2,
              "inner": {"node": "coordinate", "index": 0, "dim": 1, "bogus": 1}}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(small_config(jobs=[{"id": "zhu", "check": "zhu", "map": square}])))
    with pytest.raises(SchemaError) as err:
        parse_suite(path.read_bytes())
    assert err.value.path == "/jobs/0/map/inner/bogus"
    assert err.value.message.startswith("map node 'coordinate' has no key 'bogus'")


@pytest.mark.parametrize("nodes", [_NODES_AT_CAP + 1, 300, 500])
def test_map_nested_past_the_cap_is_schema_error(nodes):
    # 300 nodes once parsed and then raised RecursionError in the job's run;
    # 500 ended parse_suite in a RecursionError
    with pytest.raises(SchemaError) as err:
        parse_suite(json.dumps(small_config(jobs=[
            {"id": "zhu", "check": "zhu", "map": _nested_map("scale", nodes)}])))
    assert err.value.path.startswith("/jobs/0/map/inner")


def test_jobs_nested_too_deep_to_decode_is_schema_error():
    text = '{"suite_name": "deep", "seed": 1, "jobs": ' + "[" * 200_000 + "]" * 200_000 + "}"
    with pytest.raises(SchemaError) as err:
        parse_suite(text)
    assert err.value.path == "/"
    # decodable, but nested past the cap: jobs/0 is level 3, so level
    # MAX_DEPTH + 1 is MAX_DEPTH - 2 levels below it
    deep = functools.reduce(lambda inner, _: [inner], range(MAX_DEPTH), [])
    with pytest.raises(SchemaError) as err:
        parse_suite(small_config(jobs=[deep]))
    assert err.value.path == "/jobs/0" + "/0" * (MAX_DEPTH - 2)


def test_an_override_pointer_escapes_tilde_and_slash_in_its_key():
    # RFC 6901 writes a key's "~" as "~0" and its "/" as "~1"; unescaped,
    # "a/b~c" would point at the key "b~c" under the key "a"
    doc = small_config(tolerance_overrides={"a/b~c": 1e-3})
    with pytest.raises(SchemaError) as err:
        parse_suite(doc)
    assert err.value.path == "/tolerance_overrides/a~1b~0c"
    assert _resolve(doc, err.value.path) == 1e-3


def test_a_too_deep_pointer_escapes_tilde_and_slash_in_its_keys():
    doc = small_config()
    doc["jobs"][0]["map"]["params"]["n~/x"] = functools.reduce(
        lambda inner, _: [inner], range(70), [])
    with pytest.raises(SchemaError) as err:
        parse_suite(doc)
    # the key's value is level 6 of the document, so level MAX_DEPTH + 1 lies
    # MAX_DEPTH - 5 levels below it
    assert err.value.path == "/jobs/0/map/params/n~0~1x" + "/0" * (MAX_DEPTH - 5)
    assert isinstance(_resolve(doc, err.value.path), list)


def test_shipped_suite_all_pass():
    config = parse_suite((SUITE_DIR / "paper.json").read_bytes())
    results = run_suite(config)
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
