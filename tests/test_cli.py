"""End-to-end command line behavior."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import schwarz_lab
from schwarz_lab import cli
from schwarz_lab.cli import main
from schwarz_lab.suite import parse_suite


@pytest.fixture()
def suite_file(tmp_path):
    doc = {
        "suite_name": "cli-test",
        "seed": 11,
        "jobs": [
            {"id": "zhu", "check": "zhu",
             "map": {"gallery": "zhu_extremal", "params": {"a": 0.2, "d": 0.1}}},
            {"id": "eq", "check": "equality_1d",
             "map": {"gallery": "identity", "params": {"n": 1}}},
        ],
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_subcommand_ok(suite_file, capsys):
    code = main(["run", str(suite_file), "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["id"] for r in rows] == ["zhu", "eq"]
    assert all(r["passed"] for r in rows)


def test_run_reports_failure_exit_code(tmp_path, capsys):
    doc = {"suite_name": "f", "seed": 0, "jobs": [
        {"id": "nope", "check": "polydisk_counterexample", "n": 3,
         "expect": "fail"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"suite_name": "x", "jobs": []}')  # no seed
    assert main(["run", str(path)]) == 2
    assert "/seed" in capsys.readouterr().err


def test_run_has_no_jobs_option(suite_file):
    # suites run serially; --jobs is an unknown option, a usage error
    with pytest.raises(SystemExit) as exc:
        main(["run", str(suite_file), "--jobs", "2"])
    assert exc.value.code == 2


def test_tolerance_flag_overrides(suite_file, capsys):
    assert main(["run", str(suite_file)]) == 0
    capsys.readouterr()
    assert main(["run", str(suite_file), "--tolerance",
                 "margin_tol=1e-16"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  zhu" in out


@pytest.mark.parametrize("text, pointer", [
    ('{"suite_name": "x", "seed": 1, "jobs": [', "/"),
    ('{"suite_name": "x", "seed": 1, "tolerance_overrides": [1], "jobs": []}',
     "/tolerance_overrides"),
], ids=["invalid-json", "overrides-not-an-object"])
def test_tolerance_flag_with_a_bad_suite_file_is_schema_error(text, pointer, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path), "--tolerance", "margin_tol=1e-9"]) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {pointer}:")


def test_tolerance_flag_replaces_the_files_value(tmp_path):
    # z -> (1 - 5e-9) z^2 has Zhu margin -1e-8: it passes at margin_tol 1e-7, fails at 1e-9
    f = schwarz_lab.Scale(1.0 - 5e-9, schwarz_lab.Power(2, schwarz_lab.Coordinate(0, 1)))
    path = tmp_path / "zhu.json"
    path.write_text(json.dumps({
        "suite_name": "zhu", "seed": 3, "tolerance_overrides": {"margin_tol": 1e-9},
        "jobs": [{"id": "zhu", "check": "zhu", "map": schwarz_lab.map_to_json(f)}]}))
    assert main(["run", str(path)]) == 1
    assert main(["run", str(path), "--tolerance", "margin_tol=1e-7"]) == 0
    assert main(["run", str(path), "--tolerance", "margin_tol=1e-7",
                 "--tolerance", "margin_tol=1e-9"]) == 1


@pytest.mark.parametrize("argv", [
    ["run", "SUITE", "--tolerance", "margin_tol=abc"],
    ["run", "SUITE", "--tolerance", "bogus_tol=1"],
    ["check", "zhu", "--map", "zhu_extremal", "--map-params", "{bad"],
    ["caratheodory", "--dir", "0.3,0.4", "-p", "abc"],
    ["check", "schwarz_pick", "--map", "identity", "--map-params", '{"n": 2}',
     "-p", "2", "--samples", "0"],
    ["caratheodory", "--dir", "0.3,0.4", "-p", "2", "--starts", "0"],
    ["caratheodory", "--dir", "0.3,0.4", "-p", "2", "--iters", "0"],
    ["run", "MISSING"],
    ["run", "DIR"],
    ["caratheodory", "-p", "2"],
    ["caratheodory", "--dir", "0.3,0.4", "-p", "1e400"],
    ["check", "rigidity", "--map", "identity", "--map-params", '{"n": 2}',
     "--anchor", "1,0", "--anchor", "0,1", "-p", "2", "--variant", "nope"],
])
def test_malformed_argument_is_schema_error(argv, suite_file, capsys):
    paths = {"SUITE": suite_file, "MISSING": suite_file.parent / "missing.json",
             "DIR": suite_file.parent}
    argv = [str(paths[a]) if a in paths else a for a in argv]
    assert main(argv) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, pointer", [
    (["caratheodory", "--dir", "0.3,0.4", "-p", "abc"], "/jobs/0/exponent"),
    (["run", "SUITE", "--tolerance", "margin_tol=abc"], "/tolerance_overrides/margin_tol"),
    (["check", "zhu", "--map", "zhu_extremal", "--map-params", "{bad"], "/jobs/0/map/params"),
    (["check", "schwarz_pick", "--map", "identity", "--map-params", '{"n": 2}',
      "-p", "2", "--samples", "0"], "/jobs/0/samples"),
], ids=["exponent", "tolerance", "map-params", "samples"])
def test_malformed_argument_names_the_key_it_sets(argv, pointer, suite_file, capsys):
    argv = [str(suite_file) if a == "SUITE" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {pointer}:")


_SQUARE = {"node": "power", "exponent": 2,
           "inner": {"node": "coordinate", "index": 0, "dim": 1}}


@pytest.mark.parametrize("argv, pointer", [
    (["check", "zhu", "--map", json.dumps({**_SQUARE, "bogus": 1})], "/jobs/0/map/bogus"),
    (["check", "zhu", "--map", json.dumps({**_SQUARE, "inner": {**_SQUARE["inner"], "x": 0}})],
     "/jobs/0/map/inner/x"),
    (["check", "zhu", "--map", json.dumps(_SQUARE["inner"]), "--map-params", '{"x": 1}'],
     "/jobs/0/map/params"),
], ids=["top", "nested", "map-params-beside-an-inline-map"])
def test_an_undeclared_map_key_is_a_schema_error_at_its_pointer(argv, pointer, capsys):
    # each of these printed PASS and exited 0 while map keys were read silently
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"schema error: {pointer}: map node ")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["run", "SUITE", "--tolerance", "margin_tol=1e-7"],
    ["check", "zhu", "--map", "zhu_extremal", "--tolerance", "margin_tol=1e-7"],
    ["caratheodory", "--dir", "0.3", "-p", "2", "--starts", "6", "--iters", "80"],
], ids=["run", "check", "caratheodory"])
def test_each_command_parses_its_suite_once(argv, suite_file, monkeypatch, capsys):
    docs = []
    monkeypatch.setattr(cli, "parse_suite", lambda doc: docs.append(doc) or parse_suite(doc))
    assert main([str(suite_file) if a == "SUITE" else a for a in argv]) == 0
    assert len(docs) == 1


def test_every_spelling_of_infinity_names_the_polydisk(capsys):
    reports = []
    for spelling in ("Infinity", "OO", "inf"):
        assert main(["caratheodory", "--dir", "0.3,0.4", "-p", spelling, "--starts", "6",
                     "--iters", "80", "--format", "jsonl"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("argv, job", [
    (["check", "lp_boundary_schwarz", "--map", "square_first", "--map-params", '{"n": 2}',
      "--point", "1,0", "-p", "3"],
     {"check": "lp_boundary_schwarz", "map": {"gallery": "square_first", "params": {"n": 2}},
      "point": [[1.0, 0.0], [0.0, 0.0]], "exponent": 3}),
    (["caratheodory", "--dir", "0.3,0.4", "-p", "4", "--starts", "6", "--iters", "80"],
     {"check": "caratheodory_metric", "direction": [[0.3, 0.0], [0.4, 0.0]], "exponent": 4,
      "starts": 6, "iters": 80}),
], ids=["check", "caratheodory"])
def test_a_command_reports_as_its_job_run_from_a_suite_file(argv, job, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"suite_name": "cli", "seed": 5, "tolerance_overrides":
                                {"margin_tol": 1e-6}, "jobs": [{"id": "cli", **job}]}))
    flags = ["--format", "csv", "--tolerance", "margin_tol=1e-6"]
    assert main(argv + flags + ["--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert main(["run", str(path)] + flags[:2]) == 0
    assert capsys.readouterr().out == out


_DEEP_ARRAY = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("argv", [
    ["check", "zhu", "--map", _DEEP_ARRAY],
    ["check", "zhu", "--map", "zhu_extremal", "--map-params", _DEEP_ARRAY],
    ["caratheodory", "-p", "2", "--to", _DEEP_ARRAY],
], ids=["map", "map-params", "to"])
def test_argument_nested_too_deep_to_decode_is_schema_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: /:") and err.count("\n") == 1


@pytest.mark.parametrize("jobs, pointer", [
    ('[{"id": "z", "check": "zhu", "map": '
     + '{"node": "scale", "factor": [1, 0], "inner": ' * 500
     + '{"node": "coordinate", "index": 0, "dim": 1}' + "}" * 500 + "}]",
     "/jobs/0/map/inner/"),
    ("[" * 200_000 + "]" * 200_000, "/:"),
], ids=["map-500-nodes", "jobs-200000-arrays"])
def test_suite_nested_past_the_cap_is_schema_error(jobs, pointer, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"suite_name": "deep", "seed": 1, "jobs": ' + jobs + "}")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {pointer}") and err.count("\n") == 1


def test_gallery_list(capsys):
    assert main(["gallery", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "identity" in names
    assert "zhu_extremal" in names


def test_check_subcommand(capsys):
    code = main(["check", "zhu", "--map", "zhu_extremal",
                 "--map-params", '{"a": 0.0, "d": 0.5}', "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)
    assert row["theorem_id"] == "zhu_boundary_disk"
    assert row["passed"]


def test_check_with_point_and_exponent(capsys):
    code = main(["check", "lp_boundary_schwarz",
                 "--map", '{"gallery": "identity", "params": {"n": 2}}',
                 "--point", "[[1.0, 0.0], [0.0, 0.0]]", "-p", "3",
                 "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)
    assert row["quantities"]["lambda"] == pytest.approx(1.0, abs=1e-8)


def test_check_unknown_map_is_schema_error(capsys):
    assert main(["check", "zhu", "--map", "frobnicate"]) == 2
    assert "schema error" in capsys.readouterr().err


def test_caratheodory_metric(capsys):
    code = main(["caratheodory", "--dir", "0.3,0.4", "-p", "2",
                 "--starts", "6", "--iters", "80", "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)
    assert row["quantities"]["closed_form"] == pytest.approx(0.5)
    assert row["quantities"]["optimized"] == pytest.approx(0.5, abs=1e-3)


def test_caratheodory_distance(capsys):
    code = main(["caratheodory", "--to", "[[0.5, 0.0]]", "-p", "2",
                 "--starts", "6", "--iters", "80", "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)
    assert row["theorem_id"] == "caratheodory_distance_origin"
    assert row["passed"]


@pytest.mark.parametrize("flag, bare, pairs", [
    ("--to", "0.5", "[[0.5, 0.0]]"),
    ("--dir", "0.7", "[[0.7, 0.0]]"),
])
def test_caratheodory_reads_a_bare_real_as_one_coordinate(flag, bare, pairs, capsys):
    argv = ["caratheodory", "-p", "2", "--starts", "6", "--iters", "80", "--format", "jsonl"]
    assert main(argv + [flag, bare]) == 0
    out = capsys.readouterr().out
    assert main(argv + [flag, pairs]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("to", ["1e400", f"[1{'0' * 400}]"], ids=["inf", "int-overflow"])
def test_caratheodory_points_at_a_real_out_of_range(to, capsys):
    assert main(["caratheodory", "--to", to, "-p", "2"]) == 2
    assert "schema error: /jobs/0/z/0:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, key", [
    (["--base", "0.1"], "base"),
    (["--dir", "0.3"], "direction"),
    (["--family", "linear_dual"], "family"),
], ids=["base", "dir", "family"])
def test_caratheodory_distance_rejects_a_metric_flag(flags, key, capsys):
    # --to makes a distance job, which takes none of these; none is dropped
    assert main(["caratheodory", "--to", "0.5", "-p", "2"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: /jobs/0:") and f"'{key}'" in err


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(pathlib.Path(schwarz_lab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_entry_point_writes_the_golden_report():
    # tests/golden/paper.jsonl is this command's output, byte for byte
    root = pathlib.Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "schwarz_lab.cli", "run", "suites/paper.json",
                          "--format", "jsonl"], capture_output=True, cwd=root, timeout=300,
                         env=_src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == (root / "tests" / "golden" / "paper.jsonl").read_bytes()


def _loaded_by_import(package: str) -> str:
    """The modules of ``package`` that a fresh interpreter holds after importing
    schwarz_lab and its CLI, as a printed sorted list."""
    code = ("import sys, schwarz_lab, schwarz_lab.cli; "
            f"print(sorted(m for m in sys.modules if m == {package!r} "
            f"or m.startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=_src_env())
    return out.stdout.strip()


def test_import_path_loads_no_scipy():
    # The package and its CLI need numpy alone; scipy is a test-time comparator.
    assert _loaded_by_import("scipy") == "[]"


def test_import_path_loads_no_thread_pool():
    # Suites run serially, so nothing imports concurrent.futures.
    assert _loaded_by_import("concurrent.futures") == "[]"
