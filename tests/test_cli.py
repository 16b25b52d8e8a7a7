import argparse
import contextlib
import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import INVALID_CODES
from graypool import build_maximal, load_code, save_code, validate
from graypool.codes import mask_from_indices
from graypool.cli import build_parser, main


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors, --help and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_bound_prints_value(capsys):
    assert main(["bound", "--m", "5", "--r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_bound_prints_more_digits_than_int_to_str_allows(capsys):
    # The bound, C(20000, 10001) + 1, has 6019 digits: past the default
    # limit of 4300 that str(int) enforces.
    assert main(["bound", "--m", "20000", "--r", "10000"]) == 0
    out = capsys.readouterr().out
    assert out == str(decimal.Decimal(math.comb(20000, 10001) + 1)) + "\n"
    assert len(out) == 6020


def _run_module(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m graypool`` in a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "graypool", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_runs_the_cli():
    assert _run_module("bound", "--m", "5", "--r", "2") == (0, "10\n", "")


def test_module_entry_point_prints_the_version():
    assert _run_module("--version") == (0, "graypool 0.1.0\n", "")


def test_construct_validate_pipeline(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main([
        "construct", "--alg", "rcbba", "--m", "6", "--r", "2", "--n", "12",
        "--out", str(out),
    ]) == 0
    assert main(["validate", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_valid"] is True
    payload = json.loads(out.read_text())
    assert payload["provenance"]["component_lengths"]


def test_construct_writes_manifest(tmp_path):
    out = tmp_path / "c.csv"
    assert main([
        "construct", "--alg", "bba", "--m", "5", "--r", "2", "--n", "10",
        "--first-address", "2,3", "--out", str(out),
    ]) == 0
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "construct"
    assert manifest["parameters"]["m"] == 5
    assert manifest["seed"] == 0
    assert len(manifest["output_sha256"]) == 64
    code = load_code(out)
    assert validate(code).is_valid
    assert code.masks[0] == mask_from_indices((2, 3), 5)


@pytest.mark.parametrize(
    "argv,out,parameters",
    [
        (
            ["construct", "--alg", "bba", "--m", "5", "--r", "2", "--n", "10",
             "--first-address", "2,3"],
            "bba.json",
            {"alg": "bba", "m": 5, "r": 2, "n": 10, "first_address": "2,3", "seed": 0,
             "budget": 1000000, "time_limit": None},
        ),
        (
            ["construct", "--alg", "rcbba", "--m", "8", "--r", "3", "--n", "30",
             "--time-limit", "30"],
            "rcbba.csv",
            {"alg": "rcbba", "m": 8, "r": 3, "n": 30, "first_address": None, "seed": 0,
             "budget": 1000000, "time_limit": 30.0},
        ),
        (
            ["construct", "--alg", "maximal", "--m", "6", "--r", "2"],
            "maximal.json",
            {"alg": "maximal", "m": 6, "r": 2, "n": None, "first_address": None, "seed": 0,
             "budget": None, "time_limit": None},
        ),
        (
            ["simulate", "--code", "{code}", "--max-errors", "2"],
            "sweep.csv",
            {"code": "{code}", "max_errors": 2, "mode": "auto", "samples": 10000, "seed": 0,
             "error_type": "false-negative"},
        ),
    ],
    ids=["bba", "rcbba", "maximal", "simulate"],
)
def test_manifest_records_every_parsed_argument_but_out(tmp_path, argv, out, parameters):
    # The parameters are the parsed arguments in parser order, with the
    # budget default filled in for the searches; the key order is pinned too.
    code_path = str(tmp_path / "code.json")
    save_code(build_maximal(6, 2), code_path)
    out_path = tmp_path / out
    argv = [code_path if a == "{code}" else a for a in argv]
    assert main([*argv, "--out", str(out_path)]) == 0
    manifest = json.loads(Path(f"{out_path}.manifest.json").read_text())
    expected = {k: code_path if v == "{code}" else v for k, v in parameters.items()}
    assert list(manifest["parameters"].items()) == list(expected.items())
    assert manifest["subcommand"] == argv[0]
    assert (manifest["seed"], manifest["budget"]) == (0, parameters.get("budget"))


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["construct", "--alg", "bba", "--m", "8", "--r", "3", "--n", "30", "--seed", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_stdout_json(capsys):
    assert main(["construct", "--alg", "maximal", "--m", "5", "--r", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 10 and payload["deviation"] == 0


def test_infeasible_construction_exits_2(capsys):
    assert main(["construct", "--alg", "bba", "--m", "4", "--r", "2", "--n", "6"]) == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("m, r", [(3, 3), (5, 0)])
def test_maximal_construction_rejects_a_weight_outside_the_request_domain(capsys, m, r):
    assert main(["construct", "--alg", "maximal", "--m", str(m), "--r", str(r)]) == 3
    err = capsys.readouterr().err
    assert err == f"graypool: error: weight must satisfy 1 <= r < m, got r={r}, m={m}\n"


def test_invalid_code_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,1\n1,1\n0,0\n")
    assert main(["validate", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"]


def test_usage_errors_exit_3(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--alg", "nonsense", "--m", "5", "--r", "2"])
    assert exc.value.code == 3
    assert main(["construct", "--alg", "bba", "--m", "5", "--r", "2"]) == 3  # missing --n
    assert main(["validate", str(tmp_path / "missing.json")]) == 3


def test_decode_subcommand(tmp_path, capsys):
    out = tmp_path / "c.json"
    main(["construct", "--alg", "maximal", "--m", "5", "--r", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["decode", "--code", str(out), "--positives", "1,2,3"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] in {"exact-pair", "error-false-positive"}
    assert main(["decode", "--code", str(out), "--positives", "1,2", "--no-single"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["single"] is None
    # A pool listed twice among the positives is read once.
    assert main(["decode", "--code", str(out), "--positives", "1,1,2"]) == 0
    repeated = capsys.readouterr().out
    assert main(["decode", "--code", str(out), "--positives", "1,2"]) == 0
    assert repeated == capsys.readouterr().out


@pytest.mark.parametrize("m, addresses, requirement", INVALID_CODES)
def test_decode_rejects_invalid_codes(tmp_path, capsys, m, addresses, requirement):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"m": m, "r": 2, "addresses": addresses}))
    assert main(["decode", "--code", str(path), "--positives", "1,2,3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graypool: error: code needs {requirement}\n"


def test_simulate_subcommand(tmp_path):
    code_path = tmp_path / "c.json"
    main(["construct", "--alg", "bba", "--m", "8", "--r", "3", "--n", "25", "--out", str(code_path)])
    sweep_path = tmp_path / "sweep.csv"
    assert main([
        "simulate", "--code", str(code_path), "--max-errors", "1", "--out", str(sweep_path),
    ]) == 0
    lines = sweep_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,e,trials")
    assert len(lines) == 3
    assert (tmp_path / "sweep.csv.manifest.json").exists()


def test_oracle_subcommands(capsys):
    assert main(["oracle", "max", "--m", "4", "--r", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["max_length"] == 5 and result["is_exact"]
    assert main(["oracle", "balance", "--m", "5", "--r", "2", "--n", "5"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["deviation"] == 0


def test_partition_subcommand(capsys):
    assert main(["partition", "--n-items", "10", "--d", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]


def test_bound_rejects_a_pool_count_below_one(capsys):
    assert main(["bound", "--m", "-1", "--r", "1"]) == 3
    assert capsys.readouterr().err == "graypool: error: pool count must be at least 1, got -1\n"


def test_reused_parser_answers_like_a_fresh_one(tmp_path):
    path = tmp_path / "code.json"
    save_code(build_maximal(5, 2), path)
    decode = ["decode", "--code", str(path), "--positives", "1,2"]
    calls = [
        [*decode, "--no-single"],
        decode,
        ["construct", "--alg", "nonsense", "--m", "5", "--r", "2"],
        ["--version"],
        ["construct", "--alg", "rcbba", "--m", "6", "--r", "2", "--n", "12"],
        ["simulate", "--code", str(path), "--max-errors", "1"],
        ["--help"],
        ["decode", "--help"],
    ]
    build_parser.cache_clear()
    reused = [_run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 3, 0, 0, 0, 0, 0]
    # --no-single does not stay set for the next decode.
    assert json.loads(reused[0][1])["single"] is None
    assert json.loads(reused[1][1])["single"] is not None


def test_main_builds_its_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(["bound", "--m", "5", "--r", "2"]) == 0
    first = len(built)
    assert main(["partition", "--n-items", "4", "--d", "2"]) == 0
    assert first > 0 and len(built) == first


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "graypool" in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_simulate_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    code_path = tmp_path / "c.json"
    main(["construct", "--alg", "bba", "--m", "8", "--r", "3", "--n", "25", "--out", str(code_path)])
    capsys.readouterr()
    assert main([
        "simulate", "--code", str(code_path), "--max-errors", "1",
        "--mode", "sampled", "--samples", samples,
    ]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at least 1 sample" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alg", ["bba", "rcbba"])
@pytest.mark.parametrize("time_limit", ["0", "-2.5"])
def test_construct_rejects_non_positive_time_limit(capsys, alg, time_limit):
    assert main([
        "construct", "--alg", alg, "--m", "6", "--r", "2", "--n", "12",
        "--time-limit", time_limit,
    ]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "time limit must be positive" in err


def test_construct_reports_a_passed_deadline_in_one_line(capsys):
    # The deadline is read every 1024 visits; a microsecond has passed by then.
    argv = ["construct", "--alg", "bba", "--m", "14", "--r", "4", "--n", "950"]
    assert main([*argv, "--budget", "10000000", "--time-limit", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert err == "graypool: construction failed (budget-exhausted): time limit exceeded\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"m": 5, "r": 2, "n": 1, "addresses": 7}', "must be a list of pool-index lists"),
        ('{"m": 5, "r": 2, "addresses": [1, 2]}', "must be a list of pool-index lists"),
        ("[1, 2]", "a code must be a JSON object, got a JSON list"),
        ('{"m": 5.7, "r": true, "addresses": [[1], [2]]}', "m must be an integer, got 5.7"),
        ('{"m": 5, "r": true, "addresses": [[1], [2]]}', "r must be an integer, got True"),
        ('{"m": "5", "r": 1, "addresses": [[1], [2]]}', "m must be an integer, got '5'"),
        ('{"m": 5, "r": 1, "n": 2.0, "addresses": [[1], [2]]}', "n must be an integer, got 2.0"),
        ('{"m": 5, "r": 2, "addresses": [[true, 2], [2, 3]]}', "pool index True out of range"),
        ('{"m": 5, "r": 2, "addresses": [[1.0, 2], [2, 3]]}', "pool index 1.0 out of range"),
        (
            '{"m": 5, "r": 2, "addresses": [[1, 2], [1, 1, 2], [2, 3]]}',
            "address 2 lists a pool twice: [1, 1, 2]",
        ),
        pytest.param(
            "[" * 10**5 + "]" * 10**5, "maximum recursion depth exceeded", id="nested-1e5-deep"
        ),
        pytest.param(
            '{"m": 99999999999999999999, "r": 1, "addresses": []}',
            "pool count 99999999999999999999 exceeds",
            id="m-overflows",
        ),
        pytest.param(
            f'{{"m": {sys.maxsize + 1}, "r": 1, "addresses": []}}',
            f"pool count {sys.maxsize + 1} exceeds {sys.maxsize}",
            id="m-above-maxsize",
        ),
        pytest.param(
            '{"m": 0, "r": 0, "addresses": []}',
            "graypool: error: pool count must be at least 1, got 0\n",
            id="m-zero",
        ),
    ],
)
def test_malformed_json_code_exits_3(tmp_path, capsys, text, message):
    path = tmp_path / "code.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    err = captured.err
    assert err.count("\n") == 1 and message in err
    assert "Traceback" not in err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,status,err",
    [
        (["decode", "--code", "{code}", "--positives", "1,x"], 3,
         "graypool: error: expected comma-separated integers, got '1,x'\n"),
        (["oracle", "balance", "--m", "7", "--r", "2", "--n", "18", "--node-limit", "10"], 2,
         "graypool: construction failed (budget-exhausted): "
         "node limit 10 reached before the enumeration finished\n"),
        (["construct", "--alg", "bba", "--m", "5", "--r", "2", "--n", "11"], 2,
         "graypool: construction failed (infeasible): "
         "n=11 exceeds the length bound 10 for (m=5, r=2)\n"),
        (["construct", "--alg", "bba", "--m", "5", "--r", "2", "--n", "10", "--budget", "5"], 2,
         "graypool: construction failed (budget-exhausted): node-visit budget of 5 exhausted\n"),
        (["construct", "--alg", "rcbba", "--m", "5", "--r", "2", "--n", "10"], 2,
         "graypool: construction failed (no-joining-address): "
         "all joining addresses exhausted for (m=5, r=2, n=10)\n"),
    ],
    ids=[
        "decode-bad-positives",
        "oracle-balance-node-limit",
        "bba-infeasible",
        "bba-budget-exhausted",
        "rcbba-no-joining-address",
    ],
)
def test_failing_runs_print_one_line_and_nothing_on_stdout(tmp_path, argv, status, err):
    code_path = str(tmp_path / "code.json")
    save_code(build_maximal(5, 2), code_path)
    argv = [code_path if a == "{code}" else a for a in argv]
    assert _run(argv) == (status, "", err)
    if status == 2:  # every construction failure names its kind
        kinds = "infeasible|budget-exhausted|no-joining-address"
        assert re.match(rf"graypool: construction failed \(({kinds})\): ", err)


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["--alg", "maximal", "--n", "3"], "--n"),
        (["--alg", "maximal", "--first-address", "1,2"], "--first-address"),
        (["--alg", "maximal", "--time-limit", "0.000001"], "--time-limit"),
        (
            ["--alg", "maximal", "--n", "3", "--first-address", "1,2",
             "--time-limit", "0.000001"],
            "--n, --first-address, --time-limit",
        ),
        (["--alg", "rcbba", "--n", "10", "--first-address", "1,2"], "--first-address"),
        (["--alg", "maximal", "--budget", "100"], "--budget"),
    ],
)
def test_construct_rejects_options_its_algorithm_ignores(capsys, argv, flags):
    assert main(["construct", "--m", "5", "--r", "2", *argv]) == 3
    err = capsys.readouterr().err
    alg = argv[1]
    assert err == f"graypool: error: --alg {alg} does not take {flags}\n"


@pytest.mark.parametrize(
    "first,message",
    [
        ("1,6", "pool index 6 out of range 1..5"),
        ("0", "pool index 0 out of range 1..5"),
        ("1,2,3", "first address must have weight 2"),
        (",", "first address must have weight 2"),
        ("", "first address must have weight 2"),
    ],
)
def test_construct_rejects_a_bad_first_address(capsys, first, message):
    argv = ["construct", "--alg", "bba", "--m", "5", "--r", "2", "--n", "4"]
    assert main([*argv, "--first-address", first]) == 3
    assert capsys.readouterr().err == f"graypool: error: {message}\n"


def test_construct_reports_a_failed_maximal_build_in_one_line(capsys, monkeypatch):
    # With no 6-cycle to flip, the (7, 3) base's 2-factor keeps its cycles:
    # a stalled gluing is the one way build_maximal can fail.
    monkeypatch.setattr("graypool.recombine._six_cycles", lambda cycles, a: iter(()))
    assert main(["construct", "--alg", "maximal", "--m", "8", "--r", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("graypool: construction failed (construction-failed): ")


def test_oracle_with_an_overflowing_pool_count_exits_3(capsys):
    argv = ["oracle", "max", "--m", "99999999999999999999", "--r", "1", "--node-limit", "5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("graypool: error: ")


@pytest.mark.parametrize(
    "m,argv",
    [
        (sys.maxsize + 1, ["oracle", "max", "--r", "1", "--node-limit", "5"]),
        (sys.maxsize + 1, ["oracle", "balance", "--r", "1", "--n", "1"]),
        (sys.maxsize + 1, ["construct", "--alg", "bba", "--r", "1", "--n", "1"]),
        (sys.maxsize + 1, ["construct", "--alg", "rcbba", "--r", "1", "--n", "1"]),
        (99999999999999999999, ["construct", "--alg", "maximal", "--r", "1"]),
        (99999999999999999999, ["construct", "--alg", "maximal", "--r", "3"]),
    ],
)
def test_a_pool_count_above_sys_maxsize_exits_3(capsys, m, argv):
    # Lists, ranges and planning loops sized by m would fail or never end.
    assert main([*argv, "--m", str(m)]) == 3
    assert capsys.readouterr().err == f"graypool: error: pool count {m} exceeds {sys.maxsize}\n"


def test_running_out_of_memory_exits_3_in_one_line(tmp_path, capsys, monkeypatch):
    # A pool count of 10^9 passes the size check, and then the per-pool
    # counters of validate can exhaust memory.
    path = tmp_path / "code.json"
    path.write_text('{"m": 1000000000, "r": 1, "addresses": [[1], [2]]}')

    def out_of_memory(code):
        raise MemoryError

    monkeypatch.setattr("graypool.cli.validate", out_of_memory)
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().err == "graypool: error: out of memory\n"


def test_oracle_max_stops_at_node_limit_on_deep_searches(capsys):
    # Paths here run to thousands of addresses; the search must not recurse.
    assert main(["oracle", "max", "--m", "16", "--r", "4", "--node-limit", "20000"]) == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out)
    assert result["is_exact"] is False
    assert result["search_nodes"] == 20001
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_simulate_rejects_a_code_it_cannot_sweep(tmp_path, capsys, mode):
    # The union of the repeated address [1] has weight 1, not r+1 = 3.
    path = tmp_path / "code.json"
    path.write_text('{"m": 5, "r": 2, "addresses": [[1], [1]]}')
    argv = ["simulate", "--code", str(path), "--max-errors", "2", "--mode", mode]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "graypool: error: code needs every consecutive union to have weight r+1=3\n"


# Values of every JSON type, small integers most often.
_json_values = st.one_of(
    st.integers(-2, 8), st.booleans(), st.floats(-2, 8), st.text(max_size=2), st.none()
)
_index_lists = st.lists(st.one_of(st.integers(0, 7), _json_values), max_size=4)
_json_codes = st.one_of(
    # Short codes over at most 6 pools, with plain integer fields.
    st.fixed_dictionaries(
        {
            "m": st.integers(1, 6),
            "r": st.integers(0, 4),
            "addresses": st.lists(st.lists(st.integers(1, 6), max_size=4), max_size=6),
        },
        optional={"n": st.integers(0, 7)},
    ),
    # The same fields with values of the wrong type.
    st.fixed_dictionaries(
        {},
        optional={
            "m": _json_values,
            "r": _json_values,
            "n": _json_values,
            "addresses": st.one_of(_json_values, st.lists(st.one_of(_index_lists, _json_values))),
        },
    ),
    st.lists(_json_values, max_size=3),
).map(json.dumps)
_csv_codes = st.lists(
    st.lists(st.sampled_from(["0", "1", "1", "2", "", " x"]), max_size=6), max_size=6
).map(lambda rows: "\n".join(",".join(row) for row in rows) + "\n")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(
    suffix_text=st.one_of(
        st.tuples(st.just(".json"), _json_codes), st.tuples(st.just(".csv"), _csv_codes)
    ),
    positives=st.lists(st.integers(-1, 8), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    max_errors=st.integers(-1, 4),
    samples=st.integers(-1, 5),
    error_type=st.sampled_from(["false-negative", "false-positive"]),
)
@example(
    suffix_text=(".json", '{"m": 5, "r": 2, "addresses": [[1], [1]]}'),
    positives="1",
    max_errors=2,
    samples=3,
    error_type="false-negative",
)
def test_cli_exits_with_a_code_on_any_code_file(
    fuzz_dir, suffix_text, positives, max_errors, samples, error_type
):
    suffix, text = suffix_text
    path = fuzz_dir / f"code{suffix}"
    path.write_text(text)
    runs = [
        ["validate", str(path)],
        ["decode", "--code", str(path), "--positives", positives],
    ]
    for mode in ("exhaustive", "sampled"):
        runs.append([
            "simulate", "--code", str(path), "--max-errors", str(max_errors), "--mode", mode,
            "--samples", str(samples), "--error-type", error_type,
        ])
    for argv in runs:
        assert _run(argv)[0] in {0, 1, 2, 3}, argv


@st.composite
def _search_argv(draw):
    """argv for construct, oracle, bound or partition on small parameters.

    Every budget and node limit is at most 2000 visits, so each call stays
    fast whatever else is drawn. Values are valid often enough that the
    searches run, and each construct option is mostly given only to the
    algorithms that take it.
    """

    def opt(flag, values, given=st.booleans()):
        return [flag, str(draw(values))] if draw(given) else []

    small = st.integers(1, 8) | st.integers(-1, 9)
    command = draw(st.sampled_from(["construct", "oracle max", "oracle balance", "bound", "partition"]))
    argv = command.split()
    if command == "partition":
        return argv + opt("--n-items", st.integers(-1, 40)) + opt("--d", st.integers(-1, 6))
    argv += ["--m", str(draw(small)), "--r", str(draw(small))]
    if command == "bound":
        return argv
    limit = str(draw(st.integers(-1, 2000)))
    n = st.integers(-1, 20) | st.integers(-1, 130)
    if command.startswith("oracle"):
        if command == "oracle balance":
            argv += ["--n", str(draw(n))]
        return argv + ["--node-limit", limit]
    alg = draw(st.sampled_from(["bba", "rcbba", "maximal"]))
    first_address = st.one_of(
        # Empty, not integers, out of range, or of any weight.
        st.sampled_from(["", ",", "x", "1.5", "1,,2", "0", "10", "-1,3"]),
        st.lists(st.integers(-1, 10), max_size=5).map(lambda xs: ",".join(map(str, xs))),
    )
    time_limit = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "1e-9", "60", "x"])
    rarely = st.integers(0, 7).map(lambda k: k == 0)
    return (
        argv
        + ["--alg", alg]
        + opt("--budget", st.just(limit), st.just(True) if alg != "maximal" else rarely)
        + opt("--n", n, st.booleans() if alg != "maximal" else rarely)
        + opt("--first-address", first_address, st.booleans() if alg == "bba" else rarely)
        + opt("--time-limit", time_limit, st.booleans() if alg != "maximal" else rarely)
        + opt("--seed", st.integers(-1, 50))
    )


@settings(max_examples=200, deadline=None)
@given(argv=_search_argv())
def test_cli_exits_with_a_code_on_any_search_argv(argv):
    # Regression cover: no argv of this kind was known to crash when this
    # test was written. An escaping exception fails it.
    assert _run(argv)[0] in {0, 1, 2, 3}, argv
