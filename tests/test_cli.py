import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from graypool import load_code, validate
from graypool.codes import mask_from_indices
from graypool.cli import main


def test_bound_prints_value(capsys):
    assert main(["bound", "--m", "5", "--r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "10"


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
        pytest.param(
            "[" * 10**5 + "]" * 10**5, "maximum recursion depth exceeded", id="nested-1e5-deep"
        ),
        # The interpreter words the overflow of 1 << m itself.
        pytest.param(
            '{"m": 99999999999999999999, "r": 1, "addresses": []}', "graypool: error: ",
            id="m-overflows",
        ),
    ],
)
def test_malformed_json_code_exits_3(tmp_path, capsys, text, message):
    path = tmp_path / "code.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert "Traceback" not in err


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
    ],
)
def test_construct_rejects_a_bad_first_address(capsys, first, message):
    argv = ["construct", "--alg", "bba", "--m", "5", "--r", "2", "--n", "4"]
    assert main([*argv, "--first-address", first]) == 3
    assert capsys.readouterr().err == f"graypool: error: {message}\n"


@pytest.mark.parametrize(
    "name,replacement,argv,kind",
    [
        # The (6, 1) flip source of a maximal (6, 4) code is left with no
        # leading closing union.
        ("_fresh_superset", lambda m, mask, used: None, ["--m", "6", "--r", "4"],
         "no-closing-union"),
        # With no 6-cycle to flip, the (7, 3) base's 2-factor keeps its cycles.
        ("_six_cycles", lambda cycles, a: iter(()), ["--m", "8", "--r", "3"],
         "construction-failed"),
    ],
)
def test_construct_reports_a_failed_maximal_build_in_one_line(
    capsys, monkeypatch, name, replacement, argv, kind
):
    monkeypatch.setattr(f"graypool.recombine.{name}", replacement)
    assert main(["construct", "--alg", "maximal", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"graypool: construction failed ({kind}): ")


def test_oracle_with_an_overflowing_pool_count_exits_3(capsys):
    argv = ["oracle", "max", "--m", "99999999999999999999", "--r", "1", "--node-limit", "5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("graypool: error: ")


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
    assert err == "graypool: error: sweep needs every consecutive union to have weight r+1=3\n"


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


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


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
        assert _exit_code(argv) in {0, 1, 2, 3}, argv


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
    assert _exit_code(argv) in {0, 1, 2, 3}, argv
