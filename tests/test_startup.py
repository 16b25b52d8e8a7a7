"""What a fresh process loads, and the lazy names that make it so.

Each check that depends on which modules are already imported runs in a
fresh interpreter, since this test process has imported them all.
"""

import json
import os
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import graypool
from graypool import save_code
from graypool.cli import build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The submodules ``import graypool`` loads.
EAGER = {"graypool", "graypool.bba", "graypool.codes", "graypool.errors", "graypool.validate"}


def _fresh(script: str, *argv: str) -> str:
    """Stdout of ``script`` run with ``argv`` by a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs ``python -m graypool <argv>`` in-process, then prints its exit code and
# the graypool modules it loaded on the last line.
RUN_MODULE = """
import json, runpy, sys
sys.argv[0] = "graypool"
try:
    runpy.run_module("graypool", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("graypool"))]))
"""


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["bound", "--m", "5", "--r", "2"], set()),
        (["validate", "{code}"], set()),
        (["decode", "--code", "{code}", "--positives", "1,2,3"], {"decode"}),
        (["partition", "--n-items", "20", "--d", "3"], {"decode"}),
        (["construct", "--alg", "bba", "--m", "5", "--r", "2", "--n", "10"], set()),
        (["construct", "--alg", "rcbba", "--m", "8", "--r", "3", "--n", "30"], {"recombine"}),
        (["simulate", "--code", "{code}", "--max-errors", "1"], {"decode", "simulate"}),
        (["oracle", "max", "--m", "4", "--r", "2"], {"oracle"}),
    ],
    ids=["bound", "validate", "decode", "partition", "construct-bba", "construct-rcbba",
         "simulate", "oracle-max"],
)
def test_a_fresh_process_loads_only_what_its_subcommand_runs(tmp_path, code_5_2_10, argv, loads):
    path = tmp_path / "c.json"
    save_code(code_5_2_10, path)
    out = _fresh(RUN_MODULE, *(a.format(code=path) for a in argv))
    rc, modules = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert set(modules) == EAGER | {"graypool.cli"} | {f"graypool.{m}" for m in loads}


def test_submodule_imports_in_any_order_leave_bba_and_validate_the_functions():
    script = (
        "import types, graypool.validate, graypool.simulate, graypool.recombine, "
        "graypool.oracle, graypool.errors, graypool.decode, graypool.codes, graypool.cli, "
        "graypool.bba\n"
        "print(isinstance(graypool.bba, types.FunctionType), "
        "isinstance(graypool.validate, types.FunctionType))"
    )
    assert _fresh(script).split() == ["True", "True"]


def test_a_bare_import_resolves_the_lazy_submodules_and_star_binds_every_name():
    script = (
        "import json, sys, graypool\n"
        "mods = [graypool.recombine.__name__, graypool.decode.__name__, "
        "graypool.simulate.__name__, graypool.oracle.__name__]\n"
        "ns = {}\n"
        "exec('from graypool import *', ns)\n"
        "print(json.dumps([mods, sorted(set(ns) - {'__builtins__'}), sorted(dir(graypool))]))"
    )
    mods, star, names = json.loads(_fresh(script))
    assert mods == ["graypool.recombine", "graypool.decode", "graypool.simulate", "graypool.oracle"]
    assert len(star) == 34
    assert star == names == sorted(graypool.__all__)


def test_every_lazy_name_is_its_submodules_object():
    for name, module in graypool._LAZY.items():
        assert getattr(graypool, name) is getattr(import_module(f"graypool.{module}"), name)
    assert isinstance(graypool.recombine, types.ModuleType)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        graypool.nothing


def test_the_parser_names_the_search_defaults_without_the_oracle(capsys):
    with pytest.raises(SystemExit):
        main(["construct", "--help"])
    assert "(default 1000000)" in " ".join(capsys.readouterr().out.split())
    args = build_parser().parse_args(["oracle", "max", "--m", "5", "--r", "2"])
    assert args.node_limit == 10**7
    assert import_module("graypool.oracle").DEFAULT_NODE_LIMIT == 10**7


# Replaces two names on graypool.cli before its first main call, as the
# benchmark's tracer does, then restores the originals; prints the wrapper
# counts after each phase and whether the outputs matched.
TRACED = """
import contextlib, io, json, sys
import graypool.cli as cli
from graypool.decode import PoolDecoder
from graypool.simulate import simulate_sweep

calls = {"PoolDecoder": 0, "simulate_sweep": 0}

def counting(name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped

def run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["simulate", "--code", sys.argv[1], "--max-errors", "1"]) == 0
        assert cli.main(["decode", "--code", sys.argv[1], "--positives", "1,2,3"]) == 0
    return out.getvalue()

cli.simulate_sweep = counting("simulate_sweep", simulate_sweep)
cli.PoolDecoder = counting("PoolDecoder", PoolDecoder)
traced = run()
wrapped = dict(calls)
cli.simulate_sweep, cli.PoolDecoder = simulate_sweep, PoolDecoder
plain = run()
print(json.dumps([wrapped, calls, traced == plain]))
"""


def test_names_set_on_the_cli_before_first_use_are_the_ones_it_calls(tmp_path, code_5_2_10):
    path = tmp_path / "c.json"
    save_code(code_5_2_10, path)
    wrapped, after_restore, same_output = json.loads(_fresh(TRACED, str(path)))
    assert wrapped == {"PoolDecoder": 1, "simulate_sweep": 1}
    assert after_restore == wrapped  # the restored originals ran instead
    assert same_output


# Sets a counting wrapper on graypool.cli for each lazy name a subcommand
# calls, before any first use, runs every subcommand that calls one, and
# prints the counts and the exit codes.
EVERY_LAZY_NAME = """
import contextlib, io, json, sys
import graypool, graypool.cli as cli

NAMES = ("rcbba_detailed", "build_maximal", "PoolDecoder", "simulate_sweep", "sweep_to_csv",
         "exhaustive_max", "exhaustive_best_balance", "partition_items")
calls = dict.fromkeys(NAMES, 0)

def counting(name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped

for name in NAMES:
    setattr(cli, name, counting(name, getattr(graypool, name)))
code = sys.argv[1]
runs = [
    ["construct", "--alg", "maximal", "--m", "4", "--r", "2"],
    ["construct", "--alg", "rcbba", "--m", "8", "--r", "3", "--n", "30"],
    ["decode", "--code", code, "--positives", "1,2,3"],
    ["simulate", "--code", code, "--max-errors", "1"],
    ["oracle", "max", "--m", "4", "--r", "2"],
    ["oracle", "balance", "--m", "5", "--r", "2", "--n", "5"],
    ["partition", "--n-items", "6", "--d", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(json.dumps([calls, codes]))
"""


def test_a_wrapper_set_on_the_cli_is_called_for_every_lazy_name(tmp_path, code_5_2_10):
    path = tmp_path / "c.json"
    save_code(code_5_2_10, path)
    calls, codes = json.loads(_fresh(EVERY_LAZY_NAME, str(path)))
    assert codes == [0] * 7
    assert list(calls.values()) == [1] * 8


def test_an_unknown_cli_attribute_names_the_cli_module():
    with pytest.raises(AttributeError, match="module 'graypool.cli' has no attribute 'nothing'"):
        import_module("graypool.cli").nothing


def test_the_cli_module_runs_as_main():
    proc = subprocess.run(
        [sys.executable, "-m", "graypool.cli", "partition", "--n-items", "6", "--d", "3"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[[1, 2], [3, 4], [5, 6]]\n"), proc.stderr
