"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q bench/test_smoke.py

Each test runs ``bench/run.py --smoke`` in a copy of the sources under a
temporary directory, so scratch files stay out of the work tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NO_CACHE = shutil.ignore_patterns("__pycache__")
EXPECTED_LAYERS = {
    "design": (
        "bba.calls", "recombine.rcbba.fail", "oracle.max.nodes", "validate.addresses",
        "cli.construct.self_s",
    ),
    "sweep": (
        "simulate.fn.exhaustive.trials", "simulate.fp.sampled.us_per_trial", "codes.load.bytes",
    ),
    "readout": (
        "decode.exact.calls", "decode.fn.candidates_mean", "decode.fp.calls", "cli.decode.calls",
    ),
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(ROOT / "bench", root / "bench", ignore=NO_CACHE)
    shutil.copytree(ROOT / "src", root / "src", ignore=NO_CACHE)
    return root


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, done.stderr
    return last


@pytest.mark.parametrize("workload", ["design", "sweep", "readout"])
def test_end_to_end_metrics(checkout, workload):
    out = result(run(checkout, "--workload", workload, "--seconds", "0", "--trace", "0", "--smoke"))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["design", "sweep", "readout"])
def test_per_layer_metrics(checkout, workload):
    out = result(run(checkout, "--workload", workload, "--seconds", "0", "--trace", "1", "--smoke"))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name in EXPECTED_LAYERS[workload] + ("trace.overhead",):
        assert out["metrics"][name]["value"] > 0, name
    # Each layer is predicted not to run on the workloads that do not name it.
    for other, names in EXPECTED_LAYERS.items():
        if other != workload and "codes.load.bytes" not in names:
            assert all(out["metrics"][name]["value"] == 0 for name in names), other


def test_repeat_digest_repeats(checkout):
    def repeat(seed):
        args = ("--workload", "readout", "--seed", str(seed), "--seconds", "0", "--smoke")
        done = run(checkout, *args)
        result(done)
        (line,) = [line for line in done.stdout.splitlines() if line.startswith("repeat ")]
        return line

    assert repeat(9) == repeat(9) != repeat(10)


def test_all_prints_the_named_metrics(checkout):
    out = result(run(checkout, "--workload", "all", "--seed", "2", "--seconds", "0", "--smoke"))
    assert set(out["metrics"]) >= {
        "setup_s", "design_s", "design_fail_ratio", "design_deviation_mean",
        "sweep_fn_trials_per_s", "sweep_fp_trials_per_s",
        "readout_decode_p50_us", "readout_decode_p99_us",
        "readout_cli_p50_ms", "readout_cli_p90_ms", "peak_rss_mb",
    }


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=NO_CACHE)
    done = run(tmp_path, "--workload", "design", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_harness():
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import run as bench_run
    import tracing
    import workloads

    # Between them, the workloads must reach every name the tracer wraps.
    reached = {name for w in workloads.WORKLOADS.values() for name in w.hits}
    assert reached == set(tracing.LABELS)

    layers = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert layers == list(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench_run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_run.WORKLOAD_NAMES)
