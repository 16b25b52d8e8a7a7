"""graypool benchmark: the design, sweep and readout workloads, end to end and per layer.

    python3 bench/run.py --workload design --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload readout --smoke

One run measures one workload in this process, single-threaded, against
the sources under ``src/``. It sets the workload up several times (set-up
time is the median), then repeats the workload's fixed operation list
until ``--seconds`` have passed, at least twice, checking every output.
Every time is scaled by the host's speed when it was taken (see ``hostspeed``).
With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics and the tracing overhead.

Standard output ends with one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
The lines before it give the environment, the workload's own named
metrics with their sample counts, and the digest of the counts that must
repeat exactly between runs of the same seed (compare it across runs).
``--workload all`` runs the three workloads one after another, each in its
own process, and ends with the named end-to-end metrics of all three. ``--smoke`` shrinks every input
so that a broken harness fails within seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("design", "sweep", "readout")
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
MIN_PASSES = 2

# name -> unit; the per-workload meaning is in bench/README.md.
END_TO_END = {
    "pass_s": "s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import graypool.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="graypool benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the harness")
    return p.parse_args(argv)


def git_sha() -> str:
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def import_seconds(speed) -> tuple[float, float]:
    """Time to import graypool.cli in a fresh interpreter, with the local probe reading."""
    argv = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    done, _, local = speed.time(
        subprocess.run, argv, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout), local


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from graypool import cli
    from hostspeed import SPEED

    workdir = WORK / f"run-{os.getpid()}"
    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    try:
        imports = [import_seconds(SPEED) for _ in range(1 if args.smoke else IMPORT_REPEATS)]
        setups = [SPEED.time(wl.setup)[1:] for _ in range(SETUP_REPEATS)]

        tracer = tracing.Tracer(cli) if args.trace else None
        passes, plain, plain_s, traced_s, layer_passes = [], [], [], [], []
        started = time.perf_counter()
        while (
            len(passes) < MIN_PASSES
            or not (tracer is None or traced_s)
            or time.perf_counter() - started < args.seconds
        ):
            traced = tracer is not None and len(passes) % 2 == 1
            gc.collect()
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                passes.append(wl.run_pass(tally, tracer.log if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
            (traced_s if traced else plain_s).append(time.perf_counter() - start)
            if not traced:
                plain.append(passes[-1])
            else:
                tracer.expect_hit(wl.hits)
                layer_passes.append(tracer.pass_metrics())
        wl.final_checks(tally)

        for i, p in enumerate(passes[1:], start=2):
            same = p["repeat"] == passes[0]["repeat"]
            tally.check(same, f"pass {i} repeat record differs from pass 1")
        record = json.dumps(passes[0]["repeat"], sort_keys=True)
        repeat = hashlib.sha256(record.encode()).hexdigest()

        named = wl.summarize(plain)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(SPEED.scale(s, local) for s, local in imports)
        setup_s += statistics.median(SPEED.scale(ns, local) for ns, local in setups) / 1e9
        named["setup_s"] = (setup_s, "s", SETUP_REPEATS)
        named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)

        print(
            f"env python={platform.python_version()} git={git_sha()} nproc={os.cpu_count()}"
            f" workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
            f" trace={args.trace} smoke={int(args.smoke)} passes={len(passes)}"
            f" probe_floor_ns={SPEED.floor}"
        )
        for name, (value, unit, n) in named.items():
            print(f"metric {name} {value:.6g} {unit} n={n}")
        print(f"repeat {repeat}")

        if tracer is None:
            gated = {k: wl.GATED.get(k, k) for k in END_TO_END}
            metrics = {k: {"value": named[v][0], "unit": END_TO_END[k]} for k, v in gated.items()}
        else:
            mismatches = []
            layer = tracing.combine_passes(layer_passes, mismatches)
            for what in mismatches:
                tally.check(False, what)
            layer["trace.overhead"] = min(traced_s) / min(plain_s)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for what in tally.errors:
        print(f"bench: check failed: {what}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; ends with the named metrics of all three."""
    named: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
            fields = line.split()
            if fields[0] == "metric":
                value = {"value": float(fields[2]), "unit": fields[3]}
                named.setdefault(fields[1], {})[name] = value
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, value in last["metrics"].items():
            layers[f"{name}.{metric}"] = value

    if args.trace:
        metrics = layers
    else:
        metrics = {}
        for metric, per_workload in named.items():
            values = [v["value"] for v in per_workload.values()]
            unit = next(iter(per_workload.values()))["unit"]
            if metric == "setup_s":
                value = sum(values)  # a user who runs all three pays every set-up
            elif metric == "peak_rss_mb":
                value = max(values)
            else:
                (value,) = values
            metrics[metric] = {"value": value, "unit": unit}
        for metric, m in metrics.items():
            print(f"{metric:24s} {m['value']:12.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graypool" / "cli.py").is_file():
        print(f"bench: no graypool sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
