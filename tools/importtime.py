"""Start-up cost of one-shot graypool processes, measured in fresh interpreters.

    python3 tools/importtime.py [--parent OTHER/src] [--runs 15]

Builds an (18, 6, 3000) rcbba code, seed 0, with the ``src/`` next to this
file and saves it as JSON. Then, ``--runs`` times, each ``src/`` in turn
(this one and, with ``--parent``, another checkout's, in alternating order)
gets two fresh interpreters: one times ``import graypool.cli`` from inside,
the other is a one-shot ``python -m graypool decode`` on the saved code,
timed from outside as the whole process. Prints the median and quartiles of
each, in ms, and after them, for each subcommand, the ``graypool.*`` modules
that a fresh process running it loaded. The bytecode cache is used as the
environment sets it: under ``PYTHONDONTWRITEBYTECODE=1`` with no cache
written, every run compiles the modules it loads. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import graypool.cli; "
    "print(time.perf_counter() - t)"
)

# Runs ``python -m graypool <argv>`` and prints the graypool modules it loaded.
MODULES_PROBE = """
import runpy, sys
sys.argv[0] = "graypool"
try:
    runpy.run_module("graypool", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(" ".join(sorted(m[9:] for m in sys.modules if m.startswith("graypool."))))
"""


def subcommands(code: str, positives: str) -> dict[str, list[str]]:
    return {
        "bound": ["bound", "--m", "18", "--r", "6"],
        "construct --alg bba": ["construct", "--alg", "bba", "--m", "8", "--r", "3", "--n", "30"],
        "construct --alg rcbba": [
            "construct", "--alg", "rcbba", "--m", "8", "--r", "3", "--n", "30"
        ],
        "construct --alg maximal": ["construct", "--alg", "maximal", "--m", "5", "--r", "2"],
        "validate": ["validate", code],
        "decode": ["decode", "--code", code, "--positives", positives],
        "simulate": ["simulate", "--code", code, "--max-errors", "1", "--mode", "sampled",
                     "--samples", "20"],
        "oracle max": ["oracle", "max", "--m", "4", "--r", "2"],
        "partition": ["partition", "--n-items", "20", "--d", "3"],
    }


def run(src: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=True, timeout=120
    )


def decode_seconds(src: Path, code: str, positives: str) -> float:
    start = time.perf_counter()
    run(src, ["-m", "graypool", "decode", "--code", code, "--positives", positives])
    return time.perf_counter() - start


def summary(seconds: list[float]) -> str:
    q1, q2, q3 = (1000 * q for q in statistics.quantiles(seconds, n=4))
    return f"median {q2:6.1f} ms  quartiles {q1:6.1f} .. {q3:6.1f} ms"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, help="another checkout's src/ directory to compare")
    p.add_argument("--runs", type=int, default=15, help="fresh-interpreter runs of each probe")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    srcs = {"this": SRC}
    if args.parent is not None:
        if not (args.parent / "graypool" / "cli.py").is_file():
            p.error(f"{args.parent} holds no graypool/cli.py")
        srcs["parent"] = args.parent.resolve()

    sys.path.insert(0, str(SRC))
    from graypool import rcbba, save_code
    from graypool.codes import indices_from_mask

    with tempfile.TemporaryDirectory() as tmp:
        code = rcbba(18, 6, 3000, seed=0)
        path = str(Path(tmp) / "code-18-6-3000.json")
        save_code(code, path)
        positives = ",".join(map(str, indices_from_mask(code.masks[0] | code.masks[1])))

        imports = {name: [] for name in srcs}
        decodes = {name: [] for name in srcs}
        for i in range(args.runs):
            order = list(srcs.items())
            for name, src in order if i % 2 == 0 else order[::-1]:
                imports[name].append(float(run(src, ["-c", IMPORT_PROBE]).stdout))
                decodes[name].append(decode_seconds(src, path, positives))

        print(f"python {sys.version.split()[0]}, {args.runs} alternating runs per probe")
        for name in srcs:
            print(f"{name:6s} import graypool.cli      {summary(imports[name])}")
            print(f"{name:6s} python -m graypool decode {summary(decodes[name])}")
        print("graypool.* modules a fresh process loads, by subcommand:")
        for label, sub in subcommands(path, positives).items():
            for name, src in srcs.items():
                loaded = run(src, ["-c", MODULES_PROBE, *sub]).stdout.splitlines()[-1]
                print(f"{label:24s} {name:6s} {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
