"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 construction failure,
3 usage or input error. Every file written via --out gets a sidecar
``<file>.manifest.json`` recording the full parameter set and the output
digest, so runs can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .codes import (
    code_to_json, code_to_json_dict, length_bound, load_code, mask_from_indices, save_code
)
from .bba import DEFAULT_BUDGET, bba
from .decode import PoolDecoder, partition_items
from .errors import ConstructionError, NodeLimitError
from .oracle import DEFAULT_NODE_LIMIT, exhaustive_best_balance, exhaustive_max
from .recombine import build_maximal, rcbba_detailed
from .simulate import simulate_sweep, sweep_to_csv
from .validate import validate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _write_manifest(out_path: Path, args: argparse.Namespace, started: float) -> None:
    """Write ``<out_path>.manifest.json``: the subcommand's parsed arguments,
    all but ``--out``, and the output's digest."""
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    manifest = {
        "subcommand": args.command,
        "parameters": params,
        "seed": params.get("seed"),
        "budget": params.get("budget"),
        "version": __version__,
        "duration_seconds": round(time.monotonic() - started, 6),
        "output_path": str(out_path),
        "output_sha256": digest,
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )


def _emit_code(code, args, started, extra=None):
    if args.out is None:
        print(code_to_json(code, extra), end="")
        return
    out_path = Path(args.out)
    save_code(code, out_path, extra=extra)
    _write_manifest(out_path, args, started)


def cmd_bound(args) -> int:
    # Decimal prints an int exactly and, unlike str(int), has no digit limit.
    # It is imported here: importing it costs about 4 ms at every CLI start.
    from decimal import Decimal

    print(Decimal(length_bound(args.m, args.r)))
    return 0


# The optional construct options each algorithm uses, by parsed name; bba
# uses them all, and giving any other is an error.
_TAKES = {
    "bba": ("n", "first_address", "budget", "time_limit"),
    "rcbba": ("n", "budget", "time_limit"),
    "maximal": (),
}


def cmd_construct(args) -> int:
    started = time.monotonic()
    ignored = [
        "--" + dest.replace("_", "-")
        for dest in _TAKES["bba"]
        if getattr(args, dest) is not None and dest not in _TAKES[args.alg]
    ]
    if ignored:
        raise ValueError(f"--alg {args.alg} does not take {', '.join(ignored)}")
    if args.budget is None and args.alg != "maximal":
        args.budget = DEFAULT_BUDGET
    extra = None
    if args.alg == "maximal":
        code = build_maximal(args.m, args.r, seed=args.seed)
    else:
        if args.n is None:
            raise ValueError("--n is required for bba and rcbba")
        if args.alg == "bba":
            first = None
            if args.first_address is not None:
                first = mask_from_indices(_parse_indices(args.first_address), args.m)
            code = bba(
                args.m,
                args.r,
                args.n,
                first,
                seed=args.seed,
                budget=args.budget,
                time_limit=args.time_limit,
            )
        else:
            code, trace = rcbba_detailed(
                args.m,
                args.r,
                args.n,
                seed=args.seed,
                budget=args.budget,
                time_limit=args.time_limit,
            )
            extra = {"provenance": trace.to_json_dict()}
    _emit_code(code, args, started, extra)
    return 0


def cmd_validate(args) -> int:
    code = load_code(args.code)
    report = validate(code)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.is_valid else 1


def cmd_decode(args) -> int:
    code = load_code(args.code)
    decoder = PoolDecoder(code)
    result = decoder.decode(_parse_indices(args.positives), allow_single=not args.no_single)
    print(json.dumps(result.to_json_dict(), indent=2))
    return 0


def cmd_simulate(args) -> int:
    started = time.monotonic()
    code = load_code(args.code)
    records = simulate_sweep(
        code,
        args.max_errors,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        error_type=args.error_type,
    )
    text = sweep_to_csv(records)
    if args.out is None:
        print(text, end="")
        return 0
    out_path = Path(args.out)
    out_path.write_text(text)
    _write_manifest(out_path, args, started)
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "max":
        result = exhaustive_max(args.m, args.r, node_limit=args.node_limit)
        print(
            json.dumps(
                {
                    "max_length": result.max_length,
                    "search_nodes": result.search_nodes,
                    "is_exact": result.is_exact,
                    "witness": code_to_json_dict(result.witness),
                },
                indent=2,
            )
        )
        return 0
    code = exhaustive_best_balance(args.m, args.r, args.n, node_limit=args.node_limit)
    print(code_to_json(code), end="")
    return 0


def cmd_partition(args) -> int:
    groups = partition_items(args.n_items, args.d)
    print(json.dumps([list(g) for g in groups]))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Building it takes about a fifth of a one-shot ``decode`` call on an
    (18, 6, 3000) JSON code, so ``main`` reuses it; callers must not
    change it. Parsing leaves no state on it: each call gets a fresh
    namespace. It is built on first use rather than at import, which would
    slow every start.
    """
    parser = _Parser(
        prog="graypool",
        description="Construct, validate, decode, and stress-test pooling codes.",
    )
    parser.add_argument("--version", action="version", version=f"graypool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print the maximum code length for m pools and weight r")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="construct a code")
    p.add_argument("--alg", choices=["bba", "rcbba", "maximal"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="code length, bba and rcbba")
    p.add_argument("--first-address", default=None, help="comma-separated pool indices, bba only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"node-visit budget, bba and rcbba (default {DEFAULT_BUDGET})",
    )
    p.add_argument(
        "--time-limit", type=float, default=None, help="wall-clock cap in seconds, bba and rcbba"
    )
    p.add_argument("--out", default=None, help="output file (.json or .csv); default stdout JSON")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("validate", help="validate a code file and print the report")
    p.add_argument("code", help="code file (.json or .csv)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decode", help="decode a set of positive pools against a code")
    p.add_argument("--code", required=True)
    p.add_argument("--positives", required=True, help="comma-separated pool indices")
    p.add_argument("--no-single", action="store_true", help="rule out single-positive readings")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="run the error-injection sweep")
    p.add_argument("--code", required=True)
    p.add_argument("--max-errors", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled", "auto"], default="auto")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--error-type", choices=["false-negative", "false-positive"], default="false-negative"
    )
    p.add_argument("--out", default=None, help="output CSV; default stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exhaustive searches for small parameters")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("max", help="exact maximum code length")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("balance", help="exact minimum-deviation code")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    q.set_defaults(func=cmd_oracle)

    p = sub.add_parser("partition", help="group linearly ordered items for pair detection")
    p.add_argument("--n-items", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="maximum consecutive positive span")
    p.set_defaults(func=cmd_partition)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"graypool: construction failed ({exc.kind}): {exc}", file=sys.stderr)
        return 2
    except NodeLimitError as exc:
        print(f"graypool: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, RecursionError) as exc:
        print(f"graypool: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("graypool: error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
