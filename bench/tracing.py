"""Spans and per-layer metrics for the traced benchmark run.

While a traced pass runs, the library names that ``graypool.cli`` looks up
(``cli.bba``, ``cli.load_code``, ...) are replaced by timing wrappers. Each
wrapped call records one span: name, start, end, parent span and job id.
The benchmark's own library calls go through the same ``cli`` names, so
the lab-script part of a workload is traced the same way. Nothing in the
library changes; the original names are restored after every traced pass.

Node visits of ``bba`` and ``rcbba`` are not visible from outside the
library, so they are not reported; ``oracle.max.nodes`` comes from the
exact ``search_nodes`` count the oracle returns.
"""

from __future__ import annotations

import os
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

# The names graypool.cli calls that the traced run wraps, with the span
# label of each; simulate spans add ".<error type>.<mode>".
LABELS = {
    "rcbba_detailed": "recombine.rcbba",
    "bba": "bba",
    "build_maximal": "recombine.build_maximal",
    "exhaustive_max": "oracle.max",
    "exhaustive_best_balance": "oracle.balance",
    "validate": "validate",
    "load_code": "codes.load",
    "save_code": "codes.save",
    "PoolDecoder": "decode.build",
    "simulate_sweep": "simulate",
    "partition_items": "partition",
}

CLI_SUBCOMMANDS = ("construct", "validate", "decode", "simulate", "oracle", "partition")
SIM_KINDS = tuple(
    f"simulate.{et}.{mode}" for et in ("fn", "fp") for mode in ("exhaustive", "sampled")
)
DECODE_PATHS = ("decode.exact", "decode.fn", "decode.fp")

# Every per-layer metric, with its unit and which direction is better. The
# list in BENCHMARK.json is checked against this one by the smoke test.
LAYER_METRICS = (
    [("bba.calls", "count", "lower"), ("bba.fail", "count", "lower"), ("bba.s", "s", "lower")]
    + [
        ("recombine.rcbba.calls", "count", "lower"),
        ("recombine.rcbba.fail", "count", "lower"),
        ("recombine.rcbba.s", "s", "lower"),
        ("recombine.build_maximal.calls", "count", "lower"),
        ("recombine.build_maximal.s", "s", "lower"),
        ("oracle.max.calls", "count", "lower"),
        ("oracle.max.s", "s", "lower"),
        ("oracle.max.nodes", "count", "lower"),
        ("oracle.balance.calls", "count", "lower"),
        ("oracle.balance.s", "s", "lower"),
    ]
    + [
        (f"codes.{op}.{field}", unit, "lower")
        for op in ("load", "save")
        for field, unit in (("calls", "count"), ("s", "s"), ("bytes", "B"))
    ]
    + [
        ("validate.calls", "count", "lower"),
        ("validate.s", "s", "lower"),
        ("validate.addresses", "count", "higher"),
        ("decode.build.s", "s", "lower"),
        ("decode.exact.calls", "count", "lower"),
        ("decode.exact.p50_us", "us", "lower"),
    ]
    + [
        (f"{path}.{field}", unit, "lower")
        for path in DECODE_PATHS[1:]
        for field, unit in (("calls", "count"), ("p50_us", "us"), ("candidates_mean", "count"))
    ]
    + [
        (f"{kind}.{field}", unit, better)
        for kind in SIM_KINDS
        for field, unit, better in (
            ("calls", "count", "lower"),
            ("s", "s", "lower"),
            ("trials", "count", "higher"),
            ("us_per_trial", "us", "lower"),
        )
    ]
    + [
        (f"cli.{sub}.{field}", unit, "lower")
        for sub in CLI_SUBCOMMANDS
        for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
    ]
    + [("trace.overhead", "ratio", "lower")]
)

# Metrics that must repeat exactly from one traced pass to the next.
EXACT_UNITS = ("count", "B")


class SpanLog:
    """Spans kept in memory as parallel arrays; ``stack`` holds the open ones."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.job = array("l")
        self.stack: list[int] = []
        self.job_id = -1

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int, name: str | None = None) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()
        if name is not None:
            self.name[i] = self._id(name)

    def durations(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for n, s, e in zip(self.name, self.start, self.end):
            out[self.names[n]].append(e - s)
        return out

    def self_ns(self) -> dict[str, int]:
        """Per span name, its total duration minus the time its direct children cover."""
        child = defaultdict(int)
        for s, e, p in zip(self.start, self.end, self.parent):
            if p >= 0:
                child[p] += e - s
        out: dict[str, int] = defaultdict(int)
        for i, (n, s, e) in enumerate(zip(self.name, self.start, self.end)):
            out[self.names[n]] += e - s - child[i]
        return out


class Tracer:
    """Installs the wrappers on the ``cli`` module for one traced pass at a time."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.log = SpanLog()
        self.counts: dict[str, int] = defaultdict(int)
        self._originals = {name: getattr(cli_module, name) for name in LABELS}

    def install(self) -> None:
        self.log = SpanLog()
        self.counts = defaultdict(int)
        for name, fn in self._originals.items():
            setattr(self.cli, name, self._wrapper(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(self.cli, name, fn)

    def _wrapper(self, name, fn):
        log, counts = self.log, self.counts
        span_name = LABELS[name]

        def wrapped(*args, **kwargs):
            if name == "simulate_sweep":
                et = "fn" if kwargs["error_type"] == "false-negative" else "fp"
                label = f"simulate.{et}.{kwargs['mode']}"
            else:
                label = span_name
            i = log.begin(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.finish(i)
                counts[label + ".fail"] += 1
                raise
            log.finish(i)
            if name == "exhaustive_max":
                counts["oracle.max.nodes"] += result.search_nodes
            elif name == "validate":
                counts["validate.addresses"] += args[0].n
            elif name == "load_code":
                counts["codes.load.bytes"] += os.path.getsize(args[0])
            elif name == "save_code":
                counts["codes.save.bytes"] += os.path.getsize(args[1])
            elif name == "simulate_sweep":
                counts[label + ".trials"] += sum(rec.trials for rec in result)
            elif name == "PoolDecoder":
                self._wrap_decoder(result)
            return result

        return wrapped

    def _wrap_decoder(self, decoder) -> None:
        # The instance attribute shadows the method, so PoolDecoder.decode's
        # own call to self.decode_mask is traced exactly once as well.
        log, counts, r = self.log, self.counts, decoder.r
        decode_mask = decoder.decode_mask

        def traced_decode_mask(pmask, allow_single=True):
            i = log.begin("decode")
            result = decode_mask(pmask, allow_single)
            if result.status == "exact-pair":
                path = "decode.exact"
            elif pmask.bit_count() <= r:
                path = "decode.fn"
            else:
                path = "decode.fp"
            log.finish(i, path)
            counts[path + ".candidates"] += len(result.candidate_items)
            return result

        decoder.decode_mask = traced_decode_mask

    def expect_hit(self, names) -> None:
        """Fail loudly when a wrapped name the workload must reach was never called."""
        hit = set(self.log.names)
        missing = [
            name
            for name in names
            if not any(n == LABELS[name] or n.startswith(LABELS[name] + ".") for n in hit)
        ]
        if missing:
            raise RuntimeError(f"traced pass never called cli.{', cli.'.join(missing)}")

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass that just ran."""
        durations = self.log.durations()
        self_ns = self.log.self_ns()
        counts = self.counts
        out: dict[str, float] = {}

        def seconds(label):
            return sum(durations.get(label, ())) / 1e9

        for label in (
            "bba",
            "recombine.rcbba",
            "recombine.build_maximal",
            "oracle.max",
            "oracle.balance",
            "codes.load",
            "codes.save",
            "validate",
        ):
            out[f"{label}.calls"] = len(durations.get(label, ()))
            out[f"{label}.s"] = seconds(label)
        out["bba.fail"] = counts["bba.fail"]
        out["recombine.rcbba.fail"] = counts["recombine.rcbba.fail"]
        out["oracle.max.nodes"] = counts["oracle.max.nodes"]
        out["codes.load.bytes"] = counts["codes.load.bytes"]
        out["codes.save.bytes"] = counts["codes.save.bytes"]
        out["validate.addresses"] = counts["validate.addresses"]
        out["decode.build.s"] = seconds("decode.build")
        for path in DECODE_PATHS:
            samples = durations.get(path, ())
            out[f"{path}.calls"] = len(samples)
            out[f"{path}.p50_us"] = statistics.median(samples) / 1e3 if samples else 0.0
            if path != "decode.exact":
                out[f"{path}.candidates_mean"] = (
                    counts[path + ".candidates"] / len(samples) if samples else 0.0
                )
        for kind in SIM_KINDS:
            trials = counts[kind + ".trials"]
            out[f"{kind}.calls"] = len(durations.get(kind, ()))
            out[f"{kind}.s"] = seconds(kind)
            out[f"{kind}.trials"] = trials
            out[f"{kind}.us_per_trial"] = seconds(kind) * 1e6 / trials if trials else 0.0
        for sub in CLI_SUBCOMMANDS:
            label = f"cli.{sub}"
            out[f"{label}.calls"] = len(durations.get(label, ()))
            out[f"{label}.s"] = seconds(label)
            out[f"{label}.self_s"] = self_ns.get(label, 0) / 1e9
        return out


def combine_passes(per_pass: list[dict[str, float]], mismatches: list[str]) -> dict[str, float]:
    """Exact metrics must agree across traced passes; timings take the median."""
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if units[name] in EXACT_UNITS:
            if len(set(values)) != 1:
                mismatches.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
