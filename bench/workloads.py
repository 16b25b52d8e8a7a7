"""The benchmark's three workloads: design, sweep and readout.

Each workload is a closed loop with one caller. Its end-to-end path goes
through ``graypool.cli.main(argv)``, called in-process, plus the library
calls a lab script would make. Those calls go through the names
``graypool.cli`` imports (``cli.load_code``, ``cli.PoolDecoder``), so the
traced run sees them the same way it sees the CLI's own calls. Set-up and
the output checks use the library directly and are never traced.

A workload builds its inputs from the workload seed alone. ``run_pass``
runs the workload's fixed operation list once, checks every output and
returns the time of each call and a ``repeat`` record. Passes of one run
repeat the same operations, so every pass's ``repeat`` record must come
out identical. ``summarize`` turns the untraced passes into the
workload's named metrics; ``GATED`` says which of them stand for the
benchmark's ``pass_s``, ``op_p50_us`` and ``op_tail_us``.

Every time is taken together with the host-speed probe readings around
it and reported in units of the probe's time (see ``hostspeed``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from array import array
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter_ns

from hostspeed import SPEED

from graypool import cli, rcbba, save_code
from graypool.codes import code_from_json_dict, length_bound, load_code
from graypool.simulate import CSV_COLUMNS, simulate_sweep, sweep_to_csv
from graypool.validate import validate

# rcbba succeeds on every code that sweep and readout build, smoke sizes
# included, for seeds 0..199; their seeds are drawn from this range so
# that no operation fails.
VERIFIED_SEEDS = 200


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def run_cli(argv: list[str], log=None) -> tuple[int, tuple[int, float], str, str]:
    """Call ``graypool.cli.main`` in-process.

    Returns the exit code, the call's time as (nanoseconds, local probe
    reading), and its stdout and stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    before = SPEED.read()
    span = log.begin("cli." + argv[0]) if log else None
    start = perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    ns = perf_counter_ns() - start
    if log:
        log.finish(span)
    return rc, (ns, (before + SPEED.read()) / 2), out.getvalue(), err.getvalue()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def call_times(passes: list[dict], kinds: list | None = None) -> list[float]:
    """Each call's scaled time in nanoseconds: the median over all calls of its kind.

    Call ``i`` of a pass is the same operation in every pass, so its kind
    spans the passes; by default every call is a kind of its own. Calls of
    one kind do the same work.
    """
    samples: dict = {}
    kinds = kinds or range(len(passes[0]["calls"]))
    for p in passes:
        for kind, (ns, local) in zip(kinds, p["calls"]):
            samples.setdefault(kind, []).append(SPEED.scale(ns, local))
    median = {kind: statistics.median(values) for kind, values in samples.items()}
    return [median[kind] for kind in kinds]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _valid_code(obj: dict, n: int) -> bool:
    code = code_from_json_dict(obj)
    return code.n == n and validate(code).is_valid


@dataclass(frozen=True)
class Job:
    """One design job: a CLI construct (validated per format) or oracle call."""

    name: str
    argv: tuple[str, ...]
    formats: tuple[str, ...]
    n: int
    r: int
    near_bound: bool = False


class Design:
    """Experiment design: construct -> validate over a fixed job list.

    The long rcbba codes, the bba grid and the maximal codes keep seed 0:
    over seeds their search cost is heavy-tailed (rcbba (18,6,10000) takes
    0.12-0.39 s, bba (14,4,950) up to 6 s, and maximal (8,3) can exhaust its
    budget), which would swamp the timings. The near-bound rcbba jobs draw
    their seeds from the workload seed and run on a small budget. Most end
    in exit 2, the expected outcome there, which shows the heavy tail as
    failures; many small jobs keep their total time steady over seeds.
    """

    name = "design"
    GATED = {"pass_s": "design_s", "op_p50_us": "design_call_p50_us",
             "op_tail_us": "design_call_p90_us"}
    hits = (
        "rcbba_detailed",
        "bba",
        "build_maximal",
        "exhaustive_max",
        "exhaustive_best_balance",
        "validate",
        "load_code",
        "save_code",
    )

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = random.Random(f"design:{seed}")
        self.workdir = workdir
        if smoke:
            long_codes, grid, maximal = ((10, 3, 60),), ((8, 2, 20), (10, 3, 40)), ((5, 2),)
            oracle_max, node_limit, balance = (5, 2), 2000, (5, 2, 6)
            near_seeds, near_budget = 1, 2000
        else:
            long_codes = ((18, 6, 3000), (18, 6, 10000), (20, 6, 8000), (16, 5, 2000))
            grid = tuple(
                (m, r, n)
                for m in (10, 12, 14)
                for r in (2, 3, 4)
                for n in (150, 350, 550, 750, 950)
                if n <= length_bound(m, r)
            )
            maximal = ((9, 2), (8, 3))
            oracle_max, node_limit, balance = (7, 3), 10**5, (7, 2, 18)
            near_seeds, near_budget = 12, 2 * 10**4
        jobs = []
        for m, r, n in long_codes:
            argv = _construct("rcbba", m, r, n, 0)
            jobs.append(Job(f"rcbba-{m}-{r}-{n}", argv, ("json", "csv"), n, r))
        for m, r, n in grid:
            argv = _construct("bba", m, r, n, 0) + ("--budget", str(10**7))
            jobs.append(Job(f"bba-{m}-{r}-{n}", argv, ("json",), n, r))
        for m, r in maximal:
            argv = ("construct", "--alg", "maximal", "--m", str(m), "--r", str(r))
            jobs.append(Job(f"maximal-{m}-{r}", argv, ("json",), length_bound(m, r), r))
        m, r = oracle_max
        argv = ("oracle", "max", "--m", str(m), "--r", str(r), "--node-limit", str(node_limit))
        jobs.append(Job(f"oracle-max-{m}-{r}", argv, (), length_bound(m, r), r))
        m, r, n = balance
        argv = ("oracle", "balance", "--m", str(m), "--r", str(r), "--n", str(n))
        jobs.append(Job(f"oracle-balance-{m}-{r}-{n}", argv, (), n, r))
        for _ in range(near_seeds):
            for m, r, n in ((14, 3, 350), (14, 4, 950)):
                s = rng.randrange(10**6)
                argv = _construct("rcbba", m, r, n, s) + ("--budget", str(near_budget))
                jobs.append(Job(f"near-{m}-{r}-{n}-s{s}", argv, ("json",), n, r, near_bound=True))
        self.jobs = jobs
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, tally: Tally, log=None) -> dict:
        calls, deviations, failing = [], [], []
        digests: dict[str, str] = {}
        nodes = 0
        for job_id, job in enumerate(self.jobs):
            if log:
                log.job_id = job_id
            if not job.formats:
                rc, t, out, err = run_cli(list(job.argv), log)
                calls.append((t, job.near_bound))
                nodes += self._check_oracle(job, rc, out, err, tally)
                continue
            for fmt in job.formats:
                path = self.workdir / f"{job.name}.{fmt}"
                rc, t, _, err = run_cli([*job.argv, "--out", str(path)], log)
                calls.append((t, job.near_bound))
                if job.near_bound and rc == 2 and "(budget-exhausted)" in err:
                    tally.check(True, job.name)
                    failing.append(job.name)
                    break
                if not tally.check(rc == 0, f"{job.name}: construct exited {rc}: {err.strip()}"):
                    break
                manifest = json.loads(Path(f"{path}.manifest.json").read_text())
                digests[path.name] = manifest["output_sha256"]
                tally.check(
                    manifest["output_sha256"] == _sha256(path), f"{path.name}: manifest digest"
                )
                rc, t, out, err = run_cli(["validate", str(path)], log)
                calls.append((t, job.near_bound))
                report = json.loads(out) if rc in (0, 1) else {}
                ok = (
                    rc == 0
                    and report["is_valid"]
                    and sum(report["balance"]) == job.n * job.r
                )
                tally.check(ok, f"{path.name}: validate exited {rc} {err.strip()}")
                if ok and fmt == "json":
                    deviations.append(report["deviation"])
        self.digests = digests
        constructions = sum(1 for job in self.jobs if job.formats)
        return {
            "calls": [t for t, _ in calls],
            "near": [near for _, near in calls],
            "deviations": deviations,
            "fail_ratio": len(failing) / constructions,
            "repeat": {"digests": digests, "failing": failing, "oracle_max_nodes": nodes},
        }

    def _check_oracle(self, job: Job, rc: int, out: str, err: str, tally: Tally) -> int:
        if not tally.check(rc == 0, f"{job.name}: exited {rc}: {err.strip()}"):
            return 0
        obj = json.loads(out)
        if job.argv[1] == "max":
            ok = obj["max_length"] <= job.n and _valid_code(obj["witness"], obj["max_length"])
            tally.check(ok, f"{job.name}: witness")
            return obj["search_nodes"]
        tally.check(_valid_code(obj, job.n), f"{job.name}: code")
        return 0

    def final_checks(self, tally: Tally) -> None:
        """Run the first construct job again and compare the manifest digests."""
        job = self.jobs[0]
        path = self.workdir / f"again-{job.name}.json"
        rc, _, _, err = run_cli([*job.argv, "--out", str(path)])
        if tally.check(rc == 0, f"{job.name}: rerun exited {rc}: {err.strip()}"):
            manifest = json.loads(Path(f"{path}.manifest.json").read_text())
            tally.check(
                manifest["output_sha256"] == self.digests[f"{job.name}.json"],
                f"{job.name}: rerun digest differs",
            )

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        best = call_times(passes)
        # Near-bound calls are left out of the percentiles: their cost depends
        # on the drawn seeds, and they are seen in design_s and the fail ratio.
        # The other calls of all passes are pooled, about 44 a pass, so the
        # p90 has at least 10 calls beyond it from the third pass on.
        fixed = [
            SPEED.scale(*t) / 1e3
            for p in passes
            for t, near in zip(p["calls"], p["near"])
            if not near
        ]
        deviations = passes[0]["deviations"]
        samples = len(best) * len(passes)
        named = {
            "design_s": (sum(best) / 1e9, "s", samples),
            "design_call_p50_us": (percentile(fixed, 0.5), "us", len(fixed)),
            "design_call_p90_us": (percentile(fixed, 0.9), "us", len(fixed)),
            "design_fail_ratio": (passes[0]["fail_ratio"], "share", len(passes)),
            "design_deviation_mean": (
                statistics.mean(deviations) if deviations else 0.0,
                "pools",
                len(deviations),
            ),
        }
        return named


def _construct(alg: str, m: int, r: int, n: int, seed: int) -> tuple[str, ...]:
    return (
        "construct", "--alg", alg, "--m", str(m), "--r", str(r), "--n", str(n), "--seed", str(seed)
    )


class Sweep:
    """Error-injection study: CLI simulate on codes built in set-up.

    Both error types run in exhaustive mode (e<=1) on the short code and in
    sampled mode (e<=2) on the long one, so per-trial cost is seen at two
    code sizes. Nothing is constructed in the timed region.
    """

    name = "sweep"
    GATED = {"pass_s": "sweep_s", "op_p50_us": "sweep_exhaustive_us_per_trial",
             "op_tail_us": "sweep_sampled_us_per_trial"}
    hits = ("load_code", "simulate_sweep")

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = random.Random(f"sweep:{seed}")
        self.workdir = workdir
        self.m, self.r = 18, 6
        self.sizes = (40, 80) if smoke else (1000, 3000)
        self.samples = 20 if smoke else 300
        self.code_seeds = [rng.randrange(VERIFIED_SEEDS) for _ in self.sizes]
        self.sim_seed = rng.randrange(10**6)
        small, large = (workdir / f"code-{n}.json" for n in self.sizes)
        self.calls = []
        for error_type in ("false-negative", "false-positive"):
            for mode, path, n, max_errors in (
                ("exhaustive", small, self.sizes[0], 1),
                ("sampled", large, self.sizes[1], 2),
            ):
                argv = [
                    "simulate", "--code", str(path), "--max-errors", str(max_errors),
                    "--mode", mode, "--error-type", error_type,
                ]
                if mode == "sampled":
                    argv += ["--samples", str(self.samples), "--seed", str(self.sim_seed)]
                out = workdir / f"sweep-{error_type}-{mode}.csv"
                argv += ["--out", str(out)]
                self.calls.append((error_type, mode, path, n, max_errors, argv, out))

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for n, s in zip(self.sizes, self.code_seeds):
            save_code(rcbba(self.m, self.r, n, seed=s), self.workdir / f"code-{n}.json")

    def _expected_trials(self, error_type: str, mode: str, n: int, e: int) -> int:
        if mode == "sampled":
            return self.samples
        flippable = self.r + 1 if error_type == "false-negative" else self.m - self.r - 1
        return (n - 1) * comb(flippable, e)

    def run_pass(self, tally: Tally, log=None) -> dict:
        calls, digests = [], []
        for job_id, (error_type, mode, _, n, max_errors, argv, out) in enumerate(self.calls):
            if log:
                log.job_id = job_id
            rc, t, _, err = run_cli(argv, log)
            what = f"simulate {error_type} {mode}"
            if not tally.check(rc == 0, f"{what}: exited {rc}: {err.strip()}"):
                continue
            text = out.read_text()
            lines = text.splitlines()
            rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
            ok = (
                lines[0] == ",".join(CSV_COLUMNS)
                and [int(row["e"]) for row in rows] == list(range(max_errors + 1))
                and all(int(row["n"]) == n for row in rows)
                and all(
                    int(row["trials"]) == self._expected_trials(error_type, mode, n, int(row["e"]))
                    for row in rows
                )
                and float(rows[0]["mean_candidates"]) == 2.0
            )
            tally.check(ok, f"{what}: unexpected records {rows}")
            trials = sum(int(row["trials"]) for row in rows)
            calls.append((error_type, mode, t, trials))
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        return {
            "calls": [t for _, _, t, _ in calls],
            "labels": [(error_type, mode, trials) for error_type, mode, _, trials in calls],
            "repeat": {"trials": [trials for *_, trials in calls], "digests": digests},
        }

    def final_checks(self, tally: Tally) -> None:
        """CLI output must equal sweep_to_csv(simulate_sweep(...)) for the same arguments."""
        for error_type, mode, path, _, max_errors, _, out in self.calls:
            if mode != "sampled":
                continue
            records = simulate_sweep(
                load_code(path), max_errors, mode=mode, samples=self.samples,
                seed=self.sim_seed, error_type=error_type,
            )
            tally.check(
                sweep_to_csv(records) == out.read_text(),
                f"simulate {error_type} {mode}: CLI output differs from the library",
            )

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        """Trials are timed in fixed batches: the simulate calls of one error type or one mode."""
        best = call_times(passes)
        calls = [(error_type, mode, trials, ns)
                 for (error_type, mode, trials), ns in zip(passes[0]["labels"], best)]
        named = {"sweep_s": (sum(best) / 1e9, "s", len(best) * len(passes))}
        for error_type, key in (("false-negative", "fn"), ("false-positive", "fp")):
            trials = sum(c[2] for c in calls if c[0] == error_type)
            ns = sum(c[3] for c in calls if c[0] == error_type)
            named[f"sweep_{key}_trials_per_s"] = (
                trials / (ns / 1e9), "trials/s", trials * len(passes)
            )
        for mode in ("exhaustive", "sampled"):
            trials = sum(c[2] for c in calls if c[1] == mode)
            ns = sum(c[3] for c in calls if c[1] == mode)
            named[f"sweep_{mode}_us_per_trial"] = (ns / 1e3 / trials, "us", trials * len(passes))
        return named


class Readout:
    """Reading out experiments against a long code.

    Part (a) is a batch of one-shot CLI ``decode --code <file>`` calls, one
    in five against the CSV file, plus one ``partition`` call. Part (b)
    feeds one PoolDecoder a seeded outcome stream: exactly 97.4% error-free
    pairs, 0.6% singles and 2% pairs with one or two false-negative or
    false-positive pools, in seeded order. The slow outcomes are 2.6% of the stream, so the
    median sits inside the exact outcomes and the 99th percentile well
    inside the slow ones.
    """

    name = "readout"
    SLICE = 1000  # outcomes timed between two host-speed readings
    GATED = {"pass_s": "readout_cli_s", "op_p50_us": "readout_decode_p50_us",
             "op_tail_us": "readout_decode_p99_us"}
    hits = ("load_code", "PoolDecoder", "partition_items")
    SINGLE_SHARE, FN_SHARE, FP_SHARE = 0.006, 0.01, 0.01

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = random.Random(f"readout:{seed}")
        self.workdir = workdir
        self.m, self.r, self.n = 18, 6, 100 if smoke else 3000
        self.stream_len = 2000 if smoke else 100_000
        self.cli_calls = 10 if smoke else 100
        self.code_seed = rng.randrange(VERIFIED_SEEDS)
        self.stream_seed = rng.randrange(2**32)
        self.json_path = workdir / "code.json"
        self.csv_path = workdir / "code.csv"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        code = rcbba(self.m, self.r, self.n, seed=self.code_seed)
        save_code(code, self.json_path)
        save_code(code, self.csv_path)
        self.stream = []  # let the previous set-up's stream go before building this one
        self.stream = self._stream(code.bitmasks(), random.Random(self.stream_seed))
        self.cli_argv, self.cli_kinds = [], []
        for i, (mask, _, _) in enumerate(self.stream[: self.cli_calls]):
            path = self.csv_path if i % 5 == 4 else self.json_path
            positives = ",".join(str(b + 1) for b in range(self.m) if mask >> b & 1)
            self.cli_argv.append(["decode", "--code", str(path), "--positives", positives])
            self.cli_kinds.append(path.suffix)
        self.cli_kinds.append("partition")

    def _stream(self, masks, rng: random.Random) -> list[tuple[int, str, int]]:
        """(observed mask, kind, true item or pair start) per outcome.

        The shares of each kind are exact, so that the percentiles do not
        move with the seed; only the order and the outcomes are drawn.
        """
        full = (1 << self.m) - 1
        kinds = []
        for kind, share in (
            ("single", self.SINGLE_SHARE), ("fn", self.FN_SHARE), ("fp", self.FP_SHARE)
        ):
            kinds += [kind] * round(share * self.stream_len)
        kinds += ["exact"] * (self.stream_len - len(kinds))
        rng.shuffle(kinds)
        out = []
        for kind in kinds:
            if kind == "single":
                j = rng.randrange(len(masks))
                out.append((masks[j], kind, j + 1))
                continue
            j = rng.randrange(len(masks) - 1)
            mask = union = masks[j] | masks[j + 1]
            if kind == "fn":
                for bit in rng.sample(_bits(union), rng.randint(1, 2)):
                    mask ^= bit
            elif kind == "fp":
                for bit in rng.sample(_bits(full & ~union), rng.randint(1, 2)):
                    mask |= bit
            out.append((mask, kind, j + 1))
        return out

    def run_pass(self, tally: Tally, log=None) -> dict:
        cli_times, outputs = [], hashlib.sha256()
        for job_id, ((_, kind, truth), argv) in enumerate(zip(self.stream, self.cli_argv)):
            if log:
                log.job_id = job_id
            rc, t, out, err = run_cli(argv, log)
            cli_times.append(t)
            if tally.check(rc == 0, f"decode {argv[-1]}: exited {rc}: {err.strip()}"):
                result = json.loads(out)
                ok = _decoded(
                    kind, truth, result["status"], result["pair"], result["single"],
                    result["candidate_pairs"],
                )
                tally.check(ok, f"decode {argv[-1]} ({kind} {truth}): {result}")
                outputs.update(out.encode())
        if log:
            log.job_id = len(self.cli_argv)
        rc, t, out, err = run_cli(["partition", "--n-items", str(self.n), "--d", "4"], log)
        cli_times.append(t)
        if tally.check(rc == 0, f"partition: exited {rc}: {err.strip()}"):
            groups = json.loads(out)
            ends = [g[0] for g in groups[1:]] == [g[1] + 1 for g in groups[:-1]]
            ok = (
                ends
                and groups[0][0] == 1
                and groups[-1][1] == self.n
                and all(b - a < 3 for a, b in groups)
            )
            tally.check(ok, f"partition: groups {groups[:3]}...")
            outputs.update(out.encode())

        if log:
            log.job_id = len(self.cli_argv) + 1
        decoder = cli.PoolDecoder(cli.load_code(self.json_path))
        decode_mask = decoder.decode_mask
        relative = array("d")  # each outcome's decode time over the local probe reading
        statuses: dict[str, int] = {}
        pairs_total = items_total = bad = 0
        reading = SPEED.read()
        for i in range(0, len(self.stream), self.SLICE):
            latencies = []
            for mask, kind, truth in self.stream[i : i + self.SLICE]:
                start = perf_counter_ns()
                result = decode_mask(mask)
                latencies.append(perf_counter_ns() - start)
                statuses[result.status] = statuses.get(result.status, 0) + 1
                pairs_total += len(result.candidate_pairs)
                items_total += len(result.candidate_items)
                if not _decoded(
                    kind, truth, result.status, result.pair, result.single, result.candidate_pairs
                ):
                    bad += 1
                    tally.check(False, f"stream outcome {mask:#x} ({kind} {truth}): {result}")
            after = SPEED.read()
            local = (reading + after) / 2
            relative.extend(ns / local for ns in latencies)
            reading = after
        tally.attempted += len(self.stream) - bad
        return {
            "calls": cli_times,
            "decode": (percentile(relative, 0.5), percentile(relative, 0.99)),
            "outcomes": len(relative),
            "repeat": {
                "statuses": dict(sorted(statuses.items())),
                "candidate_pairs": pairs_total,
                "candidate_items": items_total,
                "cli_outputs": outputs.hexdigest(),
            },
        }

    def final_checks(self, tally: Tally) -> None:
        pass

    def summarize(self, passes: list[dict]) -> dict:
        """CLI calls are timed per kind: JSON decode, CSV decode and partition.

        Calls of one kind differ only in the outcome they decode, which
        costs microseconds against milliseconds for loading the code. The
        decode percentiles are each pass's own, and the median over passes
        is reported.
        """
        best = call_times(passes, self.cli_kinds)
        decode_ms = [ns / 1e6 for ns in best[:-1]]  # the last call is partition
        outcomes = sum(p["outcomes"] for p in passes)
        named = {"readout_cli_s": (sum(best) / 1e9, "s", len(best) * len(passes))}
        for i, name in enumerate(("readout_decode_p50_us", "readout_decode_p99_us")):
            relative = statistics.median(p["decode"][i] for p in passes)
            named[name] = (SPEED.scale(relative, 1) / 1e3, "us", outcomes)
        calls = len(decode_ms) * len(passes)
        named["readout_cli_p50_ms"] = (percentile(decode_ms, 0.5), "ms", calls)
        named["readout_cli_p90_ms"] = (percentile(decode_ms, 0.9), "ms", calls)
        return named


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _decoded(kind, truth, status, pair, single, candidate_pairs) -> bool:
    """An error-free outcome decodes to its pair or item; an erroneous one keeps its pair."""
    if kind == "exact":
        return status == "exact-pair" and tuple(pair) == (truth, truth + 1)
    if kind == "single":
        return status in ("exact-single", "ambiguous") and single == truth
    return truth in candidate_pairs


WORKLOADS = {w.name: w for w in (Design, Sweep, Readout)}
