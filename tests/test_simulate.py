import random
import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import INVALID_CODES, small_valid_codes
from graypool import GrayCode, PoolDecoder, bba, rcbba, simulate_sweep, sweep_to_csv
from graypool import simulate
from graypool.cli import main
from graypool.simulate import CSV_COLUMNS, SimSweepRecord, _dropout_count


@pytest.fixture(scope="module")
def medium_code():
    return bba(9, 3, 40, seed=2)


@pytest.fixture(scope="module")
def rcbba_code():
    return rcbba(10, 3, 60, seed=0)


def test_error_free_sweep_pins_two_candidates(code_5_2_10):
    (record,) = simulate_sweep(code_5_2_10, 0)
    assert record.e == 0
    assert record.trials == code_5_2_10.n - 1
    assert record.mean_candidates == 2.0
    assert record.max_candidates == 2
    assert record.fraction_of_n == pytest.approx(0.2)


def test_exhaustive_trial_counts(medium_code):
    records = simulate_sweep(medium_code, 2)
    r = medium_code.r
    for e, record in enumerate(records):
        assert record.e == e
        assert record.trials == (medium_code.n - 1) * comb(r + 1, e)


def test_mean_grows_with_error_level(medium_code):
    records = simulate_sweep(medium_code, 3)
    means = [rec.mean_candidates for rec in records]
    assert means == sorted(means)
    assert all(rec.mean_candidates >= 2 for rec in records)
    assert all(rec.fraction_of_n == rec.mean_candidates / medium_code.n for rec in records)


def test_sampled_mode_is_deterministic(medium_code):
    a = simulate_sweep(medium_code, 2, mode="sampled", samples=300, seed=9)
    b = simulate_sweep(medium_code, 2, mode="sampled", samples=300, seed=9)
    assert a == b
    assert all(rec.trials == 300 for rec in a)


def test_auto_mode_picks_exhaustive_for_small_codes(code_5_2_10):
    records = simulate_sweep(code_5_2_10, 1, mode="auto")
    assert records[1].trials == (code_5_2_10.n - 1) * 3


@pytest.mark.parametrize("error_type", ["false-negative", "false-positive"])
def test_auto_mode_ceiling_is_the_exhaustive_trial_total(code_5_2_10, error_type):
    exhaustive = [rec.trials for rec in simulate_sweep(code_5_2_10, 2, error_type=error_type)]
    total = sum(exhaustive)
    for ceiling, trials in ((total, exhaustive), (total - 1, [7] * 3)):
        with mock.patch.object(simulate, "_AUTO_TRIAL_CEILING", ceiling):
            records = simulate_sweep(code_5_2_10, 2, mode="auto", samples=7, error_type=error_type)
        assert [rec.trials for rec in records] == trials


def test_false_positive_injection(medium_code):
    records = simulate_sweep(medium_code, 1, error_type="false-positive")
    assert records[0].mean_candidates == 2.0
    assert records[1].trials == (medium_code.n - 1) * (medium_code.m - medium_code.r - 1)
    assert records[1].mean_candidates >= 2.0


def test_rejects_silly_parameters(code_5_2_10):
    with pytest.raises(ValueError, match="max_errors must be below r\\+1=3"):
        simulate_sweep(code_5_2_10, 3)  # would drop every positive pool
    with pytest.raises(ValueError, match="max_errors must be at most m-\\(r\\+1\\)=2 "):
        simulate_sweep(code_5_2_10, 3, error_type="false-positive")
    with pytest.raises(ValueError):
        simulate_sweep(code_5_2_10, -1)
    with pytest.raises(ValueError):
        simulate_sweep(code_5_2_10, 1, mode="guess")
    with pytest.raises(ValueError):
        simulate_sweep(code_5_2_10, 1, error_type="bitflip")
    from graypool import GrayCode

    with pytest.raises(ValueError):
        simulate_sweep(GrayCode.from_index_sets(4, 2, [(1, 2)]), 0)
    # The union {1} of a repeated weight-1 address leaves no two pools to
    # knock out, so e=2 would have no trials.
    with pytest.raises(ValueError, match="weight r\\+1=3"):
        simulate_sweep(GrayCode.from_index_sets(5, 2, [(1,), (1,)]), 2)


def test_csv_output(medium_code):
    records = simulate_sweep(medium_code, 1)
    text = sweep_to_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == str(medium_code.n)
    assert first[1] == "0"


def brute_force_sweep(code, max_errors, error_type):
    """Exhaustive sweep records from the definition of the candidate count.

    An error-free outcome pins its pair. After dropouts leave k observed
    pools, an item counts if its address has at most r+1-k pools outside
    them; on a valid code every pair and item the decoder keeps passes this
    test. After extra pools, the items of a pair count if its union lies
    inside the observation.
    """
    m, r = code.m, code.r
    addresses = list(code.bitmasks())
    unions = [a | b for a, b in zip(addresses, addresses[1:])]
    records = []
    for e in range(max_errors + 1):
        counts = []
        for u in unions:
            if error_type == "false-negative":
                flippable = [1 << p for p in range(m) if u >> p & 1]
            else:
                flippable = [1 << p for p in range(m) if not u >> p & 1]
            for flips in combinations(flippable, e):
                observed = u ^ sum(flips)
                if e == 0:
                    counts.append(2)
                elif error_type == "false-negative":
                    budget = r + 1 - observed.bit_count()
                    counts.append(
                        sum((a & ~observed).bit_count() <= budget for a in addresses)
                    )
                else:
                    items = set()
                    for j, v in enumerate(unions, 1):
                        if v & ~observed == 0:
                            items.update((j, j + 1))
                    counts.append(len(items))
        mean = sum(counts) / len(counts)
        records.append(
            SimSweepRecord(code.n, e, len(counts), mean, max(counts), mean / code.n)
        )
    return records


@pytest.mark.parametrize("error_type", ["false-negative", "false-positive"])
def test_sweep_matches_brute_force(medium_code, code_6_2_15, error_type):
    for code in (medium_code, code_6_2_15):
        top = code.r if error_type == "false-negative" else code.m - code.r - 1
        records = simulate_sweep(code, top, mode="exhaustive", error_type=error_type)
        assert records == brute_force_sweep(code, top, error_type)


@pytest.mark.parametrize("error_type", ["false-negative", "false-positive"])
def test_grouped_levels_match_per_trial_levels(medium_code, code_6_2_15, rcbba_code, error_type):
    for code in (medium_code, code_6_2_15, rcbba_code):
        top = code.r if error_type == "false-negative" else code.m - code.r - 1
        records = simulate_sweep(code, top, mode="exhaustive", error_type=error_type)
        # Only levels at most the ceiling are grouped or build a dropout
        # table; a ceiling of 0 sends every level to the per-trial count.
        for ceiling in (0, records[1].trials):
            with (
                mock.patch.object(simulate, "_AUTO_TRIAL_CEILING", ceiling),
                mock.patch.object(
                    simulate, "_grouped_pair_totals", wraps=simulate._grouped_pair_totals
                ) as spy,
                mock.patch.object(
                    simulate, "_dropout_count", wraps=simulate._dropout_count
                ) as table_spy,
            ):
                assert simulate_sweep(code, top, mode="exhaustive", error_type=error_type) == records
            assert [call.args[2] for call in spy.call_args_list] == [
                rec.e
                for rec in records
                if rec.trials <= ceiling and (rec.e == 0 or error_type == "false-positive")
            ]
            assert [call.args[1] for call in table_spy.call_args_list] == [
                rec.e
                for rec in records
                if rec.trials <= ceiling and rec.e >= 1 and error_type == "false-negative"
            ]


def test_grouped_false_positive_levels_with_many_unions_per_outcome(rcbba_code):
    records = simulate_sweep(rcbba_code, 3, mode="exhaustive", error_type="false-positive")
    assert records == brute_force_sweep(rcbba_code, 3, "false-positive")
    # More than four candidates takes at least three unions inside one outcome.
    assert max(rec.max_candidates for rec in records) > 4


def decoded_sweep(code, max_errors, mode, samples, seed, error_type):
    """Sweep records with every pair count taken from the decoder's full
    answer and every dropout count from a scan of the addresses, on the
    outcomes and rng draws of ``simulate_sweep``."""
    decoder = PoolDecoder(code)
    unions = decoder.union_masks
    full = (1 << code.m) - 1
    rng = random.Random(seed)
    records = []
    for e in range(max_errors + 1):
        counts = []
        trials = len(unions) if mode == "exhaustive" else samples
        for t in range(trials):
            u = unions[t] if mode == "exhaustive" else unions[rng.randrange(len(unions))]
            free = u if error_type == "false-negative" else full & ~u
            flippable = [1 << p for p in range(code.m) if free >> p & 1]
            if mode == "exhaustive":
                flip_sets = list(combinations(flippable, e))
            else:
                flip_sets = [rng.sample(flippable, e)]
            for flips in flip_sets:
                pmask = u ^ sum(flips)
                budget = code.r + 1 - pmask.bit_count()
                if budget > 0:
                    counts.append(
                        sum((a & ~pmask).bit_count() <= budget for a in decoder.addr_masks)
                    )
                else:
                    counts.append(len(decoder.decode_mask(pmask, False).candidate_items))
        mean = sum(counts) / len(counts)
        records.append(SimSweepRecord(code.n, e, len(counts), mean, max(counts), mean / code.n))
    return records


@settings(max_examples=200, deadline=None)
@given(
    small_valid_codes(min_length=2),
    st.sampled_from(["false-negative", "false-positive"]),
    st.integers(1, 40),
    st.integers(0, 10**6),
)
def test_counted_sweep_matches_decoded_and_brute_force_sweeps(code, error_type, samples, seed):
    top = code.r if error_type == "false-negative" else code.m - code.r - 1
    exhaustive = simulate_sweep(code, top, mode="exhaustive", error_type=error_type)
    assert exhaustive == brute_force_sweep(code, top, error_type)
    assert exhaustive == decoded_sweep(code, top, "exhaustive", samples, seed, error_type)
    sampled = simulate_sweep(
        code, top, mode="sampled", samples=samples, seed=seed, error_type=error_type
    )
    assert sampled == decoded_sweep(code, top, "sampled", samples, seed, error_type)
    if error_type == "false-negative":
        decoder = PoolDecoder(code)
        for e in range(1, top + 1):
            count = _dropout_count(decoder, e)
            for u in decoder.union_masks:
                for flips in combinations([1 << p for p in range(code.m) if u >> p & 1], e):
                    pmask = u ^ sum(flips)
                    assert count(pmask) == sum(
                        (a & ~pmask).bit_count() <= e for a in decoder.addr_masks
                    )


@pytest.mark.parametrize("m, addresses, requirement", INVALID_CODES)
def test_sweep_rejects_invalid_codes(tmp_path, capsys, m, addresses, requirement):
    message = f"code needs {requirement}"
    code = GrayCode.from_index_sets(m, 2, addresses)
    for error_type in ("false-negative", "false-positive"):
        with pytest.raises(ValueError) as excinfo:
            simulate_sweep(code, 1, error_type=error_type)
        assert str(excinfo.value) == message
    path = tmp_path / "code.json"
    path.write_text(f'{{"m": {m}, "r": 2, "addresses": {[list(a) for a in addresses]}}}')
    assert main(["simulate", "--code", str(path), "--max-errors", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graypool: error: {message}\n"


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_mode_rejects_fewer_than_one_sample(medium_code, samples):
    with pytest.raises(ValueError, match="at least 1 sample"):
        simulate_sweep(medium_code, 1, mode="sampled", samples=samples)
    # Auto mode checks the count only when it picks sampling.
    assert simulate_sweep(medium_code, 1, mode="auto", samples=samples)[1].trials > 0
    # 4 pairs and 18 injectable pools: 4 * 2^18 trials exceed the auto ceiling.
    wide = GrayCode.from_index_sets(20, 1, [(1,), (2,), (3,), (4,), (5,)])
    with pytest.raises(ValueError, match="at least 1 sample"):
        simulate_sweep(wide, 18, mode="auto", samples=samples, error_type="false-positive")


@pytest.mark.parametrize("ceiling", [simulate._AUTO_TRIAL_CEILING, 0])
@pytest.mark.parametrize("error_type", ["false-negative", "false-positive"])
def test_error_free_level_memory_does_not_grow_with_m(error_type, ceiling):
    # e = 0 flips no pool. Building a 20000-bit mask for each of the 19998
    # unlit pools of every union anyway held about 28 MB, on the grouped
    # path and on the per-trial path that a level above the ceiling takes.
    code = GrayCode(20000, 1, [0b1, 0b10, 0b100])
    with mock.patch.object(simulate, "_AUTO_TRIAL_CEILING", ceiling):
        tracemalloc.start()
        try:
            records = simulate_sweep(code, 0, mode="exhaustive", error_type=error_type)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert [(rec.trials, rec.mean_candidates, rec.max_candidates) for rec in records] == [
        (2, 2.0, 2)
    ]
    assert peak < 1 << 20


def test_sampled_draw_memory_does_not_grow_with_m():
    # Each trial on this code has 19998 pools to light. Drawing them as
    # m-bit masks would hold 19998 masks of up to 20000 bits each per trial,
    # about 25 MB; drawing pool indices builds masks for the drawn pools only.
    code = GrayCode(20000, 1, [0b1, 0b10, 0b100])
    tracemalloc.start()
    try:
        records = simulate_sweep(code, 2, mode="sampled", samples=3, error_type="false-positive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [rec.trials for rec in records] == [3, 3, 3]
    assert peak < 5 << 20


def test_sampled_draw_builds_no_list_of_unlit_pools():
    # Listing the 19998 unlit pools of a union for every trial held about
    # 1.1 MB at once; drawing positions and mapping only the drawn ones to
    # pools stays far below that.
    code = GrayCode(20000, 1, [0b1, 0b10, 0b100])
    tracemalloc.start()
    try:
        records = simulate_sweep(code, 2, "sampled", 50, 1, "false-positive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [rec.trials for rec in records] == [50, 50, 50]
    assert peak < 1 << 18
