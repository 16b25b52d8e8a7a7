"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s -v tests/test_acceptance.py`` to see the lines live.
"""

import functools
import random
import time
from math import comb

import pytest

from graypool import (
    ConstructionError,
    apply_row_permutation,
    balance_of,
    bba,
    combine_pair,
    exhaustive_best_balance,
    exhaustive_max,
    length_bound,
    load_code,
    rcbba,
    rcbba_detailed,
    save_code,
    simulate_sweep,
    validate,
)
from graypool.codes import _code_from_csv, _code_to_csv
from graypool.decode import PoolDecoder

from conftest import (
    BBA_GRID,
    ROWS_5_1_5,
    ROWS_5_2_10,
    ROWS_6_2_15,
    code_from_rows,
    csv_from_rows,
)

# Block lengths are pinned to per-pool occupancy targets, so at these two
# near-bound points a closing regime at width 2r would be left needing more
# addresses than a width-2r code can hold: the geometric remaining-length
# estimate n * prod_{j=2r+1..m} (1 - r/j) exceeds the (2r, r) length bound.
# No width between 2r and m fits with rcbba's margin either, so rcbba closes
# them at width m, one balance-targeted search over the whole code, and
# criterion 5 requires every run there to build.
RC_STRUCTURALLY_INFEASIBLE = {(14, 3, 350), (14, 4, 950)}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def grid_codes():
    return {
        (m, r, n): bba(m, r, n, seed=0, budget=10**7) for (m, r, n) in BBA_GRID
    }


@pytest.fixture(scope="module")
def study_codes():
    return {n: rcbba(18, 6, n, seed=0) for n in (100, 1000)}


@criterion(1, "golden (5,2,10) matrix round-trips and validates perfectly")
def test_criterion_1_golden_code(tmp_path):
    started = time.perf_counter()
    code = code_from_rows(ROWS_5_2_10)

    csv_text = _code_to_csv(code)
    assert csv_text == csv_from_rows(ROWS_5_2_10)
    assert _code_from_csv(csv_text) == code
    json_path = tmp_path / "golden.json"
    csv_path = tmp_path / "golden.csv"
    save_code(code, json_path)
    save_code(code, csv_path)
    assert load_code(json_path) == code
    assert load_code(csv_path) == code

    report = validate(code)
    assert report.is_valid and report.violations == ()
    assert report.balance.deviation == 0
    assert report.meets_bound and length_bound(5, 2) == 10
    assert time.perf_counter() - started < 1.0


@criterion(2, "combining the (5,1,5) and (5,2,10) codes reproduces the (6,2,15) matrix")
def test_criterion_2_golden_combination():
    started = time.perf_counter()
    combined = combine_pair(code_from_rows(ROWS_5_1_5), code_from_rows(ROWS_5_2_10))
    assert _code_to_csv(combined) == csv_from_rows(ROWS_6_2_15)
    assert combined == code_from_rows(ROWS_6_2_15)
    assert time.perf_counter() - started < 1.0


@criterion(3, "exhaustive search attains the length bound on all seven desk-scale pairs")
def test_criterion_3_oracle_meets_bound():
    started = time.perf_counter()
    for m, r in [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 2)]:
        result = exhaustive_max(m, r)
        assert result.is_exact, (m, r)
        assert result.max_length == length_bound(m, r), (m, r)
        assert validate(result.witness).is_valid
    assert time.perf_counter() - started < 300


@criterion(4, "branch-and-bound succeeds on the whole grid with deviation at most 8")
def test_criterion_4_bba_grid(grid_codes):
    started = time.perf_counter()
    assert len(grid_codes) == 11
    for (m, r, n), code in grid_codes.items():
        report = validate(code)
        assert report.is_valid, (m, r, n)
        assert code.n == n
        assert report.balance.deviation <= 8, (m, r, n, report.balance.deviation)
    elapsed = time.perf_counter() - started
    print(f"\n  criterion 4 grid: {len(grid_codes)} codes checked in {elapsed:.1f}s")


@criterion(5, "the deviation bound from the closing block holds on every seeded run")
def test_criterion_5_deviation_theorem():
    checked = vacuous = structural = 0
    for i in range(50):
        m, r, n = BBA_GRID[i % len(BBA_GRID)]
        try:
            code, trace = rcbba_detailed(m, r, n, seed=i)
        except ConstructionError:
            assert (m, r, n) in RC_STRUCTURALLY_INFEASIBLE, (m, r, n, i)
            structural += 1
            continue
        deviation = balance_of(code).deviation
        if trace.deviation_bound is None:
            # The run completed during the iterative phase; no closing block
            # exists, so the bound has nothing to say.
            vacuous += 1
            continue
        assert deviation <= trace.deviation_bound, (m, r, n, i)
        checked += 1
    assert checked >= 35
    assert structural == 0
    print(
        f"\n  criterion 5: bound held on {checked} runs,"
        f" {vacuous} runs closed early, {structural} near-bound runs failed"
    )


@criterion(6, "error study: candidate lists stay near the reported sizes")
def test_criterion_6_error_study(study_codes):
    started = time.perf_counter()
    sweep_100 = simulate_sweep(study_codes[100], 1, mode="exhaustive")
    sweep_1000 = simulate_sweep(study_codes[1000], 1, mode="exhaustive")

    assert sweep_100[0].mean_candidates == 2.0
    assert 3.0 <= sweep_100[1].mean_candidates <= 8.0
    assert sweep_1000[1].max_candidates <= 30
    assert sweep_1000[1].fraction_of_n <= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    print(
        f"\n  criterion 6: n=100 mean {sweep_100[1].mean_candidates:.2f},"
        f" n=1000 max {sweep_1000[1].max_candidates}"
        f" fraction {sweep_1000[1].fraction_of_n:.4f} ({elapsed:.1f}s)"
    )


@criterion(7, "every constructed code decodes all pairs exactly and survives dropouts")
def test_criterion_7_decode_round_trip(grid_codes, study_codes):
    codes = list(grid_codes.values()) + list(study_codes.values())
    for code in codes:
        decoder = PoolDecoder(code)
        masks = list(code.bitmasks())
        for j in range(1, len(masks)):
            union = masks[j - 1] | masks[j]
            result = decoder.decode_mask(union)
            assert result.status == "exact-pair" and result.pair == (j, j + 1)
            drops = union
            while drops:
                low = drops & -drops
                drops ^= low
                partial = decoder.decode_mask(union ^ low)
                assert j in partial.candidate_pairs
    print(f"\n  criterion 7: {len(codes)} codes, exhaustive round trip done")


@criterion(8, "a 3000-item code is constructed well under the time ceiling")
def test_criterion_8_throughput():
    started = time.perf_counter()
    code = rcbba(18, 6, 3000, seed=0)
    elapsed = time.perf_counter() - started
    assert validate(code).is_valid and code.n == 3000
    assert elapsed < 500
    if elapsed >= 250:
        print(f"\n  criterion 8 WARNING: {elapsed:.0f}s exceeds the 250s goal")
    print(f"\n  criterion 8: (18,6,3000) built in {elapsed:.2f}s")


@criterion(9, "validity and the balance multiset survive 100 random pool relabelings")
def test_criterion_9_permutation_invariance():
    code = code_from_rows(ROWS_5_2_10)
    reference = sorted(balance_of(code).counts)
    rng = random.Random(0)
    for _ in range(100):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        permuted = apply_row_permutation(code, perm)
        report = validate(permuted)
        assert report.is_valid and report.meets_bound
        assert sorted(report.balance.counts) == reference


@criterion(10, "heuristic balance lands within +2 of the exhaustive optimum")
def test_criterion_10_balance_versus_oracle():
    started = time.perf_counter()
    for n in range(4, 10):
        optimum = balance_of(exhaustive_best_balance(5, 2, n)).deviation
        heuristic = balance_of(bba(5, 2, n, seed=0)).deviation
        assert heuristic <= optimum + 2, (n, heuristic, optimum)
    assert time.perf_counter() - started < 120
