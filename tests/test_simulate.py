import random
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from graypool import GrayCode, PoolDecoder, bba, length_bound, rcbba, simulate_sweep, sweep_to_csv
from graypool.cli import main
from graypool.simulate import CSV_COLUMNS, SimSweepRecord, _dropout_count


@pytest.fixture(scope="module")
def medium_code():
    return bba(9, 3, 40, seed=2)


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


def test_false_positive_injection(medium_code):
    records = simulate_sweep(medium_code, 1, error_type="false-positive")
    assert records[0].mean_candidates == 2.0
    assert records[1].trials == (medium_code.n - 1) * (medium_code.m - medium_code.r - 1)
    assert records[1].mean_candidates >= 2.0


def test_rejects_silly_parameters(code_5_2_10):
    with pytest.raises(ValueError):
        simulate_sweep(code_5_2_10, 3)  # would drop every positive pool
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


def decoded_sweep(code, max_errors, mode, samples, seed, error_type):
    """Sweep records with every candidate count taken from the decoder's
    full answer, on the outcomes and rng draws of ``simulate_sweep``."""
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
                    counts.append(len(decoder.addr_lookup.near(pmask, budget)))
                else:
                    counts.append(len(decoder.decode_mask(pmask, False).candidate_items))
        mean = sum(counts) / len(counts)
        records.append(SimSweepRecord(code.n, e, len(counts), mean, max(counts), mean / code.n))
    return records


@cache
def _small_code(alg, m, r, seed):
    # Every one of these requests builds; some shorter rcbba requests at
    # m = 8 raise NoJoiningAddressError, so shorter codes are prefixes.
    n = max(2, min(30, length_bound(m, r) * 2 // 3))
    return (bba if alg == "bba" else rcbba)(m, r, n, seed=seed)


@st.composite
def small_valid_codes(draw):
    """Prefixes of at least two addresses of bba and rcbba codes over 3..8
    pools, at most 30 long; a prefix of a valid code is valid."""
    m = draw(st.integers(3, 8))
    r = draw(st.integers(1, m - 1))
    alg = draw(st.sampled_from(["bba", "rcbba"]))
    code = _small_code(alg, m, r, draw(st.integers(0, 3)))
    return GrayCode(m, r, code.masks[: draw(st.integers(2, code.n))])


@settings(max_examples=200, deadline=None)
@given(
    small_valid_codes(),
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
                    assert count(pmask) == len(decoder.addr_lookup.near(pmask, e))


@pytest.mark.parametrize(
    "m, addresses, message",
    [
        (5, [(1, 2), (2, 3), (1, 2), (2, 3)], "sweep needs distinct addresses"),
        (4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 2)], "sweep needs distinct addresses"),
        (4, [(1, 2), (1, 2, 3)], "sweep needs every address to have weight r=2"),
        (4, [(1, 2), (2, 3), (1, 3)], "sweep needs distinct consecutive unions"),
        (4, [(1, 2), (3, 4)], "sweep needs every consecutive union to have weight r+1=3"),
    ],
)
def test_sweep_rejects_invalid_codes(tmp_path, capsys, m, addresses, message):
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
