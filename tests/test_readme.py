"""The README's library tour runs as written, and the package exports a pinned set of names."""

import re
import types
from pathlib import Path

import graypool

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert namespace["report"].is_valid
    assert namespace["result"].status == "error-false-positive"


def test_public_names_are_pinned():
    # Every name ``import graypool`` offers, submodules aside; a new or
    # dropped export is an API change and shows up here.
    public = {
        name
        for name in dir(graypool)
        if not name.startswith("_") and not isinstance(getattr(graypool, name), types.ModuleType)
    }
    assert public == {
        "BalanceVector", "BudgetExhaustedError", "CombinationTrace", "ConstructionError",
        "DEFAULT_BUDGET", "DecodeResult", "GrayCode", "InfeasibleError",
        "NoJoiningAddressError", "OracleResult", "PoolDecoder", "SimSweepRecord",
        "ValidationReport", "Violation", "apply_row_permutation", "balance_of",
        "balance_target", "bba", "build_maximal", "code_from_json_dict", "code_to_json_dict",
        "combine_pair", "exhaustive_best_balance", "exhaustive_max", "flip_complement",
        "length_bound", "load_code", "partition_items", "rcbba", "rcbba_detailed",
        "save_code", "simulate_sweep", "sweep_to_csv", "validate",
    }
