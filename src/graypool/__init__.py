"""Balanced constant-weight Gray codes for combinatorial pooling experiments."""

__version__ = "0.1.0"

from .codes import (
    BalanceVector,
    GrayCode,
    balance_of,
    code_from_json_dict,
    code_to_json_dict,
    length_bound,
    load_code,
    save_code,
)
from .errors import (
    BudgetExhaustedError,
    CombinePreconditionError,
    ConstructionError,
    InfeasibleError,
    NodeLimitError,
    NoJoiningAddressError,
)
from .validate import ValidationReport, Violation, validate
from .bba import DEFAULT_BUDGET, SearchBudget, balance_target, bba
from .recombine import (
    CombinationTrace,
    apply_row_permutation,
    build_maximal,
    combine_pair,
    flip_complement,
    rcbba,
    rcbba_detailed,
)
from .decode import (
    DecodeResult,
    PoolDecoder,
    partition_items,
)
from .simulate import SimSweepRecord, simulate_sweep, sweep_to_csv
from .oracle import OracleResult, exhaustive_best_balance, exhaustive_max
