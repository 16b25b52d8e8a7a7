"""Balanced constant-weight Gray codes for combinatorial pooling experiments."""

__version__ = "0.1.0"

from .codes import (
    Address,
    BalanceVector,
    GrayCode,
    IncidenceMatrix,
    balance_of,
    code_from_json_dict,
    code_to_json_dict,
    consecutive_unions,
    from_incidence,
    hamming_distance,
    incidence_from_csv,
    incidence_to_csv,
    length_bound,
    load_code,
    or_sum,
    save_code,
    to_incidence,
)
from .errors import (
    BudgetExhaustedError,
    ClosingUnionNotFoundError,
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
    find_closing_union,
    flip_complement,
    rcbba,
    rcbba_detailed,
)
from .decode import (
    DecodeResult,
    Outcome,
    PoolDecoder,
    decode,
    partition_items,
)
from .simulate import SimSweepRecord, simulate_sweep, sweep_to_csv, write_sweep_csv
from .oracle import OracleResult, exhaustive_best_balance, exhaustive_max
