"""Balanced constant-weight Gray codes for combinatorial pooling experiments.

``import graypool`` loads ``codes``, ``errors``, ``validate`` and ``bba``.
The other public names, and the submodules ``recombine``, ``decode``,
``simulate`` and ``oracle``, load on first access (PEP 562), so a one-shot
CLI process compiles only what its subcommand runs. ``bba`` and
``validate`` stay eager: those functions share their submodule's name, and
a submodule import would rebind a lazily set package attribute to the module.
"""

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
    ConstructionError,
    InfeasibleError,
    NoJoiningAddressError,
)
from .validate import ValidationReport, Violation, validate
from .bba import DEFAULT_BUDGET, balance_target, bba

# Each public name loaded on first access, with the submodule that defines it.
_LAZY = {
    **dict.fromkeys(
        ("CombinationTrace", "apply_row_permutation", "build_maximal", "combine_pair",
         "flip_complement", "rcbba", "rcbba_detailed"),
        "recombine",
    ),
    **dict.fromkeys(("DecodeResult", "PoolDecoder", "partition_items"), "decode"),
    **dict.fromkeys(("SimSweepRecord", "simulate_sweep", "sweep_to_csv"), "simulate"),
    **dict.fromkeys(("OracleResult", "exhaustive_best_balance", "exhaustive_max"), "oracle"),
}

__all__ = [
    "BalanceVector", "GrayCode", "balance_of", "code_from_json_dict", "code_to_json_dict",
    "length_bound", "load_code", "save_code", "BudgetExhaustedError", "ConstructionError",
    "InfeasibleError", "NoJoiningAddressError", "ValidationReport", "Violation", "validate",
    "DEFAULT_BUDGET", "balance_target", "bba", *_LAZY,
]


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return __all__
