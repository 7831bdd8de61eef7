"""Enumeration budget shared by the exhaustive checks.

The default keeps every guaranteed-feasible check well inside desk scale;
SANDLAB_BUDGET overrides it.
"""

import os

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    pass


def enumeration_budget() -> int:
    raw = os.environ.get("SANDLAB_BUDGET") or str(DEFAULT_BUDGET)
    if not raw.isdecimal():
        raise ValueError(f"SANDLAB_BUDGET must be a non-negative integer, got {raw!r}")
    return int(raw)


def require_budget(count: int, what: str) -> None:
    limit = enumeration_budget()
    if count > limit:
        raise BudgetExceeded(f"{what}: {count} enumerations exceed budget {limit}")
