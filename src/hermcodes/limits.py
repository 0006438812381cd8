"""Default resource budgets and the error raised when they are exceeded.

All enumerations in this package are exact, so every budget is a hard count
of elementary work items (table entries, coordinate tuples, form
evaluations).  Every exhaustive scan, the weight distribution and the
oracle alike, is priced in the form evaluations it makes: classes x the
points it evaluates them at (the base points alone for linear forms on the
standard cone).  Each budget
can be overridden per call; the defaults keep the q = 2, 3 verification
runs instant while refusing accidental explosions.
"""

import math

# Entries in one field table: the largest GF(q^2) whose context is built
# (log/antilog, unary maps), and the cap on each digit group's unspread
# table in the odd-characteristic spread add (the 2e digits split into as
# few groups as keep every (2p - 1)^width <= TABLE_LIMIT).
TABLE_LIMIT = 1 << 20

# Full q^2 x q^2 addition/multiplication tables are built up to this size.
DENSE_TABLE_LIMIT = 256

# Raw coordinate tuples visited by one projective-space enumeration.
POINT_BUDGET = 20_000_000

# Form evaluations one exhaustive scan may take: the smallest round value
# over params q = 3, n = 5, d = 1 when it read all 21,961 points (1.46e9,
# 8-10 s, 2 CPUs); its base scan makes 1.6e8.
EVAL_BUDGET = 2_000_000_000

# Decimal digits of the coordinate-tuple count of the largest projective
# space any count is worked out for; larger ones are refused unprinted.
COUNT_DIGITS = 1000

# Maximizing forms retained by the brute-force oracle (exact count is
# always reported even when the list is truncated).
MAXIMIZER_CAP = 10_000


class BudgetExceededError(RuntimeError):
    """Requested enumeration exceeds the configured budget."""


def check_count_digits(q2: int, n: int) -> None:
    """Refuse P^n(GF(q2)) when q2^(n+1) > 10^COUNT_DIGITS, without that power."""
    if n + 1 > COUNT_DIGITS / math.log10(q2):
        raise BudgetExceededError(
            f"P^{n}(GF({q2})) has more than 10^{COUNT_DIGITS} coordinate tuples"
        )


def check_scan_budget(evals: int, budget: int) -> None:
    """Refuse an exhaustive scan of more than ``budget`` form evaluations."""
    if evals > budget:
        raise BudgetExceededError(
            f"scan needs {evals} form evaluations > budget {budget}; shard or override"
        )


def check_index_space(classes: int) -> None:
    """Refuse a form space of 2^63 or more projective classes: the scan
    kernel and the form decoder compute global form indices in int64."""
    if classes >= 1 << 63:
        raise BudgetExceededError(f"{classes} form classes exceed the int64 index space")
