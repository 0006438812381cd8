"""Default resource budgets and the error raised when they are exceeded.

All enumerations in this package are exact, so every budget is a hard count
of elementary work items (table entries, coordinate tuples, form
evaluations, message classes).  Each budget can be overridden per call;
the defaults keep the q = 2, 3 verification runs instant while refusing
accidental explosions.
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

# Form evaluations (forms x points) performed by one exhaustive scan.
EVAL_BUDGET = 500_000_000

# Projective message classes visited by one exhaustive distance run.
CLASS_BUDGET = 2_000_000

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


def check_index_space(classes: int) -> None:
    """Refuse a form space of 2^63 or more projective classes: the scan
    kernel and the form decoder compute global form indices in int64."""
    if classes >= 1 << 63:
        raise BudgetExceededError(f"{classes} form classes exceed the int64 index space")
