"""Default resource budgets and the error raised when they are exceeded.

All enumerations in this package are exact, so every budget is a hard count
of elementary work items (table entries, coordinate tuples, form
evaluations, message classes).  Each budget can be overridden per call;
the defaults keep the q = 2, 3 verification runs instant while refusing
accidental explosions.
"""

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

# Maximizing forms retained by the brute-force oracle (exact count is
# always reported even when the list is truncated).
MAXIMIZER_CAP = 10_000


class BudgetExceededError(RuntimeError):
    """Requested enumeration exceeds the configured budget."""
