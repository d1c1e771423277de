"""Exact sparse linear solve over Fractions.

`solve` returns the canonical particular solution: pivots are the
leftmost independent columns and free variables are zero.  That solution
is unique, so it does not depend on which rows the elimination picks.
"""

from __future__ import annotations

from fractions import Fraction


def solve(a, b):
    """Canonical particular solution of A x = b, or None if inconsistent.

    Each row of A is a dense sequence or a `{column: value}` dict; the
    solution is as long as the widest row (a dict row is as wide as its
    largest key plus one).  b has one entry per row.  Free variables are
    set to zero, giving the reduced-echelon representative.
    """
    a = [row if isinstance(row, dict) else dict(enumerate(row)) for row in a]
    cols = max((max(row, default=-1) + 1 for row in a), default=0)
    rows = [{c: Fraction(v) for c, v in row.items() if v} for row in a]
    rhs = [Fraction(v) for v in b]
    # column -> rows not yet used as a pivot that are nonzero there
    where = {}
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(i)
    pivots = []
    for c in sorted(where):
        if not where[c]:
            continue
        p = min(where[c], key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for j in prow:
            where[j].discard(p)
        for i in list(where[c]):
            row = rows[i]
            f = row[c] / prow[c]
            rhs[i] -= f * rhs[p]
            for j, v in prow.items():
                new = row.get(j, 0) - f * v
                if new:
                    row[j] = new
                    where[j].add(i)
                else:
                    del row[j]
                    where[j].discard(i)
        pivots.append((c, p))
    # rows never used as a pivot are now empty: 0 = rhs must hold there
    used = {p for _, p in pivots}
    if any(v for i, v in enumerate(rhs) if i not in used):
        return None
    x = [Fraction(0)] * cols
    for c, p in reversed(pivots):
        row = rows[p]
        x[c] = (rhs[p] - sum(v * x[j] for j, v in row.items() if j != c)) / row[c]
    return x
