"""Exact sparse linear solve by fraction-free elimination over integer rows.

Each row is scaled once, with its right side, to integers by the lcm of
its denominators; the right side rides along as one extra entry keyed
past the last column.  Elimination updates a row as
(p/g) row - (r/g) pivot_row with g = gcd(p, r), then divides the row by
its content, so no entry outgrows the minor that Bareiss's
integer-preserving elimination would hold in its place (Math. Comp. 22,
1968).  Back-substitution runs in integers over one common denominator;
only the returned vector is made of Fractions.

`solve` returns the canonical particular solution: pivots are the
leftmost independent columns and free variables are zero.  That solution
is unique, so it does not depend on which rows the elimination picks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(row):
    """The integer row divided by its content."""
    content = gcd(*row.values())
    return {c: v // content for c, v in row.items()} if content > 1 else row


def _integer_row(row, rhs, cols):
    """The row with its right side at key `cols`, scaled to coprime integers."""
    row = {c: v for c, v in row.items() if v}
    if rhs:
        row[cols] = rhs
    scale = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (scale // v.denominator) for c, v in row.items()})


def solve(a, b):
    """Canonical particular solution of A x = b, or None if inconsistent.

    Each row of A is a dense sequence or a `{column: value}` dict of ints
    and Fractions; the solution is as long as the widest row (a dict row is
    as wide as its largest key plus one).  b has one entry per row.  Free
    variables are set to zero, giving the reduced-echelon representative.
    The entries of the returned list are Fractions.
    """
    a = [row if isinstance(row, dict) else dict(enumerate(row)) for row in a]
    cols = max((max(row, default=-1) + 1 for row in a), default=0)
    rows = [_integer_row(row, v, cols) for row, v in zip(a, b, strict=True)]
    # column -> rows not yet used as a pivot that are nonzero there; the
    # right side's key `cols` sorts last and is never a pivot column
    where = {}
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(i)
    pivots = []
    for c in sorted(where):
        if c == cols:
            break
        if not where[c]:
            continue
        p = min(where[c], key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        pv = prow[c]
        for j in prow:
            where[j].discard(p)
        for i in list(where[c]):
            row = rows[i]
            g = gcd(pv, row[c])
            s, t = pv // g, row[c] // g
            if s != 1:
                row = {j: s * v for j, v in row.items()}
            for j, v in prow.items():
                new = row.get(j, 0) - t * v
                if new:
                    row[j] = new
                    where[j].add(i)
                else:
                    del row[j]
                    where[j].discard(i)
            rows[i] = _primitive(row)
        pivots.append((c, p))
    # rows never used as a pivot have no column entries left: a right
    # side left there is 0 = rhs
    used = {p for _, p in pivots}
    if any(row for i, row in enumerate(rows) if i not in used):
        return None
    # x[j] = num[j] / den, den the lcm of the denominators solved so far
    num = [0] * cols
    den = 1
    for c, p in reversed(pivots):
        row = rows[p]
        pv = row[c]
        n = row.get(cols, 0) * den - sum(v * num[j] for j, v in row.items() if j < cols)
        if n % pv:
            # x[c] = n / (pv den): widen den to the lcm with its denominator q
            q = pv * den // gcd(n, pv * den)
            m = q // gcd(q, den)
            num = [v * m for v in num]
            den *= m
            n *= m
        num[c] = n // pv
    return [Fraction(v, den) for v in num]
