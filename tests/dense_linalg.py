"""Dense Fraction elimination: the reference that `harmcalc.linalg` is checked against.

This is the textbook reduced-row-echelon algorithm over dense rows.  It is
slow on the sparse ansatz systems the quadric solvers build, which is why
the library uses a sparse elimination instead, but its canonical solution
(leftmost pivots, free variables zero) is the contract the library keeps.
"""

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form in place; returns the pivot column list."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if matrix[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        matrix[r], matrix[pr] = matrix[pr], matrix[r]
        pv = matrix[r][c]
        if pv != 1:
            matrix[r] = [x / pv for x in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def solve(a, b):
    """Canonical particular solution of A x = b, or None if inconsistent.

    Free variables are set to zero (the reduced-echelon representative).
    """
    rows = len(a)
    if rows == 0:
        return [] if not b else None
    cols = len(a[0])
    aug = [[Fraction(v) for v in a[i]] + [Fraction(b[i])] for i in range(rows)]
    pivots = rref(aug)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][cols]
    return x


def nullspace(a):
    """Basis of the right nullspace of A (list of Fraction vectors)."""
    rows = len(a)
    if rows == 0:
        return []
    cols = len(a[0])
    m = [list(row) for row in a]
    pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][free]
        basis.append(v)
    return basis
