"""The quadric ansatz, written and solved as one exact integer system.

`solve_ansatz` is the ansatz of the quadric boundary-value solvers (as in
Axler, Gorkin and Voss, "The Dirichlet problem on quadratic surfaces",
Math. Comp. 73, 2004): unknown polynomials whose images under given
second-order and multiplication maps add up to given data.  Their columns
are packed keys from `poly.monomials`, `paired_rows` writes the rows
(one `poly.Stencil` per use, applied to each column), `solve` solves
them, and each answer is one rational block.

The system splits into blocks that share no unknown: v -> Delta(q v)
keeps the parity of every exponent in which q is even, and on a quadric
with no linear or constant term it keeps the degree.  Those key bits,
fixed by every use, are read off q's terms, and `paired_rows` writes
only the unknowns whose fixed bits are those of some constant's key.
Every image stays in its unknown's class, so the unknowns left out form
homogeneous blocks, and their canonical solution is 0: the
leftmost-pivot, free-variables-zero solution of a block-diagonal system
is that of each block, so leaving those unknowns without rows, at 0,
changes no answer.  A homogeneous block is consistent, so an
inconsistent system is inconsistent in the blocks written, and is still
refused.

A row is a primitive `{column: int}` dict: constraint k is scaled by the
lcm of its images' and its constant's denominators, the right side rides
along as column `cols` (the number of unknowns), and the row is divided
by its content.  Elimination updates a row as
(p/g) row - (r/g) pivot_row with g = gcd(p, r), then divides the row by
its content in the same pass, so no entry outgrows the minor that
Bareiss's integer-preserving elimination would hold in its place (Math.
Comp. 22, 1968).  `solve` keeps, per column, the rows not yet used as a
pivot that are nonzero there; an update touches that record only where
it creates or cancels an entry.  Back-substitution runs in integers over
one common denominator.

`solve` returns the canonical particular solution: pivots are the
leftmost independent columns and free variables are zero.  That solution
is unique, so it does not depend on which rows the elimination picks.
"""

from __future__ import annotations

from math import gcd, lcm

from .poly import RATIONAL, Stencil, _join, _layout, _new, _put, _stride, monomials


def _primitive(row):
    """The integer row divided by its content."""
    content = gcd(*row.values())
    return {c: v // content for c, v in row.items()} if content > 1 else row


def solve(rows, cols):
    """(den, nums): the canonical solution x = nums / den of the rows, or None.

    Each row is a primitive `{column: int}` dict over columns below cols,
    its right side at column cols, as `paired_rows` writes them.  Free
    variables are zero, giving the reduced-echelon representative; den > 0
    is the least common denominator and nums has cols entries.  None means
    the system is inconsistent.  The rows passed in are left unchanged.
    """
    rows = [dict(row) for row in rows]
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
                # row[j] - t v; only an entry that this creates joins where[j]
                v *= t
                old = row.get(j)
                if old is None:
                    row[j] = -v
                    where[j].add(i)
                elif old != v:
                    row[j] = old - v
                else:
                    del row[j]
                    where[j].discard(i)
            content = gcd(*row.values())
            rows[i] = {j: v // content for j, v in row.items()} if content > 1 else row
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
            # x[c] = n / (pv den): widen den to the lcm with its denominator
            # q, taken positive so that den stays positive
            q = abs(pv * den) // gcd(n, pv * den)
            m = q // gcd(q, den)
            num = [v * m for v in num]
            den *= m
            n *= m
        num[c] = n // pv
    return den, num


def paired_rows(lay, groups, constants, names):
    """(rows, cols) of sum_j x_j image_j = constants, the rows `solve` takes.

    Group (keys, uses) has an unknown x_j for each monomial x^a packed in
    keys, numbered on from the unknowns of the groups before it, and x^a
    enters each constraint k of uses (k, q, weight) as the image of x^a
    under the `Stencil` of q's rational terms with that weight, built once
    per use, or as q x^a when weight is None; the images of one x^a add
    up.  lay holds every image and constant; cols is the number of
    unknowns.

    Only the unknowns whose fixed key bits are those of some constant's
    key are written.  A use moves x^a's key by a term of q less 2 e_v (v
    in names) for a stencil, or by a term of q for a product.  The bits
    that no move changes are the low bit of each name's exponent that
    every move changes by an even amount, and the degree field: whole when
    no move changes the degree, its low bit when every move changes it by
    an even amount.  Each image keeps its unknown's fixed bits, so the
    unknowns written are a union of whole blocks that holds every
    constant.  The rows come in the order that writing every unknown's
    image would give them, by unknown and then by image entry, with their
    entries in that order; the other unknowns have no entries.
    """
    # the row of key in constraint k is key + k * base, base a field above
    # the degree field, so q's terms moved to constraint k's rows carry x^a
    # straight to its rows
    base = 1 << (lay.top + lay.stride)
    blocks = [[(k, weight, q.rational_block(lay)) for k, q, weight in uses] for _, uses in groups]
    rhs = [c.rational_block(lay) for c in constants]
    scales = [den for den, _ in rhs]
    for k, _, (den, _) in (use for uses in blocks for use in uses):
        scales[k] = lcm(scales[k], den)
    rhs = [{key + k * base: n * (scales[k] // den) for key, n in nums.items()} for k, (den, nums) in enumerate(rhs)]

    # each use's scale in its constraint, q's terms there and their
    # stencil (None for a product by q)
    for uses in blocks:
        for i, (k, weight, (den, nums)) in enumerate(uses):
            nums = {kb + k * base: n for kb, n in nums.items()}
            uses[i] = (scales[k] // den, nums, weight and Stencil(nums, lay, names, weight))
    # a move changes each field by an amount of the parity of q's term
    # there (2 e_v is even), so odd, the OR of q's terms, holds the low
    # bits that some move flips; moved: whether some move changes the
    # degree
    odd = moved = 0
    for _, nums, stencil in (use for uses in blocks for use in uses):
        for kb in nums:
            odd |= kb
            moved |= (kb >> lay.top & lay.mask) != (2 if stencil else 0)
    fixed = (sum(1 << lay.shift[v] for v in names) | 1 << lay.top) & ~odd
    fixed |= 0 if moved else lay.mask << lay.top
    classes = {key & fixed for nums in rhs for key in nums}

    rows = {}
    cols = 0
    for (keys, _), uses in zip(groups, blocks):
        for j, ka in enumerate(keys, cols):
            if ka & fixed in classes:
                image = {}
                for f, nums, stencil in uses:
                    if stencil:
                        stencil.add(ka, image, f)
                    else:
                        for kb, n in nums.items():
                            image[ka + kb] = image.get(ka + kb, 0) + n * f
                for row, n in image.items():
                    if n:
                        rows.setdefault(row, {})[j] = n
        cols += len(keys)
    for nums in rhs:
        for row, n in nums.items():
            rows.setdefault(row, {})[cols] = n
    return [_primitive(row) for row in rows.values()], cols


def solve_ansatz(groups, constants, names):
    """The unknown polynomials of the groups whose images add up to `constants`, or None.

    Group (degrees, uses) is a polynomial over the monomials in names of
    those total degrees, whose image in constraint k is named by (k, q,
    weight) in uses as in `paired_rows`.  The columns are each group's
    `monomials` in turn, so the answer is `solve`'s leftmost-pivot
    solution in that graded-lex order: one polynomial per group, each a
    single rational block.  Only the unknowns that share a constant's
    fixed key bits are written and solved; the coefficients outside them
    are 0, as that solution has them.  None means the system is
    inconsistent.
    """
    top = max((d for degrees, _ in groups for d in degrees), default=0)
    lay = _layout(tuple(sorted(names)), _stride(top))
    for p in (*(q for _, uses in groups for _, q, _ in uses), *constants):
        lay = _join(lay, p.layout, p.total_degree() + top)
    columns = [(monomials(lay, names, degrees), uses) for degrees, uses in groups]
    sol = solve(*paired_rows(lay, columns, constants, names))
    if sol is None:
        return None
    den, nums = sol
    out = []
    for keys, _ in columns:
        blocks = {}
        _put(blocks, RATIONAL, den, dict(zip(keys, nums)))
        nums = nums[len(keys) :]
        out.append(_new(lay, blocks))
    return out
