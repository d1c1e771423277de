"""Pairwise sum, term-pair product and heap division: the reference for `harmcalc.expr`.

These are the textbook loops over `{monomial tuple: Scalar}` terms, one
Scalar multiply and add per pair of terms.  They are slow on the large
products that canonicalization builds, which is why `Polynomial.__mul__`
and `Polynomial.divide_exact` work on packed monomials with integer
coefficients instead, and why sums stream through one accumulator rather
than a fold of `add`, but their results are the contract the library keeps.
"""

import heapq

from harmcalc.expr import Polynomial, mono_mul


def add(a, b):
    """a + b, one Scalar add per shared monomial, dropping sums that cancel."""
    if not a.terms:
        return b
    if not b.terms:
        return a
    acc = dict(a.terms)
    for m, c in b.terms.items():
        if m in acc:
            s = acc[m] + c
            if s.is_zero():
                del acc[m]
            else:
                acc[m] = s
        else:
            acc[m] = c
    return Polynomial(acc)


def total(polys):
    """The left fold of `add` over polys, starting from zero."""
    out = Polynomial()
    for p in polys:
        out = add(out, p)
    return out


def mul(a, b):
    """a * b, one Scalar product per pair of terms."""
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = mono_mul(m1, m2)
            c = c1 * c2
            if m in acc:
                acc[m] = acc[m] + c
            else:
                acc[m] = c
    return Polynomial({m: c for m, c in acc.items() if not c.is_zero()})


def divide_exact(a, divisor, rank):
    """Quotient a/divisor if the division is exact, else None.

    Heap-driven long division under graded lex in the variable order of
    `rank` (other variables after it, by name).
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return Polynomial()
    if a.total_degree() < divisor.total_degree():
        return None
    full_rank = dict(rank)
    for poly in (a, divisor):
        for v in sorted(poly.variables()):
            if v not in full_rank:
                full_rank[v] = len(full_rank)
    nvars = len(full_rank)

    def neg_key(m):
        vec = [0] * nvars
        deg = 0
        for v, e in m:
            vec[full_rank[v]] = -e
            deg += e
        return (-deg, tuple(vec))

    dmono, dcoeff = divisor.leading(full_rank)
    dinv = dcoeff.inverse()
    dset = dict(dmono)
    dterms = list(divisor.terms.items())
    rem = dict(a.terms)
    heap = [(neg_key(m), m) for m in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = rem.get(m)
        if c is None or c.is_zero():
            continue
        md = dict(m)
        for v, e in dset.items():
            if md.get(v, 0) < e:
                return None
        qd = {v: e - dset.get(v, 0) for v, e in md.items() if e - dset.get(v, 0)}
        qm = tuple(sorted(qd.items()))
        qc = c * dinv
        quot[qm] = qc
        for bm, bc in dterms:
            tm = mono_mul(qm, bm)
            tc = bc * qc
            prev = rem.get(tm)
            if prev is None:
                rem[tm] = -tc
                heapq.heappush(heap, (neg_key(tm), tm))
            else:
                s = prev - tc
                if s.is_zero():
                    del rem[tm]
                else:
                    rem[tm] = s
    if any(not c.is_zero() for c in rem.values()):
        return None
    return Polynomial(quot)
