"""Term-at-a-time polynomial arithmetic: the reference for `harmcalc.poly`.

These are the textbook loops over the `{monomial tuple: Scalar}` view
`Polynomial.terms`, one Scalar operation per term or pair of terms.  They
are slow on the large products that canonicalization builds, which is why
`Polynomial` stores packed integer blocks per Scalar signature and works
on them instead, but their results are the contract the library keeps.

The harmonic bases are kept here the same way: the first-coordinate
series one (L D)^k term at a time, and the orthonormal bases by
Gram-Schmidt on Polynomials under the Fischer pairing, where
`harmcalc.harmonic` uses the closed form and integer vectors.
`integral_orthonormal` is the earlier general Gram-Schmidt, one inner
product integral per Gram entry, where `harmonic.basis_harmonic` reads
every entry off the Fischer pairing and the degree factor.

Monomial tuples are read here too: `mono_degree`, the recursive
`monomials` that `poly.monomials` lists as packed keys, and
`coefficient`, the lookup of one tuple's coefficient in the blocks.

`phi_numerators` writes the south-pole inversion Phi in closed form, the
reference for `transforms.phi_map`, which reads it off the one sphere
reflection.

`kelvin_by_products` is the earlier pullback of a Kelvin transform in a
sphere other than the unit sphere: one product of numerator powers per
monomial, where `transforms._kelvin` translates to the center, splits into
homogeneous parts and translates back.  `graded_parts_by_parameter` is the
earlier expansion about a point, through a parameter t and one
substitution per coordinate, where `calculus._graded_parts` translates the
same way.

`canonical_terms` is the earlier canonicalization of `Expr._from_raw`:
every member of a group is shifted on its own to the group's least base
powers, and each base is divided out of the whole shifted sum, where
`Expr._from_raw` divides only the lowest level of the sum.

`fischer_parts_by_recursion` is the earlier Fischer decomposition: the
pieces of the Laplacian of each homogeneous part, found recursively,
lifted by ||x||^2 and divided by the factor the Laplacian brings, and the
harmonic piece as the remainder, where `harmonic.fischer_sums` reads
every piece off one Laplacian ladder in closed form.

`radial_ode_solution` is the earlier radial solve of the anti-Laplacian:
two symbolic antiderivative passes in t = ||x|| and every pair of their
terms, where `bvp._radial_ode_solution` solves two first-order equations
in u = log ||x||^2 on coefficient lists.

`poly_text` and `poly_latex` print a polynomial one term at a time from
the `terms` view, a Scalar per coefficient, where `harmcalc.render` reads
each signature block's integers and writes its factors once.

`FactorParser` is the earlier expression reader of `harmcalc.parser`:
every atom is an Expr, every power and product is canonicalized, where
`parser._Parser` folds a term's numbers and variables into one monomial
and canonicalizes each sum once.

`tokenize_by_characters` is the earlier tokenizer: it walks the source
one character at a time, where `parser._tokenize` matches one compiled
regular expression.

`second_order` is the earlier second-order image of one monomial against
a polynomial's terms, a weight function call per term and variable and a
dict per monomial, where `poly.Stencil` is built once per operand and
applied once per monomial; it takes the first-order weight too.
`laplacian_by_blocks` and `gradient_dot_by_terms` apply it block by block
and term by term, and `paired_rows_by_terms` writes every row of the
quadric ansatz with it, where `linalg.paired_rows` builds one stencil
per use and writes only the rows of the unknowns that share the
constants' fixed key bits.

`first_order` is 2 grad p . grad b + p Delta b as a gradient dot
product, a Laplacian, a product and a sum, where
`Context.base_first_order` makes one pass of b's first-order stencil.
"""

import heapq
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from harmcalc.errors import ParseError, UnknownVariable, UnsupportedInputError, UnsupportedScalarNorm
from harmcalc.expr import Expr
from harmcalc.parser import _Parser
from harmcalc.poly import (
    Polynomial,
    _join,
    _rekey,
    dot_poly,
    first_order_weight,
    gradient_weight,
    laplace_weight,
    poly_sum,
)
from harmcalc.render import scalar_latex, scalar_text
from harmcalc.scalar import ZERO, Scalar, _as_fraction, scalar_sqrt
from harmcalc.transforms import _invert


def mono_degree(m):
    return sum(e for _, e in m)


def coefficient(p, mono):
    """The Scalar coefficient in p of the monomial tuple mono."""
    # an exponent past its field packs a degree past every key's
    if any(v not in p.layout.shift for v, _ in mono):
        return ZERO
    return p.coefficient_at(p.layout.pack(mono))


def monomials(names, degrees):
    """The monomials of `poly.monomials` as tuples, one recursive call per variable."""
    names = tuple(names)
    out = []

    def rec(i, left, acc):
        if i == len(names):
            if left == 0:
                out.append(tuple(sorted((v, e) for v, e in acc.items() if e)))
        else:
            for e in range(left + 1):
                rec(i + 1, left - e, {**acc, names[i]: e})

    for deg in degrees:
        rec(0, deg, {})
    return out


def _grlex_key(mono, rank):
    """Ascending graded-lex over rank ({name: position}), as rendering prints."""
    vec = [0] * len(rank)
    extra = 0
    for v, e in mono:
        i = rank.get(v)
        if i is None:
            extra += e
        else:
            vec[i] = e
    # trailing mono tuple breaks ties for variables outside the context
    return (mono_degree(mono), extra, tuple(vec), mono)


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for v, e in b:
        n = acc.get(v, 0) + e
        if n:
            acc[v] = n
        else:
            del acc[v]
    return tuple(sorted(acc.items()))


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

    dmono, dcoeff = max(divisor.terms.items(), key=lambda kv: _grlex_key(kv[0], full_rank))
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


def scale(p, c):
    c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
    if c.is_zero():
        return Polynomial()
    return Polynomial({m: co * c for m, co in p.terms.items()})


def neg(p):
    return Polynomial({m: -c for m, c in p.terms.items()})


def partial(p, var):
    # lowering the exponent of var is one-to-one on the monomials that
    # contain it, so no two terms land on the same monomial
    acc = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.get(var, 0)
        if not e:
            continue
        if e == 1:
            del d[var]
        else:
            d[var] = e - 1
        acc[tuple(sorted(d.items()))] = c * e
    return Polynomial(acc)


def gradient_dot(p, q, names):
    """grad p . grad q in `names`: the sum over the names of the products of partials."""
    return total([mul(partial(p, v), partial(q, v)) for v in names])


def first_order(p, b, names):
    """2 grad p . grad b + p Delta b in `names`, term by term: a gradient
    dot product, a Laplacian, a product and a sum, where
    `Context.base_first_order` makes one pass of a first-order `Stencil`."""
    laplacian_b = total([partial(partial(b, v), v) for v in names])
    return add(scale(gradient_dot(p, b, names), 2), mul(p, laplacian_b))


def integrate(p, var):
    """Antiderivative in `var` with zero constant term."""
    acc = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.get(var, 0) + 1
        d[var] = e
        acc[tuple(sorted(d.items()))] = c * Fraction(1, e)
    return Polynomial(acc)


def substitute(p, var, value):
    """Replace a variable by a Fraction, Scalar, or Polynomial."""
    if isinstance(value, (int, Fraction)):
        value = Polynomial.const(Scalar.from_fraction(value))
    elif isinstance(value, Scalar):
        value = Polynomial.const(value)
    powers = {0: Polynomial.const(1)}

    def vpow(k):
        if k not in powers:
            powers[k] = vpow(k - 1) * value
        return powers[k]

    def pieces():
        for m, c in p.terms.items():
            d = dict(m)
            e = d.pop(var, 0)
            rest = Polynomial({tuple(sorted(d.items())): c})
            yield rest * vpow(e) if e else rest

    return poly_sum(pieces())


def evaluate(p, point):
    """Exact value at a rational point (dict name -> Fraction/Scalar)."""
    total = ZERO
    for m, c in p.terms.items():
        v = c
        for name, e in m:
            if name not in point:
                raise KeyError("no value for variable %s" % name)
            q = point[name]
            if isinstance(q, Scalar):
                v = v * q**e
            else:
                v = v * (_as_fraction(q) ** e)
        total = total + v
    return total


def poly_text(p, ctx=None):
    """The text of p: the `terms` view sorted by `_grlex_key`, one Scalar a term."""
    rank = ctx.var_rank if ctx is not None else {}
    out = ""
    for m, c in sorted(p.terms.items(), key=lambda kv: _grlex_key(kv[0], rank)):
        mono = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in m)
        if not c.is_rational():
            t = "(%s)" % scalar_text(c) + ("*" + mono if mono else "")
        elif not mono or abs(c.as_fraction()) != 1:
            t = str(c.as_fraction()) + ("*" + mono if mono else "")
        else:
            t = mono if c.as_fraction() == 1 else "-" + mono
        out += t if not out else " - " + t[1:] if t.startswith("-") else " + " + t
    return out or "0"


def poly_latex(p, ctx=None):
    """The LaTeX of p: the `terms` view sorted by `_grlex_key`, one Scalar a term."""
    rank = ctx.var_rank if ctx is not None else {}
    out = ""
    for m, c in sorted(p.terms.items(), key=lambda kv: _grlex_key(kv[0], rank)):
        mono = " ".join(v if e == 1 else "%s^{%d}" % (v, e) for v, e in m)
        if not c.is_rational():
            t = "\\left(%s\\right)" % scalar_latex(c) + (" " + mono if mono else "")
        else:
            q = c.as_fraction()
            sign, q = ("-" if q < 0 else ""), abs(q)
            if mono and q == 1:
                t = sign + mono
            else:
                body = str(q) if q.denominator == 1 else "\\frac{%d}{%d}" % (q.numerator, q.denominator)
                t = sign + body + (" " + mono if mono else "")
        out += t if not out else " - " + t[1:] if t.startswith("-") else " + " + t
    return out or "0"


def fischer(pt, qt):
    """The Fischer pairing sum_a a! p_a q_a, a Fraction, of two rational
    polynomials given by their `terms` views."""
    pairs = ((m, c, qt[m]) for m, c in pt.items() if m in qt)
    return sum(
        (prod(factorial(e) for _, e in m) * a.as_fraction() * b.as_fraction() for m, a, b in pairs),
        Fraction(0),
    )


def fischer_parts_by_recursion(p, ctx):
    """{(m, j): h_(m,j)} with p = sum ||x||^(2j) h_(m,j), zero pieces dropped."""
    n2 = ctx.norm_sq_poly()

    def pieces(q, k):
        # dict j -> h_(k-2j) of q homogeneous of degree k, q nonzero
        lap = q.laplacian(ctx.coords)
        if k <= 1 or lap.is_zero():
            return {0: q}
        # Laplacian of ||x||^(2j) h_m is 2j(2m + n + 2j - 2) ||x||^(2j-2) h_m
        out = {
            i + 1: g.scale(Fraction(1, 2 * (i + 1) * (2 * k - 2 * (i + 1) + ctx.dim - 2)))
            for i, g in pieces(lap, k - 2).items()
        }
        out[0] = q - total([n2**j * h for j, h in out.items()])
        return {j: h for j, h in out.items() if not h.is_zero()}

    parts = p.homogeneous_parts(ctx.coords)
    return {(k - 2 * j, j): h for k, q in parts.items() for j, h in pieces(q, k).items()}


def first_coordinate_series(s, ctx):
    """sum_k (-1)^k (L D)^k s one term at a time: L integrates twice in the
    first coordinate, D is the Laplacian in the other coordinates."""
    first, rest = ctx.coords[0], ctx.coords[1:]
    terms, term = [], s
    while not term.is_zero():
        terms.append(term)
        term = neg(integrate(integrate(term.laplacian(rest), first), first))
    return total(terms)


def cauchy_basis(m, ctx):
    """(basis, parity classes) of `harmonic.basis_harmonic` without an inner
    product: the primitive series of each Cauchy monomial x1^eps x'^b, and
    the basis positions by parity of eps and of each exponent of b."""
    first, rest = ctx.coords[0], ctx.coords[1:]
    basis, classes = [], {}
    for eps in (0, 1):
        for mono in monomials(rest, [m - eps]):
            cauchy = Polynomial.var(first, eps) * Polynomial.from_raw([(mono, 1)])
            classes.setdefault((eps,) + tuple(v for v, e in mono if e % 2), []).append(len(basis))
            basis.append(first_coordinate_series(cauchy, ctx).content_primitive(ctx.var_rank)[1])
    return basis, classes


def fischer_orthonormal(basis, classes, c):
    """The basis orthonormalized under c times the Fischer pairing: Gram-Schmidt
    on Polynomials in each parity class, each vector w divided by
    sqrt(c [w, w])."""
    out = [None] * len(basis)
    for idx in classes.values():
        ortho = []  # (w, w.terms, [w, w])
        for i in idx:
            v = basis[i]
            vt = v.terms
            w = poly_sum([v] + [g.scale(-fischer(vt, gt) / gg) for g, gt, gg in ortho])
            wt = w.terms
            ortho.append((w, wt, fischer(wt, wt)))
            out[i] = w.scale(scalar_sqrt(c * ortho[-1][2]).inverse())
    return out


def integral_orthonormal(basis, ip, ctx):
    """The basis orthonormalized in order by Gram-Schmidt with one `ip` call
    (an integral) per Gram entry over the whole basis, each vector w
    divided by sqrt(ip(w, w))."""
    ortho = []
    for v in basis:
        w = v
        for g, gg in ortho:
            w = w - g.scale(ip(w, g, ctx) / gg)
        ww = ip(w, w, ctx)
        if not ww.is_single_term():
            what = "zero" if ww.is_zero() else "a multi-term scalar"
            raise UnsupportedScalarNorm("self inner product is " + what)
        ortho.append((w, ww))
    return [g.scale(scalar_sqrt(gg).inverse()) for g, gg in ortho]


def phi_numerators(ctx):
    """(numerators, denominator) of the south-pole inversion.

    The map is (2 x_1, ..., 2 x_(n-1), 1 - ||x||^2) over the common
    denominator ||x - southPole||^2; in split coordinates the denominator
    is (1 + y)^2 + ||x'||^2 and the last numerator is 1 - y^2 - ||x'||^2.
    """
    last = ctx.coords[-1]
    firsts = ctx.coords[:-1]
    den = poly_sum(
        [Polynomial.var(v, 2) for v in firsts]
        + [(Polynomial.var(last) + Polynomial.const(1)) ** 2]
    )
    nums = [Polynomial.var(v).scale(2) for v in firsts]
    nums.append(
        Polynomial.const(1)
        - Polynomial.var(last, 2)
        - poly_sum([Polynomial.var(v, 2) for v in firsts])
    )
    return nums, den


def kelvin_by_products(e, ctx, sphere):
    """The earlier pullback of `transforms._kelvin` through the sphere (c, r^2).

    A factor Q^(h/2), Q = |x - c|^2, goes to r^(2h) Q^(-h/2), and each
    monomial x^a of degree d to prod N_i^(a_i) Q^(-d), N and Q the
    numerators and denominator of `transforms._invert`: every numerator
    power and every product is formed.
    """
    n = ctx.dim
    center, r2 = sphere
    nums, q = _invert([Polynomial.var(v) for v in ctx.coords], sphere)
    bid = ctx.register_base(q)[0]
    front = Scalar.half_power(r2, n - 2)
    raw = []
    for poly, fac in e.terms:
        h = fac[0][1] if fac else 0
        poly = poly.scale(front * r2**h)
        for exps, piece in poly.coefficients(ctx.coords).items():
            for num, a in zip(nums, exps):
                piece = piece * num**a
            raw.append((piece, ((bid, 2 - n - 2 * sum(exps) - h, 0),)))
    return Expr._from_raw(ctx, raw)


def graded_parts_by_parameter(p, ctx, about):
    """The earlier expansion of `calculus._graded_parts` about a point b:
    x_i -> b_i + t (x_i - b_i) is substituted for every coordinate, and the
    degree-m part is the coefficient of t^m, read off at t = 1."""
    t = " t"  # no DSL name contains a space
    for v, a in zip(ctx.coords, about):
        b = Polynomial.var(a) if isinstance(a, str) else Polynomial.const(a)
        p = p.substitute(v, b + Polynomial.var(t) * (Polynomial.var(v) - b))
    return {m: part.substitute(t, 1) for m, part in p.homogeneous_parts([t]).items()}


def shift(ctx, poly, fd, mins):
    """poly times base_b^((h_b - mins[b])/2), h_b the half power of b in fd."""
    for b, low in mins.items():
        k = (fd.get(b, (0, 0))[0] - low) // 2
        if k:
            poly = poly * ctx.base_poly(b) ** k
    return poly


def canonical_terms(ctx, raw):
    """The terms of `Expr._from_raw(ctx, raw)`: each group's members shifted
    one by one and summed, then each base divided out of the whole sum
    while the group's log power or a negative half power asks for it.

    The shifted sums are large, so this uses the library's product, sum
    and `divide_exact`, which the oracles above check on their own."""
    groups = {}
    for poly, fac in raw:
        if poly.is_zero():
            continue
        fd = {}
        for b, h, j in fac:
            h0, j0 = fd.get(b, (0, 0))
            fd[b] = (h0 + h, j0 + j)
        for b, (h, j) in list(fd.items()):
            if j == 0 and h >= 0 and h % 2 == 0:
                if h:
                    poly = poly * ctx.base_poly(b) ** (h // 2)
                del fd[b]
        sig = tuple(sorted((b, h & 1, j) for b, (h, j) in fd.items() if (h & 1, j) != (0, 0)))
        groups.setdefault(sig, []).append((poly, fd))
    out = []
    for members in groups.values():
        bases = sorted({b for _, fd in members for b in fd})
        mins = {b: min(fd.get(b, (0, 0))[0] for _, fd in members) for b in bases}
        logs = {b: max(fd.get(b, (0, 0))[1] for _, fd in members) for b in bases}
        tot = poly_sum(shift(ctx, poly, fd, mins) for poly, fd in members)
        if tot.is_zero():
            continue
        for b in bases:
            while logs[b] or mins[b] < 0:
                q = tot.divide_exact(ctx.base_poly(b), ctx.var_rank)
                if q is None:
                    break
                tot, mins[b] = q, mins[b] + 2
        factors = []
        for b in bases:
            h, j = mins[b], logs[b]
            if j == 0 and h >= 0 and h % 2 == 0:
                if h:
                    tot = tot * ctx.base_poly(b) ** (h // 2)
            else:
                factors.append((b, h, j))
        out.append((tot, tuple(factors)))
    return tuple(sorted(out, key=lambda t: t[1]))


def _antideriv_power_log(coeff, q, k):
    """Antiderivative of coeff * s^q log^k s with zero constant term.

    Returns a list of (coeff, exponent, log power) triples.  For q != -1
    this also equals the integral from 0 when that converges.
    """
    if q == -1:
        return [(coeff * Fraction(1, k + 1), 0, k + 1)]
    out = []
    fall = Fraction(1)
    for i in range(k + 1):
        c = coeff * fall * Fraction((-1) ** i, (q + 1) ** (i + 1))
        out.append((c, q + 1, k - i))
        fall *= k - i
    return out


def radial_ode_solution(m, a, k, ctx):
    """Closed form h with laplacian of h(||x||) q_m = r^a log^k r q_m.

    Solves t h'' + (2m + n - 1) h' = t^(a+1) log^k t by two symbolic
    antiderivative passes; any admissible constant choices differ from this
    one by a harmonic function, so the defining contract is unaffected.
    Returns (coeff, exponent, log power) triples, like terms combined.
    """
    n = ctx.dim
    out = {}
    for c, e, kk in _antideriv_power_log(Fraction(1), 2 * m + n - 1 + a, k):
        for c2, e2, k2 in _antideriv_power_log(c, e + 1 - 2 * m - n, kk):
            out[e2, k2] = out.get((e2, k2), 0) + c2
    return [(c, e, kk) for (e, kk), c in out.items() if c]


class FactorParser(_Parser):
    """The expression grammar of `harmcalc.parser`, one canonical Expr per
    atom, power and product, and one canonicalization of each sum's
    canonical summands."""

    def expr(self):
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        e = self.term()
        summands = [-e if negate else e]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            summands.append(rhs if op.kind == "+" else -rhs)
        if len(summands) == 1:
            return summands[0]
        return Expr._from_raw(self.ctx, [t for s in summands for t in s.terms])

    def term(self):
        e = self.factor()
        while self.peek().kind == "*":
            self.advance()
            e = e * self.factor()
        return e

    def factor(self):
        t = self.peek()
        kind, payload = self.atom()
        exp = self.power()
        if kind == "norm":
            names, k = payload
            return self._norm_power(names, k * exp)
        if exp >= 0:
            return payload**exp
        if payload.is_polynomial():
            poly = payload.as_polynomial()
            if poly.is_zero():
                raise ParseError("division by zero", t.line, t.col)
            if poly.is_constant():
                return Expr.from_scalar(self.ctx, poly.constant_term().inverse() ** (-exp))
        raise UnsupportedInputError("negative powers are supported on norms and rationals only")

    def atom(self):
        """("value", Expr), or ("norm", (names, k)) for ||v||^k."""
        t = self.peek()
        if t.kind == "int":
            return "value", Expr.from_scalar(self.ctx, Scalar.from_fraction(self.rational()))
        if t.kind == "norm_bars":
            self.advance()
            (names,) = self._vectors("norm_bars")
            return "norm", (names, 1)
        if t.kind == "ident":
            self.advance()
            word = t.text
            if word in ("norm", "norm2") and self.peek().kind == "(":
                self.advance()
                (names,) = self._vectors(")")
                return "norm", (names, 1 if word == "norm" else 2)
            if word == "log" and self.peek().kind == "(":
                self.advance()
                kind, payload = self.atom()
                self.expect(")", ")")
                return "value", self._log_atom(kind, payload, t)
            if word == "dot" and self.peek().kind == "(":
                self.advance()
                av, bv = self._vectors(",", ")")
                if len(av) != len(bv):
                    raise UnsupportedInputError("dot of unequal-length vectors")
                return "value", Expr.from_poly(self.ctx, dot_poly(av, bv))
            if word in self.ctx.var_rank:
                return "value", Expr.from_poly(self.ctx, Polynomial.var(word))
            raise UnknownVariable(
                "unknown variable %r (line %d, column %d)" % (word, t.line, t.col)
            )
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")", ")")
            return "value", e
        self.fail(("number", "variable", "norm", "log", "dot", "("))

    def _log_atom(self, kind, payload, tok):
        if kind == "norm":
            names, k = payload
            return self._norm_power(names, 0, 1).scale(Fraction(k, 2))
        if payload.is_polynomial():
            poly = payload.as_polynomial()
            if poly.is_constant():
                c = poly.constant_term()
                if c.is_rational() and c.as_fraction() > 0:
                    return Expr.from_scalar(self.ctx, Scalar.log_fraction(c.as_fraction()))
        raise UnsupportedInputError(
            "log supports norms and positive rationals (line %d, column %d)"
            % (tok.line, tok.col)
        )


def parse_by_factors(src, ctx, vectors=None):
    """`parser.parse_expression` read by `FactorParser`."""
    table = {ctx.vec_label: ctx.coords}
    if vectors:
        table.update(vectors)
    try:
        return FactorParser(src, ctx, table).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def tokenize_by_characters(src):
    """`parser._tokenize` as (kind, text, line, column) tuples."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if src.startswith("||", i):
            tokens.append(("norm_bars", "||", line, col))
            i += 2
            col += 2
            continue
        # isdecimal, not isdigit: Decimal reads every decimal digit, but
        # superscript and circled digits are not decimal
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^(),/":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("eof", "", line, col))
    return tokens


# the weight of each second-order map, by the marker the library passes
SECOND_ORDER_WEIGHTS = {
    laplace_weight: lambda a, b: (a + b) * (a + b - 1),
    gradient_weight: lambda a, b: a * b,
    first_order_weight: lambda a, b: 2 * a * b + b * (b - 1),
}


def second_order(nums, lay, names, ka, weight):
    """{key: int}: the sum over terms n x^b of nums and v in names of
    w(a_v, b_v) n x^(a + b - 2 e_v), x^a packed in ka and keys in lay,
    which holds a + b, w the weight of the marker `weight`.  The weight
    vanishes unless a_v + b_v >= 2; for the gradient it vanishes where
    a_v = 0, so only the variables of x^a are visited.  The first-order
    weight 2 a b + b (b - 1) vanishes where b_v = 0 or a_v = 0, b_v = 1."""
    mask = lay.mask
    w_of = SECOND_ORDER_WEIGHTS[weight]
    fields = [(lay.shift[v], 2 * lay.unit[v], (ka >> lay.shift[v]) & mask) for v in names if v in lay.shift]
    if weight is gradient_weight:
        fields = [f for f in fields if f[2]]
    out = {}
    for kb, n in nums.items():
        for s, two, a in fields:
            w = w_of(a, (kb >> s) & mask)
            if w:
                k = ka + kb - two
                out[k] = out.get(k, 0) + n * w
    return out


def _block_poly(lay, pairs):
    """The sum of the (key in lay, Scalar) pairs, read back through monomial tuples."""
    return Polynomial.from_raw([(lay.unpack(k), c) for k, c in pairs])


def laplacian_by_blocks(p, names):
    """The Laplacian of p in names: `second_order` of each block at x^0."""
    pairs = []
    for sig, (den, nums) in p.blocks.items():
        for k, n in second_order(nums, p.layout, names, 0, laplace_weight).items():
            if n:
                pairs.append((k, Scalar(((Fraction(n, den),) + sig,))))
    return _block_poly(p.layout, pairs)


def gradient_dot_by_terms(p, q, names):
    """grad p . grad q in names: `second_order` of each block of p against
    each term of each block of q, the coefficients multiplied as Scalars."""
    lay = _join(p.layout, q.layout, p.total_degree() + q.total_degree())
    pairs = []
    for sa, (da, ta) in _rekey(p, lay).items():
        for sb, (db, tb) in _rekey(q, lay).items():
            for kb, nb in tb.items():
                cb = Scalar(((Fraction(nb, db),) + sb,))
                for k, n in second_order(ta, lay, names, kb, gradient_weight).items():
                    if n:
                        pairs.append((k, Scalar(((Fraction(n, da),) + sa,)) * cb))
    return _block_poly(lay, pairs)


def paired_rows_by_terms(lay, groups, constants, names):
    """Every row of the system `linalg.paired_rows` writes whole blocks of,
    one `second_order` image per unknown and use, each scaled by its
    constraint's factor as it goes and added into the unknown's image."""
    blocks = [[(k, weight, q.rational_block(lay)) for k, q, weight in uses] for _, uses in groups]
    rhs = [c.rational_block(lay) for c in constants]
    scales = [den for den, _ in rhs]
    for k, _, (den, _) in (use for uses in blocks for use in uses):
        scales[k] = lcm(scales[k], den)
    rows = {}
    unknowns = [(ka, uses) for (keys, _), uses in zip(groups, blocks) for ka in keys]
    for j, (ka, uses) in enumerate(unknowns):
        # the images of x^a under its uses add up, row by row
        image = {}
        for k, weight, (den, nums) in uses:
            f = scales[k] // den
            if weight is None:
                one = {ka + kb: n for kb, n in nums.items()}
            else:
                one = second_order(nums, lay, names, ka, weight)
            for key, n in one.items():
                image[k, key] = image.get((k, key), 0) + n * f
        for row, n in image.items():
            if n:
                rows.setdefault(row, {})[j] = n
    cols = len(unknowns)
    for k, (den, nums) in enumerate(rhs):
        for key, n in nums.items():
            rows.setdefault((k, key), {})[cols] = n * (scales[k] // den)
    out = []
    for row in rows.values():
        content = gcd(*row.values())
        out.append({c: v // content for c, v in row.items()} if content > 1 else row)
    return out, cols
