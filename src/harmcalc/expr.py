"""Multivariate polynomials over exact Scalars, and the expression algebra.

An Expr is a sum of terms, each a Polynomial times registered base-polynomial
factors raised to half-integer powers and log powers:

    poly * prod_b base_b^(half_b/2) * log(base_b)^logpow_b

The default base is normSq = sum of squared coordinates, so ||x||^h is
normSq^(h/2).  Canonicalization gives a decidable zero test: terms are
grouped by per-base (parity, log power) signature, brought to a common
denominator in integer base powers, and the resulting polynomial is tested
for zero.  Even nonnegative base powers with no log factor are expanded
into the polynomial part.

Polynomials are stored as {monomial tuple: Scalar}.  A product does not
multiply Scalars term by term.  Each call packs every monomial into one
int, a bit field per variable in name order, wide enough for the sum of
the two operands' largest exponents, so the product of two monomials is
the sum of their keys.  Each operand splits by Scalar signature (radicand,
pi half-exponent, logs) into blocks of integer numerators over one common
denominator; every pair of blocks multiplies with ints only, and the keys
are unpacked into monomial tuples once, at the end.

`Polynomial.divide_exact` divides by a rational-coefficient polynomial and
returns the quotient only if the division is exact, else None.  Each
signature block of the dividend is divided on its own by heap long
division on packed keys under a graded order, with a guard bit above each
field to test monomial divisibility (Monagan and Pearce, "Sparse
polynomial division using a heap", J. Symb. Comp. 2011).  An exact
quotient is unique, so it does not depend on the monomial order.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionMismatch,
    NegativeBaseValue,
    NonRationalValue,
    UnsupportedBase,
    UnsupportedDimension,
    UnsupportedInputError,
    ZeroBaseValue,
)
from .scalar import ONE, ZERO, Scalar, _as_fraction, _merge_logs, power

# ---------------------------------------------------------------------------
# monomials: tuples of (variable name, positive exponent), sorted by name

EMPTY_MONO = ()


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


def mono_degree(m):
    return sum(e for _, e in m)


def mono_from_dict(d):
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _grlex_key(mono, rank):
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


def monomials(names, degrees):
    """Monomials in names of each total degree in degrees, ascending graded-lex.

    Within a degree the exponent vectors, in names order, ascend
    lexicographically, as under `_grlex_key` for coordinates `names`;
    ansatz solves rely on this column order.
    """
    names = tuple(names)
    out = []

    def rec(i, left, acc):
        if i == len(names):
            if left == 0:
                out.append(mono_from_dict(acc))
        else:
            for e in range(left + 1):
                rec(i + 1, left - e, {**acc, names[i]: e})

    for deg in degrees:
        rec(0, deg, {})
    return out


class Polynomial:
    """Sparse polynomial with Scalar coefficients.  Treated as immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", dict(terms) if terms else {})

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero():
        return Polynomial()

    @staticmethod
    def const(c):
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        if c.is_zero():
            return Polynomial()
        return Polynomial({EMPTY_MONO: c})

    @staticmethod
    def var(name, exp=1):
        if exp == 0:
            return Polynomial.const(1)
        return Polynomial({((name, exp),): ONE})

    @staticmethod
    def from_raw(pairs):
        acc = {}
        for mono, coeff in pairs:
            coeff = coeff if isinstance(coeff, Scalar) else Scalar.from_fraction(coeff)
            if mono in acc:
                acc[mono] = acc[mono] + coeff
            else:
                acc[mono] = coeff
        return Polynomial({m: c for m, c in acc.items() if not c.is_zero()})

    # -- predicates / access ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONO in self.terms)

    def constant_term(self):
        return self.terms.get(EMPTY_MONO, ZERO)

    def coefficient(self, mono):
        return self.terms.get(mono, ZERO)

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def total_degree(self):
        return max((mono_degree(m) for m in self.terms), default=0)

    def rational_terms(self):
        return {m: c.as_fraction() for m, c in self.terms.items()}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Polynomial, int, Fraction, Scalar)):
            return NotImplemented
        other = _as_poly(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for m, c in other.terms.items():
            if m in acc:
                s = acc[m] + c
                if s.is_zero():
                    del acc[m]
                else:
                    acc[m] = s
            else:
                acc[m] = c
        return Polynomial(acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Polynomial, int, Fraction, Scalar)):
            return NotImplemented
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # a field holds the largest exponent sum, so adding keys never carries
        ma, mb = _max_exponents(self), _max_exponents(other)
        units = {}
        fields = []
        shift = 0
        for v in sorted(ma.keys() | mb.keys()):
            width = (ma.get(v, 0) + mb.get(v, 0)).bit_length()
            units[v] = 1 << shift
            fields.append((v, shift, (1 << width) - 1))
            shift += width
        parts = []
        blocks = _split(other, units)
        for (ra, pa, la), da, ta in _split(self, units):
            for (rb, pb, lb), db, tb in blocks:
                acc = {}
                get = acc.get
                for ka, na in ta:
                    for kb, nb in tb:
                        k = ka + kb
                        acc[k] = get(k, 0) + na * nb
                g = gcd(ra, rb)
                basis = ((ra // g) * (rb // g), pa + pb, _merge_logs(la, lb))
                parts.append((acc.items(), g, da * db, basis))
        return _assemble(parts, fields)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        if c.is_zero():
            return Polynomial()
        return Polynomial({m: co * c for m, co in self.terms.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return power(self, k, Polynomial.const(1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if self.is_constant():
            return hash(self.constant_term())
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

    def __repr__(self):
        from .render import poly_text

        return "Polynomial(%s)" % poly_text(self)

    # -- calculus helpers ----------------------------------------------------

    def partial(self, var):
        acc = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0)
            if not e:
                continue
            if e == 1:
                del d[var]
            else:
                d[var] = e - 1
            nm = tuple(sorted(d.items()))
            nc = c * e
            if nm in acc:
                acc[nm] = acc[nm] + nc
            else:
                acc[nm] = nc
        return Polynomial({m: c for m, c in acc.items() if not c.is_zero()})

    def integrate(self, var):
        """Antiderivative in `var` with zero constant term."""
        acc = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0) + 1
            d[var] = e
            acc[tuple(sorted(d.items()))] = c * Fraction(1, e)
        return Polynomial(acc)

    def substitute(self, var, value):
        """Replace a variable by a Fraction, Scalar, or Polynomial."""
        if isinstance(value, (int, Fraction)):
            value = Polynomial.const(Scalar.from_fraction(value))
        elif isinstance(value, Scalar):
            value = Polynomial.const(value)
        out = Polynomial()
        powers = {0: Polynomial.const(1)}

        def vpow(k):
            if k not in powers:
                powers[k] = vpow(k - 1) * value
            return powers[k]

        for m, c in self.terms.items():
            d = dict(m)
            e = d.pop(var, 0)
            rest = Polynomial({tuple(sorted(d.items())): c})
            out = out + (rest * vpow(e) if e else rest)
        return out

    def eval(self, point):
        """Exact value at a rational point (dict name -> Fraction/Scalar)."""
        total = ZERO
        for m, c in self.terms.items():
            v = c
            for name, e in m:
                if name not in point:
                    raise KeyError("no value for variable %s" % name)
                p = point[name]
                if isinstance(p, Scalar):
                    v = v * p**e
                else:
                    v = v * (_as_fraction(p) ** e)
            total = total + v
        return total

    def homogeneous_parts(self, names=None):
        """Split by total degree (or degree in `names`): dict deg -> part."""
        names = None if names is None else set(names)
        parts = {}
        for m, c in self.terms.items():
            d = mono_degree(m) if names is None else sum(e for v, e in m if v in names)
            parts.setdefault(d, {})[m] = c
        return {d: Polynomial(t) for d, t in parts.items()}

    def leading(self, rank):
        mono = max(self.terms, key=lambda m: _grlex_key(m, rank))
        return mono, self.terms[mono]

    def content_primitive(self, rank):
        """Write self = content * primitive with integer primitive part.

        Requires rational coefficients.  The primitive part has coprime
        integer coefficients and a positive leading coefficient.
        """
        rat = self.rational_terms()
        if not rat:
            return Fraction(0), Polynomial()
        num = 0
        den = 1
        for c in rat.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        content = Fraction(num, den)
        _, lead = self.leading(rank)
        if lead.as_fraction() < 0:
            content = -content
        prim = Polynomial(
            {m: Scalar.from_fraction(c / content) for m, c in rat.items()}
        )
        return content, prim

    def divide_exact(self, divisor, rank):
        """Quotient self/divisor if the division is exact, else None.

        The divisor must have rational coefficients.  The quotient of an
        exact division is unique, so it does not depend on a monomial
        order, and `rank` is not read.  Each signature block of self is
        divided separately by heap long division on packed keys.
        """
        from heapq import heapify, heappop, heappush

        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial()
        top = self.total_degree()
        if top < divisor.total_degree():
            return None
        # Every monomial the division meets has total degree <= top, so
        # `width` bits hold any exponent.  One guard bit above each field
        # catches a borrow, and the total degree sits in the highest field,
        # so packed keys compare in graded order.
        width = top.bit_length()
        names = sorted(self.variables() | divisor.variables())
        deg_unit = 1 << (len(names) * (width + 1))
        units = {}
        fields = []
        for i, v in enumerate(names):
            units[v] = (1 << i * (width + 1)) + deg_unit
            fields.append((v, i * (width + 1), (1 << width) - 1))
        guards = sum(1 << (i * (width + 1) + width) for i in range(len(names) + 1))
        blocks = _split(divisor, units)
        if [basis for basis, _, _ in blocks] != [(1, 0, ())]:
            raise NonRationalValue("divide_exact needs a rational divisor")
        (_, dden, dterms), = blocks
        content = 0
        for _, n in dterms:
            content = gcd(content, n)
        dterms = sorted(((k, n // content) for k, n in dterms), reverse=True)
        (lead_k, lead_n), tail = dterms[0], dterms[1:]
        parts = []
        for basis, den, items in _split(self, units):
            rem = dict(items)
            heap = [-k for k in rem]
            heapify(heap)
            quot = []
            while heap:
                k = -heappop(heap)
                c = rem.pop(k)
                if not c:
                    continue
                qk = k - lead_k
                if qk & guards:
                    return None
                qn, r = divmod(c, lead_n)
                if r:
                    # the divisor is primitive, so an exact quotient of an
                    # integer block has integer coefficients (Gauss)
                    return None
                quot.append((qk, qn))
                for tk, tn in tail:
                    t = qk + tk
                    prev = rem.get(t)
                    if prev is None:
                        rem[t] = -qn * tn
                        heappush(heap, -t)
                    else:
                        rem[t] = prev - qn * tn
            parts.append((quot, dden, den * content, basis))
        return _assemble(parts, fields)


def _max_exponents(poly):
    out = {}
    for m in poly.terms:
        for v, e in m:
            if e > out.get(v, 0):
                out[v] = e
    return out


def _split(poly, units):
    """Signature blocks [(basis, denominator, [(key, numerator)])] of poly.

    A monomial packs to the sum of exponent * units[variable].  A basis is
    a Scalar signature (radicand, pi half-exponent, logs); its block holds
    the rational polynomial multiplying it, as integer numerators over one
    common denominator.
    """
    blocks = {}
    for m, s in poly.terms.items():
        k = 0
        for v, e in m:
            k += e * units[v]
        for c, rad, pih, logs in s.terms:
            sig = (rad, pih, logs)
            block = blocks.get(sig)
            if block is None:
                blocks[sig] = [(k, c)]
            else:
                block.append((k, c))
    out = []
    for sig, block in blocks.items():
        den = 1
        for _, c in block:
            d = c.denominator
            if den % d:
                den = den // gcd(den, d) * d
        out.append((sig, den, [(k, c.numerator * (den // c.denominator)) for k, c in block]))
    return out


def _assemble(parts, fields):
    """The Polynomial sum over parts of factor/den * basis * sum(n * key).

    Each part is (pairs of (key, int n), int factor, int den, basis).  Keys
    unpack through fields of (name, shift, mask), in name order; within
    one call each (name, exponent) pair is one shared tuple.
    """
    decoders = [(v, shift, mask, {}) for v, shift, mask in fields]
    out = {}
    for pairs, factor, den, (rad, pih, logs) in parts:
        for k, n in pairs:
            if not n:
                continue
            mono = []
            for v, shift, mask, shared in decoders:
                e = (k >> shift) & mask
                if e:
                    pair = shared.get(e)
                    if pair is None:
                        pair = shared[e] = (v, e)
                    mono.append(pair)
            mono = tuple(mono)
            c = Fraction(n * factor) if den == 1 else Fraction(n * factor, den)
            coeff = Scalar(((c, rad, pih, logs),))
            prev = out.get(mono)
            if prev is not None:
                # another signature pair hit this monomial
                coeff = prev + coeff
                if coeff.is_zero():
                    del out[mono]
                    continue
            out[mono] = coeff
    return Polynomial(out)


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction, Scalar)):
        return Polynomial.const(x)
    raise TypeError("cannot treat %r as a Polynomial" % (x,))


def poly_sum(ps):
    out = Polynomial()
    for p in ps:
        out = out + p
    return out


def dot_poly(a_names, b_names):
    """The dot product sum a_i*b_i of two blocks of variables."""
    return poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(a_names, b_names)])


# ---------------------------------------------------------------------------
# context


class Context:
    """Ambient dimension, coordinate names, auxiliary symbols, base registry.

    The registry is append-only; registering the same polynomial twice
    returns the same id.  Base polynomials are stored primitive (integer
    coefficients, content 1, positive leading coefficient); the rational
    content extracted at registration is returned so callers can fold
    content^(half/2) into Scalar coefficients.
    """

    def __init__(self, dim, coords=None, extra=(), vec_label="x"):
        if dim < 1:
            raise UnsupportedDimension("dimension must be positive")
        if coords is None:
            coords = tuple("%s%d" % (vec_label, i + 1) for i in range(dim))
        coords = tuple(coords)
        if len(coords) != dim:
            raise DimensionMismatch("need %d coordinate names, got %d" % (dim, len(coords)))
        extra = tuple(extra)
        if len(set(coords)) != dim or set(coords) & set(extra):
            raise UnsupportedInputError("coordinate and auxiliary names must all differ")
        self.dim = dim
        self.coords = coords
        self.extra = extra
        self.vec_label = vec_label
        self.var_rank = {v: i for i, v in enumerate(coords + extra)}
        self._bases = []
        self._base_index = {}
        self._base_names = []
        self._registry_lock = threading.Lock()
        norm = poly_sum([Polynomial.var(v, 2) for v in coords])
        self.norm_base = self.register_base(norm, name="normSq(%s)" % vec_label)[0]

    def _base_key(self, prim):
        return tuple(sorted(prim.rational_terms().items()))

    def register_base(self, poly, name=None):
        """Register a squarefree rational-coefficient base polynomial.

        Returns (base_id, content) with poly = content * stored primitive.
        The registry is append-only; re-registering returns the same id.
        """
        if poly.is_constant():
            raise UnsupportedBase("constant polynomials cannot be bases")
        content, prim = poly.content_primitive(self.var_rank)
        key = self._base_key(prim)
        with self._registry_lock:
            bid = self._base_index.get(key)
            if bid is None:
                bid = len(self._bases)
                self._bases.append(prim)
                self._base_index[key] = bid
                self._base_names.append(name)
        return bid, content

    def base_poly(self, bid):
        return self._bases[bid]

    def base_name(self, bid):
        return self._base_names[bid]

    def norm_sq_poly(self, names=None):
        return poly_sum([Polynomial.var(v, 2) for v in (names or self.coords)])

    def __repr__(self):
        return "Context(dim=%d, coords=%s, extra=%s)" % (
            self.dim,
            list(self.coords),
            list(self.extra),
        )


def make_context(dim, extra_vecs=(), extra=(), vec_label="x", coords=None):
    """Context helper: extra_vecs adds y1..y_dim style auxiliary blocks."""
    names = list(extra)
    for label in extra_vecs:
        names.extend("%s%d" % (label, i + 1) for i in range(dim))
    return Context(dim, coords=coords, extra=tuple(names), vec_label=vec_label)


# ---------------------------------------------------------------------------
# expressions


class Expr:
    """Canonical sum of polynomial-times-base-power terms, bound to a Context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", terms)

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(ctx):
        return Expr(ctx, ())

    @staticmethod
    def from_poly(ctx, poly):
        return Expr._from_raw(ctx, [(poly, ())])

    @staticmethod
    def from_scalar(ctx, s):
        return Expr.from_poly(ctx, Polynomial.const(s))

    @staticmethod
    def make(ctx, poly, factors):
        """One term with explicit (base_id, half_exp, log_pow) factors."""
        return Expr._from_raw(ctx, [(poly, tuple(factors))])

    @staticmethod
    def norm_power(ctx, half, log_pow=0):
        """||x||^half * log(||x||^2)^log_pow as an Expr."""
        return Expr.make(
            ctx, Polynomial.const(1), [(ctx.norm_base, half, log_pow)]
        )

    @staticmethod
    def base_power(ctx, base_poly, half, log_pow=0):
        """base_poly^(half/2) * log(base_poly)^log_pow, handling content.

        The registered primitive P satisfies base_poly = c*P; the result is
        c^(half/2) * P^(half/2) * (log c + log P)^log_pow.
        """
        bid, content = ctx.register_base(base_poly)
        if content < 0 and (half % 2 or log_pow):
            raise NegativeBaseValue(
                "half powers and logs need a positive-content base"
            )
        if half % 2 == 0:
            cs = Scalar.from_fraction(content ** (half // 2))
        else:
            cs = Scalar.sqrt_fraction(content) ** half
        out = []
        if log_pow == 0:
            out.append((Polynomial.const(cs), ((bid, half, 0),)))
        else:
            logc = Scalar.log_fraction(content)
            from math import comb

            for i in range(log_pow + 1):
                coeff = cs * Scalar.from_fraction(comb(log_pow, i)) * logc**i
                out.append(
                    (Polynomial.const(coeff), ((bid, half, log_pow - i),))
                )
        return Expr._from_raw(ctx, out)

    # -- canonicalization ---------------------------------------------------

    @staticmethod
    def _from_raw(ctx, raw_terms):
        rank = ctx.var_rank
        work = []
        for poly, fac in raw_terms:
            if poly.is_zero():
                continue
            nf = []
            for b, h, j in fac:
                if h == 0 and j == 0:
                    continue
                if j == 0 and h > 0 and h % 2 == 0:
                    poly = poly * ctx.base_poly(b) ** (h // 2)
                else:
                    nf.append((b, h, j))
            work.append((poly, tuple(sorted(nf))))

        groups = {}
        for poly, nf in work:
            sig = tuple(
                sorted((b, h & 1, j) for b, h, j in nf if (h & 1, j) != (0, 0))
            )
            groups.setdefault(sig, []).append((poly, dict((b, (h, j)) for b, h, j in nf)))

        out_terms = []
        for sig, members in sorted(groups.items()):
            base_ids = set()
            for _, fd in members:
                base_ids.update(fd)
            mins = {}
            logps = {}
            for b in base_ids:
                hs = [fd.get(b, (0, 0))[0] for _, fd in members]
                if any(b not in fd for _, fd in members):
                    hs.append(0)
                mins[b] = min(hs)
                js = {fd.get(b, (0, 0))[1] for _, fd in members}
                if len(js) != 1:
                    raise AssertionError("log powers differ inside a group")
                logps[b] = js.pop()
            total = Polynomial()
            for poly, fd in members:
                for b in base_ids:
                    h = fd.get(b, (0, 0))[0]
                    shift = (h - mins[b]) // 2
                    if shift:
                        poly = poly * ctx.base_poly(b) ** shift
                total = total + poly
            if total.is_zero():
                continue
            # pull out base divisors so the representative is unique
            changed = True
            while changed:
                changed = False
                for b in sorted(base_ids):
                    if logps[b] == 0 and mins[b] >= 0:
                        continue
                    bp = ctx.base_poly(b)
                    if total.total_degree() < bp.total_degree():
                        continue
                    q = total.divide_exact(bp, rank)
                    if q is not None:
                        total = q
                        mins[b] += 2
                        changed = True
            factors = []
            for b in sorted(base_ids):
                h, j = mins[b], logps[b]
                if j == 0 and h >= 0 and h % 2 == 0:
                    if h:
                        total = total * ctx.base_poly(b) ** (h // 2)
                elif h == 0 and j == 0:
                    continue
                else:
                    factors.append((b, h, j))
            out_terms.append((total, tuple(factors)))

        out_terms.sort(key=lambda t: t[1])
        merged = []
        i = 0
        while i < len(out_terms):
            poly, fac = out_terms[i]
            j = i + 1
            while j < len(out_terms) and out_terms[j][1] == fac:
                poly = poly + out_terms[j][0]
                j += 1
            if not poly.is_zero():
                merged.append((poly, fac))
            i = j
        return Expr(ctx, tuple(merged))

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_polynomial(self):
        return all(not fac for _, fac in self.terms)

    def as_polynomial(self):
        if not self.terms:
            return Polynomial()
        if not self.is_polynomial():
            raise UnsupportedBase("expression carries base factors")
        return poly_sum([p for p, _ in self.terms])

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("expressions from different contexts")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Expr._from_raw(self.ctx, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.ctx, tuple((-p, f) for p, f in self.terms))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        raw = []
        for p1, f1 in self.terms:
            for p2, f2 in other.terms:
                fd = dict((b, (h, j)) for b, h, j in f1)
                for b, h, j in f2:
                    h0, j0 = fd.get(b, (0, 0))
                    fd[b] = (h0 + h, j0 + j)
                raw.append(
                    (p1 * p2, tuple((b, h, j) for b, (h, j) in sorted(fd.items())))
                )
        return Expr._from_raw(self.ctx, raw)

    __rmul__ = __mul__

    def scale(self, c):
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        return Expr._from_raw(self.ctx, [(p.scale(c), f) for p, f in self.terms])

    def __truediv__(self, c):
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        return self.scale(c.inverse())

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("expression exponent must be a nonnegative integer")
        return power(self, k, Expr.from_poly(self.ctx, Polynomial.const(1)))

    def _coerce(self, x):
        if isinstance(x, Expr):
            return x
        if isinstance(x, Polynomial):
            return Expr.from_poly(self.ctx, x)
        if isinstance(x, (int, Fraction, Scalar)):
            return Expr.from_scalar(self.ctx, x)
        raise TypeError("cannot treat %r as an Expr" % (x,))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # with no base factors an Expr equals its polynomial, so hash as it
        if self.is_polynomial():
            return hash(self.as_polynomial())
        return hash(self.terms)

    def __repr__(self):
        from .render import expr_text

        return "Expr(%s)" % expr_text(self)


# ---------------------------------------------------------------------------
# norm-specific operations


def substitute_norm_radius(e, r, ctx=None):
    """Replace normSq^(h/2) by r^h and log(normSq)^j by (2 log r)^j.

    Only registered norm factors are touched; polynomial parts are left
    alone (they do not constrain the coordinates).
    """
    ctx = ctx or e.ctx
    r = _as_fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    nb = ctx.norm_base
    raw = []
    for poly, fac in e.terms:
        coeff = ONE
        keep = []
        for b, h, j in fac:
            if b != nb:
                keep.append((b, h, j))
                continue
            coeff = coeff * Scalar.from_fraction(r**h)
            if j:
                if r == 1:
                    coeff = ZERO
                else:
                    coeff = coeff * (
                        Scalar.from_fraction(2) * Scalar.log_fraction(r)
                    ) ** j
        if coeff.is_zero():
            continue
        raw.append((poly.scale(coeff), tuple(keep)))
    return Expr._from_raw(ctx, raw)


def reduce_poly_on_sphere(poly, names, radius_sq=1):
    """Reduce a polynomial modulo sum(names^2) = radius_sq.

    Substitutes last^2 -> radius_sq - sum of the other squares until no
    monomial is divisible by last^2; the result is the canonical
    representative of the restriction.
    """
    names = tuple(names)
    last = names[-1]
    radius_sq = _as_fraction(radius_sq)
    rest = (
        Polynomial.const(radius_sq)
        - poly_sum([Polynomial.var(v, 2) for v in names[:-1]])
    ).terms
    out = {}
    todo = dict(poly.terms)
    while todo:
        redo = {}
        for m, c in todo.items():
            d = dict(m)
            e = d.get(last, 0)
            if e < 2:
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
                continue
            if e == 2:
                del d[last]
            else:
                d[last] = e - 2
            head = tuple(sorted(d.items()))
            for rm, rc in rest.items():
                nm = mono_mul(head, rm)
                nc = c * rc
                prev = redo.get(nm)
                redo[nm] = nc if prev is None else prev + nc
        todo = {m: c for m, c in redo.items() if not c.is_zero()}
    return Polynomial({m: c for m, c in out.items() if not c.is_zero()})


def restrict_to_sphere(e, ctx=None, radius=1):
    """Canonical representative of e on the sphere of the given radius.

    Norm factors are specialized at the radius and the polynomial part is
    reduced modulo sum(x_i^2) = radius^2.  Any other base factor is an
    error.
    """
    ctx = ctx or e.ctx
    radius = _as_fraction(radius)
    spec = substitute_norm_radius(e, radius, ctx)
    for _, fac in spec.terms:
        if fac:
            raise UnsupportedBase("non-norm base factors survive restriction")
    poly = poly_sum([p for p, _ in spec.terms])
    return reduce_poly_on_sphere(poly, ctx.coords, radius * radius)


def eval_expr(e, point, ctx=None):
    """Exact Scalar value of e at a rational point covering its variables."""
    ctx = ctx or e.ctx
    total = ZERO
    for poly, fac in e.terms:
        v = poly.eval(point)
        for b, h, j in fac:
            bval = ctx.base_poly(b).eval(point).as_fraction()
            if bval == 0:
                if h < 0 or j > 0:
                    raise ZeroBaseValue("base vanishes at the point")
                v = ZERO
                continue
            if bval < 0:
                if h % 2 or j > 0:
                    raise NegativeBaseValue("negative base under sqrt or log")
                v = v * Scalar.from_fraction(bval ** (h // 2))
            else:
                if h % 2 == 0:
                    v = v * Scalar.from_fraction(bval ** (h // 2))
                else:
                    v = v * Scalar.sqrt_fraction(bval) ** h
                if j:
                    v = v * Scalar.log_fraction(bval) ** j
        total = total + v
    return total
