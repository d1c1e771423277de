"""The expression algebra over the polynomials of `poly`.

An Expr is a sum of terms, each a Polynomial times registered base-polynomial
factors raised to half-integer powers and log powers:

    poly * prod_b base_b^(half_b/2) * log(base_b)^logpow_b

The default base is normSq = sum of squared coordinates, so ||x||^h is
normSq^(h/2).  Canonicalization gives a decidable zero test: terms are
grouped by per-base (parity, log power) signature and written over the
group's least power of each base.  With B the group's first base, a group
is a sum of levels L_s B^s, L_s the sum of the terms s integer powers of
B above the least, with the other bases' shifts multiplied in.  While a
log power or a negative half power remains, B is pulled out so the
representative is unique.  The sum is L_0 mod B, so B divides it exactly
when it divides L_0: only L_0 is divided, and its quotient joins L_1.  The
levels left meet B by Horner's rule (`horner`, which also folds in the
other bases' shifts), each later base is pulled from that total as a
single level, and the result is tested for zero.  Even nonnegative base
powers with no log factor end in the polynomial part: a base outside the
group's signature starts at most at power 0, so they ride the shifts.  An
Expr sum is one `Expr._from_raw` call over all the raw terms: canonical
form is unique, so canonicalizing once gives what a fold of `+` would.
Every sum and every product ends in that one canonicalizer, but for
negation and `scale` by a constant, which keep canonical terms canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import (
    DimensionMismatch,
    EmptyInterior,
    NegativeBaseValue,
    UnsupportedBase,
    UnsupportedDimension,
    UnsupportedInputError,
    ZeroBaseValue,
)
from .poly import (
    Polynomial,
    Stencil,
    _join,
    _power_blocks,
    first_order_weight,
    horner,
    poly_sum,
    quadratic_poly,
)
from .scalar import ONE, ZERO, Scalar, _as_fraction, power

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

    # the coordinate vector's label: ||x|| in the DSL, x1..xn by default
    vec_label = "x"

    def __init__(self, dim, coords=None, extra=()):
        if dim < 1:
            raise UnsupportedDimension("dimension must be positive")
        if coords is None:
            coords = tuple("x%d" % (i + 1) for i in range(dim))
        coords = tuple(coords)
        if len(coords) != dim:
            raise DimensionMismatch("need %d coordinate names, got %d" % (dim, len(coords)))
        extra = tuple(extra)
        if len(set(coords)) != dim or set(coords) & set(extra):
            raise UnsupportedInputError("coordinate and auxiliary names must all differ")
        self.dim = dim
        self.coords = coords
        self.extra = extra
        self.var_rank = {v: i for i, v in enumerate(coords + extra)}
        self._bases = []
        self._base_index = {}
        # (b, c): gradient dot; (bid,): |grad B|^2 / B or None; (bid, layout):
        # the first-order Stencil
        self._base_derivatives = {}
        self.norm_base = self.register_base(self.norm_sq_poly())[0]

    def register_base(self, poly):
        """Register a squarefree rational-coefficient base polynomial.

        Returns (base_id, content) with poly = content * stored primitive.
        The registry is append-only; re-registering returns the same id.
        """
        if poly.is_constant():
            raise UnsupportedBase("constant polynomials cannot be bases")
        content, prim = poly.content_primitive(self.var_rank)
        bid = self._base_index.get(prim)
        if bid is None:
            bid = len(self._bases)
            self._bases.append(prim)
            self._base_index[prim] = bid
        return bid, content

    def base_poly(self, bid):
        """The registered base `bid`, as stored: primitive."""
        return self._bases[bid]

    def base_first_order(self, bid, poly):
        """2 grad poly . grad B + poly Delta B in the coordinates, B the base
        `bid`: one pass of B's first-order `Stencil`, which is built once
        per layout and memoized on this Context."""
        base = self._bases[bid]
        lay = _join(poly.layout, base.layout, poly.total_degree() + base.total_degree())
        key = (bid, lay)
        stencil = self._base_derivatives.get(key)
        if stencil is None:
            # a base is stored primitive, so its denominator is 1
            nums = base.rational_block(lay)[1]
            stencil = self._base_derivatives[key] = Stencil(nums, lay, self.coords, first_order_weight)
        return stencil.image(poly)

    def base_gradient_dot(self, b, c):
        """grad base_b . grad base_c in the coordinates, memoized on this Context."""
        key = (b, c) if b <= c else (c, b)
        out = self._base_derivatives.get(key)
        if out is None:
            out = self._base_derivatives[key] = self._bases[b].gradient_dot(self._bases[c], self.coords)
        return out

    def base_gradient_quotient(self, bid):
        """|grad base_bid|^2 / base_bid, or None if base_bid does not divide
        it, memoized on this Context."""
        key = (bid,)
        if key not in self._base_derivatives:
            square = self.base_gradient_dot(bid, bid)
            self._base_derivatives[key] = square.divide_exact(self._bases[bid], self.var_rank)
        return self._base_derivatives[key]

    def base_name(self, bid):
        """The norm base's name, normSq(x); None for any other base."""
        return "normSq(%s)" % self.vec_label if bid == self.norm_base else None

    def norm_sq_poly(self, names=None):
        return quadratic_poly((v, 1, 0) for v in (names or self.coords))

    def __repr__(self):
        return "Context(dim=%d, coords=%s, extra=%s)" % (self.dim, list(self.coords), list(self.extra))


def make_context(dim, extra_vecs=(), extra=(), coords=None):
    """Context helper: extra_vecs adds y1..y_dim style auxiliary blocks."""
    names = list(extra)
    for label in extra_vecs:
        names.extend("%s%d" % (label, i + 1) for i in range(dim))
    return Context(dim, coords=coords, extra=tuple(names))


# ---------------------------------------------------------------------------
# expressions


def _check_factor(half, log_pow):
    """Refuse a factor base^(half/2) * log(base)^log_pow whose half is no
    int or whose log_pow is no int >= 0."""
    if not isinstance(half, int):
        raise UnsupportedInputError("half exponent must be an integer, got %s" % (half,))
    if not isinstance(log_pow, int) or log_pow < 0:
        raise UnsupportedInputError("log power must be an integer >= 0, got %s" % (log_pow,))


def pulls_base(half, log_pow):
    """Whether canonical form pulls a base out of a factor base^(half/2) *
    log(base)^log_pow where the base divides the polynomial: under a log or
    a negative power."""
    return log_pow > 0 or half < 0


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
        """The canonical Expr of a polynomial: one term with no base factors, or none."""
        return Expr(ctx, ((poly, ()),) if poly.blocks else ())

    @staticmethod
    def from_scalar(ctx, s):
        return Expr.from_poly(ctx, Polynomial.const(s))

    @staticmethod
    def make(ctx, poly, factors):
        """One term with explicit (base_id, half_exp, log_pow) factors."""
        factors = tuple(factors)
        for _, half, log_pow in factors:
            _check_factor(half, log_pow)
        return Expr._from_raw(ctx, [(poly, factors)])

    @staticmethod
    def norm_power(ctx, half, log_pow=0):
        """||x||^half * log(||x||^2)^log_pow as an Expr."""
        return Expr.make(ctx, Polynomial.const(1), [(ctx.norm_base, half, log_pow)])

    @staticmethod
    def base_power(ctx, base_poly, half, log_pow=0):
        """base_poly^(half/2) * log(base_poly)^log_pow, handling content.

        The registered primitive P satisfies base_poly = c*P; the result is
        c^(half/2) * P^(half/2) * (log c + log P)^log_pow.
        """
        _check_factor(half, log_pow)
        bid, content = ctx.register_base(base_poly)
        if content < 0 and (half % 2 or log_pow):
            raise NegativeBaseValue("half powers and logs need a positive-content base")
        cs = Scalar.half_power(content, half)
        logc = Scalar.log_fraction(content) if log_pow else ONE
        out = [
            (Polynomial.const(cs * comb(log_pow, i) * logc**i), ((bid, half, log_pow - i),))
            for i in range(log_pow + 1)
        ]
        return Expr._from_raw(ctx, out)

    # -- canonicalization ---------------------------------------------------

    @staticmethod
    def _from_raw(ctx, raw_terms):
        groups = {}
        for poly, fac in raw_terms:
            if poly.is_zero():
                continue
            # a product's factors may name one base twice: powers add
            fd = {}
            for b, h, j in fac:
                h0, j0 = fd.get(b, (0, 0))
                fd[b] = (h0 + h, j0 + j)
            fd = {b: hj for b, hj in fd.items() if hj != (0, 0)}
            sig = tuple(sorted((b, h & 1, j) for b, (h, j) in fd.items() if (h & 1, j) != (0, 0)))
            groups.setdefault(sig, []).append((poly, fd))

        out_terms = []
        for sig, members in sorted(groups.items()):
            inside = {b for b, _, _ in sig}
            # a member without b has b^0; log powers agree within a group
            ids = {b for _, fd in members for b in fd}
            low = {b: min(fd.get(b, (0, 0))[0] for _, fd in members) for b in ids}
            # a base outside the signature (even powers, no log) starts at
            # most at b^0, so its positive powers ride the shifts.  Starting
            # at b^0 it is never pulled: it comes last, and its shifts fold
            # into the levels of a base that may be
            bases = sorted(low, key=lambda b: (b not in inside and low[b] >= 0, b))
            half = [low[b] if b in inside else min(low[b], 0) for b in bases]
            logs = [max(fd.get(b, (0, 0))[1] for _, fd in members) for b in bases]
            # each member's shift vector holds the powers of the bases over
            # the least half powers.  Horner's rule folds in the shifts of
            # every base but the first, the last base first, and the first
            # base's shift s files each sum under its level L_s
            pairs = []
            for poly, fd in members:
                pairs.append((tuple((fd.get(b, (0, 0))[0] - h) // 2 for b, h in zip(bases, half)), poly))
            for b in reversed(bases[1:]):
                outer = {}
                for key, poly in pairs:
                    outer.setdefault(key[:-1], []).append((key[-1], poly))
                pairs = [(key, horner(polys, ctx.base_poly(b))) for key, polys in outer.items()]
            by_level = {}
            for key, poly in pairs:
                by_level.setdefault(key[0] if key else 0, []).append(poly)
            levels = [poly_sum(by_level.get(s, ())) for s in range(max(by_level) + 1)]
            total = levels[0]
            factors = []
            for i, b in enumerate(bases):
                if i:
                    levels = [total]  # a later base sees the total as one level
                # pull B while the canonical form asks for it.  The total
                # sum_s L_s B^s is L_0 mod B, so B divides it exactly when B
                # divides L_0, and the quotient is L_0/B + sum_(s>=1)
                # L_s B^(s-1): only the lowest level is ever divided.  A base
                # that does not divide the total does not divide a quotient;
                # a total of 0 ends as one zero level.
                while pulls_base(half[i], logs[i]) and (len(levels) > 1 or levels[0].blocks):
                    q = levels[0].divide_exact(ctx.base_poly(b), ctx.var_rank)
                    if q is None:
                        break
                    levels = [q + levels[1], *levels[2:]] if len(levels) > 1 else [q]
                    half[i] += 2
                # the levels left meet their base only now, by Horner's rule
                total = horner(enumerate(levels), ctx.base_poly(b))
                # an even half power with no log ends at most at 0, where
                # the base leaves the term
                if half[i] or logs[i]:
                    factors.append((b, half[i], logs[i]))
            if not total.is_zero():
                out_terms.append((total, tuple(factors)))

        # a group keeps its nonzero (parity, log power) pairs in its
        # factors, so no two groups share a factor tuple: nothing to merge
        out_terms.sort(key=lambda t: t[1])
        return Expr(ctx, tuple(out_terms))

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

    def __add__(self, other):
        other = self._coerce(other)
        context_of(other, self.ctx)
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
        context_of(other, self.ctx)
        raw = [(p1 * p2, f1 + f2) for p1, f1 in self.terms for p2, f2 in other.terms]
        return Expr._from_raw(self.ctx, raw)

    __rmul__ = __mul__

    def scale(self, c):
        # scaled by a nonzero constant, a term keeps its factors, a base
        # divides it as before and it stays nonzero, so the terms stay
        # canonical; scaled by 0, every term is 0
        terms = tuple((p.scale(c), f) for p, f in self.terms)
        return Expr(self.ctx, terms if terms and terms[0][0].blocks else ())

    def __truediv__(self, c):
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        return self.scale(c.inverse())

    def __pow__(self, k):
        if self.is_polynomial():
            # one polynomial power, under its bound on the result size
            return Expr.from_poly(self.ctx, self.as_polynomial() ** k)
        one = Expr.from_poly(self.ctx, Polynomial.const(1))
        return power(self, k, one, _power_blocks(p for p, _ in self.terms))

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
        # an odd, log-free, nonnegative power keeps its group's least power,
        # so x1 ||x||^3 and (x1 normSq) ||x|| are equal terms: hash only the
        # polynomial part and each term's (base, parity, log power) signature
        first, first_fac = self.terms[0]  # the polynomial part, if any, sorts first
        sigs = sorted(tuple((b, h & 1, j) for b, h, j in fac if h & 1 or j) for _, fac in self.terms)
        return hash((None if first_fac else first, tuple(sigs)))

    def __repr__(self):
        from .render import expr_text

        return "Expr(%s)" % expr_text(self)


def context_of(e, ctx=None):
    """The Context of the Expr e; a `ctx` that is not e's is an error,
    since base ids are per Context."""
    if ctx is not None and ctx is not e.ctx:
        raise UnsupportedInputError("expressions from different contexts")
    return e.ctx


# ---------------------------------------------------------------------------
# norm-specific operations


def substitute_norm_radius(e, r, ctx=None):
    """Replace normSq^(h/2) by r^h and log(normSq)^j by (2 log r)^j.

    Only registered norm factors are touched; polynomial parts are left
    alone (they do not constrain the coordinates).
    """
    ctx = context_of(e, ctx)
    r = _as_fraction(r)
    if r <= 0:
        raise EmptyInterior("radius must be positive")
    nb = ctx.norm_base
    raw = []
    for poly, fac in e.terms:
        coeff = ONE
        keep = []
        for b, h, j in fac:
            if b != nb:
                keep.append((b, h, j))
                continue
            # log(normSq) = log r^2, which is ZERO at r = 1
            coeff = coeff * Scalar.from_fraction(r) ** h * Scalar.log_fraction(r * r) ** j
        raw.append((poly.scale(coeff), tuple(keep)))
    return Expr._from_raw(ctx, raw)


def reduce_poly_on_sphere(poly, names, radius_sq=1):
    """Reduce a polynomial modulo sum(names^2) = radius_sq.

    With poly = sum_e c_e last^e, last^e becomes last^(e mod 2) times
    (radius_sq - the other squares)^(e // 2); no monomial of the result is
    divisible by last^2, so it is the canonical representative of the
    restriction.
    """
    names = tuple(names)
    last = names[-1]
    rest = Polynomial.const(_as_fraction(radius_sq)) - poly_sum(Polynomial.var(v, 2) for v in names[:-1])
    parts = poly.coefficients((last,)).items()
    return horner(((e // 2, c * Polynomial.var(last, e % 2)) for (e,), c in parts), rest)


def restrict_to_sphere(e, ctx=None, radius=1):
    """Canonical representative of e on the sphere of the given radius.

    Norm factors are specialized at the radius and the polynomial part is
    reduced modulo sum(x_i^2) = radius^2.  Any other base factor is an
    error.
    """
    ctx = context_of(e, ctx)
    radius = _as_fraction(radius)
    spec = substitute_norm_radius(e, radius, ctx)
    for _, fac in spec.terms:
        if fac:
            raise UnsupportedBase("non-norm base factors survive restriction")
    poly = poly_sum([p for p, _ in spec.terms])
    return reduce_poly_on_sphere(poly, ctx.coords, radius * radius)


def eval_expr(e, point, ctx=None):
    """Exact Scalar value of e at a rational point covering its variables."""
    ctx = context_of(e, ctx)
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
            if bval < 0 and (h % 2 or j):
                raise NegativeBaseValue("negative base under sqrt or log")
            v = v * Scalar.half_power(bval, h)
            if j:
                v = v * Scalar.log_fraction(bval) ** j
        total = total + v
    return total
