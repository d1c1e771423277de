"""Multivariate polynomials over exact Scalars: the packed polynomial layer.

A Polynomial stores one block per Scalar signature (radicand, pi
half-exponent, logs): integer numerators over one common denominator, in
lowest terms, keyed by monomials packed into ints by a shared `Layout`.
Operations work on the blocks with ints only: the key of a product of
monomials is the sum of their keys, every sum merges blocks in one `_Sum`,
and a layout widens (more variables, wider fields) instead of overflowing.
The {monomial tuple: Scalar} mapping is only an input format
(`Polynomial(dict)`, `from_raw`) and the `terms` view that tests read:
rendering, hashing and coefficient lookup read the blocks, and `order_key`
sorts packed keys in the graded order rendering prints.

`monomials` enumerates packed keys by total degree, and a `Stencil`,
built once from a polynomial's terms, writes the Laplacian, gradient or
first-order image of each monomial against them: `linalg` builds the
quadric ansatz from the first two, `Polynomial.laplacian`, `gradient_dot`
and the harmonic ladders apply a stencil too, and a base's first-order
stencil takes 2 grad P . grad B + P Delta B in one pass over P's terms
(`expr.Context.base_first_order`).  Scaling by an int or a Fraction
scales each block's numerators and denominator, with no product.

`Polynomial.divide_exact` divides by a rational-coefficient polynomial and
returns the quotient only if the division is exact, else None: each block
is divided by heap long division on its keys, which compare in a graded
order, a guard bit above each field testing monomial divisibility
(Monagan and Pearce, "Sparse polynomial division using a heap", J. Symb.
Comp. 2011).  An exact quotient is unique, so the order does not matter.
A block whose greatest or least key has no quotient key (the divisor's
borrows from it) is refused before any heap is built.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd, lcm, prod

from .errors import (
    DimensionMismatch,
    NonPolynomialInput,
    NonRationalValue,
    UnknownVariable,
    UnsupportedInputError,
)
from .scalar import MAX_POWER_SIZE, Scalar, check_power, power, sig_product

# ---------------------------------------------------------------------------
# monomials, packed into int keys by a Layout

# the Scalar signature (radicand, pi half-exponent, logs) of a rational
RATIONAL = (1, 0, ())


def monomials(lay, names, degrees):
    """The keys in lay of the monomials in names of each total degree in
    degrees, ascending graded-lex; lay holds names and those degrees.

    Within a degree the exponent vectors, in names order, ascend
    lexicographically, as under `order_key` with `names` ranked first to
    last; ansatz solves rely on this column order.  The keys of degree d
    over names[i:] are x_i^e times each key of degree d - e over
    names[i + 1:], for e = 0..d: those suffix lists are built once, from
    the last name back, and the first name is put in front for the
    degrees asked for only.
    """
    degrees = [d for d in degrees if d >= 0]
    if not names:
        return [0 for d in degrees if d == 0]
    first, *rest = [lay.unit[v] for v in names]
    top = max(degrees, default=0)
    # suffix[d]: the keys of degree d over the names from u to the last;
    # over no names, 0 alone at degree 0
    suffix = [[0]] + [[]] * top
    for u in reversed(rest):
        suffix = [[e * u + k for e in range(d + 1) for k in suffix[d - e]] for d in range(top + 1)]
    return [e * first + k for d in degrees for e in range(d + 1) for k in suffix[d - e]]


class Layout:
    """Where each exponent sits in a packed monomial key.

    A key is an int with one field of `stride` bits per variable, in name
    order from the low end, and a last field on top holding the total
    degree, so keys compare in a graded order and the key of a product of
    monomials is the sum of their keys.  The top bit of each field is a
    guard bit that stays clear: exponents and degrees are at most `mask`,
    and a subtraction that borrows sets a guard.  `_layout` hands out one
    shared Layout per (names, stride).

    `factorials` memoizes `factorial` by key; `powers` holds the rendered
    powers of each variable, one table per output form, filled by
    `render` with the exponents it prints.
    """

    __slots__ = ("names", "stride", "mask", "top", "guards", "shift", "unit", "factorials", "powers")

    def __init__(self, names, stride):
        self.names = names
        self.stride = stride
        self.mask = (1 << (stride - 1)) - 1
        self.top = len(names) * stride
        self.shift = {v: i * stride for i, v in enumerate(names)}
        self.unit = {v: (1 << s) + (1 << self.top) for v, s in self.shift.items()}
        self.guards = sum(1 << (i * stride + stride - 1) for i in range(len(names) + 1))
        self.factorials = {}
        self.powers = {}

    def pack(self, mono):
        return sum(e * self.unit[v] for v, e in mono)

    def unpack(self, key):
        out = []
        for v, s in self.shift.items():
            e = (key >> s) & self.mask
            if e:
                out.append((v, e))
        return tuple(out)

    def factorial(self, key):
        """a! = prod a_i! for the monomial x^a packed in key, memoized."""
        out = self.factorials.get(key)
        if out is None:
            out = self.factorials[key] = prod(factorial(e) for _, e in self.unpack(key))
        return out


# interned: one Layout per (names, stride) used, never changed once made
_LAYOUTS = {}


def _layout(names, stride=8):
    key = (names, stride)
    return _LAYOUTS.get(key) or _LAYOUTS.setdefault(key, Layout(names, stride))


def _stride(degree):
    """The narrowest stride s of 8, 16, 32, ... bits with degree < 2^(s - 1)."""
    return max(8, 1 << degree.bit_length().bit_length())


def order_key(lay, rank):
    """The int sort key, ascending graded-lex, of monomials packed in lay.

    Most significant first: total degree, degree in the variables outside
    `rank` ({name: position}, a context's `var_rank`), then the ranked
    exponents in rank order.  If lay has variables outside the rank, their
    exponents in name order break remaining ties, an exponent of 0 read as
    mask + 1: that is how the monomial tuples compare there.
    """
    ranked = [lay.shift[v] for v in sorted(rank, key=rank.get) if v in lay.shift]
    others = [lay.shift[v] for v in lay.names if v not in rank]
    mask, stride, top = lay.mask, lay.stride, lay.top

    def key(k):
        out = k >> top
        for s in ranked:
            out = out << stride | (k >> s) & mask
        return out

    def outside_key(k):
        es = [(k >> s) & mask for s in others]
        out = (k >> top) << stride | sum(es)
        for s in ranked:
            out = out << stride | (k >> s) & mask
        for e in es:
            out = out << stride | (e or mask + 1)
        return out

    return outside_key if others else key


def _join(a, b, degree=0):
    """The layout holding the variables of layouts a and b and degrees up to `degree`."""
    if a is not b and not all(v in a.shift for v in b.names):
        if all(v in b.shift for v in a.names):
            a, b = b, a
        else:
            a = _layout(tuple(sorted(set(a.names).union(b.names))), a.stride)
    stride = max(a.stride, b.stride, _stride(degree))
    return a if stride == a.stride else _layout(a.names, stride)


def _rekey(p, lay):
    """The blocks of p with keys in lay, a layout holding p's variables and degree."""
    src = p.layout
    if src is lay:
        return p.blocks
    moves = [(src.shift[v], lay.shift[v]) for v in src.names if v in lay.shift]
    mask, top, new_top = src.mask, src.top, lay.top

    def key(k):
        out = (k >> top) << new_top
        for a, b in moves:
            out |= ((k >> a) & mask) << b
        return out

    return {sig: (den, {key(k): n for k, n in nums.items()}) for sig, (den, nums) in p.blocks.items()}


def _put(blocks, sig, den, nums):
    """Store nums/den under sig in lowest terms, without zeros; an empty block is left out."""
    if 0 in nums.values():
        nums = {k: n for k, n in nums.items() if n}
    if not nums:
        return
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    blocks[sig] = (den, nums)


def _new(lay, blocks):
    out = object.__new__(Polynomial)
    out.layout = lay
    out.blocks = blocks
    return out


# the markers of the three maps a `Stencil` applies: the Laplacian of
# q x^a, grad q . grad x^a, and 2 grad q . grad x^a + x^a Delta q, the
# part of the Laplacian of x^a F(q) that multiplies F'(q)
laplace_weight = "laplace"
gradient_weight = "gradient"
first_order_weight = "first order"


class Stencil:
    """The second-order image of monomials x^a against one operand's terms,
    built once per operand and applied once per monomial.

    The image of x^a is the sum over terms n x^b of the operand and v in
    names of w(a_v, b_v) n x^(a + b - 2 e_v), with w = (a + b)(a + b - 1)
    for `laplace_weight` (the Laplacian of q x^a), w = a b for
    `gradient_weight` (grad q . grad x^a) and w = 2 a b + b (b - 1) =
    (a + b)(a + b - 1) - a (a - 1) for `first_order_weight` (2 grad q .
    grad x^a + x^a Delta q, one pass where a gradient dot product, a
    Laplacian, a product and a sum would take four).  `terms` holds (v's
    field shift, b_v, n, k_b - 2 e_v) for every term and every variable v
    of names in lay, term by term, less those with b_v = 0 for the
    gradient and first-order weights, which vanish there: an image meets
    its keys in that order, and `linalg.paired_rows` numbers its rows by
    it.  `layout` is lay, which must hold every a + b.
    """

    __slots__ = ("weight", "layout", "mask", "terms")

    def __init__(self, nums, lay, names, weight):
        self.weight = weight
        self.layout = lay
        self.mask = mask = lay.mask
        fields = [(lay.shift[v], 2 * lay.unit[v]) for v in names if v in lay.shift]
        self.terms = [(s, (kb >> s) & mask, n, kb - two) for kb, n in nums.items() for s, two in fields]
        if weight is not laplace_weight:
            self.terms = [t for t in self.terms if t[1]]

    def add(self, ka, acc, c=1):
        """acc, a {key: int} dict, with c times the image of x^a (packed in ka) added in."""
        get, mask = acc.get, self.mask
        if self.weight is laplace_weight:
            for s, b, n, k in self.terms:
                # (a_v + b_v)(a_v + b_v - 1), which vanishes unless a_v + b_v >= 2
                w = ((ka >> s) & mask) + b
                if w > 1:
                    k += ka
                    acc[k] = get(k, 0) + c * w * (w - 1) * n
        elif self.weight is gradient_weight:
            for s, b, n, k in self.terms:
                # a_v b_v, where b_v > 0
                a = (ka >> s) & mask
                if a:
                    k += ka
                    acc[k] = get(k, 0) + c * a * b * n
        else:
            for s, b, n, k in self.terms:
                # b_v (2 a_v + b_v - 1), where b_v > 0: 0 only at a_v = 0, b_v = 1
                w = b * (2 * ((ka >> s) & mask) + b - 1)
                if w:
                    k += ka
                    acc[k] = get(k, 0) + c * w * n
        return acc

    def image(self, p):
        """The sum over terms n x^a of p of n times the image of x^a, keyed
        in `layout`: the operand's denominator is the caller's to apply."""
        blocks = {}
        for sig, (den, nums) in _rekey(p, self.layout).items():
            acc = {}
            for ka, n in nums.items():
                self.add(ka, acc, n)
            _put(blocks, sig, den, acc)
        return _new(self.layout, blocks)


class Polynomial:
    """Sparse polynomial with Scalar coefficients.  Treated as immutable.

    `blocks` maps each Scalar signature to (den, {key: num}), the rational
    polynomial multiplying it in lowest terms, keys packed in `layout`.
    """

    __slots__ = ("layout", "blocks")

    def __init__(self, terms=None):
        p = Polynomial.from_raw(dict(terms).items()) if terms else _new(_EMPTY, {})
        self.layout, self.blocks = p.layout, p.blocks

    # -- construction -------------------------------------------------------

    @staticmethod
    def const(c):
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        return _new(_EMPTY, {(r, p, lg): (q.denominator, {0: q.numerator}) for q, r, p, lg in c.terms})

    @staticmethod
    def var(name, exp=1):
        if exp == 0:
            return Polynomial.const(1)
        lay = _layout((name,), _stride(exp))
        return _new(lay, {RATIONAL: (1, {lay.unit[name] * exp: 1})})

    @staticmethod
    def monomial(coeff, exps):
        """The rational coeff times the product of v^e over the {v: e} map exps."""
        if not coeff:
            return Polynomial()
        exps = {v: e for v, e in exps.items() if e}
        lay = _layout(tuple(sorted(exps)), _stride(sum(exps.values())))
        coeff = Fraction(coeff)
        return _new(lay, {RATIONAL: (coeff.denominator, {lay.pack(exps.items()): coeff.numerator})})

    @staticmethod
    def from_raw(pairs):
        """The sum of (monomial, coefficient) pairs; a coefficient may be an
        int, a Fraction or a Scalar, and repeated monomials add up."""
        pairs = [(m, c if isinstance(c, Scalar) else Scalar.from_fraction(c)) for m, c in pairs]
        names = tuple(sorted({v for m, _ in pairs for v, _ in m}))
        lay = _layout(names, _stride(max((sum(e for _, e in m) for m, _ in pairs), default=0)))
        total = _Sum(lay)
        for m, c in pairs:
            for q, *sig in c.terms:
                total.add(tuple(sig), q.denominator, {lay.pack(m): q.numerator})
        return total.result()

    # -- predicates / access ------------------------------------------------

    @property
    def terms(self):
        """The {monomial tuple: Scalar} view that tests read, built anew on every access."""
        return {self.layout.unpack(k): self.coefficient_at(k) for k in self.packed_keys()}

    def packed_keys(self):
        """The packed monomials of the terms: the union of the blocks' keys."""
        return set().union(*(nums for _, nums in self.blocks.values()))

    def is_zero(self):
        return not self.blocks

    def is_constant(self):
        return not any(any(nums) for _, nums in self.blocks.values())

    def constant_term(self):
        return self.coefficient_at(0)

    def coefficient_at(self, k):
        """The Scalar coefficient of the monomial packed in key k."""
        blocks = sorted(self.blocks.items())
        return Scalar(tuple((Fraction(t[k], den),) + sig for sig, (den, t) in blocks if k in t))

    def variables(self):
        bits = 0
        for _, nums in self.blocks.values():
            for k in nums:
                bits |= k
        return {v for v, s in self.layout.shift.items() if (bits >> s) & self.layout.mask}

    def degree_in(self, var):
        """The greatest exponent of var in the terms."""
        if var not in self.layout.shift:
            return 0
        s, mask = self.layout.shift[var], self.layout.mask
        return max(((k >> s) & mask for _, nums in self.blocks.values() for k in nums), default=0)

    def total_degree(self):
        top = max((max(nums) for _, nums in self.blocks.values()), default=0)
        return top >> self.layout.top

    def rational_block(self, layout=None):
        """(den, {key: num}) of a rational polynomial, keyed in `layout` (default its own)."""
        blocks = self.blocks if layout is None else _rekey(self, layout)
        if set(blocks) - {RATIONAL}:
            from .render import poly_text

            raise NonRationalValue("not a rational polynomial: %s" % poly_text(self))
        return blocks.get(RATIONAL, (1, {}))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Polynomial, int, Fraction, Scalar)):
            return NotImplemented
        return poly_sum((self, _as_poly(other)))

    __radd__ = __add__

    def __neg__(self):
        blocks = {sig: (den, {k: -n for k, n in t.items()}) for sig, (den, t) in self.blocks.items()}
        return _new(self.layout, blocks)

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
        if not self.blocks or not other.blocks:
            return Polynomial()
        # the fields hold the product's degree, so adding keys never carries
        lay = _join(self.layout, other.layout, self.total_degree() + other.total_degree())
        return _product(lay, _rekey(self, lay), _rekey(other, lay))

    __rmul__ = __mul__

    def scale(self, c):
        if isinstance(c, Scalar):
            # a constant's only key is 0, the same in every layout
            return _product(self.layout, self.blocks, Polynomial.const(c).blocks)
        # an int or a Fraction scales each block's numerators and denominator
        blocks = {}
        for sig, (den, nums) in self.blocks.items():
            _put(blocks, sig, den * c.denominator, {k: n * c.numerator for k, n in nums.items()})
        return _new(self.layout, blocks)

    def __pow__(self, k):
        shape = self.total_degree(), len(self.variables())
        return power(self, k, Polynomial.const(1), _power_blocks((self,)), shape)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # blocks are in lowest terms, so equal polynomials have equal blocks
        lay = _join(self.layout, other.layout)
        return _rekey(self, lay) == _rekey(other, lay)

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if self.is_constant():
            return hash(self.constant_term())
        # equal polynomials have equal blocks in the layout of their variables
        lay = _layout(tuple(sorted(self.variables())), _stride(self.total_degree()))
        blocks = _rekey(self, lay).items()
        return hash(frozenset((sig, den, frozenset(nums.items())) for sig, (den, nums) in blocks))

    def __repr__(self):
        from .render import poly_text

        return "Polynomial(%s)" % poly_text(self)

    # -- maps over the terms ------------------------------------------------

    def _map(self, f, lay=None):
        """{label: Polynomial}: a term n x^k goes to label as n w x^k2, (label, k2, w) = f(k).

        f sees keys in `lay` (default self's layout), returns new keys in
        it, and drops a term by returning None; w is an int or a Fraction,
        and terms meeting at one key add up.
        """
        lay = lay or self.layout
        sums = {}
        for sig, (den, nums) in _rekey(self, lay).items():
            for k, n in nums.items():
                hit = f(k)
                if hit is not None:
                    label, k, w = hit
                    total = sums.get(label) or sums.setdefault(label, _Sum(lay))
                    total.add(sig, den * w.denominator, {k: n * w.numerator})
        return {label: total.result() for label, total in sums.items()}

    def _splitter(self, names):
        """key -> (exponent tuple over names, key with those variables removed)."""
        lay = self.layout
        fields = [(i, lay.shift[v], lay.unit[v]) for i, v in enumerate(names) if v in lay.shift]

        def split(k):
            es = [0] * len(names)
            for i, s, u in fields:
                e = es[i] = (k >> s) & lay.mask
                k -= e * u
            return tuple(es), k

        return split

    def coefficients(self, names):
        """{exponent tuple over names: polynomial in the other variables}.

        self is the sum over the entries of coefficient * prod names^exponent.
        """
        split = self._splitter(names)
        return self._map(lambda k: split(k) + (1,))

    def contract(self, names, weight):
        """The sum over terms c x^a z^b, x = names, of weight(a) c z^b.

        `weight` maps an exponent tuple over names to an int or Fraction.
        """
        split = self._splitter(names)

        def f(k):
            es, k = split(k)
            return 0, k, weight(es)

        return self._map(f).get(0, Polynomial())

    def homogeneous_parts(self, names):
        """Split by the degree in `names`: dict deg -> part.

        A term's degree there is its key's degree field less the other
        variables' exponents; the terms are partitioned, keys unchanged.
        """
        lay = self.layout
        others = [s for v, s in lay.shift.items() if v not in names]
        mask, top = lay.mask, lay.top
        parts = {}
        for sig, (den, nums) in self.blocks.items():
            for k, n in nums.items():
                d = (k >> top) - sum((k >> s) & mask for s in others)
                part = parts.get(d) or parts.setdefault(d, {})
                (part.get(sig) or part.setdefault(sig, (den, {})))[1][k] = n
        out = {}
        for d, part in parts.items():
            blocks = {}
            for sig, (den, nums) in part.items():
                _put(blocks, sig, den, nums)
            out[d] = _new(lay, blocks)
        return out

    def partial(self, var):
        lay = self.layout
        if var not in lay.shift:
            return Polynomial()
        s, mask, unit = lay.shift[var], lay.mask, lay.unit[var]

        def f(k):
            e = (k >> s) & mask
            return (0, k - unit, e) if e else None

        return self._map(f).get(0, Polynomial())

    def integrate(self, var):
        """Antiderivative in `var` with zero constant term."""
        lay = _join(self.layout, _layout((var,)), self.total_degree() + 1)
        s, mask, unit = lay.shift[var], lay.mask, lay.unit[var]
        f = lambda k: (0, k + unit, Fraction(1, ((k >> s) & mask) + 1))  # noqa: E731
        return self._map(f, lay).get(0, Polynomial())

    def laplacian(self, names):
        """The Laplacian in the variables `names`; the others are constants."""
        blocks = {}
        for sig, (den, nums) in self.blocks.items():
            _put(blocks, sig, den, Stencil(nums, self.layout, names, laplace_weight).add(0, {}))
        return _new(self.layout, blocks)

    def gradient_dot(self, other, names):
        """grad self . grad other in the variables `names`; the others are constants."""
        if not self.blocks or not other.blocks:
            return Polynomial()
        lay = _join(self.layout, other.layout, self.total_degree() + other.total_degree())
        return _product(lay, _rekey(self, lay), _rekey(other, lay), names)

    def substitute(self, var, value):
        """Replace a variable by a Fraction, Scalar, or Polynomial."""
        value = _as_poly(value)
        parts = self.coefficients((var,)).items()
        return horner(((e, c) for (e,), c in parts), value)

    def translate(self, var, c):
        """self with var replaced by var + c, c a rational or a rational times
        one variable other than var; any other c is an UnsupportedInputError,
        and so is a binomial (var + c)^top past `check_translation`'s bound.

        One binomial pass on the blocks: with c = (u/w) y (y = 1 for a
        rational), a term n x^e goes to the sum over i of
        C(e, i) n u^i w^(top - i) x^(e - i) y^i, over the one denominator
        w^top of its block, top the block's greatest exponent of x.  The
        degree does not grow, so the layout only joins y.
        """
        c = _as_poly(c)
        one_term = len(c.packed_keys()) <= 1 and c.total_degree() <= 1
        if set(c.blocks) - {RATIONAL} or not one_term or var in c.variables():
            from .render import poly_text

            raise UnsupportedInputError(
                "%s can be translated by a rational or a rational times one other variable only, not by %s"
                % (var, poly_text(c))
            )
        if not c.blocks or var not in self.layout.shift:
            return self
        check_translation([self.degree_in(var)], c)
        lay = _join(self.layout, c.layout)
        w, ((ky, u),) = c.blocks[RATIONAL][0], _rekey(c, lay)[RATIONAL][1].items()
        s, mask, unit = lay.shift[var], lay.mask, lay.unit[var]
        step = ky - unit  # x^e y^j -> x^(e-1) y^(j+1), or x^(e-1) for a rational c
        blocks = {}
        for sig, (den, nums) in _rekey(self, lay).items():
            top = max((k >> s) & mask for k in nums)
            lifts = [u**i * w ** (top - i) for i in range(top + 1)]
            rows, acc = {}, {}
            get = acc.get
            for k, n in nums.items():
                e = (k >> s) & mask
                row = rows.get(e) or rows.setdefault(e, [comb(e, i) * lifts[i] for i in range(e + 1)])
                for weight in row:
                    acc[k] = get(k, 0) + n * weight
                    k += step
            _put(blocks, sig, den * w**top, acc)
        return _new(lay, blocks)

    def parts_about(self, names, point, degrees=None):
        """{d: T_d(x - b)}: the parts of self in powers of x - b, d in
        degrees (default every degree).

        T(y) = self(b + y) and T_d is its part of degree d in the variables
        names; point holds b, one entry per name, each a shift `translate`
        takes in no variable of names.  self is translated by b, split, and
        each part kept translated back, no product formed;
        `check_translation` bounds the parts' binomials together, before
        any part is translated back in a variable.
        """
        shifts = [(v, _as_poly(b)) for v, b in zip(names, point)]
        p = self
        for v, b in shifts:
            p = p.translate(v, b)
        parts = p.homogeneous_parts(names)
        if degrees is not None:
            parts = {d: part for d, part in parts.items() if d in degrees}
        for v, b in shifts:
            if b.blocks:
                check_translation([part.degree_in(v) for part in parts.values()], b)
                parts = {d: part.translate(v, -b) for d, part in parts.items()}
        return parts

    def eval(self, point):
        """Exact value at a point (dict name -> Fraction/Scalar); a variable
        that the point does not give is an UnknownVariable."""
        p = self
        for v in sorted(self.variables()):
            if v not in point:
                raise UnknownVariable("no value for variable %s" % v)
            p = p.substitute(v, point[v])
        return p.constant_term()

    # -- division -------------------------------------------------------------

    def content_primitive(self, rank):
        """Write self = content * primitive with integer primitive part.

        Requires rational coefficients.  The primitive part has coprime
        integer coefficients and a positive leading coefficient.
        """
        den, nums = self.rational_block()
        if not nums:
            return Fraction(0), Polynomial()
        g = gcd(*nums.values())
        if nums[max(nums, key=order_key(self.layout, rank))] < 0:
            g = -g
        return Fraction(g, den), _new(self.layout, {RATIONAL: (1, {k: n // g for k, n in nums.items()})})

    def divide_exact(self, divisor, rank):
        """Quotient self/divisor if the division is exact, else None.

        The divisor must have rational coefficients.  An exact quotient is
        unique, so `rank`, a monomial order, is not read: each block of
        self is divided by heap long division on its keys, graded order.
        Keys add under products and compare as ints, so the greatest and
        least keys of an exact quotient are a block's less the divisor's:
        where either subtraction borrows, the division is refused before
        any heap is built.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial()
        # every monomial met has degree at most self's, which fits the fields
        lay = _join(self.layout, divisor.layout)
        dden, dnums = divisor.rational_block(lay)
        dividends = _rekey(self, lay).items()
        hi, lo, guards = max(dnums), min(dnums), lay.guards
        if any((max(nums) - hi) & guards or (min(nums) - lo) & guards for _, (_, nums) in dividends):
            return None
        content = gcd(*dnums.values())
        (lead_k, lead_n), *tail = sorted(((k, n // content) for k, n in dnums.items()), reverse=True)
        blocks = {}
        for sig, (den, nums) in dividends:
            rem = dict(nums)
            heap = [-k for k in rem]
            heapify(heap)
            quot = {}
            while heap:
                k = -heappop(heap)
                c = rem.pop(k)
                if not c:
                    continue
                qk = k - lead_k
                if qk & guards:
                    return None  # a borrow: lead_k does not divide k
                qn, r = divmod(c, lead_n)
                if r:
                    # the divisor is primitive, so an exact quotient of an
                    # integer block has integer coefficients (Gauss)
                    return None
                quot[qk] = qn * dden
                for tk, tn in tail:
                    t = qk + tk
                    prev = rem.get(t)
                    if prev is None:
                        rem[t] = -qn * tn
                        heappush(heap, -t)
                    else:
                        rem[t] = prev - qn * tn
            _put(blocks, sig, den * content, quot)
        return _new(lay, blocks)


_EMPTY = _layout(())


def _power_blocks(polys):
    """The (denominator, radicand, numerators) of every block, for `check_power`."""
    return ((den, rad, nums.values()) for p in polys for (rad, _, _), (den, nums) in p.blocks.items())


def _as_poly(x):
    return x if isinstance(x, Polynomial) else Polynomial.const(x)


def require_polynomial(p, what):
    """p if it is a Polynomial; otherwise NonPolynomialInput, naming what p is."""
    if not isinstance(p, Polynomial):
        raise NonPolynomialInput("%s must be a polynomial" % what)
    return p


def _product(lay, a, b, names=None):
    """The Polynomial with blocks a times blocks b, both keyed in lay.

    Every pair of blocks multiplies with ints only; two pairs can land on
    one signature (sqrt 2 * sqrt 2 and 1 * 1), so they meet in a `_Sum`.
    With `names`, a pair of terms multiplies as grad . grad in those
    variables instead: one gradient `Stencil` of the larger operand takes
    every term of the smaller into one sum.
    """
    total = _Sum(lay)
    for sa, (da, ta) in a.items():
        for sb, (db, tb) in b.items():
            g, sig = sig_product(sa, sb)
            big, small = (ta, tb) if len(ta) >= len(tb) else (tb, ta)
            if g != 1:
                small = {k: n * g for k, n in small.items()}
            if names is not None:
                stencil, acc = Stencil(big, lay, names, gradient_weight), {}
                for kb, nb in small.items():
                    stencil.add(kb, acc, nb)
            elif len(small) == 1:
                ((kb, nb),) = small.items()
                acc = {k + kb: n * nb for k, n in big.items()}
            else:
                acc = {}
                get = acc.get
                for kb, nb in small.items():
                    for k, n in big.items():
                        k += kb
                        acc[k] = get(k, 0) + n * nb
            total.add(sig, da * db, acc)
    return total.result()


class _Sum:
    """The one sum of the polynomial layer: blocks merged per signature.

    `+`, `poly_sum`, `from_raw` and products all add blocks here.  A block
    that arrives first under its signature is held by reference and copied
    only when a second one joins it; merging brings both to the lcm of
    their denominators and adds numerators key by key, and `result` drops
    cancelled terms and reduces each block to lowest terms.
    """

    __slots__ = ("layout", "blocks")

    def __init__(self, layout):
        self.layout = layout
        self.blocks = {}

    def add_poly(self, p):
        lay = _join(self.layout, p.layout)
        if lay is not self.layout:
            self.blocks = _rekey(_new(self.layout, self.blocks), lay)
            self.layout = lay
        for sig, (den, nums) in _rekey(p, lay).items():
            self.add(sig, den, nums)
        return self

    def add(self, sig, den, nums):
        cur = self.blocks.get(sig)
        if cur is None:
            self.blocks[sig] = (den, nums)
            return
        if isinstance(cur, tuple):
            cur = self.blocks[sig] = [cur[0], dict(cur[1])]
        total, acc = cur
        if total % den:
            f = den // gcd(total, den)
            for k in acc:
                acc[k] *= f
            cur[0] = total = total * f
        f = total // den
        get = acc.get
        for k, n in nums.items():
            acc[k] = get(k, 0) + n * f

    def result(self):
        blocks = {}
        for sig, (den, nums) in self.blocks.items():
            _put(blocks, sig, den, nums)
        return _new(self.layout, blocks)


def poly_sum(ps):
    """The sum of an iterable of Polynomials, consumed one at a time.

    A lone nonzero summand comes back unchanged.  Otherwise every summand
    goes into one `_Sum` and is dropped once its blocks are read, so a
    generator of large summands never holds more than one of them.
    """
    total = lone = None
    for p in ps:
        if not p.blocks:
            continue
        if total is not None:
            total.add_poly(p)
        elif lone is None:
            lone = p
        else:
            total = _Sum(lone.layout).add_poly(lone).add_poly(p)
            lone = None
    if total is not None:
        return total.result()
    return lone if lone is not None else Polynomial()


def check_translation(tops, c):
    """Refuse translations by c = (u/w) y that expand binomials (x + c)^top,
    one per top in tops, when those would pass MAX_POWER_SIZE bits together:
    (x + c)^top has top + 1 terms of at most top (1 + max(bits(u), bits(w)))
    bits, C(top, i) < 2^top and a lift u^i w^(top - i) in each."""
    w, nums = c.blocks[RATIONAL]
    bits = 1 + max(w.bit_length(), *(abs(n).bit_length() for n in nums.values()))
    if sum((top + 1) * top for top in tops) * bits > MAX_POWER_SIZE:
        raise UnsupportedInputError("translation too large: its result would pass %d bits" % MAX_POWER_SIZE)


def horner(pairs, base):
    """The sum of p * base^s over the (s, p) pairs, s >= 0, by Horner's rule.

    The polynomials at one s are summed first.  From the top level down to
    0, the running total is multiplied by base to the gap between present
    levels, by square-and-multiply, and the next level is added: dense
    levels form no whole power of base, and a lone level at s costs
    O(log s) products.  `check_power` refuses what base ** top would
    refuse, before the first product.
    """
    levels = {0: []}
    for s, p in pairs:
        levels.setdefault(s, []).append(p)
    order = sorted(levels, reverse=True)
    blocks, shape = tuple(_power_blocks((base,))), (base.total_degree(), len(base.variables()))
    check_power(order[0], blocks, shape)
    total = poly_sum(levels[order[0]])
    for hi, lo in zip(order, order[1:]):
        # hi > lo, so no base**0 is formed
        total = poly_sum((total * power(base, hi - lo, None, blocks, shape), *levels[lo]))
    return total


def quadratic_poly(coeffs, d=0):
    """The sum of b v^2 + c v over the (v, b, c) triples, plus d, with int or
    Fraction coefficients: one rational block in lowest terms, keyed in the
    8-bit layout of the variables with a nonzero b or c, as `poly_sum` of
    the one-variable terms would give."""
    coeffs = [t for t in coeffs if t[1] or t[2]]
    lay = _layout(tuple(sorted(v for v, _, _ in coeffs)))
    den = lcm(d.denominator, *(x.denominator for _, b, c in coeffs for x in (b, c)))
    nums = {0: d.numerator * (den // d.denominator)}
    for v, b, c in coeffs:
        u = lay.unit[v]
        for k, x in ((2 * u, b), (u, c)):
            nums[k] = nums.get(k, 0) + x.numerator * (den // x.denominator)
    blocks = {}
    _put(blocks, RATIONAL, den, nums)
    return _new(lay, blocks)


def dot_poly(a_names, b_names):
    """The dot product sum a_i*b_i of two blocks of variables; blocks of
    unequal length are a DimensionMismatch."""
    if len(a_names) != len(b_names):
        raise DimensionMismatch("dot of unequal-length vectors")
    return poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(a_names, b_names)])
