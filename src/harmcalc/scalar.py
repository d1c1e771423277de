"""Exact constants: sums of rational * pi^(k/2) * sqrt(d) * prod log(p)^m.

A Scalar is a finite sum of terms.  Each term carries a nonzero rational
coefficient, a positive squarefree radicand (1 meaning no radical), an
integer half-exponent of pi (the term contributes pi^(pi_half/2)), and a
multiset of prime logarithms.  Log arguments are always reduced to the
prime basis (log 4 becomes 2*log 2, log(3/2) becomes log 3 - log 2), which
keeps zero testing decidable: distinct signatures are treated as linearly
independent over the rationals.  Every sum and product is canonicalized by
one routine, `Scalar._build`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import arith
from .errors import (
    MultiTermDivision,
    MultiTermSqrt,
    NegativeBaseValue,
    NegativeRadicand,
    NonRationalSqrt,
    NonRationalValue,
    OddPiExponent,
    UnsupportedInputError,
)


_ZERO = Fraction(0)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


class Scalar:
    """Canonical exact constant.  Immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        # terms must already be canonical; use the constructors below
        object.__setattr__(self, "terms", tuple(terms))

    # -- construction -------------------------------------------------------

    @staticmethod
    def _build(raw):
        """Canonicalize a list of (coeff, radicand, pi_half, logs) tuples."""
        acc = {}
        for coeff, rad, pih, logs in raw:
            sig = (rad, pih, logs)
            # a signature's sum starts at its first coefficient; a zero sum drops below
            acc[sig] = acc[sig] + coeff if sig in acc else coeff
        # the signatures are distinct, so the sort never compares coefficients
        return Scalar([(c, *sig) for sig, c in sorted(acc.items()) if c])

    @staticmethod
    def from_fraction(q):
        q = _as_fraction(q)
        if q == 0:
            return ZERO
        return Scalar(((q, 1, 0, ()),))

    @staticmethod
    def pi_power(half):
        """pi^(half/2), half an int; any other half is UnsupportedInputError."""
        if not isinstance(half, int):
            raise UnsupportedInputError("pi half-exponent must be an integer, got %r" % (half,))
        return Scalar(((Fraction(1), 1, half, ()),))

    @staticmethod
    def sqrt_int(d):
        """Exact square root of a positive integer."""
        if d <= 0:
            raise NegativeRadicand("sqrt of nonpositive integer %d" % d)
        s, m = arith.split_square(d)
        if m == 1:
            return Scalar.from_fraction(Fraction(s))
        return Scalar(((Fraction(s), m, 0, ()),))

    @staticmethod
    def sqrt_fraction(q):
        """Exact square root of a positive rational."""
        q = _as_fraction(q)
        if q <= 0:
            raise NegativeRadicand("sqrt of nonpositive rational %s" % q)
        return Scalar.sqrt_int(q.numerator * q.denominator) / Fraction(q.denominator)

    @staticmethod
    def half_power(q, half):
        """q^(half/2) for a rational q: any nonzero q when half is even, q > 0 when it is odd."""
        if half % 2 == 0:
            return Scalar.from_fraction(q) ** (half // 2)
        return Scalar.sqrt_fraction(q) ** half

    @staticmethod
    def log_fraction(q):
        """log q for a positive rational, expanded over prime logs."""
        q = _as_fraction(q)
        if q <= 0:
            raise NegativeBaseValue("log of nonpositive rational %s" % q)
        raw = []
        for p, e in arith.factorize(q.numerator).items():
            raw.append((Fraction(e), 1, 0, ((p, 1),)))
        for p, e in arith.factorize(q.denominator).items():
            raw.append((Fraction(-e), 1, 0, ((p, 1),)))
        return Scalar._build(raw)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        return not self.terms or (
            len(self.terms) == 1 and self.terms[0][1:] == (1, 0, ())
        )

    def as_fraction(self):
        if not self.terms:
            return _ZERO
        if self.is_rational():
            return self.terms[0][0]
        from .render import scalar_text

        raise NonRationalValue("not a rational scalar: %s" % scalar_text(self))

    def is_single_term(self):
        return len(self.terms) == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar._build(self.terms + _coerce(other).terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(tuple((-c, r, p, lg) for c, r, p, lg in self.terms))

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        raw = []
        for t1 in self.terms:
            for t2 in other.terms:
                g, sig = sig_product(t1[1:], t2[1:])
                c = t1[0] * t2[0]
                # a Fraction times an int is slow, so skip g = 1
                raw.append((c * g if g > 1 else c,) + sig)
        return Scalar._build(raw)

    __rmul__ = __mul__

    def inverse(self):
        """Reciprocal; only single log-free terms are invertible."""
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        if len(self.terms) != 1:
            raise MultiTermDivision("division by multi-term scalar")
        c, r, p, logs = self.terms[0]
        if logs:
            raise MultiTermDivision("division by a scalar with log factors")
        # 1/(c sqrt(r) pi^(p/2)) = (1/(c r)) sqrt(r) pi^(-p/2)
        return Scalar(((Fraction(1) / (c * r), r, -p, ()),))

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __pow__(self, k):
        # a negative k inverts first; the bound is taken on self at |k|
        blocks = ((c.denominator, r, (c.numerator,)) for c, r, _, _ in self.terms)
        if isinstance(k, int) and k < 0:
            return power(self.inverse(), -k, ONE, blocks)
        return power(self, k, ONE, blocks)

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational Scalar equals its Fraction, so it must hash like one
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self.terms)

    def __repr__(self):
        from .render import scalar_text

        return "Scalar(%s)" % scalar_text(self)


# the largest power computed: one whose coefficients would need more bits
# (about 315,000 decimal digits) is refused before it is computed
MAX_POWER_BITS = 1 << 20

# the largest polynomial power computed: one whose estimated size, terms
# times coefficient bits, would pass this is refused; (x1^2 + x2^2)^2000,
# just under it, takes about 2.4 s
MAX_POWER_SIZE = 1 << 22

# the bound on the estimated size in bits of a radial anti-Laplacian
MAX_RADIAL_SIZE = MAX_POWER_SIZE << 4

# the bound on the bits of a radial moment over a linear denominator, whose
# Horner sum takes time about q times those bits; the moment of
# r^21845/(1 + r), just under it, takes about 0.5 s on a 2-vCPU VM
MAX_LINEAR_DENOMINATOR_BITS = MAX_POWER_BITS >> 3


def factorial_power_bits(k, g):
    """About the bits of k! g^(k+1): k bits(k) + (k+1) bits(g)."""
    return k * k.bit_length() + (k + 1) * g.bit_length()


def check_power(k, blocks, shape=None):
    """Refuse x**k, k >= 0, when its coefficients would pass MAX_POWER_BITS bits.

    `power` calls it on every power it computes, and `horner` on the top
    power of its base.  `blocks` are (denominator, radicand, numerators)
    triples covering the terms of x; a Scalar's negative power passes
    those of the Scalar before it is inverted.  Each factor of the power
    adds about the largest log2 height of a term plus log2 of the number
    of terms.  For a polynomial x, shape = (total degree d, number of
    variables v), and x**k is also refused when its estimated terms times
    coefficient bits would pass MAX_POWER_SIZE: t terms (the numerators
    of all blocks) give at most C(k+t-1, t-1) terms, and degree k*d in v
    variables holds at most C(k*d+v, v).
    """
    if k <= 1:
        return
    count = height = 0
    for den, rad, nums in blocks:
        count += len(nums)
        top = max(max(nums), -min(nums)).bit_length()
        height = max(height, top + den.bit_length() + rad.bit_length() - 3)
    bits = height + (count - 1).bit_length() if count else 0
    if k * bits > MAX_POWER_BITS:
        raise UnsupportedInputError(
            "power too large: its coefficients would pass %d bits" % MAX_POWER_BITS
        )
    if shape is not None and bits:
        d, v = shape
        terms = min(math.comb(k + count - 1, count - 1), math.comb(k * d + v, v))
        if terms * k * bits > MAX_POWER_SIZE:
            raise UnsupportedInputError(
                "power too large: its result would pass %d bits" % MAX_POWER_SIZE
            )


def power(x, k, one, blocks, shape=None):
    """x**k by square-and-multiply: the one exponentiation routine.

    A k that is not an int >= 0 is refused with UnsupportedInputError, and
    `check_power(k, blocks, shape)` refuses a power past the size bounds
    before any product; `one` is x**0.  The base is squared only while a
    higher bit of k remains, so no square is computed and then thrown
    away.
    """
    if not isinstance(k, int) or k < 0:
        raise UnsupportedInputError("exponent must be an integer >= 0, got %r" % (k,))
    check_power(k, blocks, shape)
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return one if out is None else out
        x = x * x


def _coerce(x):
    return x if isinstance(x, Scalar) else Scalar.from_fraction(x)


def sig_product(a, b):
    """(g, signature) of the product of two (radicand, pi half-exponent, logs)
    signatures: sqrt(r1 r2) = g sqrt(r1 r2 / g^2), g = gcd(r1, r2)."""
    (r1, p1, l1), (r2, p2, l2) = a, b
    g = math.gcd(r1, r2)
    return g, ((r1 // g) * (r2 // g), p1 + p2, _merge_logs(l1, l2))


def _merge_logs(l1, l2):
    if not l1:
        return l2
    if not l2:
        return l1
    acc = dict(l1)
    for p, e in l2:
        acc[p] = acc.get(p, 0) + e
    return tuple(sorted(acc.items()))


ZERO = Scalar()
ONE = Scalar(((Fraction(1), 1, 0, ()),))


def scalar_sqrt(s):
    """Square root of a single-term Scalar with t*t == s.

    The term must have a positive coefficient, radicand 1, an even pi
    half-exponent, and no log factors.
    """
    s = _coerce(s)
    if len(s.terms) != 1:
        raise MultiTermSqrt("sqrt of a scalar with %d terms" % len(s.terms))
    c, r, p, logs = s.terms[0]
    if logs:
        raise NonRationalSqrt("sqrt of a scalar with log factors")
    if r != 1:
        raise NonRationalSqrt("sqrt of a scalar already carrying a radical")
    if c < 0:
        raise NegativeRadicand("sqrt of a negative scalar")
    if p % 2:
        raise OddPiExponent("sqrt needs an even pi half-exponent, got %d/2" % p)
    root = Scalar.sqrt_fraction(c)
    if p:
        root = root * Scalar.pi_power(p // 2)
    return root
