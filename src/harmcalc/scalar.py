"""Exact constants: sums of rational * pi^(k/2) * sqrt(d) * prod log(p)^m.

A Scalar is a finite sum of terms.  Each term carries a nonzero rational
coefficient, a positive squarefree radicand (1 meaning no radical), an
integer half-exponent of pi (the term contributes pi^(pi_half/2)), and a
multiset of prime logarithms.  Log arguments are always reduced to the
prime basis (log 4 becomes 2*log 2, log(3/2) becomes log 3 - log 2), which
keeps zero testing decidable: distinct signatures are treated as linearly
independent over the rationals.

Every int crosses the text boundary here: `int_text` writes the decimal
text of any int and `read_int` reads what int() reads, both past the
interpreter's digit limit, which `int_digit_limit` alone reads.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction
from functools import cache

from .errors import (
    MultiTermDivision,
    MultiTermSqrt,
    NegativeRadicand,
    NonRationalSqrt,
    NonRationalValue,
    OddPiExponent,
    UnsupportedInputError,
)

# ---------------------------------------------------------------------------
# integers as decimal text

# no digit limit can be set below this many digits (a Python without the
# limit has no threshold and converts any int)
_SAFE_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", 640)
_SAFE_INT = 10 ** (_SAFE_DIGITS - 1)
# int_text converts pieces of at most this many bits (617 digits) directly
_JOIN_BITS = 2048
# the digits of an int, with single underscores between them
_DIGITS = re.compile(r"\d+(?:_\d+)*")


def int_digit_limit():
    """The most digits int() and str() convert, 0 for no limit (Python
    before 3.10.7 has none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def int_text(n):
    """The decimal text of any int, as str() writes it, past the digit limit.

    Past 640 digits n is split in binary halves, down to pieces of at most
    `_JOIN_BITS` bits, and joined as Decimal(hi) * 2^h + Decimal(lo) with
    the powers of two cached: libmpdec multiplies large numbers by a
    number-theoretic transform, so the join is subquadratic where one
    Decimal(n) is quadratic (CPython 3.12's `_pylong.int_to_decimal`).
    """
    if -_SAFE_INT < n < _SAFE_INT:
        return str(n)

    @cache
    def two(h):
        # 2^h as a Decimal, each once per call
        return Decimal(1 << h) if h <= _JOIN_BITS else two(h >> 1) * two(h - (h >> 1))

    def join(n, w):
        # the Decimal of 0 <= n < 2^w
        if w <= _JOIN_BITS:
            return Decimal(n)
        h = w >> 1
        hi = n >> h
        return join(hi, w - h) * two(h) + join(n - (hi << h), h)

    with localcontext() as ctx:
        # every product and sum is exact
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        text = str(join(abs(n), abs(n).bit_length()))
    return text if n > 0 else "-" + text


def read_int(text):
    """The int that int(text) reads, past the digit limit; a ValueError for
    any other text int() refuses.

    Past 640 characters the digits are split in halves, down to pieces of
    at most 640 digits, which no limit refuses, and joined as
    int(hi) * 10^len(lo) + int(lo) with the powers of ten cached.
    """
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    # int() refuses a text exactly when it refuses the text with each run of
    # digits and single underscores cut to one 1, which no limit stops and
    # which reads as the sign
    sign = int(_DIGITS.sub("1", text))
    digits = _DIGITS.search(text).group().replace("_", "")
    ten = cache(lambda w: 10**w)  # each power once per call

    def join(a, b):
        # the int of digits[a:b]
        if b - a <= _SAFE_DIGITS:
            return int(digits[a:b])
        mid = (a + b) // 2
        return join(a, mid) * ten(b - mid) + join(mid, b)

    return sign * join(0, len(digits))


# ---------------------------------------------------------------------------
# integer factorization (squarefree extraction needs full factorizations)


def _sieve(limit=10000):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve()

# Miller-Rabin on the first 13 prime bases is exact below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017).  At and above it, n is read by Baillie-PSW: one Miller-Rabin round
# to base 2 and a strong Lucas test (Baillie and Wagstaff, Math. Comp. 35,
# 1980), which has no known counterexample.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES if n < _PSI_13 else (2,):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _is_strong_lucas_probable_prime(n)


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _is_strong_lucas_probable_prime(n):
    """The strong Lucas test of an odd n > 1 with no prime factor below 42,
    with Selfridge's parameters: the first D of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while _jacobi(D, n) != -1:
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n from k = 1 up the bits of d: U_2k = U_k V_k,
    # V_2k = V_k^2 - 2 Q^k, 2 U_(k+1) = U_k + V_k, 2 V_(k+1) = D U_k + V_k
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# the gcd of |x - y| is taken once per this many products mod n
_RHO_BATCH = 128


def _pollard_brent(n, budget):
    """(d, used): a proper factor d of the odd composite n by Brent's
    cycle search (BIT 20, 1980), or d = None when every c fails or the
    next round would pass `budget`.

    `budget` and `used` count in units of 2^-16 steps, and each step
    y -> y^2 + c mod n is charged by its cost, max(2^16, bits(n)^2) units:
    one whole step up to 256 bits, 15.3 steps at 1000 bits.

    Round r moves y r steps ahead of x, then r more while multiplying the
    |x - y| mod n, with one gcd per _RHO_BATCH products; r doubles each
    round and is charged its 2r steps up front.  A batch whose gcd is n
    is walked again one step at a time.  n is odd, since `factorize`
    divides out every prime below 10^4 first, and the deterministic sweep
    of c keeps results reproducible.
    """
    cost = max(1 << 16, n.bit_length() ** 2)
    used = 0
    for c in range(1, 50):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if used + 2 * r * cost > budget:
                return None, used
            used += 2 * r * cost
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BATCH):
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, used
    return None, used


def factorize(n):
    """Prime factorization of n >= 1 as a dict prime -> exponent.

    The rho splits of one call share MAX_RHO_STEPS steps, each charged by
    the size of the number it works on (`_pollard_brent`), so past 256
    bits fewer steps run; a factor left unsplit past them raises
    UnsupportedInputError, naming its digits.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if n == 1:
            return out
        if p * p > n:
            break
    stack = [n] if n > 1 else []
    budget = MAX_RHO_STEPS << 16
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, used = _pollard_brent(m, budget)
        budget -= used
        if d is None:
            digits = len(int_text(m))
            raise UnsupportedInputError(
                "could not factor a %d-digit integer within %d rho steps" % (digits, MAX_RHO_STEPS)
            )
        stack.append(d)
        stack.append(m // d)
    return out


def split_square(n):
    """n >= 1 as (s, m) with n = s^2 * m and m squarefree."""
    s, m = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, m


# ---------------------------------------------------------------------------
# Scalar

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
            if coeff == 0:
                continue
            sig = (rad, pih, logs)
            acc[sig] = acc.get(sig, _ZERO) + coeff
        # the signatures are distinct, so the sort never compares coefficients
        return Scalar(tuple((c, *sig) for sig, c in sorted(acc.items()) if c))

    @staticmethod
    def from_fraction(q):
        q = _as_fraction(q)
        if q == 0:
            return ZERO
        return Scalar(((q, 1, 0, ()),))

    @staticmethod
    def pi_power(half):
        """pi^(half/2), half an integer."""
        return Scalar(((Fraction(1), 1, int(half), ()),))

    @staticmethod
    def sqrt_int(d):
        """Exact square root of a positive integer."""
        if d <= 0:
            raise NegativeRadicand("sqrt of nonpositive integer %d" % d)
        s, m = split_square(d)
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
        q = _as_fraction(q)
        if half % 2 == 0:
            check_power(half // 2, ((q.denominator, 1, (q.numerator,)),))
            return Scalar.from_fraction(q ** (half // 2))
        return Scalar.sqrt_fraction(q) ** half

    @staticmethod
    def log_fraction(q):
        """log q for a positive rational, expanded over prime logs."""
        q = _as_fraction(q)
        if q <= 0:
            raise ValueError("log of nonpositive rational %s" % q)
        raw = []
        for p, e in factorize(q.numerator).items():
            raw.append((Fraction(e), 1, 0, ((p, 1),)))
        for p, e in factorize(q.denominator).items():
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
        other = _coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        if len(self.terms) == 1 and len(other.terms) == 1:
            c1, r1, p1, l1 = self.terms[0]
            c2, r2, p2, l2 = other.terms[0]
            if (r1, p1, l1) == (r2, p2, l2):
                c = c1 + c2
                if not c:
                    return ZERO
                return Scalar(((c, r1, p1, l1),))
        return Scalar._build(list(self.terms) + list(other.terms))

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
        if not self.terms or not other.terms:
            return ZERO
        if len(self.terms) == 1 and len(other.terms) == 1:
            t1, t2 = self.terms[0], other.terms[0]
            g, sig = sig_product(t1[1:], t2[1:])
            c = t1[0] * t2[0]
            # a Fraction times an int is slow, so skip g = 1
            return Scalar(((c * g if g > 1 else c,) + sig,))
        raw = []
        for c1, *s1 in self.terms:
            for c2, *s2 in other.terms:
                g, sig = sig_product(s1, s2)
                raw.append((c1 * c2 * g,) + sig)
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
        if not isinstance(k, int):
            raise TypeError("scalar exponent must be an integer")
        check_power(k, ((c.denominator, r, (c.numerator,)) for c, r, _, _ in self.terms))
        if k < 0:
            return power(self.inverse(), -k, ONE)
        return power(self, k, ONE)

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

# the most steps of Pollard rho in one factorization, each charged by the
# size of n (`_pollard_brent`): psi_13, the least strong pseudoprime to the
# first 13 prime bases, splits within 2^21 of them, and all 2^22 take
# 3-4 s up to 256 bits, and less above, on a 2-vCPU VM (Python 3.11)
MAX_RHO_STEPS = 1 << 22


def check_power(k, blocks, shape=None):
    """Refuse x**k when its coefficients would pass MAX_POWER_BITS bits.

    `blocks` are (denominator, radicand, numerators) triples covering the
    terms of x.  Each factor of the power adds about the largest log2
    height of a term plus log2 of the number of terms.  For a polynomial
    x, shape = (total degree d, number of variables v), and x**k is also
    refused when its estimated terms times coefficient bits would pass
    MAX_POWER_SIZE: t terms (the numerators of all blocks) give at most
    C(k+t-1, t-1) terms, and degree k*d in v variables holds at most
    C(k*d+v, v).
    """
    if -1 <= k <= 1:
        return
    count = height = 0
    for den, rad, nums in blocks:
        count += len(nums)
        top = max(max(nums), -min(nums)).bit_length()
        height = max(height, top + den.bit_length() + rad.bit_length() - 3)
    bits = height + (count - 1).bit_length() if count else 0
    if abs(k) * bits > MAX_POWER_BITS:
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


def power(x, k, one):
    """x**k for an integer k >= 0 by square-and-multiply; `one` is x**0.

    The base is squared only while a higher bit of k remains, so no
    square is computed and then thrown away.
    """
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return one if out is None else out
        x = x * x


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    raise TypeError("cannot treat %r as a Scalar" % (x,))


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


# ---------------------------------------------------------------------------
# decimal approximation


def _pi_decimal(prec):
    """pi to `prec` digits (arctan-free iteration from the decimal docs)."""
    with localcontext() as c:
        c.prec = prec + 10
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = t * n / d
            s += t
        return +s


def _eval_decimal(s, prec):
    with localcontext() as c:
        c.prec = prec
        total = Decimal(0)
        # pi only when a term has a pi factor: at high precision it dominates
        root_pi = _pi_decimal(prec).sqrt() if any(pih for _, _, pih, _ in s.terms) else None
        for coeff, rad, pih, logs in s.terms:
            v = Decimal(coeff.numerator) / Decimal(coeff.denominator)
            if pih:
                v *= root_pi**pih
            if rad != 1:
                v *= Decimal(rad).sqrt()
            for p, m in logs:
                v *= Decimal(p).ln() ** m
            total += v
        return +total


def _format_sig(v, digits):
    if v == 0:
        return "0." + "0" * digits
    q = Decimal(1).scaleb(v.adjusted() - digits + 1)
    with localcontext() as c:
        c.prec = digits + 4
        rounded = v.quantize(q)
    text = format(rounded, "f")
    return text


def approx_scalar(s, digits):
    """Correctly rounded decimal string with `digits` significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    s = _coerce(s)
    if s.is_zero():
        return "0." + "0" * digits
    guard = digits + 25
    prev = None
    for _ in range(6):
        v = _eval_decimal(s, guard)
        text = _format_sig(v, digits)
        if text == prev:
            return text
        prev = text
        guard += 20
    return prev
