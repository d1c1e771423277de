"""Exact integers: the decimal codec, factorization and big products.

Every int crosses the text boundary here: `int_text` writes the decimal
text of any int and `read_int` reads what int() reads, both past the
interpreter's digit limit, which `int_digit_limit` alone reads.

Square roots and logs of rationals are canonical only over a full prime
factorization, which `factorize` gives within MAX_RHO_STEPS of Pollard
rho.  Volumes and dimension counts are products and binomials, which
`double_factorial` and `binomial` take by a product tree.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from functools import cache

from .errors import UnsupportedInputError

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


# the most steps of Pollard rho in one factorization, each charged by the
# size of n (`_pollard_brent`): psi_13, the least strong pseudoprime to the
# first 13 prime bases, splits within 2^21 of them, and all 2^22 take
# 3-4 s up to 256 bits, and less above, on a 2-vCPU VM (Python 3.11)
MAX_RHO_STEPS = 1 << 22

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
# big products

_PRODUCT_LEAF = 64  # factors a product tree leaf multiplies with plain `prod`


def _tree_product(xs):
    """The product of a sequence of ints (a list or a range), by a product
    tree: halves of near-equal size keep the big products balanced, which
    is what makes the large multiplications subquadratic."""
    if len(xs) <= _PRODUCT_LEAF:
        return math.prod(xs)
    mid = len(xs) // 2
    return _tree_product(xs[:mid]) * _tree_product(xs[mid:])


def double_factorial(k):
    """k!! = k (k - 2) (k - 4) ... down to 2 or 1; 1 for k < 2."""
    return _tree_product(range(2 - k % 2, k + 1, 2))


# the least min(k, n - k) for which `binomial` multiplies prime powers
_LEGENDRE_MIN = 4096


def binomial(n, k):
    """C(n, k) for 0 <= k <= n.

    math.comb is quadratic in the digits of the answer.  Once j = min(k,
    n - k) is at least `_LEGENDRE_MIN` and n at most 64 j, so that sieving
    to n costs no more than the answer, C(n, k) is the product, by a
    product tree, of p^e over the primes p <= n, with e = sum_i (n // p^i -
    k // p^i - (n - k) // p^i) by Legendre's formula.
    """
    j = min(k, n - k)
    if j < _LEGENDRE_MIN or n > 64 * j:
        return math.comb(n, k)
    powers = []
    for p in _sieve(n):
        e, q = 0, p
        while q <= n:
            e += n // q - k // q - (n - k) // q
            q *= p
        if e:
            powers.append(p**e)
    return _tree_product(powers)
