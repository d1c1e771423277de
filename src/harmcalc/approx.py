"""Decimal approximation of exact constants.

`approx_scalar` evaluates each term of a Scalar in `decimal` at a guard
precision past the digits asked for, and raises the guard until two
roundings agree.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

from .errors import UnsupportedInputError
from .scalar import Scalar


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
    if not isinstance(digits, int) or digits < 1:
        raise UnsupportedInputError("digits must be an integer >= 1, got %r" % (digits,))
    s = s if isinstance(s, Scalar) else Scalar.from_fraction(s)
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
