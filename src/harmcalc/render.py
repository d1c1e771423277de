"""Deterministic text, LaTeX, and JSON rendering of exact values.

Scalars render as coefficient then pi, sqrt, and log factors; polynomial
terms are ordered by ascending graded-lex over the context's variables;
norm factors render as ||x||^h.  Text output for the polynomial fragment
round-trips through the parser.

A polynomial prints from its blocks, one path for text and LaTeX (JSON
carries the text).  Its keys are sorted by `order_key`; a key that one
block holds prints its coefficient as ints over that block's denominator,
reduced, beside the block's signature factors (`sqrt(3)`, `pi^(3/2)`,
`log(2)^2`), which are written once per block.  Only a key that several
blocks hold builds its Scalar coefficient.  Monomials are joined from the
powers of each variable ("x1", "x1^3", "x1^{3}"), kept per output form on
the interned `Layout` in `Layout.powers`: a table holds only the exponents
printed in that layout, so it stays bounded by the variables times the
exponents used, and in the usual 8-bit layout a key's exponents are its
bytes.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from operator import getitem

from .expr import Expr, context_of
from .poly import Polynomial, order_key
from .scalar import Scalar

# ---------------------------------------------------------------------------
# scalars

# str(int) refuses more digits than sys.get_int_max_str_digits() allows, and
# no limit can be set below this threshold (a Python without the limit has
# the attribute missing and takes any int)
_STR_LIMIT = 10 ** (getattr(sys.int_info, "str_digits_check_threshold", 640) - 1)


def _int_text(n):
    # below the threshold's digit count str() always works; a Decimal
    # converts any int, past every limit
    if -_STR_LIMIT < n < _STR_LIMIT:
        return str(n)
    return str(Decimal(n))


def _fraction_text(num, den):
    if den == 1:
        return _int_text(num)
    return "%s/%s" % (_int_text(num), _int_text(den))


def _fraction_latex(num, den):
    if den == 1:
        return _int_text(num)
    return "\\frac{%s}{%s}" % (_int_text(num), _int_text(den))


def _half_text(h):
    return str(h // 2) if h % 2 == 0 else "%d/2" % h


def _sig_factors(sig, latex):
    """The printed factors of a Scalar signature (radicand, pi half-exponent,
    logs): pi's power, then the square root, then the logs."""
    rad, pih, logs = sig
    parts = []
    if latex:
        if pih:
            parts.append("\\pi" if pih == 2 else "\\pi^{%s}" % _half_text(pih))
        if rad != 1:
            parts.append("\\sqrt{%d}" % rad)
        for p, m in logs:
            parts.append("\\log %d" % p if m == 1 else "(\\log %d)^{%d}" % (p, m))
        return " ".join(parts)
    if pih:
        if pih % 2 == 0:
            e = pih // 2
            parts.append("pi" if e == 1 else "pi^%d" % e if e > 0 else "pi^(%d)" % e)
        else:
            parts.append("pi^(%d/2)" % pih)
    if rad != 1:
        parts.append("sqrt(%d)" % rad)
    for p, m in logs:
        parts.append("log(%d)" % p if m == 1 else "log(%d)^%d" % (p, m))
    return "*".join(parts)


def _coeff_text(num, den, factors):
    """num/den times the joined signature factors ('' for a rational), sign first."""
    if not factors:
        return _fraction_text(num, den)
    sign = "-" if num < 0 else ""
    num = abs(num)
    body = factors if num == 1 else _int_text(num) + "*" + factors
    if den != 1:
        body += "/" + _int_text(den)
    return sign + body


def _coeff_latex(num, den, factors):
    sign = "-" if num < 0 else ""
    num = abs(num)
    if factors and num == 1 and den == 1:
        return sign + factors
    return sign + _fraction_latex(num, den) + factors


def _signed_sum(terms):
    """Term strings joined as a sum, a leading minus written as a subtraction."""
    terms = list(terms)
    if not terms:
        return "0"
    rest = [" - " + t[1:] if t[0] == "-" else " + " + t for t in terms[1:]]
    return terms[0] + "".join(rest)


def scalar_text(s):
    return _signed_sum(
        _coeff_text(c.numerator, c.denominator, _sig_factors(sig, False)) for c, *sig in s.terms
    )


def scalar_latex(s):
    return _signed_sum(
        _coeff_latex(c.numerator, c.denominator, _sig_factors(sig, True)) for c, *sig in s.terms
    )


def scalar_json(s):
    return {
        "terms": [
            {
                "coeff": _fraction_text(c.numerator, c.denominator),
                "radicand": rad,
                "piHalfExp": pih,
                "logFactors": [[p, m] for p, m in logs],
            }
            for c, rad, pih, logs in s.terms
        ]
    }


# ---------------------------------------------------------------------------
# polynomials


class _Powers(dict):
    """The printed powers of one variable by exponent: '' for 0, the name for
    1, and each other exponent formatted when first read."""

    __slots__ = ("name", "form")

    def __init__(self, name, form):
        super().__init__({0: "", 1: name})
        self.name, self.form = name, form

    def __missing__(self, e):
        out = self[e] = self.form % (self.name, e)
        return out


def _monomials(lay, keys, latex):
    """The printed monomial of each packed key: the layout's powers of its
    variables, in name order, joined."""
    tables = lay.powers.get(latex)
    if tables is None:
        form = "%s^{%d}" if latex else "%s^%d"
        tables = lay.powers[latex] = tuple(_Powers(v, form) for v in lay.names)
    sep = " " if latex else "*"
    if lay.stride == 8:
        # one byte a field from the low end, the total degree's on top
        width = len(lay.names) + 1
        return [sep.join(filter(None, map(getitem, tables, k.to_bytes(width, "little")))) for k in keys]
    fields, mask = range(0, lay.top, lay.stride), lay.mask
    return [sep.join(filter(None, map(getitem, tables, [k >> s & mask for s in fields]))) for k in keys]


def _rational_term_text(num, den, mono):
    if not mono:
        return _fraction_text(num, den)
    if den == 1 and (num == 1 or num == -1):
        return mono if num == 1 else "-" + mono
    return _fraction_text(num, den) + "*" + mono


def _rational_term_latex(num, den, mono):
    sign = "-" if num < 0 else ""
    if not mono:
        return sign + _fraction_latex(abs(num), den)
    if den == 1 and (num == 1 or num == -1):
        return sign + mono
    return sign + _fraction_latex(abs(num), den) + " " + mono


# by latex or not: a coefficient's text, a rational term's text, and an
# irrational coefficient wrapped before a monomial and alone
_TERM_FORMS = {
    False: (_coeff_text, _rational_term_text, "(%s)*%s", "(%s)"),
    True: (_coeff_latex, _rational_term_latex, "\\left(%s\\right) %s", "\\left(%s\\right)"),
}


def _poly_render(poly, ctx, latex):
    """poly's terms as one sum, ascending graded-lex over ctx's variables.

    A key held by one block, which is every key of a one-block polynomial,
    prints its coefficient as ints over the block denominator beside the
    block's signature factors, written once; only a key that several
    blocks hold has its coefficient built as a Scalar.
    """
    owner = {}
    for sig, (den, nums) in poly.blocks.items():
        block = (_sig_factors(sig, latex), den, nums)
        if owner:
            for k in nums:
                owner[k] = None if k in owner else block
        else:
            owner = dict.fromkeys(nums, block)
    lay = poly.layout
    keys = sorted(owner, key=order_key(lay, ctx.var_rank if ctx is not None else {}))
    coeff_text, rational_term, wrap, wrap_alone = _TERM_FORMS[latex]
    out = []
    for k, mono in zip(keys, _monomials(lay, keys, latex)):
        block = owner[k]
        if block is None:
            c = poly.coefficient_at(k)
            coeff = scalar_latex(c) if latex else scalar_text(c)
        else:
            factors, den, nums = block
            num = nums[k]
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
            if not factors:
                out.append(rational_term(num, den, mono))
                continue
            coeff = coeff_text(num, den, factors)
        out.append(wrap % (coeff, mono) if mono else wrap_alone % coeff)
    return _signed_sum(out)


def poly_text(poly, ctx=None):
    return _poly_render(poly, ctx, latex=False)


def poly_latex(poly, ctx=None):
    return _poly_render(poly, ctx, latex=True)


# ---------------------------------------------------------------------------
# expressions


def _factor_text(ctx, bid, half, logp, latex=False):
    parts = []
    if bid == ctx.norm_base:
        label = ctx.vec_label
        if latex:
            core = "\\lVert %s \\rVert" % label
            if half:
                parts.append(core if half == 1 else "%s^{%s}" % (core, half))
            if logp:
                log = "\\log \\lVert %s \\rVert^2" % label
                parts.append(log if logp == 1 else "(%s)^{%d}" % (log, logp))
        else:
            if half:
                parts.append(
                    "||%s||" % label
                    if half == 1
                    else "||%s||^%d" % (label, half)
                )
            if logp:
                core = "log(||%s||^2)" % label
                parts.append(core if logp == 1 else "%s^%d" % (core, logp))
        return parts
    body = poly_text(ctx.base_poly(bid), ctx) if not latex else poly_latex(
        ctx.base_poly(bid), ctx
    )
    wrapped = "(%s)" % body
    if half:
        if latex:
            parts.append("%s^{%s}" % (wrapped, _half_text(half)))
        elif half % 2 == 0:
            parts.append("%s^%d" % (wrapped, half // 2))
        else:
            parts.append("%s^(%d/2)" % (wrapped, half))
    if logp:
        log = ("\\log %s" % wrapped) if latex else "log%s" % wrapped
        parts.append(log if logp == 1 else (
            "(%s)^{%d}" % (log, logp) if latex else "%s^%d" % (log, logp)
        ))
    return parts


def _expr_render(e, ctx, latex):
    ctx = context_of(e, ctx)
    chunks = []
    for poly, fac in e.terms:
        body = poly_latex(poly, ctx) if latex else poly_text(poly, ctx)
        if fac:
            parts = [t for f in fac for t in _factor_text(ctx, *f, latex=latex)]
            if body in ("1", "-1"):
                # a unit polynomial prints as its sign before the factors
                body = body[:-1] + (" " if latex else "*").join(parts)
            else:
                if len(poly.packed_keys()) > 1:
                    body = ("\\left(%s\\right)" if latex else "(%s)") % body
                body = (" " if latex else "*").join([body] + parts)
        chunks.append(body)
    return " + ".join(chunks) or "0"


def expr_text(e, ctx=None):
    return _expr_render(e, ctx, latex=False)


def expr_latex(e, ctx=None):
    return _expr_render(e, ctx, latex=True)


def expr_json(e, ctx=None):
    ctx = context_of(e, ctx)
    return {
        "terms": [
            {
                "poly": poly_text(poly, ctx),
                "factors": [
                    {
                        "base": ctx.base_name(bid)
                        or poly_text(ctx.base_poly(bid), ctx),
                        "halfExp": half,
                        "logPow": logp,
                    }
                    for bid, half, logp in fac
                ],
            }
            for poly, fac in e.terms
        ]
    }


def render_value(value, fmt, ctx=None):
    """Render a Scalar, Polynomial, Expr, point tuple, or plain data."""
    if isinstance(value, Scalar):
        if fmt == "json":
            return scalar_json(value)
        return scalar_latex(value) if fmt == "latex" else scalar_text(value)
    if isinstance(value, Polynomial):
        if fmt == "json":
            return {"poly": poly_text(value, ctx)}
        return poly_latex(value, ctx) if fmt == "latex" else poly_text(value, ctx)
    if isinstance(value, Expr):
        if fmt == "json":
            return expr_json(value, ctx)
        return expr_latex(value, ctx) if fmt == "latex" else expr_text(value, ctx)
    if isinstance(value, tuple):
        rendered = [render_value(v, fmt, ctx) for v in value]
        if fmt == "json":
            return rendered
        return "(" + ", ".join(str(r) for r in rendered) + ")"
    if isinstance(value, Fraction):
        return _fraction_text(value.numerator, value.denominator)
    if type(value) is int:
        text = _int_text(value)
        # json.dumps writes an int with str(), so a very long one goes as text
        return value if fmt == "json" and len(text) < 4300 else text
    return value if fmt == "json" else str(value)
