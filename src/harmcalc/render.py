"""Deterministic text, LaTeX, and JSON rendering of exact values.

Scalars render as coefficient then pi, sqrt, and log factors; polynomial
terms are ordered by ascending graded-lex over the context's variables;
norm factors render as ||x||^h.  Text output for the polynomial fragment
round-trips through the parser.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd

from .expr import RATIONAL, Expr, Polynomial, context_of, order_key
from .scalar import Scalar

# ---------------------------------------------------------------------------
# scalars


def _int_text(n):
    # str(int) refuses more digits than sys.get_int_max_str_digits() allows;
    # a Decimal converts without that limit
    return str(Decimal(n))


def _fraction_text(num, den):
    if den == 1:
        return _int_text(num)
    return "%s/%s" % (_int_text(num), _int_text(den))


def _scalar_term_text(term):
    coeff, rad, pih, logs = term
    parts = []
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
    num, den = coeff.numerator, coeff.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    if not parts:
        body = _int_text(num)
    elif num == 1:
        body = "*".join(parts)
    else:
        body = "*".join([_int_text(num)] + parts)
    if den != 1:
        body += "/" + _int_text(den)
    return sign + body


def _signed_sum(terms):
    """Term strings joined as a sum, a leading minus written as a subtraction."""
    out = []
    for t in terms:
        if out:
            t = "- " + t[1:] if t.startswith("-") else "+ " + t
        out.append(t)
    return " ".join(out) or "0"


def scalar_text(s):
    return _signed_sum(map(_scalar_term_text, s.terms))


def _scalar_term_latex(term):
    coeff, rad, pih, logs = term
    parts = []
    if pih:
        parts.append(
            "\\pi" if pih == 2 else "\\pi^{%s}" % _half_text(pih)
        )
    if rad != 1:
        parts.append("\\sqrt{%d}" % rad)
    for p, m in logs:
        parts.append("\\log %d" % p if m == 1 else "(\\log %d)^{%d}" % (p, m))
    num, den = coeff.numerator, coeff.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    coeff_tex = _fraction_latex(num, den)
    if parts and num == 1 and den == 1:
        coeff_tex = ""
    return sign + (coeff_tex + " ".join(parts) if parts else coeff_tex)


def _fraction_latex(num, den):
    if den == 1:
        return _int_text(num)
    return "\\frac{%s}{%s}" % (_int_text(num), _int_text(den))


def _half_text(h):
    return str(h // 2) if h % 2 == 0 else "%d/2" % h


def scalar_latex(s):
    return _signed_sum(map(_scalar_term_latex, s.terms))


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


def _poly_terms(poly, ctx):
    """(monomial tuple, coefficient) of poly's terms, ascending graded-lex.

    A rational coefficient is (num, den) in lowest terms, read straight
    from its block; a Scalar is built only for an irrational one.
    """
    lay, blocks = poly.layout, poly.blocks.items()
    rank = ctx.var_rank if ctx is not None else {}
    for k in sorted(poly.packed_keys(), key=order_key(lay, rank)):
        if [sig for sig, (_, nums) in blocks if k in nums] == [RATIONAL]:
            den, nums = poly.blocks[RATIONAL]
            g = gcd(nums[k], den)
            yield lay.unpack(k), (nums[k] // g, den // g)
        else:
            yield lay.unpack(k), poly.coefficient_at(k)


def _poly_term_text(mono, coeff):
    mono_txt = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in mono)
    if isinstance(coeff, tuple):
        num, den = coeff
        if not mono_txt:
            return _fraction_text(num, den)
        if den == 1 and abs(num) == 1:
            return mono_txt if num == 1 else "-" + mono_txt
        return _fraction_text(num, den) + "*" + mono_txt
    body = "(%s)" % scalar_text(coeff)
    return body if not mono_txt else body + "*" + mono_txt


def _poly_term_latex(mono, coeff):
    mono_tex = " ".join(v if e == 1 else "%s^{%d}" % (v, e) for v, e in mono)
    if not isinstance(coeff, tuple):
        return ("\\left(%s\\right) %s" % (scalar_latex(coeff), mono_tex)).rstrip()
    num, den = coeff
    body = "" if abs(num) == den == 1 and mono_tex else _fraction_latex(abs(num), den)
    return ("-" if num < 0 else "") + (body + " " + mono_tex).strip()


def poly_text(poly, ctx=None):
    return _signed_sum(_poly_term_text(m, c) for m, c in _poly_terms(poly, ctx))


def poly_latex(poly, ctx=None):
    return _signed_sum(_poly_term_latex(m, c) for m, c in _poly_terms(poly, ctx))


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
            if len(poly.packed_keys()) > 1:
                body = ("\\left(%s\\right)" if latex else "(%s)") % body
            parts = [body] + [t for f in fac for t in _factor_text(ctx, *f, latex=latex)]
            body = (" " if latex else "*").join(parts)
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
