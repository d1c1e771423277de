"""Deterministic text, LaTeX, and JSON rendering of exact values.

Scalars render as coefficient then pi, sqrt, and log factors; polynomial
terms are ordered by ascending graded-lex over the context's variables;
norm factors render as ||x||^h.  Text output for the polynomial fragment
round-trips through the parser.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .expr import Expr, Polynomial, _grlex_key
from .scalar import Scalar

# ---------------------------------------------------------------------------
# scalars


def _int_text(n):
    # str(int) refuses more digits than sys.get_int_max_str_digits() allows;
    # a Decimal converts without that limit
    return str(Decimal(n))


def _fraction_text(q):
    if q.denominator == 1:
        return _int_text(q.numerator)
    return "%s/%s" % (_int_text(q.numerator), _int_text(q.denominator))


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


def scalar_text(s):
    if not s.terms:
        return "0"
    out = _scalar_term_text(s.terms[0])
    for term in s.terms[1:]:
        t = _scalar_term_text(term)
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


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
    if not s.terms:
        return "0"
    out = _scalar_term_latex(s.terms[0])
    for term in s.terms[1:]:
        t = _scalar_term_latex(term)
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def scalar_json(s):
    return {
        "terms": [
            {
                "coeff": _fraction_text(c),
                "radicand": rad,
                "piHalfExp": pih,
                "logFactors": [[p, m] for p, m in logs],
            }
            for c, rad, pih, logs in s.terms
        ]
    }


# ---------------------------------------------------------------------------
# polynomials


def _mono_text(mono, power_op="^"):
    parts = []
    for v, e in mono:
        parts.append(v if e == 1 else "%s%s%d" % (v, power_op, e))
    return "*".join(parts)


def _poly_term_text(mono, coeff):
    mono_txt = _mono_text(mono)
    if coeff.is_rational():
        q = coeff.as_fraction()
        if not mono_txt:
            return _fraction_text(q)
        if q == 1:
            return mono_txt
        if q == -1:
            return "-" + mono_txt
        return _fraction_text(q) + "*" + mono_txt
    body = "(%s)" % scalar_text(coeff)
    return body if not mono_txt else body + "*" + mono_txt


def _sorted_monos(poly, rank):
    return sorted(poly.terms.items(), key=lambda kv: _grlex_key(kv[0], rank))


def poly_text(poly, ctx=None):
    if poly.is_zero():
        return "0"
    rank = ctx.var_rank if ctx is not None else {}
    parts = []
    for mono, coeff in _sorted_monos(poly, rank):
        t = _poly_term_text(mono, coeff)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append("- " + t[1:])
        else:
            parts.append("+ " + t)
    return " ".join(parts)


def poly_latex(poly, ctx=None):
    if poly.is_zero():
        return "0"
    rank = ctx.var_rank if ctx is not None else {}
    parts = []
    for mono, coeff in _sorted_monos(poly, rank):
        mono_tex = " ".join(
            v if e == 1 else "%s^{%d}" % (v, e) for v, e in mono
        )
        if coeff.is_rational():
            q = coeff.as_fraction()
            sign = "-" if q < 0 else "+"
            q = abs(q)
            body = "" if q == 1 and mono_tex else _fraction_latex(q.numerator, q.denominator)
            term = (body + " " + mono_tex).strip()
        else:
            sign = "+"
            term = ("\\left(%s\\right) " % scalar_latex(coeff)) + mono_tex
        if not parts:
            parts.append(term if sign == "+" else "-" + term)
        else:
            parts.append(("+ " if sign == "+" else "- ") + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# expressions


def _factor_text(ctx, bid, half, logp, latex=False):
    name = ctx.base_name(bid)
    parts = []
    if name is not None and name.startswith("normSq("):
        label = name[len("normSq(") : -1]
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


def expr_text(e, ctx=None):
    ctx = ctx or e.ctx
    if e.is_zero():
        return "0"
    chunks = []
    for poly, fac in e.terms:
        body = poly_text(poly, ctx)
        if fac:
            if len(poly.terms) > 1:
                body = "(%s)" % body
            factor_parts = []
            for bid, half, logp in fac:
                factor_parts.extend(_factor_text(ctx, bid, half, logp))
            body = "*".join([body] + factor_parts)
        chunks.append(body)
    return " + ".join(chunks)


def expr_latex(e, ctx=None):
    ctx = ctx or e.ctx
    if e.is_zero():
        return "0"
    chunks = []
    for poly, fac in e.terms:
        body = poly_latex(poly, ctx)
        if fac:
            if len(poly.terms) > 1:
                body = "\\left(%s\\right)" % body
            factor_parts = []
            for bid, half, logp in fac:
                factor_parts.extend(_factor_text(ctx, bid, half, logp, latex=True))
            body = " ".join([body] + factor_parts)
        chunks.append(body)
    return " + ".join(chunks)


def expr_json(e, ctx=None):
    ctx = ctx or e.ctx
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
        return _fraction_text(value)
    if type(value) is int:
        text = _int_text(value)
        # json.dumps writes an int with str(), so a very long one goes as text
        return value if fmt == "json" and len(text) < 4300 else text
    return value if fmt == "json" else str(value)
