"""Deterministic text, LaTeX, and JSON rendering of exact values.

Scalars render as coefficient then pi, sqrt, and log factors; polynomial
terms are ordered by ascending graded-lex over the context's variables;
norm factors render as ||x||^h.  Text output for the polynomial fragment
round-trips through the parser.

Each value shape has one code path for text and LaTeX (JSON carries the
text); every difference between the two forms is a row of `_FORM_ROWS`.
A coefficient prints before what it multiplies by one rule, `_times`: a
unit coefficient prints as its sign alone.

A polynomial prints from its blocks.  Its keys are sorted by `order_key`;
a key that one block holds prints its coefficient as ints over that
block's denominator, reduced, beside the block's signature factors
(`sqrt(3)`, `pi^(3/2)`, `log(2)^2`), which are written once per block.
Only a key that several blocks hold builds its Scalar coefficient.
Monomials are joined from the powers of each variable ("x1", "x1^3",
"x1^{3}"), kept per output form on the interned `Layout` in
`Layout.powers`: a table holds only the exponents printed in that layout,
so it stays bounded by the variables times the exponents used, and in the
usual 8-bit layout a key's exponents are its bytes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import getitem

from .expr import Expr, context_of
from .poly import Polynomial, order_key
from .scalar import Scalar, int_digit_limit, int_text

# ---------------------------------------------------------------------------
# numbers and products


def _json_int(n):
    """n as a JSON number while its text is shorter than the interpreter's
    digit limit, which could stop json.dumps writing it; its text otherwise."""
    text = int_text(n)
    limit = int_digit_limit()
    return text if limit and len(text) >= limit else n


def _fraction(num, den, frac="%s/%s"):
    """num/den in the form's fraction format, the sign in front."""
    if den == 1:
        return int_text(num)
    text = frac % (int_text(abs(num)), int_text(den))
    return "-" + text if num < 0 else text


def _times(coeff, rest, sep):
    """The printed coeff times the printed rest ('' for none); a unit
    coefficient prints as its sign alone."""
    if not rest:
        return coeff
    if coeff == "1" or coeff == "-1":
        return coeff[:-1] + rest
    return coeff + sep + rest


def _power(fmt, core, e):
    """core to the int power e by the format fmt; a power of 1 is core alone."""
    return core if e == 1 else fmt % (core, int_text(e))


def _signed_sum(terms):
    """Term strings joined as a sum, a leading minus written as a subtraction."""
    terms = list(terms)
    if not terms:
        return "0"
    rest = [" - " + t[1:] if t[0] == "-" else " + " + t for t in terms[1:]]
    return terms[0] + "".join(rest)


# ---------------------------------------------------------------------------
# the two forms


def _coeff_text(num, den, factors):
    """num/den times the joined signature factors ('' for none): 3*sqrt(2)/4."""
    return _times(int_text(num), factors, "*") + ("" if den == 1 else "/" + int_text(den))


def _coeff_latex(num, den, factors):
    """The same in LaTeX, the factors after the fraction: \\frac{3}{4}\\sqrt{2}."""
    return _times(_fraction(num, den, _LATEX.frac), factors, "")


# one row per element of the output: its name, its text form, its LaTeX form
_FORM_ROWS = (
    # joins a monomial's powers, a signature's factors and a term's factors
    ("sep", "*", " "),
    ("frac", "%s/%s", "\\frac{%s}{%s}"),
    # an irrational coefficient, or a sum of terms, before base factors
    ("wrap", "(%s)", "\\left(%s\\right)"),
    ("coeff", _coeff_text, _coeff_latex),
    # an int power; pi's when negative; a half power, given 2 * exponent
    ("power", "%s^%s", "%s^{%s}"),
    ("neg_power", "%s^(%s)", "%s^{%s}"),
    ("half", "%s^(%s/2)", "%s^{%s/2}"),
    ("pi", "pi", "\\pi"),
    ("sqrt", "sqrt(%s)", "\\sqrt{%s}"),
    # the log of a prime or of ||x||^2; of a parenthesized base; its power
    ("log", "log(%s)", "\\log %s"),
    ("log_base", "log%s", "\\log %s"),
    ("log_power", "%s^%s", "(%s)^{%s}"),
    ("norm", "||%s||", "\\lVert %s \\rVert"),
)
_Form = namedtuple("_Form", [row[0] for row in _FORM_ROWS])
_TEXT, _LATEX = (_Form(*[row[i] for row in _FORM_ROWS]) for i in (1, 2))

# ---------------------------------------------------------------------------
# scalars


def _sig_factors(sig, form):
    """The printed factors of a Scalar signature (radicand, pi half-exponent,
    logs): pi's power, then the square root, then the logs."""
    rad, pih, logs = sig
    parts = []
    if pih % 2:
        parts.append(form.half % (form.pi, int_text(pih)))
    elif pih:
        parts.append(_power(form.power if pih > 0 else form.neg_power, form.pi, pih // 2))
    if rad != 1:
        parts.append(form.sqrt % int_text(rad))
    for p, m in logs:
        parts.append(_power(form.log_power, form.log % int_text(p), m))
    return form.sep.join(parts)


def _scalar_render(s, form):
    coeff = form.coeff
    return _signed_sum(coeff(c.numerator, c.denominator, _sig_factors(sig, form)) for c, *sig in s.terms)


def scalar_text(s):
    return _scalar_render(s, _TEXT)


def scalar_latex(s):
    return _scalar_render(s, _LATEX)


def scalar_json(s):
    return {
        "terms": [
            {
                "coeff": _fraction(c.numerator, c.denominator),
                "radicand": _json_int(rad),
                "piHalfExp": _json_int(pih),
                "logFactors": [[_json_int(p), _json_int(m)] for p, m in logs],
            }
            for c, rad, pih, logs in s.terms
        ]
    }


# ---------------------------------------------------------------------------
# polynomials


class _Powers(dict):
    """The printed powers of one variable by exponent: '' for 0, the name for
    1, and each other exponent formatted when first read."""

    __slots__ = ("name", "fmt")

    def __init__(self, name, fmt):
        super().__init__({0: "", 1: name})
        self.name, self.fmt = name, fmt

    def __missing__(self, e):
        out = self[e] = self.fmt % (self.name, int_text(e))
        return out


def _monomials(lay, keys, form):
    """The printed monomial of each packed key: the layout's powers of its
    variables, in name order, joined."""
    tables = lay.powers.get(form.power)
    if tables is None:
        tables = lay.powers[form.power] = tuple(_Powers(v, form.power) for v in lay.names)
    sep = form.sep
    if lay.stride == 8:
        # one byte a field from the low end, the total degree's on top
        width = len(lay.names) + 1
        return [sep.join(filter(None, map(getitem, tables, k.to_bytes(width, "little")))) for k in keys]
    fields, mask = range(0, lay.top, lay.stride), lay.mask
    return [sep.join(filter(None, map(getitem, tables, [k >> s & mask for s in fields]))) for k in keys]


def _poly_render(poly, ctx, form):
    """poly's terms as one sum, ascending graded-lex over ctx's variables.

    A key held by one block, which is every key of a one-block polynomial,
    prints its coefficient as ints over the block denominator beside the
    block's signature factors, written once; only a key that several
    blocks hold has its coefficient built as a Scalar.
    """
    owner = {}
    for sig, (den, nums) in poly.blocks.items():
        block = (_sig_factors(sig, form), den, nums)
        if owner:
            for k in nums:
                owner[k] = None if k in owner else block
        else:
            owner = dict.fromkeys(nums, block)
    lay = poly.layout
    keys = sorted(owner, key=order_key(lay, ctx.var_rank if ctx is not None else {}))
    sep, frac, wrap, coeff_of = form.sep, form.frac, form.wrap, form.coeff
    out = []
    for k, mono in zip(keys, _monomials(lay, keys, form)):
        block = owner[k]
        if block is None:
            coeff = wrap % _scalar_render(poly.coefficient_at(k), form)
        else:
            factors, den, nums = block
            num = nums[k]
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
            coeff = wrap % coeff_of(num, den, factors) if factors else _fraction(num, den, frac)
        out.append(_times(coeff, mono, sep))
    return _signed_sum(out)


def poly_text(poly, ctx=None):
    return _poly_render(poly, ctx, _TEXT)


def poly_latex(poly, ctx=None):
    return _poly_render(poly, ctx, _LATEX)


# ---------------------------------------------------------------------------
# expressions


def _factor_text(ctx, bid, half, logp, form):
    """The printed factors of one base power: the power, then the log's."""
    parts = []
    if bid == ctx.norm_base:
        core = form.norm % ctx.vec_label
        if half:
            parts.append(_power(form.power, core, half))
        log = form.log % (core + "^2")
    else:
        core = "(%s)" % _poly_render(ctx.base_poly(bid), ctx, form)
        if half:
            fmt, e = (form.half, half) if half % 2 else (form.power, half // 2)
            parts.append(fmt % (core, int_text(e)))
        log = form.log_base % core
    if logp:
        parts.append(_power(form.log_power, log, logp))
    return parts


def _expr_render(e, ctx, form):
    ctx = context_of(e, ctx)
    chunks = []
    for poly, fac in e.terms:
        body = _poly_render(poly, ctx, form)
        if fac:
            if len(poly.packed_keys()) > 1:
                body = form.wrap % body
            parts = [t for f in fac for t in _factor_text(ctx, *f, form)]
            body = _times(body, form.sep.join(parts), form.sep)
        chunks.append(body)
    return " + ".join(chunks) or "0"


def expr_text(e, ctx=None):
    return _expr_render(e, ctx, _TEXT)


def expr_latex(e, ctx=None):
    return _expr_render(e, ctx, _LATEX)


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
                        "halfExp": _json_int(half),
                        "logPow": _json_int(logp),
                    }
                    for bid, half, logp in fac
                ],
            }
            for poly, fac in e.terms
        ]
    }


def render_value(value, fmt, ctx=None):
    """Render a Scalar, Polynomial, Expr, point tuple, or plain data."""
    form = _LATEX if fmt == "latex" else _TEXT
    if isinstance(value, Scalar):
        return scalar_json(value) if fmt == "json" else _scalar_render(value, form)
    if isinstance(value, Polynomial):
        return {"poly": poly_text(value, ctx)} if fmt == "json" else _poly_render(value, ctx, form)
    if isinstance(value, Expr):
        return expr_json(value, ctx) if fmt == "json" else _expr_render(value, ctx, form)
    if isinstance(value, tuple):
        rendered = [render_value(v, fmt, ctx) for v in value]
        if fmt == "json":
            return rendered
        return "(" + ", ".join(str(r) for r in rendered) + ")"
    if isinstance(value, Fraction):
        return _fraction(value.numerator, value.denominator)
    if type(value) is int:
        return _json_int(value) if fmt == "json" else int_text(value)
    return value if fmt == "json" else str(value)
