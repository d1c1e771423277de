"""Recursive-descent parser for the DSL: expressions and radial weights.

Expression grammar (informally):

    expr   := ['-'] term (('+'|'-') term)*
    term   := atom power ('*' atom power)*
    atom   := rational | ident | norm | 'log' '(' (norm power | atom) ')'
            | 'dot' '(' vec ',' vec ')' | '(' expr ')'
    norm   := '||' vec '||' | 'norm' '(' vec ')' | 'norm2' '(' vec ')'
    vec    := ident

Radial-weight grammar (`--weight`), a sum of c * r^a * log(r)^k over an
optional linear denominator:

    weight  := ['-'] product (('+'|'-') product)* ['/' '(' rational '+' [rational '*'] 'r' ')']
    product := piece ('*' piece)*
    piece   := rational | 'r' power | 'log' '(' 'r' ')' ['^' int]

Both share `power := ('^' ['-'] int)?` and `rational := int | int/int`;
a log power takes no sign.
One vector reader serves the norms and dot.  A norm is read as (v, k)
for ||v||^k (k = 2 for norm2), and one helper makes its powers and its
log.  Errors carry the line, column, and expected-token set; nesting
deeper than the interpreter's stack allows is a location-free
ParseError.

An expression is read as raw (Polynomial, factors) terms, the input of
`Expr._from_raw`, and each sum is canonicalized once, a parenthesised
sum included.  In a term, numbers at power 1 and variables at
nonnegative powers fold into one coefficient and one exponent map: one
monomial per term.  Every other factor is evaluated as an Expr where it
is read, under the bounds of the code that makes it (a norm atom's
canonical form, `Polynomial.__pow__` and `Expr.__pow__` for other
powers), and multiplied in with `Expr.__mul__` at its own `*`; once
the coefficient is 0 nothing more is multiplied.  A fault is therefore
raised at the token where a reader that multiplied every factor as an
Expr would raise it, with the same type and message.  The term's
monomial times the product's terms are the raw terms of the sum.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .arith import int_digit_limit, read_int
from .errors import ParseError, UnknownVariable, UnsupportedInputError
from .expr import Expr
from .integrate import RadialFunction
from .poly import Polynomial, dot_poly
from .scalar import Scalar

class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


# the pieces of a source, in order: spaces, "||", decimal digits, a word,
# an operator, or one stray character.  For str patterns \s is
# str.isspace, \d str.isdecimal and \w str.isalnum or "_": superscript
# and circled digits, which int() does not read, are no number, but
# they may continue a name.
_PIECE = re.compile(r"\s+|\|\||\d+|\w+|[-+*^(),/]|.")


def _tokenize(src):
    tokens = []
    line, line_start, pos = 1, 0, 0
    for text in _PIECE.findall(src):
        first = text[0]
        if first in "+-*^(),/":
            kind = text
        elif first.isalpha() or first == "_":
            kind = "ident"
        elif first.isdecimal():
            kind = "int"
        elif text == "||":
            kind = "norm_bars"
        elif first.isspace():
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
            pos += len(text)
            continue
        else:
            raise ParseError("unexpected character %r" % first, line, pos - line_start + 1)
        tokens.append(_Token(kind, text, line, pos - line_start + 1))
        pos += len(text)
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


def is_name(text):
    """Whether text is one whole identifier token, a name an expression can read."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0].kind == "ident" and tokens[0].text == text


_NEGATIVE_POWERS = "negative powers are supported on norms and rationals only"


def _exponent_value(token):
    """An exponent literal.  A packed key gives each variable a field as
    wide as the largest exponent needs, so an exponent costs its bits in
    every key of its polynomial; one longer than the interpreter's digit
    limit on int() is refused here, and none when there is no limit."""
    limit = int_digit_limit()
    if limit and len(token.text.lstrip("0")) > limit:
        raise UnsupportedInputError(
            "exponent longer than %d digits (line %d, column %d)" % (limit, token.line, token.col)
        )
    return read_int(token.text)


class _Parser:
    def __init__(self, src, ctx=None, vectors=()):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.ctx = ctx
        self.vectors = dict(vectors)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, expected_text=None):
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                "unexpected %s" % (t.text or "end of input"),
                t.line,
                t.col,
                (expected_text or kind,),
            )
        return self.advance()

    def fail(self, expected):
        t = self.peek()
        raise ParseError(
            "unexpected %s" % (t.text or "end of input"), t.line, t.col, expected
        )

    def rational(self):
        """int or int/int, exactly; a '/' not followed by an int is left
        for the caller."""
        t = self.expect("int", "number")
        num = read_int(t.text)
        if self.peek().kind == "/" and self.tokens[self.pos + 1].kind == "int":
            self.advance()
            den = read_int(self.advance().text)
            if den == 0:
                raise ParseError("division by zero", t.line, t.col)
            return Fraction(num, den)
        return Fraction(num)

    def power(self, signed=True):
        """An optional '^' [-]int ('^' int when not signed); 1 when absent."""
        if self.peek().kind != "^":
            return 1
        self.advance()
        if not signed:
            return _exponent_value(self.expect("int", "nonnegative integer exponent"))
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        return sign * _exponent_value(self.expect("int", "integer exponent"))

    # ------------------------------------------------------------------
    # expressions

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "eof":
            self.fail(("+", "-", "*", "^", "end of input"))
        return e

    def expr(self):
        """A sum: the raw terms of every summand, canonicalized once."""
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        raw = self.term(sign)
        while self.peek().kind in ("+", "-"):
            raw += self.term(1 if self.advance().kind == "+" else -1)
        return Expr._from_raw(self.ctx, raw)

    def term(self, sign):
        """The raw (Polynomial, factors) pairs of one product.

        Numbers at power 1 and variables at nonnegative powers fold into one
        coefficient and one exponent map, one monomial in the end.  Every
        other factor is read as an Expr and multiplied in with `Expr.__mul__`
        at its own `*`; once the coefficient is 0 nothing more is multiplied.
        """
        coeff, exps = Fraction(sign), {}
        product = None
        while True:
            t = self.peek()
            kind, payload = self.atom()
            exp = self.power()
            if kind == "number" and exp == 1:
                coeff *= payload
            elif kind == "variable" and exp >= 0:
                exps[payload] = exps.get(payload, 0) + exp
            else:
                value = self._factor(kind, payload, exp, t)
                if coeff:
                    product = value if product is None else product * value
            if self.peek().kind != "*":
                break
            self.advance()
        if not coeff:
            return []
        mono = Polynomial.monomial(coeff, exps)
        if product is None:
            return [(mono, ())]
        return [(mono * p, f) for p, f in product.terms]

    def _factor(self, kind, payload, exp, tok):
        """A factor that does not fold into the monomial, as an Expr: a norm
        power, a variable's negative power, or a value's power (a number's
        other than 1).  tok is the factor's first token."""
        if kind == "norm":
            names, k = payload
            return self._norm_power(names, k * exp)
        if kind == "variable":
            raise UnsupportedInputError(_NEGATIVE_POWERS)
        if kind == "number":
            payload = Expr.from_poly(self.ctx, Polynomial.const(payload))
        if exp >= 0:
            # Expr.__pow__ bounds a polynomial's power by its result size
            return payload if exp == 1 else payload**exp
        if payload.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        if not payload.is_polynomial() or not payload.as_polynomial().is_constant():
            raise UnsupportedInputError(_NEGATIVE_POWERS)
        return Expr.from_scalar(self.ctx, payload.as_polynomial().constant_term().inverse() ** -exp)

    def _norm_power(self, names, half, log_pow=0):
        """||v||^half * log(||v||^2)^log_pow for the vector with these names."""
        ctx = self.ctx
        if names == ctx.coords:
            return Expr.norm_power(ctx, half, log_pow)
        return Expr.base_power(ctx, ctx.norm_sq_poly(names), half, log_pow)

    def _vectors(self, *closers):
        """A vector name before each closing token; their coordinate names,
        looked up once the syntax is read."""
        names = []
        for closer in closers:
            names.append(self.expect("ident", "vector name"))
            self.expect(closer, "||" if closer == "norm_bars" else closer)
        for name in names:
            if name.text not in self.vectors:
                raise UnknownVariable("unknown vector %r (line %d, column %d)"
                                      % (name.text, name.line, name.col))
        return [self.vectors[name.text] for name in names]

    def atom(self):
        """("number", Fraction), ("variable", name), ("norm", (names, k))
        for ||v||^k (k = 1 or 2), or ("value", Expr)."""
        t = self.peek()
        if t.kind == "int":
            return "number", self.rational()
        if t.kind == "norm_bars":
            self.advance()
            (names,) = self._vectors("norm_bars")
            return "norm", (names, 1)
        if t.kind == "ident":
            self.advance()
            word = t.text
            if word in ("norm", "norm2") and self.peek().kind == "(":
                self.advance()
                (names,) = self._vectors(")")
                return "norm", (names, 1 if word == "norm" else 2)
            if word == "log" and self.peek().kind == "(":
                self.advance()
                kind, payload = self.atom()
                if kind == "norm":
                    payload = (payload[0], payload[1] * self.power())
                self.expect(")", ")")
                return "value", self._log_atom(kind, payload, t)
            if word == "dot" and self.peek().kind == "(":
                self.advance()
                av, bv = self._vectors(",", ")")
                return "value", Expr.from_poly(self.ctx, dot_poly(av, bv))
            if word in self.ctx.var_rank:
                return "variable", word
            raise UnknownVariable(
                "unknown variable %r (line %d, column %d)" % (word, t.line, t.col)
            )
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")", ")")
            return "value", e
        self.fail(("number", "variable", "norm", "log", "dot", "("))

    def _log_atom(self, kind, payload, tok):
        if kind == "norm":
            # log ||v||^k = (k/2) log(||v||^2)
            names, k = payload
            return self._norm_power(names, 0, 1).scale(Fraction(k, 2))
        c = None
        if kind == "number":
            c = payload
        elif kind == "value" and payload.is_polynomial():
            poly = payload.as_polynomial()
            if poly.is_constant() and poly.constant_term().is_rational():
                c = poly.constant_term().as_fraction()
        if c is not None and c > 0:
            return Expr.from_poly(self.ctx, Polynomial.const(Scalar.log_fraction(c)))
        raise UnsupportedInputError(
            "log supports norms and positive rationals (line %d, column %d)"
            % (tok.line, tok.col)
        )

    # ------------------------------------------------------------------
    # radial weights

    def weight(self):
        """The whole source as a radial weight."""
        terms = []
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        while True:
            c, a, k = self.weight_product()
            terms.append((Scalar.from_fraction(sign * c), a, k))
            if self.peek().kind not in ("+", "-"):
                break
            sign = 1 if self.advance().kind == "+" else -1
        lin = None
        if self.peek().kind == "/":
            self.advance()
            self.expect("(")
            c0 = self.rational()
            self.expect("+")
            c1 = Fraction(1)
            if self.peek().kind == "int":
                c1 = self.rational()
                self.expect("*")
            self._radius("linear denominator must be in r")
            self.expect(")")
            lin = (c0, c1)
        if self.peek().kind != "eof":
            self.fail(("end of input",))
        return RadialFunction(tuple(terms), lin)

    def weight_product(self):
        """(c, a, k) of one product c * r^a * log(r)^k."""
        coeff, a, k = Fraction(1), 0, 0
        while True:
            t = self.peek()
            if t.kind == "int":
                coeff *= self.rational()
            elif t.kind == "ident" and t.text == "r":
                self.advance()
                a += self.power()
            elif t.kind == "ident" and t.text == "log":
                self.advance()
                self.expect("(")
                self._radius("log(r) only")
                self.expect(")")
                k += self.power(signed=False)
            else:
                self.fail(("r", "log", "number"))
            if self.peek().kind != "*":
                return coeff, a, k
            self.advance()

    def _radius(self, message):
        t = self.expect("ident")
        if t.text != "r":
            raise ParseError(message, t.line, t.col, ("r",))


def parse_radial(src):
    """Parse a radial weight in r (see the module docstring) into an
    `integrate.RadialFunction`."""
    return _Parser(src).weight()


def parse_expression(src, ctx, vectors=None):
    """Parse DSL source into an Expr against the given context.

    `vectors` maps vector labels to coordinate-name tuples; the context's
    own label is always available.
    """
    table = {ctx.vec_label: ctx.coords}
    if vectors:
        table.update(vectors)
    try:
        return _Parser(src, ctx, table).parse()
    except RecursionError:
        # where the stack runs out depends on the caller, so no location
        raise ParseError("expression nested too deeply") from None


def parse_polynomial(src, ctx, vectors=None):
    """Parse and require a plain polynomial."""
    e = parse_expression(src, ctx, vectors)
    return e.as_polynomial()
