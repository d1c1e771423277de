"""Recursive-descent parser for the expression DSL.

Grammar (informally):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' ['-'] int)?
    atom   := rational | ident | 'norm' '(' vec ')' | 'norm2' '(' vec ')'
            | 'log' '(' atom ')' | 'dot' '(' vec ',' vec ')' | '(' expr ')'
    vec    := ident

`||x||` is also accepted wherever norm(x) is.  Rationals are written
int or int/int.  Errors carry the line, column, and expected-token set;
nesting deeper than the interpreter's stack allows is a location-free
ParseError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, UnknownVariable, UnsupportedInputError
from .expr import Expr, Polynomial, poly_sum
from .scalar import Scalar

_SYMBOLS = ("||", "+", "-", "*", "^", "(", ")", ",", "/")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


def _tokenize(src):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if src.startswith("||", i):
            tokens.append(_Token("norm_bars", "||", line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^(),/":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src, ctx, vectors):
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

    # ------------------------------------------------------------------

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "eof":
            self.fail(("+", "-", "*", "^", "end of input"))
        return e

    def expr(self):
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        e = self.term()
        if negate:
            e = -e
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            e = e + rhs if op.kind == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while self.peek().kind == "*":
            self.advance()
            e = e * self.factor()
        return e

    def factor(self):
        base_kind, payload = self.atom()
        exp = 1
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            t = self.expect("int", "integer exponent")
            exp = sign * int(t.text)
        return self._apply_power(base_kind, payload, exp)

    def _apply_power(self, kind, payload, exp):
        ctx = self.ctx
        if kind == "norm":
            return Expr.norm_power(ctx, exp) if payload == "__main__" else (
                Expr.base_power(ctx, self._norm_sq_poly(payload), exp)
            )
        if kind == "norm2":
            return Expr.norm_power(ctx, 2 * exp) if payload == "__main__" else (
                Expr.base_power(ctx, self._norm_sq_poly(payload), 2 * exp)
            )
        if exp >= 0:
            return payload**exp
        if isinstance(payload, Expr) and payload.is_polynomial():
            poly = payload.as_polynomial()
            if poly.is_constant():
                c = poly.constant_term()
                return Expr.from_scalar(ctx, c.inverse() ** (-exp))
        raise UnsupportedInputError(
            "negative powers are supported on norms and rationals only"
        )

    def _vector_names(self, label, tok):
        if label in self.vectors:
            return self.vectors[label]
        raise UnknownVariable("unknown vector %r (line %d, column %d)"
                              % (label, tok.line, tok.col))

    def _norm_sq_poly(self, names):
        return poly_sum([Polynomial.var(v, 2) for v in names])

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.advance()
            num = int(t.text)
            if self.peek().kind == "/":
                save = self.pos
                self.advance()
                if self.peek().kind == "int":
                    den = int(self.advance().text)
                    if den == 0:
                        raise ParseError("division by zero", t.line, t.col)
                    return "value", Expr.from_scalar(
                        self.ctx, Scalar.from_fraction(Fraction(num, den))
                    )
                self.pos = save
            return "value", Expr.from_scalar(self.ctx, Scalar.from_fraction(num))
        if t.kind == "norm_bars":
            self.advance()
            name = self.expect("ident", "vector name")
            self.expect("norm_bars", "||")
            label = name.text
            names = self._vector_names(label, name)
            if label == self.ctx.vec_label:
                return "norm", "__main__"
            return "norm", names
        if t.kind == "ident":
            self.advance()
            word = t.text
            if word in ("norm", "norm2") and self.peek().kind == "(":
                self.advance()
                name = self.expect("ident", "vector name")
                self.expect(")", ")")
                label = name.text
                names = self._vector_names(label, name)
                if label == self.ctx.vec_label:
                    return word, "__main__"
                return word, names
            if word == "log" and self.peek().kind == "(":
                self.advance()
                kind, payload = self.atom()
                self.expect(")", ")")
                return "value", self._log_atom(kind, payload, t)
            if word == "dot" and self.peek().kind == "(":
                self.advance()
                a = self.expect("ident", "vector name")
                self.expect(",", ",")
                b = self.expect("ident", "vector name")
                self.expect(")", ")")
                av = self._vector_names(a.text, a)
                bv = self._vector_names(b.text, b)
                if len(av) != len(bv):
                    raise UnsupportedInputError("dot of unequal-length vectors")
                return "value", Expr.from_poly(
                    self.ctx,
                    poly_sum(
                        [Polynomial.var(p) * Polynomial.var(q) for p, q in zip(av, bv)]
                    ),
                )
            if word in self.ctx.var_rank:
                return "value", Expr.from_poly(self.ctx, Polynomial.var(word))
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
        ctx = self.ctx
        if kind == "norm":
            half = Expr.from_scalar(ctx, Scalar.from_fraction(Fraction(1, 2)))
            if payload == "__main__":
                return half * Expr.norm_power(ctx, 0, log_pow=1)
            return half * Expr.base_power(ctx, self._norm_sq_poly(payload), 0, 1)
        if kind == "norm2":
            if payload == "__main__":
                return Expr.norm_power(ctx, 0, log_pow=1)
            return Expr.base_power(ctx, self._norm_sq_poly(payload), 0, 1)
        if isinstance(payload, Expr) and payload.is_polynomial():
            poly = payload.as_polynomial()
            if poly.is_constant():
                c = poly.constant_term()
                if c.is_rational() and c.as_fraction() > 0:
                    return Expr.from_scalar(ctx, Scalar.log_fraction(c.as_fraction()))
        raise UnsupportedInputError(
            "log supports norms and positive rationals (line %d, column %d)"
            % (tok.line, tok.col)
        )


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
