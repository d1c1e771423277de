import random
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest

from conftest import random_norm_expr

from harmcalc.errors import ParseError, UnknownVariable, UnsupportedInputError
from harmcalc.expr import Expr, Polynomial, make_context
from harmcalc.parser import parse_expression, parse_polynomial, parse_radial
from harmcalc.render import expr_text
from harmcalc.scalar import Scalar


def test_parse_monomials(ctx3):
    p = parse_polynomial("x1^4 * x2^2", ctx3)
    assert p == Polynomial.var("x1", 4) * Polynomial.var("x2", 2)


def test_parse_norm_log_product(ctx5):
    e = parse_expression("x1^2*x2*norm(x)^3*log(norm(x))", ctx5)
    want = Expr.make(
        ctx5, Polynomial.var("x1", 2) * Polynomial.var("x2"), [(ctx5.norm_base, 3, 1)]
    ).scale(Scalar.from_fraction(F(1, 2)))
    assert (e - want).is_zero()


@pytest.mark.parametrize("parse", [parse_expression, parse_polynomial])
def test_deep_nesting_is_a_parse_error(parse, ctx3):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 3000 + "x1" + ")" * 3000, ctx3)
    # moderate nesting still parses
    assert parse("(" * 50 + "x1" + ")" * 50, ctx3) == parse("x1", ctx3)


def test_parse_error_location(ctx3):
    with pytest.raises(ParseError) as err:
        parse_expression("x1^4*x2^2 + (1/2", ctx3)
    assert err.value.line == 1
    assert err.value.column == 17
    assert ")" in err.value.expected


def test_parse_error_bad_char(ctx3):
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + @", ctx3)
    assert err.value.column == 6


def test_unknown_variable(ctx3):
    with pytest.raises(UnknownVariable):
        parse_expression("x9", ctx3)
    with pytest.raises(UnknownVariable):
        parse_expression("dot(x,q)", ctx3)
    # a vector atom's syntax is read before its names are looked up
    for src in ("dot(q, )", "dot(q, x", "norm(q", "||q"):
        with pytest.raises(ParseError):
            parse_expression(src, ctx3)


def test_one_norm_atom_for_every_vector():
    ctx = make_context(3, extra_vecs=("y",))
    vectors = {"y": ("y1", "y2", "y3"), "z": ctx.coords}

    def parse(src):
        return parse_expression(src, ctx, vectors)

    for v in "xyz":
        assert parse("norm2(%s)" % v) == parse("||%s||^2" % v) == parse("norm(%s)^2" % v)
        assert parse("log(norm2(%s))" % v) == parse("2*log(||%s||)" % v)
    # a label for the coordinates reads as the norm base itself
    assert parse("norm(z)^-3*log(||z||)").terms == parse("norm(x)^-3*log(||x||)").terms


def test_norm_bars_syntax(ctx3):
    a = parse_expression("||x||^2", ctx3)
    b = parse_expression("norm2(x)", ctx3)
    assert (a - b).is_zero()
    assert (a - Expr.from_poly(ctx3, ctx3.norm_sq_poly())).is_zero()


def test_negative_powers(ctx3):
    e = parse_expression("norm(x)^-3", ctx3)
    assert (e - Expr.norm_power(ctx3, -3)).is_zero()
    e2 = parse_expression("2^-3", ctx3)
    assert e2 == Expr.from_scalar(ctx3, Scalar.from_fraction(F(1, 8)))
    with pytest.raises(UnsupportedInputError):
        parse_expression("x1^-1", ctx3)


def test_dot_and_second_vector():
    ctx = make_context(3, extra_vecs=("y",))
    e = parse_expression("dot(x,y)", ctx, vectors={"y": ("y1", "y2", "y3")})
    want = Expr.from_poly(
        ctx,
        Polynomial.var("x1") * Polynomial.var("y1")
        + Polynomial.var("x2") * Polynomial.var("y2")
        + Polynomial.var("x3") * Polynomial.var("y3"),
    )
    assert (e - want).is_zero()


def test_log_of_rational(ctx3):
    e = parse_expression("log(4)", ctx3)
    assert e == Expr.from_scalar(ctx3, Scalar.log_fraction(2) * Scalar.from_fraction(2))
    with pytest.raises(UnsupportedInputError):
        parse_expression("log(x1)", ctx3)


def test_unary_minus(ctx3):
    e = parse_expression("-x1 + 2", ctx3)
    assert e == Expr.from_poly(ctx3, Polynomial.const(2) - Polynomial.var("x1"))


def test_round_trip_random(ctx3):
    rng = random.Random(67)
    for _ in range(100):
        e = random_norm_expr(rng, ctx3)
        text = expr_text(e, ctx3)
        back = parse_expression(text, ctx3)
        assert (back - e).is_zero()


def test_long_literal_parses_exactly_and_renders_in_full(ctx3):
    # longer than the digits int(str) converts
    digits = "1" * 5000
    e = parse_expression("%s*x1 - %s/7" % (digits, digits), ctx3)
    n = int(Decimal(digits))
    assert e == Expr.from_poly(ctx3, Polynomial.var("x1").scale(n) - F(n, 7))
    assert expr_text(e, ctx3) == "-%s/7 + %s*x1" % (digits, digits)
    assert parse_expression(expr_text(e, ctx3), ctx3) == e


def test_exponent_longer_than_output_prints_is_a_typed_error(ctx3):
    with pytest.raises(UnsupportedInputError, match="exponent longer than"):
        parse_expression("x1^" + "1" * 5000, ctx3)
    with pytest.raises(UnsupportedInputError, match="exponent longer than"):
        parse_expression("norm(x)^-" + "2" * 5000, ctx3)
    # leading zeros do not count, and a long exponent that prints still works
    assert parse_polynomial("x1^" + "0" * 5000 + "3", ctx3) == Polynomial.var("x1", 3)
    big = 10**300
    assert parse_polynomial("x1^%d" % big, ctx3) == Polynomial.var("x1", big)


def test_long_exponent_parses_where_python_has_no_digit_limit(ctx3, monkeypatch):
    # Python before 3.10.7 has neither the str() digit limit nor its getter
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    digits = "1" * 5000
    assert parse_polynomial("x1^" + digits, ctx3) == Polynomial.var("x1", int(Decimal(digits)))


@pytest.mark.parametrize("src", ["x1^\u00b2", "\u2460", "2*x1^\u00b9\u00b2", "x1^3\u00b2"])
def test_digits_that_are_not_decimal_are_parse_errors(src, ctx3):
    # superscript and circled digits pass str.isdigit, which Decimal refuses
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression(src, ctx3)


def test_weight_digits_that_are_not_decimal_are_parse_errors():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_radial("r^\u00b2")


def test_decimal_digits_of_other_scripts_read_as_numbers(ctx3):
    # Arabic-Indic three, and Devanagari one and two
    assert parse_polynomial("x1^\u0663", ctx3) == Polynomial.var("x1", 3)
    assert parse_polynomial("\u0967\u0968*x2", ctx3) == Polynomial.var("x2").scale(12)
    assert parse_radial("r^\u0663") == parse_radial("r^3")
