import random
from fractions import Fraction as F

import pytest

from conftest import random_norm_expr

from harmcalc.errors import ParseError, UnknownVariable, UnsupportedInputError
from harmcalc.expr import Expr, Polynomial, make_context
from harmcalc.parser import parse_expression, parse_polynomial
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
