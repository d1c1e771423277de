import random
import re
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest

from conftest import random_norm_expr
from poly_oracle import parse_by_factors, tokenize_by_characters

from harmcalc.errors import HarmcalcError, ParseError, UnknownVariable, UnsupportedInputError
from harmcalc.expr import Expr, make_context
from harmcalc.poly import Polynomial
from harmcalc import scalar
from harmcalc.parser import _tokenize, parse_expression, parse_polynomial, parse_radial
from harmcalc.calculus import laplacian_of
from harmcalc.render import expr_json, expr_latex, expr_text
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


@pytest.mark.parametrize(
    "src, column",
    [("0^-1", 1), ("x1 + (x1 - x1)^-2", 6), ("2*0^-3*x1", 3), ("log(1)^-1", 1), ("(0)^-1 + bogus", 1)],
)
def test_a_zero_to_a_negative_power_is_a_division_by_zero(src, column, ctx3):
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_expression(src, ctx3)
    assert (err.value.line, err.value.column) == (1, column)
    # as is a zero denominator
    with pytest.raises(ParseError, match="division by zero"):
        parse_expression("1/0", ctx3)
    assert parse_expression("0^0", ctx3) == Expr.from_scalar(ctx3, 1)


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


def test_log_takes_a_power_on_a_norm_only(ctx3):
    # log ||v||^k = (k/2) log(||v||^2), so the printed log factor reads back
    assert parse_expression("log(||x||^2)", ctx3) == parse_expression("2*log(norm(x))", ctx3)
    assert parse_expression("log(norm(x)^-3)", ctx3) == parse_expression("-3*log(||x||)", ctx3)
    assert parse_expression("log(norm2(x)^2)", ctx3) == parse_expression("4*log(||x||)", ctx3)
    assert parse_expression("log(||x||^0)", ctx3).is_zero()
    # every other atom takes no power inside log
    for src in ("log(x1^2)", "log(2^2)", "log((x1)^2)"):
        with pytest.raises(ParseError, match="unexpected \\^"):
            parse_expression(src, ctx3)


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


def test_unit_polynomial_prints_only_its_sign_and_factors(ctx3):
    # a term whose polynomial is 1 or -1 prints no coefficient before its
    # factors, and the text reads back as the same Expr
    norm = "\\lVert x \\rVert"
    cases = {
        "norm(x)^-4 + x1*norm(x)^-3": ("||x||^-4 + x1*||x||^-3", "%s^{-4} + x1 %s^{-3}" % (norm, norm)),
        "-norm(x)^-4 + x1*norm(x)^-3": ("-||x||^-4 + x1*||x||^-3", "-%s^{-4} + x1 %s^{-3}" % (norm, norm)),
        "-norm(x)^-1": ("-||x||^-1", "-%s^{-1}" % norm),
        "norm(x)^-3": ("||x||^-3", "%s^{-3}" % norm),
    }
    for src, (text, latex) in cases.items():
        e = parse_expression(src, ctx3)
        assert expr_text(e, ctx3) == text
        assert expr_latex(e, ctx3) == latex
        assert parse_expression(text, ctx3) == e
    e = laplacian_of(parse_expression("x1^2*log(norm(x))", ctx3), ctx=ctx3)
    assert expr_text(e, ctx3) == "5*x1^2*||x||^-2 + log(||x||^2)"
    assert parse_expression(expr_text(e, ctx3), ctx3) == e
    # JSON keeps the polynomial
    assert expr_json(parse_expression("norm(x)^-3", ctx3), ctx3)["terms"][0]["poly"] == "1"


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


# ---------------------------------------------------------------------------
# the monomial fold against the per-factor reader of `poly_oracle`

_ATOMS = (
    "x1", "x2", "x3", "y1", "y2", "x1", "x2", "3", "2/3", "0", "1",
    "norm(x)", "norm(y)", "norm2(x)", "norm2(y)", "||x||", "||y||",
    "log(norm(x))", "log(||y||)", "log(norm2(x))", "log(2)", "log(3/4)", "log(1)", "dot(x,y)", "dot(x,x)",
)
# each a fault of its own, or an operand that refuses a power
_FAULTS = (
    "bogus", "norm(q)", "x1^-1", "log(x1)", "log(0)", "1/0", "@", "(x1", "x2 +", "*x1",
    "norm(x)^20000", "norm(y)^400", "2^" + "7" * 40, "(x1 + x2)^" + "9" * 40,
    "(x1*norm(x) + 1)^-2", "dot(x,x)^-1", "x3^-2*norm(x)", "norm(x)^-" + "1" * 5000,
    "norm(x)^301*norm(x)^301", "(x1*norm(y) + 1)*norm(y)^401",
)


def _random_expression(rng, depth=0):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if depth < 2 and rng.random() < 0.15:
                atom = "(%s)" % _random_expression(rng, depth + 1)
            else:
                atom = rng.choice(_ATOMS)
            r = rng.random()
            if r < 0.25:
                atom += "^%d" % rng.randint(0, 3)
            elif r < 0.4 and atom[0] in "n|(0123456789":
                atom += "^-%d" % rng.randint(1, 3)
            factors.append(atom)
        terms.append("*".join(factors))
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice((" + ", " - ")) + t
    return ("-" if rng.random() < 0.2 else "") + text


def _with_faults(rng, text, count):
    """text with `count` faults spliced in as factors or summands."""
    for _ in range(count):
        fault = rng.choice(_FAULTS)
        text = rng.choice(("%s*%s", "%s + %s", "%s - %s")) % (
            (text, fault) if rng.random() < 0.5 else (fault, text))
    return text


def _outcome(parse, src, ctx, vectors):
    try:
        e = parse(src, ctx, vectors)
    except HarmcalcError as err:
        return type(err), str(err)
    return e, expr_text(e, ctx)


def test_monomial_fold_matches_the_per_factor_reader():
    ctx = make_context(3, extra_vecs=("y",))
    vectors = {"y": ("y1", "y2", "y3")}
    rng = random.Random(2015)
    for i in range(300):
        src = _with_faults(rng, _random_expression(rng), (0, 0, 1, 2)[i % 4])
        got = _outcome(parse_expression, src, ctx, vectors)
        want = _outcome(parse_by_factors, src, ctx, vectors)
        if isinstance(want[0], Expr):
            assert got[0] == want[0], src
        assert got[1] == want[1], src
        assert type(got[0]) is type(want[0]), src


def test_a_term_meets_the_size_bound_where_the_per_factor_reader_does(ctx3, monkeypatch):
    # the least bound that refuses 3 as the power of ||x||^2 in Horner's rule
    monkeypatch.setattr(scalar, "MAX_POWER_SIZE", 59)
    cases = (
        # the term's canonical form pulls ||x||^2 three times
        "dot(x,x)*dot(x,x)*dot(x,x)*log(norm(x)) + log(norm(x))",
        "dot(x,x)^3*x1*log(norm(x)) + x1*log(norm(x))",
        # a product of two sides with base factors is refused where it is read
        "norm(x)^3*norm(x)^3 + bogus",
        "x2*norm(x)^3*x1*(x3*norm(x)^3 + log(norm(x))) - (1",
        "0*norm(x)^3*norm(x)^3",
        "dot(x,x)*dot(x,x)*log(norm(x)) + log(norm(x))",
    )
    outcomes = [_outcome(parse_expression, src, ctx3, None) for src in cases]
    assert outcomes == [_outcome(parse_by_factors, src, ctx3, None) for src in cases]
    assert [o[1].startswith("power too large") for o in outcomes] == [True] * 4 + [False] * 2


@pytest.fixture
def canonicalization_count(monkeypatch):
    """The number of `Expr._from_raw` calls since the test began."""
    calls = []
    from_raw = Expr._from_raw

    def counted(*args):
        calls.append(args)
        return from_raw(*args)

    monkeypatch.setattr(Expr, "_from_raw", staticmethod(counted))
    return lambda: len(calls)


def test_a_polynomial_sum_is_canonicalized_once(ctx5, canonicalization_count):
    e = parse_expression("3/2*x1^3*x2^2*x3 - 5*x2^4*x5^2", ctx5)
    assert canonicalization_count() == 1
    assert e == Expr.from_poly(
        ctx5,
        Polynomial.var("x1", 3) * Polynomial.var("x2", 2) * Polynomial.var("x3") * F(3, 2)
        - Polynomial.var("x2", 4) * Polynomial.var("x5", 2) * 5,
    )


def test_a_power_with_base_factors_builds_no_unused_one(ctx5, canonicalization_count):
    # the 1 that is x^0 is built for a zero power only, not beside every power;
    # a `log(` scales its norm power by k/2 without canonicalizing again
    parse_expression("log(norm(x))^2", ctx5)
    assert canonicalization_count() == 3
    # the polynomial times norm(x)^3 is one more product, canonicalized too
    parse_expression("(3*x1^2*x2 - x3^3 + 2/5*x4*x5^2)*norm(x)^3*log(norm(x))^2", ctx5)
    assert canonicalization_count() == 3 + 7
    assert parse_expression("log(norm(x))^0", ctx5) == Expr.from_scalar(ctx5, 1)


def test_token_classes_are_the_str_predicates():
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
    assert re.findall(r"\d", chars) == [c for c in chars if c.isdecimal()]
    assert re.findall(r"\w", chars) == [c for c in chars if c.isalnum() or c == "_"]


def _token_tuples(src):
    return [(t.kind, t.text, t.line, t.col) for t in _tokenize(src)]


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


# decimal digits of other scripts (Arabic-Indic, Devanagari, double-struck);
# digits that are not decimal (superscript, circled, a fraction, a Roman
# numeral), which continue a name but start no token; letters that are not
# ASCII; every kind of space and line break
TOKEN_PIECES = (
    "x1", "x", "_a", "norm", "12", "0", "\u0663", "\u096a7", "\U0001d7d9",
    "x\u00b2", "_\u2460", "\u03bb\u00bd\u216b", "\u00e9", "\u01c5",
    " ", "\t", "\n", "\r", "\r\n", "\u2028", "\x0b", "\x85", "\u00a0", "\u3000",
    "||", "+", "-", "*", "^", "(", ")", ",", "/",
)
STRAY_CHARACTERS = "|$!.=\x00\u0301\u00b2\u2460"


def test_tokens_match_the_character_walk():
    rng = random.Random(26)
    sources = ["", "\n", "x1\n", "\u00b2", "x\u00b2", "1\u00b2", "|||", "\t\u00b2\n  \u2460"]
    for _ in range(400):
        src = "".join(rng.choices(TOKEN_PIECES, k=rng.randint(1, 16)))
        at = rng.randint(0, len(src))
        sources.append(src if rng.random() < 0.5 else src[:at] + rng.choice(STRAY_CHARACTERS) + src[at:])
    errors = 0
    for src in sources:
        want = _tokens_or_error(tokenize_by_characters, src)
        assert _tokens_or_error(_token_tuples, src) == want, src
        errors += isinstance(want, tuple)
    # both outcomes are exercised
    assert 100 < errors < len(sources) - 100
