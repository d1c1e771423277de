import sys
from fractions import Fraction

import pytest

from harmcalc.expr import Context, Expr
from harmcalc.parser import parse_expression, parse_polynomial
from harmcalc.poly import Polynomial
from harmcalc.scalar import Scalar


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits for one test, the old limit restored
    after; the test is skipped on a Python without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int digit limit")
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.fixture
def ctx3():
    return Context(3)


@pytest.fixture
def ctx5():
    return Context(5)


def P(src, ctx, vectors=None):
    return parse_polynomial(src, ctx, vectors)


def E(src, ctx, vectors=None):
    return parse_expression(src, ctx, vectors)


def random_polynomial(rng, ctx, max_degree=4, terms=5, coeff_range=6):
    """Random rational-coefficient polynomial in the coordinates."""
    acc = Polynomial()
    for _ in range(terms):
        mono = {}
        deg = rng.randrange(max_degree + 1)
        for _ in range(deg):
            v = rng.choice(ctx.coords)
            mono[v] = mono.get(v, 0) + 1
        num = rng.randrange(-coeff_range, coeff_range + 1)
        den = rng.randrange(1, 4)
        if num == 0:
            continue
        acc = acc + Polynomial(
            {tuple(sorted(mono.items())): Scalar.from_fraction(Fraction(num, den))}
        )
    return acc


def random_norm_expr(rng, ctx, max_degree=3):
    """Random polynomial times an integer norm power (possibly odd)."""
    p = random_polynomial(rng, ctx, max_degree=max_degree, terms=3)
    h = rng.randrange(-3, 4)
    return Expr.from_poly(ctx, p) * Expr.norm_power(ctx, h)


def rational_sphere_point(rng, n, scale=5):
    """Rational point on the unit sphere via stereographic projection."""
    while True:
        t = [Fraction(rng.randrange(-scale, scale + 1), rng.randrange(1, scale)) for _ in range(n - 1)]
        s = sum(v * v for v in t)
        den = 1 + s
        point = [2 * v / den for v in t] + [(1 - s) / den]
        if any(point):
            return tuple(point)


def rename_vars(poly, mapping):
    out = Polynomial()
    for mono, coeff in poly.terms.items():
        nm = tuple(sorted((mapping.get(v, v), e) for v, e in mono))
        out = out + Polynomial({nm: coeff})
    return out
