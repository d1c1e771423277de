"""Standalone property suites.

Each test here is a self-contained randomized property with a fixed seed:
canonical-form idempotence, finite-difference derivative agreement,
Laplacian = divergence of gradient, the mean-value identity, a Monte-Carlo
cross-check of ellipsoid integrals, the render/parse round trip, and the
reflected arithmetic operators.
Run with: pytest tests/test_properties.py
"""

import math
import operator
import random
from fractions import Fraction as F

import pytest

from conftest import random_norm_expr, random_polynomial

from harmcalc.bvp import Sphere, dirichlet
from harmcalc.calculus import divergence_of, expr_partial, gradient_of, laplacian_of
from harmcalc.expr import Context, Expr, eval_expr
from harmcalc.integrate import Quadratic, integrate_ellipsoid_volume, integrate_sphere
from harmcalc.parser import parse_expression
from harmcalc.render import expr_text
from harmcalc.approx import approx_scalar
from harmcalc.scalar import Scalar


def test_canonical_form_idempotence():
    ctx = Context(3)
    rng = random.Random(111)
    for _ in range(30):
        e = random_norm_expr(rng, ctx) + random_norm_expr(rng, ctx)
        assert Expr._from_raw(ctx, list(e.terms)).terms == e.terms
        shuffled = list(e.terms)
        rng.shuffle(shuffled)
        assert Expr._from_raw(ctx, shuffled).terms == e.terms


def _random_scalar(rng):
    """A rational plus up to two multiples of a radical, a pi power or a log."""
    out = Scalar.from_fraction(F(rng.randrange(-9, 10), rng.randrange(1, 6)))
    for _ in range(rng.randrange(3)):
        part = rng.choice(
            (
                Scalar.sqrt_int(rng.choice((2, 3, 6))),
                Scalar.pi_power(rng.randrange(-2, 3)),
                Scalar.log_fraction(F(rng.randrange(2, 9), rng.randrange(1, 5))),
            )
        )
        out = out + part * rng.randrange(-4, 5)
    return out


def test_reflected_operands_agree_with_the_direct_ones():
    """With a number c on the left of a Scalar, Polynomial or Expr x,
    c - x is -(x - c), c + x and c * x are x + c and x * c, and 0 + x is
    x; an operand of a foreign type is a TypeError on either side."""
    ctx = Context(3)
    rng = random.Random(45)
    for _ in range(30):
        c = rng.choice((rng.randrange(-5, 6), F(rng.randrange(-9, 10), rng.randrange(1, 8))))
        for x in (_random_scalar(rng), random_polynomial(rng, ctx), random_norm_expr(rng, ctx)):
            assert c - x == -(x - c)
            assert c + x == x + c
            assert c * x == x * c
            assert 0 + x == x
    for x in (_random_scalar(rng), random_polynomial(rng, ctx), random_norm_expr(rng, ctx)):
        for foreign in ("1", 1.5, None, [1]):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(foreign, x)
                with pytest.raises(TypeError):
                    op(x, foreign)


def test_finite_difference_derivatives():
    ctx = Context(3)
    rng = random.Random(113)
    h = F(1, 10**5)
    for _ in range(6):
        e = random_norm_expr(rng, ctx, max_degree=2)
        var = rng.choice(ctx.coords)
        point = {v: F(rng.randrange(1, 4), rng.randrange(1, 3)) for v in ctx.coords}
        exact = eval_expr(expr_partial(e, var, ctx), point, ctx)
        up, dn = dict(point), dict(point)
        up[var] += h
        dn[var] -= h
        central = (eval_expr(e, up, ctx) - eval_expr(e, dn, ctx)) * Scalar.from_fraction(
            F(1) / (2 * h)
        )
        err = abs(float(approx_scalar(exact - central, 8)))
        scale = max(1.0, abs(float(approx_scalar(exact, 8))))
        assert err < 1e-6 * scale


def test_laplacian_equals_div_grad():
    ctx = Context(3)
    rng = random.Random(127)
    for _ in range(12):
        e = random_norm_expr(rng, ctx)
        assert (laplacian_of(e, 1, ctx) - divergence_of(gradient_of(e, ctx), ctx)).is_zero()


def test_mean_value_identity():
    ctx = Context(3)
    rng = random.Random(131)
    for _ in range(25):
        p = random_polynomial(rng, ctx, max_degree=5, terms=4)
        sol = dirichlet(p, Sphere(), ctx).as_polynomial()
        assert sol.eval({v: F(0) for v in ctx.coords}) == integrate_sphere(p, ctx)


def test_monte_carlo_ellipsoid_cross_check():
    numpy = pytest.importorskip("numpy")
    rng = numpy.random.default_rng(20240817)
    ctx = Context(3)
    cases = [
        ("x1^2", Quadratic((1, 4, 3))),
        ("x1^2*x2^2", Quadratic((2, 1, 5))),
        ("x3^4", Quadratic((1, 1, 2), (1, 0, -1), F(-3))),
        ("x1^2*x3^2", Quadratic((1, 4, 3), (5, 1, -2), F(-6))),
        ("x2^2 + x1*x3", Quadratic((3, 2, 1), (0, 1, 1), F(-2))),
    ]
    from harmcalc.parser import parse_polynomial

    for src, ell in cases:
        p = parse_polynomial(src, ctx)
        exact = float(approx_scalar(integrate_ellipsoid_volume(p, ell, ctx), 12))
        b = numpy.array([float(v) for v in ell.b])
        z = numpy.array([float(v) for v in ell.center()])
        rho = math.sqrt(float(ell.rho_sq()))
        nsamp = 200000
        u = rng.standard_normal((nsamp, 3))
        u /= numpy.linalg.norm(u, axis=1, keepdims=True)
        r = rng.random(nsamp) ** (1.0 / 3.0)
        pts = z + (rho / numpy.sqrt(b)) * (u * r[:, None])
        vals = numpy.zeros(nsamp)
        for mono, coeff in p.terms.items():
            term = numpy.full(nsamp, float(coeff.as_fraction()))
            for v, e in mono:
                term = term * pts[:, ctx.coords.index(v)] ** e
            vals += term
        ball_vol = 4 * math.pi / 3 * rho**3 / math.sqrt(numpy.prod(b))
        estimate = vals.mean() * ball_vol
        stderr = vals.std(ddof=1) / math.sqrt(nsamp) * ball_vol
        assert abs(estimate - exact) < 3 * stderr + 1e-12


def test_render_parse_round_trip():
    ctx = Context(3)
    rng = random.Random(137)
    for _ in range(100):
        e = random_norm_expr(rng, ctx)
        assert (parse_expression(expr_text(e, ctx), ctx) - e).is_zero()
