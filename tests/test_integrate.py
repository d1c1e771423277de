import random
from fractions import Fraction as F
from math import factorial

import pytest

from conftest import P, random_polynomial

from harmcalc.approx import approx_scalar
from harmcalc.arith import _PRODUCT_LEAF, double_factorial
from harmcalc.errors import (
    DimensionMismatch,
    DivergentRadialIntegral,
    EmptyInterior,
    NonPolynomialInput,
    NonPositiveAxis,
    UnsupportedInputError,
    UnsupportedRadialClass,
)
from harmcalc.expr import Context, Expr, make_context
from harmcalc import integrate
from harmcalc.integrate import (
    Quadratic,
    RadialFunction,
    integrate_ball,
    integrate_ellipsoid_area,
    integrate_ellipsoid_volume,
    integrate_sphere,
    linear_denominator_integral_01,
    power_log_integral_01,
    sphere_monomial_integral,
    unit_ball_volume,
    unit_sphere_area,
)
from harmcalc.poly import Polynomial, poly_sum
from harmcalc.scalar import Scalar


def test_unit_ball_volume():
    assert unit_ball_volume(4) == Scalar.pi_power(4) * Scalar.from_fraction(F(1, 2))
    assert unit_ball_volume(1) == Scalar.from_fraction(2)
    assert unit_ball_volume(3) == Scalar.pi_power(2) * Scalar.from_fraction(F(4, 3))


def test_unit_sphere_area():
    assert unit_sphere_area(2) == Scalar.pi_power(2) * Scalar.from_fraction(2)
    assert unit_sphere_area(3) == Scalar.pi_power(2) * Scalar.from_fraction(4)
    want = Scalar.pi_power(56) * Scalar.from_fraction(
        F(536870912, 8687364368561751199826958100282265625)
    )
    assert unit_sphere_area(57) == want


def _double_factorial_loop(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def test_double_factorial_tree_matches_the_loop():
    # one leaf holds the factors of k <= 2 leaf; a larger k splits, into
    # halves of equal or unequal sizes
    leaf = _PRODUCT_LEAF
    ks = list(range(-3, 301)) + [k + d for k in (2 * leaf, 14 * leaf, 1000, 4096) for d in range(-2, 4)]
    for k in ks:
        assert double_factorial(k) == _double_factorial_loop(k), k


def test_sphere_monomial_rule():
    assert sphere_monomial_integral((2, 4, 6), 3) == F(1, 3003)
    for n in (5, 7):
        denom = 1
        for j in range(6):
            denom *= n + 2 * j
        assert sphere_monomial_integral((2, 4, 6), n) == F(45, denom)
    assert sphere_monomial_integral((1, 2), 3) == 0
    assert sphere_monomial_integral((), 9) == 1


def test_integrate_sphere(ctx3):
    assert integrate_sphere(P("x1^2*x2^4*x3^6", ctx3), ctx3) == Scalar.from_fraction(
        F(1, 3003)
    )
    assert integrate_sphere(P("x1*x2^2", ctx3), ctx3).is_zero()
    assert integrate_sphere(P("1", ctx3), ctx3) == Scalar.from_fraction(1)


def test_integrate_sphere_passthrough():
    ctx = make_context(2, extra_vecs=("w",))
    p = poly_sum(
        [Polynomial.var(a) * Polynomial.var(b) for a, b in zip(ctx.coords, ("w1", "w2"))]
    ) ** 2
    got = integrate_sphere(p, ctx)
    want = (Polynomial.var("w1", 2) + Polynomial.var("w2", 2)).scale(F(1, 2))
    assert got == want


def test_ball_weight_with_linear_denominator():
    ctx = Context(7)
    v = integrate_ball(P("x1^2*x2^4", ctx), RadialFunction.linear_reciprocal(1, 1), ctx)
    want = (
        Scalar.pi_power(6)
        * (Scalar.log_fraction(2) - Scalar.from_fraction(F(18107, 27720)))
        * Scalar.from_fraction(F(16, 3465))
    )
    assert (v - want).is_zero()


def test_linear_denominator_recurrence_past_the_recursion_limit():
    # c1 I_q + c0 I_(q-1) = 1/q, for I_q the integral of r^q/(c0 + c1 r)
    c0, c1 = F(2), F(3)
    for q in (3002, 5, 7, 6):
        got = linear_denominator_integral_01(q, c0, c1) * Scalar.from_fraction(c1)
        got = got + linear_denominator_integral_01(q - 1, c0, c1) * Scalar.from_fraction(c0)
        assert got == Scalar.from_fraction(F(1, q))


def test_linear_denominator_moments_do_not_depend_on_the_order_asked():
    # the Horner sum resumes from the largest power it has reached below q
    c0, c1 = F(3, 7), F(5, 11)
    qs = [9, 0, 4, 12, 1, 4, 10]
    fresh = [linear_denominator_integral_01(q, c0, c1, {}) for q in qs]
    memo = {}
    assert [linear_denominator_integral_01(q, c0, c1, memo) for q in qs] == fresh


def test_a_ball_integral_takes_the_log_of_its_weight_once(monkeypatch):
    # ten degrees share one log((c0 + c1)/c0) and one memo entry, which
    # keeps each Horner state (k, S_k) once
    memo = {}
    monkeypatch.setattr(integrate.linear_denominator_integral_01, "__defaults__", (memo,))
    calls = []
    log_fraction = Scalar.log_fraction
    monkeypatch.setattr(Scalar, "log_fraction", staticmethod(lambda q: calls.append(q) or log_fraction(q)))
    ctx = Context(2)
    p = poly_sum(P("x1^%d" % (2 * k), ctx) for k in range(10))
    weight = RadialFunction.linear_reciprocal(3, 5)
    got = integrate_ball(p, weight, ctx)
    assert calls == [F(8, 3)]
    # the same moments again reach no new state
    assert integrate_ball(p + p, weight, ctx) == got * Scalar.from_fraction(2)
    assert calls == [F(8, 3)]
    assert list(memo) == [(F(3), F(5))]
    reached = [k for k, _ in memo[F(3), F(5)][1]]
    assert reached == [0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19]


def test_radial_integral_size_bound():
    # k! and 3^(k+1) together stay just under MAX_POWER_BITS at k = 58254
    k = 58254
    assert power_log_integral_01(2, k) == F(factorial(k), 3 ** (k + 1))
    with pytest.raises(UnsupportedInputError):
        power_log_integral_01(2, k + 1)
    # 6 bits a step for unit coefficients
    with pytest.raises(UnsupportedInputError):
        linear_denominator_integral_01(174763, F(1), F(1))
    # the Horner sum's time grows with q times the result's bits, so its
    # bound is MAX_POWER_BITS/8: 21845 * 6 bits pass, 21846 * 6 do not
    with pytest.raises(UnsupportedInputError, match="would pass 131072 bits"):
        linear_denominator_integral_01(21846, F(1), F(1))


def test_ball_weighted_norm_case(ctx3):
    w = RadialFunction(
        ((Scalar.from_fraction(1), 0, 0), (Scalar.from_fraction(-1), 2, 0))
    )
    v = integrate_ball(P("(x1*x2^4)^2", ctx3), w, ctx3)
    assert v == Scalar.pi_power(2) * Scalar.from_fraction(F(8, 19305))


def test_ball_trivial(ctx3):
    assert integrate_ball(P("1", ctx3), RadialFunction.one(), ctx3) == unit_ball_volume(3)


def test_divergent_radial(ctx3):
    with pytest.raises(DivergentRadialIntegral):
        integrate_ball(P("1", ctx3), RadialFunction.power(-3), ctx3)


def test_radial_class_validation():
    with pytest.raises(UnsupportedRadialClass):
        RadialFunction(((Scalar.from_fraction(1), 0, 1),), (F(1), F(1)))
    with pytest.raises(UnsupportedRadialClass):
        RadialFunction.linear_reciprocal(-1, 2)
    # log^k r with k < 0 is 1/log^|k| r, outside the class
    with pytest.raises(UnsupportedRadialClass, match="log powers must be nonnegative"):
        RadialFunction.power(2, -1)
    assert RadialFunction.power(2, 0) == RadialFunction.power(2)


def test_ellipsoid_validation(ctx3):
    # Dirichlet takes any quadric, so the ellipsoid conditions are checked
    # by the integrals, not by the constructor
    one = Polynomial.const(1)
    for integral in (integrate_ellipsoid_volume, integrate_ellipsoid_area):
        with pytest.raises(NonPositiveAxis):
            integral(one, Quadratic((1, 0, 3)), ctx3)
        with pytest.raises(EmptyInterior):
            integral(one, Quadratic((1, 1), (0, 0), F(1)), Context(2))


def test_ellipsoid_volume_offcenter(ctx3):
    v = integrate_ellipsoid_volume(
        P("x1^2*x2^6*x3^5", ctx3), Quadratic((1, 4, 3), (5, 1, -2), F(-6)), ctx3
    )
    want = (
        Scalar.from_fraction(F(894963845974894457, 129818422526607360))
        * Scalar.sqrt_int(607)
        * Scalar.pi_power(2)
    )
    assert (v - want).is_zero()


def test_ellipsoid_volume_passthrough():
    ctx = make_context(3, extra_vecs=("w",))
    p = poly_sum(
        [
            Polynomial.var(a) * Polynomial.var(b)
            for a, b in zip(ctx.coords, ("w1", "w2", "w3"))
        ]
    ) ** 4
    got = integrate_ellipsoid_volume(p, Quadratic((1, 4, 3)), ctx)
    fix = P(
        "144*w1^4 + 72*w1^2*w2^2 + 9*w2^4 + 96*w1^2*w3^2 + 24*w2^2*w3^2 + 16*w3^4",
        ctx,
        vectors={"w": ("w1", "w2", "w3")},
    )
    want = fix.scale(
        Scalar.pi_power(2) * Scalar.from_fraction(F(1, 2520)) * Scalar.sqrt_int(3).inverse()
    )
    assert got == want


def test_ellipsoid_volume_unit_ball(ctx3):
    got = integrate_ellipsoid_volume(P("1", ctx3), Quadratic((1, 1, 1)), ctx3)
    assert got == unit_ball_volume(3)


def test_ellipsoid_area_centered(ctx3):
    a57 = integrate_ellipsoid_area(P("x1^2*x2^6*x3^4", ctx3), Quadratic((1, 4, 3)), ctx3)
    assert (
        a57
        - Scalar.pi_power(2)
        * Scalar.from_fraction(F(1, 1729728))
        * Scalar.sqrt_int(3).inverse()
    ).is_zero()
    a58 = integrate_ellipsoid_area(P("x1^8", ctx3), Quadratic((1, 4, 3)), ctx3)
    assert (
        a58
        - Scalar.pi_power(2) * Scalar.from_fraction(F(1, 9)) * Scalar.sqrt_int(3).inverse()
    ).is_zero()
    combo = integrate_ellipsoid_area(
        P("9*x1^8 - 1729728*x1^2*x2^6*x3^4", ctx3), Quadratic((1, 4, 3)), ctx3
    )
    assert combo.is_zero()


def test_ellipsoid_area_is_volume_derivative(ctx3):
    """The area integral equals d/dt of the volume integral over q < t."""
    p = P("x1^2*x2^6*x3^5", ctx3)
    e = Quadratic((1, 4, 3), (5, 1, -2), F(-6))
    area = integrate_ellipsoid_area(p, e, ctx3)
    h = F(1, 10**7)
    vp = integrate_ellipsoid_volume(p, Quadratic(e.b, e.c, e.d - h), ctx3)
    vm = integrate_ellipsoid_volume(p, Quadratic(e.b, e.c, e.d + h), ctx3)
    fd = (vp - vm) * Scalar.from_fraction(F(1) / (2 * h))
    rel = float(approx_scalar(area - fd, 10)) / float(approx_scalar(area, 10))
    assert abs(rel) < 1e-10


def test_mean_value_for_harmonic(ctx3):
    from harmcalc.harmonic import basis_harmonic

    for m in (1, 2, 3):
        for h in basis_harmonic(m, ctx3):
            v = integrate_ball(h, RadialFunction.one(), ctx3)
            assert isinstance(v, Scalar) and v.is_zero()
    c = P("5", ctx3)
    assert integrate_ball(c, RadialFunction.one(), ctx3) == unit_ball_volume(3) * Scalar.from_fraction(5)


def test_homogeneous_sphere_ball_consistency(ctx3):
    rng = random.Random(61)
    for _ in range(10):
        p = random_polynomial(rng, ctx3, max_degree=4, terms=3)
        for m, part in p.homogeneous_parts(ctx3.coords).items():
            ball = integrate_ball(part, RadialFunction.one(), ctx3)
            mean = integrate_sphere(part, ctx3)
            n = ctx3.dim
            want = Scalar.from_fraction(n) * unit_ball_volume(n) * mean * Scalar.from_fraction(
                F(1, n + m)
            )
            assert (ball - want).is_zero()


def test_centered_ellipsoid_odd_symmetry(ctx3):
    got = integrate_ellipsoid_volume(P("x1*x2^2 + x3", ctx3), Quadratic((2, 3, 5)), ctx3)
    assert got.is_zero()
    got_a = integrate_ellipsoid_area(P("x1^3", ctx3), Quadratic((2, 3, 5)), ctx3)
    assert got_a.is_zero()


def test_unit_ellipsoid_matches_ball(ctx3):
    rng = random.Random(71)
    for _ in range(5):
        p = random_polynomial(rng, ctx3, max_degree=4, terms=4)
        a = integrate_ellipsoid_volume(p, Quadratic((1, 1, 1)), ctx3)
        b = integrate_ball(p, RadialFunction.one(), ctx3)
        assert (a - b).is_zero()


INTEGRALS = {
    "sphere": lambda p, ctx: integrate_sphere(p, ctx),
    "ball": lambda p, ctx: integrate_ball(p, RadialFunction.one(), ctx),
    "ellipsoid volume": lambda p, ctx: integrate_ellipsoid_volume(p, Quadratic((1, 2, 3)), ctx),
    "ellipsoid area": lambda p, ctx: integrate_ellipsoid_area(p, Quadratic((1, 2, 3)), ctx),
}


@pytest.mark.parametrize("name", sorted(INTEGRALS))
def test_an_expression_integrand_is_refused(name, ctx3):
    # an Expr, even one that holds a polynomial, is refused with a typed error (exit 3)
    e = Expr.from_poly(ctx3, P("x1^2", ctx3))
    with pytest.raises(NonPolynomialInput, match="^integrand must be a polynomial$"):
        INTEGRALS[name](e, ctx3)


def test_ellipsoid_axes_must_match_dimension(ctx3):
    # four axes against three coordinates must not integrate over another region
    e = Quadratic((4, 1, 1, 9))
    one = Polynomial.const(1)
    with pytest.raises(DimensionMismatch):
        integrate_ellipsoid_volume(one, e, ctx3)
    with pytest.raises(DimensionMismatch):
        integrate_ellipsoid_area(one, e, ctx3)
    with pytest.raises(DimensionMismatch):
        Quadratic((1, 1, 1), (1, 1))
