import random
from fractions import Fraction as F

import pytest

import poly_oracle
from conftest import E, P, random_norm_expr, random_polynomial

from harmcalc.calculus import (
    _partial_raw,
    divergence_of,
    expr_partial,
    gradient_of,
    harmonic_conjugate,
    homogeneous_part,
    jacobian_of,
    laplacian_of,
    normal_d_sphere,
    normal_d_surface,
    partial_d,
    taylor_poly,
)
from harmcalc.bvp import Plain, anti_laplacian
from harmcalc.errors import DimensionMismatch, NotHarmonic
from harmcalc.expr import Context, Expr, eval_expr, restrict_to_sphere, substitute_norm_radius
from harmcalc.poly import Polynomial, poly_sum
from harmcalc.render import expr_json, expr_latex, expr_text
from harmcalc.approx import approx_scalar
from harmcalc.scalar import Scalar
from harmcalc.transforms import kelvin, kelvin_h


def test_mixed_partials_of_norm():
    ctx = Context(4)
    r = partial_d(Expr.norm_power(ctx, 1), [("x2", 1), ("x1", 2), ("x4", 3)], ctx)
    # -15(3||x||^4 x2 x4 - 21||x||^2 x1^2 x2 x4 - 7||x||^2 x2 x4^3
    #     + 63 x1^2 x2 x4^3) / ||x||^11, with the norms expanded
    n2 = ctx.norm_sq_poly()
    fix_num = (
        (n2 * n2 * P("x2*x4", ctx)).scale(3)
        - (n2 * P("x1^2*x2*x4", ctx)).scale(21)
        - (n2 * P("x2*x4^3", ctx)).scale(7)
        + P("x1^2*x2*x4^3", ctx).scale(63)
    ).scale(F(-15))
    fix = Expr.make(ctx, fix_num, [(ctx.norm_base, -11, 0)])
    assert (r - fix).is_zero()


def test_simple_partial(ctx3):
    e = E("x1^2*x2", ctx3)
    assert expr_partial(e, "x1", ctx3) == E("2*x1*x2", ctx3)


def test_partial_of_log_norm(ctx3):
    e = E("log(norm(x))", ctx3)
    got = expr_partial(e, "x1", ctx3)
    want = Expr.make(ctx3, Polynomial.var("x1"), [(ctx3.norm_base, -2, 0)])
    assert (got - want).is_zero()


def test_gradient(ctx3):
    g = gradient_of(E("x1^2 + x2^2", ctx3), ctx3)
    assert g[0] == E("2*x1", ctx3)
    assert g[1] == E("2*x2", ctx3)
    assert g[2].is_zero()
    gn = gradient_of(Expr.norm_power(ctx3, 1), ctx3)
    for v, comp in zip(ctx3.coords, gn):
        assert comp == Expr.make(ctx3, Polynomial.var(v), [(ctx3.norm_base, -1, 0)])


def test_gradient_with_auxiliary_point():
    ctx = Context(2, extra=("a1", "a2"))
    e = E("a1*x1 + a2*x2", ctx) + Expr.norm_power(ctx, 1)
    g = gradient_of(e, ctx)
    for ai, xi, comp in zip(("a1", "a2"), ctx.coords, g):
        want = Expr.from_poly(ctx, Polynomial.var(ai)) + Expr.make(
            ctx, Polynomial.var(xi), [(ctx.norm_base, -1, 0)]
        )
        assert comp == want


def test_iterated_laplacian_dim8():
    ctx = Context(8)
    r = laplacian_of(Expr.norm_power(ctx, -1), 2, ctx)
    assert (r - Expr.norm_power(ctx, -5).scale(45)).is_zero()


def test_laplacian_x3_norm(ctx3):
    e = Expr.from_poly(ctx3, Polynomial.var("x3")) * Expr.norm_power(ctx3, 1)
    want = Expr.make(ctx3, Polynomial.var("x3").scale(4), [(ctx3.norm_base, -1, 0)])
    assert laplacian_of(e, 1, ctx3) == want


def _product_rule_laplacian(e, power, ctx):
    """The oracle: the termwise product rule twice per coordinate, canonicalized once."""
    out = e
    for _ in range(power):
        raw = []
        for v in ctx.coords:
            raw.extend(_partial_raw(ctx, _partial_raw(ctx, out.terms, v), v))
        out = Expr._from_raw(ctx, raw)
    return out


def test_closed_form_laplacian_matches_product_rule():
    """The closed-form term Laplacian gives the product-rule route's exact terms.

    Two registered bases, the second with content 2 so its powers carry
    sqrt(2) and log(2); odd and negative half powers, log powers 0 to 3,
    terms with both bases (the cross-gradient piece), and iterated
    Laplacians.
    """
    rng = random.Random(1915)
    ctx = Context(3, extra=("y1",))
    second = P("2*x1^2 + 2*x2*x3 + 4*y1 + 6", ctx)
    both = 0
    for case in range(24):
        e = Expr.zero(ctx)
        for _ in range(rng.randrange(1, 4)):
            t = Expr.from_poly(ctx, random_polynomial(rng, ctx, max_degree=3, terms=3))
            if rng.random() < 0.3:
                t = t.scale(Scalar.sqrt_int(3))
            if rng.random() < 0.8:
                t = t * Expr.norm_power(ctx, rng.randrange(-5, 6), rng.randrange(4))
            if rng.random() < 0.7:
                t = t * Expr.base_power(ctx, second, rng.randrange(-5, 6), rng.randrange(4))
            e = e + t
        both += sum(len(fac) == 2 for _, fac in e.terms)
        power = 2 if case % 4 == 0 else 1
        got, want = laplacian_of(e, power, ctx), _product_rule_laplacian(e, power, ctx)
        assert [f for _, f in got.terms] == [f for _, f in want.terms]
        assert [p for p, _ in got.terms] == [p for p, _ in want.terms]
        assert expr_text(got, ctx) == expr_text(want, ctx)
    assert both >= 10


def test_laplacian_where_a_base_divides_its_gradient_square():
    """Where |grad B|^2 = G B, the closed form still gives the product rule's exact terms.

    |x - c|^2 (stored primitive, 9 |x - c|^2), the Poisson base
    1 - 2 x1 y1 + |x|^2 y1^2, whose |grad B|^2 in x is 4 y1^2 B, and the
    norm, alone and beside each of them.  Every half power -7..7 with every
    log power 0..3, so also the odd log-free powers 3, 5 and 7, where the
    canonical form keeps a group's least power; a second term of the same
    base at a random power shares the group of some of them.
    """
    rng = random.Random(1861)
    ctx = Context(3, extra=("y1",))
    shifted = P("(x1 - 1)^2 + (x2 + 2)^2 + (x3 - 1/3)^2", ctx)
    poisson = P("1 - 2*x1*y1 + (x1^2 + x2^2 + x3^2)*y1^2", ctx)
    quotients = {None: "4", shifted: "36", poisson: "4*y1^2"}
    for base, quotient in quotients.items():
        bid = ctx.register_base(base)[0] if base else ctx.norm_base
        assert ctx.base_gradient_quotient(bid) == P(quotient, ctx)

    def power(base, h, j):
        if base is None:
            return Expr.norm_power(ctx, h, j)
        return Expr.base_power(ctx, base, h, j)

    for base in quotients:
        for h in range(-7, 8):
            for j in range(4):
                e = Expr.from_poly(ctx, random_polynomial(rng, ctx, max_degree=2, terms=2)) * power(base, h, j)
                if rng.random() < 0.5:
                    t = Expr.from_poly(ctx, random_polynomial(rng, ctx, max_degree=2, terms=2))
                    e = e + t * power(base, rng.randrange(-7, 8), j)
                if base is not None and rng.random() < 0.5:
                    e = e * Expr.norm_power(ctx, rng.randrange(-7, 8), rng.randrange(4))
                power_ = 2 if (h + j) % 5 == 0 else 1
                got, want = laplacian_of(e, power_, ctx), _product_rule_laplacian(e, power_, ctx)
                assert got.terms == want.terms


def test_gradient_dot_matches_oracle():
    """grad P . grad Q in the coordinates is the sum of the products of partials.

    Constant terms, the auxiliary y1 (outside the coordinates, so a
    constant there) and sqrt(2), sqrt(3) blocks on either side.
    """
    rng = random.Random(1828)
    ctx = Context(3, extra=("y1",))
    y1 = Polynomial.var("y1")
    for _ in range(40):
        p, q = (
            random_polynomial(rng, ctx, max_degree=3, terms=4) * rng.choice((1, y1, y1 + 2))
            + rng.randrange(-3, 4) * Scalar.sqrt_int(rng.choice((1, 2, 3)))
            for _ in range(2)
        )
        if rng.random() < 0.5:
            q = q.scale(Scalar.sqrt_int(2))
        want = poly_oracle.gradient_dot(p, q, ctx.coords)
        assert p.gradient_dot(q, ctx.coords) == want and q.gradient_dot(p, ctx.coords) == want


def test_base_derivatives_stay_with_their_context():
    """Two Contexts with different bases under one id keep their own derivatives.

    The quotient |grad B|^2 / B is memoized beside them: 4 for the norm,
    none for a base that does not divide its |grad B|^2.
    """
    for src, lap, grad in (("x1 + 3", "0", "1"), ("x1^2 + x2^2 + 1", "4", "4*x1^2 + 4*x2^2")):
        ctx = Context(2)
        bid, _ = ctx.register_base(P(src, ctx))
        assert bid == 1
        assert ctx.base_laplacian(bid) == P(lap, ctx)
        assert ctx.base_gradient_dot(bid, bid) == P(grad, ctx)
        assert ctx.base_gradient_dot(bid, ctx.norm_base) == ctx.base_gradient_dot(ctx.norm_base, bid)
        assert ctx.base_gradient_quotient(bid) is None
        assert ctx.base_gradient_quotient(ctx.norm_base) == P("4", ctx)


_AT = {"x1": F(1), "x2": F(2)}

# every reader of an Expr that also takes a Context
FOREIGN_CONTEXT_CALLS = {
    "laplacian_of": lambda e, c: laplacian_of(e, 1, c),
    "expr_partial": lambda e, c: expr_partial(e, "x1", c),
    "partial_d": lambda e, c: partial_d(e, ["x2"], c),
    "gradient_of": gradient_of,
    "divergence_of": lambda e, c: divergence_of((e, e), c),
    "jacobian_of": lambda e, c: jacobian_of((e, e), c),
    "normal_d_sphere": normal_d_sphere,
    "normal_d_surface": lambda e, c: normal_d_surface(e, P("x1 + x2^2", c), c),
    "anti_laplacian": lambda e, c: anti_laplacian(e, Plain(), c),
    "kelvin": kelvin,
    "kelvin_h": kelvin_h,
    "eval_expr": lambda e, c: eval_expr(e, _AT, c),
    "substitute_norm_radius": lambda e, c: substitute_norm_radius(e, 2, c),
    "restrict_to_sphere": restrict_to_sphere,
    "expr_text": expr_text,
    "expr_latex": expr_latex,
    "expr_json": expr_json,
}


@pytest.mark.parametrize("name", sorted(FOREIGN_CONTEXT_CALLS))
def test_an_expr_is_read_in_its_own_context(name):
    """Base ids are per Context: a ctx that is not the Expr's own is refused.

    Read in ctx2, where id 1 is 1 + x1^2, the Laplacian of (3 + x2^2)^-1
    would be (-2 + 6*x1^2)*(1 + x1^2)^-3.
    """
    call = FOREIGN_CONTEXT_CALLS[name]
    ctx1, ctx2 = Context(2), Context(2)
    ctx2.register_base(P("1 + x1^2", ctx2))
    e = Expr.base_power(ctx1, P("3 + x2^2", ctx1), -2)
    with pytest.raises(ValueError):
        call(e, ctx2)


def test_laplacian_in_its_own_context():
    ctx1, ctx2 = Context(2), Context(2)
    ctx2.register_base(P("1 + x1^2", ctx2))
    base = P("3 + x2^2", ctx1)
    e = Expr.base_power(ctx1, base, -2)
    want = Expr.from_poly(ctx1, P("-6 + 6*x2^2", ctx1)) * Expr.base_power(ctx1, base, -6)
    assert laplacian_of(e, 1, ctx1) == laplacian_of(e) == want


def test_laplacian_named_coords():
    ctx = Context(3, coords=("x", "y", "z"))
    r = laplacian_of(E("x^2*y^3*z^4", ctx), 1, ctx)
    assert r == E("12*x^2*y^3*z^2 + 6*x^2*y*z^4 + 2*y^3*z^4", ctx)


def test_divergence(ctx3):
    comps = tuple(Expr.from_poly(ctx3, Polynomial.var(v)) for v in ctx3.coords)
    assert divergence_of(comps, ctx3) == Expr.from_scalar(ctx3, Scalar.from_fraction(3))
    # x / ||x||^n has zero divergence away from the origin
    inv = Expr.norm_power(ctx3, -3)
    field = tuple(Expr.from_poly(ctx3, Polynomial.var(v)) * inv for v in ctx3.coords)
    assert divergence_of(field, ctx3).is_zero()
    curlish = (E("x2*x3", ctx3), E("x1*x3", ctx3), E("x1*x2", ctx3))
    assert divergence_of(curlish, ctx3).is_zero()
    with pytest.raises(DimensionMismatch):
        divergence_of(comps[:2], ctx3)


def test_jacobian():
    ctx = Context(2)
    j = jacobian_of((E("x1", ctx), E("x2", ctx)), ctx)
    assert j[0][0] == Expr.from_scalar(ctx, Scalar.from_fraction(1))
    assert j[0][1].is_zero() and j[1][0].is_zero()
    j2 = jacobian_of((E("x2", ctx), E("x1", ctx)), ctx)
    assert j2[0][1] == Expr.from_scalar(ctx, Scalar.from_fraction(1))
    # x/||x||^2: entry (i,k) = delta/||x||^2 - 2 x_i x_k/||x||^4
    inv2 = Expr.norm_power(ctx, -2)
    field = tuple(Expr.from_poly(ctx, Polynomial.var(v)) * inv2 for v in ctx.coords)
    jac = jacobian_of(field, ctx)
    inv4 = Expr.norm_power(ctx, -4)
    for i, vi in enumerate(ctx.coords):
        for k, vk in enumerate(ctx.coords):
            want = -(Expr.from_poly(ctx, Polynomial.var(vi) * Polynomial.var(vk)) * inv4).scale(2)
            if i == k:
                want = want + inv2
            assert jac[i][k] == want


def test_normal_d_sphere_euler(ctx3):
    h = P("x1*x2", ctx3)
    assert normal_d_sphere(Expr.from_poly(ctx3, h), ctx3) == Expr.from_poly(ctx3, h.scale(2))
    assert normal_d_sphere(Expr.from_scalar(ctx3, Scalar.from_fraction(5)), ctx3).is_zero()


def test_normal_d_surface(ctx3):
    f = E("x1^4*x2^8*x3^5", ctx3)
    q = P("x1^2 + 3*x2^2 + 2*x3^2", ctx3)
    got = normal_d_surface(f, q, ctx3)
    base = P("x1^2 + 9*x2^2 + 4*x3^2", ctx3)
    want = Expr.from_poly(ctx3, P("38*x1^4*x2^8*x3^5", ctx3)) * Expr.base_power(ctx3, base, -1)
    assert (got - want).is_zero()
    # f = q gives 2||x|| when q is the squared norm
    nq = ctx3.norm_sq_poly()
    got2 = normal_d_surface(Expr.from_poly(ctx3, nq), nq, ctx3)
    assert (got2 - Expr.norm_power(ctx3, 1).scale(2)).is_zero()
    assert normal_d_surface(Expr.from_scalar(ctx3, Scalar.from_fraction(7)), nq, ctx3).is_zero()
    # on a plane grad q . grad q is a constant: 2 here, so |grad q| = sqrt(2) exactly
    got3 = normal_d_surface(E("x1", ctx3), P("x1 + x2", ctx3), ctx3)
    assert got3 == Expr.from_scalar(ctx3, Scalar.sqrt_fraction(F(1, 2)))
    got4 = normal_d_surface(E("x1*x2", ctx3), P("3*x1 - 4*x2 + 7", ctx3), ctx3)
    assert got4 == Expr.from_poly(ctx3, P("3*x2 - 4*x1", ctx3).scale(F(1, 5)))


def test_homogeneous_about_point():
    ctx = Context(3, extra=("b1", "b2", "b3"))
    p = P("x1*x2 + x3^4", ctx)
    got = homogeneous_part(p, 2, ctx, about=["b1", "b2", "b3"])
    d1 = Polynomial.var("x1") - Polynomial.var("b1")
    d2 = Polynomial.var("x2") - Polynomial.var("b2")
    d3 = Polynomial.var("x3") - Polynomial.var("b3")
    want = d1 * d2 + (d3 * d3 * Polynomial.var("b3", 2)).scale(6)
    assert got == want


def test_homogeneous_graded(ctx3):
    p = P("x1*x2 + x3^4", ctx3)
    assert homogeneous_part(p, 4, ctx3) == P("x3^4", ctx3)
    assert homogeneous_part(P("7", ctx3), 0, ctx3) == P("7", ctx3)


def test_taylor_about_point():
    ctx = Context(3, extra=("b1", "b2", "b3"))
    p = P("1 + x1*x2 + x1^2", ctx)
    got = taylor_poly(p, 2, ctx, about=["b1", "b2", "b3"])
    # for a polynomial of degree 2, the order-2 expansion is exact
    assert got == p
    d1 = Polynomial.var("x1") - Polynomial.var("b1")
    d2 = Polynomial.var("x2") - Polynomial.var("b2")
    explicit = (
        Polynomial.const(1)
        + Polynomial.var("b1", 2)
        + Polynomial.var("b1") * Polynomial.var("b2")
        + (Polynomial.var("b1").scale(2) + Polynomial.var("b2")) * d1
        + d1 * d1
        + Polynomial.var("b1") * d2
        + d1 * d2
    )
    assert got == explicit


def test_parts_about_a_mixed_point_sum_back():
    # one symbolic and two nonzero rational coordinates of the point
    ctx = Context(3, extra=("b1",))
    about = ["b1", F(2, 3), F(-5)]
    p = P("x1*x2 + x3^2", ctx)
    d1 = Polynomial.var("x1") - Polynomial.var("b1")
    d2 = Polynomial.var("x2") - F(2, 3)
    d3 = Polynomial.var("x3") + 5
    assert homogeneous_part(p, 2, ctx, about) == d1 * d2 + d3 * d3
    assert homogeneous_part(p, 1, ctx, about) == d1.scale(F(2, 3)) + Polynomial.var("b1") * d2 - d3.scale(10)
    assert homogeneous_part(p, 0, ctx, about) == Polynomial.var("b1").scale(F(2, 3)) + 25
    rng = random.Random(61)
    for _ in range(6):
        p = random_polynomial(rng, ctx, max_degree=5, terms=5)
        top = p.total_degree()
        assert poly_sum(homogeneous_part(p, m, ctx, about) for m in range(top + 1)) == p
        assert homogeneous_part(p, top + 1, ctx, about).is_zero()
        assert taylor_poly(p, top, ctx, about) == p


def test_taylor_truncates(ctx3):
    assert taylor_poly(P("x1^3", ctx3), 2, ctx3, about=[F(0), F(0), F(0)]).is_zero()
    p = P("x1^2*x2 + x3", ctx3)
    assert taylor_poly(p, p.total_degree(), ctx3) == p


def test_harmonic_conjugate_fixture():
    ctx = Context(2, coords=("x", "y"))
    u = P("15*x^2*y + 12*x^3*y - 5*y^3 - 12*x*y^3", ctx)
    v = harmonic_conjugate(u, ctx)
    assert v == P("-5*x^3 - 3*x^4 + 15*x*y^2 + 18*x^2*y^2 - 3*y^4", ctx)
    assert harmonic_conjugate(P("x", ctx), ctx) == P("y", ctx)
    assert harmonic_conjugate(P("x^2 - y^2", ctx), ctx) == P("2*x*y", ctx)
    with pytest.raises(NotHarmonic):
        harmonic_conjugate(P("x^2", ctx), ctx)


def test_cauchy_riemann_property():
    ctx = Context(2, coords=("x", "y"))
    rng = random.Random(8)
    for _ in range(10):
        # random harmonic polynomial from real/imag parts of (x+iy)^k
        k = rng.randrange(1, 6)
        re, im = Polynomial.const(1), Polynomial()
        for _ in range(k):
            re, im = (
                re * Polynomial.var("x") - im * Polynomial.var("y"),
                re * Polynomial.var("y") + im * Polynomial.var("x"),
            )
        u = re.scale(rng.randrange(1, 5)) + im.scale(rng.randrange(-3, 4))
        v = harmonic_conjugate(u, ctx)
        assert v.partial("y") == u.partial("x")
        assert v.partial("x") == -u.partial("y")
        assert v.eval({"x": F(0), "y": F(0)}).is_zero()


def test_schwarz_symmetry(ctx3):
    rng = random.Random(17)
    for _ in range(20):
        e = random_norm_expr(rng, ctx3)
        sched = [(rng.choice(ctx3.coords), 1) for _ in range(3)]
        perm = list(sched)
        rng.shuffle(perm)
        assert (partial_d(e, sched, ctx3) - partial_d(e, perm, ctx3)).is_zero()


def test_laplacian_is_div_grad(ctx3):
    rng = random.Random(29)
    for _ in range(10):
        e = random_norm_expr(rng, ctx3)
        assert (laplacian_of(e, 1, ctx3) - divergence_of(gradient_of(e, ctx3), ctx3)).is_zero()


def test_euler_identity(ctx3):
    rng = random.Random(37)
    for _ in range(10):
        p = random_polynomial(rng, ctx3, max_degree=3, terms=4)
        parts = p.homogeneous_parts(ctx3.coords)
        for deg, part in parts.items():
            radial = poly_sum(
                [Polynomial.var(v) * part.partial(v) for v in ctx3.coords]
            )
            assert radial == part.scale(deg)


def test_finite_difference_agreement(ctx3):
    rng = random.Random(53)
    h = F(1, 10**5)
    for _ in range(5):
        e = random_norm_expr(rng, ctx3, max_degree=2)
        var = rng.choice(ctx3.coords)
        point = {v: F(rng.randrange(1, 4), rng.randrange(1, 3)) for v in ctx3.coords}
        exact = eval_expr(expr_partial(e, var, ctx3), point, ctx3)
        up = dict(point)
        up[var] += h
        dn = dict(point)
        dn[var] -= h
        approx = (eval_expr(e, up, ctx3) - eval_expr(e, dn, ctx3)) * Scalar.from_fraction(
            F(1) / (2 * h)
        )
        err = float(approx_scalar(exact - approx, 8))
        scale = max(1.0, abs(float(approx_scalar(exact, 8))))
        assert abs(err) < 1e-6 * scale


def test_taylor_is_sum_of_homogeneous_parts():
    ctx = Context(3, extra=("b1", "b2", "b3"))
    rng = random.Random(59)
    about = ["b1", "b2", "b3"]
    for _ in range(5):
        p = random_polynomial(rng, ctx, max_degree=4, terms=3)
        m = rng.randrange(0, 5)
        total = Polynomial()
        for k in range(m + 1):
            total = total + homogeneous_part(p, k, ctx, about)
        assert total == taylor_poly(p, m, ctx, about)
