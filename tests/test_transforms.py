import random
from fractions import Fraction as F

import pytest

import poly_oracle
from conftest import E

from harmcalc.calculus import laplacian_of
from harmcalc.errors import (
    CenterSingularity,
    DimensionMismatch,
    EmptyInterior,
    UnsupportedBase,
    UnsupportedInputError,
)
from harmcalc.expr import Context, Expr, eval_expr, make_context
from harmcalc.harmonic import basis_harmonic
from harmcalc.poly import Polynomial, poly_sum
from harmcalc.scalar import Scalar
from harmcalc.transforms import (
    HyperplaneMirror,
    SphereMirror,
    UnitSphere,
    _kelvin,
    _south_pole,
    kelvin,
    kelvin_h,
    phi_map,
    reflect_map,
    reflect_point,
)


def test_reflect_unit_sphere_point():
    got = reflect_point((1, -2, 5, 11), UnitSphere())
    assert got == (F(1, 151), F(-2, 151), F(5, 151), F(11, 151))
    with pytest.raises(CenterSingularity):
        reflect_point((0, 0), UnitSphere())


def test_an_unknown_mirror_is_typed():
    with pytest.raises(UnsupportedInputError, match="^unknown mirror 'unit'$"):
        reflect_point((1, 2), "unit")


def test_reflect_sphere_point():
    got = reflect_point((2, 4, 5), SphereMirror((3, 1, 6), F(7)))
    assert got == (F(-16, 11), F(158, 11), F(17, 11))


def test_reflect_hyperplane_symbolic(ctx3):
    m = reflect_map(HyperplaneMirror((1, 4, 5), F(7)), ctx3)
    want = (
        E("1/21*(7 + 20*x1 - 4*x2 - 5*x3)", ctx3),
        E("1/21*(28 - 4*x1 + 5*x2 - 20*x3)", ctx3),
        E("1/21*(35 - 5*x1 - 20*x2 - 4*x3)", ctx3),
    )
    for a, b in zip(m, want):
        assert (a - b).is_zero()


def test_reflect_hyperplane_dim2():
    ctx2 = Context(2)
    m = reflect_map(HyperplaneMirror((4, 5), F(7)), ctx2)
    want = (
        E("1/41*(56 + 9*x1 - 40*x2)", ctx2),
        E("1/41*(70 - 40*x1 - 9*x2)", ctx2),
    )
    for a, b in zip(m, want):
        assert (a - b).is_zero()


def test_reflection_involution_points():
    rng = random.Random(7)
    mirrors = (
        UnitSphere(),
        SphereMirror((F(1), F(-2), F(3)), F(5, 2)),
        HyperplaneMirror((F(2), F(-1), F(4)), F(3)),
    )
    for mirror in mirrors:
        for _ in range(15):
            pt = tuple(F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(3))
            if isinstance(mirror, UnitSphere) and not any(pt):
                continue
            if isinstance(mirror, SphereMirror) and pt == mirror.center:
                continue
            assert reflect_point(reflect_point(pt, mirror), mirror) == pt


def test_reflect_map_agrees_with_reflect_point(ctx3):
    rng = random.Random(19)
    for mirror in (
        UnitSphere(),
        SphereMirror((F(1), F(-2), F(3)), F(5, 2)),
        HyperplaneMirror((F(2), F(-1), F(4)), F(3)),
    ):
        comps = reflect_map(mirror, ctx3)
        for _ in range(10):
            # no point drawn is a sphere's center
            pt = tuple(F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(3))
            want = tuple(Scalar.from_fraction(v) for v in reflect_point(pt, mirror))
            assert tuple(eval_expr(c, dict(zip(ctx3.coords, pt))) for c in comps) == want


def test_hyperplane_reflection_fixes_plane(ctx3):
    b, t = (F(1), F(4), F(5)), F(7)
    m = reflect_map(HyperplaneMirror(b, t), ctx3)
    # b . reflect(x) - t vanishes whenever b.x = t: as polynomials,
    # b.reflect(x) - t is a multiple of (b.x - t)
    combo = Expr.zero(ctx3)
    for bi, comp in zip(b, m):
        combo = combo + comp.scale(Scalar.from_fraction(bi))
    combo = combo - Expr.from_scalar(ctx3, Scalar.from_fraction(t))
    resid = combo.as_polynomial()
    plane = poly_sum(
        [Polynomial.var(v).scale(bi) for v, bi in zip(ctx3.coords, b)]
    ) - Polynomial.const(t)
    assert resid.divide_exact(plane, ctx3.var_rank) is not None


def test_kelvin_fixture():
    ctx = make_context(3, extra_vecs=("y",))
    u = E("dot(x,y)^2 + x3^5*norm(x)", ctx, vectors={"y": ("y1", "y2", "y3")})
    got = kelvin(u, ctx)
    want = E(
        "dot(x,y)^2*||x||^-5 + x3^5*||x||^-12",
        ctx,
        vectors={"y": ("y1", "y2", "y3")},
    )
    assert (got - want).is_zero()


def test_kelvin_of_constant(ctx3):
    got = kelvin(Expr.from_scalar(ctx3, Scalar.from_fraction(1)), ctx3)
    assert (got - Expr.norm_power(ctx3, -1)).is_zero()


def test_kelvin_involution():
    ctx4 = Context(4)
    u = E("x1^2*x2", ctx4)
    assert (kelvin(kelvin(u, ctx4), ctx4) - u).is_zero()


def test_kelvin_rejects_logs(ctx3):
    with pytest.raises(UnsupportedBase):
        kelvin(Expr.norm_power(ctx3, 0, log_pow=1), ctx3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kelvin_preserves_harmonicity(n):
    ctx = Context(n)
    for m in range(0, 5):
        for h in basis_harmonic(m, ctx)[:3]:
            k = kelvin(Expr.from_poly(ctx, h), ctx)
            assert laplacian_of(k, 1, ctx).is_zero()


def test_phi_split_form():
    ctx = Context(4, coords=("x1", "x2", "x3", "y"))
    phi = phi_map(ctx)
    Q = poly_sum([Polynomial.var(v, 2) for v in ("x1", "x2", "x3")]) + (
        Polynomial.var("y") + Polynomial.const(1)
    ) ** 2
    inv = Expr.base_power(ctx, Q, -2)
    for i, v in enumerate(("x1", "x2", "x3")):
        want = Expr.from_poly(ctx, Polynomial.var(v).scale(2)) * inv
        assert (phi[i] - want).is_zero()
    last = Expr.from_scalar(ctx, Scalar.from_fraction(-1)) + Expr.from_poly(
        ctx, (Polynomial.var("y") + Polynomial.const(1)).scale(2)
    ) * inv
    assert (phi[-1] - last).is_zero()


def test_phi_norm_identity():
    # 1 - ||Phi(x, y)||^2 = 4y / ((1+y)^2 + ||x||^2)
    ctx = Context(4, coords=("x1", "x2", "x3", "y"))
    phi = phi_map(ctx)
    acc = Expr.zero(ctx)
    for comp in phi:
        acc = acc + comp * comp
    val = Expr.from_scalar(ctx, Scalar.from_fraction(1)) - acc
    Q = poly_sum([Polynomial.var(v, 2) for v in ("x1", "x2", "x3")]) + (
        Polynomial.var("y") + Polynomial.const(1)
    ) ** 2
    want = Expr.from_poly(ctx, Polynomial.var("y").scale(4)) * Expr.base_power(ctx, Q, -2)
    assert (val - want).is_zero()


def test_phi_north_pole_to_origin():
    ctx = Context(3)
    from harmcalc.expr import eval_expr

    phi = phi_map(ctx)
    north = {"x1": F(0), "x2": F(0), "x3": F(1)}
    values = [eval_expr(comp, north, ctx) for comp in phi]
    assert all(v.is_zero() for v in values)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_phi_involution(n):
    # compose through the numerator form: Phi(Phi(z)) = z holds iff
    # 2 N_i D = z_i R and 2 D (N_last + D) - R = z_last R with
    # R = sum N_i^2 + (N_last + D)^2
    ctx = Context(n)
    nums, den = poly_oracle.phi_numerators(ctx)
    R = poly_sum([nm * nm for nm in nums[:-1]]) + (nums[-1] + den) ** 2
    for v, nm in zip(ctx.coords[:-1], nums[:-1]):
        assert nm.scale(2) * den == Polynomial.var(v) * R
    assert (nums[-1] + den).scale(2) * den - R == Polynomial.var(ctx.coords[-1]) * R


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_map_is_the_closed_form(n):
    # phi_map reads the one sphere reflection; the oracle writes Phi out
    ctx = Context(n)
    nums, den = poly_oracle.phi_numerators(ctx)
    inv = Expr.base_power(ctx, den, -2)
    got = phi_map(ctx)
    assert len(got) == n
    for comp, nm in zip(got, nums):
        assert (comp - Expr.from_poly(ctx, nm) * inv).is_zero()


def test_kelvin_h_split_fixture():
    ctx = Context(5, coords=("x1", "x2", "x3", "x4", "y"))
    got = kelvin_h(E("x4", ctx), ctx)
    Q = poly_sum([Polynomial.var(v, 2) for v in ("x1", "x2", "x3", "x4")]) + (
        Polynomial.var("y") + Polynomial.const(1)
    ) ** 2
    want = Expr.from_poly(ctx, Polynomial.var("x4")).scale(
        Scalar.sqrt_fraction(2) ** 5
    ) * Expr.base_power(ctx, Q, -5)
    assert (got - want).is_zero()


def test_kelvin_h_involution():
    ctx = Context(4, coords=("z1", "z2", "z3", "z4"))
    u = E("z1*z2", ctx)
    assert (kelvin_h(kelvin_h(u, ctx), ctx) - u).is_zero()
    rng = random.Random(15)
    for _ in range(5):
        from conftest import random_polynomial

        p = random_polynomial(rng, ctx, max_degree=3, terms=3)
        e = Expr.from_poly(ctx, p)
        assert (kelvin_h(kelvin_h(e, ctx), ctx) - e).is_zero()


def test_kelvin_h_involution_with_second_vector():
    # coefficients in a second point ride along, as they do in `kelvin`
    ctx = make_context(3, extra_vecs=("y",))
    vectors = {"y": ("y1", "y2", "y3")}
    u = E("dot(x,y)*x2 + x1*y1 + x3^2*y2 - 5*y3^2", ctx, vectors=vectors)
    k = kelvin_h(u, ctx)
    assert (kelvin_h(k, ctx) - u).is_zero()
    # the degree-0 part -5 y3^2 pulls back to -5 y3^2 2^(1/2) Q^(-1/2)
    Q = poly_sum([Polynomial.var(v, 2) for v in ("x1", "x2")]) + (
        Polynomial.var("x3") + Polynomial.const(1)
    ) ** 2
    front = Expr.base_power(ctx, Q, -1).scale(Scalar.sqrt_fraction(2))
    assert (kelvin_h(E("y3^2", ctx, vectors=vectors), ctx) - front * E("y3^2", ctx)).is_zero()


def test_kelvin_h_constant():
    ctx = Context(4, coords=("z1", "z2", "z3", "z4"))
    got = kelvin_h(Expr.from_scalar(ctx, Scalar.from_fraction(1)), ctx)
    Q = poly_sum([Polynomial.var(v, 2) for v in ("z1", "z2", "z3")]) + (
        Polynomial.var("z4") + Polynomial.const(1)
    ) ** 2
    want = Expr.base_power(ctx, Q, -2).scale(Scalar.from_fraction(2))
    assert (got - want).is_zero()


def test_reflect_mirror_must_match_dimension():
    # a normal longer than the point must not be truncated
    with pytest.raises(DimensionMismatch):
        reflect_point((1, 2), HyperplaneMirror((1, 0, 0), 0))
    with pytest.raises(DimensionMismatch):
        reflect_point((1, 2), SphereMirror((0, 0, 0), 1))
    with pytest.raises(DimensionMismatch):
        reflect_map(HyperplaneMirror((1, 0, 0), 0), Context(2))
    with pytest.raises(DimensionMismatch):
        reflect_map(SphereMirror((0,), 1), Context(2))


@pytest.mark.parametrize("radius", [0, -1, F(-1, 2)])
def test_sphere_mirror_needs_positive_radius(radius):
    # radius 0 would send every point to the center, and -r would act as r
    with pytest.raises(EmptyInterior):
        reflect_point((1, 0), SphereMirror((0, 0), radius))
    with pytest.raises(EmptyInterior):
        reflect_map(SphereMirror((0, 0), radius), Context(2))


def _sphere_data(rng, ctx, degree):
    """A random rational polynomial in the coordinates and the second vector."""
    names = ctx.coords + ctx.extra
    terms = []
    for _ in range(4):
        mono = {}
        for _ in range(rng.randrange(degree + 1)):
            v = rng.choice(names)
            mono[v] = mono.get(v, 0) + 1
        terms.append((tuple(sorted(mono.items())), F(rng.randrange(-6, 7), rng.randrange(1, 4))))
    return Polynomial.from_raw(terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kelvin_in_any_sphere_is_the_pullback_by_products(n):
    # the south-pole sphere and spheres with other integral centers, on
    # sums of polynomials in x and y times powers Q^(h/2) of their base
    rng = random.Random(40 + n)
    ctx = make_context(n, extra_vecs=("y",))
    spheres = [_south_pole(n)]
    for r2 in (F(1), F(3), F(9, 4)):
        spheres.append((tuple(F(rng.randrange(-2, 3)) for _ in range(n)), r2))
    for sphere in spheres:
        center, _ = sphere
        q = poly_sum((Polynomial.var(v) - c) ** 2 for v, c in zip(ctx.coords, center))
        bid = ctx.register_base(q)[0]
        for _ in range(3):
            e = Expr.zero(ctx)
            for _ in range(2):
                p = _sphere_data(rng, ctx, 4 if n < 5 else 3)
                e = e + Expr.make(ctx, p, [(bid, rng.randrange(-4, 4), 0)])
            assert _kelvin(e, ctx, sphere) == poly_oracle.kelvin_by_products(e, ctx, sphere)


def test_the_pullback_forms_no_product_before_canonical_form(monkeypatch):
    # translations and homogeneous parts only: every Polynomial product of
    # a Kelvin transform is formed by `Expr._from_raw`
    ctx = make_context(3, extra_vecs=("y",))
    sphere = ((F(2), F(-1), F(1)), F(5))
    q = poly_sum((Polynomial.var(v) - c) ** 2 for v, c in zip(ctx.coords, sphere[0]))
    u = E("x1^3*x2*y1 - 2*x3^2*y2^2 + 5*x1*x3 - 7/3", ctx, vectors={"y": ("y1", "y2", "y3")})
    v = Expr.make(ctx, u.as_polynomial(), [(ctx.register_base(q)[0], -3, 0)])
    products, inside = [], []
    mul, from_raw = Polynomial.__mul__, Expr._from_raw

    def counted_mul(a, b):
        if not inside:
            products.append((a, b))
        return mul(a, b)

    def marked_from_raw(ctx, raw):
        inside.append(1)
        try:
            return from_raw(ctx, raw)
        finally:
            inside.pop()

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Expr, "_from_raw", staticmethod(marked_from_raw))
    for e, s in ((u, _south_pole(3)), (u, sphere), (v, sphere)):
        _kelvin(e, ctx, s)
    kelvin_h(kelvin_h(u, ctx), ctx)
    assert products == []
