"""Acceptance criteria, one test per numbered item.

Every equality is an exact canonical-form identity unless the item is a
stated property check.  Each test prints one PASS/FAIL line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
from fractions import Fraction as F

import pytest

import poly_oracle
from conftest import E, P, random_polynomial, rename_vars

from harmcalc.bvp import (
    Annulus,
    ExteriorSphere,
    NormSquaredMultiple,
    Plain,
    Quadratic,
    QuadraticMultiple,
    Sphere,
    anti_laplacian,
    bi_dirichlet,
    dirichlet,
    exterior_neumann,
    neumann,
)
from harmcalc.calculus import (
    harmonic_conjugate,
    homogeneous_part,
    laplacian_of,
    normal_d_sphere,
    normal_d_surface,
    partial_d,
    poly_laplacian,
    taylor_poly,
)
from harmcalc.expr import Context, Expr, make_context, reduce_poly_on_sphere, restrict_to_sphere
from harmcalc.harmonic import (
    ball_inner_product,
    basis_harmonic,
    dim_harmonic,
    harmonic_decompose,
    sphere_inner_product,
    weighted_ball_inner_product,
    zonal_coefficients,
    zonal_harmonic,
)
from harmcalc.integrate import (
    RadialFunction,
    integrate_ball,
    integrate_ellipsoid_area,
    integrate_ellipsoid_volume,
    integrate_sphere,
)
from harmcalc.kernels import (
    bergman_kernel,
    bergman_kernel_h,
    bergman_projection,
    poisson_kernel,
)
from harmcalc.poly import Polynomial, poly_sum
from harmcalc.scalar import ONE, Scalar, approx_scalar
from harmcalc.transforms import (
    HyperplaneMirror,
    SphereMirror,
    UnitSphere,
    kelvin_h,
    phi_map,
    reflect_map,
    reflect_point,
)


class criterion:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %02d %s - %s" % (self.num, status, self.desc))
        return False


def test_criterion_01_sphere_integral():
    with criterion(1, "normalized sphere integral of x1^2 x2^4 x3^6 at n=3,5,7"):
        for n in (3, 5, 7):
            ctx = Context(n)
            denom = 1
            for j in range(6):
                denom *= n + 2 * j
            got = integrate_sphere(P("x1^2*x2^4*x3^6", ctx), ctx)
            assert got == Scalar.from_fraction(F(45, denom))
        assert integrate_sphere(P("x1^2*x2^4*x3^6", Context(3)), Context(3)) == Scalar.from_fraction(F(1, 3003))


def test_criterion_02_ball_integrals():
    with criterion(2, "ball integrals with 1/(1+r) weight at n=7 and (1-r^2) weight at n=3"):
        ctx7 = Context(7)
        got = integrate_ball(P("x1^2*x2^4", ctx7), RadialFunction.linear_reciprocal(1, 1), ctx7)
        want = (
            Scalar.pi_power(6)
            * (Scalar.log_fraction(2) - Scalar.from_fraction(F(18107, 27720)))
            * Scalar.from_fraction(F(16, 3465))
        )
        assert (got - want).is_zero()
        ctx3 = Context(3)
        w = RadialFunction(((ONE, 0, 0), (Scalar.from_fraction(-1), 2, 0)))
        got2 = integrate_ball(P("(x1*x2^4)^2", ctx3), w, ctx3)
        assert got2 == Scalar.pi_power(2) * Scalar.from_fraction(F(8, 19305))


def test_criterion_03_ellipsoid_area_centered():
    with criterion(3, "ellipsoid area integrals on the centered ellipsoid"):
        ctx = Context(3)
        ell = Quadratic((1, 4, 3))
        inv_sqrt3 = Scalar.sqrt_int(3).inverse()
        a = integrate_ellipsoid_area(P("x1^2*x2^6*x3^4", ctx), ell, ctx)
        assert (a - Scalar.pi_power(2) * Scalar.from_fraction(F(1, 1729728)) * inv_sqrt3).is_zero()
        b = integrate_ellipsoid_area(P("x1^8", ctx), ell, ctx)
        assert (b - Scalar.pi_power(2) * Scalar.from_fraction(F(1, 9)) * inv_sqrt3).is_zero()
        c = integrate_ellipsoid_area(P("9*x1^8 - 1729728*x1^2*x2^6*x3^4", ctx), ell, ctx)
        assert c.is_zero()


_OFFCENTER = Quadratic((1, 4, 3), (5, 1, -2), F(-6))
_PRINTED_AREA = (
    Scalar.from_fraction(F(29949695715392943781937, 54835301675238948864))
    * Scalar.sqrt_int(607)
    * Scalar.pi_power(2)
)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the source's printed value for the off-center area integral equals "
        "rho^4 times the integral its own definition specifies; the companion "
        "consistency test pins the exact relationship"
    ),
)
def test_criterion_03_offcenter_area_printed_value():
    ctx = Context(3)
    got = integrate_ellipsoid_area(P("x1^2*x2^6*x3^5", ctx), _OFFCENTER, ctx)
    print(
        "ACCEPTANCE 03 KNOWN-DISCREPANCY - off-center area fixture: printed "
        "value equals rho^4 * the defining integral (see companion test)"
    )
    assert (got - _PRINTED_AREA).is_zero()


def test_criterion_03_offcenter_area_consistency():
    """The computed area integral is the one the operation defines.

    It equals the derivative of the volume integral in the level parameter
    (coarea identity, checked against an exact finite difference of the
    volume routine that reproduces the off-center volume fixture), and the
    printed fixture is exactly rho^4 times it.
    """
    with criterion(3, "off-center area = volume-family derivative; printed value = rho^4 * that"):
        ctx = Context(3)
        p = P("x1^2*x2^6*x3^5", ctx)
        area = integrate_ellipsoid_area(p, _OFFCENTER, ctx)
        h = F(1, 10**8)
        vp = integrate_ellipsoid_volume(p, Quadratic(_OFFCENTER.b, _OFFCENTER.c, _OFFCENTER.d - h), ctx)
        vm = integrate_ellipsoid_volume(p, Quadratic(_OFFCENTER.b, _OFFCENTER.c, _OFFCENTER.d + h), ctx)
        fd = (vp - vm) * Scalar.from_fraction(F(1) / (2 * h))
        rel = abs(float(approx_scalar(area - fd, 12)) / float(approx_scalar(area, 12)))
        assert rel < 1e-12
        rho4 = Scalar.from_fraction(_OFFCENTER.rho_sq() ** 2)
        assert (area * rho4 - _PRINTED_AREA).is_zero()


def test_criterion_04_ellipsoid_volume():
    with criterion(4, "off-center ellipsoid volume integral with sqrt(607)"):
        ctx = Context(3)
        got = integrate_ellipsoid_volume(P("x1^2*x2^6*x3^5", ctx), _OFFCENTER, ctx)
        want = (
            Scalar.from_fraction(F(894963845974894457, 129818422526607360))
            * Scalar.sqrt_int(607)
            * Scalar.pi_power(2)
        )
        assert (got - want).is_zero()


def test_criterion_05_dirichlet():
    with criterion(5, "Dirichlet: sphere, exterior, annulus, quadratic, generalized"):
        ctx5 = Context(5)
        p = P("x1^4*x2^2", ctx5)
        sol = dirichlet(p, Sphere(), ctx5)
        fix = E(
            "1/15015*(143 - 273*||x||^2 + 165*||x||^4 - 35*||x||^6 + 910*x1^2"
            " - 1540*||x||^2*x1^2 + 630*||x||^4*x1^2 + 1155*x1^4 - 1155*||x||^2*x1^4"
            " + 455*x2^2 - 770*||x||^2*x2^2 + 315*||x||^4*x2^2 + 6930*x1^2*x2^2"
            " - 6930*||x||^2*x1^2*x2^2 + 15015*x1^4*x2^2)",
            ctx5,
        )
        assert (sol - fix).is_zero()

        ext = dirichlet(p, ExteriorSphere(), ctx5)
        fix_ext = E(
            "1/15015*(-35*||x||^6 + 165*||x||^8 - 273*||x||^10 + 143*||x||^12"
            " + 630*||x||^4*x1^2 - 1540*||x||^6*x1^2 + 910*||x||^8*x1^2"
            " - 1155*||x||^2*x1^4 + 1155*||x||^4*x1^4 + 315*||x||^4*x2^2"
            " - 770*||x||^6*x2^2 + 455*||x||^8*x2^2 - 6930*||x||^2*x1^2*x2^2"
            " + 6930*||x||^4*x1^2*x2^2 + 15015*x1^4*x2^2)*||x||^-15",
            ctx5,
        )
        assert (ext - fix_ext).is_zero()

        ann = dirichlet((P("x1^3", ctx5), P("x3^2", ctx5)), Annulus(1, 4), ctx5)
        fix_ann = E(
            "-1024/315*(-1 + ||x||^-3) + 1024/2387*(-1/1024 + ||x||^-5)*x1"
            " + 1/1835001*(-262144 + ||x||^9)*(3*||x||^2*x1 - 7*x1^3)*||x||^-9"
            " - 16384/16383*(-1 + ||x||^-7)*(-1/5*||x||^2 + x3^2)",
            ctx5,
        )
        assert (ann - fix_ann).is_zero()
        assert restrict_to_sphere(ann, ctx5, radius=1) == P("x1^3", ctx5)
        assert restrict_to_sphere(ann, ctx5, radius=4) == reduce_poly_on_sphere(
            P("x3^2", ctx5), ctx5.coords, 16
        )

        ctx3 = Context(3)
        q1 = dirichlet(P("x1^3*x3^2", ctx3), Quadratic((5, 3, 0), (0, 0, -4), F(-1)), ctx3)
        cof = P("-1163*x1 - 162*x1^3 + 567*x1*x2^2 - 3816*x1*x3 - 5751*x1*x3^2", ctx3)
        qq = P("-1 + 5*x1^2 + 3*x2^2 - 4*x3", ctx3)
        assert (q1 - Expr.from_poly(ctx3, P("x1^3*x3^2", ctx3) + (qq * cof).scale(F(1, 34506)))).is_zero()

        q2 = dirichlet(P("x1^4*x3^2", ctx3), Quadratic((7, 3, 4)), ctx3)
        cof2 = P(
            "-2366781 - 22817375*x1^2 - 41112960*x1^4 + 6343407*x2^2"
            " + 57632526*x1^2*x2^2 - 5172930*x2^4 - 16660966*x3^2"
            " - 1001229054*x1^2*x3^2 + 38928834*x2^2*x3^2 + 54988584*x3^4",
            ctx3,
        )
        qq2 = P("-1 + 7*x1^2 + 3*x2^2 + 4*x3^2", ctx3)
        want2 = Expr.from_poly(ctx3, P("x1^4*x3^2", ctx3) + (qq2 * cof2).scale(F(1, 11209827216)))
        assert (q2 - want2).is_zero()

        gen = dirichlet(P("x1^3*x2^2", ctx3), Sphere(), ctx3, rhs=P("x2^2*x3", ctx3))
        fix_gen = E(
            "1/1260*(108*x1 - 168*||x||^2*x1 + 60*||x||^4*x1 + 140*x1^3"
            " - 140*||x||^2*x1^3 + 420*x1*x2^2 - 420*||x||^2*x1*x2^2"
            " + 1260*x1^3*x2^2 - 9*x3 + 14*||x||^2*x3 - 5*||x||^4*x3"
            " - 70*x2^2*x3 + 70*||x||^2*x2^2*x3)",
            ctx3,
        )
        assert (gen - fix_gen).is_zero()

        # explicit-coordinate cases: solution and contracts
        ctx = Context(3, coords=("x", "y", "z"))
        p81 = P("x^3*y*z^2", ctx)
        sol81 = dirichlet(p81, Sphere(), ctx)
        fix81 = P(
            "1/231*(11*x*y + 3*x^3*y - 14*x^5*y - 18*x*y^3 - 7*x^3*y^3 + 7*x*y^5"
            " + 45*x*y*z^2 + 161*x^3*y*z^2 - 49*x*y^3*z^2 - 56*x*y*z^4)",
            ctx,
        )
        assert sol81 == Expr.from_poly(ctx, fix81)
        assert laplacian_of(sol81, 1, ctx).is_zero()
        assert restrict_to_sphere(sol81 - Expr.from_poly(ctx, p81), ctx).is_zero()
        g84 = P("y^2*z^3", ctx)
        sol84 = dirichlet(p81, Quadratic((2, 3, 4)), ctx, rhs=g84)
        assert (laplacian_of(sol84, 1, ctx) - Expr.from_poly(ctx, g84)).is_zero()
        q84 = P("2*x^2 + 3*y^2 + 4*z^2 - 1", ctx)
        diff = (sol84 - Expr.from_poly(ctx, p81)).as_polynomial()
        assert diff.divide_exact(q84, ctx.var_rank) is not None


def test_criterion_06_harmonic_decomposition():
    with criterion(6, "harmonic decomposition fixture and random reconstruction"):
        ctx3 = Context(3)
        pairs = harmonic_decompose(P("x1^4", ctx3), ctx3)
        n2 = ctx3.norm_sq_poly()
        assert pairs == [
            ((n2 * n2).scale(F(3, 35)) - (n2 * Polynomial.var("x1", 2)).scale(F(6, 7)) + Polynomial.var("x1", 4), 0),
            ((Polynomial.var("x1", 2).scale(3) - n2).scale(F(2, 7)), 2),
            (Polynomial.const(F(1, 5)), 4),
        ]
        rng = random.Random(1009)
        count = 0
        for n in (2, 3, 4, 5):
            ctx = Context(n)
            for _ in range(25):
                p = random_polynomial(rng, ctx, max_degree=8, terms=4)
                total = Polynomial()
                for h, e in harmonic_decompose(p, ctx):
                    assert poly_laplacian(h, ctx).is_zero()
                    total = total + ctx.norm_sq_poly() ** (e // 2) * h
                assert total == p
                count += 1
        assert count == 100


def test_criterion_07_anti_laplacians():
    with criterion(7, "anti-Laplacians: contracts and exact multiple-mode fixtures"):
        ctx5 = Context(5)
        for src in ("x1^2*x2*||x||^3*log(||x||)", "x1^2*x2^5 + 6*x1^3*x2^2*x3^4"):
            f = E(src, ctx5)
            u = anti_laplacian(f, Plain(), ctx5)
            assert (laplacian_of(u, 1, ctx5) - f).is_zero()
        f93 = E("x1^2*x2", ctx5) * Expr.norm_power(ctx5, 0, log_pow=10).scale(
            Scalar.from_fraction(F(1, 1024))
        )
        u93 = anti_laplacian(f93, Plain(), ctx5)
        assert (laplacian_of(u93, 1, ctx5) - f93).is_zero()

        u97 = anti_laplacian(P("x1^2*x2^5", ctx5), NormSquaredMultiple(), ctx5)
        fix97 = E(
            "1/302328*(-9*||x||^8*x2 + 156*||x||^6*x1^2*x2 + 104*||x||^6*x2^3"
            " - 2340*||x||^4*x1^2*x2^3 - 234*||x||^4*x2^5 + 7956*||x||^2*x1^2*x2^5)",
            ctx5,
        )
        assert (u97 - fix97).is_zero()

        # the two quadratic-multiple fixtures, pinned coefficient by
        # coefficient (the full expected cofactors live in test_bvp)
        ctx3 = Context(3)
        u100 = anti_laplacian(
            P("x1^2*x2*x3", ctx3), QuadraticMultiple((7, 3, 5), (6, 4, 2), F(-8)), ctx3
        )
        assert (laplacian_of(u100, 1, ctx3) - Expr.from_poly(ctx3, P("x1^2*x2*x3", ctx3))).is_zero()
        q100 = P("-8 + 6*x1 + 7*x1^2 + 4*x2 + 3*x2^2 + 2*x3 + 5*x3^2", ctx3)
        cof100 = u100.as_polynomial().divide_exact(q100, ctx3.var_rank)
        den = 1507708465430520600292500
        assert cof100 is not None
        assert poly_oracle.coefficient(cof100, ()).as_fraction() == F(447373820559267521408, den)
        assert poly_oracle.coefficient(cof100, (("x1", 2), ("x2", 1), ("x3", 1))).as_fraction() == F(
            11842617023843893048125, den
        )
        u102 = anti_laplacian(P("x1^2*x2^5", ctx3), QuadraticMultiple((5, 3, 2)), ctx3)
        assert (laplacian_of(u102, 1, ctx3) - Expr.from_poly(ctx3, P("x1^2*x2^5", ctx3))).is_zero()
        q102 = P("-1 + 5*x1^2 + 3*x2^2 + 2*x3^2", ctx3)
        cof102 = u102.as_polynomial().divide_exact(q102, ctx3.var_rank)
        den2 = 581833767288446820864
        assert cof102 is not None
        assert poly_oracle.coefficient(cof102, (("x2", 1),)).as_fraction() == F(2456037114711717, den2)
        assert poly_oracle.coefficient(cof102, (("x1", 2), ("x2", 5))).as_fraction() == F(
            3504622438227426081, den2
        )


def test_criterion_08_neumann():
    with criterion(8, "Neumann: sphere fixture, generalized contracts, quadratic fixtures"):
        ctx3 = Context(3)
        sol = neumann(P("x1^6*x2", ctx3), None, Sphere(), ctx3)
        fix = E(
            "1/3003*(143*x2 - 91*||x||^2*x2 + 33*||x||^4*x2 - 5*||x||^6*x2"
            " + 455*x1^2*x2 - 462*||x||^2*x1^2*x2 + 135*||x||^4*x1^2*x2"
            " + 693*x1^4*x2 - 495*||x||^2*x1^4*x2 + 429*x1^6*x2)",
            ctx3,
        )
        assert (sol - fix).is_zero()

        f108, g108 = P("x1^3*x2^4*x3^2", ctx3), P("5*x1^2*x2^3", ctx3)
        gen = neumann(f108, g108, Sphere(), ctx3)
        assert (laplacian_of(gen, 1, ctx3) - Expr.from_poly(ctx3, g108)).is_zero()
        assert normal_d_sphere(gen, ctx3) == Expr.from_poly(
            ctx3, reduce_poly_on_sphere(f108, ctx3.coords, 1)
        )
        assert gen.as_polynomial().eval({v: F(0) for v in ctx3.coords}).is_zero()

        q111 = neumann(P("x1^3*x2*x3^2", ctx3), None, Quadratic((5, 3, 2)), ctx3)
        fix111 = E(
            "1/144767520*(36900*x1*x2 - 20470*x1^3*x2 - 197775*x1^5*x2"
            " - 103410*x1*x2^3 - 21330*x1^3*x2^3 + 84321*x1*x2^5"
            " + 371640*x1*x2*x3^2 + 2041740*x1^3*x2*x3^2 - 779220*x1*x2^3*x3^2"
            " - 631260*x1*x2*x3^4)",
            ctx3,
        )
        assert (q111 - fix111).is_zero()

        f117 = P("x1^3*x3", ctx3) - Polynomial.const(F(97, 250))
        q117 = neumann(f117, None, Quadratic((5, 3, 2), (1, 4, 6), F(-7)), ctx3)
        fix117 = E(
            "1/14968128000*(-1365215424*x1 + 27518085*x1^2 + 61268550*x1^3"
            " - 53498340*x2 + 178613400*x1*x2 - 40123755*x2^2 + 133960050*x1*x2^2"
            " - 618086615*x3 + 1417403900*x1*x3 - 81779250*x1^2*x3"
            " + 206034500*x1^3*x3 + 27713000*x2*x3 - 245014000*x1*x2*x3"
            " + 20784750*x2^2*x3 - 183760500*x1*x2^2*x3 + 12605670*x3^2"
            " - 317765700*x1*x3^2 + 20331500*x3^3 - 144781000*x1*x3^3)",
            ctx3,
        )
        assert (q117 - fix117).is_zero()

        f122, g122 = P("x1^3*x2^2*x3", ctx3), P("4*x2^3", ctx3)
        gq = neumann(f122, g122, Quadratic((5, 3, 2)), ctx3)
        assert (laplacian_of(gq, 1, ctx3) - Expr.from_poly(ctx3, g122)).is_zero()
        qpoly = P("-1 + 5*x1^2 + 3*x2^2 + 2*x3^2", ctx3)
        h = gq.as_polynomial()
        resid = poly_sum([h.partial(v) * qpoly.partial(v) for v in ctx3.coords]) - f122
        cof = resid.divide_exact(qpoly, ctx3.var_rank)
        assert cof is not None
        den = 256728866287824
        assert poly_oracle.coefficient(cof, (("x2", 1),)).as_fraction() == F(73210684472464, den)
        assert poly_oracle.coefficient(cof, (("x1", 1), ("x3", 3))).as_fraction() == F(1368225238464, den)


def test_criterion_09_compatibility_constant():
    with criterion(9, "compatibility-constant solve gives k = 97/250"):
        ctx3 = Context(3)
        ell = Quadratic((5, 3, 2), (1, 4, 6), F(-7))
        num = integrate_ellipsoid_area(P("x1^3*x3", ctx3), ell, ctx3)
        den = integrate_ellipsoid_area(Polynomial.const(1), ell, ctx3)
        assert num / den == Scalar.from_fraction(F(97, 250))


def test_criterion_10_exterior_neumann():
    with criterion(10, "exterior Neumann fixture with harmonic and normal-derivative checks"):
        ctx5 = Context(5)
        p = P("x1^6*x2", ctx5)
        sol = exterior_neumann(p, ctx5)
        fix = E(
            "5/924*x2*||x||^-5 - 15/2002*(||x||^2*x2 - 7*x1^2*x2)*||x||^-9"
            " + 1/264*(||x||^4*x2 - 18*||x||^2*x1^2*x2 + 33*x1^4*x2)*||x||^-13"
            " + 1/10*(-1/143*||x||^6*x2 + 3/13*||x||^4*x1^2*x2 - ||x||^2*x1^4*x2"
            " + x1^6*x2)*||x||^-17",
            ctx5,
        )
        assert (sol - fix).is_zero()
        assert laplacian_of(sol, 1, ctx5).is_zero()
        assert normal_d_sphere(sol, ctx5) == Expr.from_poly(ctx5, -p)


def test_criterion_11_bi_dirichlet():
    with criterion(11, "biharmonic Dirichlet fixture and its three contracts"):
        ctx3 = Context(3)
        p = P("x1^4*x2^3", ctx3)
        sol = bi_dirichlet(p, ctx3)
        fix = E(
            "1/30030*(1287*x2 - 4524*||x||^2*x2 + 5922*||x||^4*x2 - 3420*||x||^6*x2"
            " + 735*||x||^8*x2 + 13650*x1^2*x2 - 40530*||x||^2*x1^2*x2"
            " + 40110*||x||^4*x1^2*x2 - 13230*||x||^6*x1^2*x2 + 24255*x1^4*x2"
            " - 48510*||x||^2*x1^4*x2 + 24255*||x||^4*x1^4*x2 + 2275*x2^3"
            " - 6755*||x||^2*x2^3 + 6685*||x||^4*x2^3 - 2205*||x||^6*x2^3"
            " + 48510*x1^2*x2^3 - 97020*||x||^2*x1^2*x2^3 + 48510*||x||^4*x1^2*x2^3"
            " + 135135*x1^4*x2^3 - 105105*||x||^2*x1^4*x2^3)",
            ctx3,
        )
        assert (sol - fix).is_zero()
        assert laplacian_of(sol, 2, ctx3).is_zero()
        assert normal_d_sphere(sol, ctx3).is_zero()
        assert restrict_to_sphere(sol - Expr.from_poly(ctx3, p), ctx3).is_zero()


def test_criterion_12_basis():
    with criterion(12, "degree-4 basis: 9 harmonic elements, identity Gram matrices"):
        ctx3 = Context(3)
        basis = basis_harmonic(4, ctx3)
        assert len(basis) == 9
        for b in basis:
            assert poly_laplacian(b, ctx3).is_zero()
        weight = RadialFunction(((ONE, 0, 0), (Scalar.from_fraction(-1), 2, 0)))
        for ip in (
            sphere_inner_product(),
            ball_inner_product(),
            weighted_ball_inner_product(weight),
        ):
            ob = basis_harmonic(4, ctx3, ip)
            for i in range(len(ob)):
                for j in range(i, len(ob)):
                    got = ip(ob[i], ob[j], ctx3)
                    assert (got - Scalar.from_fraction(1 if i == j else 0)).is_zero()


def test_criterion_13_zonal():
    with criterion(13, "zonal harmonics: m=5 n=3 expanded, n=7 coefficients, reproducing"):
        ctx = make_context(3, extra_vecs=("y",))
        y = ("y1", "y2", "y3")
        z = zonal_harmonic(5, ctx, y)
        dot = poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(ctx.coords, y)])
        nx, ny = ctx.norm_sq_poly(), ctx.norm_sq_poly(y)
        fix = (
            (dot**5).scale(F(693, 8))
            - (dot**3 * nx * ny).scale(F(385, 4))
            + (dot * nx**2 * ny**2).scale(F(165, 8))
        )
        assert z == fix
        # n=7 instances with the stated norm substitutions: the aggregate
        # monomials (x.z)^i ||x||^(2j) ||z||^(2k) are linearly independent,
        # so the coefficient lists pin the reduced polynomials exactly
        assert zonal_coefficients(6, 7) == [
            F(357, 16) * 143,
            F(-357, 16) * 143,
            F(357, 16) * 33,
            F(-357, 16),
        ]
        assert zonal_coefficients(8, 7) == [
            F(693, 128) * 4199,
            F(693, 128) * -6188,
            F(693, 128) * 2730,
            F(693, 128) * -364,
            F(693, 128) * 7,
        ]
        # reproducing property on degree <= 4 harmonics at n = 3
        for m in range(0, 5):
            ctxz = Context(3, coords=("z1", "z2", "z3"), extra=("x1", "x2", "x3"))
            zm = zonal_harmonic(m, ctxz, ("x1", "x2", "x3"))
            outer = Context(3)
            for hpoly in basis_harmonic(m, outer):
                hz = rename_vars(hpoly, dict(zip(("x1", "x2", "x3"), ("z1", "z2", "z3"))))
                got = integrate_sphere(hz * zm, ctxz)
                if isinstance(got, Scalar):
                    got = Polynomial.const(got)
                assert got == hpoly


def test_criterion_14_dim_harmonic():
    with criterion(14, "dimension of the degree-12 harmonics in 100 variables"):
        assert dim_harmonic(12, 100) == 3901030682812965


def test_criterion_15_transforms():
    with criterion(15, "reflections, modified inversion, modified Kelvin transform"):
        assert reflect_point((1, -2, 5, 11), UnitSphere()) == (
            F(1, 151),
            F(-2, 151),
            F(5, 151),
            F(11, 151),
        )
        assert reflect_point((2, 4, 5), SphereMirror((3, 1, 6), F(7))) == (
            F(-16, 11),
            F(158, 11),
            F(17, 11),
        )
        ctx3 = Context(3)
        m = reflect_map(HyperplaneMirror((1, 4, 5), F(7)), ctx3)
        want = (
            E("1/21*(7 + 20*x1 - 4*x2 - 5*x3)", ctx3),
            E("1/21*(28 - 4*x1 + 5*x2 - 20*x3)", ctx3),
            E("1/21*(35 - 5*x1 - 20*x2 - 4*x3)", ctx3),
        )
        for a, b in zip(m, want):
            assert (a - b).is_zero()
        ctx2 = Context(2)
        m2 = reflect_map(HyperplaneMirror((4, 5), F(7)), ctx2)
        want2 = (
            E("1/41*(56 + 9*x1 - 40*x2)", ctx2),
            E("1/41*(70 - 40*x1 - 9*x2)", ctx2),
        )
        for a, b in zip(m2, want2):
            assert (a - b).is_zero()

        # split-form inversion and the 1 - ||Phi||^2 identity
        ctxh = Context(4, coords=("x1", "x2", "x3", "y"))
        phi = phi_map(ctxh)
        Q = poly_sum([Polynomial.var(v, 2) for v in ("x1", "x2", "x3")]) + (
            Polynomial.var("y") + Polynomial.const(1)
        ) ** 2
        inv = Expr.base_power(ctxh, Q, -2)
        for i, v in enumerate(("x1", "x2", "x3")):
            assert (phi[i] - Expr.from_poly(ctxh, Polynomial.var(v).scale(2)) * inv).is_zero()
        last = Expr.from_scalar(ctxh, Scalar.from_fraction(-1)) + Expr.from_poly(
            ctxh, (Polynomial.var("y") + Polynomial.const(1)).scale(2)
        ) * inv
        assert (phi[-1] - last).is_zero()
        acc = Expr.zero(ctxh)
        for comp in phi:
            acc = acc + comp * comp
        val = Expr.from_scalar(ctxh, Scalar.from_fraction(1)) - acc
        assert (val - Expr.from_poly(ctxh, Polynomial.var("y").scale(4)) * inv).is_zero()

        # inversion is an involution (numerator identities)
        nums, den = poly_oracle.phi_numerators(ctxh)
        R = poly_sum([nm * nm for nm in nums[:-1]]) + (nums[-1] + den) ** 2
        for v, nm in zip(ctxh.coords[:-1], nums[:-1]):
            assert nm.scale(2) * den == Polynomial.var(v) * R
        assert (nums[-1] + den).scale(2) * den - R == Polynomial.var("y") * R

        # modified Kelvin transform: involution and the split fixture
        ctx4 = Context(4, coords=("z1", "z2", "z3", "z4"))
        u = E("z1*z2", ctx4)
        assert (kelvin_h(kelvin_h(u, ctx4), ctx4) - u).is_zero()
        ctx5h = Context(5, coords=("x1", "x2", "x3", "x4", "y"))
        got = kelvin_h(E("x4", ctx5h), ctx5h)
        Q5 = poly_sum([Polynomial.var(v, 2) for v in ("x1", "x2", "x3", "x4")]) + (
            Polynomial.var("y") + Polynomial.const(1)
        ) ** 2
        want5 = Expr.from_poly(ctx5h, Polynomial.var("x4")).scale(
            Scalar.sqrt_fraction(2) ** 5
        ) * Expr.base_power(ctx5h, Q5, -5)
        assert (got - want5).is_zero()


def test_criterion_16_kernels():
    with criterion(16, "kernels: harmonicity, dim-10 fixtures, projection, conjugate"):
        for n in (3, 5):
            ctx = make_context(n, extra_vecs=("y",))
            k = poisson_kernel(ctx, tuple("y%d" % (i + 1) for i in range(n)))
            assert laplacian_of(k, 1, ctx).is_zero()

        ctx10 = make_context(10, extra_vecs=("y",))
        y10 = tuple("y%d" % (i + 1) for i in range(10))
        kb = bergman_kernel(ctx10, y10)
        dot = poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(ctx10.coords, y10)])
        w = ctx10.norm_sq_poly() * ctx10.norm_sq_poly(y10)
        numer = (
            Polynomial.const(10) + w * (dot.scale(8) - Polynomial.const(24)) + (w * w).scale(6)
        ).scale(12)
        base = Polynomial.const(1) - dot.scale(2) + w
        fixb = Expr.from_poly(ctx10, numer).scale(Scalar.pi_power(-10)) * Expr.base_power(
            ctx10, base, -12
        )
        assert (kb - fixb).is_zero()

        ctxz = Context(
            10,
            coords=tuple("z%d" % (i + 1) for i in range(10)),
            extra=tuple("w%d" % (i + 1) for i in range(10)),
        )
        kh = bergman_kernel_h(ctxz, ctxz.extra[:-1], "w10")
        zn, wn = ctxz.coords, ctxz.extra
        dotzw = poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(zn, wn)])
        numer_h = (
            dotzw.scale(2)
            - ctxz.norm_sq_poly(wn)
            - ctxz.norm_sq_poly()
            + (Polynomial.var("w10") * Polynomial.var("z10")).scale(16)
            + (Polynomial.var("w10", 2) + Polynomial.var("z10", 2)).scale(10)
        ).scale(48)
        Qzw = (
            ctxz.norm_sq_poly()
            + ctxz.norm_sq_poly(wn)
            - dotzw.scale(2)
            + (Polynomial.var("w10") * Polynomial.var("z10")).scale(4)
        )
        fixh = Expr.from_poly(ctxz, numer_h).scale(Scalar.pi_power(-10)) * Expr.base_power(
            ctxz, Qzw, -12
        )
        assert (kh - fixh).is_zero()

        ctx5 = Context(5)
        proj = bergman_projection(P("x1^5*x2^3", ctx5), ctx5)
        fixp = E(
            "3/143*x1*x2 - 3/221*||x||^6*x1*x2 + 2/17*||x||^4*x1^3*x2"
            " - 3/17*||x||^2*x1^5*x2 + 1/17*||x||^4*x1*x2^3 - 10/17*||x||^2*x1^3*x2^3"
            " + x1^5*x2^3 + 1/17*(-1*||x||^2*x1*x2 + 2*x1^3*x2 + x1*x2^3)"
            " + 1/2717*(135*||x||^4*x1*x2 - 660*||x||^2*x1^3*x2 + 429*x1^5*x2"
            " - 330*||x||^2*x1*x2^3 + 1430*x1^3*x2^3)",
            ctx5,
        )
        assert Expr.from_poly(ctx5, proj) == fixp

        ctx2 = Context(2, coords=("x", "y"))
        u = P("15*x^2*y + 12*x^3*y - 5*y^3 - 12*x*y^3", ctx2)
        assert harmonic_conjugate(u, ctx2) == P(
            "-5*x^3 - 3*x^4 + 15*x*y^2 + 18*x^2*y^2 - 3*y^4", ctx2
        )


def test_criterion_17_calculus_spot_checks():
    with criterion(17, "calculus spot checks (mixed partials, Laplacians, expansions)"):
        ctx4 = Context(4)
        r = partial_d(Expr.norm_power(ctx4, 1), [("x2", 1), ("x1", 2), ("x4", 3)], ctx4)
        n2 = ctx4.norm_sq_poly()
        fix_num = (
            (n2 * n2 * P("x2*x4", ctx4)).scale(3)
            - (n2 * P("x1^2*x2*x4", ctx4)).scale(21)
            - (n2 * P("x2*x4^3", ctx4)).scale(7)
            + P("x1^2*x2*x4^3", ctx4).scale(63)
        ).scale(F(-15))
        assert (r - Expr.make(ctx4, fix_num, [(ctx4.norm_base, -11, 0)])).is_zero()

        ctx3 = Context(3)
        e9 = Expr.from_poly(ctx3, Polynomial.var("x3")) * Expr.norm_power(ctx3, 1)
        assert laplacian_of(e9, 1, ctx3) == Expr.make(
            ctx3, Polynomial.var("x3").scale(4), [(ctx3.norm_base, -1, 0)]
        )

        ctxxyz = Context(3, coords=("x", "y", "z"))
        assert laplacian_of(E("x^2*y^3*z^4", ctxxyz), 1, ctxxyz) == E(
            "12*x^2*y^3*z^2 + 6*x^2*y*z^4 + 2*y^3*z^4", ctxxyz
        )

        ctx8 = Context(8)
        assert (
            laplacian_of(Expr.norm_power(ctx8, -1), 2, ctx8)
            - Expr.norm_power(ctx8, -5).scale(45)
        ).is_zero()

        f23 = E("x1^4*x2^8*x3^5", ctx3)
        q23 = P("x1^2 + 3*x2^2 + 2*x3^2", ctx3)
        got23 = normal_d_surface(f23, q23, ctx3)
        want23 = Expr.from_poly(ctx3, P("38*x1^4*x2^8*x3^5", ctx3)) * Expr.base_power(
            ctx3, P("x1^2 + 9*x2^2 + 4*x3^2", ctx3), -1
        )
        assert (got23 - want23).is_zero()

        ctxb = Context(3, extra=("b1", "b2", "b3"))
        d1 = Polynomial.var("x1") - Polynomial.var("b1")
        d2 = Polynomial.var("x2") - Polynomial.var("b2")
        d3 = Polynomial.var("x3") - Polynomial.var("b3")
        got36 = homogeneous_part(P("x1*x2 + x3^4", ctxb), 2, ctxb, about=["b1", "b2", "b3"])
        assert got36 == d1 * d2 + (d3 * d3 * Polynomial.var("b3", 2)).scale(6)
        got38 = taylor_poly(P("1 + x1*x2 + x1^2", ctxb), 2, ctxb, about=["b1", "b2", "b3"])
        explicit = (
            Polynomial.const(1)
            + Polynomial.var("b1", 2)
            + Polynomial.var("b1") * Polynomial.var("b2")
            + (Polynomial.var("b1").scale(2) + Polynomial.var("b2")) * d1
            + d1 * d1
            + Polynomial.var("b1") * d2
            + d1 * d2
        )
        assert got38 == explicit


def test_criterion_18_property_suites():
    with criterion(18, "standalone property suites all green"):
        import test_properties as props

        props.test_canonical_form_idempotence()
        props.test_finite_difference_derivatives()
        props.test_laplacian_equals_div_grad()
        props.test_mean_value_identity()
        props.test_monte_carlo_ellipsoid_cross_check()
        props.test_render_parse_round_trip()
