import random
from fractions import Fraction as F

import pytest

from conftest import E, P, random_polynomial

from harmcalc import bvp
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
    radial_solve_count,
)
from harmcalc.calculus import laplacian_of, normal_d_sphere, poly_laplacian
from harmcalc.errors import (
    DimensionMismatch,
    SolvabilityViolation,
    UnsupportedDimension,
    UnsupportedInputError,
)
from harmcalc.expr import (
    Context,
    Expr,
    Polynomial,
    monomials,
    poly_sum,
    reduce_poly_on_sphere,
    restrict_to_sphere,
)
from harmcalc.integrate import integrate_sphere
from harmcalc.scalar import Scalar

# ---------------------------------------------------------------------------
# Dirichlet


def test_dirichlet_sphere_dim5_fixture(ctx5):
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
    assert laplacian_of(sol, 1, ctx5).is_zero()
    assert restrict_to_sphere(sol - Expr.from_poly(ctx5, p), ctx5).is_zero()


def test_dirichlet_already_harmonic(ctx3):
    p = P("x1", ctx3)
    for region in (Sphere(), ExteriorSphere(), Annulus(1, 2), Quadratic((1, 1, 1))):
        sol = dirichlet(p, region, ctx3)
        if isinstance(region, (Sphere, Quadratic)):
            assert sol == Expr.from_poly(ctx3, p)


def test_dirichlet_exterior_fixture(ctx5):
    p = P("x1^4*x2^2", ctx5)
    sol = dirichlet(p, ExteriorSphere(), ctx5)
    fix = E(
        "1/15015*(-35*||x||^6 + 165*||x||^8 - 273*||x||^10 + 143*||x||^12"
        " + 630*||x||^4*x1^2 - 1540*||x||^6*x1^2 + 910*||x||^8*x1^2"
        " - 1155*||x||^2*x1^4 + 1155*||x||^4*x1^4 + 315*||x||^4*x2^2"
        " - 770*||x||^6*x2^2 + 455*||x||^8*x2^2 - 6930*||x||^2*x1^2*x2^2"
        " + 6930*||x||^4*x1^2*x2^2 + 15015*x1^4*x2^2)*||x||^-15",
        ctx5,
    )
    assert (sol - fix).is_zero()
    assert laplacian_of(sol, 1, ctx5).is_zero()
    assert restrict_to_sphere(sol - Expr.from_poly(ctx5, p), ctx5).is_zero()


def test_dirichlet_annulus_fixture(ctx5):
    sol = dirichlet((P("x1^3", ctx5), P("x3^2", ctx5)), Annulus(1, 4), ctx5)
    fix = E(
        "-1024/315*(-1 + ||x||^-3) + 1024/2387*(-1/1024 + ||x||^-5)*x1"
        " + 1/1835001*(-262144 + ||x||^9)*(3*||x||^2*x1 - 7*x1^3)*||x||^-9"
        " - 16384/16383*(-1 + ||x||^-7)*(-1/5*||x||^2 + x3^2)",
        ctx5,
    )
    assert (sol - fix).is_zero()
    assert laplacian_of(sol, 1, ctx5).is_zero()
    assert restrict_to_sphere(sol, ctx5, radius=1) == P("x1^3", ctx5)
    assert restrict_to_sphere(sol, ctx5, radius=4) == reduce_poly_on_sphere(
        P("x3^2", ctx5), ctx5.coords, 16
    )


def test_dirichlet_annulus_shortcut(ctx3):
    with pytest.raises(UnsupportedDimension):
        dirichlet(P("x1", Context(2)), Annulus(1, 2), Context(2))
    p = P("x1^2", ctx3)
    sol = dirichlet(p, Annulus(F(1, 2), 2), ctx3)
    assert laplacian_of(sol, 1, ctx3).is_zero()
    for r in (F(1, 2), F(2)):
        assert restrict_to_sphere(sol, ctx3, radius=r) == reduce_poly_on_sphere(
            p, ctx3.coords, r * r
        )


def test_dirichlet_quadratic_paraboloid(ctx3):
    p = P("x1^3*x3^2", ctx3)
    sol = dirichlet(p, Quadratic((5, 3, 0), (0, 0, -4), F(-1)), ctx3)
    cof = P(
        "-1163*x1 - 162*x1^3 + 567*x1*x2^2 - 3816*x1*x3 - 5751*x1*x3^2", ctx3
    ).scale(F(1, 34506))
    q = P("-1 + 5*x1^2 + 3*x2^2 - 4*x3", ctx3)
    assert (sol - Expr.from_poly(ctx3, p + q * cof)).is_zero()
    assert laplacian_of(sol, 1, ctx3).is_zero()


def test_dirichlet_quadratic_ellipsoid(ctx3):
    p = P("x1^4*x3^2", ctx3)
    sol = dirichlet(p, Quadratic((7, 3, 4)), ctx3)
    cof = P(
        "-2366781 - 22817375*x1^2 - 41112960*x1^4 + 6343407*x2^2"
        " + 57632526*x1^2*x2^2 - 5172930*x2^4 - 16660966*x3^2"
        " - 1001229054*x1^2*x3^2 + 38928834*x2^2*x3^2 + 54988584*x3^4",
        ctx3,
    )
    q = P("-1 + 7*x1^2 + 3*x2^2 + 4*x3^2", ctx3)
    want = Expr.from_poly(ctx3, p + (q * cof).scale(F(1, 11209827216)))
    assert (sol - want).is_zero()
    assert laplacian_of(sol, 1, ctx3).is_zero()


def test_generalized_dirichlet_sphere(ctx3):
    p = P("x1^3*x2^2", ctx3)
    g = P("x2^2*x3", ctx3)
    sol = dirichlet(p, Sphere(), ctx3, rhs=g)
    fix = E(
        "1/1260*(108*x1 - 168*||x||^2*x1 + 60*||x||^4*x1 + 140*x1^3"
        " - 140*||x||^2*x1^3 + 420*x1*x2^2 - 420*||x||^2*x1*x2^2"
        " + 1260*x1^3*x2^2 - 9*x3 + 14*||x||^2*x3 - 5*||x||^4*x3"
        " - 70*x2^2*x3 + 70*||x||^2*x2^2*x3)",
        ctx3,
    )
    assert (sol - fix).is_zero()
    assert (laplacian_of(sol, 1, ctx3) - Expr.from_poly(ctx3, g)).is_zero()
    assert restrict_to_sphere(sol - Expr.from_poly(ctx3, p), ctx3).is_zero()


def test_dirichlet_named_coordinates():
    ctx = Context(3, coords=("x", "y", "z"))
    p = P("x^3*y*z^2", ctx)
    sol = dirichlet(p, Sphere(), ctx)
    fix = P(
        "1/231*(11*x*y + 3*x^3*y - 14*x^5*y - 18*x*y^3 - 7*x^3*y^3 + 7*x*y^5"
        " + 45*x*y*z^2 + 161*x^3*y*z^2 - 49*x*y^3*z^2 - 56*x*y*z^4)",
        ctx,
    )
    assert sol == Expr.from_poly(ctx, fix)
    assert laplacian_of(sol, 1, ctx).is_zero()
    assert restrict_to_sphere(sol - Expr.from_poly(ctx, p), ctx).is_zero()


def test_generalized_dirichlet_quadratic_named():
    ctx = Context(3, coords=("x", "y", "z"))
    p = P("x^3*y*z^2", ctx)
    g = P("y^2*z^3", ctx)
    sol = dirichlet(p, Quadratic((2, 3, 4)), ctx, rhs=g)
    assert (laplacian_of(sol, 1, ctx) - Expr.from_poly(ctx, g)).is_zero()
    q = P("2*x^2 + 3*y^2 + 4*z^2 - 1", ctx)
    diff = (sol - Expr.from_poly(ctx, p)).as_polynomial()
    assert diff.divide_exact(q, ctx.var_rank) is not None


def test_dirichlet_offcenter_quadric_dim4():
    # the heaviest quadric solve in the README corpus: an off-center
    # ellipsoid in dimension 4 with a degree-10 ansatz
    ctx = Context(4)
    p = P("x1^5*x2^3*x3^2", ctx)
    sol = dirichlet(p, Quadratic((1, 2, 3, 4), (1, 0, 0, 0), -1), ctx)
    assert laplacian_of(sol, 1, ctx).is_zero()
    q = P("x1^2 + 2*x2^2 + 3*x3^2 + 4*x4^2 + x1 - 1", ctx)
    diff = (sol - Expr.from_poly(ctx, p)).as_polynomial()
    assert diff.divide_exact(q, ctx.var_rank) is not None


def test_generalized_dirichlet_quadratic_dim3(ctx3):
    sol = dirichlet(
        P("x1^4*x3^2", ctx3), Quadratic((2, 3, 4)), ctx3, rhs=P("x2^2", ctx3)
    )
    assert (laplacian_of(sol, 1, ctx3) - Expr.from_poly(ctx3, P("x2^2", ctx3))).is_zero()


def test_dirichlet_mean_value(ctx3):
    rng = random.Random(43)
    for _ in range(50):
        p = random_polynomial(rng, ctx3, max_degree=5, terms=4)
        sol = dirichlet(p, Sphere(), ctx3).as_polynomial()
        center = sol.eval({v: F(0) for v in ctx3.coords})
        assert center == integrate_sphere(p, ctx3)


# ---------------------------------------------------------------------------
# anti-Laplacians


def test_anti_laplacian_poly_fast_path(ctx5):
    f = P("x1^2*x2^5 + 6*x1^3*x2^2*x3^4", ctx5)
    before = radial_solve_count()
    u = anti_laplacian(f, Plain(), ctx5)
    assert radial_solve_count() == before
    assert (laplacian_of(u, 1, ctx5) - Expr.from_poly(ctx5, f)).is_zero()
    assert u.is_polynomial()


def test_anti_laplacian_radial_log(ctx5):
    f = E("x1^2*x2*||x||^3*log(||x||)", ctx5)
    before = radial_solve_count()
    u = anti_laplacian(f, Plain(), ctx5)
    assert radial_solve_count() > before
    assert (laplacian_of(u, 1, ctx5) - f).is_zero()


def test_anti_laplacian_radial_log10(ctx5):
    f = E("x1^2*x2", ctx5) * Expr.norm_power(ctx5, 0, log_pow=10).scale(
        Scalar.from_fraction(F(1, 1024))
    )
    u = anti_laplacian(f, Plain(), ctx5)
    assert (laplacian_of(u, 1, ctx5) - f).is_zero()


def test_anti_laplacian_negative_power(ctx5):
    f = Expr.make(ctx5, P("x1*x2", ctx5), [(ctx5.norm_base, -3, 0)])
    u = anti_laplacian(f, Plain(), ctx5)
    assert (laplacian_of(u, 1, ctx5) - f).is_zero()


def test_anti_laplacian_constant_contract(ctx3):
    u = anti_laplacian(P("6", ctx3), Plain(), ctx3)
    assert laplacian_of(u, 1, ctx3) == Expr.from_poly(ctx3, P("6", ctx3))


def test_anti_laplacian_norm_multiple_fixture(ctx5):
    f = P("x1^2*x2^5", ctx5)
    u = anti_laplacian(f, NormSquaredMultiple(), ctx5)
    fix = E(
        "1/302328*(-9*||x||^8*x2 + 156*||x||^6*x1^2*x2 + 104*||x||^6*x2^3"
        " - 2340*||x||^4*x1^2*x2^3 - 234*||x||^4*x2^5 + 7956*||x||^2*x1^2*x2^5)",
        ctx5,
    )
    assert (u - fix).is_zero()
    assert (laplacian_of(u, 1, ctx5) - Expr.from_poly(ctx5, f)).is_zero()


def _quadratic_cofactor(u, q, ctx):
    return u.as_polynomial().divide_exact(q, ctx.var_rank)


def test_anti_laplacian_quadratic_multiple_offcenter(ctx3):
    f = P("x1^2*x2*x3", ctx3)
    u = anti_laplacian(f, QuadraticMultiple((7, 3, 5), (6, 4, 2), F(-8)), ctx3)
    assert (laplacian_of(u, 1, ctx3) - Expr.from_poly(ctx3, f)).is_zero()
    q = P("-8 + 6*x1 + 7*x1^2 + 4*x2 + 3*x2^2 + 2*x3 + 5*x3^2", ctx3)
    cof = _quadratic_cofactor(u, q, ctx3)
    assert cof is not None
    den = 1507708465430520600292500
    expected = {
        (): 447373820559267521408,
        (("x1", 1),): -169551027034920871200,
        (("x2", 1),): -644786494897819357200,
        (("x3", 1),): -998160853689847330560,
        (("x1", 1), ("x2", 1)): 458341693344640942200,
        (("x1", 1), ("x3", 1)): 806274746937510606000,
        (("x1", 2),): 52724035196061138000,
        (("x2", 1), ("x3", 1)): 3172006238006936421000,
        (("x2", 2),): 60139948483932408000,
        (("x3", 2),): 26865198721070892000,
        (("x1", 1), ("x2", 1), ("x3", 1)): -4208313650329240247250,
        (("x1", 2), ("x2", 1)): -422543240577614520000,
        (("x1", 2), ("x3", 1)): -777532413963810960000,
        (("x2", 1), ("x3", 2)): -219307969328878316250,
        (("x2", 2), ("x3", 1)): -601976778299284342500,
        (("x2", 3),): 72016343331465487500,
        (("x3", 3),): 166443532883241705000,
        (("x1", 2), ("x2", 1), ("x3", 1)): 11842617023843893048125,
        (("x2", 1), ("x3", 3)): -772266502919756446875,
        (("x2", 3), ("x3", 1)): -549566395101035983125,
    }
    assert set(cof.terms) == set(expected)
    for mono, num in expected.items():
        assert cof.coefficient(mono).as_fraction() == F(num, den)


def test_anti_laplacian_quadratic_multiple_centered(ctx3):
    f = P("x1^2*x2^5", ctx3)
    u = anti_laplacian(f, QuadraticMultiple((5, 3, 2)), ctx3)
    assert (laplacian_of(u, 1, ctx3) - Expr.from_poly(ctx3, f)).is_zero()
    q = P("-1 + 5*x1^2 + 3*x2^2 + 2*x3^2", ctx3)
    cof = _quadratic_cofactor(u, q, ctx3)
    assert cof is not None
    den = 581833767288446820864
    expected = {
        (("x2", 1),): 2456037114711717,
        (("x1", 2), ("x2", 1)): 11849131274921369,
        (("x1", 4), ("x2", 1)): -99364687683541365,
        (("x1", 6), ("x2", 1)): 161129212822880475,
        (("x2", 3),): 11647115153301463,
        (("x1", 2), ("x2", 3)): 420073918355826754,
        (("x1", 4), ("x2", 3)): -1675238953996349345,
        (("x2", 5),): 6105788388568659,
        (("x1", 2), ("x2", 5)): 3504622438227426081,
        (("x2", 7),): -90937993438762875,
        (("x2", 1), ("x3", 2)): -7493882899438286,
        (("x1", 2), ("x2", 1), ("x3", 2)): -40981933892125428,
        (("x1", 4), ("x2", 1), ("x3", 2)): 159614634738057690,
        (("x2", 3), ("x3", 2)): -37122796442909964,
        (("x1", 2), ("x2", 3), ("x3", 2)): -742042463001143716,
        (("x2", 5), ("x3", 2)): -18666023074849206,
        (("x2", 1), ("x3", 4)): 8515053550851900,
        (("x1", 2), ("x2", 1), ("x3", 4)): 34172978315176644,
        (("x2", 3), ("x3", 4)): 29420004609142012,
        (("x2", 1), ("x3", 6)): -3498085489788648,
    }
    assert set(cof.terms) == set(expected)
    for mono, num in expected.items():
        assert cof.coefficient(mono).as_fraction() == F(num, den)


def test_anti_laplacian_uniqueness_multiple_modes(ctx3):
    # the multiple-mode systems are uniquely solvable: the norm-multiple
    # route is a diagonal rescale and the quadratic route's kernel is empty
    from dense_linalg import nullspace
    from harmcalc.calculus import poly_laplacian
    from harmcalc.expr import monomials

    quad = Quadratic((5, 3, 2))
    q = quad.poly(ctx3)
    monos = monomials(ctx3.coords, range(4))
    rows = {}
    cols = []
    for mono in monos:
        v = Polynomial({mono: Scalar.from_fraction(1)})
        img = poly_laplacian(q * v, ctx3)
        cols.append(img)
    keys = sorted({m for img in cols for m in img.terms})
    matrix = [[img.terms.get(k, Scalar.from_fraction(0)).as_fraction() for img in cols] for k in keys]
    assert nullspace(matrix) == []


# ---------------------------------------------------------------------------
# Neumann


def test_neumann_sphere_fixture(ctx3):
    f = P("x1^6*x2", ctx3)
    sol = neumann(f, None, Sphere(), ctx3)
    fix = E(
        "1/3003*(143*x2 - 91*||x||^2*x2 + 33*||x||^4*x2 - 5*||x||^6*x2"
        " + 455*x1^2*x2 - 462*||x||^2*x1^2*x2 + 135*||x||^4*x1^2*x2"
        " + 693*x1^4*x2 - 495*||x||^2*x1^4*x2 + 429*x1^6*x2)",
        ctx3,
    )
    assert (sol - fix).is_zero()
    assert laplacian_of(sol, 1, ctx3).is_zero()
    assert normal_d_sphere(sol, ctx3) == Expr.from_poly(ctx3, f)
    assert sol.as_polynomial().eval({v: F(0) for v in ctx3.coords}).is_zero()


def test_neumann_degree_one(ctx3):
    sol = neumann(P("x1", ctx3), None, Sphere(), ctx3)
    assert sol == Expr.from_poly(ctx3, P("x1", ctx3))


def test_neumann_solvability(ctx3):
    with pytest.raises(SolvabilityViolation):
        neumann(P("x1^2", ctx3), None, Sphere(), ctx3)


def test_neumann_generalized_sphere(ctx3):
    f = P("x1^3*x2^4*x3^2", ctx3)
    g = P("5*x1^2*x2^3", ctx3)
    sol = neumann(f, g, Sphere(), ctx3)
    assert (laplacian_of(sol, 1, ctx3) - Expr.from_poly(ctx3, g)).is_zero()
    assert normal_d_sphere(sol, ctx3) == Expr.from_poly(
        ctx3, reduce_poly_on_sphere(f, ctx3.coords, 1)
    )
    assert sol.as_polynomial().eval({v: F(0) for v in ctx3.coords}).is_zero()


def test_neumann_quadratic_fixture(ctx3):
    f = P("x1^3*x2*x3^2", ctx3)
    sol = neumann(f, None, Quadratic((5, 3, 2)), ctx3)
    fix = E(
        "1/144767520*(36900*x1*x2 - 20470*x1^3*x2 - 197775*x1^5*x2"
        " - 103410*x1*x2^3 - 21330*x1^3*x2^3 + 84321*x1*x2^5"
        " + 371640*x1*x2*x3^2 + 2041740*x1^3*x2*x3^2 - 779220*x1*x2^3*x3^2"
        " - 631260*x1*x2*x3^4)",
        ctx3,
    )
    assert (sol - fix).is_zero()
    assert laplacian_of(sol, 1, ctx3).is_zero()


def test_neumann_quadratic_offcenter_fixture(ctx3):
    f = P("x1^3*x3", ctx3) - Polynomial.const(F(97, 250))
    sol = neumann(f, None, Quadratic((5, 3, 2), (1, 4, 6), F(-7)), ctx3)
    fix = E(
        "1/14968128000*(-1365215424*x1 + 27518085*x1^2 + 61268550*x1^3"
        " - 53498340*x2 + 178613400*x1*x2 - 40123755*x2^2 + 133960050*x1*x2^2"
        " - 618086615*x3 + 1417403900*x1*x3 - 81779250*x1^2*x3"
        " + 206034500*x1^3*x3 + 27713000*x2*x3 - 245014000*x1*x2*x3"
        " + 20784750*x2^2*x3 - 183760500*x1*x2^2*x3 + 12605670*x3^2"
        " - 317765700*x1*x3^2 + 20331500*x3^3 - 144781000*x1*x3^3)",
        ctx3,
    )
    assert (sol - fix).is_zero()
    assert laplacian_of(sol, 1, ctx3).is_zero()


def test_compatibility_constant(ctx3):
    from harmcalc.integrate import integrate_ellipsoid_area

    ell = Quadratic((5, 3, 2), (1, 4, 6), F(-7))
    num = integrate_ellipsoid_area(P("x1^3*x3", ctx3), ell, ctx3)
    den = integrate_ellipsoid_area(Polynomial.const(1), ell, ctx3)
    assert num / den == Scalar.from_fraction(F(97, 250))


def test_neumann_generalized_quadratic(ctx3):
    f = P("x1^3*x2^2*x3", ctx3)
    g = P("4*x2^3", ctx3)
    sol = neumann(f, g, Quadratic((5, 3, 2)), ctx3)
    assert (laplacian_of(sol, 1, ctx3) - Expr.from_poly(ctx3, g)).is_zero()
    q = P("-1 + 5*x1^2 + 3*x2^2 + 2*x3^2", ctx3)
    h = sol.as_polynomial()
    resid = poly_sum([h.partial(v) * q.partial(v) for v in ctx3.coords]) - f
    cof = resid.divide_exact(q, ctx3.var_rank)
    assert cof is not None
    assert h.eval({v: F(0) for v in ctx3.coords}).is_zero()
    den = 256728866287824
    spots = {
        (("x2", 1),): 73210684472464,
        (("x1", 2), ("x2", 1)): -171324970301520,
        (("x2", 3),): 444567520743360,
        (("x1", 1), ("x3", 1)): -951300824531,
        (("x1", 3), ("x3", 1)): -3744943311564,
        (("x1", 1), ("x2", 2), ("x3", 1)): -16771110037164,
        (("x2", 1), ("x3", 2)): -89070458765904,
        (("x1", 1), ("x3", 3)): 1368225238464,
    }
    for mono, num in spots.items():
        assert cof.coefficient(mono).as_fraction() == F(num, den)


def test_neumann_quadratic_solvability(ctx3):
    with pytest.raises(SolvabilityViolation):
        neumann(P("x1^2", ctx3), None, Quadratic((5, 3, 2)), ctx3)


# ---------------------------------------------------------------------------
# exterior Neumann and the biharmonic problem


def test_exterior_neumann_fixture(ctx5):
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


def test_exterior_neumann_degree_one(ctx3):
    sol = exterior_neumann(P("x1", ctx3), ctx3)
    want = Expr.make(ctx3, P("x1", ctx3).scale(F(1, 2)), [(ctx3.norm_base, -3, 0)])
    assert (sol - want).is_zero()
    assert laplacian_of(sol, 1, ctx3).is_zero()
    assert normal_d_sphere(sol, ctx3) == Expr.from_poly(ctx3, P("-1*x1", ctx3))


def test_exterior_neumann_dim2_mean_zero():
    ctx2 = Context(2)
    with pytest.raises(SolvabilityViolation):
        exterior_neumann(P("x1^2", ctx2), ctx2)
    sol = exterior_neumann(P("x1", ctx2), ctx2)
    assert laplacian_of(sol, 1, ctx2).is_zero()


def test_bi_dirichlet_fixture(ctx3):
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


def test_bi_dirichlet_trivial(ctx3):
    one = Polynomial.const(1)
    assert bi_dirichlet(one, ctx3) == Expr.from_poly(ctx3, one)
    sol = bi_dirichlet(P("x1", ctx3), ctx3)
    want = P("x1", ctx3).scale(F(3, 2)) - ctx3.norm_sq_poly() * P("x1", ctx3).scale(F(1, 2))
    assert sol == Expr.from_poly(ctx3, want)


def test_solver_contracts_random(ctx3):
    rng = random.Random(97)
    for _ in range(8):
        p = random_polynomial(rng, ctx3, max_degree=4, terms=3)
        sol = dirichlet(p, Sphere(), ctx3)
        assert laplacian_of(sol, 1, ctx3).is_zero()
        assert restrict_to_sphere(sol - Expr.from_poly(ctx3, p), ctx3).is_zero()
        bsol = bi_dirichlet(p, ctx3)
        assert laplacian_of(bsol, 2, ctx3).is_zero()
        assert normal_d_sphere(bsol, ctx3).is_zero()
        assert restrict_to_sphere(bsol - Expr.from_poly(ctx3, p), ctx3).is_zero()


def test_region_inputs_are_typed_errors(ctx3):
    with pytest.raises(DimensionMismatch):
        Quadratic((1, 2)).poly(ctx3)
    with pytest.raises(DimensionMismatch):
        Quadratic((1, 2, 3), (1, 0)).poly(ctx3)
    with pytest.raises(UnsupportedInputError):
        Annulus(4, 1)
    with pytest.raises(UnsupportedInputError):
        Annulus(0, 1)


def test_ansatz_columns_equal_the_products_they_replace():
    # the quadric solvers build these columns in one pass over q's terms
    rng = random.Random(2004)
    for dim in (1, 3, 4):
        ctx = Context(dim)
        for trial in range(6):
            b = [F(rng.randrange(-3, 4), rng.randrange(1, 5)) for _ in range(dim)]
            c = [F(rng.randrange(-3, 4), rng.randrange(1, 5)) for _ in range(dim)] if trial % 2 else []
            q = Quadratic(tuple(b), tuple(c), F(rng.randrange(-3, 3), rng.randrange(1, 4))).poly(ctx)
            for mono in monomials(ctx.coords, range(5)):
                v = Polynomial({mono: Scalar.from_fraction(1)})
                assert bvp._laplacian_times(q, mono) == poly_laplacian(q * v, ctx)
                grad_dot = poly_sum([q.partial(x) * v.partial(x) for x in ctx.coords])
                assert bvp._gradient_dot(q, mono) == grad_dot
