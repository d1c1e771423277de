import random
from fractions import Fraction as F

import pytest

import poly_oracle
from conftest import E, P, random_polynomial

from harmcalc import bvp, linalg
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
from harmcalc.calculus import homogeneous_part, laplacian_of, normal_d_sphere, poly_laplacian
from harmcalc.errors import (
    DimensionMismatch,
    EmptyInterior,
    NonPolynomialInput,
    SolvabilityViolation,
    UnsupportedDimension,
    UnsupportedInputError,
    UnsupportedRadialClass,
)
from harmcalc.expr import Context, Expr, reduce_poly_on_sphere, restrict_to_sphere
from harmcalc.harmonic import first_coordinate_series, harmonic_decompose
from harmcalc.integrate import integrate_sphere
from harmcalc.kernels import bergman_projection, poisson_kernel
from harmcalc.linalg import paired_rows, solve_ansatz
from harmcalc.poly import Polynomial, _layout, gradient_weight, laplace_weight, monomials, poly_sum
from harmcalc.scalar import Scalar

# ---------------------------------------------------------------------------
# polynomial inputs

POLYNOMIAL_ONLY = {
    "dirichlet": lambda e, p, c: dirichlet(e, Sphere(), c),
    "dirichlet rhs": lambda e, p, c: dirichlet(p, Sphere(), c, rhs=e),
    "bi_dirichlet": lambda e, p, c: bi_dirichlet(e, c),
    "harmonic_decompose": lambda e, p, c: harmonic_decompose(e, c),
    "bergman_projection": lambda e, p, c: bergman_projection(e, c),
    "homogeneous_part": lambda e, p, c: homogeneous_part(e, 1, c),
}


@pytest.mark.parametrize("name", sorted(POLYNOMIAL_ONLY))
def test_an_expr_is_not_polynomial_input(name, ctx3):
    with pytest.raises(NonPolynomialInput):
        POLYNOMIAL_ONLY[name](E("x1*norm(x)", ctx3), P("x1", ctx3), ctx3)


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


@pytest.fixture
def radial_solve_count(monkeypatch):
    """The number of radial ODE solves since the test began."""
    calls = []
    solve = bvp._radial_ode_solution

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(bvp, "_radial_ode_solution", counted)
    return lambda: len(calls)


def test_anti_laplacian_poly_fast_path(ctx5, radial_solve_count):
    f = P("x1^2*x2^5 + 6*x1^3*x2^2*x3^4", ctx5)
    before = radial_solve_count()
    u = anti_laplacian(f, Plain(), ctx5)
    assert radial_solve_count() == before
    assert (laplacian_of(u, 1, ctx5) - Expr.from_poly(ctx5, f)).is_zero()
    assert u.is_polynomial()


def test_anti_laplacian_radial_log(ctx5, radial_solve_count):
    f = E("x1^2*x2*||x||^3*log(||x||)", ctx5)
    before = radial_solve_count()
    u = anti_laplacian(f, Plain(), ctx5)
    assert radial_solve_count() > before
    assert (laplacian_of(u, 1, ctx5) - f).is_zero()


def test_radial_solve_matches_the_antiderivative_passes():
    # every resonance: a + 2 = 0, a + 2m + n = 0, both (n = 2, m = 0, a = -2),
    # and equal factors (n = 2, m = 0)
    for n in range(2, 7):
        ctx = Context(n)
        for m in range(4):
            for a in range(-2 * m - n - 1, 5):
                for k in range(7):
                    # the oracle's h(r) = r^(a+2) L(log r^2), with log^kk r = (log r^2)^kk / 2^kk
                    terms = poly_oracle.radial_ode_solution(m, a, k, ctx)
                    assert {e for _, e, _ in terms} == {a + 2}
                    by_power = {kk: c * 2**k / 2**kk for c, _, kk in terms}
                    expected = [by_power.get(i, 0) for i in range(max(by_power) + 1)]
                    assert bvp._radial_ode_solution(m, a, k, ctx) == expected


def test_norm_multiple_factor_is_the_radial_solve_at_log_power_0():
    for n in range(1, 7):
        ctx = Context(n)
        for m in range(5):
            for j in range(5):
                assert bvp._radial_ode_solution(m, 2 * j, 0, ctx) == [F(1, (2 * j + 2) * (2 * m + 2 * j + n))]


def test_radial_solve_size_bound():
    # log(||x||^2)^2000 is solved in dimension 3; 2200 would pass the bound,
    # which the anti-Laplacian checks over its whole answer before any solve
    ctx = Context(3)
    assert len(bvp._radial_ode_solution(0, 0, 2000, ctx)) == 2001
    with pytest.raises(UnsupportedInputError, match="the anti-Laplacian would pass 67108864 bits"):
        anti_laplacian(E("log(||x||^2)^2200", ctx), Plain(), ctx)


def test_anti_laplacian_size_bound():
    # the bound covers the whole answer, every Fischer piece times every
    # coefficient of its radial solve: x1^10 has six pieces in dimension 3
    ctx = Context(3)
    with pytest.raises(UnsupportedInputError):
        anti_laplacian(E("x1^10*log(norm(x))^1500", ctx), Plain(), ctx)
    # one piece of one term is bounded as its radial solve is
    assert len(anti_laplacian(E("log(norm(x))^2000", ctx), Plain(), ctx).terms) == 2001


def test_anti_laplacian_refuses_a_base_other_than_the_norm():
    # the Poisson kernel's base is |x - y|^2 stretched, not ||x||^2
    ctx = Context(3, extra=("y1", "y2", "y3"))
    message = "^anti-Laplacian accepts polynomials times norm power-log factors$"
    with pytest.raises(UnsupportedRadialClass, match=message):
        anti_laplacian(poisson_kernel(ctx, ctx.extra), Plain(), ctx)


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
        assert poly_oracle.coefficient(cof, mono).as_fraction() == F(num, den)


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
        assert poly_oracle.coefficient(cof, mono).as_fraction() == F(num, den)


@pytest.mark.parametrize(
    "quad, expected",
    [
        # q = x1: the ansatz for v needs degree deg f + 2 - deg q = 2
        (Quadratic((0, 0), (1, 0), 0), "1/2*x1^2*x2"),
        # q = 3: v is a plain anti-Laplacian of f/3
        (Quadratic((0, 0), (0, 0), 3), "1/6*x2^3"),
    ],
)
def test_anti_laplacian_low_degree_quadric_multiple(quad, expected):
    ctx = Context(2)
    f = P("x2", ctx)
    u = anti_laplacian(f, quad, ctx).as_polynomial()
    assert poly_laplacian(u, ctx) == f
    assert u.divide_exact(quad.poly(ctx), ctx.var_rank) is not None
    assert u == P(expected, ctx)


def test_anti_laplacian_zero_quadric_multiple_is_typed():
    ctx = Context(2)
    with pytest.raises(UnsupportedInputError):
        anti_laplacian(P("x2", ctx), Quadratic((0, 0), (0, 0), 0), ctx)


def test_an_unknown_region_is_typed(ctx3):
    with pytest.raises(UnsupportedInputError, match="^unknown region 'torus'$"):
        dirichlet(P("x1", ctx3), "torus", ctx3)


def test_an_unknown_anti_laplacian_mode_is_typed(ctx3):
    with pytest.raises(UnsupportedInputError, match="^unknown anti-Laplacian mode 'torus'$"):
        anti_laplacian(P("x1", ctx3), "torus", ctx3)


def test_anti_laplacian_uniqueness_multiple_modes(ctx3):
    # the multiple-mode systems are uniquely solvable: the norm-multiple
    # route is a diagonal rescale and the quadratic route's kernel is empty
    from dense_linalg import nullspace
    from harmcalc.calculus import poly_laplacian

    quad = Quadratic((5, 3, 2))
    q = quad.poly(ctx3)
    monos = poly_oracle.monomials(ctx3.coords, range(4))
    rows = {}
    cols = []
    for mono in monos:
        v = Polynomial({mono: Scalar.from_fraction(1)})
        img = poly_laplacian(q * v, ctx3)
        cols.append(img)
    keys = sorted({m for img in cols for m in img.terms})
    matrix = [[img.terms.get(k, Scalar.from_fraction(0)).as_fraction() for img in cols] for k in keys]
    assert nullspace(matrix) == []


def test_a_quadric_multiple_off_an_ellipsoid_is_the_canonical_one():
    # q = x1^2 - x2^2: Delta(q x1 x2) = 0, so q x1 and q (x1 + x1 x2) both
    # have Laplacian 4 x1; the answer is q x1, v of the lowest degree
    ctx2 = Context(2)
    q = P("x1^2 - x2^2", ctx2)
    assert poly_laplacian(q * P("x1*x2", ctx2), ctx2).is_zero()
    assert poly_laplacian(q * P("x1 + x1*x2", ctx2), ctx2) == P("4*x1", ctx2)
    sol = anti_laplacian(P("4*x1", ctx2), Quadratic((1, -1), (0, 0), 0), ctx2)
    assert sol == Expr.from_poly(ctx2, q * P("x1", ctx2))


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
    # the degree-0 harmonic part of the data is its mean over the sphere
    for data in ("x1^2", "x1^2*x2^2 - 1/16", "x1^2*x2^2 - 1/15 + 1"):
        message = "^the integral of the data over the sphere must vanish$"
        with pytest.raises(SolvabilityViolation, match=message):
            neumann(P(data, ctx3), None, Sphere(), ctx3)
    for data in ("x1^2 - x2^2", "x1^2*x2^2 - 1/15"):
        f = P(data, ctx3)
        sol = neumann(f, None, Sphere(), ctx3)
        on_sphere = reduce_poly_on_sphere(f, ctx3.coords, 1)
        assert normal_d_sphere(sol, ctx3) == Expr.from_poly(ctx3, on_sphere)


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
        assert poly_oracle.coefficient(cof, mono).as_fraction() == F(num, den)


def test_neumann_quadratic_solvability(ctx3):
    with pytest.raises(SolvabilityViolation):
        neumann(P("x1^2", ctx3), None, Quadratic((5, 3, 2)), ctx3)


def _compatible_ellipsoid_problems(dim):
    """(ctx, region, f, g) for random ellipsoids at data degrees 1-5: a
    standard (g None) and a generalized problem each, with f shifted by
    the constant that makes its surface integral match the volume
    integral of g (zero for the standard problem)."""
    from harmcalc.integrate import integrate_ellipsoid_area, integrate_ellipsoid_volume

    ctx = Context(dim)
    rng = random.Random(3000 + dim)
    for deg in range(1, 6):
        b = tuple(F(rng.randrange(1, 6), rng.randrange(1, 3)) for _ in range(dim))
        c = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(dim))
        region = Quadratic(b, c, F(-rng.randrange(1, 4)))
        one = integrate_ellipsoid_area(Polynomial.const(1), region, ctx)
        p = random_polynomial(rng, ctx, max_degree=deg - 1, terms=3) + Polynomial.var(rng.choice(ctx.coords), deg)
        for g in (None, random_polynomial(rng, ctx, max_degree=max(deg - 2, 0), terms=2)):
            target = integrate_ellipsoid_volume(g, region, ctx) if g is not None else Scalar.from_fraction(0)
            shift = (target - integrate_ellipsoid_area(p, region, ctx)) / one
            assert shift.is_rational()
            yield ctx, region, p + shift, g


def _counted_solves(monkeypatch):
    """The row counts of the `linalg.solve` calls made from now on."""
    solve, calls = linalg.solve, []

    def counted(rows, cols):
        calls.append(len(rows))
        sol = solve(rows, cols)
        # a negative pivot must not leave the common denominator negative
        assert sol is None or sol[0] > 0
        return sol

    monkeypatch.setattr(linalg, "solve", counted)
    return calls


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_neumann_on_random_ellipsoids_solves_once(dim, monkeypatch):
    # on an ellipsoid the data's own degree always suffices: one linear
    # solve per problem, standard or generalized, and exact contracts
    calls = _counted_solves(monkeypatch)
    for ctx, region, f, g in _compatible_ellipsoid_problems(dim):
        q = region.poly(ctx)
        del calls[:]
        u = neumann(f, g, region, ctx).as_polynomial()
        assert len(calls) == 1, (dim, g)
        assert poly_laplacian(u, ctx) == (g if g is not None else Polynomial())
        assert u.constant_term().is_zero()
        resid = poly_sum([u.partial(v) * q.partial(v) for v in ctx.coords]) - f
        assert resid.divide_exact(q, ctx.var_rank) is not None


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_neumann_cofactor_of_degree_m_minus_1_is_never_used(dim):
    # grad q . grad h - f has degree at most m = deg f, so its cofactor
    # by q has degree at most m - 2: the ansatz with a degree m - 1
    # cofactor as well gives the same answers and the same refusals
    for ctx, region, f, g in _compatible_ellipsoid_problems(dim):
        q = region.poly(ctx)
        if g is not None:
            f = f - q.gradient_dot(first_coordinate_series(g, ctx), ctx.coords)
        for data in (f, f + Polynomial.const(1), Polynomial(), Polynomial.const(2), Polynomial.var("x1")):
            deg = data.total_degree()
            h = (range(1, deg + 1), [(0, Polynomial.const(1), laplace_weight), (1, q, gradient_weight)])
            wide = solve_ansatz([h, (range(max(deg, 1)), [(1, -q, None)])], [Polynomial(), data], ctx.coords)
            try:
                got = bvp._neumann_quadratic_standard(data, q, ctx).as_polynomial()
            except SolvabilityViolation:
                got = None
            assert got == (wide and wide[0]), (dim, data)


SPHERE_REFUSAL = "^the integral of the data over the sphere must vanish$"
QUADRIC_REFUSAL = "^the surface integral of the data must vanish$"
GENERALIZED_REFUSAL = "^boundary and volume integrals disagree; no solution exists$"


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_neumann_solve_alone_refuses_shifted_data(dim, monkeypatch):
    # the standard solve is the only solvability test: compatible data
    # shifted by a nonzero constant is refused by that one linear solve
    calls = _counted_solves(monkeypatch)
    for ctx, region, f, g in _compatible_ellipsoid_problems(dim):
        for shift in (F(1), F(-2, 7)):
            del calls[:]
            with pytest.raises(SolvabilityViolation, match=GENERALIZED_REFUSAL if g is not None else QUADRIC_REFUSAL):
                neumann(f + Polynomial.const(shift), g, region, ctx)
            assert len(calls) == 1, (dim, g, shift)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_neumann_sphere_refuses_shifted_data(dim):
    # compatible data: p less its mean over the sphere, and x . grad u with
    # the Laplacian of u for a random polynomial u, which u itself solves
    ctx = Context(dim)
    rng = random.Random(4000 + dim)
    half_norm_sq = ctx.norm_sq_poly().scale(F(1, 2))
    for deg in range(1, 6):
        p = random_polynomial(rng, ctx, max_degree=deg, terms=4)
        u = random_polynomial(rng, ctx, max_degree=deg, terms=4)
        standard = (p - Polynomial.const(integrate_sphere(p, ctx)), None, SPHERE_REFUSAL)
        generalized = (half_norm_sq.gradient_dot(u, ctx.coords), poly_laplacian(u, ctx), GENERALIZED_REFUSAL)
        for f, g, refusal in (standard, generalized):
            sol = neumann(f, g, Sphere(), ctx).as_polynomial()
            assert poly_laplacian(sol, ctx) == (g if g is not None else Polynomial())
            for shift in (F(1), F(-2, 7)):
                with pytest.raises(SolvabilityViolation, match=refusal):
                    neumann(f + Polynomial.const(shift), g, Sphere(), ctx)


def test_neumann_data_outside_the_coordinates():
    # on a quadric such data is refused before any solve (it was refused as
    # InfeasibleSystem though a*x1 is compatible); on the sphere it solves,
    # the generalized problem too when its integrals agree as polynomials in a
    ctx = Context(3, extra=("a",))
    region = Quadratic((1, 2, 3))
    for f, g in (("a*x1", None), ("x1", "a"), ("a*x1", "x1")):
        with pytest.raises(UnsupportedInputError, match="^Neumann data on a quadric must be a polynomial in the coordinates$"):
            neumann(P(f, ctx), g and P(g, ctx), region, ctx)
    assert neumann(P("a*x1", ctx), None, Sphere(), ctx) == E("a*x1", ctx)
    assert neumann(P("a*x1^2", ctx), P("a", ctx), Sphere(), ctx) == E("1/2*a*x1^2", ctx)
    with pytest.raises(SolvabilityViolation, match=GENERALIZED_REFUSAL):
        neumann(P("a*x1^2", ctx), P("1", ctx), Sphere(), ctx)


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
    # a constant quadric, zero or not, bounds no region
    for d in (0, 3):
        with pytest.raises(UnsupportedInputError):
            dirichlet(P("x1^2", ctx3), Quadratic((0, 0, 0), (), d), ctx3)


def test_quadric_dirichlet_needs_a_surface_of_more_than_one_point():
    ctx2 = Context(2)
    p = P("x1^3 - x1*x2", ctx2)
    # q > 0 everywhere, q = 0 at the origin only, q < 0 everywhere, and
    # q = 0 at (-1, 0) only
    for b, c, d in (((1, 1), (), 1), ((1, 1), (), 0), ((-1, -1), (), -1), ((2, 3), (4, 0), 2)):
        with pytest.raises(EmptyInterior):
            dirichlet(p, Quadratic(b, c, d), ctx2)
    # the outside of the unit circle has the unit circle's answer
    assert dirichlet(p, Quadratic((-1, -1), (), 1), ctx2) == dirichlet(p, Sphere(), ctx2)
    # an ellipse about (-1, 0), and a hyperbola whatever d is
    for b, c, d in (((2, 3), (4, 0), 1), ((1, -1), (), 1), ((1, -1), (), -1)):
        region = Quadratic(b, c, d)
        u = dirichlet(p, region, ctx2).as_polynomial()
        assert poly_laplacian(u, ctx2).is_zero()
        assert (u - p).divide_exact(region.poly(ctx2), ctx2.var_rank) is not None


def test_quadric_dirichlet_with_a_free_variable():
    ctx2 = Context(2)
    p = P("x1^3 - x1*x2", ctx2)
    # x2 is free: q = x1^2 + 1 > 0 and q = -x1^2 - 1 < 0 everywhere
    for b, d in (((1, 0), 1), ((-1, 0), -1)):
        with pytest.raises(EmptyInterior):
            dirichlet(p, Quadratic(b, (), d), ctx2)
    # the line x1 = 0, the lines x1 = +-1 and the parabola x1^2 + x2 + 1 = 0
    for b, c, d in (((1, 0), (), 0), ((1, 0), (), -1), ((1, 0), (0, 1), 1)):
        region = Quadratic(b, c, d)
        u = dirichlet(p, region, ctx2).as_polynomial()
        assert poly_laplacian(u, ctx2).is_zero()
        assert (u - p).divide_exact(region.poly(ctx2), ctx2.var_rank) is not None


def test_ansatz_columns_equal_the_products_they_replace():
    # the quadric solvers write these columns in one pass over q's terms;
    # with the product as the right side, every row reads n = rhs: made
    # primitive, it is 1 = 1 or -1 = -1 by the sign of the product's
    # coefficient, one row per term of the product
    rng = random.Random(2004)
    for dim in (1, 3, 4):
        ctx = Context(dim)
        # fields of 8 bits hold the images' degrees, at most 6
        lay = _layout(tuple(sorted(ctx.coords)))
        for trial in range(6):
            b = [F(rng.randrange(-3, 4), rng.randrange(1, 5)) for _ in range(dim)]
            c = [F(rng.randrange(-3, 4), rng.randrange(1, 5)) for _ in range(dim)] if trial % 2 else []
            q = Quadratic(tuple(b), tuple(c), F(rng.randrange(-3, 3), rng.randrange(1, 4))).poly(ctx)
            for ka in monomials(lay, ctx.coords, range(5)):
                v = Polynomial({lay.unpack(ka): Scalar.from_fraction(1)})
                grad_dot = poly_sum([q.partial(x) * v.partial(x) for x in ctx.coords])
                for weight, product in (
                    (laplace_weight, poly_laplacian(q * v, ctx)),
                    (gradient_weight, grad_dot),
                    (None, q * v),
                ):
                    rows, cols = paired_rows(lay, [([ka], [(0, q, weight)])], [product], ctx.coords)
                    assert cols == 1
                    assert all(set(row) == {0, 1} and row[0] == row[1] for row in rows)
                    want = [1 if coeff.as_fraction() > 0 else -1 for coeff in product.terms.values()]
                    assert sorted(row[0] for row in rows) == sorted(want)


def test_ansatz_rows_scale_each_constraint_and_keep_unreached_right_sides():
    ctx2 = Context(2)
    lay = _layout(ctx2.coords)
    x1 = Polynomial.var("x1")
    # x1/2 * 1 + 1/3 * x1 = 5/7 x1, scaled by the lcm 42 of its
    # denominators, right side included, and 1/5 * 1 = 2, scaled by 5;
    # the right sides sit at column 2, past the two unknowns
    fifth = Polynomial.const(F(1, 5))
    unknowns = [
        ([0], [(0, x1.scale(F(1, 2)), None), (1, fifth, None)]),
        ([lay.unit["x1"]], [(0, Polynomial.const(F(1, 3)), None)]),
    ]
    constants = [x1.scale(F(5, 7)), Polynomial.const(2)]
    assert paired_rows(lay, unknowns, constants, ctx2.coords) == ([{0: 21, 1: 14, 2: 30}, {0: 1, 2: 10}], 2)
    # the Laplacian of c x1^2 is 2c: it reaches the constant 4, and no column reaches x2
    unknowns = [([2 * lay.unit["x1"]], [(0, Polynomial.const(1), laplace_weight)])]
    assert linalg.solve(*paired_rows(lay, unknowns, [Polynomial.const(4)], ctx2.coords)) == (1, [2])
    rows, cols = paired_rows(lay, unknowns, [Polynomial.const(4) + Polynomial.var("x2")], ctx2.coords)
    assert sorted(rows, key=len) == [{1: 1}, {0: 1, 1: 2}] and cols == 1
    assert linalg.solve(rows, cols) is None


def test_solve_ansatz_returns_every_group(ctx3):
    # the Neumann ansatz of the off-centre fixture: h and its cofactor,
    # each one rational block, meet both constraints exactly
    q = Quadratic((5, 3, 2), (1, 4, 6), F(-7)).poly(ctx3)
    f = P("x1^3*x3", ctx3) - Polynomial.const(F(97, 250))
    h_group = (range(1, 5), [(0, Polynomial.const(1), laplace_weight), (1, q, gradient_weight)])
    cofactor_group = (range(4), [(1, -q, None)])
    h, cofactor = solve_ansatz([h_group, cofactor_group], [Polynomial(), f], ctx3.coords)
    assert h == neumann(f, None, Quadratic((5, 3, 2), (1, 4, 6), F(-7)), ctx3).as_polynomial()
    assert poly_laplacian(h, ctx3).is_zero()
    assert h.gradient_dot(q, ctx3.coords) - q * cofactor == f
    assert not cofactor.is_zero()
    assert all(len(p.blocks) == 1 for p in (h, cofactor))
    assert all(den > 0 for p in (h, cofactor) for den, _ in p.blocks.values())
    # without the cofactor, grad q . grad h = f has no harmonic solution
    assert solve_ansatz([h_group], [Polynomial(), f], ctx3.coords) is None


def test_dirichlet_without_a_context_is_a_typed_error():
    with pytest.raises(UnsupportedInputError, match="^a context is required$"):
        dirichlet(Polynomial.var("x1"))


def test_neumann_without_a_context_is_a_typed_error():
    with pytest.raises(UnsupportedInputError, match="^a context is required$"):
        neumann(Polynomial.var("x1"))
