import random
from fractions import Fraction as F

import pytest

from conftest import P, random_polynomial

from harmcalc.calculus import laplacian_of
from harmcalc.errors import DimensionMismatch
from harmcalc.expr import Context, Expr, eval_expr, make_context, reduce_poly_on_sphere
from harmcalc.harmonic import ball_inner_product, basis_harmonic, zonal_coefficients, zonal_harmonic
from harmcalc.integrate import RadialFunction, integrate_ball, unit_ball_volume
from harmcalc.kernels import (
    bergman_kernel,
    bergman_kernel_h,
    bergman_projection,
    half_space_base,
    poisson_base,
    poisson_kernel,
    poisson_kernel_h,
)
from harmcalc.poly import Polynomial, poly_sum
from harmcalc.scalar import Scalar


def _ynames(n, label="y"):
    return tuple("%s%d" % (label, i + 1) for i in range(n))


def test_poisson_kernel_shape():
    ctx = make_context(3, extra_vecs=("y",))
    y = _ynames(3)
    k = poisson_kernel(ctx, y)
    numer = Polynomial.const(1) - ctx.norm_sq_poly() * ctx.norm_sq_poly(y)
    base = poisson_base(ctx, y)
    want = Expr.from_poly(ctx, numer) * Expr.base_power(ctx, base, -3)
    assert (k - want).is_zero()


SHORT_SECOND_POINT_CALLS = {
    "poisson_kernel": lambda ctx: poisson_kernel(ctx, ("y1", "y2")),
    "bergman_kernel": lambda ctx: bergman_kernel(ctx, ("y1", "y2")),
    "zonal_harmonic": lambda ctx: zonal_harmonic(2, ctx, ("y1", "y2")),
    "poisson_kernel_h": lambda ctx: poisson_kernel_h(ctx, ("t1",), "u"),
    "bergman_kernel_h": lambda ctx: bergman_kernel_h(ctx, ("t1",), "u"),
}


@pytest.mark.parametrize("name", sorted(SHORT_SECOND_POINT_CALLS))
def test_a_second_point_of_the_wrong_length_is_refused(name):
    # y1, y2 (or t1) in dimension 3: no kernel of a point padded with zeros
    ctx = Context(3, extra=("y1", "y2", "t1", "u"))
    with pytest.raises(DimensionMismatch):
        SHORT_SECOND_POINT_CALLS[name](ctx)


def test_poisson_kernel_at_origin():
    ctx = make_context(4, extra_vecs=("y",))
    k = poisson_kernel(ctx, _ynames(4), on_boundary=True)
    point = {v: F(0) for v in ctx.coords}
    point.update({v: F(1) if v == "y1" else F(0) for v in ctx.extra})
    assert eval_expr(k, point, ctx) == Scalar.from_fraction(1)


@pytest.mark.parametrize("n", [3, 5])
def test_poisson_kernel_harmonicity(n):
    ctx = make_context(n, extra_vecs=("y",))
    k = poisson_kernel(ctx, _ynames(n))
    assert laplacian_of(k, 1, ctx).is_zero()


@pytest.mark.parametrize("n", [3, 5])
def test_poisson_kernel_boundary_harmonicity(n):
    # with the second argument pinned to the sphere, the Laplacian vanishes
    # modulo ||zeta||^2 = 1
    ctx = make_context(n, extra_vecs=("y",))
    y = _ynames(n)
    k = poisson_kernel(ctx, y, on_boundary=True)
    lap = laplacian_of(k, 1, ctx)
    reduced = Expr._from_raw(
        ctx, [(reduce_poly_on_sphere(p, y, 1), fac) for p, fac in lap.terms]
    )
    assert reduced.is_zero()


def test_poisson_kernel_h_split_form():
    n = 6
    ctx = Context(
        n,
        coords=tuple("x%d" % (i + 1) for i in range(n - 1)) + ("y",),
        extra=tuple("t%d" % (i + 1) for i in range(n - 1)) + ("u",),
    )
    k = poisson_kernel_h(ctx, ctx.extra[:-1], "u")
    numer = (Polynomial.var("u") + Polynomial.var("y")).scale(2)
    base = half_space_base(ctx, ctx.extra[:-1], "u")
    nv = Scalar.from_fraction(n) * unit_ball_volume(n)
    want = (Expr.from_poly(ctx, numer) * Expr.base_power(ctx, base, -n)).scale(
        nv.inverse()
    )
    assert (k - want).is_zero()


def test_poisson_kernel_h_boundary_dim5():
    # whole-vector form with the last coordinate of the second point at 0:
    # 3 z5 / (4 pi^2 (||z||^2 - 2 w.z + ||w||^2)^(5/2)) with w5 = 0
    ctx = Context(
        5, coords=tuple("z%d" % (i + 1) for i in range(5)),
        extra=tuple("w%d" % (i + 1) for i in range(5)),
    )
    k = poisson_kernel_h(ctx, ctx.extra[:-1], "w5")
    # substitute w5 = 0
    raw = []
    for poly, fac in k.terms:
        p0 = poly.substitute("w5", F(0))
        for b, h, j in fac:
            bp = ctx.base_poly(b).substitute("w5", F(0))
            e = Expr.base_power(ctx, bp, h, j)
            ((bp2, f2),) = e.terms
            p0 = p0 * bp2
            raw.append((p0, f2))
    got = Expr._from_raw(ctx, raw)
    base = poly_sum(
        [(Polynomial.var("z%d" % i) - Polynomial.var("w%d" % i)) ** 2 for i in range(1, 5)]
    ) + Polynomial.var("z5", 2)
    want = Expr.from_poly(ctx, Polynomial.var("z5").scale(3)).scale(
        (Scalar.from_fraction(4) * Scalar.pi_power(4)).inverse()
    ) * Expr.base_power(ctx, base, -5)
    assert (got - want).is_zero()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_poisson_kernel_h_harmonicity(n):
    ctx = Context(
        n,
        coords=tuple("x%d" % (i + 1) for i in range(n - 1)) + ("y",),
        extra=tuple("t%d" % (i + 1) for i in range(n - 1)) + ("u",),
    )
    k = poisson_kernel_h(ctx, ctx.extra[:-1], "u")
    assert laplacian_of(k, 1, ctx).is_zero()


def test_bergman_kernel_dim10_fixture():
    ctx = make_context(10, extra_vecs=("y",))
    y = _ynames(10)
    k = bergman_kernel(ctx, y)
    dot = poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(ctx.coords, y)])
    w = ctx.norm_sq_poly() * ctx.norm_sq_poly(y)
    numer = (
        Polynomial.const(10) + w * (dot.scale(8) - Polynomial.const(24)) + (w * w).scale(6)
    ).scale(12)
    base = Polynomial.const(1) - dot.scale(2) + w
    want = Expr.from_poly(ctx, numer).scale(Scalar.pi_power(-10)) * Expr.base_power(
        ctx, base, -12
    )
    assert (k - want).is_zero()


def test_bergman_kernel_at_origin():
    ctx = make_context(4, extra_vecs=("y",))
    k = bergman_kernel(ctx, _ynames(4))
    point = {v: F(0) for v in ctx.coords}
    point.update({v: F(0) for v in ctx.extra})
    assert eval_expr(k, point, ctx) == unit_ball_volume(4).inverse()


@pytest.mark.parametrize("n", [3, 5])
def test_bergman_kernel_harmonicity(n):
    ctx = make_context(n, extra_vecs=("y",))
    k = bergman_kernel(ctx, _ynames(n))
    assert laplacian_of(k, 1, ctx).is_zero()


# above the dims 3-5 that the benchmark's kernel checks run in
@pytest.mark.parametrize("n", range(6, 10))
@pytest.mark.parametrize("kernel", [poisson_kernel, bergman_kernel])
def test_ball_kernels_are_harmonic_in_higher_dims(kernel, n):
    ctx = make_context(n, extra_vecs=("y",))
    assert laplacian_of(kernel(ctx, _ynames(n)), 1, ctx).is_zero()


@pytest.mark.parametrize("n", [3, 5])
def test_bergman_kernel_series_consistency(n, cutoff=6):
    """Closed form against the zonal expansion, in the invariant ring.

    Working with u = x.y and w = ||x||^2 ||y||^2 (whose monomials are
    linearly independent as polynomials for n >= 2), expand the closed
    form's reciprocal base as a binomial series and compare against
    sum_m (n + 2m) Z_m through bidegree `cutoff`.
    """
    s = F(n + 2, 2)

    def mul(a, b):
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                i, j = i1 + i2, j1 + j2
                if i + 2 * j > cutoff:
                    continue
                out[(i, j)] = out.get((i, j), F(0)) + c1 * c2
        return {k: v for k, v in out.items() if v}

    E2 = {(1, 0): F(2), (0, 1): F(-1)}
    inv = {(0, 0): F(1)}
    Ek = {(0, 0): F(1)}
    coef = F(1)
    for k in range(1, cutoff + 1):
        Ek = mul(Ek, E2)
        coef = coef * (s + k - 1) / k
        for key, v in Ek.items():
            inv[key] = inv.get(key, F(0)) + coef * v
    numer = {(0, 0): F(n), (1, 1): F(8), (0, 1): F(-2 * n - 4), (0, 2): F(n - 4)}
    lhs = mul(numer, inv)
    rhs = {}
    for m in range(cutoff + 1):
        for k, c in enumerate(zonal_coefficients(m, n)):
            i, j = m - 2 * k, k
            if i + 2 * j <= cutoff:
                rhs[(i, j)] = rhs.get((i, j), F(0)) + (n + 2 * m) * c
    for key in set(lhs) | set(rhs):
        assert lhs.get(key, F(0)) == rhs.get(key, F(0))


def test_bergman_kernel_h_dim10_fixture():
    ctx = Context(
        10,
        coords=tuple("z%d" % (i + 1) for i in range(10)),
        extra=tuple("w%d" % (i + 1) for i in range(10)),
    )
    k = bergman_kernel_h(ctx, ctx.extra[:-1], "w10")
    zn, wn = ctx.coords, ctx.extra
    dot = poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(zn, wn)])
    numer = (
        dot.scale(2)
        - ctx.norm_sq_poly(wn)
        - ctx.norm_sq_poly()
        + (Polynomial.var("w10") * Polynomial.var("z10")).scale(16)
        + (Polynomial.var("w10", 2) + Polynomial.var("z10", 2)).scale(10)
    ).scale(48)
    Q = (
        ctx.norm_sq_poly()
        + ctx.norm_sq_poly(wn)
        - dot.scale(2)
        + (Polynomial.var("w10") * Polynomial.var("z10")).scale(4)
    )
    want = Expr.from_poly(ctx, numer).scale(Scalar.pi_power(-10)) * Expr.base_power(
        ctx, Q, -12
    )
    assert (k - want).is_zero()


def test_bergman_kernel_h_split_form():
    n = 6
    ctx = Context(
        n,
        coords=tuple("x%d" % (i + 1) for i in range(n - 1)) + ("y",),
        extra=tuple("t%d" % (i + 1) for i in range(n - 1)) + ("u",),
    )
    k = bergman_kernel_h(ctx, ctx.extra[:-1], "u")
    uy = Polynomial.var("u") + Polynomial.var("y")
    diff2 = poly_sum(
        [
            (Polynomial.var("x%d" % i) - Polynomial.var("t%d" % i)) ** 2
            for i in range(1, n)
        ]
    )
    numer = ((uy * uy).scale(n - 1) - diff2).scale(4)
    base = half_space_base(ctx, ctx.extra[:-1], "u")
    nv = Scalar.from_fraction(n) * unit_ball_volume(n)
    want = (Expr.from_poly(ctx, numer) * Expr.base_power(ctx, base, -(n + 2))).scale(
        nv.inverse()
    )
    assert (k - want).is_zero()
    # swapping the two points leaves the kernel invariant
    swap = dict(zip(ctx.coords + ctx.extra, ctx.extra + ctx.coords))
    raw = []
    for poly, fac in k.terms:
        p2 = Polynomial(
            {tuple(sorted((swap[v], e) for v, e in m)): c for m, c in poly.terms.items()}
        )
        for b, h, j in fac:
            bp = ctx.base_poly(b)
            bp2 = Polynomial(
                {tuple(sorted((swap[v], e) for v, e in m)): c for m, c in bp.terms.items()}
            )
            e2 = Expr.base_power(ctx, bp2, h, j)
            ((pp, ff),) = e2.terms
            p2 = p2 * pp
            raw.append((p2, ff))
    swapped = Expr._from_raw(ctx, raw)
    assert (swapped - k).is_zero()


@pytest.mark.parametrize("n", [3, 4])
def test_bergman_kernel_h_harmonicity(n):
    ctx = Context(
        n,
        coords=tuple("x%d" % (i + 1) for i in range(n - 1)) + ("y",),
        extra=tuple("t%d" % (i + 1) for i in range(n - 1)) + ("u",),
    )
    k = bergman_kernel_h(ctx, ctx.extra[:-1], "u")
    assert laplacian_of(k, 1, ctx).is_zero()


def test_bergman_projection_fixture(ctx5):
    proj = bergman_projection(P("x1^5*x2^3", ctx5), ctx5)
    from conftest import E

    fix = E(
        "3/143*x1*x2 - 3/221*||x||^6*x1*x2 + 2/17*||x||^4*x1^3*x2"
        " - 3/17*||x||^2*x1^5*x2 + 1/17*||x||^4*x1*x2^3 - 10/17*||x||^2*x1^3*x2^3"
        " + x1^5*x2^3 + 1/17*(-1*||x||^2*x1*x2 + 2*x1^3*x2 + x1*x2^3)"
        " + 1/2717*(135*||x||^4*x1*x2 - 660*||x||^2*x1^3*x2 + 429*x1^5*x2"
        " - 330*||x||^2*x1*x2^3 + 1430*x1^3*x2^3)",
        ctx5,
    )
    assert Expr.from_poly(ctx5, proj) == fix


def test_bergman_projection_fixes_harmonics(ctx3):
    for h in basis_harmonic(3, ctx3):
        assert bergman_projection(h, ctx3) == h


def test_bergman_projection_gram_solve_oracle(ctx3):
    """Independent oracle: least-squares against the plain harmonic basis.

    The projection of u onto the harmonics of degree at most deg u solves
    the Gram system <u - proj, h> = 0 over every basis element h; the
    system is assembled and solved directly with ball inner products.
    """
    import dense_linalg

    rng = random.Random(101)
    ip = ball_inner_product()
    for _ in range(3):
        u = random_polynomial(rng, ctx3, max_degree=4, terms=3)
        basis = []
        for m in range(u.total_degree() + 1):
            basis.extend(basis_harmonic(m, ctx3))
        gram = [[ip(a, b, ctx3) for b in basis] for a in basis]
        rhs = [ip(u, b, ctx3) for b in basis]
        # scalars here are rational multiples of pi^2 (the ball volume);
        # divide the pi content away to get a rational system
        pi2 = Scalar.pi_power(2)
        rows = [[(x / pi2).as_fraction() for x in row] for row in gram]
        vec = [(x / pi2).as_fraction() for x in rhs]
        sol = dense_linalg.solve(rows, vec)
        assert sol is not None
        oracle = Polynomial()
        for c, b in zip(sol, basis):
            oracle = oracle + b.scale(c)
        assert bergman_projection(u, ctx3) == oracle


@pytest.mark.parametrize("n", [3, 5])
def test_bergman_projection_idempotent(n):
    ctx = Context(n)
    rng = random.Random(200 + n)
    for _ in range(15):
        u = random_polynomial(rng, ctx, max_degree=5, terms=4)
        once = bergman_projection(u, ctx)
        assert bergman_projection(once, ctx) == once


@pytest.mark.parametrize("n", [3, 5])
def test_bergman_projection_orthogonality_residual(n):
    ctx = Context(n)
    rng = random.Random(300 + n)
    ip = ball_inner_product()
    u = random_polynomial(rng, ctx, max_degree=4, terms=3)
    resid = u - bergman_projection(u, ctx)
    for m in range(u.total_degree() + 1):
        for h in basis_harmonic(m, ctx):
            v = ip(resid, h, ctx)
            assert isinstance(v, Scalar) and v.is_zero()


def test_bergman_reproduces_linear_via_series(ctx3):
    """Truncated zonal-series form of the kernel reproduces x1 on H_1."""
    # integrate over the second block: context with coords y and x passing
    ctx = Context(3, coords=("y1", "y2", "y3"), extra=("x1", "x2", "x3"))
    n = 3
    acc = Polynomial()
    from harmcalc.harmonic import zonal_harmonic

    for m in range(0, 4):
        zm = zonal_harmonic(m, ctx, ("x1", "x2", "x3"))
        coef = Scalar.from_fraction(n + 2 * m) * (
            Scalar.from_fraction(n) * unit_ball_volume(n)
        ).inverse()
        integrand = zm * Polynomial.var("y1")
        val = integrate_ball(integrand, RadialFunction.one(), ctx)
        if isinstance(val, Scalar):
            val = Polynomial.const(val)
        acc = acc + val.scale(coef)
    assert acc == Polynomial.var("x1")
