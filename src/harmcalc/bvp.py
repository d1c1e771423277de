"""Boundary-value solvers on balls, annuli, sphere exteriors and quadrics.

Dirichlet (four regions, with an optional prescribed Laplacian),
anti-Laplacians (plain, norm-squared multiple, quadratic multiple),
Neumann problems (sphere and quadratic surfaces, standard and
generalized), the exterior Neumann problem, and the clamped-plate style
biharmonic Dirichlet problem.

Every solver here that splits its data reads the Fischer pieces
p = sum ||x||^(2j) h_(m,j) through `harmonic.fischer_sums`: the ball
Dirichlet solution as their one sum, the others by degree m
(`harmonic_parts_by_degree`) or piece by piece (`fischer_parts`).  Every
anti-Laplacian of polynomial data (the plain mode, the particular
solution of a Dirichlet problem with a prescribed Laplacian, and that of
the generalized Neumann problem) is `harmonic.first_coordinate_series`.

One quadric type, `integrate.Quadratic(b, c, d)` for b.x^2 + c.x + d,
serves as the Dirichlet region (any signs whose surface q = 0 has more
than one point), the Neumann region (an ellipsoid) and the
quadric-multiple mode of `anti_laplacian`.  Their ansatz solves only
name the unknown polynomials (by degrees) and the maps that take them to
the data; `linalg.solve_ansatz` enumerates, writes and solves the linear
system and returns the polynomials.  The Neumann cofactor goes up to
degree m - 2 for data of degree m: no other unknown can meet the data.

The exterior halves are Kelvin transforms (`transforms.kelvin`, which
takes a harmonic h_m of degree m to h_m ||x||^(2-n-2m)) of interior sums,
and one reduction (`_generalized_neumann`) takes the generalized Neumann
problem to the standard one on the sphere and on an ellipsoid.  No Neumann
path integrates its data: each standard solve has a solution exactly when
the data is compatible, and refuses it otherwise.

Every solver's defining contracts (vanishing Laplacian or prescribed one,
boundary match, origin normalization, normal-derivative match) hold as
exact canonical identities; the test suite asserts them directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .calculus import poly_laplacian
from .errors import (
    EmptyInterior,
    InfeasibleSystem,
    SolvabilityViolation,
    UnsupportedDimension,
    UnsupportedInputError,
    UnsupportedRadialClass,
)
from .expr import Expr, context_of
from .harmonic import first_coordinate_series, fischer_parts, fischer_sums, harmonic_parts_by_degree
from .integrate import Quadratic
from .linalg import solve_ansatz
from .poly import (
    Polynomial,
    _power_blocks,
    gradient_weight,
    horner,
    laplace_weight,
    poly_sum,
    require_polynomial,
)
from .record import Record
from .scalar import MAX_RADIAL_SIZE, factorial_power_bits
from .transforms import kelvin

# ---------------------------------------------------------------------------
# regions and modes


class Sphere(Record):
    __slots__ = ()


class ExteriorSphere(Record):
    __slots__ = ()


class Annulus(Record):
    __slots__ = ("inner", "outer")

    def __init__(self, inner, outer):
        inner, outer = Fraction(inner), Fraction(outer)
        if not 0 < inner < outer:
            raise EmptyInterior("annulus needs 0 < inner radius < outer radius")
        Record.__init__(self, inner, outer)


class Plain(Record):
    __slots__ = ()


class NormSquaredMultiple(Record):
    __slots__ = ()


# `anti_laplacian` reads a Quadratic mode as "a multiple of the quadric";
# the second name stays for callers that build the mode by that name
QuadraticMultiple = Quadratic


# ---------------------------------------------------------------------------
# polynomial ansatz solves: `linalg.solve_ansatz` takes each unknown
# polynomial as (degrees, [(constraint, q, weight)])


def _quadric_multiple(q, f, degrees, ctx):
    """q v with Laplacian f, for v of the first degree in `degrees` that has one."""
    for deg in degrees:
        sol = solve_ansatz([(range(deg + 1), [(0, q, laplace_weight)])], [f], ctx.coords)
        if sol is not None:
            return q * sol[0]
    raise InfeasibleSystem("no multiple of the quadric has that Laplacian up to degree %d" % deg)


# ---------------------------------------------------------------------------
# anti-Laplacians


def _first_order_solve(p, g):
    """The polynomial Q with 2Q' + gQ = P; both are coefficient lists by power.

    One downward pass: q_j = (p_j - 2(j+1) q_(j+1))/g.  For g = 0, Q is
    the antiderivative of P/2 with constant term 0.
    """
    if g == 0:
        return [0] + [Fraction(c, 2 * j + 2) for j, c in enumerate(p)]
    q = list(p)
    nxt = 0
    for j in reversed(range(len(p))):
        q[j] = nxt = Fraction(p[j] - (2 * j + 2) * nxt, g)
    return q


def _radial_ode_solution(m, a, k, ctx):
    """L with laplacian of r^(a+2) L(log r^2) q_m = r^a log^k(r^2) q_m, r = ||x||.

    With u = log r^2 and D = d/du the radial equation reads
    (2D + a + 2)(2D + a + 2m + n) L = u^k: two first-order solves, the
    factor a + 2m + n first.  Any other solution differs from this one by
    a harmonic function, so the defining contract is unaffected.  Returns
    L's coefficients by power of u.  Its callers bound the size:
    `_anti_laplacian_plain` refuses an answer past MAX_RADIAL_SIZE bits,
    and `_anti_laplacian_norm_multiple` solves at log power 0.
    """
    return _first_order_solve(_first_order_solve([0] * k + [1], a + 2 * m + ctx.dim), a + 2)


def _fold_radial_terms(e, ctx):
    """Split an Expr into (polynomial part, radial terms).

    Radial terms are (coefficient polynomial, norm exponent a, log power k)
    meaning poly * ||x||^a * log^k(||x||^2).  Bases other than the norm are
    rejected.
    """
    nb = ctx.norm_base
    plain = []
    radial = []
    for poly, fac in e.terms:
        if not fac:
            plain.append(poly)
            continue
        if len(fac) != 1 or fac[0][0] != nb:
            raise UnsupportedRadialClass(
                "anti-Laplacian accepts polynomials times norm power-log factors"
            )
        _, h, j = fac[0]
        radial.append((poly, h, j))
    return poly_sum(plain), radial


def anti_laplacian(f, mode, ctx):
    """A function whose Laplacian equals f, in the requested mode."""
    if isinstance(f, Polynomial):
        f = Expr.from_poly(ctx, f)
    context_of(f, ctx)
    if isinstance(mode, Plain):
        return _anti_laplacian_plain(f, ctx)
    poly = f.as_polynomial()
    if isinstance(mode, NormSquaredMultiple):
        return Expr.from_poly(ctx, _anti_laplacian_norm_multiple(poly, ctx))
    if isinstance(mode, Quadratic):
        return Expr.from_poly(ctx, _anti_laplacian_quadratic_multiple(poly, mode, ctx))
    raise UnsupportedInputError("unknown anti-Laplacian mode %r" % (mode,))


def _anti_laplacian_plain(f, ctx):
    poly_part, radial = _fold_radial_terms(f, ctx)
    raw = [(first_coordinate_series(poly_part, ctx), ())]
    nb = ctx.norm_base
    # a piece ||x||^(2j) g of the decomposition is g times r^(h + 2j) log^k(r^2)
    pieces = [(g, m, h + 2 * j, k) for poly, h, k in radial for (m, j), g in fischer_parts(poly, ctx).items()]
    # the answer holds k + 1 multiples c g of each piece: refuse it before
    # any solve when their terms times coefficient bits would pass the bound
    size = 0
    for g, m, a, k in pieces:
        # one coefficient of `_radial_ode_solution(m, a, k, ctx)` has about
        # the bits of k! g^(k+1), g the larger of |a + 2m + n| and |a + 2|
        bits = factorial_power_bits(k, max(abs(a + 2 * m + ctx.dim), abs(a + 2)))
        for den, _, nums in _power_blocks((g,)):
            size += (k + 1) * sum(bits + den.bit_length() + n.bit_length() for n in nums)
    if size > MAX_RADIAL_SIZE:
        raise UnsupportedInputError("the anti-Laplacian would pass %d bits" % MAX_RADIAL_SIZE)
    for g, m, a, k in pieces:
        for i, c in enumerate(_radial_ode_solution(m, a, k, ctx)):
            raw.append((g.scale(c), ((nb, a + 2, i),)))
    return Expr._from_raw(ctx, raw)


def _anti_laplacian_norm_multiple(f, ctx):
    """The unique anti-Laplacian that is a polynomial multiple of ||x||^2.

    In the decomposition basis the map v -> laplacian(||x||^2 v) is
    diagonal with positive entries, so the solve is a per-piece rescale:
    the radial solve at log power 0.
    """
    parts = fischer_parts(f, ctx).items()
    scaled = ((j + 1, g.scale(_radial_ode_solution(m, 2 * j, 0, ctx)[0])) for (m, j), g in parts)
    return horner(scaled, ctx.norm_sq_poly())


def _anti_laplacian_quadratic_multiple(f, quad, ctx):
    """An anti-Laplacian u = q v of f, q = b.x^2 + c.x + d.

    The Laplacian of q v has degree deg v + deg q - 2, so v is sought in
    degree deg f + 2 - deg q: deg f for a quadric, more for a linear or
    constant q.
    """
    q = quad.poly(ctx)
    if q.is_zero():
        raise UnsupportedInputError("the quadric multiple must not be zero")
    deg = f.total_degree() + 2 - q.total_degree()
    return _quadric_multiple(q, f, [deg], ctx)


# ---------------------------------------------------------------------------
# Dirichlet problems


def dirichlet(p, region=Sphere(), ctx=None, rhs=None):
    """Solution of the Dirichlet problem with boundary data p.

    For the annulus, p may be a pair (inner data, outer data); a single
    polynomial is used on both boundary spheres.  With rhs given, solves
    the generalized problem: Laplacian equal to rhs and boundary values p.
    """
    if ctx is None:
        raise UnsupportedInputError("a context is required")
    if isinstance(p, tuple) and not isinstance(region, Annulus):
        raise UnsupportedInputError("only the annulus takes an (inner, outer) data pair")
    if rhs is not None:
        v = first_coordinate_series(require_polynomial(rhs, "prescribed Laplacian"), ctx)
        data = (p[0] - v, p[1] - v) if isinstance(p, tuple) else p - v
        return dirichlet(data, region, ctx) + Expr.from_poly(ctx, v)

    if isinstance(region, Sphere):
        return _dirichlet_sphere(p, ctx)
    if isinstance(region, ExteriorSphere):
        return _dirichlet_exterior(p, ctx)
    if isinstance(region, Annulus):
        pair = p if isinstance(p, tuple) else (p, p)
        return _dirichlet_annulus(pair[0], pair[1], region, ctx)
    if isinstance(region, Quadratic):
        return _dirichlet_quadratic(p, region, ctx)
    raise UnsupportedInputError("unknown region %r" % (region,))


def _dirichlet_sphere(p, ctx):
    # every piece ||x||^(2j) h_(m,j) is h_(m,j) on the sphere: one sum of them all
    require_polynomial(p, "boundary data")
    return Expr.from_poly(ctx, fischer_sums(p, ctx, lambda m, j: 0).get(0, Polynomial()))


def _dirichlet_exterior(p, ctx):
    return kelvin(_dirichlet_sphere(p, ctx), ctx)


def _dirichlet_annulus(p_inner, p_outer, region, ctx):
    require_polynomial(p_inner, "boundary data")
    require_polynomial(p_outer, "boundary data")
    if ctx.dim < 3:
        raise UnsupportedDimension("annulus Dirichlet needs dimension >= 3")
    n = ctx.dim
    r, s = region.inner, region.outer
    inner = harmonic_parts_by_degree(p_inner, ctx, r)
    outer = harmonic_parts_by_degree(p_outer, ctx, s)
    # on degree m, p_m - beta_m r^gamma + beta_m ||x||^gamma with gamma =
    # 2 - n - 2m; the second half is the Kelvin transform of beta_m
    interior, betas = [], []
    for m in sorted(set(inner) | set(outer)):
        pm = inner.get(m, Polynomial())
        qm = outer.get(m, Polynomial())
        gamma = 2 - n - 2 * m
        rg, sg = r**gamma, s**gamma
        beta = (pm - qm).scale(Fraction(1) / (rg - sg))
        interior.append(pm - beta.scale(rg))
        betas.append(beta)
    outside = kelvin(Expr.from_poly(ctx, poly_sum(betas)), ctx)
    return Expr.from_poly(ctx, poly_sum(interior)) + outside


def _dirichlet_quadratic(p, region, ctx):
    require_polynomial(p, "boundary data")
    q = region.poly(ctx)
    if q.is_constant():
        raise UnsupportedInputError("a constant quadric bounds no region")
    # with every nonzero b_i of one sign s, and c_i = 0 where b_i = 0,
    # s q >= -s rho^2 over the nonzero b_i: the surface q = 0 is empty
    # unless s rho^2 >= 0, and a single point at s rho^2 = 0 unless a
    # zero b_i leaves its variable free
    pairs = [(bi, ci) for bi, ci in zip(region.b, region.c) if bi or ci]
    s = 1 if all(bi > 0 for bi, _ in pairs) else -1 if all(bi < 0 for bi, _ in pairs) else 0
    if s:
        rho_sq = region.rho_sq()
        if s * rho_sq < 0 or s * rho_sq == 0 and len(pairs) == len(region.b):
            raise EmptyInterior("the surface b.x^2 + c.x + d = 0 is empty or a single point")
    # the harmonic extension p + q v: Laplacian of q v is -Laplacian of p
    degrees = range(max(p.total_degree() - 2, 0), p.total_degree() + 3)
    return Expr.from_poly(ctx, p + _quadric_multiple(q, -poly_laplacian(p, ctx), degrees, ctx))


# ---------------------------------------------------------------------------
# Neumann problems


def neumann(f, g=None, region=Sphere(), ctx=None):
    """Neumann problems on the sphere or an ellipsoid.

    Standard: harmonic u with normal derivative f on the surface and
    u(0) = 0.  Generalized (g given): Laplacian of u equals g as well.
    Each region names the quadric q of its boundary term grad q . grad u
    and one standard solve, and that solve decides solvability: it has a
    solution exactly when the boundary integral of f matches the volume
    integral of g (zero when g is absent), and refuses the data otherwise.
    On an ellipsoid, data in variables other than the coordinates is
    refused before any solve.
    """
    if ctx is None:
        raise UnsupportedInputError("a context is required")
    require_polynomial(f, "boundary data")
    if g is not None:
        require_polynomial(g, "boundary data")
    if isinstance(region, Sphere):
        # x . grad u is grad q . grad u for q = ||x||^2/2
        q, standard = ctx.norm_sq_poly().scale(Fraction(1, 2)), partial(_neumann_sphere, ctx=ctx)
    elif isinstance(region, Quadratic):
        q = region.ellipsoid_poly(ctx)
        # the ansatz has columns in the coordinates only, so a solve would
        # read data in other variables as incompatible
        if any(p.variables() - set(ctx.coords) for p in (f, g) if p is not None):
            raise UnsupportedInputError("Neumann data on a quadric must be a polynomial in the coordinates")
        standard = partial(_neumann_quadratic_standard, q=q, ctx=ctx)
    else:
        raise UnsupportedInputError("Neumann problems support Sphere and Quadratic regions")
    if g is None:
        return standard(f)
    return _generalized_neumann(f, g, q, standard, ctx)


def _neumann_sphere(f, ctx):
    """Harmonic h with x . grad h = f on the sphere and h(0) = 0: h_m/m on
    each harmonic part h_m of f.  The degree-0 part is the mean of f over
    the sphere, so f is compatible exactly when it has none."""
    parts = harmonic_parts_by_degree(f, ctx)
    if 0 in parts:
        raise SolvabilityViolation("the integral of the data over the sphere must vanish")
    return Expr.from_poly(ctx, poly_sum(gm.scale(Fraction(1, m)) for m, gm in parts.items()))


def _generalized_neumann(f, g, q, standard, ctx):
    """u with Laplacian g, grad q . grad u = f on the surface and u(0) = 0:
    h + v less its value at 0, for v an anti-Laplacian of g and h the
    standard solution (`standard`) for the data f - grad q . grad v.  That
    data is compatible exactly when the boundary integral of f matches the
    volume integral of g (the divergence theorem for v)."""
    v = first_coordinate_series(g, ctx)
    data = f - q.gradient_dot(v, ctx.coords)
    try:
        h = standard(data)
    except SolvabilityViolation:
        raise SolvabilityViolation("boundary and volume integrals disagree; no solution exists") from None
    u = h.as_polynomial() + v
    return Expr.from_poly(ctx, u - u.constant_term())


def _neumann_quadratic_standard(f, q, ctx):
    """Harmonic h with grad h . grad q = f + q*(cofactor), h(0) = 0, on the
    ellipsoid q < 0.

    A solution has normal derivative f/|grad q| on q = 0, so the surface
    integral of f/|grad q| is the volume integral of the Laplacian of h,
    zero.  Conversely h is sought at the degree m of f alone: on an
    ellipsoid, h -> grad q . grad h (mod q) is one-to-one on the harmonics
    of degree at most m with h(0) = 0 (zero Neumann data forces a
    constant), and its image has codimension one, so it is exactly the
    data whose surface integral vanishes.  The one linear solve therefore
    fails exactly on incompatible data.
    """
    deg = f.total_degree()
    # h's columns: Laplacian of x^a and grad q . grad x^a; the cofactor's:
    # -q x^a, of degree at most deg - 2, as grad q . grad h - f has degree
    # at most deg
    h = (range(1, deg + 1), [(0, Polynomial.const(1), laplace_weight), (1, q, gradient_weight)])
    cofactor = (range(deg - 1), [(1, -q, None)])
    sol = solve_ansatz([h, cofactor], [Polynomial(), f], ctx.coords)
    if sol is None:
        raise SolvabilityViolation("the surface integral of the data must vanish")
    return Expr.from_poly(ctx, sol[0])


def exterior_neumann(p, ctx):
    """Exterior Neumann problem with data p on the unit sphere.

    The returned function is harmonic outside the ball, tends to 0 at
    infinity, and its exterior-outward normal derivative on the sphere is
    p (the ball-outward derivative is -p).
    """
    require_polynomial(p, "boundary data")
    n = ctx.dim
    parts = harmonic_parts_by_degree(p, ctx)
    if n == 2:
        if 0 in parts:
            raise SolvabilityViolation(
                "in dimension 2 the data must have zero mean on the circle"
            )
    elif n < 2:
        raise UnsupportedDimension("exterior Neumann needs dimension >= 2")
    # the Kelvin transform of h_m/(m + n - 2) is h_m ||x||^(2-n-2m)/(m + n - 2)
    inside = poly_sum(g.scale(Fraction(1, m + n - 2)) for m, g in parts.items())
    return kelvin(Expr.from_poly(ctx, inside), ctx)


def bi_dirichlet(p, ctx):
    """Biharmonic u on the ball with u = p and zero normal derivative on S.

    Built from the harmonic extension v = sum v_m as v + (1 - ||x||^2) w
    with w = sum (m/2) v_m; all three contracts are exact identities.
    """
    require_polynomial(p, "boundary data")
    v_parts = harmonic_parts_by_degree(p, ctx)
    v = poly_sum(v_parts.values())
    w = poly_sum(vm.scale(Fraction(m, 2)) for m, vm in v_parts.items())
    one_minus = Polynomial.const(1) - ctx.norm_sq_poly()
    return Expr.from_poly(ctx, v + one_minus * w)
