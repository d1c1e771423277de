"""Boundary-value solvers on balls, annuli, sphere exteriors and quadrics.

Dirichlet (four regions, with an optional prescribed Laplacian),
anti-Laplacians (plain, norm-squared multiple, quadratic multiple),
Neumann problems (sphere and quadratic surfaces, standard and
generalized), the exterior Neumann problem, and the clamped-plate style
biharmonic Dirichlet problem.

One quadric type, `integrate.Quadratic(b, c, d)` for b.x^2 + c.x + d,
serves as the Dirichlet region (any signs), the Neumann region (an
ellipsoid) and the quadric-multiple mode of `anti_laplacian`.

Every solver's defining contracts (vanishing Laplacian or prescribed one,
boundary match, origin normalization, normal-derivative match) hold as
exact canonical identities; the test suite asserts them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .calculus import poly_laplacian
from .errors import (
    EmptyInterior,
    InfeasibleSystem,
    NonPolynomialInput,
    SingularLinearSystem,
    SolvabilityViolation,
    UnsupportedDimension,
    UnsupportedInputError,
    UnsupportedRadialClass,
)
from .expr import Expr, Polynomial, mono_mul, monomials, poly_sum
from .harmonic import _decompose_homogeneous, harmonic_decompose, harmonic_parts_by_degree
from .integrate import (
    integrate_ball,
    integrate_ellipsoid_area,
    integrate_ellipsoid_volume,
    integrate_sphere,
    unit_sphere_area,
    Quadratic,
    RadialFunction,
)
from .scalar import ONE, Scalar

# ---------------------------------------------------------------------------
# regions and modes


@dataclass(frozen=True)
class Sphere:
    pass


@dataclass(frozen=True)
class ExteriorSphere:
    pass


@dataclass(frozen=True)
class Annulus:
    inner: Fraction
    outer: Fraction

    def __post_init__(self):
        object.__setattr__(self, "inner", Fraction(self.inner))
        object.__setattr__(self, "outer", Fraction(self.outer))
        if not 0 < self.inner < self.outer:
            raise EmptyInterior("annulus needs 0 < inner radius < outer radius")


@dataclass(frozen=True)
class Plain:
    pass


@dataclass(frozen=True)
class NormSquaredMultiple:
    pass


# `anti_laplacian` reads a Quadratic mode as "a multiple of the quadric";
# the second name stays for callers that build the mode by that name
QuadraticMultiple = Quadratic


# ---------------------------------------------------------------------------
# linear-system scaffolding for polynomial ansatz solves


def _solve_poly_constraints(columns, constraints, ctx):
    """Solve sum_i x_i columns[i] + constant = 0 over given constraints.

    `columns` is a list of lists: columns[i][k] is the polynomial multiplying
    unknown i in constraint k; `constraints` holds the constant polynomials.
    Each (constraint, monomial) pair is one sparse row.  Returns the
    canonical solution vector or None if inconsistent; trailing columns
    with no entries are left off the vector.
    """
    rows = {}
    # the constants ride along as one extra column, then move to the right side
    for i, col in enumerate(columns + [constraints]):
        for cid, poly in enumerate(col):
            for mono, coeff in poly.terms.items():
                rows.setdefault((cid, mono), {})[i] = coeff.as_fraction()
    rhs = [-row.pop(len(columns), 0) for row in rows.values()]
    return linalg.solve(list(rows.values()), rhs)


def _paired_image(q, mono, weight):
    """Sum over terms c x^b of q and variables i of w c x^(a + b - 2 e_i).

    a = mono and w = weight(a_i, b_i).  With w = s(s - 1), s = a_i + b_i,
    this is the Laplacian of q x^a; with w = a_i b_i it is grad q . grad x^a.
    Ansatz columns come from one pass over q's few terms this way, without
    forming the product q x^a.
    """
    rat = q.rational_terms()
    den = lcm(*(c.denominator for c in rat.values()))
    a = dict(mono)
    acc = {}
    for beta, c in rat.items():
        n = c.numerator * (den // c.denominator)
        b = dict(beta)
        g = mono_mul(beta, mono)
        for i, (v, e) in enumerate(g):
            w = weight(a.get(v, 0), b.get(v, 0))
            if w:
                m = g[:i] + g[i + 1 :] if e == 2 else g[:i] + ((v, e - 2),) + g[i + 1 :]
                acc[m] = acc.get(m, 0) + n * w
    return Polynomial({m: Scalar.from_fraction(Fraction(n, den)) for m, n in acc.items() if n})


def _laplacian_times(q, mono):
    """Laplacian of q * x^mono."""
    return _paired_image(q, mono, lambda ai, bi: (ai + bi) * (ai + bi - 1))


def _gradient_dot(q, mono):
    """grad q . grad x^mono."""
    return _paired_image(q, mono, lambda ai, bi: ai * bi)


# ---------------------------------------------------------------------------
# anti-Laplacians

_radial_solve_count = 0


def radial_solve_count():
    """Instrumentation: number of radial ODE solves performed so far."""
    return _radial_solve_count


def _anti_laplacian_poly(p, ctx):
    """Polynomial anti-Laplacian via the first-coordinate recursion.

    Raises the first coordinate's degree by two and recurses on the
    correction, whose degree in the other coordinates strictly drops.
    """
    first = ctx.coords[0]
    rest = ctx.coords[1:]
    cache = {}

    def anti_mono(mono):
        if mono in cache:
            return cache[mono]
        d = dict(mono)
        a1 = d.pop(first, 0)
        denom = Fraction(1, (a1 + 1) * (a1 + 2))
        lifted_mono = tuple(sorted({first: a1 + 2, **d}.items()))
        head = Polynomial({lifted_mono: Scalar.from_fraction(denom)})
        tail = Polynomial({tuple(sorted(d.items())): ONE})
        lap_rest = Polynomial()
        for v in rest:
            lap_rest = lap_rest + tail.partial(v).partial(v)
        out = head
        if not lap_rest.is_zero():
            correction = Polynomial.var(first, a1 + 2) * lap_rest.scale(denom)
            out = out - anti_poly(correction)
        cache[mono] = out
        return out

    def anti_poly(q):
        total = Polynomial()
        for mono, coeff in q.terms.items():
            total = total + anti_mono(mono).scale(coeff)
        return total

    return anti_poly(p)


def _antideriv_power_log(coeff, q, k):
    """Antiderivative of coeff * s^q log^k s with zero constant term.

    Returns a list of (coeff, exponent, log power) triples.  For q != -1
    this also equals the integral from 0 when that converges.
    """
    if q == -1:
        return [(coeff * Fraction(1, k + 1), 0, k + 1)]
    out = []
    fall = Fraction(1)
    for i in range(k + 1):
        c = coeff * fall * Fraction((-1) ** i, (q + 1) ** (i + 1))
        out.append((c, q + 1, k - i))
        fall *= k - i
    return out


def _radial_ode_solution(m, a, k, ctx):
    """Closed form h with laplacian of h(||x||) q_m = r^a log^k r q_m.

    Solves t h'' + (2m + n - 1) h' = t^(a+1) log^k t by two symbolic
    antiderivative passes; any admissible constant choices differ from this
    one by a harmonic function, so the defining contract is unaffected.
    """
    global _radial_solve_count
    _radial_solve_count += 1
    n = ctx.dim
    inner = _antideriv_power_log(Fraction(1), 2 * m + n - 1 + a, k)
    outer = []
    for c, e, kk in inner:
        outer.extend(_antideriv_power_log(c, e + 1 - 2 * m - n, kk))
    return outer


def _fold_radial_terms(e, ctx):
    """Split an Expr into (polynomial part, radial terms).

    Radial terms are (coefficient polynomial, norm exponent a, log power k)
    meaning poly * ||x||^a * log^k ||x||.  Bases other than the norm are
    rejected.
    """
    nb = ctx.norm_base
    poly_part = Polynomial()
    radial = []
    for poly, fac in e.terms:
        if not fac:
            poly_part = poly_part + poly
            continue
        if len(fac) != 1 or fac[0][0] != nb:
            raise UnsupportedRadialClass(
                "anti-Laplacian accepts polynomials times norm power-log factors"
            )
        _, h, j = fac[0]
        radial.append((poly, h, j))
    return poly_part, radial


def anti_laplacian(f, mode, ctx):
    """A function whose Laplacian equals f, in the requested mode."""
    if isinstance(f, Polynomial):
        f = Expr.from_poly(ctx, f)
    if isinstance(mode, Plain):
        return _anti_laplacian_plain(f, ctx)
    poly = f.as_polynomial()
    if isinstance(mode, NormSquaredMultiple):
        return Expr.from_poly(ctx, _anti_laplacian_norm_multiple(poly, ctx))
    if isinstance(mode, Quadratic):
        return Expr.from_poly(ctx, _anti_laplacian_quadratic_multiple(poly, mode, ctx))
    raise TypeError("unknown anti-Laplacian mode %r" % (mode,))


def _anti_laplacian_plain(f, ctx):
    poly_part, radial = _fold_radial_terms(f, ctx)
    total = Expr.from_poly(ctx, _anti_laplacian_poly(poly_part, ctx))
    nb = ctx.norm_base
    for poly, h, j in radial:
        # log(normSq)^j = (2 log r)^j
        for hpoly, exp in harmonic_decompose(poly, ctx):
            for m, g in hpoly.homogeneous_parts(ctx.coords).items():
                a = h + exp
                sol = _radial_ode_solution(m, a, j, ctx)
                for c, e, kk in sol:
                    coeff = Scalar.from_fraction(c * Fraction(2**j) / Fraction(2**kk))
                    total = total + Expr.make(
                        ctx, g.scale(coeff), [(nb, e, kk)]
                    )
    return total


def _anti_laplacian_norm_multiple(f, ctx):
    """The unique anti-Laplacian that is a polynomial multiple of ||x||^2.

    In the decomposition basis the map v -> laplacian(||x||^2 v) is
    diagonal with positive entries, so the solve is a per-piece rescale.
    """
    n = ctx.dim
    norm = ctx.norm_sq_poly()
    total = Polynomial()
    for k, part in f.homogeneous_parts(ctx.coords).items():
        for j, g in _decompose_homogeneous(part, k, ctx).items():
            lam = (2 * j + 2) * (2 * k - 2 * j + n)
            total = total + norm ** (j + 1) * g.scale(Fraction(1, lam))
    return total


def _anti_laplacian_quadratic_multiple(f, quad, ctx):
    """The unique anti-Laplacian that is a multiple of b.x^2 + c.x + d."""
    q = quad.poly(ctx)
    deg = f.total_degree()
    monos = monomials(ctx.coords, range(deg + 1))
    columns = [[_laplacian_times(q, mono)] for mono in monos]
    sol = _solve_poly_constraints(columns, [-f], ctx)
    if sol is None:
        raise SingularLinearSystem(
            "quadratic-multiple anti-Laplacian system is inconsistent"
        )
    v = Polynomial.from_raw(
        [(m, Scalar.from_fraction(c)) for m, c in zip(monos, sol) if c]
    )
    return q * v


# ---------------------------------------------------------------------------
# Dirichlet problems


def dirichlet(p, region=Sphere(), ctx=None, rhs=None):
    """Solution of the Dirichlet problem with boundary data p.

    For the annulus, p may be a pair (inner data, outer data); a single
    polynomial is used on both boundary spheres.  With rhs given, solves
    the generalized problem: Laplacian equal to rhs and boundary values p.
    """
    if ctx is None:
        raise ValueError("a context is required")
    if isinstance(p, tuple) and not isinstance(region, Annulus):
        raise UnsupportedInputError("only the annulus takes an (inner, outer) data pair")
    if rhs is not None:
        if not isinstance(rhs, Polynomial):
            raise NonPolynomialInput("prescribed Laplacian must be a polynomial")
        v = anti_laplacian(rhs, Plain(), ctx).as_polynomial()
        if isinstance(p, tuple):
            data = (p[0] - v, p[1] - v)
        else:
            data = p - v
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
    raise TypeError("unknown region %r" % (region,))


def _require_poly(p):
    if not isinstance(p, Polynomial):
        raise NonPolynomialInput("boundary data must be a polynomial")
    return p


def _dirichlet_sphere(p, ctx):
    _require_poly(p)
    parts = harmonic_parts_by_degree(p, ctx)
    return Expr.from_poly(ctx, poly_sum(list(parts.values())))


def _dirichlet_exterior(p, ctx):
    _require_poly(p)
    parts = harmonic_parts_by_degree(p, ctx)
    total = Expr.zero(ctx)
    n = ctx.dim
    for m, g in parts.items():
        total = total + Expr.make(ctx, g, [(ctx.norm_base, 2 - n - 2 * m, 0)])
    return total


def _dirichlet_annulus(p_inner, p_outer, region, ctx):
    _require_poly(p_inner)
    _require_poly(p_outer)
    if ctx.dim < 3:
        raise UnsupportedDimension("annulus Dirichlet needs dimension >= 3")
    n = ctx.dim
    r, s = region.inner, region.outer

    def boundary_coefficients(p, radius):
        # p restricted to the sphere of the given radius, written as
        # sum over degrees of (harmonic of degree m) with norm powers
        # specialized at the radius
        out = {}
        for h, e in harmonic_decompose(p, ctx):
            w = radius**e
            for m, part in h.homogeneous_parts(ctx.coords).items():
                out[m] = out.get(m, Polynomial()) + part.scale(w)
        return out

    inner = boundary_coefficients(p_inner, r)
    outer = boundary_coefficients(p_outer, s)
    total = Expr.zero(ctx)
    for m in sorted(set(inner) | set(outer)):
        pm = inner.get(m, Polynomial())
        qm = outer.get(m, Polynomial())
        gamma = 2 - n - 2 * m
        rg, sg = r**gamma, s**gamma
        det = rg - sg
        beta = (pm - qm).scale(Fraction(1) / det)
        alpha = pm - beta.scale(rg)
        if not alpha.is_zero():
            total = total + Expr.from_poly(ctx, alpha)
        if not beta.is_zero():
            total = total + Expr.make(ctx, beta, [(ctx.norm_base, gamma, 0)])
    return total


def _dirichlet_quadratic(p, region, ctx):
    _require_poly(p)
    q = region.poly(ctx)
    base_deg = max(p.total_degree() - 2, 0)
    for deg in range(base_deg, p.total_degree() + 3):
        monos = monomials(ctx.coords, range(deg + 1))
        columns = [[_laplacian_times(q, mono)] for mono in monos]
        sol = _solve_poly_constraints(columns, [poly_laplacian(p, ctx)], ctx)
        if sol is not None:
            f = Polynomial.from_raw(
                [(m, Scalar.from_fraction(c)) for m, c in zip(monos, sol) if c]
            )
            return Expr.from_poly(ctx, p + q * f)
    raise InfeasibleSystem(
        "no harmonic extension q-multiple up to degree %d" % (p.total_degree() + 2)
    )


# ---------------------------------------------------------------------------
# Neumann problems


def _sphere_neumann_data(p, ctx):
    parts = harmonic_parts_by_degree(p, ctx)
    if 0 in parts:
        raise SolvabilityViolation(
            "the boundary data has nonzero mean over the sphere; "
            "a solution cannot exist"
        )
    return parts


def neumann(f, g=None, region=Sphere(), ctx=None):
    """Neumann problems on the sphere or a quadratic surface.

    Standard: harmonic u with normal derivative f on the surface and
    u(0) = 0.  Generalized (g given): Laplacian of u equals g as well.
    Solvability requires the boundary integral of f to match the volume
    integral of g (zero when g is absent); the check is exact.
    """
    if ctx is None:
        raise ValueError("a context is required")
    _require_poly(f)
    if g is not None:
        _require_poly(g)
    if isinstance(region, Sphere):
        return _neumann_sphere(f, g, ctx)
    if isinstance(region, Quadratic):
        return _neumann_quadratic(f, g, region, ctx)
    raise UnsupportedInputError("Neumann problems support Sphere and Quadratic regions")


def _neumann_sphere(f, g, ctx):
    if g is None:
        mean_f = integrate_sphere(f, ctx)
        if not (isinstance(mean_f, Scalar) and mean_f.is_zero()):
            raise SolvabilityViolation(
                "the integral of the data over the sphere must vanish"
            )
        parts = _sphere_neumann_data(f, ctx)
        total = Polynomial()
        for m, gm in parts.items():
            total = total + gm.scale(Fraction(1, m))
        return Expr.from_poly(ctx, total)
    # compatibility: area(n) * mean_S f = volume integral of g
    lhs = unit_sphere_area(ctx.dim) * integrate_sphere(f, ctx)
    rhs = integrate_ball(g, RadialFunction.one(), ctx)
    if not isinstance(lhs, Scalar) or not isinstance(rhs, Scalar) or not (lhs - rhs).is_zero():
        raise SolvabilityViolation(
            "boundary and volume integrals disagree; no solution exists"
        )
    v = anti_laplacian(g, Plain(), ctx).as_polynomial()
    radial_data = poly_sum(
        [Polynomial.var(c) * v.partial(c) for c in ctx.coords]
    )
    w = _neumann_sphere(f - radial_data, None, ctx).as_polynomial()
    u = w + v
    shift = u.eval({c: Fraction(0) for c in ctx.coords})
    return Expr.from_poly(ctx, u - Polynomial.const(shift))


def _neumann_quadratic(f, g, region, ctx):
    area = integrate_ellipsoid_area(f, region, ctx)
    if g is None:
        if not (isinstance(area, Scalar) and area.is_zero()):
            raise SolvabilityViolation(
                "the surface integral of the data must vanish"
            )
        return _neumann_quadratic_standard(f, region, ctx)
    vol = integrate_ellipsoid_volume(g, region, ctx)
    if not isinstance(area, Scalar) or not isinstance(vol, Scalar) or not (
        area - vol
    ).is_zero():
        raise SolvabilityViolation(
            "surface and volume integrals disagree; no solution exists"
        )
    v = anti_laplacian(g, Plain(), ctx).as_polynomial()
    q = region.poly(ctx)
    data = f - poly_sum(
        [q.partial(c) * v.partial(c) for c in ctx.coords]
    )
    h = _neumann_quadratic_standard(data, region, ctx).as_polynomial()
    u = h + v
    shift = u.eval({c: Fraction(0) for c in ctx.coords})
    return Expr.from_poly(ctx, u - Polynomial.const(shift))


def _neumann_quadratic_standard(f, region, ctx):
    """Harmonic h with grad h . grad q = f + q*(cofactor), h(0) = 0."""
    q = region.poly(ctx)
    one = Polynomial.const(1)
    for deg in range(f.total_degree(), f.total_degree() + 3):
        h_monos = monomials(ctx.coords, range(1, deg + 1))
        r_monos = monomials(ctx.coords, range(max(deg, 1)))
        columns = [[_laplacian_times(one, mono), _gradient_dot(q, mono)] for mono in h_monos]
        for mono in r_monos:
            columns.append(
                [Polynomial(), Polynomial({mono_mul(m, mono): -c for m, c in q.terms.items()})]
            )
        sol = _solve_poly_constraints(columns, [Polynomial(), -f], ctx)
        if sol is not None:
            h = Polynomial.from_raw(
                [
                    (m, Scalar.from_fraction(c))
                    for m, c in zip(h_monos, sol[: len(h_monos)])
                    if c
                ]
            )
            return Expr.from_poly(ctx, h)
    raise InfeasibleSystem(
        "no harmonic solution up to degree %d" % (f.total_degree() + 2)
    )


def exterior_neumann(p, ctx):
    """Exterior Neumann problem with data p on the unit sphere.

    The returned function is harmonic outside the ball, tends to 0 at
    infinity, and its exterior-outward normal derivative on the sphere is
    p (the ball-outward derivative is -p).
    """
    _require_poly(p)
    n = ctx.dim
    parts = harmonic_parts_by_degree(p, ctx)
    if n == 2:
        if 0 in parts:
            raise SolvabilityViolation(
                "in dimension 2 the data must have zero mean on the circle"
            )
    elif n < 2:
        raise UnsupportedDimension("exterior Neumann needs dimension >= 2")
    total = Expr.zero(ctx)
    for m, g in parts.items():
        total = total + Expr.make(
            ctx,
            g.scale(Fraction(1, m + n - 2)),
            [(ctx.norm_base, 2 - n - 2 * m, 0)],
        )
    return total


def bi_dirichlet(p, ctx):
    """Biharmonic u on the ball with u = p and zero normal derivative on S.

    Built from the harmonic extension v = sum v_m as v + (1 - ||x||^2) w
    with w = sum (m/2) v_m; all three contracts are exact identities.
    """
    _require_poly(p)
    v_parts = harmonic_parts_by_degree(p, ctx)
    v = poly_sum(list(v_parts.values()))
    w = Polynomial()
    for m, vm in v_parts.items():
        w = w + vm.scale(Fraction(m, 2))
    one_minus = Polynomial.const(1) - ctx.norm_sq_poly()
    return Expr.from_poly(ctx, v + one_minus * w)
