"""Differential operators on expressions and polynomials.

Partials, gradients, iterated Laplacians, divergence, Jacobian, normal
derivatives (sphere and general quadric-style surfaces), homogeneous and
Taylor expansions of polynomials, and the planar harmonic conjugate.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import (
    DimensionMismatch,
    NonPolynomialInput,
    NotHarmonic,
    UnknownVariable,
    UnsupportedDimension,
    ZeroGradientField,
)
from .expr import Expr, Polynomial, poly_sum, restrict_to_sphere


def _partial_raw(ctx, terms, var):
    """Termwise product-rule derivative, without canonicalizing."""
    raw = []
    for poly, fac in terms:
        dp = poly.partial(var)
        if not dp.is_zero():
            raw.append((dp, fac))
        for idx in range(len(fac)):
            b, h, j = fac[idx]
            db = ctx.base_poly(b).partial(var)
            if db.is_zero():
                continue
            rest = fac[:idx] + fac[idx + 1 :]
            if h:
                nf = tuple(sorted(rest + ((b, h - 2, j),)))
                raw.append((poly * db * Fraction(h, 2), nf))
            if j:
                nf = tuple(sorted(rest + ((b, h - 2, j - 1),)))
                raw.append((poly * db * Fraction(j), nf))
    return raw


def expr_partial(e, var, ctx=None):
    """Single partial derivative of an Expr."""
    ctx = ctx or e.ctx
    return Expr._from_raw(ctx, _partial_raw(ctx, e.terms, var))


def partial_d(e, schedule, ctx=None):
    """Iterated partials; schedule is a list of (variable, multiplicity)."""
    ctx = ctx or e.ctx
    out = e
    for item in schedule:
        var, mult = item if isinstance(item, tuple) else (item, 1)
        if var not in ctx.var_rank:
            raise UnknownVariable("cannot differentiate by unknown variable %r" % (var,))
        for _ in range(mult):
            out = expr_partial(out, var, ctx)
    return out


def gradient_of(e, ctx=None):
    ctx = ctx or e.ctx
    return tuple(expr_partial(e, v, ctx) for v in ctx.coords)


def laplacian_of(e, power=1, ctx=None):
    ctx = ctx or e.ctx
    out = e
    for _ in range(power):
        raw = []
        for v in ctx.coords:
            raw.extend(_partial_raw(ctx, _partial_raw(ctx, out.terms, v), v))
        out = Expr._from_raw(ctx, raw)
    return out


def poly_laplacian(p, ctx):
    """Laplacian of a plain polynomial (fast path used by solvers)."""
    out = Polynomial()
    for v in ctx.coords:
        out = out + p.partial(v).partial(v)
    return out


def divergence_of(vec, ctx):
    if len(vec) != ctx.dim:
        raise DimensionMismatch(
            "vector field has %d components in dimension %d" % (len(vec), ctx.dim)
        )
    acc = Expr.zero(ctx)
    for v, comp in zip(ctx.coords, vec):
        acc = acc + expr_partial(comp, v, ctx)
    return acc


def jacobian_of(vec, ctx):
    return tuple(
        tuple(expr_partial(comp, v, ctx) for v in ctx.coords) for comp in vec
    )


def normal_d_sphere(e, ctx=None):
    """Outward normal derivative on the unit sphere: x.grad e restricted.

    The radial derivative is formed first; the value is then restricted to
    the sphere (norm factors specialized at radius 1 and the polynomial
    part reduced modulo sum x_i^2 = 1), which is what makes the result of
    a Neumann solve reproduce its boundary data exactly.
    """
    ctx = ctx or e.ctx
    acc = Expr.zero(ctx)
    for v in ctx.coords:
        acc = acc + Expr.from_poly(ctx, Polynomial.var(v)) * expr_partial(e, v, ctx)
    return Expr.from_poly(ctx, restrict_to_sphere(acc, ctx))


def normal_d_surface(e, q, ctx=None):
    """Normal derivative with respect to the level surface q = const.

    Returns (grad e . grad q)/|grad q| with the squarefree part of
    grad q . grad q kept as a symbolic radical; the point is not restricted
    to the surface.
    """
    ctx = ctx or e.ctx
    if q.is_constant():
        raise ZeroGradientField("surface polynomial is constant")
    grads = [q.partial(v) for v in ctx.coords]
    gram = poly_sum([g * g for g in grads])
    if gram.is_zero():
        raise ZeroGradientField("grad q . grad q vanishes identically")
    num = Expr.zero(ctx)
    for g, v in zip(grads, ctx.coords):
        num = num + Expr.from_poly(ctx, g) * expr_partial(e, v, ctx)
    return num * Expr.base_power(ctx, gram, -1)


# ---------------------------------------------------------------------------
# expansions


def _check_poly(p):
    if not isinstance(p, Polynomial):
        raise NonPolynomialInput("expected a polynomial")
    return p


def _derivative_values(p, m, about, ctx):
    """All (alpha, d^alpha p evaluated at `about`) with |alpha| = m.

    `about` maps coordinates to Fractions or auxiliary variable names; the
    returned values are polynomials in the auxiliary names.
    """
    subs = {}
    for v in ctx.coords:
        a = about[v]
        subs[v] = Polynomial.var(a) if isinstance(a, str) else Polynomial.const(a)

    def at_about(q):
        for v in ctx.coords:
            q = q.substitute(v, subs[v])
        return q

    out = []

    def rec(i, alpha, q, remaining):
        if q.is_zero():
            return
        if i == len(ctx.coords) - 1:
            d = q
            for _ in range(remaining):
                d = d.partial(ctx.coords[i])
            if not d.is_zero():
                out.append((alpha + (remaining,), at_about(d)))
            return
        d = q
        for k in range(remaining + 1):
            rec(i + 1, alpha + (k,), d, remaining - k)
            d = d.partial(ctx.coords[i])
            if d.is_zero():
                break

    rec(0, (), p, m)
    return out


def homogeneous_part(p, m, ctx, about=None):
    """Degree-m graded component, optionally in the expansion about a point.

    With `about` (a list of Fractions or auxiliary variable names, one per
    coordinate) the degree-m component of p(b + (x-b)) is returned fully
    expanded in the coordinates and the point symbols.
    """
    p = _check_poly(p)
    if about is None:
        return p.homogeneous_parts(ctx.coords).get(m, Polynomial())
    about_map = dict(zip(ctx.coords, about))
    total = Polynomial()
    for alpha, val in _derivative_values(p, m, about_map, ctx):
        fact = 1
        for k in alpha:
            fact *= factorial(k)
        term = val.scale(Fraction(1, fact))
        for v, k in zip(ctx.coords, alpha):
            if k:
                a = about_map[v]
                diff = Polynomial.var(v) - (
                    Polynomial.var(a) if isinstance(a, str) else Polynomial.const(a)
                )
                term = term * diff**k
        total = total + term
    return total


def taylor_poly(p, m, ctx, about=None):
    """Sum of the homogeneous components of degree at most m."""
    p = _check_poly(p)
    total = Polynomial()
    for k in range(m + 1):
        total = total + homogeneous_part(p, k, ctx, about)
    return total


def harmonic_conjugate(u, ctx):
    """Harmonic conjugate v of u on the plane with v(0,0) = 0."""
    u = _check_poly(u)
    if ctx.dim != 2:
        raise UnsupportedDimension("harmonic conjugates need dimension 2")
    x, y = ctx.coords
    if not poly_laplacian(u, ctx).is_zero():
        raise NotHarmonic("input is not harmonic")
    ux = u.partial(x)
    uy_at0 = u.partial(y).substitute(y, Fraction(0))
    return ux.integrate(y) - uy_at0.integrate(x)
