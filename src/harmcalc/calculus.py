"""Differential operators on expressions and polynomials.

Partials, gradients, iterated Laplacians, divergence, Jacobian, normal
derivatives (sphere and general quadric-style surfaces), homogeneous and
Taylor expansions of polynomials, and the planar harmonic conjugate.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NonPolynomialInput,
    NotHarmonic,
    UnknownVariable,
    UnsupportedDimension,
    ZeroGradientField,
)
from .expr import Expr, Polynomial, poly_sum, restrict_to_sphere
from .scalar import Scalar


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
    """Laplacian of a plain polynomial in the coordinates of ctx."""
    return p.laplacian(ctx.coords)


def divergence_of(vec, ctx):
    if len(vec) != ctx.dim:
        raise DimensionMismatch(
            "vector field has %d components in dimension %d" % (len(vec), ctx.dim)
        )
    raw = []
    for v, comp in zip(ctx.coords, vec):
        raw.extend(_partial_raw(ctx, comp.terms, v))
    return Expr._from_raw(ctx, raw)


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
    radial = _weighted_partials(ctx, e, [Polynomial.var(v) for v in ctx.coords])
    return Expr.from_poly(ctx, restrict_to_sphere(radial, ctx))


def normal_d_surface(e, q, ctx=None):
    """Normal derivative with respect to the level surface q = const.

    Returns (grad e . grad q)/|grad q| with the squarefree part of
    grad q . grad q kept as a symbolic radical, or as an exact constant
    when grad q . grad q is constant (a plane); the point is not
    restricted to the surface.
    """
    ctx = ctx or e.ctx
    if q.is_constant():
        raise ZeroGradientField("surface polynomial is constant")
    grads = [q.partial(v) for v in ctx.coords]
    gram = poly_sum([g * g for g in grads])
    if gram.is_zero():
        raise ZeroGradientField("grad q . grad q vanishes identically")
    along = _weighted_partials(ctx, e, grads)
    if gram.is_constant():
        return along.scale(Scalar.half_power(gram.constant_term().as_fraction(), -1))
    return along * Expr.base_power(ctx, gram, -1)


def _weighted_partials(ctx, e, weights):
    """sum_i weights[i] * d e / d x_i, canonicalized once."""
    raw = []
    for w, v in zip(weights, ctx.coords):
        raw.extend((w * p, fac) for p, fac in _partial_raw(ctx, e.terms, v))
    return Expr._from_raw(ctx, raw)


# ---------------------------------------------------------------------------
# expansions


def _check_poly(p):
    if not isinstance(p, Polynomial):
        raise NonPolynomialInput("expected a polynomial")
    return p


# the expansion parameter of `_graded_parts`; no DSL name contains a space
_T = " t"


def _graded_parts(p, ctx, about):
    """{m: degree-m graded component of p}, optionally about a point.

    With `about` (Fractions or auxiliary variable names, one per
    coordinate) the components are those of the expansion of p in powers
    of x - b: substituting x_i -> b_i + t (x_i - b_i) once makes the
    degree-m component the coefficient of t^m, read off by setting t = 1.
    """
    if about is None:
        return p.homogeneous_parts(ctx.coords)
    t = Polynomial.var(_T)
    for v, a in zip(ctx.coords, about):
        b = Polynomial.var(a) if isinstance(a, str) else Polynomial.const(a)
        p = p.substitute(v, b + t * (Polynomial.var(v) - b))
    return {m: part.substitute(_T, 1) for m, part in p.homogeneous_parts([_T]).items()}


def homogeneous_part(p, m, ctx, about=None):
    """Degree-m graded component, optionally in the expansion about a point.

    With `about` (a list of Fractions or auxiliary variable names, one per
    coordinate) the degree-m component of p(b + (x-b)) is returned fully
    expanded in the coordinates and the point symbols.
    """
    return _graded_parts(_check_poly(p), ctx, about).get(m, Polynomial())


def taylor_poly(p, m, ctx, about=None):
    """Sum of the homogeneous components of degree at most m."""
    parts = _graded_parts(_check_poly(p), ctx, about)
    return poly_sum(part for k, part in parts.items() if k <= m)


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
