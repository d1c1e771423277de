"""Differential operators on expressions and polynomials.

Partials, gradients, iterated Laplacians, divergence, Jacobian, normal
derivatives (sphere and general quadric-style surfaces), homogeneous and
Taylor expansions of polynomials, and the planar harmonic conjugate.

The Laplacian of an Expr term is taken in closed form.  Write the term as
P * prod_b F_b(B_b) with F_b = B_b^(h/2) * log(B_b)^j.  Then

    Delta(P prod F) = Delta P * prod F
                    + 2 sum_b F_b' (grad P . grad B_b) prod_(c != b) F_c
                    + P sum_b (F_b' Delta B_b + F_b'' |grad B_b|^2) prod_(c != b) F_c
                    + 2 P sum_(b < c) F_b' F_c' (grad B_b . grad B_c) prod_(others) F,

where F' = (h/2) B^((h-2)/2) log(B)^j + j B^((h-2)/2) log(B)^(j-1), and F''
is that rule applied twice.  Per term and base, 2 grad P . grad B_b +
P Delta B_b is one pass over P's terms of B_b's first-order `Stencil`
(`Context.base_first_order`, the stencil built once per layout), and each
F' piece scales it by a rational.  grad B_b . grad B_c and the quotient
G_b = |grad B_b|^2 / B_b, where B_b divides it (4 for the norm, 4|y|^2 for
the Poisson base 1 - 2x.y + |x|^2|y|^2, 4 for |x - c|^2), are memoized on
the Context, so each kind of F'' piece and each pair of bases costs one
product by P.  With G_b, a piece c B^(h/2) log(B)^j of F'' whose B the
canonical form would pull out (`expr.pulls_base`) is written
c P G_b B^((h+2)/2) log(B)^j, so `Expr._from_raw` has no division by B
left to do; the other pieces, which keep their power there, keep
P |grad B_b|^2.  First derivatives use the termwise product rule.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NotHarmonic,
    UnknownVariable,
    UnsupportedDimension,
    UnsupportedInputError,
    ZeroGradientField,
)
from .expr import Expr, context_of, pulls_base, restrict_to_sphere
from .poly import Polynomial, poly_sum, require_polynomial
from .scalar import Scalar


def _partial_raw(ctx, terms, var):
    """Termwise product-rule derivative, without canonicalizing.

    A base factor F(B) contributes F'(B) (`_derivative`) times dB/dvar.
    """
    raw = []
    for poly, fac in terms:
        dp = poly.partial(var)
        if not dp.is_zero():
            raw.append((dp, fac))
        for idx, (b, h, j) in enumerate(fac):
            db = ctx.base_poly(b).partial(var)
            if db.is_zero():
                continue
            rest = fac[:idx] + fac[idx + 1 :]
            pdb = poly * db
            for c, h2, j2 in _derivative([(1, h, j)]):
                raw.append((pdb.scale(c), tuple(sorted(rest + ((b, h2, j2),)))))
    return raw


def expr_partial(e, var, ctx=None):
    """Single partial derivative of an Expr."""
    ctx = context_of(e, ctx)
    return Expr._from_raw(ctx, _partial_raw(ctx, e.terms, var))


def partial_d(e, schedule, ctx=None):
    """Iterated partials; schedule is a list of (variable, multiplicity).
    A negative multiplicity is an UnsupportedInputError."""
    ctx = context_of(e, ctx)
    out = e
    for item in schedule:
        var, mult = item if isinstance(item, tuple) else (item, 1)
        if var not in ctx.var_rank:
            raise UnknownVariable("cannot differentiate by unknown variable %r" % (var,))
        if mult < 0:
            raise UnsupportedInputError("multiplicity must be at least 0, got %d" % mult)
        for _ in range(mult):
            out = expr_partial(out, var, ctx)
    return out


def gradient_of(e, ctx=None):
    ctx = context_of(e, ctx)
    return tuple(expr_partial(e, v, ctx) for v in ctx.coords)


def _derivative(pieces):
    """d/dB of sum c B^(h/2) log(B)^j over pieces [(c, h, j)], like terms combined."""
    out = {}
    for c, h, j in pieces:
        for w, hj in ((Fraction(h, 2), (h - 2, j)), (j, (h - 2, j - 1))):
            if w:
                out[hj] = out.get(hj, 0) + c * w
    return [(c, h, j) for (h, j), c in out.items() if c]


def _laplacian_raw(ctx, poly, fac):
    """Raw terms of the Laplacian of poly * prod fac, by the closed form above.

    Each product P |grad B|^2 or P G is formed only if a piece of F'' uses it.
    """
    coords = ctx.coords
    raw = [(poly.laplacian(coords), fac)]
    firsts = [_derivative([(1, h, j)]) for _, h, j in fac]

    def put(*changes):
        out = list(fac)
        for i, h, j in changes:
            out[i] = (fac[i][0], h, j)
        return tuple(out)

    for i, (b, _, _) in enumerate(fac):
        first = ctx.base_first_order(b, poly)
        raw.extend((first.scale(c), put((i, h, j))) for c, h, j in firsts[i])
        # with |grad B|^2 = G B, a piece _from_raw would pull B from (a log or
        # a negative power) is P G one power of B up; the others keep P |grad B|^2
        quotient = ctx.base_gradient_quotient(b)
        seconds = {}
        for c, h, j in _derivative(firsts[i]):
            up = quotient is not None and pulls_base(h, j)
            if up not in seconds:
                seconds[up] = poly * (quotient if up else ctx.base_gradient_dot(b, b))
            raw.append((seconds[up].scale(c), put((i, h + 2 * up, j))))
        for k in range(i + 1, len(fac)):
            cross = poly * ctx.base_gradient_dot(b, fac[k][0])
            for c1, h1, j1 in firsts[i]:
                for c2, h2, j2 in firsts[k]:
                    raw.append((cross.scale(2 * c1 * c2), put((i, h1, j1), (k, h2, j2))))
    return raw


def laplacian_of(e, power=1, ctx=None):
    """The power-fold iterated Laplacian of e in the coordinates.

    A term P * prod_b F_b(B_b), F_b = B_b^(h/2) log(B_b)^j, goes to
    Delta P prod F + sum_b (2 grad P . grad B_b + P Delta B_b) F_b' prod_(c != b) F_c
    + P sum_b |grad B_b|^2 F_b'' prod_(c != b) F_c
    + 2 P sum_(b < c) (grad B_b . grad B_c) F_b' F_c' prod_(others) F
    (see the module docstring), and each Laplacian canonicalizes the raw
    terms of all the terms in one `Expr._from_raw`.  A negative power is an
    UnsupportedInputError.
    """
    ctx = context_of(e, ctx)
    if power < 0:
        raise UnsupportedInputError("Laplacian power must be at least 0, got %d" % power)
    out = e
    for _ in range(power):
        out = Expr._from_raw(ctx, [t for poly, fac in out.terms for t in _laplacian_raw(ctx, poly, fac)])
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
        raw.extend(_partial_raw(context_of(comp, ctx), comp.terms, v))
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
    ctx = context_of(e, ctx)
    radial = _weighted_partials(ctx, e, [Polynomial.var(v) for v in ctx.coords])
    return Expr.from_poly(ctx, restrict_to_sphere(radial, ctx))


def normal_d_surface(e, q, ctx=None):
    """Normal derivative with respect to the level surface q = const.

    Returns (grad e . grad q)/|grad q| with the squarefree part of
    grad q . grad q kept as a symbolic radical, or as an exact constant
    when grad q . grad q is constant (a plane); the point is not
    restricted to the surface.  A q that is not a Polynomial is
    NonPolynomialInput.
    """
    ctx = context_of(e, ctx)
    q = require_polynomial(q, "surface")
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


def _graded_parts(p, ctx, about, degrees):
    """{m: degree-m graded component of p} for m in degrees, optionally
    about a point.

    With `about` (Fractions or auxiliary variable names, one per
    coordinate) the components are those of the expansion of p in powers
    of x - b: with T(y) = p(b + y) and T_m its part of degree m, the
    degree-m component is T_m(x - b) (`Polynomial.parts_about`).  An
    `about` of other than one entry per coordinate is a DimensionMismatch,
    and a coordinate among its names an UnsupportedInputError.
    """
    if about is None:
        about = (0,) * ctx.dim
    if len(about) != ctx.dim:
        raise DimensionMismatch("about needs %d values, got %d" % (ctx.dim, len(about)))
    if set(about) & set(ctx.coords):
        raise UnsupportedInputError("an expansion point cannot name a coordinate")
    return p.parts_about(ctx.coords, [Polynomial.var(a) if isinstance(a, str) else a for a in about], degrees)


def homogeneous_part(p, m, ctx, about=None):
    """Degree-m graded component, optionally in the expansion about a point.

    With `about` (a list of Fractions or auxiliary variable names, one per
    coordinate, else DimensionMismatch) the degree-m component of
    p(b + (x-b)) is returned fully expanded in the coordinates and the
    point symbols.  A p that is not a Polynomial is NonPolynomialInput.
    """
    return _graded_parts(require_polynomial(p, "expansion input"), ctx, about, (m,)).get(m, Polynomial())


def taylor_poly(p, m, ctx, about=None):
    """Sum of the homogeneous components of degree at most m."""
    parts = _graded_parts(require_polynomial(p, "expansion input"), ctx, about, range(m + 1))
    return poly_sum(parts.values())


def harmonic_conjugate(u, ctx):
    """Harmonic conjugate v of u on the plane with v(0,0) = 0."""
    u = require_polynomial(u, "harmonic conjugate input")
    if ctx.dim != 2:
        raise UnsupportedDimension("harmonic conjugates need dimension 2")
    x, y = ctx.coords
    if not poly_laplacian(u, ctx).is_zero():
        raise NotHarmonic("input is not harmonic")
    ux = u.partial(x)
    uy_at0 = u.partial(y).substitute(y, Fraction(0))
    return ux.integrate(y) - uy_at0.integrate(x)
