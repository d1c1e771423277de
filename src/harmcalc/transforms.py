"""Inversions and Kelvin transforms.

There is one inversion: the reflection x* = c + r^2 (x - c)/|x - c|^2 in
the sphere with center c and radius r, given here as the pair (c, r^2).
In the unit sphere it gives the Kelvin transform
u -> ||x||^(2-n) u(x/||x||^2).  Phi, the map that exchanges the unit ball
and the upper half-space, is the reflection in the sphere with center
S = (0, ..., 0, -1) and radius sqrt(2), and the modified Kelvin transform
`kelvin_h` is the Kelvin transform in that sphere, an exact involution in
this algebra (Axler, Bourdon and Ramey, Harmonic Function Theory, ch. 4
and ch. 7).  Hyperplanes are the other mirror kind.

`_invert` writes the reflection over the common denominator
Q = |x - c|^2, the same for a rational point and for the coordinate map.
One routine (`_kelvin`) serves both Kelvin transforms and pulls an
expression back by translation: with T(y) = P(c + y) and T_d its part of
degree d, P(x*) = sum_d r^(2d) T_d(x - c) Q^(-d), so P is translated to
the center, split into homogeneous parts and each part translated back,
with no product of polynomials.  The Kelvin transform here is also the
one the exterior solvers of `bvp` read.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    CenterSingularity,
    DimensionMismatch,
    EmptyInterior,
    UnsupportedBase,
    UnsupportedDimension,
    UnsupportedInputError,
    ZeroGradientField,
)
from .expr import Expr, context_of
from .poly import Polynomial, quadratic_poly
from .record import Record
from .scalar import Scalar


class UnitSphere(Record):
    __slots__ = ()


class SphereMirror(Record):
    """The sphere with a center (a tuple of Fractions) and a radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        # radius 0 sends every point to the center, and -r would act as r
        if radius <= 0:
            raise EmptyInterior("a sphere mirror needs a positive radius")
        Record.__init__(self, center, radius)


class HyperplaneMirror(Record):
    """The hyperplane normal.x = offset."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        Record.__init__(self, normal, offset)


def _mirror_vector(vec, n):
    """A mirror's center or normal as Fractions, checked to have n entries."""
    if len(vec) != n:
        raise DimensionMismatch("the mirror needs %d coordinates, got %d" % (n, len(vec)))
    return tuple(Fraction(v) for v in vec)


def _sphere(mirror, n):
    """A sphere mirror in n coordinates as (center, r^2); a pair is one already."""
    if isinstance(mirror, tuple):
        return mirror
    if isinstance(mirror, UnitSphere):
        return (Fraction(0),) * n, Fraction(1)
    if isinstance(mirror, SphereMirror):
        return _mirror_vector(mirror.center, n), Fraction(mirror.radius) ** 2
    raise UnsupportedInputError("unknown mirror %r" % (mirror,))


def _south_pole(n):
    """The sphere (S, 2), S = (0, ..., 0, -1), of Phi and `kelvin_h`."""
    if n < 2:
        raise UnsupportedDimension("the south-pole inversion needs dimension >= 2")
    return (Fraction(0),) * (n - 1) + (Fraction(-1),), Fraction(2)


def _invert(xs, sphere):
    """The reflection of xs (rationals, or the coordinate polynomials) in a sphere.

    For the sphere (c, r^2) it is c + r^2 (x - c)/Q, Q = |x - c|^2, returned
    as (N, Q) with N_i = c_i Q + r^2 (x_i - c_i), so that x* = N/Q.
    """
    center, r2 = sphere
    diff = [x - c for x, c in zip(xs, center)]
    q = sum(d * d for d in diff)
    return [q * c + d * r2 for c, d in zip(center, diff)], q


def _reflect_hyperplane(xs, mirror):
    """The reflection x - 2 (b.x - t) b/|b|^2 of xs in the hyperplane b.x = t."""
    b = _mirror_vector(mirror.normal, len(xs))
    bb = sum(v * v for v in b)
    if bb == 0:
        raise ZeroGradientField("hyperplane normal must be nonzero")
    inner = sum(x * v for x, v in zip(xs, b)) - Fraction(mirror.offset)
    return tuple(x - inner * (2 * v / bb) for x, v in zip(xs, b))


def reflect_point(point, mirror):
    """Reflection of a rational point in the given mirror."""
    xs = tuple(Fraction(v) for v in point)
    if isinstance(mirror, HyperplaneMirror):
        return _reflect_hyperplane(xs, mirror)
    nums, q = _invert(xs, _sphere(mirror, len(xs)))
    if q == 0:
        raise CenterSingularity("cannot reflect the sphere center")
    return tuple(nm / q for nm in nums)


def reflect_map(mirror, ctx):
    """Reflection of the coordinate vector as a tuple of expressions."""
    xs = [Polynomial.var(v) for v in ctx.coords]
    if isinstance(mirror, HyperplaneMirror):
        # a hyperplane's reflection is a polynomial map
        return tuple(Expr.from_poly(ctx, v) for v in _reflect_hyperplane(xs, mirror))
    nums, q = _invert(xs, _sphere(mirror, ctx.dim))
    inv = Expr.base_power(ctx, q, -2)
    return tuple(Expr.from_poly(ctx, nm) * inv for nm in nums)


def phi_map(ctx):
    """Phi, the reflection in the sphere with center (0, ..., 0, -1) and radius sqrt(2).

    Returns one expression per coordinate; in split coordinates (x, y) it
    is (2x, 1 - y^2 - ||x||^2)/((1 + y)^2 + ||x||^2).
    """
    return reflect_map(_south_pole(ctx.dim), ctx)


def _kelvin(e, ctx, sphere):
    """The Kelvin transform (r/|x - c|)^(n-2) e(x*) in the sphere (c, r^2).

    Q = |x - c|^2 is the base, the norm base if c = 0, and
    x* = c + r^2 (x - c)/Q.  A factor Q^(h/2) pulls back to
    r^(2h) Q^(-h/2).  With T(y) = P(c + y) and T_d its part of degree d,
    P(x*) = sum_d r^(2d) T_d(x - c) Q^(-d), and `Polynomial.parts_about`
    gives the parts T_d(x - c) with no product, so none is formed before
    `Expr._from_raw`.  In the unit sphere nothing is translated and every
    power of r is 1, so each homogeneous part keeps its coefficients.  The
    centers here are integral, so Q is primitive.
    """
    n = ctx.dim
    center, r2 = sphere
    if any(center):
        q = quadratic_poly(((v, 1, -2 * c) for v, c in zip(ctx.coords, center)), sum(c * c for c in center))
        bid = ctx.register_base(q)[0]
    else:
        bid = ctx.norm_base
    front = Scalar.half_power(r2, n - 2)
    raw = []
    for poly, fac in e.terms:
        if any(b != bid or j for b, _, j in fac):
            raise UnsupportedBase(
                "a Kelvin transform accepts powers of |x - c|^2 only, the squared "
                "distance to the center c of its sphere, without logs"
            )
        h = fac[0][1] if fac else 0
        for d, part in poly.parts_about(ctx.coords, center).items():
            if r2 != 1:
                part = part.scale(front * r2 ** (h + d))
            raw.append((part, ((bid, 2 - n - 2 * d - h, 0),)))
    return Expr._from_raw(ctx, raw)


def kelvin(e, ctx=None):
    """Kelvin transform: ||x||^(2-n) e(x/||x||^2), exact in this algebra.

    Accepts sums of polynomials times integer-half norm powers; a monomial
    of coordinate degree d picks up the factor ||x||^(-2d) and any norm
    power is negated.
    """
    ctx = context_of(e, ctx)
    return _kelvin(e, ctx, _sphere(UnitSphere(), ctx.dim))


def kelvin_h(e, ctx=None):
    """Modified Kelvin transform 2^((n-2)/2) Q^((2-n)/2) u(Phi(z)).

    Q is the squared distance to the south pole, and this is the Kelvin
    transform in the sphere of Phi.  Expressions with powers of Q (such
    as its own outputs) are accepted; the transform composed with itself
    is the identity.
    """
    ctx = context_of(e, ctx)
    return _kelvin(e, ctx, _south_pole(ctx.dim))
