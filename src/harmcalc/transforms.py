"""Inversions and Kelvin transforms.

Reflections in spheres and hyperplanes, the Kelvin transform
u -> ||x||^(2-n) u(x/||x||^2), the modified inversion through the south
pole that exchanges ball and half-space, and the modified Kelvin
transform, which is an exact involution in this algebra.

One reflection formula (`_reflect`) serves a rational point and the
coordinate map; they differ only in the reciprocal of the squared
distance to a sphere's center.  The Kelvin transform here is also the
one the exterior solvers of `bvp` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import (
    CenterSingularity,
    DimensionMismatch,
    EmptyInterior,
    UnsupportedBase,
    UnsupportedDimension,
    ZeroGradientField,
)
from .expr import Expr, Polynomial, context_of, poly_sum
from .scalar import Scalar


@dataclass(frozen=True)
class UnitSphere:
    pass


@dataclass(frozen=True)
class SphereMirror:
    center: Tuple[Fraction, ...]
    radius: Fraction

    def __post_init__(self):
        # radius 0 sends every point to the center, and -r would act as r
        if self.radius <= 0:
            raise EmptyInterior("a sphere mirror needs a positive radius")


@dataclass(frozen=True)
class HyperplaneMirror:
    normal: Tuple[Fraction, ...]
    offset: Fraction


def _mirror_vector(vec, n):
    """A mirror's center or normal as Fractions, checked to have n entries."""
    if len(vec) != n:
        raise DimensionMismatch("the mirror needs %d coordinates, got %d" % (n, len(vec)))
    return tuple(Fraction(v) for v in vec)


def _reflect(xs, mirror, reciprocal):
    """Reflection of xs (rationals, or the coordinate polynomials) in the mirror.

    A sphere sends x to c + r^2 (x - c)/|x - c|^2, where `reciprocal`
    takes the squared distance |x - c|^2 to its reciprocal; a hyperplane
    b.x = t sends x to x - 2 (b.x - t) b/|b|^2.
    """
    if isinstance(mirror, UnitSphere):
        mirror = SphereMirror((Fraction(0),) * len(xs), Fraction(1))
    if isinstance(mirror, SphereMirror):
        center = _mirror_vector(mirror.center, len(xs))
        diff = [x - c for x, c in zip(xs, center)]
        inv = reciprocal(sum(d * d for d in diff))
        r2 = Fraction(mirror.radius) ** 2
        return tuple(c + d * r2 * inv for c, d in zip(center, diff))
    if isinstance(mirror, HyperplaneMirror):
        b = _mirror_vector(mirror.normal, len(xs))
        bb = sum(v * v for v in b)
        if bb == 0:
            raise ZeroGradientField("hyperplane normal must be nonzero")
        inner = sum(x * v for x, v in zip(xs, b)) - Fraction(mirror.offset)
        return tuple(x - inner * (2 * v / bb) for x, v in zip(xs, b))
    raise TypeError("unknown mirror %r" % (mirror,))


def _point_reciprocal(norm2):
    if norm2 == 0:
        raise CenterSingularity("cannot reflect the sphere center")
    return 1 / norm2


def reflect_point(point, mirror):
    """Reflection of a rational point in the given mirror."""
    return _reflect(tuple(Fraction(v) for v in point), mirror, _point_reciprocal)


def reflect_map(mirror, ctx):
    """Reflection of the coordinate vector as a tuple of expressions."""
    xs = [Polynomial.var(v) for v in ctx.coords]
    out = _reflect(xs, mirror, lambda norm2: Expr.base_power(ctx, norm2, -2))
    # a hyperplane's reflection is a polynomial map
    return tuple(Expr.from_poly(ctx, v) if isinstance(v, Polynomial) else v for v in out)


def kelvin(e, ctx=None):
    """Kelvin transform: ||x||^(2-n) e(x/||x||^2), exact in this algebra.

    Accepts sums of polynomials times integer-half norm powers; a monomial
    of coordinate degree d picks up the factor ||x||^(-2d) and any norm
    power is negated.
    """
    ctx = context_of(e, ctx)
    nb = ctx.norm_base
    n = ctx.dim
    raw = []
    for poly, fac in e.terms:
        h = 0
        for b, hh, j in fac:
            if b != nb or j:
                raise UnsupportedBase(
                    "Kelvin transform accepts norm powers only, without logs"
                )
            h = hh
        for d, part in poly.homogeneous_parts(ctx.coords).items():
            raw.append((part, ((nb, 2 - n - 2 * d - h, 0),)))
    return Expr._from_raw(ctx, raw)


def _phi_numerators(ctx):
    """(numerators, denominator) of the south-pole inversion.

    The map is (2 x_1, ..., 2 x_(n-1), 1 - ||x||^2 - ... ) over the common
    denominator ||z - southPole||^2; in split coordinates the denominator
    is (1 + y)^2 + ||x||^2 and the last numerator is 1 - y^2 - ||x'||^2.
    """
    if ctx.dim < 2:
        raise UnsupportedDimension("the south-pole inversion needs dimension >= 2")
    last = ctx.coords[-1]
    firsts = ctx.coords[:-1]
    den = poly_sum(
        [Polynomial.var(v, 2) for v in firsts]
        + [(Polynomial.var(last) + Polynomial.const(1)) ** 2]
    )
    nums = [Polynomial.var(v).scale(2) for v in firsts]
    nums.append(
        Polynomial.const(1)
        - Polynomial.var(last, 2)
        - poly_sum([Polynomial.var(v, 2) for v in firsts])
    )
    return nums, den


def phi_map(ctx):
    """Modified inversion through the south pole (0, ..., 0, -1).

    Returns one expression per coordinate; the last one is written as
    -1 + 2(1 + last)/denominator, matching the split form.
    """
    nums, den = _phi_numerators(ctx)
    inv = Expr.base_power(ctx, den, -2)
    return tuple(Expr.from_poly(ctx, nm) * inv for nm in nums)


def kelvin_h(e, ctx=None):
    """Modified Kelvin transform 2^((n-2)/2) Q^((2-n)/2) u(Phi(z)).

    Q is the squared distance to the south pole.  Polynomials and previous
    outputs (which carry Q powers) are accepted; the transform composed
    with itself is the identity.
    """
    ctx = context_of(e, ctx)
    n = ctx.dim
    nums, den = _phi_numerators(ctx)
    bid, content = ctx.register_base(den)
    if content != 1:
        raise AssertionError("south pole base should be primitive")
    front = Scalar.half_power(2, n - 2)
    num_for = dict(zip(ctx.coords, nums))
    powers = {}  # (coordinate, exponent) -> its numerator to that power
    raw = []
    for poly, fac in e.terms:
        h = 0
        for b, hh, j in fac:
            if b != bid or j:
                raise UnsupportedBase(
                    "modified Kelvin transform accepts powers of the "
                    "south-pole base only"
                )
            h = hh
        # Q(Phi(z)) = 4/Q exactly, so Q^(h/2) pulls back to 2^h Q^(-h/2)
        for exps, piece in poly.coefficients(ctx.coords).items():
            if not piece.is_constant():
                raise UnsupportedBase(
                    "modified Kelvin transform works on coordinate polynomials"
                )
            for v, exp in zip(ctx.coords, exps):
                if exp:
                    pw = powers.get((v, exp))
                    if pw is None:
                        pw = powers[v, exp] = num_for[v] ** exp
                    piece = piece * pw
            deg = sum(exps)
            piece = piece.scale(front * Scalar.from_fraction(Fraction(2) ** h))
            raw.append((piece, ((bid, 2 - n - 2 * deg - h, 0),)))
    return Expr._from_raw(ctx, raw)
