"""Exact integration over spheres, balls, and ellipsoids.

Sphere integrals use the classical monomial rule for normalized surface
measure; ball integrals convert to polar coordinates; ellipsoid integrals
are affine pushforwards of ball integrals, with the area integral obtained
from the coarea identity (differentiate the volume integral in the level
parameter).

`Quadratic(b, c, d)` is the one quadric type of the package: the ellipsoid
b.x^2 + c.x + d < 0 here, and the Dirichlet or Neumann region and the
anti-Laplacian multiple in `bvp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Tuple

from .errors import (
    DimensionMismatch,
    DivergentRadialIntegral,
    EmptyInterior,
    NonPositiveAxis,
    UnsupportedDimension,
    UnsupportedRadialClass,
)
from .expr import Polynomial, poly_sum
from .scalar import ONE, Scalar


def unit_ball_volume(n):
    """Volume of the unit ball as an exact Scalar."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n % 2 == 0:
        k = n // 2
        return Scalar.from_fraction(Fraction(1, factorial(k))) * Scalar.pi_power(n)
    k = (n - 1) // 2
    odd_fact = 1
    for i in range(1, n + 1, 2):
        odd_fact *= i
    return Scalar.from_fraction(Fraction(2 ** (k + 1), odd_fact)) * Scalar.pi_power(
        2 * k
    )


def unit_sphere_area(n):
    """Surface area of the unit sphere: n times the ball volume."""
    if n < 2:
        raise UnsupportedDimension("surface area needs dimension >= 2")
    return Scalar.from_fraction(n) * unit_ball_volume(n)


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_monomial_integral(exponents, n):
    """Integral of prod x_i^(a_i) over the unit sphere, normalized measure."""
    total = 0
    num = 1
    for a in exponents:
        if a % 2:
            return Fraction(0)
        num *= _double_factorial(a - 1)
        total += a
    den = 1
    for j in range(total // 2):
        den *= n + 2 * j
    return Fraction(num, den)


def integrate_sphere(p, ctx):
    """Integral over the unit sphere with normalized surface measure.

    Coordinates are integrated out; auxiliary variables pass through, so
    the result is a Scalar for pure coordinate polynomials and a
    Polynomial in the auxiliary variables otherwise.
    """
    coords = set(ctx.coords)
    acc = Polynomial()
    for mono, coeff in p.terms.items():
        exps = []
        rest = []
        for v, e in mono:
            if v in coords:
                exps.append(e)
            else:
                rest.append((v, e))
        w = sphere_monomial_integral(exps, ctx.dim)
        if w:
            acc = acc + Polynomial({tuple(rest): coeff * w})
    return _collapse(acc)


def _collapse(poly):
    if poly.is_constant():
        return poly.constant_term()
    return poly


def _as_poly_result(x):
    return x if isinstance(x, Polynomial) else Polynomial.const(x)


# ---------------------------------------------------------------------------
# radial weights


@dataclass(frozen=True)
class RadialFunction:
    """Sum of c * r^a * log^k r, optionally all over (c0 + c1 r).

    When the linear denominator is present no log powers are allowed; this
    class covers every radial weight the ball integrator supports.
    """

    terms: Tuple[Tuple[Scalar, int, int], ...] = ((ONE, 0, 0),)
    lin_den: Optional[Tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.lin_den is not None:
            c0, c1 = self.lin_den
            if c0 <= 0 or c1 <= 0:
                raise UnsupportedRadialClass(
                    "linear denominator needs positive coefficients"
                )
            if any(k for _, _, k in self.terms):
                raise UnsupportedRadialClass(
                    "log powers cannot be combined with a linear denominator"
                )

    @staticmethod
    def one():
        return RadialFunction()

    @staticmethod
    def power(a, log_pow=0, coeff=1):
        c = coeff if isinstance(coeff, Scalar) else Scalar.from_fraction(coeff)
        return RadialFunction(((c, a, log_pow),))

    @staticmethod
    def linear_reciprocal(c0, c1):
        """1/(c0 + c1 r) with positive rational coefficients."""
        return RadialFunction(((ONE, 0, 0),), (Fraction(c0), Fraction(c1)))


def power_log_integral_01(q, k):
    """Integral of r^q log^k r over (0,1): (-1)^k k! / (q+1)^(k+1)."""
    if q <= -1:
        raise DivergentRadialIntegral("r^%d log^%d r diverges on (0,1)" % (q, k))
    sign = -1 if k % 2 else 1
    return Fraction(sign * factorial(k), (q + 1) ** (k + 1))


def linear_denominator_integral_01(q, c0, c1, _memo={}):
    """Integral of r^q/(c0 + c1 r) over (0,1), exact with a log term."""
    if q < 0:
        raise DivergentRadialIntegral("r^%d/(c0+c1 r) diverges on (0,1)" % q)
    key = (q, c0, c1)
    if key in _memo:
        return _memo[key]
    if q == 0:
        out = Scalar.log_fraction((c0 + c1) / c0) * Scalar.from_fraction(
            Fraction(1) / c1
        )
    else:
        prev = linear_denominator_integral_01(q - 1, c0, c1)
        out = (
            Scalar.from_fraction(Fraction(1, q)) - prev * Scalar.from_fraction(c0)
        ) * Scalar.from_fraction(Fraction(1) / c1)
    _memo[key] = out
    return out


def _radial_moment(q, radial):
    """Integral of r^q * radial(r) over (0,1) as a Scalar."""
    total = Scalar()
    if radial.lin_den is None:
        for c, a, k in radial.terms:
            total = total + c * Scalar.from_fraction(power_log_integral_01(q + a, k))
        return total
    c0, c1 = radial.lin_den
    for c, a, _ in radial.terms:
        total = total + c * linear_denominator_integral_01(q + a, c0, c1)
    return total


def integrate_ball(p, radial, ctx):
    """Integral of p(x) * radial(||x||) over the unit ball, volume measure."""
    if isinstance(radial, (int, Fraction)):
        if radial != 1:
            radial = RadialFunction.power(0, coeff=radial)
        else:
            radial = RadialFunction.one()
    n = ctx.dim
    nv = Scalar.from_fraction(n) * unit_ball_volume(n)
    acc = Polynomial()
    for m, part in p.homogeneous_parts(ctx.coords).items():
        mean = _as_poly_result(integrate_sphere(part, ctx))
        if mean.is_zero():
            continue
        moment = _radial_moment(n - 1 + m, radial)
        acc = acc + mean.scale(nv * moment)
    return _collapse(acc)


# ---------------------------------------------------------------------------
# ellipsoids


@dataclass(frozen=True)
class Quadratic:
    """The quadric q = b.x^2 + c.x + d; c defaults to zeros.

    Dirichlet solves and quadric-multiple anti-Laplacians take any signs.
    Ellipsoid integrals and Neumann solves need the ellipsoid q < 0: every
    b_i > 0 and rho^2 > 0, checked where they integrate.
    """

    b: Tuple[Fraction, ...]
    c: Tuple[Fraction, ...] = ()
    d: Fraction = Fraction(-1)

    def __post_init__(self):
        b = tuple(Fraction(v) for v in self.b)
        c = tuple(Fraction(v) for v in self.c) if self.c else (Fraction(0),) * len(b)
        if len(c) != len(b):
            raise DimensionMismatch("b and c must have equal length")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", Fraction(self.d))

    def poly(self, ctx):
        """b.x^2 + c.x + d in the coordinates of ctx."""
        if len(self.b) != ctx.dim:
            raise DimensionMismatch(
                "the quadric needs %d coefficients, got %d" % (ctx.dim, len(self.b))
            )
        parts = [Polynomial.const(self.d)]
        for v, bi, ci in zip(ctx.coords, self.b, self.c):
            if bi:
                parts.append(Polynomial.var(v, 2).scale(bi))
            if ci:
                parts.append(Polynomial.var(v).scale(ci))
        return poly_sum(parts)

    def rho_sq(self):
        return (
            sum((ci * ci) / (4 * bi) for bi, ci in zip(self.b, self.c)) - self.d
        )

    def center(self):
        return tuple(-ci / (2 * bi) for bi, ci in zip(self.b, self.c))


def _even_moment_table(p, e, ctx):
    """Shift p to the ellipsoid center and collect even ball moments.

    Yields (total degree m, rational axis factor prod b_i^(-beta_i/2),
    sphere weight, coefficient polynomial in auxiliary variables) for each
    all-even coordinate monomial of the shifted polynomial.  Both ellipsoid
    integrals come through here, so this is where the quadric must be an
    ellipsoid: every b_i > 0, then rho^2 > 0, then one axis per coordinate.
    """
    if any(v <= 0 for v in e.b):
        raise NonPositiveAxis("every quadratic coefficient must be positive")
    if e.rho_sq() <= 0:
        raise EmptyInterior("the region b.x^2 + c.x + d < 0 is empty")
    e.poly(ctx)  # the dimension check
    shifted = p
    for v, z in zip(ctx.coords, e.center()):
        if z:
            shifted = shifted.substitute(v, Polynomial.var(v) + Polynomial.const(z))
    coords = {v: i for i, v in enumerate(ctx.coords)}
    out = []
    for mono, coeff in shifted.terms.items():
        beta = [0] * ctx.dim
        rest = []
        for v, exp in mono:
            i = coords.get(v)
            if i is None:
                rest.append((v, exp))
            else:
                beta[i] = exp
        if any(x % 2 for x in beta):
            continue
        w = sphere_monomial_integral(beta, ctx.dim)
        axis = Fraction(1)
        for bi, be in zip(e.b, beta):
            axis /= bi ** (be // 2)
        out.append((sum(beta), axis, w, Polynomial({tuple(rest): coeff})))
    return out


def _rho_power(e, k):
    """rho^k as an exact Scalar (rho = sqrt of the rational rho^2)."""
    r2 = e.rho_sq()
    if k % 2 == 0:
        return Scalar.from_fraction(r2 ** (k // 2))
    return Scalar.from_fraction(r2 ** ((k - 1) // 2)) * Scalar.sqrt_fraction(r2)


def _axis_norm(e):
    """1/sqrt(prod b_i)."""
    prod = Fraction(1)
    for bi in e.b:
        prod *= bi
    return Scalar.sqrt_fraction(1 / prod)


def integrate_ellipsoid_volume(p, e, ctx):
    """Integral of p over the open region b.x^2 + c.x + d < 0."""
    n = ctx.dim
    nv = Scalar.from_fraction(n) * unit_ball_volume(n)
    acc = Polynomial()
    for m, axis, w, coeff in _even_moment_table(p, e, ctx):
        if not w:
            continue
        factor = nv * Scalar.from_fraction(w * axis * Fraction(1, n + m))
        acc = acc + coeff.scale(factor * _rho_power(e, n + m))
    return _collapse(acc.scale(_axis_norm(e)))


def integrate_ellipsoid_area(p, e, ctx):
    """Integral of p/|grad q| over the surface b.x^2 + c.x + d = 0.

    Computed with the coarea identity: the volume integral over q < t is a
    polynomial I(rho) in the radius parameter (rho^2 = rho0^2 + t), and the
    area integral is I'(rho)/(2 rho) at t = 0.
    """
    n = ctx.dim
    nv = Scalar.from_fraction(n) * unit_ball_volume(n)
    acc = Polynomial()
    for m, axis, w, coeff in _even_moment_table(p, e, ctx):
        if not w:
            continue
        # volume term A rho^(n+m) with A = nv w axis/(n+m);
        # d/dt at t=0 is A (n+m)/2 rho^(n+m-2) = nv w axis/2 rho^(n+m-2)
        factor = nv * Scalar.from_fraction(w * axis * Fraction(1, 2))
        acc = acc + coeff.scale(factor * _rho_power(e, n + m - 2))
    return _collapse(acc.scale(_axis_norm(e)))
