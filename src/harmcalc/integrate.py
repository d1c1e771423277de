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

from bisect import bisect, insort
from fractions import Fraction
from math import factorial, prod

from .arith import double_factorial
from .errors import (
    DimensionMismatch,
    DivergentRadialIntegral,
    EmptyInterior,
    NonPositiveAxis,
    UnsupportedDimension,
    UnsupportedInputError,
    UnsupportedRadialClass,
)
from .poly import Polynomial, _as_poly, poly_sum, quadratic_poly
from .record import Record
from .scalar import MAX_LINEAR_DENOMINATOR_BITS, MAX_POWER_BITS, ONE, Scalar


def unit_ball_volume(n):
    """Volume of the unit ball as an exact Scalar."""
    if n < 1:
        raise UnsupportedDimension("dimension must be positive")
    if n % 2 == 0:
        k = n // 2
        return Scalar.from_fraction(Fraction(1, factorial(k))) * Scalar.pi_power(n)
    k = (n - 1) // 2
    return Scalar.from_fraction(Fraction(2 ** (k + 1), double_factorial(n))) * Scalar.pi_power(2 * k)


def n_ball_volume(n):
    """n V(B) for n >= 1, V(B) the volume of the unit ball: the area of the
    unit sphere, and the factor of a ball integral in polar coordinates."""
    return Scalar.from_fraction(n) * unit_ball_volume(n)


def unit_sphere_area(n):
    """Surface area of the unit sphere: n times the ball volume."""
    if n < 2:
        raise UnsupportedDimension("surface area needs dimension >= 2")
    return n_ball_volume(n)


def sphere_monomial_integral(exponents, n):
    """Integral of prod x_i^(a_i) over the unit sphere, normalized measure."""
    total = 0
    num = 1
    for a in exponents:
        if a % 2:
            return Fraction(0)
        num *= double_factorial(a - 1)
        total += a
    return Fraction(num, prod(range(n, n + total, 2)))


def integrate_sphere(p, ctx):
    """Integral over the unit sphere with normalized surface measure.

    Coordinates are integrated out; auxiliary variables pass through, so
    the result is a Scalar for pure coordinate polynomials and a
    Polynomial in the auxiliary variables otherwise.
    """
    n = ctx.dim
    return _collapse(p.contract(ctx.coords, lambda exps: sphere_monomial_integral(exps, n)))


def _collapse(poly):
    if poly.is_constant():
        return poly.constant_term()
    return poly


# ---------------------------------------------------------------------------
# radial weights


class RadialFunction(Record):
    """Sum of c * r^a * log^k r with k >= 0, optionally all over (c0 + c1 r).

    `terms` holds the (c, a, k) as (Scalar, int, int); `lin_den` is the
    pair (c0, c1) of Fractions, or None.  When the linear denominator is
    present no log powers are allowed; this class covers every radial
    weight the ball integrator supports.
    """

    __slots__ = ("terms", "lin_den")

    def __init__(self, terms=((ONE, 0, 0),), lin_den=None):
        if any(k < 0 for _, _, k in terms):
            raise UnsupportedRadialClass("log powers must be nonnegative")
        if lin_den is not None:
            c0, c1 = lin_den
            if c0 <= 0 or c1 <= 0:
                raise UnsupportedRadialClass(
                    "linear denominator needs positive coefficients"
                )
            if any(k for _, _, k in terms):
                raise UnsupportedRadialClass(
                    "log powers cannot be combined with a linear denominator"
                )
        Record.__init__(self, terms, lin_den)

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
    """Integral of r^q log^k r over (0,1): (-1)^k k! / (q+1)^(k+1).

    One whose k! and (q+1)^(k+1) together would pass MAX_POWER_BITS bits
    is refused before it is computed.
    """
    if q <= -1:
        raise DivergentRadialIntegral("r^%d log^%d r diverges on (0,1)" % (q, k))
    if k * k.bit_length() + (k + 1) * (q + 1).bit_length() > MAX_POWER_BITS:
        raise UnsupportedInputError(
            "the integral of r^%d log^%d r over (0,1) would pass %d bits" % (q, k, MAX_POWER_BITS)
        )
    sign = -1 if k % 2 else 1
    return Fraction(sign * factorial(k), (q + 1) ** (k + 1))


def linear_denominator_integral_01(q, c0, c1, _memo={}):
    """Integral of r^q/(c0 + c1 r) over (0,1), exact with a log term.

    With a = c0/c1, dividing r^q by r + a gives
    I_q = (S_q + (-a)^q log((c0 + c1)/c0))/c1, where the rational part
    S_q = sum over k < q of (-a)^(q-1-k)/(k+1) is summed by Horner's rule,
    S_k = 1/k - a S_(k-1).  Each step adds about the bits of c0 and c1
    plus two, and works on numbers as large as its result, so the time
    grows with q times the bits of I_q: an I_q that would pass
    MAX_LINEAR_DENOMINATOR_BITS bits is refused before it is computed.
    The log, whose prime factors can cost seconds to find, is taken once
    for c0 and c1, and the sum resumes from the largest k <= q whose S_k
    it has reached for them, so moments asked for in about ascending q, as
    `integrate_ball` asks for its degrees, cost about one pass in all.
    """
    if q < 0:
        raise DivergentRadialIntegral("r^%d/(c0+c1 r) diverges on (0,1)" % q)
    step = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in (c0, c1)) + 2
    if q * step > MAX_LINEAR_DENOMINATOR_BITS:
        raise UnsupportedInputError(
            "the integral of r^%d/(c0+c1 r) over (0,1) would pass %d bits" % (q, MAX_LINEAR_DENOMINATOR_BITS)
        )
    # the log and the (k, S_k) reached, ascending in k, by (c0, c1):
    # bench/workloads.py reads this default to empty it before each timed
    # CLI line, and bench/selftest.py checks that the 1/(c0 + c1 r) line
    # fills it
    if (c0, c1) not in _memo:
        _memo[c0, c1] = Scalar.log_fraction((c0 + c1) / c0), [(0, Fraction(0))]
    log, reached = _memo[c0, c1]
    a = c0 / c1
    j, s = reached[bisect(reached, (q + 1,)) - 1]
    for k in range(j + 1, q + 1):
        s = Fraction(1, k) - a * s
    if j < q:
        insort(reached, (q, s))
    return (log * (-a) ** q + s) / c1


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


def ball_radial_factor(m, radial, n):
    """n V(B) times the integral of r^(n-1+m) * radial(r) over (0,1).

    In polar coordinates the ball integral of p(x) * radial(||x||), for p
    homogeneous of degree m in R^n, is this factor times the normalized
    sphere integral of p.
    """
    return n_ball_volume(n) * _radial_moment(n - 1 + m, radial)


def integrate_ball(p, radial, ctx):
    """Integral of p(x) * radial(||x||) over the unit ball, volume measure."""
    parts = []
    # in ascending degree, for the radial moments' shared Horner sum
    for m, part in sorted(p.homogeneous_parts(ctx.coords).items()):
        mean = _as_poly(integrate_sphere(part, ctx))
        if not mean.is_zero():
            parts.append(mean.scale(ball_radial_factor(m, radial, ctx.dim)))
    return _collapse(poly_sum(parts))


# ---------------------------------------------------------------------------
# ellipsoids


class Quadratic(Record):
    """The quadric q = b.x^2 + c.x + d, with b and c tuples of Fractions and
    d a Fraction; c defaults to zeros.

    Quadric-multiple anti-Laplacians take any signs.  Dirichlet solves
    need the surface q = 0 to have more than one point: when every
    nonzero b_i has one sign s and c_i = 0 wherever b_i = 0, s rho^2 > 0
    over the nonzero b_i, or s rho^2 = 0 with a zero b_i.  Ellipsoid
    integrals and Neumann solves need the ellipsoid q < 0: every b_i > 0
    and rho^2 > 0, checked by `ellipsoid_poly`.
    """

    __slots__ = ("b", "c", "d")

    def __init__(self, b, c=(), d=-1):
        b = tuple(Fraction(v) for v in b)
        c = tuple(Fraction(v) for v in c) if c else (Fraction(0),) * len(b)
        if len(c) != len(b):
            raise DimensionMismatch("b and c must have equal length")
        Record.__init__(self, b, c, Fraction(d))

    def poly(self, ctx):
        """b.x^2 + c.x + d in the coordinates of ctx."""
        if len(self.b) != ctx.dim:
            raise DimensionMismatch(
                "the quadric needs %d coefficients, got %d" % (ctx.dim, len(self.b))
            )
        return quadratic_poly(zip(ctx.coords, self.b, self.c), self.d)

    def ellipsoid_poly(self, ctx):
        """`poly(ctx)` of an ellipsoid: every b_i > 0, then rho^2 > 0, then
        one axis per coordinate, checked in that order."""
        if any(v <= 0 for v in self.b):
            raise NonPositiveAxis("every quadratic coefficient must be positive")
        if self.rho_sq() <= 0:
            raise EmptyInterior("the region b.x^2 + c.x + d < 0 is empty")
        return self.poly(ctx)

    def rho_sq(self):
        """rho^2 = sum c_i^2/(4 b_i) - d, the sum over the nonzero b_i."""
        return sum(ci * ci / (4 * bi) for bi, ci in zip(self.b, self.c) if bi) - self.d

    def center(self):
        return tuple(-ci / (2 * bi) for bi, ci in zip(self.b, self.c))


def _even_moment_table(p, e, ctx):
    """Shift p to the ellipsoid center and collect its ball moments by degree.

    Returns {m: the polynomial in the auxiliary variables that sums, over
    the coordinate monomials x^beta of total degree m of the shifted
    polynomial, the sphere weight of beta times the rational axis factor
    prod b_i^(-beta_i/2) times the coefficient}; a beta with an odd entry
    has sphere weight 0.  Both ellipsoid integrals come through here, so
    this is where the quadric must be an ellipsoid.
    """
    e.ellipsoid_poly(ctx)
    shifted = p
    for v, z in zip(ctx.coords, e.center()):
        if z:
            shifted = shifted.substitute(v, Polynomial.var(v) + Polynomial.const(z))

    def weight(beta):
        axis = Fraction(1)
        for bi, be in zip(e.b, beta):
            axis /= bi ** (be // 2)
        return sphere_monomial_integral(beta, ctx.dim) * axis

    parts = shifted.homogeneous_parts(ctx.coords)
    return {m: part.contract(ctx.coords, weight) for m, part in parts.items()}


def _ellipsoid_integral(p, e, ctx, factor):
    """The sum over degrees m of the moments of p by `_even_moment_table`,
    each times n V(B) factor(m, rho^2), times the axis factor
    1/sqrt(prod b_i)."""
    nv = n_ball_volume(ctx.dim)
    table = _even_moment_table(p, e, ctx)
    # read only now that the axes are checked: rho^2 divides by each b_i
    rho_sq = e.rho_sq()
    acc = poly_sum(part.scale(nv * factor(m, rho_sq)) for m, part in table.items())
    return _collapse(acc.scale(Scalar.half_power(prod(e.b), -1)))


def integrate_ellipsoid_volume(p, e, ctx):
    """Integral of p over the open region b.x^2 + c.x + d < 0."""
    n = ctx.dim
    return _ellipsoid_integral(p, e, ctx, lambda m, r2: Scalar.half_power(r2, n + m) * Fraction(1, n + m))


def integrate_ellipsoid_area(p, e, ctx):
    """Integral of p/|grad q| over the surface b.x^2 + c.x + d = 0.

    Computed with the coarea identity: the volume integral over q < t is a
    polynomial I(rho) in the radius parameter (rho^2 = rho0^2 + t), and the
    area integral is I'(rho)/(2 rho) at t = 0: a volume term A rho^(n+m)
    gives A (n+m)/2 rho^(n+m-2).
    """
    n = ctx.dim
    return _ellipsoid_integral(p, e, ctx, lambda m, r2: Scalar.half_power(r2, n + m - 2) * Fraction(1, 2))
