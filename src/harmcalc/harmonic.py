"""Structure theory of harmonic polynomials.

Dimension counts, the unique decomposition p = sum h_k ||x||^(2k) with
harmonic h_k, deterministic bases of the homogeneous harmonic spaces
(optionally orthonormalized under a pluggable inner product), and extended
zonal harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .calculus import poly_laplacian
from .errors import NonPolynomialInput, UnsupportedDimension, UnsupportedScalarNorm
from .expr import Context, Polynomial, dot_poly, monomials, poly_sum
from .integrate import RadialFunction, integrate_ball, integrate_sphere
from .scalar import Scalar, scalar_sqrt


def dim_harmonic(m, n):
    """Dimension of the space of degree-m homogeneous harmonics in R^n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if m == 0:
        return 1
    if m == 1:
        return n
    return comb(n + m - 1, n - 1) - comb(n + m - 3, n - 1)


def _decompose_homogeneous(p, k, ctx):
    """dict j -> harmonic part of p = sum_j ||x||^(2j) h_(k-2j)."""
    if p.is_zero():
        return {}
    if k <= 1:
        return {0: p}
    lap = poly_laplacian(p, ctx)
    if lap.is_zero():
        return {0: p}
    sub = _decompose_homogeneous(lap, k - 2, ctx)
    norm = ctx.norm_sq_poly()
    n = ctx.dim
    out = {}
    for i, g in sub.items():
        j = i + 1
        # Laplacian of ||x||^(2j) h_m is 2j(2m + n + 2j - 2) ||x||^(2j-2) h_m
        out[j] = g.scale(Fraction(1, 2 * j * (2 * k - 2 * j + n - 2)))
    out[0] = p - poly_sum(norm**j * h for j, h in out.items())
    return {j: h for j, h in out.items() if not h.is_zero()}


def harmonic_decompose(p, ctx):
    """The unique list of (harmonic polynomial, even norm exponent) pairs.

    The weighted sum of the pairs reconstructs p; exponents are strictly
    increasing and zero parts are dropped.
    """
    if not isinstance(p, Polynomial):
        raise NonPolynomialInput("harmonic decomposition expects a polynomial")
    groups = {}
    for k, part in p.homogeneous_parts(ctx.coords).items():
        for j, h in _decompose_homogeneous(part, k, ctx).items():
            groups.setdefault(2 * j, []).append(h)
    acc = sorted((e, poly_sum(hs)) for e, hs in groups.items())
    return [(h, e) for e, h in acc if not h.is_zero()]


def harmonic_parts_by_degree(p, ctx):
    """Boundary data on the unit sphere as dict degree -> harmonic part.

    Drops the norm powers of the decomposition (they are 1 on the sphere)
    and regroups the harmonic pieces by homogeneity degree.
    """
    h = poly_sum(h for h, _ in harmonic_decompose(p, ctx))
    return dict(sorted(h.homogeneous_parts(ctx.coords).items()))


# ---------------------------------------------------------------------------
# bases


def _harmonic_extension(q, eps, ctx):
    """The harmonic polynomial x1^eps q(x') + O(x1^2) extending Cauchy data.

    q is a polynomial in the coordinates after the first; the alternating
    series sum_k (-1)^k x1^(2k+eps) lap'^k q / (2k+eps)! terminates and is
    annihilated by the Laplacian.
    """
    first = ctx.coords[0]
    rest = ctx.coords[1:]

    def terms():
        k = 0
        cur = q
        while not cur.is_zero():
            e = 2 * k + eps
            term = cur.scale(Fraction(-1 if k % 2 else 1, factorial(e)))
            yield Polynomial.var(first, e) * term if e else term
            cur = poly_sum(cur.partial(v).partial(v) for v in rest)
            k += 1

    return poly_sum(terms())


def _primitive(p, ctx):
    _, prim = p.content_primitive(ctx.var_rank)
    return prim


@dataclass(frozen=True)
class InnerProduct:
    """Symmetric bilinear form on polynomials, by name."""

    name: str
    evaluator: Callable[[Polynomial, Polynomial, Context], Scalar]

    def __call__(self, p, q, ctx):
        return self.evaluator(p, q, ctx)


def sphere_inner_product():
    """L^2 of the unit sphere with normalized surface measure."""
    return InnerProduct("sphere", lambda p, q, ctx: integrate_sphere(p * q, ctx))


def ball_inner_product():
    """L^2 of the unit ball with volume measure."""
    return InnerProduct(
        "ball", lambda p, q, ctx: integrate_ball(p * q, RadialFunction.one(), ctx)
    )


def weighted_ball_inner_product(radial):
    """L^2 of the ball against a radial weight."""
    return InnerProduct(
        "ball-weighted", lambda p, q, ctx: integrate_ball(p * q, radial, ctx)
    )


def basis_harmonic(m, ctx, ip=None):
    """Deterministic basis of the degree-m homogeneous harmonics.

    Elements are indexed by the monomials of degree m with exponent at most
    one in the first coordinate (harmonic extension of Cauchy data), giving
    a reduced-echelon family: each element is its index monomial plus terms
    divisible by the square of the first coordinate.  With an inner product
    the Gram-Schmidt procedure is applied in that order and each vector is
    divided by the square root of its self inner product.
    """
    if ctx.dim < 2:
        raise UnsupportedDimension("harmonic bases need dimension >= 2")
    if m == 0:
        basis = [Polynomial.const(1)]
    else:
        rest = ctx.coords[1:]
        basis = []
        for eps in (0, 1):
            deg = m - eps
            if deg < 0:
                continue
            for mono in monomials(rest, [deg]):
                q = Polynomial({mono: Scalar.from_fraction(1)})
                basis.append(_primitive(_harmonic_extension(q, eps, ctx), ctx))
    if ip is None:
        return basis
    ortho = []
    for v in basis:
        w = v
        for g, gg in ortho:
            w = w - g.scale(ip(w, g, ctx) / gg)
        ww = ip(w, w, ctx)
        if not ww.is_single_term():
            raise UnsupportedScalarNorm("self inner product is a multi-term scalar")
        ortho.append((w, ww))
    return [g.scale(scalar_sqrt(gg).inverse()) for g, gg in ortho]


# ---------------------------------------------------------------------------
# zonal harmonics


def zonal_coefficients(m, n):
    """Coefficients c_k of sum c_k (x.y)^(m-2k) (||x||^2 ||y||^2)^k.

    Harmonicity in x forces the ratio recurrence; the overall scale is
    pinned by sum c_k = dim of the degree-m harmonic space.
    """
    if n < 2 and m >= 2:
        raise UnsupportedDimension("zonal harmonics of degree >= 2 need dimension >= 2")
    cs = [Fraction(1)]
    for k in range(m // 2):
        p = m - 2 * k
        cs.append(-cs[-1] * Fraction(p * (p - 1), 2 * (k + 1) * (2 * m - 2 * k + n - 4)))
    total = sum(cs)
    target = Fraction(dim_harmonic(m, n))
    return [c * target / total for c in cs]


def zonal_harmonic(m, ctx, y_names):
    """Extended zonal harmonic as a polynomial in x and y coordinates."""
    y_names = tuple(y_names)
    if len(y_names) != ctx.dim:
        raise ValueError("second vector needs %d coordinates" % ctx.dim)
    dot = dot_poly(ctx.coords, y_names)
    nx = ctx.norm_sq_poly()
    ny = ctx.norm_sq_poly(y_names)
    return poly_sum(
        (dot ** (m - 2 * k) * (nx * ny) ** k).scale(c)
        for k, c in enumerate(zonal_coefficients(m, ctx.dim))
    )
