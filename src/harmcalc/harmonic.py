"""Structure theory of harmonic polynomials.

Dimension counts, the Fischer decomposition p = sum ||x||^(2j) h_(m,j)
with harmonic h_(m,j) homogeneous of degree m, the first-coordinate
(Cauchy-Kovalevskaya) series behind anti-Laplacians and harmonic
extensions, deterministic bases of the homogeneous harmonic spaces
(optionally orthonormalized under the sphere, ball or weighted-ball inner
product), and extended zonal harmonics.  The solvers and the Bergman
projection read the decomposition through `fischer_parts`.

The series is taken in closed form: for s = sum_a x1^a q_a(x') it is
sum_a sum_k (-1)^k a!/(a+2k)! x1^(a+2k) D'^k q_a, D' the Laplacian in
the other coordinates, and one `_ladder` of integer dicts gives the
levels D'^k q_a, one `_second_order` pass each.  A basis element is the
primitive integer form of the series of a Cauchy monomial, read off its
ladder.  A radial inner product orthonormalizes a basis over integer
vectors: on harmonics of degree m it is c(m, n) times the Fischer pairing
sum_a a! p_a q_a, Gram-Schmidt runs on primitive integer coefficient
dicts with Fraction projections, and c enters only the final scale, as
one square split per element.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .arith import binomial, split_square
from .calculus import poly_laplacian
from .errors import UnsupportedDimension, UnsupportedScalarNorm
from .integrate import RadialFunction, ball_radial_factor, integrate_ball, integrate_sphere
from .poly import (
    RATIONAL,
    _join,
    _layout,
    _new,
    _put,
    _rekey,
    _second_order,
    _stride,
    _Sum,
    dot_poly,
    horner,
    laplace_weight,
    monomials,
    poly_sum,
    require_polynomial,
)
from .record import Record
from .scalar import Scalar, scalar_sqrt


def dim_harmonic(m, n):
    """Dimension of the space of degree-m homogeneous harmonics in R^n;
    0 for a negative degree, as `basis_harmonic` has no element there."""
    if n < 1:
        raise UnsupportedDimension("dimension must be positive")
    if m < 0:
        return 0
    if m == 0:
        return 1
    if n == 1:
        return 1 if m == 1 else 0
    # C(m+n-1, n-1) - C(m+n-3, n-1), the degree-m homogeneous polynomials
    # less the degree-(m-2) ones, written with one binomial
    return (2 * m + n - 2) * binomial(m + n - 3, m - 1) // m


def _decompose_homogeneous(p, k, ctx):
    """dict j -> harmonic part of p = sum_j ||x||^(2j) h_(k-2j), p nonzero."""
    if k <= 1:
        return {0: p}
    lap = poly_laplacian(p, ctx)
    if lap.is_zero():
        return {0: p}
    sub = _decompose_homogeneous(lap, k - 2, ctx)
    n = ctx.dim
    out = {}
    for i, g in sub.items():
        j = i + 1
        # Laplacian of ||x||^(2j) h_m is 2j(2m + n + 2j - 2) ||x||^(2j-2) h_m
        out[j] = g.scale(Fraction(1, 2 * j * (2 * k - 2 * j + n - 2)))
    out[0] = p - horner(out.items(), ctx.base_poly(ctx.norm_base))
    return {j: h for j, h in out.items() if not h.is_zero()}


def fischer_parts(p, ctx):
    """The Fischer decomposition p = sum ||x||^(2j) h_(m,j) as {(m, j): h}.

    Each h is harmonic and homogeneous of degree m, and the pieces are
    unique (Axler, Bourdon and Ramey, Harmonic Function Theory, ch. 5);
    zero pieces are dropped.
    """
    parts = require_polynomial(p, "harmonic decomposition input").homogeneous_parts(ctx.coords)
    return {
        (k - 2 * j, j): h
        for k, part in parts.items()
        for j, h in _decompose_homogeneous(part, k, ctx).items()
    }


def _sum_by(pairs):
    """{key: sum of the polynomials paired with it} in key order, zero sums dropped."""
    groups = {}
    for key, h in pairs:
        groups.setdefault(key, []).append(h)
    sums = ((key, poly_sum(hs)) for key, hs in sorted(groups.items()))
    return {key: h for key, h in sums if not h.is_zero()}


def harmonic_decompose(p, ctx):
    """The unique list of (harmonic polynomial, even norm exponent) pairs.

    The weighted sum of the pairs reconstructs p; exponents are strictly
    increasing and zero parts are dropped.
    """
    sums = _sum_by((2 * j, h) for (_, j), h in fischer_parts(p, ctx).items())
    return [(h, e) for e, h in sums.items()]


def harmonic_parts_by_degree(p, ctx, radius=1):
    """Boundary data on the sphere of a rational radius as dict degree -> harmonic part.

    On that sphere ||x||^(2j) equals radius^(2j), so each piece h_(m,j)
    joins the degree-m part with that weight (1 on the unit sphere).
    """
    r2 = Fraction(radius) ** 2
    pieces = fischer_parts(p, ctx).items()
    return _sum_by((m, h.scale(r2**j)) for (m, j), h in pieces)


def _ladder(q, lay, names):
    """[q, D q, D^2 q, ...] up to the last nonzero level, q an integer dict
    {key: int} in lay and D the Laplacian in names: one `_second_order`
    pass a level."""
    levels = []
    while q:
        levels.append(q)
        q = {key: n for key, n in _second_order(q, lay, names, 0, laplace_weight).items() if n}
    return levels


def first_coordinate_series(s, ctx):
    """u = sum_k (-1)^k (L D)^k s, the first-coordinate series of s.

    L integrates twice in the first coordinate (x1^a -> x1^(a+2)/((a+1)(a+2)))
    and D is the Laplacian in the other coordinates.  The series ends
    because D lowers the degree in those coordinates, and its Laplacian is
    the second x1-derivative of s.  So s = L p gives an anti-Laplacian of
    p, and s = x1^eps q(x') with eps in {0, 1} gives the harmonic
    polynomial x1^eps q + O(x1^2) extending that Cauchy data.

    In closed form, (L D)^k x1^a q(x') = a!/(a+2k)! x1^(a+2k) D^k q, so
    with s = sum_a x1^a q_a each block of s is split by its x1 exponent,
    the levels D^k q_a come from one `_ladder`, and all the terms meet in
    one `_Sum`.
    """
    first, rest = ctx.coords[0], ctx.coords[1:]
    # x1^(a+2k) D^k q_a has the total degree of x1^a q_a
    lay = _join(s.layout, _layout((first,)), s.total_degree())
    shift, unit, mask = lay.shift[first], lay.unit[first], lay.mask
    total = _Sum(lay)
    for sig, (den, nums) in _rekey(s, lay).items():
        by_power = {}
        for key, n in nums.items():
            a = (key >> shift) & mask
            by_power.setdefault(a, {})[key - a * unit] = n
        for a, q in by_power.items():
            # the term x1^e D^k q_a / ratio with e = a + 2k, ratio = e!/a!
            e, ratio, sign = a, 1, 1
            for level in _ladder(q, lay, rest):
                lift = e * unit
                total.add(sig, den * ratio, {key + lift: sign * n for key, n in level.items()})
                ratio *= (e + 1) * (e + 2)
                e, sign = e + 2, -sign
    return total.result()


# ---------------------------------------------------------------------------
# bases


class InnerProduct(Record):
    """A rotation-invariant inner product on polynomials, by name: the
    normalized sphere integral of p q when `radial` is None, else the unit
    ball integral of p q against the RadialFunction `radial`.

    On the harmonics homogeneous of degree m in R^n such a form is a
    multiple of the Fischer pairing (Axler, Bourdon and Ramey, Harmonic
    Function Theory, ch. 5): ip(p, q) = degree_factor(m, n) * sum_a a! p_a q_a.
    """

    __slots__ = ("name", "radial")

    def __init__(self, name, radial):
        Record.__init__(self, name, radial)

    def __call__(self, p, q, ctx):
        if self.radial is None:
            return integrate_sphere(p * q, ctx)
        return integrate_ball(p * q, self.radial, ctx)

    def degree_factor(self, m, n):
        """c(m, n): 1/(n(n+2)...(n+2m-2)) on the sphere, times the radial
        moment `ball_radial_factor` of degree 2m on the ball."""
        c = Scalar.from_fraction(Fraction(1, prod(range(n, n + 2 * m, 2))))
        return c if self.radial is None else c * ball_radial_factor(2 * m, self.radial, n)


def sphere_inner_product():
    """L^2 of the unit sphere with normalized surface measure."""
    return InnerProduct("sphere", None)


def ball_inner_product():
    """L^2 of the unit ball with volume measure."""
    return InnerProduct("ball", RadialFunction.one())


def weighted_ball_inner_product(radial):
    """L^2 of the ball against a radial weight."""
    return InnerProduct("ball-weighted", radial)


def _fischer_orthogonal(vectors, lay):
    """[(W, [W, W])] for the integer vectors {key: int} orthogonalized in
    order under the Fischer pairing [p, q] = sum_a a! p_a q_a, keys in lay.

    v goes to w = v - sum_j ([v, W_j]/N_j) W_j with N_j = [W_j, W_j], and
    W is w times the lcm of those denominators over its positive content:
    a positive multiple of w, with integer entries.  [v, W_j] is read
    against the dual {a: a! W_j,a}, kept beside W_j.
    """

    def dot(p, q):
        return sum(n * q[k] for k, n in p.items() if k in q)

    out = []  # (W, [W, W], the dual {a: a! W_a})
    for v in vectors:
        coeffs = [Fraction(dot(v, dual), N) for _, N, dual in out]
        scale = lcm(*(f.denominator for f in coeffs))
        w = {k: n * scale for k, n in v.items()}
        get = w.get
        for f, (W, _, _) in zip(coeffs, out):
            if f:
                f = f.numerator * (scale // f.denominator)
                for k, n in W.items():
                    w[k] = get(k, 0) - f * n
        g = gcd(*w.values())
        W = {k: n // g for k, n in w.items() if n}
        dual = {k: lay.factorial(k) * n for k, n in W.items()}
        out.append((W, dot(W, dual), dual))
    return [(W, N) for W, N, _ in out]


def basis_harmonic(m, ctx, ip=None):
    """Deterministic basis of the degree-m homogeneous harmonics.

    Elements are indexed by the monomials of degree m with exponent at most
    one in the first coordinate (harmonic extension of Cauchy data), as
    packed keys in `poly.monomials` order, giving a reduced-echelon family:
    each element is its index monomial plus terms divisible by the square
    of the first coordinate.  With an inner product the Gram-Schmidt
    procedure is applied in that order and each vector is divided by the
    square root of its self inner product.

    Each element is the primitive integer form of the series of its Cauchy
    monomial x1^eps x'^b: with the `_ladder` levels D'^k x'^b, k <= K, it
    puts (-1)^(K-k) (eps+2K)!/(eps+2k)! on x1^(eps+2k) D'^k x'^b and divides
    by the gcd.  The x1^(eps+2K) terms lead, and D'^K of a monomial has
    positive coefficients, so the leading coefficient is positive, as
    `content_primitive` makes it.

    The inner product `ip` (an `InnerProduct`) is c * the Fischer pairing
    on these elements, c = ip.degree_factor(m, n), so Gram-Schmidt runs on
    their integer coefficients (`_fischer_orthogonal`), and c enters only
    the scale 1/sqrt(c [W, W]) of each orthogonal integer vector W.  With
    c = cq pi^(p/2) and cq [W, W] = a/b in lowest terms, a b = s^2 t with t
    squarefree gives W/sqrt(c [W, W]) = b W/(s t) * sqrt(t) pi^(-p/4): one
    block, from one square split.  Each element keeps the parity of its
    index monomial in every coordinate (the low bits of the key's exponent
    fields), and a radial measure is even in each coordinate, so elements
    of different parity classes are orthogonal: Gram-Schmidt runs in each
    class alone, with the same result.  A c that is zero or has more than
    one term raises UnsupportedScalarNorm, and a one-term c with no square
    root (negative, or with a radical, a log or an odd power of sqrt(pi))
    raises as `scalar_sqrt` does.
    """
    if ctx.dim < 2:
        raise UnsupportedDimension("harmonic bases need dimension >= 2")
    first, rest = ctx.coords[0], ctx.coords[1:]
    lay = _layout(tuple(sorted(ctx.coords)), _stride(m))
    unit = lay.unit[first]
    # the low bit of every exponent field: a key's parity class
    odd = sum(1 << s for s in lay.shift.values())
    vectors, classes = [], {}
    for eps in (0, 1):
        for kb in monomials(lay, rest, [m - eps]):
            classes.setdefault((kb + eps * unit) & odd, []).append(len(vectors))
            levels = _ladder({kb: 1}, lay, rest)
            # (-1)^(K-k) (eps+2K)!/(eps+2k)! on level k, from k = K down
            W, f, e = {}, 1, eps + 2 * len(levels) - 2
            for level in reversed(levels):
                lift = e * unit
                for key, n in level.items():
                    W[key + lift] = f * n
                f *= -e * (e - 1)
                e -= 2
            g = gcd(*W.values())
            vectors.append({key: n // g for key, n in W.items()})
    basis = [_new(lay, {RATIONAL: (1, W)}) for W in vectors]
    if ip is None or not basis:
        return basis
    c = ip.degree_factor(m, ctx.dim)
    if not c.is_single_term():
        what = "zero" if c.is_zero() else "a multi-term scalar"
        raise UnsupportedScalarNorm("self inner product is " + what)
    # [W, W] > 0 changes no sign, radical, pi power or log: c N has a root
    # exactly when c has one, and scalar_sqrt(c) raises as sqrt(c N) would
    scalar_sqrt(c)
    ((cq, _, p, _),) = c.terms
    pi_half = -(p // 2)
    out = [None] * len(basis)
    for idx in classes.values():
        for i, (W, N) in zip(idx, _fischer_orthogonal([vectors[i] for i in idx], lay)):
            # W is a positive multiple of w, and w/sqrt(c [w, w]) is scale-free
            q = cq * N
            s, t = split_square(q.numerator * q.denominator)
            blocks = {}
            _put(blocks, (t, pi_half, ()), s * t, {k: q.denominator * n for k, n in W.items()})
            out[i] = _new(lay, blocks)
    return out


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
