"""Structure theory of harmonic polynomials.

Dimension counts, the Fischer decomposition p = sum ||x||^(2j) h_(m,j)
with harmonic h_(m,j) homogeneous of degree m, the first-coordinate
(Cauchy-Kovalevskaya) series behind anti-Laplacians and harmonic
extensions, deterministic bases of the homogeneous harmonic spaces
(optionally orthonormalized under the sphere, ball or weighted-ball inner
product), and extended zonal harmonics.

The decomposition is taken in closed form (Axler, Bourdon and Ramey,
Harmonic Function Theory, ch. 5): on a homogeneous part p_k with the
Laplacian ladder L_t = Laplacian^t p_k, the piece of degree m = k - 2j is
h_(m,j) = pi(L_j)/gamma_j, where gamma_j = prod_(i=1..j) 2i(2m + n + 2i - 2)
is what Laplacian^j does to ||x||^(2j) h_m, and pi(q) = sum_i c_i ||x||^(2i)
Laplacian^i q, c_0 = 1 and c_i/c_(i-1) = -1/(2i(2m + n - 2 - 2i)), is the
harmonic projection of degree m.  `fischer_sums` groups the pieces by a
label and sums them with a weight, one `horner` in ||x||^2 per label; the
pieces themselves, the sums by norm exponent and by degree, the ball
Dirichlet solution and the Bergman projection are each one call.

The polynomial anti-Laplacian is the first-coordinate series taken in
closed form: for s = sum_a x1^a q_a(x') it is sum_a sum_k (-1)^k
a!/(a+2+2k)! x1^(a+2+2k) D'^k q_a, D' the Laplacian in the other
coordinates, and one `_ladder` of integer dicts gives the levels
D'^k q_a, each the image of x^0 under the Laplacian `Stencil` of the
level before.  Each (signature, a) group is one `_cauchy_series`, summed
from its top level down over one denominator, so the series costs about
the size of its answer.  A basis element is the one `_cauchy_series` of
its Cauchy monomial x1^eps x'^b, started at x1^eps and made primitive:
the harmonic extension of that Cauchy data.

A radial inner product orthonormalizes a basis over integer vectors: on
harmonics of degree m it is c(m, n) times the Fischer pairing
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
    Stencil,
    _join,
    _layout,
    _new,
    _put,
    _rekey,
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


def fischer_sums(p, ctx, label, weight=None):
    """{label(m, j): sum of weight(m, j) h_(m,j)} over the Fischer pieces
    p = sum ||x||^(2j) h_(m,j), in label order; weight is 1 when None, and
    zero sums are dropped.

    For a homogeneous part p_k, h_(k-2j) = pi(L_j)/gamma_j on the ladder
    L_t = Laplacian^t p_k, with pi(q) = sum_i c_i ||x||^(2i) Laplacian^i q
    on degree m = k - 2j: one ladder per part, one `horner` per label.
    """
    parts = require_polynomial(p, "harmonic decomposition input").homogeneous_parts(ctx.coords)
    n = ctx.dim
    groups = {}
    for k, part in parts.items():
        levels = [part]
        for _ in range(k // 2):
            lap = poly_laplacian(levels[-1], ctx)
            if lap.is_zero():
                break
            levels.append(lap)
        for j in range(len(levels)):
            m = k - 2 * j
            gamma = prod(2 * i * (2 * m + n + 2 * i - 2) for i in range(1, j + 1))
            c = Fraction(1 if weight is None else weight(m, j), gamma)
            pairs = groups.setdefault(label(m, j), [])
            for i, level in enumerate(levels[j:]):
                if i:
                    # c_i/c_(i-1); L_(j+i) has degree m - 2i >= 0, so 2m + n - 2 - 2i > 0
                    c /= -2 * i * (2 * m + n - 2 - 2 * i)
                pairs.append((i, level.scale(c)))
    base = ctx.base_poly(ctx.norm_base)
    sums = ((key, horner(pairs, base)) for key, pairs in sorted(groups.items()))
    return {key: h for key, h in sums if not h.is_zero()}


def fischer_parts(p, ctx):
    """The Fischer decomposition p = sum ||x||^(2j) h_(m,j) as {(m, j): h}.

    Each h is harmonic and homogeneous of degree m, and the pieces are
    unique (Axler, Bourdon and Ramey, Harmonic Function Theory, ch. 5);
    zero pieces are dropped.
    """
    return fischer_sums(p, ctx, lambda m, j: (m, j))


def harmonic_decompose(p, ctx):
    """The unique list of (harmonic polynomial, even norm exponent) pairs.

    The weighted sum of the pairs reconstructs p; exponents are strictly
    increasing and zero parts are dropped.
    """
    return [(h, e) for e, h in fischer_sums(p, ctx, lambda m, j: 2 * j).items()]


def harmonic_parts_by_degree(p, ctx, radius=1):
    """Boundary data on the sphere of a rational radius as dict degree -> harmonic part.

    On that sphere ||x||^(2j) equals radius^(2j), so each piece h_(m,j)
    joins the degree-m part with that weight (1 on the unit sphere).
    """
    r2 = Fraction(radius) ** 2
    return fischer_sums(p, ctx, lambda m, j: m, lambda m, j: r2**j)


def _ladder(q, lay, names):
    """[q, D q, D^2 q, ...] up to the last nonzero level, q an integer dict
    {key: int} in lay and D the Laplacian in names: a level is the image
    of x^0 under the Laplacian `Stencil` of the one before."""
    levels = []
    while q:
        levels.append(q)
        q = {key: n for key, n in Stencil(q, lay, names, laplace_weight).add(0, {}).items() if n}
    return levels


def _cauchy_series(q, e, lay, unit, rest):
    """(top, nums): the first-coordinate series of x1^e q(x') over
    top!/e!, as the integer dict nums; q is an integer dict {key: int} in
    lay, free of x1, unit is x1's key unit in lay and rest names the other
    coordinates.

    With the `_ladder` levels D^k q, k <= K, and top = e + 2K, level k
    carries (-1)^k top!/(e+2k)! at x1^(e+2k), formed from the top level
    down with one integer factor.
    """
    levels = _ladder(q, lay, rest)
    top = e = e + 2 * len(levels) - 2
    f, nums = (-1) ** (len(levels) - 1), {}
    for level in reversed(levels):
        shift = e * unit
        for key, n in level.items():
            nums[key + shift] = f * n
        f *= -e * (e - 1)
        e -= 2
    return top, nums


def first_coordinate_series(s, ctx):
    """The polynomial anti-Laplacian u = sum_k (-1)^k (L D)^k L s of s.

    L integrates twice in the first coordinate (x1^a -> x1^(a+2)/((a+1)(a+2)))
    and D is the Laplacian in the other coordinates.  The series ends
    because D lowers the degree in those coordinates, and its second
    x1-derivative is s minus its D-image, so its Laplacian is s.

    In closed form, with s = sum_a x1^a q_a(x'), u is
    sum_a sum_k (-1)^k a!/(a+2+2k)! x1^(a+2+2k) D^k q_a.  Each block of s
    is split by its x1 exponent a, and each (block, a) group is one
    `_cauchy_series` from x1^(a+2) over one denominator, one add to the
    `_Sum`.
    """
    first, rest = ctx.coords[0], ctx.coords[1:]
    # x1^(a+2+2k) D^k q_a has the total degree of x1^a q_a plus 2
    lay = _join(s.layout, _layout((first,)), s.total_degree() + 2)
    shift, unit, mask = lay.shift[first], lay.unit[first], lay.mask
    total = _Sum(lay)
    for sig, (den, nums) in _rekey(s, lay).items():
        by_power = {}
        for key, n in nums.items():
            a = (key >> shift) & mask
            by_power.setdefault(a, {})[key - a * unit] = n
        for a, q in by_power.items():
            top, group = _cauchy_series(q, a + 2, lay, unit, rest)
            total.add(sig, den * prod(range(a + 1, top + 1)), group)
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
    packed keys in `poly.monomials` order, giving an echelon family: each
    element is a nonzero multiple of its index monomial plus terms
    divisible by the square of the first coordinate.  With an inner product
    the Gram-Schmidt procedure is applied in that order and each vector is
    divided by the square root of its self inner product.

    Each element is the `_cauchy_series` of its Cauchy monomial
    x1^eps x'^b, started at x1^eps, divided by its content, with
    the positive leading coefficient `content_primitive` gives it.

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
            _, nums = _cauchy_series({kb: 1}, eps, lay, unit, rest)
            # nums starts with the top level, whose x1 power leads, and
            # D'^K x'^b has positive coefficients: one sign, the leading one
            g = gcd(*nums.values()) * (1 if next(iter(nums.values())) > 0 else -1)
            vectors.append({k: n // g for k, n in nums.items()})
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
    pinned by sum c_k = dim of the degree-m harmonic space.  For m < 0 that
    space is {0}, whose kernel is the empty sum.
    """
    if m < 0:
        return []
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
    """Extended zonal harmonic as a polynomial in x and y coordinates; 0 for m < 0."""
    y_names = tuple(y_names)
    dot = dot_poly(ctx.coords, y_names)
    nx = ctx.norm_sq_poly()
    ny = ctx.norm_sq_poly(y_names)
    return poly_sum(
        (dot ** (m - 2 * k) * (nx * ny) ** k).scale(c)
        for k, c in enumerate(zonal_coefficients(m, ctx.dim))
    )
