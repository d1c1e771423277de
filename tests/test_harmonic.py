import random
from math import comb, factorial
from fractions import Fraction as F

import pytest

import poly_oracle
from conftest import P, random_polynomial, rename_vars

from harmcalc.arith import _LEGENDRE_MIN, binomial
from harmcalc.calculus import poly_laplacian
from harmcalc.errors import DimensionMismatch, HarmcalcError, UnsupportedDimension
from harmcalc.expr import Context, make_context, reduce_poly_on_sphere
from harmcalc import harmonic
from harmcalc.harmonic import (
    ball_inner_product,
    basis_harmonic,
    dim_harmonic,
    first_coordinate_series,
    fischer_parts,
    harmonic_decompose,
    harmonic_parts_by_degree,
    sphere_inner_product,
    weighted_ball_inner_product,
    zonal_coefficients,
    zonal_harmonic,
)
from harmcalc.integrate import RadialFunction, integrate_sphere, unit_ball_volume
from harmcalc.parser import parse_radial
from harmcalc.poly import RATIONAL, Polynomial, _layout, _new, _stride, monomials, poly_sum
from harmcalc.scalar import ONE, Scalar


def test_dim_harmonic_values():
    assert dim_harmonic(12, 100) == 3901030682812965
    assert dim_harmonic(1, 7) == 7
    for m in range(1, 9):
        assert dim_harmonic(m, 2) == 2
    assert dim_harmonic(0, 4) == 1
    assert dim_harmonic(4, 3) == 9


def test_dim_harmonic_is_a_difference_of_binomials():
    # the degree-m homogeneous polynomials less the degree-(m - 2) ones,
    # which the Laplacian maps onto
    for n in range(1, 40):
        for m in range(40):
            below = comb(m + n - 3, n - 1) if m >= 2 else 0
            assert dim_harmonic(m, n) == comb(m + n - 1, n - 1) - below, (m, n)


def test_a_dimension_below_one_is_unsupported():
    with pytest.raises(UnsupportedDimension, match="^dimension must be positive$"):
        dim_harmonic(3, 0)
    with pytest.raises(UnsupportedDimension, match="^dimension must be positive$"):
        unit_ball_volume(0)


def test_binomial_matches_math_comb_across_the_switch_over():
    lo = _LEGENDRE_MIN
    for j in (lo - 1, lo, lo + 1):
        # prime powers up to n = 64 j, math.comb past it and below lo
        for n in (2 * j, 2 * j + 1, 3 * j + 7, 64 * j, 64 * j + 1):
            for k in (j, n - j):
                assert binomial(n, k) == comb(n, k), (n, k)
    m = lo + 2
    assert dim_harmonic(m, m) == comb(2 * m - 1, m - 1) - comb(2 * m - 3, m - 1)


def test_decompose_x1_fourth(ctx3):
    pairs = harmonic_decompose(P("x1^4", ctx3), ctx3)
    assert [e for _, e in pairs] == [0, 2, 4]
    n2 = ctx3.norm_sq_poly()
    h0 = (n2 * n2).scale(F(3, 35)) - (n2 * Polynomial.var("x1", 2)).scale(F(6, 7)) + Polynomial.var("x1", 4)
    h2 = (Polynomial.var("x1", 2).scale(3) - n2).scale(F(2, 7))
    h4 = Polynomial.const(F(1, 5))
    assert pairs[0][0] == h0
    assert pairs[1][0] == h2
    assert pairs[2][0] == h4


def test_decompose_trivial(ctx3):
    h = P("x1*x2", ctx3)
    assert harmonic_decompose(h, ctx3) == [(h, 0)]
    pairs = harmonic_decompose(ctx3.norm_sq_poly(), ctx3)
    assert pairs == [(Polynomial.const(1), 2)]


def test_decompose_reconstruction_random():
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        ctx = Context(n)
        for _ in range(25):
            p = random_polynomial(rng, ctx, max_degree=8, terms=4)
            pairs = harmonic_decompose(p, ctx)
            total = Polynomial()
            n2 = ctx.norm_sq_poly()
            exps = [e for _, e in pairs]
            assert exps == sorted(set(exps))
            for h, e in pairs:
                assert poly_laplacian(h, ctx).is_zero()
                total = total + n2 ** (e // 2) * h
            assert total == p
            pieces = fischer_parts(p, ctx)
            assert poly_sum(n2**j * h for (_, j), h in pieces.items()) == p
            for (m, _), h in pieces.items():
                assert poly_laplacian(h, ctx).is_zero()
                assert list(h.homogeneous_parts(ctx.coords)) == [m]


# coefficients the oracle test draws from: rationals, sqrt(2), pi, log 6
ORACLE_COEFFS = (
    Scalar.from_fraction(F(-5, 3)),
    Scalar.from_fraction(7),
    Scalar.sqrt_int(2) * F(3, 2),
    Scalar.pi_power(2),
    Scalar.log_fraction(6) - Scalar.from_fraction(1),
)


def _oracle_data(rng, ctx, degree):
    """A sum of a few random monomials of total degree at most `degree` in
    the coordinates, some with a factor in the extra variables, always
    with one term of the full degree."""
    p = Polynomial()
    for d in [degree] + [rng.randrange(degree + 1) for _ in range(rng.randrange(4))]:
        mono = {}
        for v in rng.choices(ctx.coords, k=d) + rng.choices(ctx.extra, k=rng.randrange(3)):
            mono[v] = mono.get(v, 0) + 1
        p = p + Polynomial({tuple(sorted(mono.items())): rng.choice(ORACLE_COEFFS)})
    return p


def test_fischer_sums_match_the_recursion():
    # the closed form against `poly_oracle.fischer_parts_by_recursion`, read
    # through each of its callers, on the zero polynomial, constants and
    # random data of degree 0-30 in dimensions 1-6 (lower degrees where the
    # pieces have many terms)
    from harmcalc.kernels import bergman_projection

    rng = random.Random(41)
    r2 = F(4, 9)
    cases = [(Context(n, extra=("a", "b")), d) for n, top in [(1, 30), (2, 30), (3, 30), (4, 20), (5, 14), (6, 12)]
             for d in sorted({0, 1, 2, 3, top, *rng.sample(range(top + 1), 4)})]
    for ctx, degree in cases:
        n = ctx.dim
        for p in (Polynomial(), Polynomial.const(F(2, 7)), _oracle_data(rng, ctx, degree)):
            want = poly_oracle.fischer_parts_by_recursion(p, ctx)
            assert fischer_parts(p, ctx) == want, (n, p)
            by_degree, by_exponent = {}, {}
            for (m, j), h in want.items():
                by_degree[m] = by_degree.get(m, Polynomial()) + h.scale(r2**j)
                by_exponent[2 * j] = by_exponent.get(2 * j, Polynomial()) + h
            by_degree = {m: h for m, h in by_degree.items() if not h.is_zero()}
            assert harmonic_parts_by_degree(p, ctx, F(2, 3)) == by_degree, (n, p)
            pairs = [(h, e) for e, h in sorted(by_exponent.items()) if not h.is_zero()]
            assert harmonic_decompose(p, ctx) == pairs, (n, p)
            projected = poly_sum(h.scale(F(n + 2 * m, n + 2 * m + 2 * j)) for (m, j), h in want.items())
            assert bergman_projection(p, ctx) == projected, (n, p)


def test_basis_cardinality_and_harmonicity():
    for n in (2, 3, 4, 5, 6):
        ctx = Context(n)
        for m in range(-2, 9):
            basis = basis_harmonic(m, ctx)
            assert len(basis) == dim_harmonic(m, n)
            for b in basis:
                assert poly_laplacian(b, ctx).is_zero()
                parts = b.homogeneous_parts(ctx.coords)
                assert list(parts) == [m]


def test_basis_spans_harmonics(ctx3):
    # every degree-4 harmonic piece of a random decomposition is a linear
    # combination of the basis (solved exactly over the rationals)
    import dense_linalg

    rng = random.Random(19)
    basis = basis_harmonic(4, ctx3)
    for _ in range(5):
        p = random_polynomial(rng, ctx3, max_degree=4, terms=4)
        part = harmonic_parts_by_degree(p, ctx3).get(4)
        if part is None:
            continue
        monos = sorted({m for b in basis for m in b.terms} | set(part.terms))
        zero = Scalar.from_fraction(0)
        rows = [[b.terms.get(m, zero).as_fraction() for b in basis] for m in monos]
        rhs = [part.terms.get(m, zero).as_fraction() for m in monos]
        assert dense_linalg.solve(rows, rhs) is not None


def test_orthonormal_bases_gram_identity(ctx3):
    weight = RadialFunction(((ONE, 0, 0), (Scalar.from_fraction(-1), 2, 0)))
    for ip in (sphere_inner_product(), ball_inner_product(), weighted_ball_inner_product(weight)):
        basis = basis_harmonic(4, ctx3, ip)
        assert len(basis) == 9
        for i in range(9):
            for j in range(i, 9):
                got = ip(basis[i], basis[j], ctx3)
                want = Scalar.from_fraction(1 if i == j else 0)
                assert (got - want).is_zero()


def test_ball_normalization_constants(ctx3):
    # normalization constants carry pi^(-1/2) radicals
    basis = basis_harmonic(4, ctx3, ball_inner_product())
    seen_pi_half = False
    for b in basis:
        for c in b.terms.values():
            for _, rad, pih, _ in c.terms:
                if pih % 2:
                    seen_pi_half = True
    assert seen_pi_half


def _basis_or_error(m, ctx, ip):
    try:
        return basis_harmonic(m, ctx, ip)
    except HarmcalcError as exc:
        return type(exc).__name__, str(exc)


def _general_or_error(basis, ctx, ip):
    """`poly_oracle.integral_orthonormal`, one integral per Gram entry, or
    its typed error as `_basis_or_error` gives it."""
    try:
        return poly_oracle.integral_orthonormal(basis, ip, ctx)
    except HarmcalcError as exc:
        return type(exc).__name__, str(exc)


# (inner product, the error every basis raises or None, exceptions by
# (dimension, degree)); r^2*log(r) has negative radial moments, and the
# moments of 1/(1 + 2r) are a rational plus a multiple of log(3), except in
# dimension 3 at degree 0, where the factor is pi*log(3)/2; against 3 - 4r
# the factor is (3 - k)/(k(k + 1)) n V(B) with k = n + 2m, positive only
# at k = 2 and zero at k = 3
RADIAL_FORMS = [
    ("sphere", None, {}),
    ("ball", None, {}),
    ("r", None, {}),
    ("1 + 2*r^3*log(r)^2", None, {}),
    ("r^2*log(r)", "NegativeRadicand", {}),
    ("1/(1 + 2*r)", "UnsupportedScalarNorm", {(3, 0): "NonRationalSqrt"}),
    ("3 - 4*r", "NegativeRadicand", {(2, 0): None, (3, 0): "UnsupportedScalarNorm"}),
]


@pytest.mark.parametrize("form, error, exceptions", RADIAL_FORMS)
def test_radial_inner_products_match_the_general_path(form, error, exceptions):
    if form == "sphere":
        radial = sphere_inner_product()
    elif form == "ball":
        radial = ball_inner_product()
    else:
        radial = weighted_ball_inner_product(parse_radial(form))
    for n in range(2, 6):
        ctx = Context(n)
        for m in range(5):
            got = _basis_or_error(m, ctx, radial)
            assert got == _general_or_error(basis_harmonic(m, ctx), ctx, radial), (n, m)
            want = exceptions.get((n, m), error)
            if want is None:
                assert len(got) == dim_harmonic(m, n)
            else:
                assert got[0] == want, (n, m)


def test_a_zero_degree_factor_is_named():
    # against 3 - 4r the dimension-3, degree-0 factor is zero
    radial = weighted_ball_inner_product(parse_radial("3 - 4*r"))
    assert radial.degree_factor(0, 3).is_zero()
    got = _basis_or_error(0, Context(3), radial)
    assert got == ("UnsupportedScalarNorm", "self inner product is zero")


def test_log_degree_factor_raises_as_the_general_path_does():
    # (7 + 10r)/(1 + r) has the radial moment 3*log(2) against r^3, so in
    # dimension 2 the degree-1 factor is one log term, which has no square
    # root: the two-element basis raises as the general path does on its
    # first element alone.  On both elements the general path first
    # divides a Gram entry by that log term, which raises MultiTermDivision
    radial = weighted_ball_inner_product(parse_radial("7 + 10*r/(1 + r)"))
    ctx = Context(2)
    assert radial.degree_factor(1, 2).terms[0][3]
    got = _basis_or_error(1, ctx, radial)
    assert got == ("NonRationalSqrt", "sqrt of a scalar with log factors")
    basis = basis_harmonic(1, ctx)
    assert got == _general_or_error(basis[:1], ctx, radial)
    assert _general_or_error(basis, ctx, radial)[0] == "MultiTermDivision"


def test_radial_gram_entries_call_no_integral(ctx3, monkeypatch):
    weight = RadialFunction(((ONE, 0, 0), (Scalar.from_fraction(-1), 2, 0)))
    ips = (sphere_inner_product(), ball_inner_product(), weighted_ball_inner_product(weight))
    want = [basis_harmonic(4, ctx3, ip) for ip in ips]

    def unused(*args):
        raise AssertionError("a radial Gram entry called an integral")

    monkeypatch.setattr(harmonic, "integrate_sphere", unused)
    monkeypatch.setattr(harmonic, "integrate_ball", unused)
    assert [basis_harmonic(4, ctx3, ip) for ip in ips] == want


def _series_data(rng, ctx):
    """A polynomial whose terms mix x1 degrees 0..5 with the other
    coordinates and the auxiliary variables, and rational, sqrt(2), pi and
    log(3) coefficients, as anti-Laplacian data carries them."""
    units = (ONE, Scalar.sqrt_int(2), Scalar.pi_power(2), Scalar.log_fraction(3))
    others = ctx.coords[1:] + ctx.extra
    pairs = []
    for _ in range(rng.randrange(1, 7)):
        mono = {ctx.coords[0]: rng.randrange(6)}
        for _ in range(rng.randrange(5)):
            v = rng.choice(others)
            mono[v] = mono.get(v, 0) + 1
        c = F(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 5))
        pairs.append((tuple(sorted((v, e) for v, e in mono.items() if e)), rng.choice(units) * c))
    return Polynomial.from_raw(pairs)


def test_closed_form_series_matches_the_iterated_series():
    # the anti-Laplacian is the series of the data integrated twice in x1
    rng = random.Random(29)
    sigs = set()
    for n in (1, 2, 3, 4, 5, 6):
        ctx = Context(n, extra=("a",))
        first = ctx.coords[0]
        fixed = [Polynomial(), Polynomial.const(3), Polynomial.var("a", 2), Polynomial.var(ctx.coords[-1], 4)]
        for s in [_series_data(rng, ctx) for _ in range(12)] + fixed:
            sigs.update(s.blocks)
            twice = poly_oracle.integrate(poly_oracle.integrate(s, first), first)
            assert first_coordinate_series(s, ctx) == poly_oracle.first_coordinate_series(twice, ctx), (n, s)
    assert len(sigs) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ladder_levels_give_the_series_of_cauchy_monomials(n):
    # the series of x1^eps x'^b is sum_k (-1)^k eps!/(eps+2k)! x1^(eps+2k) D'^k x'^b
    ctx = Context(n)
    first, rest = ctx.coords[0], ctx.coords[1:]
    for m in range(9):
        lay = _layout(tuple(sorted(ctx.coords)), _stride(m))
        unit = lay.unit[first]
        for eps in (0, 1):
            for kb in monomials(lay, rest, [m - eps]):
                levels = harmonic._ladder({kb: 1}, lay, rest)
                series = poly_sum(
                    _new(lay, {RATIONAL: (1, level)}).scale(F((-1) ** k * factorial(eps), factorial(eps + 2 * k)))
                    * Polynomial.var(first, eps + 2 * k)
                    for k, level in enumerate(levels)
                )
                cauchy = Polynomial.var(first, eps) * _new(lay, {RATIONAL: (1, {kb: 1})})
                top, nums = harmonic._cauchy_series({kb: 1}, eps, lay, unit, rest)
                assert series == _new(lay, {RATIONAL: (1, nums)}).scale(F(factorial(eps), factorial(top))), (m, eps, kb)
                assert series == poly_oracle.first_coordinate_series(cauchy, ctx), (m, eps, kb)


@pytest.mark.parametrize("n", [3, 4])
def test_high_degree_bases_match_the_polynomial_gram_schmidt(n):
    ctx = Context(n)
    for m in range(9, 13):
        basis, classes = poly_oracle.cauchy_basis(m, ctx)
        assert basis_harmonic(m, ctx) == basis, m
        for ip in (sphere_inner_product(), ball_inner_product()):
            want = poly_oracle.fischer_orthonormal(basis, classes, ip.degree_factor(m, n))
            assert basis_harmonic(m, ctx, ip) == want, (m, ip.name)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_matches_the_polynomial_gram_schmidt(n):
    ctx = Context(n)
    weighted = weighted_ball_inner_product(parse_radial("1 - r^2"))
    for m in range(9):
        basis, classes = poly_oracle.cauchy_basis(m, ctx)
        assert basis_harmonic(m, ctx) == basis, m
        for ip in (sphere_inner_product(), ball_inner_product(), weighted):
            want = poly_oracle.fischer_orthonormal(basis, classes, ip.degree_factor(m, n))
            assert basis_harmonic(m, ctx, ip) == want, (m, ip.name)


def test_zonal_fixture_m5_n3():
    ctx = make_context(3, extra_vecs=("y",))
    y = ("y1", "y2", "y3")
    z = zonal_harmonic(5, ctx, y)
    dot = poly_sum([Polynomial.var(a) * Polynomial.var(b) for a, b in zip(ctx.coords, y)])
    nx, ny = ctx.norm_sq_poly(), ctx.norm_sq_poly(y)
    fix = (
        (dot**5).scale(F(693, 8))
        - (dot**3 * nx * ny).scale(F(385, 4))
        + (dot * nx**2 * ny**2).scale(F(165, 8))
    )
    assert z == fix
    assert F(693, 8) - F(385, 4) + F(165, 8) == dim_harmonic(5, 3)


def test_zonal_trivial():
    ctx = make_context(4, extra_vecs=("y",))
    z0 = zonal_harmonic(0, ctx, tuple("y%d" % (i + 1) for i in range(4)))
    assert z0 == Polynomial.const(1)


def test_a_negative_zonal_degree_gives_zero():
    # H_m is {0} for m < 0, so its reproducing kernel is 0
    for n in (1, 2, 3, 5):
        ctx = make_context(n, extra_vecs=("y",))
        y = ctx.extra
        for m in (-1, -2, -7):
            assert zonal_coefficients(m, n) == []
            assert zonal_harmonic(m, ctx, y) == Polynomial()
        with pytest.raises(DimensionMismatch):
            zonal_harmonic(-1, ctx, y + ("x1",))


def test_zonal_coefficients_n7():
    # degree 6 with the second argument on the unit sphere
    assert zonal_coefficients(6, 7) == [
        F(357, 16) * 143,
        F(-357, 16) * 143,
        F(357, 16) * 33,
        F(-357, 16),
    ]
    # degree 8 with both arguments on the unit sphere
    assert zonal_coefficients(8, 7) == [
        F(693, 128) * 4199,
        F(693, 128) * -6188,
        F(693, 128) * 2730,
        F(693, 128) * -364,
        F(693, 128) * 7,
    ]
    assert sum(zonal_coefficients(8, 7)) == dim_harmonic(8, 7)


def test_zonal_harmonic_in_first_block():
    ctx = make_context(3, extra_vecs=("y",))
    z = zonal_harmonic(4, ctx, ("y1", "y2", "y3"))
    assert poly_laplacian(z, ctx).is_zero()


def test_zonal_reproducing_property():
    # integrating a degree-m harmonic against the zonal kernel over the
    # sphere in the second argument reproduces the harmonic
    for m in range(0, 5):
        ctx = Context(3, coords=("z1", "z2", "z3"), extra=("x1", "x2", "x3"))
        xnames = ("x1", "x2", "x3")
        z = zonal_harmonic(m, ctx, xnames)
        outer = Context(3)
        for h in basis_harmonic(m, outer):
            hz = rename_vars(h, dict(zip(("x1", "x2", "x3"), ("z1", "z2", "z3"))))
            got = integrate_sphere(hz * z, ctx)
            if isinstance(got, Scalar):
                got = Polynomial.const(got)
            assert got == h


def test_zonal_trace_normalization():
    for n in (3, 5):
        ctx = make_context(n, extra_vecs=("y",))
        y = tuple("y%d" % (i + 1) for i in range(n))
        for m in (2, 3, 4):
            z = zonal_harmonic(m, ctx, y)
            diag = z
            for a, b in zip(ctx.coords, y):
                diag = diag.substitute(b, Polynomial.var(a))
            reduced = reduce_poly_on_sphere(diag, ctx.coords, 1)
            assert reduced == Polynomial.const(F(dim_harmonic(m, n)))
