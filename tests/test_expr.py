import random
from fractions import Fraction as F

import pytest

import poly_oracle
from conftest import E, P, random_norm_expr, random_polynomial, rational_sphere_point

from harmcalc.calculus import normal_d_surface
from harmcalc.errors import (
    EmptyInterior,
    MultiTermDivision,
    NegativeBaseValue,
    NegativeRadicand,
    NonRationalSqrt,
    UnsupportedBase,
    UnsupportedDimension,
    UnsupportedInputError,
    ZeroBaseValue,
    ZeroGradientField,
)
from harmcalc.expr import (
    Context,
    Expr,
    context_of,
    eval_expr,
    make_context,
    reduce_poly_on_sphere,
    restrict_to_sphere,
    substitute_norm_radius,
)
from harmcalc.parser import parse_expression
from harmcalc.poly import Polynomial, horner, poly_sum
from harmcalc.render import expr_text
from harmcalc.scalar import MAX_POWER_BITS, Scalar, scalar_sqrt
from harmcalc.transforms import kelvin


def test_norm_squared_expands(ctx3):
    e = Expr.norm_power(ctx3, 1)
    p = ctx3.norm_sq_poly()
    assert (e * e - Expr.from_poly(ctx3, p)).is_zero()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Context(0), UnsupportedDimension, "^dimension must be positive$"),
        (
            lambda: Expr.base_power(Context(2), Polynomial.const(2), 1),
            UnsupportedBase,
            "^constant polynomials cannot be bases$",
        ),
        (
            lambda: normal_d_surface(E("x1", make_context(2, extra=("a",))), Polynomial.var("a")),
            ZeroGradientField,
            "vanishes identically",
        ),
        (lambda: Scalar.sqrt_int(0), NegativeRadicand, "^sqrt of nonpositive integer 0$"),
        (lambda: scalar_sqrt(Scalar.sqrt_int(2)), NonRationalSqrt, "already carrying a radical"),
    ],
    ids=["dimension-0", "constant-base", "auxiliary-surface", "sqrt-0", "sqrt-of-a-radical"],
)
def test_typed_refusals(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert info.value.exit_code == 3


def test_like_terms_cancel(ctx3):
    x1 = Expr.from_poly(ctx3, Polynomial.var("x1"))
    n3 = Expr.norm_power(ctx3, 3)
    assert (n3 * x1 - x1 * n3).is_zero()


def test_factored_vs_expanded_forms():
    ctx = make_context(2, extra_vecs=("y",))
    nx = ctx.norm_sq_poly()
    ny = ctx.norm_sq_poly(("y1", "y2"))
    a = Expr.from_poly(ctx, Polynomial.const(1) - nx * ny)
    b = Expr.from_poly(ctx, Polynomial.const(1)) - Expr.from_poly(ctx, nx) * Expr.from_poly(ctx, ny)
    assert (a - b).is_zero()


def test_common_denominator_zero_test(ctx3):
    # x1 ||x||^-1 - x1 ||x||^2 ||x||^-3 = 0
    x1 = Polynomial.var("x1")
    a = Expr.make(ctx3, x1, [(ctx3.norm_base, -1, 0)])
    b = Expr.make(ctx3, x1 * ctx3.norm_sq_poly(), [(ctx3.norm_base, -3, 0)])
    assert (a - b).is_zero()


def test_divisibility_pullout_canonicalizes(ctx3):
    # ||x||^2 p * ||x||^-4 and p * ||x||^-2 canonicalize identically
    p = P("x1 + 2*x2", ctx3)
    a = Expr.make(ctx3, ctx3.norm_sq_poly() * p, [(ctx3.norm_base, -4, 0)])
    b = Expr.make(ctx3, p, [(ctx3.norm_base, -2, 0)])
    assert a.terms == b.terms


def test_substitute_norm_radius(ctx3):
    e = Expr.make(ctx3, Polynomial.var("x1"), [(ctx3.norm_base, 3, 0)])
    assert substitute_norm_radius(e, 2, ctx3) == Expr.from_poly(
        ctx3, Polynomial.var("x1").scale(8)
    )
    loge = Expr.norm_power(ctx3, 0, log_pow=1)
    assert substitute_norm_radius(loge, 1, ctx3).is_zero()
    at2 = substitute_norm_radius(loge, 2, ctx3)
    assert at2 == Expr.from_scalar(ctx3, Scalar.log_fraction(2) * Scalar.from_fraction(2))


def test_substitute_norm_radius_bounds_each_power(ctx3):
    # at r = 2 each factor adds one bit; an even norm power is a polynomial
    for h in (MAX_POWER_BITS - 1, -(MAX_POWER_BITS - 1)):
        got = substitute_norm_radius(Expr.norm_power(ctx3, h), 2, ctx3)
        assert got == Expr.from_scalar(ctx3, Scalar.from_fraction(F(2) ** h))
    for h in (MAX_POWER_BITS + 1, -(MAX_POWER_BITS + 1)):
        with pytest.raises(UnsupportedInputError, match="^power too large"):
            substitute_norm_radius(Expr.norm_power(ctx3, h), 2, ctx3)


def test_a_radius_that_is_not_positive_is_refused(ctx3):
    e = Expr.norm_power(ctx3, 1)
    for r in (0, -1, F(-1, 2)):
        with pytest.raises(EmptyInterior, match="^radius must be positive"):
            substitute_norm_radius(e, r, ctx3)
        with pytest.raises(EmptyInterior, match="^radius must be positive"):
            restrict_to_sphere(e, ctx3, r)


def test_restrict_to_sphere_basics(ctx3):
    assert restrict_to_sphere(Expr.from_poly(ctx3, ctx3.norm_sq_poly()), ctx3) == Polynomial.const(1)
    got = restrict_to_sphere(Expr.from_poly(ctx3, P("x3^2*x1", ctx3)), ctx3)
    assert got == P("x1 - x1^3 - x1*x2^2", ctx3)


def test_restrict_rejects_foreign_bases(ctx3):
    q = P("x1^2 + 2*x2^2 + 1", ctx3)
    e = Expr.base_power(ctx3, q, -1)
    with pytest.raises(UnsupportedBase):
        restrict_to_sphere(e, ctx3)


def test_eval_at(ctx3):
    ctx2 = Context(2)
    assert eval_expr(Expr.norm_power(ctx2, 2), {"x1": F(3), "x2": F(4)}) == Scalar.from_fraction(25)
    assert eval_expr(Expr.norm_power(ctx2, 1), {"x1": F(1), "x2": F(1)}) == Scalar.sqrt_int(2)
    assert eval_expr(Expr.norm_power(ctx2, -1), {"x1": F(3), "x2": F(4)}) == Scalar.from_fraction(F(1, 5))
    with pytest.raises(ZeroBaseValue):
        eval_expr(Expr.norm_power(ctx2, -1), {"x1": F(0), "x2": F(0)})


def test_polynomial_identity_zero(ctx3):
    rng = random.Random(3)
    for _ in range(25):
        p = random_polynomial(rng, ctx3)
        q = random_polynomial(rng, ctx3)
        assert (p * q - q * p).is_zero()


def test_restriction_agrees_with_eval(ctx3):
    rng = random.Random(9)
    e = random_norm_expr(rng, ctx3)
    restricted = restrict_to_sphere(e, ctx3)
    for _ in range(200):
        pt = rational_sphere_point(rng, 3)
        point = dict(zip(ctx3.coords, pt))
        assert eval_expr(e, point, ctx3) == restricted.eval(point)


def test_arithmetic_eval_homomorphism(ctx3):
    rng = random.Random(31)
    for _ in range(10):
        a = random_norm_expr(rng, ctx3)
        b = random_norm_expr(rng, ctx3)
        pt = {v: F(rng.randrange(1, 6), rng.randrange(1, 4)) for v in ctx3.coords}
        assert eval_expr(a + b, pt, ctx3) == eval_expr(a, pt, ctx3) + eval_expr(b, pt, ctx3)
        assert eval_expr(a * b, pt, ctx3) == eval_expr(a, pt, ctx3) * eval_expr(b, pt, ctx3)


def test_canonical_idempotence(ctx3):
    rng = random.Random(41)
    for _ in range(20):
        e = random_norm_expr(rng, ctx3) + random_norm_expr(rng, ctx3)
        again = Expr._from_raw(ctx3, list(e.terms))
        assert again.terms == e.terms
        shuffled = list(e.terms)
        rng.shuffle(shuffled)
        assert Expr._from_raw(ctx3, shuffled).terms == e.terms


def test_base_registration_content():
    ctx = Context(3)
    g = P("4*x1^2 + 36*x2^2 + 16*x3^2", ctx)
    bid, content = ctx.register_base(g)
    assert content == F(4)
    assert ctx.base_poly(bid) == P("x1^2 + 9*x2^2 + 4*x3^2", ctx)
    # registering an equivalent multiple maps to the same primitive base
    bid2, content2 = ctx.register_base(g.scale(F(1, 2)))
    assert bid2 == bid and content2 == F(2)


def test_base_names():
    ctx = Context(3)
    other, _ = ctx.register_base(P("x1 + 2", ctx))
    assert ctx.base_name(ctx.norm_base) == "normSq(x)"
    assert ctx.base_name(other) is None


def test_negative_base_under_a_root_or_log():
    ctx = Context(3)
    # -1 - x1^2 is -1 times a primitive base: no half power of it is real
    with pytest.raises(NegativeBaseValue):
        Expr.base_power(ctx, P("-1 - x1^2", ctx), 1)
    with pytest.raises(NegativeBaseValue):
        Expr.base_power(ctx, P("-1 - x1^2", ctx), 0, 1)
    root = Expr.base_power(ctx, P("x1 + 2", ctx), 1)
    with pytest.raises(NegativeBaseValue):
        eval_expr(root, {"x1": F(-3), "x2": F(0), "x3": F(0)})
    assert eval_expr(root, {"x1": F(2), "x2": F(0), "x3": F(0)}) == Scalar.from_fraction(2)


@pytest.mark.parametrize(
    "half, log_pow, message",
    [
        (1, -1, "log power must be an integer >= 0, got -1"),
        (1, 1.5, "log power must be an integer >= 0, got 1.5"),
        (1, F(1), "log power must be an integer >= 0, got 1"),
        (F(1, 2), 0, "half exponent must be an integer, got 1/2"),
        (1.0, 0, "half exponent must be an integer, got 1.0"),
    ],
)
def test_a_factor_exponent_that_is_no_int_is_refused(half, log_pow, message):
    # where the factor is read: norm_power, make and base_power
    ctx = Context(3)
    calls = (
        lambda: Expr.norm_power(ctx, half, log_pow),
        lambda: Expr.make(ctx, P("x1", ctx), [(ctx.norm_base, 2, 0), (ctx.norm_base, half, log_pow)]),
        lambda: Expr.base_power(ctx, P("x1^2 + 1", ctx), half, log_pow),
    )
    for call in calls:
        with pytest.raises(UnsupportedInputError, match="^%s$" % message):
            call()


def test_reduce_poly_on_sphere_radius():
    ctx = Context(5)
    p = ctx.norm_sq_poly()
    assert reduce_poly_on_sphere(p, ctx.coords, 16) == Polynomial.const(F(16))


def test_equal_values_hash_equal(ctx3):
    values = [
        (1, F(1), Scalar.from_fraction(1), Polynomial.const(1), Expr.from_scalar(ctx3, 1)),
        (0, F(0), Scalar.from_fraction(0), Polynomial(), Expr.zero(ctx3)),
        (F(-3, 4), Scalar.from_fraction(F(-3, 4)), Polynomial.const(F(-3, 4)),
         Expr.from_scalar(ctx3, F(-3, 4))),
        (Scalar.pi_power(1), Polynomial.const(Scalar.pi_power(1)),
         Expr.from_scalar(ctx3, Scalar.pi_power(1))),
        (P("x1^2 - 2*x3", ctx3), Expr.from_poly(ctx3, P("x1^2 - 2*x3", ctx3))),
    ]
    for group in values:
        for a in group:
            for b in group:
                assert a == b
                assert hash(a) == hash(b)
        assert len(set(group)) == 1
    assert len({v for group in values for v in group}) == len(values)
    # an Expr with base factors is not a polynomial and hashes as itself
    n1 = Expr.norm_power(ctx3, 1)
    assert hash(n1) == hash(Expr.norm_power(ctx3, 1))


def test_equal_exprs_built_two_ways_hash_alike(ctx3):
    """An odd, log-free, nonnegative power keeps its group's least power, so
    one value has several representatives; equal Exprs still hash alike."""
    nb, x1, x2, norm_sq = ctx3.norm_base, P("x1", ctx3), P("x2", ctx3), ctx3.norm_sq_poly()
    pairs = [
        (Expr.make(ctx3, x1, [(nb, 3, 0)]), Expr.make(ctx3, x1 * norm_sq, [(nb, 1, 0)])),
        # beside a polynomial part and a log term, which have one representative each
        (
            Expr.make(ctx3, x1, [(nb, 5, 0)]) + x2 + Expr.norm_power(ctx3, -1, 2),
            Expr.make(ctx3, x1 * norm_sq * norm_sq, [(nb, 1, 0)]) + x2 + Expr.norm_power(ctx3, -1, 2),
        ),
    ]
    for e1, e2 in pairs:
        assert e1.terms != e2.terms
        assert e1 == e2 and hash(e1) == hash(e2)
        assert len({e1, e2}) == 1
    # values that differ stay apart in a set
    assert len({e for pair in pairs for e in pair} | {Expr.make(ctx3, x2, [(nb, 3, 0)])}) == 3


def test_one_canonicalization_equals_the_fold():
    """`_from_raw` over the concatenated terms equals the left fold of `+`."""
    from harmcalc.kernels import poisson_base

    rng = random.Random(31)
    ctx = make_context(3, extra_vecs=("y",))
    base = poisson_base(ctx, ctx.extra)
    for _ in range(40):
        es = []
        for _ in range(rng.randrange(2, 6)):
            p = Expr.from_poly(ctx, random_polynomial(rng, ctx, max_degree=3, terms=3))
            kind = rng.randrange(3)
            if kind == 0:
                f = Expr.norm_power(ctx, rng.randrange(-4, 5))
            elif kind == 1:
                f = Expr.norm_power(ctx, rng.randrange(-2, 3), log_pow=rng.randrange(1, 3))
            else:
                f = Expr.base_power(ctx, base, rng.randrange(-5, 2))
            es.append(p * f)
        if rng.random() < 0.3:
            es.append(-es[0])
        fold = Expr.zero(ctx)
        for e in es:
            fold = fold + e
        once = Expr._from_raw(ctx, [t for e in es for t in e.terms])
        assert once.terms == fold.terms
        # output order: by factor tuple, each tuple once
        factors = [f for _, f in once.terms]
        assert factors == sorted(set(factors))


def test_a_polynomial_multiple_has_the_terms_of_its_canonical_form(monkeypatch):
    """Every product with a polynomial side, whether or not the other side
    has a log or a negative power, is one `_from_raw` call over the raw
    product, and its terms are exactly those `_from_raw` gives it."""
    from harmcalc.kernels import poisson_base

    rng = random.Random(38)
    ctx = make_context(3, extra_vecs=("y",))
    base = poisson_base(ctx, ctx.extra)
    from_raw = Expr._from_raw
    calls = []
    monkeypatch.setattr(Expr, "_from_raw", staticmethod(lambda *args: calls.append(args) or from_raw(*args)))
    kinds = {True: 0, False: 0}
    for i in range(60):
        e = random_norm_expr(rng, ctx)
        if i % 3 == 1:
            e = e * Expr.norm_power(ctx, 0, log_pow=rng.randrange(1, 3))
        elif i % 3 == 2:
            e = e * Expr.base_power(ctx, base, rng.randrange(-3, 4))
        pulls = any(j or h < 0 for _, f in e.terms for _, h, j in f)
        multiples = (
            random_polynomial(rng, ctx),
            Polynomial(),
            Polynomial.const(F(rng.randrange(-9, 10) or 1, 7)),
            Polynomial.const(Scalar.sqrt_fraction(F(2))),
        )
        for q in (Expr.from_poly(ctx, m) for m in multiples):
            for a, b in ((e, q), (q, e)):
                raw = [(p1 * p2, f1 + f2) for p1, f1 in a.terms for p2, f2 in b.terms]
                calls.clear()
                got = a * b
                assert calls == [(ctx, raw)]
                assert got.terms == from_raw(ctx, raw).terms
                kinds[pulls] += bool(raw)
    # nonzero products with and without a factor to pull both occur
    assert min(kinds.values()) >= 60, kinds


def test_grouped_shifts_match_per_member_shifts():
    """`_from_raw` sums the members of one shift before shifting them; it
    must give what shifting every member on its own gives (the oracle)."""
    ctx = make_context(3, extra_vecs=("y",))
    nb = ctx.norm_base
    other, _ = ctx.register_base(P("x1*y1 + 2*x2 + 3", ctx))
    x1, x2, x3 = (Polynomial.var(v) for v in ctx.coords)
    norm = ctx.base_poly(nb)

    def check(raw):
        got = Expr._from_raw(ctx, raw)
        assert got.terms == poly_oracle.canonical_terms(ctx, raw)
        return got

    # equal shifts: two members at each of the half powers 1 and 3
    got = check([(x1, ((nb, 1, 0),)), (x2, ((nb, 1, 0),)), (x3, ((nb, 3, 0),)), (x1 * x2, ((nb, 3, 0),))])
    assert got.terms == ((x1 + x2 + (x3 + x1 * x2) * norm, ((nb, 1, 0),)),)
    # members with nonzero shifted sums whose group sum cancels: the group vanishes
    got = check([(x1, ((nb, 1, 2),)), (-x1 * norm, ((nb, -1, 2),)), (x2, ((other, -1, 0),))])
    assert got.terms == ((x2, ((other, -1, 0),)),)
    assert check([(x1, ((nb, 1, 0),)), (x2, ((nb, 1, 0),)), (-x1 - x2, ((nb, 1, 0),))]).is_zero()
    # the grouped sum is a multiple of the base, so divide_exact pulls it out
    got = check([(x1 * norm, ((nb, -3, 0),)), (x2 * norm, ((nb, -3, 0),)), (x3, ((nb, -1, 0),))])
    assert got.terms == ((x1 + x2 + x3, ((nb, -1, 0),)),)
    got = check([(x1 * norm, ((nb, -3, 1),)), (-x1, ((nb, -1, 1),)), (x2 * norm * norm, ((nb, -3, 1),))])
    assert got.terms == ((x2, ((nb, 1, 1),)),)

    rng = random.Random(2004)
    for _ in range(60):
        raw = []
        for _ in range(rng.randrange(1, 9)):
            fac = []
            for b in rng.sample([nb, other], rng.randrange(3)):
                fac.append((b, rng.choice((-5, -3, -2, -1, 1, 2, 3)), rng.choice((0, 0, 1, 2))))
            poly = random_polynomial(rng, ctx, max_degree=2, terms=2)
            raw.append((poly, tuple(fac)))
            if rng.random() < 0.3:
                raw.append((-poly, tuple(fac)))
        check(raw)

    # a third base: two later bases' shifts are folded in, the last first
    third, _ = ctx.register_base(P("x2*x3 - y2 + 1", ctx))
    for _ in range(40):
        raw = []
        for _ in range(rng.randrange(1, 9)):
            fac = [(b, rng.choice((-5, -3, -2, 1, 2, 4)), rng.choice((0, 0, 1))) for b in (nb, other, third)]
            poly = random_polynomial(rng, ctx, max_degree=2, terms=2)
            raw.append((poly, tuple(rng.sample(fac, rng.randrange(4)))))
        check(raw)


def test_level_pull_out_matches_the_oracle():
    """`_from_raw` divides only the lowest level of sum_s L_s B^s by the
    base B; the oracle divides the whole shifted sum.  Both give the same
    blocks and the same text, with the norm base alone and with a second
    base of content 2, whose `Expr.base_power` terms carry sqrt(2) and
    log(2)."""
    rng = random.Random(18)
    ctx = Context(3)
    nb = ctx.norm_base
    two = P("2*x1*x2 + 2*x3 + 6", ctx)
    other, _ = ctx.register_base(two)

    def multiple(b):
        # a multiple of a base power, so the pulls have something to find
        poly = random_polynomial(rng, ctx, max_degree=2, terms=2)
        k = rng.randrange(3)
        return poly * ctx.base_poly(b) ** k if k and not poly.is_zero() else poly

    def check(raw):
        got = Expr._from_raw(ctx, raw)
        want = poly_oracle.canonical_terms(ctx, raw)
        assert got.terms == want
        assert expr_text(got) == expr_text(Expr(ctx, want))
        return got

    for case in range(80):
        two_bases = case % 2
        # a group's parity and log power per base; a few members leave it
        parity, logp = rng.randrange(2), rng.randrange(3)
        lows = rng.sample(range(-9 + parity, 10, 2), 3)
        raw = []
        for _ in range(rng.randrange(1, 7)):
            if rng.random() < 0.2:
                h, j = rng.randrange(-9, 10), rng.randrange(3)
            else:
                h, j = rng.choice(lows), logp
            poly = multiple(nb)
            if not two_bases:
                raw.append((poly, ((nb, h, j),)))
                continue
            g = Expr.base_power(ctx, two, rng.choice(lows), rng.randrange(3))
            for p, fac in g.terms:
                raw.append((poly * multiple(other) * p, ((nb, h, j),) + fac))
        # members at one shift: a second member at some half power
        if rng.random() < 0.5:
            _, fac = rng.choice(raw)
            raw.append((multiple(nb), fac))
        # the lowest level cancels: negate every member at the least half power
        if rng.random() < 0.4:
            low = min(fac[0][1] for _, fac in raw)
            raw += [(-p, fac) for p, fac in raw if fac[0][1] == low]
        got = check(raw)
        # all-zero sums
        assert check(raw + [(-p, fac) for p, fac in raw]).is_zero()
        assert check([(-p, fac) for p, fac in got.terms] + raw).is_zero()

    # even half powers with no log that pull back to 0 expand into the
    # polynomial part; a lowest level of 0 is pulled without a division
    x1, x2 = Polynomial.var("x1"), Polynomial.var("x2")
    norm = ctx.base_poly(nb)
    got = check([(x1 * norm * norm, ((nb, -4, 0),)), (x2 * norm, ((nb, -2, 0),))])
    assert got.terms == ((x1 + x2, ()),)
    got = check([(x1, ((nb, -6, 0),)), (-x1, ((nb, -6, 0),)), (x2 * norm, ((nb, -4, 0),))])
    assert got.terms == ((x2, ((nb, -2, 0),)),)
    got = check([(x1, ((nb, -5, 1),)), (-x1 * norm, ((nb, -7, 1),)), (x2 * norm, ((nb, -3, 1),))])
    assert got.terms == ((x2, ((nb, -1, 1),)),)
    # every member carries a base outside the signature at a positive even
    # half power with no log: it starts from b^0 and its powers ride the shifts
    q = ctx.base_poly(other)
    got = check([(x1, ((nb, -3, 1), (other, 2, 0))), (x2 * norm, ((nb, -5, 1), (other, 4, 0)))])
    assert got.terms == ((x1 * q + x2 * q * q, ((nb, -3, 1),)),)
    got = check([(x1, ((nb, 2, 0), (other, 1, 0))), (x2, ((nb, 4, 0), (other, -1, 0)))])
    assert got.terms == ((x1 * norm * q + x2 * norm * norm, ((other, -1, 0),)),)


def test_a_base_outside_the_signature_comes_last(monkeypatch):
    """The norm base, at positive even half powers with no log, is never
    pulled, so it does not take the first place from the base that is:
    that base divides only its lowest level, b Q^6 ||x||^2 here, and
    never the whole total."""
    ctx = Context(3)
    nb = ctx.norm_base
    q, _ = ctx.register_base(P("x1^2 + 2*x2^2 + 3*x3 + 5", ctx))
    big_q, norm = ctx.base_poly(q), ctx.base_poly(nb)
    a, b = P("x1^3*x2 - 2*x3^2 + 7*x1", ctx), P("x2^4 + x1*x3 - 3", ctx)
    raw = [
        (a * big_q**4, ((nb, 4, 0), (q, -9, 1))),
        (b * big_q**6, ((nb, 2, 0), (q, -11, 1))),
        (a * b * big_q**5, ((nb, 6, 0), (q, -9, 1))),
    ]
    dividends = []
    divide_exact = Polynomial.divide_exact

    def recorded(self, divisor, rank):
        dividends.append(self)
        return divide_exact(self, divisor, rank)

    monkeypatch.setattr(Polynomial, "divide_exact", recorded)
    got = Expr._from_raw(ctx, raw)
    assert got.terms == poly_oracle.canonical_terms(ctx, raw)
    assert [f for _, f in got.terms] == [((q, -1, 1),)]
    assert dividends[0] == b * big_q**6 * norm


def test_horner_is_the_sum_of_whole_powers():
    """`horner` gives the naive sum of p * B^s: with gaps in s, a repeated
    s (here cancelling a level), an empty input and s = 0 only."""
    ctx = Context(3)
    base = P("x1^2 + 2*x2*x3 - 3", ctx)
    x1, x2, x3 = (Polynomial.var(v) for v in ctx.coords)
    sqrt2 = Polynomial.const(Scalar.sqrt_int(2))
    cases = [
        [(0, x1), (3, x2 * sqrt2), (7, x1 * x3 - 1)],
        [(2, x1), (5, x2), (2, x3), (2, -x1), (0, x2 * x3)],
        [(4, x1), (4, -x1), (1, x3)],
        [],
        [(0, x1 + x2)],
        [(0, x1), (0, x3 * sqrt2)],
    ]
    for pairs in cases:
        assert horner(pairs, base) == poly_sum(p * base**s for s, p in pairs)
    assert horner([(3, x1)], Polynomial.const(F(2, 3))) == x1 * F(8, 27)
    assert horner([(0, x1), (2, x2)], Polynomial()) == x1


def test_horner_refuses_what_the_whole_power_refuses():
    """Past the size or height bound `horner` raises what `B ** top` raises, before any product."""
    ctx = Context(2)
    for base, top in ((ctx.norm_sq_poly(), 10000), (P("3^4000*x1 + 1", ctx), 300)):
        with pytest.raises(UnsupportedInputError) as whole:
            base**top
        with pytest.raises(UnsupportedInputError) as folded:
            horner([(0, Polynomial.var("x1")), (top, Polynomial.const(1))], base)
        assert str(folded.value) == str(whole.value)


def test_horner_steps_over_absent_levels_by_square_and_multiply(monkeypatch):
    """A lone level at s costs O(log s) products, so `eval x1^E` at a
    constant stays cheap for an E far past the number of levels worth
    walking one at a time."""
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    top = 10**5
    assert Polynomial.var("x1", top).substitute("x1", F(3)) == Polynomial.const(3**top)
    assert len(products) <= 2 * top.bit_length() + 2
    products.clear()
    x2, x3 = Polynomial.var("x2"), Polynomial.var("x3")
    got = horner([(top, x2), (top // 2, Polynomial.const(1)), (1, x3)], Polynomial.const(3))
    assert got == x2 * 3**top + 3 ** (top // 2) + x3 * 3
    assert len(products) <= 3 * (2 * top.bit_length() + 2)

def test_kelvin_round_trip_in_dimension_5_pulls_six_times(monkeypatch):
    """The second Kelvin transform divides its lowest level by ||x||^2 six
    times before the round trip gives the input back."""
    ctx = Context(5)
    u = E(
        "(x1^6*x2^2*x3 - 3*x4^3*x5^4 + 2*x1*x2^3 - 5*x3^2)*norm(x)^-11"
        " + (x3^2*x5^3 + x1^2*x2^2*x4^4)*norm(x)^-15",
        ctx,
    )
    assert [f for _, f in u.terms] == [((ctx.norm_base, -15, 0),)]
    k = kelvin(u)
    assert [f for _, f in k.terms] == [((ctx.norm_base, -10, 0),)]
    hits = []
    divide_exact = Polynomial.divide_exact

    def counted(self, divisor, rank):
        q = divide_exact(self, divisor, rank)
        hits.append(q is not None)
        return q

    monkeypatch.setattr(Polynomial, "divide_exact", counted)
    assert kelvin(k).terms == u.terms
    assert hits == [True] * 6 + [False]


def test_division_by_a_constant(ctx3):
    e = E("x1*norm(x)^3 + 2*log(norm(x)) - 3/5*x2", ctx3)
    assert (e / 2).terms == e.scale(Scalar.from_fraction(F(1, 2))).terms
    assert e / F(2, 3) == E("3/2*x1*norm(x)^3 + 3*log(norm(x)) - 9/10*x2", ctx3)
    pi_sqrt2 = Scalar.pi_power(2) * Scalar.sqrt_int(2)
    assert (e / pi_sqrt2) * pi_sqrt2 == e
    with pytest.raises(MultiTermDivision):
        e / (Scalar.sqrt_int(2) + 1)
    for zero in (0, F(0), Scalar.from_fraction(0)):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            e / zero



def test_scale_keeps_the_terms_of_canonical_form():
    """e.scale(c) has exactly the terms of `Expr._from_raw` on the scaled
    raw terms: a nonzero constant leaves every term canonical, with its
    factors, its base divisibility and its zero test, and 0 leaves none.

    Odd, negative and log powers of the norm and of a base registered with
    content 2, terms with both bases, and 0.
    """
    rng = random.Random(1511)
    ctx = Context(3, extra=("y1",))
    second = P("2*x1^2 + 2*x2*x3 + 4*y1 + 6", ctx)
    exprs = [
        Expr.zero(ctx),
        E("x1*norm(x)^3 + 2*log(norm(x))^2 - 3/5*x2", ctx),
        E("(x1^2 + x2^2 + x3^2)*x2*norm(x)^-3*log(norm(x)) + x3*norm(x)^-5", ctx),
        Expr.from_poly(ctx, P("x1 - y1", ctx)) * Expr.base_power(ctx, second, -3, 2),
    ]
    for _ in range(12):
        e = random_norm_expr(rng, ctx) * Expr.norm_power(ctx, 0, rng.randrange(3))
        if rng.random() < 0.5:
            e = e * Expr.base_power(ctx, second, rng.randrange(-5, 6), rng.randrange(3))
        exprs.append(e + random_norm_expr(rng, ctx))
    one, r3 = Scalar.from_fraction(1), Scalar.sqrt_int(3)
    constants = (F(3, 4), -2, Scalar.sqrt_int(2), one + r3, Scalar.pi_power(-2), Scalar.log_fraction(2), 0, F(0))
    for e in exprs:
        for c in constants:
            want = Expr._from_raw(ctx, [(p.scale(c), f) for p, f in e.terms])
            assert e.scale(c).terms == want.terms
            assert e.scale(c).is_zero() == (e.is_zero() or not c)


def test_dot_of_unequal_length_vectors_is_refused():
    with pytest.raises(UnsupportedInputError, match="dot of unequal-length vectors"):
        parse_expression("dot(x,y)", Context(3), {"y": ("y1", "y2")})


def test_an_expr_from_another_context_is_a_typed_error():
    # base ids are per Context, so a foreign one is refused (exit 3), not a bare ValueError
    ctx1, ctx2 = Context(3), Context(3)
    e = Expr.from_poly(ctx1, Polynomial.var("x1"))
    assert context_of(e) is context_of(e, ctx1) is ctx1
    with pytest.raises(UnsupportedInputError, match="^expressions from different contexts$"):
        context_of(e, ctx2)
