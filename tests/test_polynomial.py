"""The packed polynomial operations against the term-at-a-time `poly_oracle`.

`+`, `poly_sum` and `Polynomial.from_raw` must return exactly the
polynomial that a left fold of the oracle's pairwise `add` gives.
`Polynomial.__mul__` and `Polynomial.divide_exact` must return exactly the
polynomial that `poly_oracle` computes one pair of terms at a time, or,
for division, both must report that the division is not exact.  `scale`,
negation, `partial`, `integrate`, `laplacian`, `gradient_dot`,
`substitute` and `eval` must agree with the oracle's loops over the
terms, `translate` with `substitute`, and equal results must hash alike.
`monomials` must list the keys of the oracle's recursive enumeration in
the same order.
Rendering must print the oracle's text and LaTeX, the `terms` view sorted
in graded-lex order, and the oracle's `coefficient` lookup on the blocks
must read the oracle's terms.
"""

import heapq
import random
import sys
from fractions import Fraction as F
from math import comb

import pytest

import poly_oracle

from harmcalc import poly
from harmcalc.errors import NonRationalValue, UnknownVariable, UnsupportedInputError
from harmcalc.expr import Context, Expr
from harmcalc.integrate import Quadratic
from harmcalc.poly import (
    Polynomial,
    Stencil,
    _layout,
    first_order_weight,
    gradient_weight,
    laplace_weight,
    monomials,
    order_key,
    poly_sum,
    quadratic_poly,
)
from harmcalc.render import poly_latex, poly_text
from harmcalc.scalar import Scalar

CTX = Context(3, extra=("y1", "t"))
# "aux" is in no context; "y1" and "t" are auxiliary symbols of CTX
NAMES = ("aux", "t", "x1", "x2", "x3", "y1")
COEFFS = (
    Scalar.from_fraction(1),
    Scalar.from_fraction(F(-7, 4)),
    Scalar.pi_power(1),
    Scalar.pi_power(-2),
    Scalar.sqrt_int(2),
    Scalar.sqrt_int(3),
    Scalar.sqrt_int(6) * F(2, 3),
    Scalar.log_fraction(6),
    Scalar.log_fraction(F(5, 2)) * Scalar.sqrt_int(5),
    Scalar.pi_power(1) + Scalar.sqrt_int(3),
    Scalar.log_fraction(2) * Scalar.pi_power(2) - F(1, 3),
)


def _mono(rng, max_exp):
    names = rng.sample(NAMES, rng.randrange(0, 4))
    return tuple(sorted((v, rng.randrange(1, max_exp + 1)) for v in names))


def _coeff(rng, rational):
    c = Scalar.from_fraction(F(rng.randrange(1, 9), rng.randrange(1, 5)))
    c = c if rng.random() < 0.5 else -c
    return c if rational else c * rng.choice(COEFFS)


def _poly(rng, terms, max_exp=3, rational=False):
    return Polynomial.from_raw(
        [(_mono(rng, max_exp), _coeff(rng, rational)) for _ in range(terms)]
    )


# exponents on both sides of the packed layout's field widths (fields of
# 8, 16, 32, 64, ... bits hold degrees below 2^7, 2^15, 2^31, 2^63, ...)
WIDE = (40, 100, 1000, 2**15 + 3, 2**16 + 1, 2**33, 2**62 + 1)


def _wide(rng, rational=False):
    """A polynomial with a large exponent in some variable."""
    p = _poly(rng, rng.randrange(1, 4), rational=rational)
    v = rng.choice(NAMES)
    return p * Polynomial.var(v, rng.choice(WIDE)) + _poly(rng, 2, rational=rational)


def _cases(rng):
    zero = Polynomial()
    const = Polynomial.const(rng.choice(COEFFS) * F(3, 2))
    yield zero, _poly(rng, 4)
    yield _poly(rng, 3), zero
    yield const, _poly(rng, 5)
    yield _poly(rng, 5), const
    yield const, const
    x, y = Polynomial.var("x1"), Polynomial.var("aux")
    r2, r3, r6 = Scalar.sqrt_int(2), Scalar.sqrt_int(3), Scalar.sqrt_int(6)
    # terms cancel inside one signature pair and across signature pairs
    yield x - y, x + y
    yield Polynomial.const(r2) + 1, Polynomial.const(r2) - 1
    yield x.scale(r6) + Polynomial.const(r2), x.scale(r3) - 1
    for _ in range(300):
        a, b = _poly(rng, rng.randrange(1, 7)), _poly(rng, rng.randrange(1, 7))
        yield a, b
        yield a, -a
    for _ in range(40):
        yield _wide(rng), _poly(rng, rng.randrange(1, 5))
        yield _wide(rng), _wide(rng)


def test_product_matches_oracle():
    rng = random.Random(2011)
    for a, b in _cases(rng):
        assert a * b == poly_oracle.mul(a, b)
        assert b * a == poly_oracle.mul(b, a)


def test_term_maps_match_oracle():
    rng = random.Random(1977)
    point = {v: F(rng.randrange(-4, 5), rng.randrange(1, 4)) for v in NAMES}
    point["t"] = Scalar.sqrt_int(3) * F(1, 2)
    values = (F(-2, 3), Scalar.sqrt_int(2), Polynomial.var("x1") + Polynomial.var("aux"), Polynomial.var("y1", 2))
    wide = 0
    for a, b in _cases(rng):
        for p in (a, b):
            c = _coeff(rng, rational=rng.random() < 0.5)
            for got, want in (
                (p.scale(c), poly_oracle.scale(p, c)),
                (p * c, poly_oracle.scale(p, c)),
                (-p, poly_oracle.neg(p)),
            ):
                assert got == want and hash(got) == hash(want)
            for v in rng.sample(NAMES, 2):
                assert p.partial(v) == poly_oracle.partial(p, v)
                assert p.integrate(v) == poly_oracle.integrate(p, v)
            # the Laplacian of p x^a over every name, and of p over a strict
            # subset of its variables plus a name outside its layout
            d = poly_oracle.partial
            pxa = poly_oracle.mul(p, Polynomial.from_raw([(_mono(rng, 3), 1)]))
            assert pxa.laplacian(NAMES) == poly_oracle.total([d(d(pxa, v), v) for v in NAMES])
            names = rng.sample(sorted(p.variables()), len(p.variables()) // 2) + ["z"]
            assert p.laplacian(names) == poly_oracle.total([d(d(p, v), v) for v in names])
            want = poly_oracle.gradient_dot(p, pxa, names)
            assert p.gradient_dot(pxa, names) == want and pxa.gradient_dot(p, names) == want
            if p.total_degree() > 12:
                # the oracle's powers of a substituted value and of a point
                # coordinate are computed in full
                wide += 1
                continue
            v = rng.choice(NAMES)
            value = rng.choice(values)
            assert p.substitute(v, value) == poly_oracle.substitute(p, v, value)
            assert p.eval(point) == poly_oracle.evaluate(p, point)
    assert wide > 50


@pytest.mark.parametrize("dim", range(1, 7))
def test_stencil_matches_the_second_order_oracle(dim):
    # random integer terms over the names and two variables outside them
    # ("u", "w", in the layout); the names applied, shuffled, also hold "z",
    # which is in no term: each image, at x^0 and at random x^a, with the
    # keys in the oracle's order, and added with a coefficient into a dict
    # that already holds some keys
    rng = random.Random(1968 + dim)
    names = tuple("x%d" % (i + 1) for i in range(dim))
    lay = _layout(tuple(sorted(names + ("u", "w"))))

    def key(variables, top):
        return lay.pack([(v, rng.randrange(top + 1)) for v in rng.sample(variables, rng.randrange(len(variables) + 1))])

    def inputs():
        for _ in range(40):
            nums = {key(names + ("u", "w"), 3): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randrange(1, 9))}
            use = list(rng.sample(names, rng.randrange(1, dim + 1))) + ["z"]
            rng.shuffle(use)
            yield nums, use, lambda: (0, key(names, 3), key(names + ("u",), 4), key(names, 1))
        # exponents b in {0, 1, 2} against a in {0, 1}: every case where a
        # row's weight vanishes (Laplacian a + b <= 1; gradient a = 0 or
        # b = 0; first order b = 0, or a = 0 and b = 1)
        nums = {lay.pack([(v, (i + j) % 3) for j, v in enumerate(names)]): i - 3 for i in range(3)}
        yield nums, names, lambda: [lay.pack([(v, 1) for j, v in enumerate(names) if m >> j & 1]) for m in range(1 << dim)]

    for nums, use, points in inputs():
        for weight in (laplace_weight, gradient_weight, first_order_weight):
            stencil = Stencil(nums, lay, use, weight)
            for ka in points():
                want = poly_oracle.second_order(nums, lay, use, ka, weight)
                assert list(stencil.add(ka, {}).items()) == list(want.items())
                c = rng.choice((-5, 2, 7))
                acc = {k: rng.randrange(-3, 4) for k in rng.sample(sorted(want), len(want) // 2)}
                expected = dict(acc)
                for k, n in want.items():
                    expected[k] = expected.get(k, 0) + c * n
                got = stencil.add(ka, acc, c)
                assert got is acc and got == expected
    if dim > 1:
        # terms that cancel: the image of x1^2 - x2^2 at x^0 is 2 - 2 at key 0
        nums = {lay.pack([("x1", 2)]): 1, lay.pack([("x2", 2)]): -1}
        want = poly_oracle.second_order(nums, lay, names, 0, laplace_weight)
        assert Stencil(nums, lay, names, laplace_weight).add(0, {}) == want == {0: 0}


def test_a_repeated_name_counts_once():
    x1, x2 = Polynomial.var("x1"), Polynomial.var("x2")
    p = x1**3 * x2**2
    assert p.laplacian(["x1", "x1", "x2"]) == p.laplacian(["x1", "x2"]) == 6 * x1 * x2**2 + 2 * x1**3
    assert p.gradient_dot(x1**2, ["x1", "x1"]) == p.gradient_dot(x1**2, ["x1"]) == 6 * x1**3 * x2**2


def test_laplacian_and_gradient_dot_match_the_second_order_oracle():
    # block by block against `poly_oracle.second_order`, over irrational
    # signatures (sqrt 2, sqrt 3, pi, logs), fields from 8 to 128 bits,
    # names that leave some variables out and one that is in no layout
    rng = random.Random(2004)
    r2 = Scalar.sqrt_int(2)
    blocks = 0
    for a, b in _cases(rng):
        b = b + Polynomial.var("x2").scale(r2 * F(-3, 5))
        names = rng.sample(NAMES, rng.randrange(1, len(NAMES) + 1)) + ["z"]
        assert a.laplacian(names) == poly_oracle.laplacian_by_blocks(a, names)
        want = poly_oracle.gradient_dot_by_terms(a, b, names)
        assert a.gradient_dot(b, names) == want and b.gradient_dot(a, names) == want
        assert b.laplacian(NAMES) == poly_oracle.laplacian_by_blocks(b, NAMES)
        blocks += len(a.blocks) > 1
    assert blocks > 100


def test_eval_without_a_value_for_a_variable_is_refused():
    p = Polynomial.var("x1") * Polynomial.var("x2")
    with pytest.raises(UnknownVariable, match="^no value for variable x2$"):
        p.eval({"x1": F(1)})


def test_translate_is_substitute_of_var_plus_c():
    rng = random.Random(1931)
    shifts = [F(0), F(1), F(-3), F(5, 4), F(-7, 6)]
    for name in NAMES:
        shifts += [Polynomial.var(name), -Polynomial.var(name), Polynomial.var(name).scale(F(-2, 9))]
    polys = [Polynomial(), Polynomial.const(F(-5, 3)), Polynomial.const(COEFFS[-1])]
    polys += [_poly(rng, rng.randrange(1, 7), rational=rng.random() < 0.3) for _ in range(150)]
    for p in polys:
        # "z" is in no polynomial here, and a constant has no variable at all
        for v in rng.sample(NAMES, 2) + ["z"]:
            other = [c for c in shifts if not isinstance(c, Polynomial) or v not in c.variables()]
            for c in rng.sample(other, 3):
                got = p.translate(v, c)
                want = p.substitute(v, Polynomial.var(v) + c)
                assert got == want and hash(got) == hash(want), (p, v, c)


@pytest.mark.parametrize(
    "c",
    [
        Polynomial.var("y1") + 1,
        Polynomial.var("y1") - Polynomial.var("t"),
        Polynomial.var("y1", 2),
        Polynomial.var("y1") * Polynomial.var("t"),
        Polynomial.var("x1").scale(F(1, 2)),
        Polynomial.const(Scalar.sqrt_int(2)),
    ],
)
def test_translate_refuses_what_it_cannot_shift_by(c):
    p = Polynomial.var("x1", 3) + Polynomial.var("y1")
    with pytest.raises(UnsupportedInputError, match="^x1 can be translated by a rational or a rational times"):
        p.translate("x1", c)


def test_translate_bounds_its_binomial():
    # (x1 + 1)^E has E + 1 terms of at most 2E bits: E (E + 1) 2 <= 2^22
    assert Polynomial.var("x1", 1447).translate("x1", 1).total_degree() == 1447
    with pytest.raises(UnsupportedInputError, match="^translation too large: its result would pass 4194304 bits$"):
        Polynomial.var("x1", 1448).translate("x1", 1)


def test_parts_about_bounds_the_parts_together():
    # x1^E about -1 has the parts C(E, d) x1^d, each translated back by 1:
    # the binomials (x1 + 1)^d pass 2^22 bits together from E = 184 on,
    # though each alone is far inside the bound
    for top in (183, 184):
        p = Polynomial.var("x1", top) + Polynomial.var("y1")
        if top == 183:
            parts = p.parts_about(["x1"], [F(-1)])
            assert sorted(parts) == list(range(top + 1)) and poly_sum(parts.values()) == p
            continue
        with pytest.raises(UnsupportedInputError, match="^translation too large"):
            p.parts_about(["x1"], [F(-1)])
    # only the parts asked for are translated back: C(184, d) (-1)^(184-d) (x1 + 1)^d
    want = {d: (Polynomial.var("x1") + 1) ** d * (comb(184, d) * (-1) ** d) for d in range(3)}
    assert Polynomial.var("x1", 184).parts_about(["x1"], [F(-1)], range(3)) == want


def test_equal_polynomials_hash_alike_across_layouts():
    x, aux = Polynomial.var("x1"), Polynomial.var("aux")
    p = x * x + 1
    # the same polynomial in a layout with one more variable and in one
    # with wider fields
    extra = (x + aux) * (x - aux) + aux * aux + 1
    big = Polynomial.var("x1", 2**40)
    wider = (p * big).divide_exact(big, CTX.var_rank)
    for q in (extra, wider):
        assert q.layout is not p.layout
        assert q == p and p == q and hash(q) == hash(p)
    c = (x + 1) * (x - 1) - x * x
    assert c == -1 and hash(c) == hash(Scalar.from_fraction(-1)) == hash(-1)


def test_coefficient_reads_any_layout():
    # the layouts of the cross-layout hash test: one more variable, wider fields
    x, aux = Polynomial.var("x1"), Polynomial.var("aux")
    p = x * x + 1
    extra = (x + aux) * (x - aux) + aux * aux + 1
    big = Polynomial.var("x1", 2**40)
    wider = (p * big).divide_exact(big, CTX.var_rank)
    one, zero = Scalar.from_fraction(1), Scalar.from_fraction(0)
    for q in (p, extra, wider):
        assert poly_oracle.coefficient(q, (("x1", 2),)) == one and poly_oracle.coefficient(q, ()) == one
        assert poly_oracle.coefficient(q, (("x1", 1),)) == zero
        # a variable of the layout with no term, and one outside it
        assert poly_oracle.coefficient(q, (("aux", 2),)) == zero
        assert poly_oracle.coefficient(q, (("x1", 2), ("zz", 1))) == zero
        # exponents past the fields of any of the three layouts
        assert poly_oracle.coefficient(q, (("x1", 2**70),)) == zero
        assert poly_oracle.coefficient(q, (("aux", 2**64 + 2), ("x1", 2))) == zero
    assert poly_oracle.coefficient(big, (("x1", 2**40),)) == one
    r2 = Scalar.sqrt_int(2)
    assert poly_oracle.coefficient(x.scale(one + r2) + 1, (("x1", 1),)) == one + r2


def test_render_order_matches_oracle():
    rng = random.Random(1963)
    x1, x2, aux = Polynomial.var("x1"), Polynomial.var("x2"), Polynomial.var("aux")
    r2 = Scalar.sqrt_int(2)
    polys = [
        Polynomial(),
        Polynomial.const(r2 + 1),
        # one key carrying two signatures, beside rational keys
        x1.scale(Scalar.from_fraction(1) + r2) + x2 - 1,
        (x1 + aux + 1) ** 3,
    ]
    polys += [_poly(rng, rng.randrange(1, 12), rational=rng.random() < 0.5) for _ in range(300)]
    polys += [_wide(rng, rational=rng.random() < 0.5) for _ in range(40)]
    # None ranks nothing; CTX ranks all but "aux"; the last ranks against
    # name order and leaves "t" and "y1" out
    # one irrational signature: sqrt(5), odd and even pi half powers, logs
    # with powers; units, negative coefficients, lone constants; exponents
    # of 64 and more in 8-bit fields and of 128 and more in 16-bit ones
    sigs = (
        Scalar.sqrt_int(5),
        Scalar.pi_power(3),
        Scalar.pi_power(-1),
        Scalar.pi_power(4),
        Scalar.pi_power(-2) * Scalar.sqrt_int(3),
        Scalar.log_fraction(2) ** 2 * Scalar.log_fraction(3),
        Scalar.log_fraction(5) * Scalar.pi_power(1) * Scalar.sqrt_int(7),
    )
    shapes = (
        x1 * x2 - x2**2 * F(3, 4) + x1**3 * 7 - 1,
        -x1 + x2 * F(5, 3) - aux**2,
        x1**64 * x2 - x2**127 + x1**65 * F(-1, 2),
        x1**128 - x1 * x2**200 * 3 + aux**130 * F(2, 9),
    )
    polys += [Polynomial.const(c) for c in (1, -1, F(-5, 3), 12)]
    polys += [Polynomial.const(c) for c in sigs] + [Polynomial.const(-c * F(2, 3)) for c in sigs]
    polys += shapes + tuple(p.scale(c) for p in shapes for c in sigs)
    ctxs = (None, CTX, Context(3, coords=("x3", "x1", "x2"), extra=("aux",)))
    for p in polys:
        for ctx in ctxs:
            assert poly_text(p, ctx) == poly_oracle.poly_text(p, ctx)
            assert poly_latex(p, ctx) == poly_oracle.poly_latex(p, ctx)
        for mono, c in p.terms.items():
            assert poly_oracle.coefficient(p, mono) == c
        mono = _mono(rng, 3)
        assert poly_oracle.coefficient(p, mono) == p.terms.get(mono, Scalar.from_fraction(0))


def test_order_key_is_one_int_in_every_layout():
    # rank {} leaves every variable outside it, so equal degrees meet in
    # the tie-break on the outside exponents, some of them 0
    rng = random.Random(1964)
    ranks = ({}, CTX.var_rank, Context(3, coords=("x3", "x1", "x2"), extra=("aux",)).var_rank)
    polys = [_poly(rng, rng.randrange(2, 12)) for _ in range(100)] + [_wide(rng) for _ in range(40)]
    for p in polys:
        lay = p.layout
        for rank in ranks:
            key = order_key(lay, rank)
            assert all(type(key(k)) is int for k in p.packed_keys())
            got = [lay.unpack(k) for k in sorted(p.packed_keys(), key=key)]
            assert got == sorted(p.terms, key=lambda m: poly_oracle._grlex_key(m, rank))


def _summands(rng):
    """Lists of polynomials to add, with zeros, repeats and cancellation."""
    x, aux = Polynomial.var("x1"), Polynomial.var("aux")
    pi, r3 = Scalar.pi_power(1), Scalar.sqrt_int(3)
    yield []
    yield [Polynomial()]
    yield [_poly(rng, 3)]
    yield [Polynomial(), _poly(rng, 3), Polynomial()]
    # a two-signature coefficient cancels one signature at a time
    yield [x.scale(pi + r3), x.scale(-pi), aux, x.scale(-r3)]
    # the sum cancels at a monomial, which a later summand brings back
    yield [x, -x, aux, x.scale(F(1, 2))]
    for _ in range(200):
        ps = [_poly(rng, rng.randrange(0, 6)) for _ in range(rng.randrange(1, 6))]
        r = rng.random()
        if r < 0.2:
            # the whole sum cancels to the empty polynomial
            ps.append(-poly_oracle.total(ps))
            rng.shuffle(ps)
        elif r < 0.5:
            # a later summand cancels some terms of an earlier one
            a = sorted(rng.choice(ps).terms.items(), key=lambda kv: kv[0])
            ps.append(-Polynomial(dict(rng.sample(a, (len(a) + 1) // 2))))
        yield ps


def test_sum_matches_oracle():
    rng = random.Random(1993)
    cancelled = 0
    for ps in _summands(rng):
        expected = poly_oracle.total(ps)
        cancelled += bool(ps) and expected.is_zero()
        pairs = [kv for p in ps for kv in p.terms.items()]
        fold = Polynomial()
        for p in ps:
            fold = fold + p
        for got in (
            fold,
            poly_sum(ps),
            poly_sum(p for p in ps),
            Polynomial.from_raw(pairs),
            Polynomial.from_raw(iter(pairs)),
        ):
            assert got == expected
            assert all(not c.is_zero() for c in got.terms.values())
        if len(ps) >= 2:
            assert ps[0] + ps[1] == poly_oracle.add(ps[0], ps[1])
    assert cancelled > 20


def test_lone_summand_comes_back_unchanged():
    p = _poly(random.Random(3), 4)
    zero = Polynomial()
    assert poly_sum([zero, p, zero]) is p
    assert p + zero is p and zero + p is p
    assert poly_sum(iter([])) == zero and Polynomial.from_raw([]) == zero


def test_from_raw_takes_fractions_and_ints():
    rng = random.Random(7)
    for _ in range(150):
        pairs = []
        for _ in range(rng.randrange(0, 8)):
            c = F(rng.randrange(-3, 4), rng.randrange(1, 3))
            kind = rng.randrange(3)
            c = c if kind == 0 else int(c) if kind == 1 else Scalar.from_fraction(c)
            pairs.append((_mono(rng, 2), c))
        scalars = [(m, c if isinstance(c, Scalar) else Scalar.from_fraction(c)) for m, c in pairs]
        expected = poly_oracle.total(Polynomial({m: c}) for m, c in scalars if not c.is_zero())
        got = Polynomial.from_raw(pairs)
        assert got == expected
        assert all(not c.is_zero() for c in got.terms.values())


def _divisors(rng):
    x1, x2, x3 = (Polynomial.var(v) for v in CTX.coords)
    yield CTX.norm_sq_poly()
    yield (x1 * x1).scale(F(1, 2)) + (x2 * x2).scale(3) + (x3 * x3).scale(F(5, 7)) - 1
    yield x1.scale(2) - x2.scale(3) + F(1, 4)
    yield Polynomial.const(F(-2, 3))
    for _ in range(25):
        d = _poly(rng, rng.randrange(1, 4), max_exp=2, rational=True)
        if not d.is_zero():
            yield d


def test_divide_exact_matches_oracle():
    rng = random.Random(2009)
    hits = misses = 0
    reverse = {v: i for i, v in enumerate(reversed(NAMES))}
    for d in _divisors(rng):
        for trial in range(12):
            q = _wide(rng) if trial == 0 else _poly(rng, rng.randrange(0, 6))
            a = q * d
            if trial % 3 == 2:
                a = a + _poly(rng, 1)
            expected = poly_oracle.divide_exact(a, d, CTX.var_rank)
            got = a.divide_exact(d, CTX.var_rank)
            assert got == expected
            # an exact quotient is unique, so the variable order cannot matter
            assert a.divide_exact(d, reverse) == expected
            if trial % 3 != 2:
                assert got == q
            hits += got is not None
            misses += got is None
    assert hits > 100 and misses > 30


def test_divide_exact_contract():
    x = Polynomial.var("x1")
    with pytest.raises(ZeroDivisionError):
        x.divide_exact(Polynomial(), CTX.var_rank)
    with pytest.raises(NonRationalValue):
        (x * x).divide_exact(x.scale(Scalar.sqrt_int(2)), CTX.var_rank)
    assert Polynomial().divide_exact(x, CTX.var_rank) == Polynomial()
    assert x.divide_exact(x * x, CTX.var_rank) is None


# 8-, 16- and 32-bit fields: x1^top with top below 2^7, 2^15 and 2^31
@pytest.mark.parametrize("top", (3, 200, 40000))
def test_divide_exact_refuses_before_the_heap_only_what_is_inexact(top, monkeypatch):
    """Against `poly_oracle.divide_exact`: an exact Q B is never refused,
    over several signature blocks, auxiliary variables and fields of 8, 16
    and 32 bits; Q B + r still is; and an r above the greatest or below
    the least key of Q B is refused before any heap is built."""
    heaps = []
    monkeypatch.setattr(poly, "heapify", lambda h: heaps.append(h) or heapq.heapify(h))
    rng = random.Random(1101 + top)
    x1, aux = Polynomial.var("x1"), Polynomial.var("aux")
    divisors = [CTX.norm_sq_poly(), x1 * aux - Polynomial.var("t", 2), aux + F(1, 3)]
    divisors += [d for d in (_poly(rng, 3, max_exp=2, rational=True) for _ in range(8)) if not d.is_constant()]
    tried = blocks = 0
    for d in divisors:
        # remainders past either end of Q d whose key minus d's borrows: a
        # power of a name d does not hold above Q d's greatest key, and 1
        # below its least where d has no constant term
        outside = [Polynomial.var("z", top + 20)] + ([Polynomial.const(1)] if d.constant_term().is_zero() else [])
        for _ in range(4):
            q = _poly(rng, rng.randrange(1, 6)) * Polynomial.var(rng.choice(NAMES), top)
            a = q * d
            blocks += len(a.blocks) > 1
            assert a.divide_exact(d, CTX.var_rank) == q == poly_oracle.divide_exact(a, d, CTX.var_rank)
            r = _poly(rng, 1)
            if poly_oracle.divide_exact(r, d, CTX.var_rank) is None:
                assert (a + r).divide_exact(d, CTX.var_rank) is None
                assert poly_oracle.divide_exact(a + r, d, CTX.var_rank) is None
            for r in outside:
                heaps.clear()
                assert (a + r.scale(rng.choice(COEFFS))).divide_exact(d, CTX.var_rank) is None
                assert heaps == []
                tried += 1
    assert tried > 40 and blocks > 20


def test_one_power_routine():
    rng = random.Random(5)
    s = COEFFS[-1]
    p = _poly(rng, 3)
    e = Expr.from_poly(CTX, Polynomial.var("x1") + 1) * Expr.norm_power(CTX, 1)
    for x, one in ((s, Scalar.from_fraction(1)), (p, Polynomial.const(1)), (e, 1)):
        acc = one
        for k in range(7):
            assert x**k == acc
            acc = acc * x
    r = Scalar.sqrt_int(3) * F(2, 5)
    assert r**-3 == r.inverse() * r.inverse() * r.inverse()
    with pytest.raises(UnsupportedInputError):
        p**-1
    with pytest.raises(UnsupportedInputError):
        e**-1


@pytest.mark.parametrize(
    "x, exponents",
    [
        (Scalar.sqrt_int(3) * F(2, 5), (1.5, F(2), -1.5)),
        (Polynomial.var("x1") + 1, (-1, 1.5, F(2))),
        (Expr.from_poly(CTX, Polynomial.var("x1") + 1), (-1, 1.5, F(2))),
        (Expr.from_poly(CTX, Polynomial.var("x1") + 1) * Expr.norm_power(CTX, 1), (-1, 1.5, F(2))),
    ],
    ids=["scalar", "polynomial", "polynomial expr", "expr"],
)
def test_an_exponent_that_is_no_int_at_least_0_is_refused(x, exponents):
    """`scalar.power` refuses every exponent that is not an int >= 0; a
    Scalar inverts first at a negative one, so only its non-ints reach it."""
    for k in exponents:
        with pytest.raises(UnsupportedInputError, match="^exponent must be an integer >= 0, got "):
            x**k


def test_monomials_match_recursive_order():
    def tuples(names, degrees):
        lay = _layout(tuple(sorted(names)))
        return [lay.unpack(k) for k in monomials(lay, names, degrees)]

    for n in range(1, 6):
        names = ["x%d" % (i + 1) for i in range(n)]
        for order in (names, names[::-1]):
            for deg in range(9):
                assert tuples(order, [deg]) == poly_oracle.monomials(order, [deg])
            assert tuples(order, range(9)) == poly_oracle.monomials(order, range(9))
        degrees = [3, -1, 0, 2]
        assert tuples(names, degrees) == poly_oracle.monomials(names, degrees)
    assert tuples((), [0, 1, 0]) == poly_oracle.monomials((), [0, 1, 0]) == [(), ()]


def test_quadratic_poly_is_the_sum_of_its_terms():
    # custom coordinate names out of name order ("x10" sorts before "x2"),
    # coefficients with a common content, zero coefficients, constants
    names = ("x2", "x10", "b", "x1")
    cases = [
        ([(v, 1, 0) for v in names], 0),
        ([("x2", F(3, 2), 0), ("x10", 0, F(-1, 3)), ("b", F(5, 6), F(1, 4)), ("x1", 0, 0)], F(-7, 2)),
        ([("x2", 2, 4), ("x10", 6, 0)], 8),
        ([("x10", 0, 1)], 0),
        ([(v, 0, 0) for v in names], F(1, 3)),
        ([(v, 0, 0) for v in names], 0),
    ]
    for coeffs, d in cases:
        got = quadratic_poly(coeffs, d)
        want = poly_sum(
            [Polynomial.const(d)]
            + [Polynomial.var(v, 2).scale(b) + Polynomial.var(v).scale(c) for v, b, c in coeffs]
        )
        assert got.layout is want.layout
        assert got.blocks == want.blocks
    ctx = Context(4, coords=names)
    squares = poly_sum([Polynomial.var(v, 2) for v in names])
    assert ctx.norm_sq_poly().layout is squares.layout
    assert ctx.norm_sq_poly().blocks == squares.blocks
    q = Quadratic((1, F(2, 3), 0, 5), (0, F(1, 2), -1, 0), F(-3, 4)).poly(ctx)
    assert q == poly_sum(
        [Polynomial.const(F(-3, 4)), Polynomial.var("x2", 2), Polynomial.var("x10", 2).scale(F(2, 3)),
         Polynomial.var("x10").scale(F(1, 2)), -Polynomial.var("b"), Polynomial.var("x1", 2).scale(5)]
    )


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_render_past_the_int_digit_limit():
    # str() refuses an int of more digits than the limit; render does not
    ints = (10**699 + 3, 10**639 - 1, 10**639)
    x1 = Polynomial.var("x1")
    old = sys.get_int_max_str_digits()
    try:
        # the expected texts are made with no limit, whatever the interpreter's
        sys.set_int_max_str_digits(0)
        want = [(str(n), str(n - 2)) for n in ints]
        sys.set_int_max_str_digits(640)
        for n, (digits, less) in zip(ints, want):
            p = x1.scale(F(n, 7)) - (n - 2)
            assert poly_text(p) == "-%s + %s/7*x1" % (less, digits)
            assert poly_latex(p) == "-%s + \\frac{%s}{7} x1" % (less, digits)
    finally:
        sys.set_int_max_str_digits(old)
