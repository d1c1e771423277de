import random
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest

from harmcalc.errors import (
    MultiTermDivision,
    MultiTermSqrt,
    NegativeRadicand,
    NonRationalValue,
    OddPiExponent,
    UnsupportedInputError,
)
from harmcalc import approx, arith
from harmcalc.approx import approx_scalar
from harmcalc.arith import factorize, int_digit_limit, int_text, read_int, split_square
from harmcalc.poly import Polynomial
from harmcalc.scalar import (
    MAX_POWER_BITS,
    ONE,
    ZERO,
    Scalar,
    scalar_sqrt,
)


def test_factorize_and_split_square():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert split_square(121) == (11, 1)
    assert split_square(210) == (1, 210)
    assert split_square(607 * 48) == (4, 607 * 3)
    # a moderately large semiprime exercises the rho path
    n = 1000003 * 998117
    assert factorize(n) == {998117: 1, 1000003: 1}


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_strong_pseudoprimes_to_every_base_are_composite():
    assert not arith._is_prime(PSI_12)
    assert not arith._is_prime(PSI_13)
    # both pass Miller-Rabin to base 2, so the strong Lucas test refuses them
    assert not arith._is_strong_lucas_probable_prime(PSI_13)
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_factorize_splits_a_25_digit_semiprime():
    # Brent's search takes about half of MAX_RHO_STEPS on this one
    assert factorize(3000000000130000000000507) == {1000000000039: 1, 3000000000013: 1}


def test_factorize_past_its_step_budget_is_refused(monkeypatch):
    # the cofactor left unsplit is named by its digits; psi_12 needs
    # about 2^19 steps, so a budget of 2^16 refuses it
    monkeypatch.setattr(arith, "MAX_RHO_STEPS", 1 << 16)
    message = "^could not factor a 24-digit integer within 65536 rho steps$"
    with pytest.raises(UnsupportedInputError, match=message):
        factorize(PSI_12)
    with pytest.raises(UnsupportedInputError, match=message):
        factorize(7 * PSI_12)


def test_rho_steps_are_charged_by_the_size_of_n(monkeypatch):
    # the walk mod the factor 2^20 - 3 is the same whatever its cofactor,
    # about 2^11 steps; charged 1 each at 63 bits it fits a budget of 2^12,
    # charged 25.7 each at 1299 bits (cofactor the prime 2^1279 - 1) it does not
    p, mersenne = 1048573, 2**1279 - 1
    monkeypatch.setattr(arith, "MAX_RHO_STEPS", 1 << 12)
    assert factorize(p * 8796093022237) == {p: 1, 8796093022237: 1}
    message = "^could not factor a 392-digit integer within 4096 rho steps$"
    with pytest.raises(UnsupportedInputError, match=message):
        factorize(p * mersenne)


def test_pollard_brent_walks_back_a_batch_whose_gcd_is_n():
    # with c = 1 the first batch of 10403 = 101 * 103 meets both factors
    budget = arith.MAX_RHO_STEPS << 16
    assert arith._pollard_brent(10403, budget)[0] == 101
    for n in range(10001, 20001, 2):
        if not arith._is_prime(n):
            d, _ = arith._pollard_brent(n, budget)
            assert d is not None and 1 < d < n and n % d == 0, n


def test_strong_lucas_test_accepts_primes_and_its_known_pseudoprimes():
    # below 10^5 it errs only on the strong Lucas pseudoprimes with
    # Selfridge's parameters (OEIS A217255), none with a factor below 42
    n_max = 10**5
    composite = bytearray(n_max)
    for p in range(2, 317):
        composite[p * p :: p] = b"\x01" * len(composite[p * p :: p])
    wrong = [
        n
        for n in range(43, n_max, 2)
        if all(n % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
        and arith._is_strong_lucas_probable_prime(n) != (not composite[n])
    ]
    assert wrong == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


def test_primes_above_the_last_exact_bound_are_read_by_baillie_psw():
    for e in (89, 107, 127, 521, 607):
        # Mersenne primes, and a semiprime and a square of two of them
        assert arith._is_prime(2**e - 1)
        assert not arith._is_prime((2**e - 1) * (2**61 - 1))
        assert not arith._is_prime((2**e - 1) ** 2)
    assert not arith._is_prime(2**523 - 1)


def test_like_term_collection():
    half_pi2 = Scalar.pi_power(4) * Scalar.from_fraction(F(1, 2))
    assert half_pi2 + half_pi2 == Scalar.pi_power(4)


def test_radical_square_extraction():
    s = Scalar.sqrt_int(2)
    assert s * s == Scalar.from_fraction(2)


def test_reciprocal_signature_product():
    # (3/16) sqrt(11) pi^(-1/2) times (16/3) (1/sqrt(11)) pi^(1/2) -> 1
    a = Scalar.from_fraction(F(3, 16)) * Scalar.sqrt_int(11) * Scalar.pi_power(-1)
    b = (
        Scalar.from_fraction(F(16, 3))
        * (Scalar.sqrt_int(11) / Scalar.from_fraction(11))
        * Scalar.pi_power(1)
    )
    assert a * b == ONE
    # the same value via multiply-and-extract of radicand 121
    raw = Scalar.from_fraction(F(3, 16) * F(16, 33)) * (
        Scalar.sqrt_int(11) * Scalar.sqrt_int(11)
    )
    assert raw == ONE


def test_prime_log_basis():
    # log 4 = 2 log 2, log(3/2) = log 3 - log 2
    assert Scalar.log_fraction(4) == Scalar.log_fraction(2) * Scalar.from_fraction(2)
    assert Scalar.log_fraction(F(3, 2)) == Scalar.log_fraction(3) - Scalar.log_fraction(2)
    assert Scalar.log_fraction(1).is_zero()
    # log(1/2) = -log 2
    assert Scalar.log_fraction(F(1, 2)) == -Scalar.log_fraction(2)


def test_sqrt_perfect_square():
    s = Scalar.from_fraction(F(121, 256)) * Scalar.pi_power(-2)
    r = scalar_sqrt(s)
    assert r == Scalar.from_fraction(F(11, 16)) * Scalar.pi_power(-1)
    assert r * r == s


def test_sqrt_with_pi_and_radical():
    s = Scalar.from_fraction(11) * Scalar.pi_power(-2)
    r = scalar_sqrt(s)
    assert r == Scalar.sqrt_int(11) * Scalar.pi_power(-1)
    assert r * r == s
    assert scalar_sqrt(Scalar.from_fraction(210)) == Scalar.sqrt_int(210)


def test_half_power():
    assert Scalar.half_power(F(9, 4), 3) == Scalar.from_fraction(F(27, 8))
    assert Scalar.half_power(2, 3) == Scalar.sqrt_int(2) * 2
    assert Scalar.half_power(2, -1) == Scalar.sqrt_int(2) / 2
    assert Scalar.half_power(F(-2, 3), 4) == Scalar.from_fraction(F(4, 9))
    assert Scalar.half_power(F(-2, 3), -2) == Scalar.from_fraction(F(-3, 2))
    assert Scalar.half_power(7, 0) == Scalar.from_fraction(1)
    with pytest.raises(NegativeRadicand):
        Scalar.half_power(-2, 1)


def test_power_bound():
    # 2 and 1/2 add one bit per factor, a two-term sum one more
    two = Scalar.from_fraction(2)
    assert two**MAX_POWER_BITS == Scalar.from_fraction(2**MAX_POWER_BITS)
    assert Scalar.half_power(F(1, 2), -2 * MAX_POWER_BITS) == two**MAX_POWER_BITS
    x1 = Polynomial.var("x1")
    assert (x1 + 1) ** 2 == x1 * x1 + 2 * x1 + 1
    assert x1 ** (10**40) == Polynomial.var("x1", 10**40)
    too_large = [
        lambda: two ** (MAX_POWER_BITS + 1),
        lambda: two ** -(MAX_POWER_BITS + 1),
        lambda: (ONE + Scalar.pi_power(2)) ** (MAX_POWER_BITS + 1),
        lambda: Scalar.half_power(F(1, 2), 2 * MAX_POWER_BITS + 2),
        lambda: Polynomial.const(2) ** (MAX_POWER_BITS + 1),
        lambda: (x1 + 1) ** (MAX_POWER_BITS + 1),
    ]
    for power in too_large:
        with pytest.raises(UnsupportedInputError, match="^power too large"):
            power()


def test_sqrt_errors():
    with pytest.raises(MultiTermSqrt):
        scalar_sqrt(ONE + Scalar.pi_power(2))
    with pytest.raises(OddPiExponent):
        scalar_sqrt(Scalar.pi_power(1))
    with pytest.raises(NegativeRadicand):
        scalar_sqrt(Scalar.from_fraction(-4))


def test_division_restrictions():
    with pytest.raises(MultiTermDivision):
        (ONE + Scalar.pi_power(2)).inverse()
    with pytest.raises(MultiTermDivision):
        Scalar.log_fraction(2).inverse()


def test_division_by_zero():
    # zero has no terms, but it is no multi-term scalar
    pi = Scalar.pi_power(1)
    for divide in (ZERO.inverse, lambda: ONE / 0, lambda: pi / ZERO, lambda: ZERO ** -1):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            divide()


def _random_scalar(rng, terms=3):
    out = Scalar.from_fraction(0)
    rads = (1, 2, 3, 5)
    for _ in range(terms):
        c = F(rng.randrange(-5, 6), rng.randrange(1, 5))
        t = (
            Scalar.from_fraction(c)
            * Scalar.sqrt_int(rng.choice(rads))
            * Scalar.pi_power(rng.randrange(-2, 3))
        )
        if rng.random() < 0.3:
            t = t * Scalar.log_fraction(rng.choice((2, 3, 5)))
        out = out + t
    return out


def test_canonical_shuffle_invariance():
    rng = random.Random(11)
    for _ in range(50):
        s = _random_scalar(rng)
        terms = list(s.terms)
        rng.shuffle(terms)
        assert Scalar._build(terms) == s
        assert Scalar._build(list(s.terms)) == s  # idempotent


def test_ring_axioms():
    rng = random.Random(23)
    for _ in range(30):
        a, b, c = (_random_scalar(rng, 2) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_sqrt_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        c = F(rng.randrange(1, 40), rng.randrange(1, 20))
        s = Scalar.from_fraction(c) * Scalar.pi_power(2 * rng.randrange(-2, 3))
        r = scalar_sqrt(s)
        assert r * r == s


def test_approx_known_values():
    assert approx_scalar(Scalar.pi_power(4), 6) == "9.86960"
    assert approx_scalar(Scalar.from_fraction(0), 3) == "0.000"
    assert approx_scalar(Scalar.from_fraction(F(1, 3)), 4) == "0.3333"
    assert approx_scalar(Scalar.sqrt_int(2), 8) == "1.4142136"


def test_approx_computes_pi_only_for_a_pi_factor(monkeypatch):
    def no_pi(prec):
        raise AssertionError("pi computed for a value without a pi factor")

    monkeypatch.setattr(approx, "_pi_decimal", no_pi)
    assert approx_scalar(Scalar.from_fraction(F(1, 3)), 30) == "0.333333333333333333333333333333"
    value = Scalar.sqrt_int(2) * F(-5, 7) + F(1, 3)
    assert approx_scalar(value, 40) == "-0.6768192112188774158107300411021652942164"
    with pytest.raises(AssertionError):
        approx_scalar(Scalar.pi_power(1), 5)


# pi to 200 decimals, truncated
PI_200 = (
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
    "82148086513282306647093844609550582231725359408128"
    "48111745028410270193852110555964462294895493038196"
)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "approx_scalar stops once two guard precisions agree and prints "
        "-1.000000000e-134; the true value of pi minus its 200-decimal "
        "truncation is +4.43e-201"
    ),
)
def test_approx_pi_minus_its_200_decimals():
    got = approx_scalar(Scalar.pi_power(2) - F(PI_200), 10)
    assert Decimal(got) == Decimal("4.428810976E-201")


def test_approx_ball_weight_constant():
    # frozen against an independent series evaluator (Machin pi and the
    # atanh expansion of log 2 in exact Fraction arithmetic)
    s = (
        Scalar.pi_power(6)
        * (Scalar.log_fraction(2) - Scalar.from_fraction(F(18107, 27720)))
        * Scalar.from_fraction(F(16, 3465))
    )
    assert approx_scalar(s, 4) == "0.005718"
    assert approx_scalar(s, 25) == "0.005717897796178098368208926"


def test_independent_series_oracle_matches():
    # recompute the oracle here so the frozen strings stay auditable
    def arctan_inv(n, terms):
        return sum(F((-1) ** k, (2 * k + 1) * n ** (2 * k + 1)) for k in range(terms))

    pi = 16 * arctan_inv(5, 40) - 4 * arctan_inv(239, 20)
    log2 = 2 * sum(F(1, (2 * k + 1) * 3 ** (2 * k + 1)) for k in range(50))
    val = 16 * pi**3 * (log2 - F(18107, 27720)) / 3465
    assert abs(val - F("0.005717897796178098368208926")) < F(1, 10**24)


def test_approx_monotone_consistency():
    rng = random.Random(77)
    for _ in range(40):
        s = _random_scalar(rng, 2)
        t = _random_scalar(rng, 2)
        digits = 8
        diff = approx_scalar(s - t, digits)
        if abs(float(diff)) > 10.0 ** (-digits + 2):
            assert s != t


# ---------------------------------------------------------------------------
# the integer codec: int_text and read_int against str and int

def _ints_near_the_limits():
    for digits in (639, 640, 641, 4299, 4300, 4301):
        for n in (10 ** (digits - 1), 10**digits - 1, 7 * 10 ** (digits - 1) + 3):
            yield n
            yield -n


# what int() reads besides plain digits: a sign, spaces, underscores and the
# decimal digits of other scripts
SPELLED_INTS = [
    "+" + "1" * 700,
    " \t-" + "12_34" * 1000 + "\n",
    "\u0663" * 5000,
    "9" * 5000 + "\u2003",
    " " * 5000 + "5",
]


@pytest.mark.parametrize("limit", [4300, 640])
def test_int_codec_matches_str_and_int(limit, digit_limit):
    digit_limit(0)
    texts = {n: str(n) for n in _ints_near_the_limits()}
    spelled = [(text, int(text)) for text in SPELLED_INTS]
    digit_limit(limit)
    assert int_digit_limit() == limit
    for n, text in texts.items():
        assert int_text(n) == text
        assert read_int(text) == n
    for text, n in spelled:
        assert read_int(text) == n


def _random_ints(rng):
    # across each switch-over of the codec, and far past it, where both
    # directions split in halves
    for digits in (639, 640, 641, 4299, 4300, 4301, 100_000, 100_001):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        yield n
        yield -n


@pytest.mark.parametrize("limit", [640, 0])
def test_int_codec_halves_match_str_and_int(limit, digit_limit):
    digit_limit(0)
    texts = {n: str(n) for n in _random_ints(random.Random(33))}
    spelled = ["0" * 700 + "12_34" * 25_000, "-" + "\u0663" * 100_001, "+" + "9" * 100_000 + " "]
    spelled = [(text, int(text)) for text in spelled]
    digit_limit(limit)
    for n, text in texts.items():
        assert int_text(n) == text
        assert read_int(text) == n
    for text, n in spelled:
        assert read_int(text) == n


def test_int_digit_limit_is_zero_without_a_limit(monkeypatch):
    # Python before 3.10.7 has neither the limit nor its getter
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert int_digit_limit() == 0


@pytest.mark.parametrize(
    "text",
    ["1e5", "1.5", "+-5", "- 5", "", "+", "0x10", "\u00b2", "12a", "1" * 5000 + "2a", "1" * 5000 + "e5",
     "1" * 5000 + ".5", "+-" + "5" * 5000, "1__0" * 2000, "_" + "1" * 5000, "1" * 5000 + "_",
     "\x1c" + "1" * 5000, "1" * 5000 + "\x1f", "1" * 3000 + " " + "1" * 3000],
)
@pytest.mark.parametrize("limit", [4300, 640])
def test_read_int_refuses_what_int_refuses(text, limit, digit_limit):
    digit_limit(0)
    with pytest.raises(ValueError):
        int(text)
    digit_limit(limit)
    with pytest.raises(ValueError):
        read_int(text)


def test_factorize_names_the_digits_past_the_limit(monkeypatch, digit_limit):
    monkeypatch.setattr(arith, "MAX_RHO_STEPS", 0)
    digit_limit(640)
    # composite, with no factor below 10^4
    with pytest.raises(UnsupportedInputError, match="could not factor a 1601-digit integer"):
        factorize(10007**400)


def test_non_rational_scalar_error_names_its_text():
    with pytest.raises(NonRationalValue, match=r"^not a rational scalar: 3\*sqrt\(2\)/4$"):
        (Scalar.sqrt_int(2) * F(3, 4)).as_fraction()
