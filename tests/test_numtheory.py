"""Number-theory layer: every operation against an independent oracle."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from jacobiforms import numtheory, representations
from jacobiforms.numtheory import (
    DiscDecomp,
    as_rational,
    bernoulli,
    bernoulli_poly,
    cohen_h,
    cohen_h_via_l_values,
    divisors,
    fund_disc_decomp,
    gen_bernoulli,
    is_fundamental_discriminant,
    kronecker,
    l_value_neg,
    mobius,
    parse_rational,
    rational_str,
    sigma,
    sigma_rational,
    zeta_neg,
)
from jacobiforms.series import cyclotomic_poly


# -- Kronecker symbol ---------------------------------------------------------

def legendre_oracle(a, p):
    """Euler's criterion for odd primes."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_kronecker_against_legendre():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        for a in range(-30, 31):
            assert kronecker(a, p) == legendre_oracle(a, p), (a, p)


def test_kronecker_at_two_supplement():
    # (a|2) by the supplementary law
    for a in range(-25, 26):
        if a % 2 == 0:
            expected = 0
        elif a % 8 in (1, 7):
            expected = 1
        else:
            expected = -1
        assert kronecker(a, 2) == expected, a


def test_kronecker_fixture_values():
    assert kronecker(-4, 1) == 1
    assert kronecker(-4, 3) == -1
    assert kronecker(-3, 2) == -1
    assert kronecker(-4, -1) == -1
    for d in (-163, -7, 1, 5, 12, 104729):
        assert kronecker(d, 1) == 1
    assert kronecker(1, 0) == 1 and kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0 and kronecker(-4, 0) == 0


def test_kronecker_completely_multiplicative_and_periodic():
    fundamentals = [d for d in range(-50, 51) if d and is_fundamental_discriminant(d)]
    for d in fundamentals:
        for m in range(1, 30):
            for n in range(1, 30):
                assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)
        period = abs(d)
        for n in range(1, 3 * period):
            assert kronecker(d, n) == kronecker(d, n + period)


# -- divisor functions ----------------------------------------------------------

def test_sigma_and_divisors():
    assert sigma(3, 6) == 252  # 1 + 8 + 27 + 216
    assert all(sigma(k, 1) == 1 for k in range(12))
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 200):
        assert sigma(1, n) == sum(divisors(n))
        assert sigma(0, n) == len(divisors(n))


def test_mobius():
    assert mobius(1) == 1 and mobius(2) == -1 and mobius(6) == 1 and mobius(12) == 0
    # sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 150):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_sigma_rational_extension():
    assert sigma_rational(3, Fraction(3, 2)) == 0
    assert sigma_rational(3, Fraction(4, 2)) == sigma(3, 2)
    assert sigma_rational(3, 0) == 0


def test_sigma_refuses_negative_k():
    # sigma(-1, 6) returned the float 1.0 (sigma_{-1}(6) = 2) before the check
    for k, n in ((-1, 6), (-2, 4), (-3, 1)):
        with pytest.raises(ValueError, match=f"^sigma expects k >= 0, got {k}$"):
            sigma(k, n)
        for x in (n, Fraction(1, 2), 0):  # refused off the positive integers too
            with pytest.raises(ValueError, match=f"^sigma_rational expects k >= 0, got {k}$"):
                sigma_rational(k, x)


# -- Bernoulli machinery -----------------------------------------------------------

def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(n) == 0 for n in (3, 5, 7, 9, 11))


def test_bernoulli_recurrence_oracle():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 25):
        acc = sum(math.comb(n + 1, k) * Fraction(bernoulli(k)) for k in range(n + 1))
        assert acc == 0, n


def test_bernoulli_table_grows_safely_under_threads():
    # four threads race to fill a cold cache; a value stored under the wrong
    # n would show in a later entry
    expected = [bernoulli(n) for n in range(61)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            bernoulli.cache_clear()
            results = []
            threads = [threading.Thread(target=lambda: results.append(bernoulli(60)))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected[60]] * 4
            assert [bernoulli(n) for n in range(61)] == expected
    finally:
        sys.setswitchinterval(old_interval)


def test_bernoulli_poly():
    assert bernoulli_poly(3, Fraction(1, 3)) == Fraction(1, 27)
    for n in range(8):
        assert bernoulli_poly(n, 0) == bernoulli(n)
    # B_n(x+1) - B_n(x) = n x^(n-1)
    for n in range(1, 8):
        for x in (Fraction(1, 2), Fraction(2, 3), 3):
            lhs = Fraction(bernoulli_poly(n, Fraction(x) + 1)) - Fraction(bernoulli_poly(n, x))
            assert lhs == n * Fraction(x) ** (n - 1)
    with pytest.raises(TypeError, match="float"):
        bernoulli_poly(3, 0.5)  # refused even where the float is exact


def test_bernoulli_poly_precondition():
    # as bernoulli(-1) does, not Fraction's internal TypeError
    for n in (-1, -4):
        with pytest.raises(ValueError, match=f"^bernoulli_poly expects n >= 0, got {n}$"):
            bernoulli_poly(n, 0)


def test_zeta_neg():
    assert zeta_neg(-5) == Fraction(-1, 252)
    assert zeta_neg(-13) == Fraction(-1, 12)
    assert zeta_neg(-3) == Fraction(1, 120)
    assert zeta_neg(-1) == Fraction(-1, 12)
    with pytest.raises(ValueError):
        zeta_neg(-2)
    with pytest.raises(ValueError):
        zeta_neg(1)


def test_l_values():
    assert l_value_neg(3, -3) == Fraction(-2, 9)
    assert l_value_neg(3, -4) == Fraction(-1, 2)
    assert l_value_neg(3, -7) == Fraction(-16, 7)
    # D = 1 falls back to zeta(1 - r)
    assert l_value_neg(3, 1) == 0                 # zeta(-2), a trivial zero
    assert l_value_neg(2, 1) == Fraction(-1, 12)  # zeta(-1)
    assert l_value_neg(1, 1) == Fraction(-1, 2)   # zeta(0)
    with pytest.raises(ValueError):
        gen_bernoulli(3, -6)  # -6 is not a fundamental discriminant


def test_character_table_against_kronecker():
    # the sign lists from the byte masks are the a with chi_D(a) = (D|a) = +-1
    # on 1..count, over the whole period and over the half range gen_bernoulli reads
    fundamentals = [d for d in range(-1000, 1001) if d and is_fundamental_discriminant(d)]
    assert 1 in fundamentals
    for d in fundamentals:
        period = [kronecker(d, a) for a in range(1, abs(d) + 1)]
        for count in (abs(d), (abs(d) - 1) // 2):
            plus = [a for a, chi in enumerate(period[:count], 1) if chi == 1]
            minus = [a for a, chi in enumerate(period[:count], 1) if chi == -1]
            assert numtheory._chi_signs(d, count) == (plus, minus), (d, count)


def defining_sum(r, d):
    """|D|^(r-1) sum_{a=1..|D|} chi_D(a) B_r(a/|D|), over the full range."""
    m = abs(d)
    acc = sum(chi * Fraction(bernoulli_poly(r, Fraction(a, m)))
              for a in range(1, m + 1) if (chi := kronecker(d, a)))
    return m ** (r - 1) * acc


def test_gen_bernoulli_against_defining_sum():
    # the half-range power sums against the full-range definition
    # beyond |D| <= 200: 2-parts -8 and 8, and four odd primes
    fundamentals = [d for d in range(-200, 201) if d and is_fundamental_discriminant(d)]
    fundamentals += [-520, 1320, -1155]
    assert 1 in fundamentals and all(map(is_fundamental_discriminant, fundamentals))
    cases = [(r, d) for d in fundamentals for r in range(1, 13)]
    # D = 1 (B_{1,chi_1} = +1/2) through r = 13; the wrong-parity zero and
    # the m = 3, 4, 5, 8 edges of the half range at r = 13; and a |D| > 2000
    cases += [(r, 1) for r in range(1, 14)]
    cases += [(13, d) for d in (-3, -4, 5, 8, -8)]
    cases += [(r, -3315) for r in (3, 4, 11)]  # -3315 = -3 * 5 * 13 * 17
    assert gen_bernoulli(1, 1) == Fraction(1, 2)
    for r, d in cases:
        got = gen_bernoulli(r, d)
        assert got == defining_sum(r, d) and as_rational(got) is got, (r, d)  # int when integral


def test_gen_bernoulli_beyond_ten_thousand_against_defining_sum():
    # one D < -10^4 with two odd primes for each 2-part of the byte masks:
    # 1, -4, -8 and 8 (D < 0, so B_{r,chi_D} != 0 at odd r)
    two_parts = {-10003: 1, -10004: -4, -10024: -8, -10040: 8}  # -7*1429, -4*41*61, -8*7*179, -8*5*251
    for d, two in two_parts.items():
        odd = [p for p, _ in numtheory.factorize(abs(d)) if p > 2]
        assert is_fundamental_discriminant(d) and len(odd) == 2
        assert math.prod(p if p % 4 == 1 else -p for p in odd) * two == d
        for r in (3, 7, 11):
            got = gen_bernoulli(r, d)
            assert got and got == defining_sum(r, d), (r, d)


def clear_cohen_caches():
    for cache in (numtheory._h_num, numtheory._h_scale, gen_bernoulli, numtheory._chi_masks,
                  numtheory._bernoulli_over_lcm, bernoulli, numtheory.factorize):
        cache.cache_clear()


def test_weights_share_one_character_per_discriminant():
    # five odd weights over one set of D < 0 build each chi_D once
    ds = [d for d in range(-400, 0) if is_fundamental_discriminant(d)]
    assert len(ds) < numtheory._chi_masks.cache_parameters()["maxsize"]
    clear_cohen_caches()
    for r in (3, 5, 7, 9, 11):
        for d in ds:
            gen_bernoulli(r, d)
    info = numtheory._chi_masks.cache_info()
    assert (info.misses, info.hits) == (len(ds), 4 * len(ds))


def test_character_cache_is_bounded_and_rebuilds_an_evicted_discriminant():
    maxsize = numtheory._chi_masks.cache_parameters()["maxsize"]
    ds = [d for d in range(-3, -2000, -1) if is_fundamental_discriminant(d)][:maxsize + 20]
    assert len(ds) == maxsize + 20
    clear_cohen_caches()
    for d in ds:
        gen_bernoulli(3, d)
    assert numtheory._chi_masks.cache_info().currsize == maxsize
    first = ds[0]  # the least recently used: evicted
    misses = numtheory._chi_masks.cache_info().misses
    assert gen_bernoulli(5, first) == defining_sum(5, first)
    assert numtheory._chi_masks.cache_info().misses == misses + 1
    gen_bernoulli.cache_clear()
    assert gen_bernoulli(3, first) == defining_sum(3, first)
    assert numtheory._chi_masks.cache_info().currsize == maxsize


def test_h_num_against_l_values_whichever_weight_comes_first():
    # every cache cleared before each weight, weights ascending and descending
    for weights in (range(2, 12), range(11, 1, -1)):
        for r in weights:
            clear_cohen_caches()
            s = numtheory._h_scale(r)
            for n in range(201):
                assert numtheory._h_num(r, n) == cohen_h_via_l_values(r, n) * s, (r, n)


# -- discriminant decomposition -------------------------------------------------------

def test_fund_disc_decomp():
    assert fund_disc_decomp(12) == DiscDecomp(12, 1)
    assert fund_disc_decomp(-4) == DiscDecomp(-4, 1)
    assert fund_disc_decomp(-27) == DiscDecomp(-3, 3)
    assert fund_disc_decomp(9) == DiscDecomp(1, 3)
    for delta in (-300, -299, 201, 400):
        if delta % 4 in (0, 1):
            dec = fund_disc_decomp(delta)
            assert dec.d * dec.f**2 == delta
            assert is_fundamental_discriminant(dec.d)
    for bad in (2, 3, -1, -2, 6, 0):
        if bad == 0 or bad % 4 in (2, 3):
            with pytest.raises(ValueError):
                fund_disc_decomp(bad)


# -- Cohen numbers ------------------------------------------------------------------------

def hurwitz_class_number_oracle(n):
    """H(N) by counting reduced binary quadratic forms of discriminant -N,
    with the classical 1/2 and 1/3 weights."""
    if n == 0:
        return Fraction(-1, 12)
    if (-n) % 4 in (2, 3):
        return Fraction(0)
    total = Fraction(0)
    bmax = math.isqrt(n // 3)
    for b in range(-bmax, bmax + 1):
        if (b * b + n) % 4:
            continue
        m = (b * b + n) // 4
        if m == 0:
            continue
        for a in range(max(abs(b), 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if a == c and abs(b) == a:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
    return total


def test_cohen_h1_is_hurwitz():
    for n in range(0, 101):
        assert cohen_h(1, n) == hurwitz_class_number_oracle(n), n


def test_cohen_fixtures():
    assert cohen_h(3, 3) == Fraction(-2, 9)
    assert cohen_h(1, 3) == Fraction(1, 3)
    assert cohen_h(3, 4) == Fraction(-1, 2)
    for r in (1, 2, 3, 5):
        assert cohen_h(r, 0) == zeta_neg(1 - 2 * r)
    # non-integral N is 0 by convention; negative N is a caller bug
    assert cohen_h(3, Fraction(7, 4)) == 0
    with pytest.raises(ValueError):
        cohen_h(3, -1)
    with pytest.raises(ValueError):
        cohen_h(3, Fraction(-1, 4))


def test_cohen_via_l_values_preconditions():
    # the same ValueErrors as cohen_h, not isqrt's or zeta_neg's
    with pytest.raises(ValueError, match="expects N >= 0"):
        cohen_h_via_l_values(3, -7)
    for r in (0, -1):
        with pytest.raises(ValueError, match="expects r >= 1"):
            cohen_h_via_l_values(r, 4)
        with pytest.raises(ValueError, match="expects r >= 1"):
            cohen_h_via_l_values(r, 0)


def test_cohen_dual_definition_small():
    # acceptance runs the full N <= 200 sweep; keep a fast slice here
    for r in (1, 2, 3, 5):
        for n in range(0, 81):
            assert cohen_h(r, n) == cohen_h_via_l_values(r, n), (r, n)


def test_cohen_vanishing_pattern():
    for r in (1, 2, 3, 4, 5):
        for n in range(1, 201):
            vanishes = (n if r % 2 == 0 else -n) % 4 in (2, 3)
            assert (cohen_h(r, n) == 0) == vanishes, (r, n)


def test_cohen_denominator_regression():
    expected_lcm = {1: 12, 2: 120, 3: 252, 5: 132, 7: 12, 9: 14364, 11: 276}
    for r, lcm_expected in expected_lcm.items():
        dens = {Fraction(cohen_h(r, n)).denominator for n in range(201)}
        assert math.lcm(*dens) == lcm_expected, r


def test_h_num_is_cohen_h_over_den_zeta():
    # the integer cache the package's Cohen-number sums read: H(r, N) * S_r,
    # S_r = den zeta(1 - 2r), exactly and as an int
    assert [numtheory._h_scale(r) for r in range(1, 6)] == [12, 120, 252, 240, 132]
    for r in range(1, 14):
        s = numtheory._h_scale(r)
        assert s == Fraction(zeta_neg(1 - 2 * r)).denominator, r
        for n in range(2001 if r in (3, 5, 7, 11) else 401):
            num = numtheory._h_num(r, n)
            assert type(num) is int and num == cohen_h(r, n) * s, (r, n)


def test_h_num_refuses_a_value_off_its_scale(monkeypatch):
    # a value that is not an integer over S_r raises, naming (r, N), instead
    # of being rounded into the cache; the cache reads cohen_h by its global name
    real = numtheory.cohen_h
    def fake(r, n):
        return Fraction(1, 5) if (r, n) == (3, 1000003) else real(r, n)
    monkeypatch.setattr(numtheory, "cohen_h", fake)
    for _ in range(2):  # an exception is never cached
        with pytest.raises(ArithmeticError, match=r"^H\(3, 1000003\) = 1/5 is not an integer"):
            numtheory._h_num(3, 1000003)
    assert numtheory._h_num(3, 3) == -56


def test_h3_always_nonpositive():
    # the weight-4 normalization flips sign: H(3, N) <= 0 throughout
    assert all(cohen_h(3, n) <= 0 for n in range(201))


def _cohen_h_divisor_sum(r, n):
    """H(r, N) with the twisted divisor sum over the conductor summed term by
    term: L(1-r, chi_D) sum_{d|f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d),
    the oracle for the Euler product in `cohen_h`."""
    if n == 0:
        return zeta_neg(1 - 2 * r)
    dn = n if r % 2 == 0 else -n
    if dn % 4 in (2, 3):
        return 0
    dec = fund_disc_decomp(dn)
    acc = sum(
        mobius(d) * kronecker(dec.d, d) * d ** (r - 1) * sigma(2 * r - 1, dec.f // d)
        for d in divisors(dec.f)
    )
    return as_rational(Fraction(l_value_neg(r, dec.d)) * acc)


def is_canonical(x):
    """An exact value as the package returns it: an int, or a Fraction that is not one."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


EULER_RS = (1, 2, 3, 5, 7, 9, 11)


def test_cohen_euler_product_against_divisor_sum():
    for r in EULER_RS:
        for n in range(2001):
            value = cohen_h(r, n)
            assert value == _cohen_h_divisor_sum(r, n) and is_canonical(value), (r, n)


def test_cohen_euler_product_at_higher_prime_powers():
    # sampled N <= 10^5 whose conductor has p^e, e >= 2, for p = 2, 3, 5
    rng = random.Random(15)
    for r in EULER_RS:
        seen = set()
        while len(seen) < 30:
            n = rng.randrange(1, 10**5 + 1)
            dn = n if r % 2 == 0 else -n
            if dn % 4 in (2, 3) or n in seen:
                continue
            f = fund_disc_decomp(dn).f
            if f % 4 and f % 9 and f % 25:
                continue
            seen.add(n)
            value = cohen_h(r, n)
            assert value == _cohen_h_divisor_sum(r, n) and is_canonical(value), (r, n)


# -- serialization --------------------------------------------------------------------------

def test_rational_strings():
    assert rational_str(Fraction(-2, 9)) == "-2/9"
    assert rational_str(Fraction(4, 2)) == "2"
    assert rational_str(7) == "7"
    assert parse_rational("-2/9") == Fraction(-2, 9)
    assert parse_rational("7") == 7
    for x in (Fraction(3, 7), Fraction(-11, 4), 0, -5):
        assert parse_rational(rational_str(x)) == x
    # every text Fraction reads still parses, to the same value
    for text in (" 3/6 ", "-0", "1.25", "1e-3", "+7/1"):
        assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("value", [0.1, 2.0, Fraction(1, 3), 3, None, b"1/2"], ids=repr)
def test_parse_rational_takes_only_a_str(value):
    # Fraction(0.1) is the binary expansion 3602879701896397/36028797018963968
    with pytest.raises(TypeError) as err:
        parse_rational(value)
    assert str(err.value) == f"parse_rational needs a str, got {value!r}"


@pytest.mark.parametrize("text, reason", [("1/0", "zero denominator in '1/0'"),
                                          ("-3/0", "zero denominator in '-3/0'"),
                                          ("abc", "'abc' is not a rational number"),
                                          ("", "'' is not a rational number"),
                                          ("1/2/3", "'1/2/3' is not a rational number")])
def test_parse_rational_names_bad_text(text, reason):
    with pytest.raises(ValueError) as err:
        parse_rational(text)
    assert str(err.value) == f"parse_rational: {reason}"


def test_as_rational_keeps_fractions_and_collapses_integers():
    half = Fraction(1, 2)
    assert numtheory.as_rational(half) is half
    four = numtheory.as_rational(Fraction(4, 1))
    assert four == 4 and type(four) is int
    assert type(numtheory.as_rational(Fraction(-6, 3))) is int
    assert numtheory.as_rational("3/6") == half
    assert numtheory.as_rational(7) == 7


# -- integer entry points refuse non-integers -----------------------------------

# (entry point, int arguments, the exact value of the int call, the same
# arguments with a float, a Fraction or a bool): each is called with its ints first,
# so that a cache entry for the int value must not answer the float, and the
# int call must return exactly the value, of its type; before the refusal
# formula_r8(2.5) returned (-250-16j) and bernoulli(3.0) returned 0.  The
# cached ones (bernoulli, gen_bernoulli, f4_coeff, f6_coeff) have typed
# lru_cache keys, so (1.0, 0) misses (1, 0); cohen_h, uncached, checks r
# first.  The TypeError names the entry point; divisors, mobius,
# fund_disc_decomp and is_fundamental_discriminant named factorize, which
# they hand their argument to
NON_INT_CALLS = [
    (numtheory.factorize, (6,), ((2, 1), (3, 1)), (6.0,)),
    (numtheory.factorize, (6,), ((2, 1), (3, 1)), (Fraction(6),)),
    (numtheory.factorize, (5,), ((5, 1),), (2.5,)),
    (numtheory.factorize, (1,), (), (1.0,)),  # (1,) == (1.0,) as untyped cache keys
    (numtheory.factorize, (1,), (), (True,)),  # and (1,) == (True,)
    (divisors, (6,), [1, 2, 3, 6], (6.0,)),
    (mobius, (6,), 1, (6.0,)),
    (sigma, (2, 6), 50, (2.0, 6)),
    (sigma, (2, 6), 50, (2, 6.0)),
    (kronecker, (5, 3), -1, (2.5, 3)),
    (kronecker, (5, 3), -1, (5, 3.0)),
    (fund_disc_decomp, (5,), DiscDecomp(5, 1), (5.0,)),
    (is_fundamental_discriminant, (5,), True, (5.0,)),
    (is_fundamental_discriminant, (-8,), True, (-8.0,)),
    (representations.formula_r8, (6,), 3136, (6.0,)),
    (representations.formula_r8, (2,), 112, (2.5,)),
    (representations.formula_delta8, (2,), 28, (2.5,)),
    (representations.figurate, (3, 2), 7, (3, 2.5)),
    (numtheory.gen_bernoulli, (2, 5), Fraction(4, 5), (2.0, 5)),
    (numtheory.cohen_h, (3, 4), Fraction(-1, 2), (3.0, 4)),
    (bernoulli, (3,), 0, (3.0,)),
    (zeta_neg, (-1,), Fraction(-1, 12), (-1.0,)),
    (l_value_neg, (3, -4), Fraction(-1, 2), (3.0, -4)),
    (bernoulli_poly, (3, Fraction(1, 3)), Fraction(1, 27), (3.0, Fraction(1, 3))),
    (cohen_h_via_l_values, (3, 0), Fraction(-1, 252), (3, 0.0)),
    (representations.f4_coeff, (1, 0), 70, (1.0, 0)),
    (representations.f6_coeff, (1, 0), -170, (1.0, 0)),
    # a bool is refused like a float, cached or not: before, each was answered
    (sigma, (1, 6), 12, (True, 6)),
    (numtheory.gen_bernoulli, (1, 1), Fraction(1, 2), (True, 1)),
    (numtheory.cohen_h, (3, 4), Fraction(-1, 2), (True, 4)),
    (representations.figurate, (3, 1), 2, (3, True)),
    (representations.f4_coeff, (1, 0), 70, (True, 0)),
    (representations.tau, (1,), 1, (True,)),
]


@pytest.mark.parametrize("fn, good, value, bad", NON_INT_CALLS,
                         ids=[f"{fn.__name__}{bad}" for fn, _, _, bad in NON_INT_CALLS])
def test_integer_entry_points_refuse_non_integers(fn, good, value, bad):
    got = fn(*good)
    assert got == value and type(got) is type(value)
    with pytest.raises(TypeError, match=f"^{fn.__name__} expects integers, got"):
        fn(*bad)


# (entry point, a good n, its value, an n below 1): each raised "factorize
# expects n >= 1" from the factorization it reads
BELOW_ONE_CALLS = [
    (divisors, 12, [1, 2, 3, 4, 6, 12], 0),
    (divisors, 12, [1, 2, 3, 4, 6, 12], -4),
    (mobius, 30, -1, 0),
    (mobius, 30, -1, -3),
    (cyclotomic_poly, 6, (1, -1, 1), 0),
    (cyclotomic_poly, 6, (1, -1, 1), -3),
]


@pytest.mark.parametrize("fn, good, value, bad", BELOW_ONE_CALLS,
                         ids=[f"{fn.__name__}({bad})" for fn, _, _, bad in BELOW_ONE_CALLS])
def test_factorizing_entry_points_name_themselves_below_one(fn, good, value, bad):
    assert fn(good) == value
    with pytest.raises(ValueError, match=f"^{fn.__name__} expects n >= 1, got {bad}$"):
        fn(bad)


def test_values_off_the_integers_that_were_answered_still_are():
    # the integer checks stand only where the argument reaches factorize
    assert [is_fundamental_discriminant(x) for x in (1.0, 2.0, 4.0, 6.5)] == [True, False, False, False]
    assert cyclotomic_poly(1.0) == (-1, 1)
    with pytest.raises(ValueError, match="^2.0 is not a discriminant"):
        fund_disc_decomp(2.0)
