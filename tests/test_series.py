"""One-variable series engine: ring laws, inversion, precision semantics."""

import math
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from jacobiforms import catalog, lattice
from jacobiforms.numtheory import as_rational, cohen_h
from jacobiforms.series import (
    CycloElt,
    CycloSeries,
    FJExp,
    QSeries,
    _product,
    cyclotomic_poly,
    memo_by_prec,
)


def random_qseries(rng, prec=12, scale=1, laurent=False):
    lo = -3 if laurent else 0
    terms = {}
    for _ in range(rng.randrange(0, 8)):
        t = rng.randrange(lo, prec)
        terms[t] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
    return QSeries(scale, prec, {t: c for t, c in terms.items() if c})


def test_geometric_inverse():
    one = QSeries.one(10)
    geo = QSeries(1, 10, {t: 1 for t in range(10)})
    assert (QSeries(1, 10, {0: 1, 1: -1}) * geo).agrees_with(one)
    assert QSeries(1, 10, {0: 1, 1: -1}).inverse() == geo


def test_ring_laws_random():
    rng = random.Random(20170916)
    for _ in range(200):
        a = random_qseries(rng)
        b = random_qseries(rng)
        c = random_qseries(rng)
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert ((a + b) + c) == (a + (b + c))
        assert (a * (b + c)) == (a * b + a * c)
        assert ((a * b) * c).agrees_with(a * (b * c))


def test_pow():
    a = QSeries(1, 10, {0: 1, 1: -1})
    assert a**0 == QSeries.one(10)
    assert a**3 == a * a * a
    assert (a**-2).agrees_with(a.inverse() * a.inverse())


def laurent_bases(rng):
    """Series with negative lowest q-exponents: inverses of cusp forms, a
    weak Jacobi form over Delta, and random Laurent QSeries and FJExp."""
    yield catalog.eta(12).inverse()
    yield catalog.delta(12).inverse()
    yield catalog.phi(1, 8) * catalog.delta(8).inverse()
    for _ in range(12):
        prec = rng.randrange(4, 12)
        q_terms = random_terms(rng, rng.randrange(1, 6), (-3, prec), None, False, denominators=(1, 3))
        yield QSeries(rng.choice((1, 2, 8)), prec, {**q_terms, -rng.randrange(1, 3): 1})
        fj_terms = random_terms(rng, rng.randrange(1, 6), (-2, prec), (-3, 4), True, denominators=(1, 2))
        yield FJExp(rng.choice((1, 2)), rng.choice((1, 2)), prec, {**fj_terms, (-1, 0): 2})


def test_powers_match_repeated_products():
    # binary powering from the first factor certifies prec + (n - 1) * lo,
    # the window of x * ... * x; a start from 1 lost another |lo|
    for x in laurent_bases(random.Random(2024)):
        lo = min(k[0] if isinstance(x, FJExp) else k for k in x.terms)
        assert lo < 0
        assert x ** 1 == x and x ** 0 == type(x).one(x.prec_exponent)
        assert (x ** 0).qscale == x.prec_exponent.denominator  # one unit rule, as `one` builds it
        product = x
        for n in range(2, 6):
            product = product * x
            assert x ** n == product
            assert (x ** n).prec == x.prec + (n - 1) * lo
    for base in (catalog.theta(6), catalog.eta(6)):  # lowest exponent > 0
        assert base ** 3 == base * base * base and base ** 1 is base


@pytest.mark.parametrize("cls", [QSeries, FJExp])
def test_one_below_q0_is_the_empty_series(cls):
    # 1 is certified below q^P only as O(q^P) when P <= 0: no window holds q^0
    lift = (lambda qs: qs) if cls is QSeries else FJExp.from_qseries
    laurent = lift(catalog.delta(4).inverse() ** 4)  # certified below q^-1
    empty = QSeries(1, 0, {}) if cls is QSeries else FJExp(1, 1, 0, {})
    cases = [(laurent ** 0, -1), (empty ** 0, 0), (cls.one(0), 0),
             (cls.one(Fraction(-3, 2)), Fraction(-3, 2)), (lift(QSeries(2, -1, {})) ** 0, Fraction(-1, 2))]
    for x, p in cases:
        assert type(x) is cls and x.is_zero() and x.prec_exponent == p
    assert lift(QSeries(1, 1, {})) ** 0 == cls.one(1) and not cls.one(Fraction(1, 8)).is_zero()


@pytest.mark.parametrize("base", [lambda: catalog.theta(4), lambda: catalog.eta(4)],
                         ids=["FJExp", "QSeries"])
@pytest.mark.parametrize("n", [2.0, Fraction(1, 2), "2"], ids=repr)
def test_non_int_exponents_are_unsupported(base, n):
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\* or pow\(\)"):
        base() ** n


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        a = random_qseries(rng, laurent=True)
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        prod = a * a.inverse()
        if prod.prec_exponent <= 0:
            # inverting a series with a high-order lowest term certifies
            # (correctly) almost nothing; there is no window to compare on
            continue
        assert prod.agrees_with(QSeries.one(prod.prec_exponent))


# -- inversion against the recurrence it replaced ------------------------------------

def inverse_by_recurrence(a: QSeries) -> QSeries:
    """The inverse by b_t = -(sum_{0<i<=t} a_i b_{t-i}) / a_0 on the unit part
    of a, certified below prec - lo (lo the lowest index), then shifted by
    q^(-lo/s) and cut to prec - 2*lo."""
    lo = min(a.terms)
    c0 = Fraction(a.terms[lo])
    shifted = {t - lo: c for t, c in a.terms.items()}
    n_coeffs = a.prec - lo
    inv = {0: 1 / c0}
    keys = sorted(k for k in shifted if 0 < k < n_coeffs)
    for t in range(1, n_coeffs):
        acc = sum(shifted[i] * inv.get(t - i, 0) for i in keys if i <= t)
        if acc:
            inv[t] = -acc / c0
    out_prec = a.prec - 2 * lo
    return QSeries(a.qscale, out_prec, {t - lo: c for t, c in inv.items() if t - lo < out_prec})


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_inverse_matches_recurrence(dense, fractions):
    rng = random.Random(1975 + 2 * dense + fractions)

    def coeff():
        c = rng.choice((-1, 1)) * rng.randrange(1, 10)
        return Fraction(c, rng.randrange(1, 7)) if fractions else c

    for _ in range(60):
        scale = rng.choice((1, 2, 3, 8, 24))
        prec = rng.randrange(1, 40)
        lo = rng.randrange(-6, prec)  # the lowest index, negative for a Laurent series
        rest = range(lo + 1, prec)
        rest = rest if dense else rng.sample(rest, min(len(rest), rng.randrange(0, 5)))
        a = QSeries(scale, prec, {t: coeff() for t in (lo, *rest)})
        inv, expected = a.inverse(), inverse_by_recurrence(a)
        assert (inv.qscale, inv.prec, inv.terms) == (expected.qscale, expected.prec, expected.terms)
    with pytest.raises(ZeroDivisionError, match="^cannot invert a series with zero lowest coefficient$"):
        QSeries(2, 5, {}).inverse()


def test_mul_precision_with_negative_orders():
    # a Laurent factor must lower the certified window of the product
    a = QSeries(1, 5, {-2: 1})
    b = QSeries(1, 5, {0: 1, 4: 7})
    prod = a * b
    assert prod.prec_exponent == 3  # 5 + (-2)
    assert prod.coefficient(2) == 7
    with pytest.raises(ValueError):
        prod.coefficient(3)


def test_substitute_and_shift():
    e = QSeries(1, 6, {0: 1, 1: 240, 2: 2160})
    e2 = e.substituted(2)
    assert e2.coefficient(2) == 240 and e2.coefficient(1) == 0
    assert e.substituted(1) == e
    s = e.shifted(Fraction(-1, 3))
    assert s.coefficient(Fraction(2, 3)) == 240
    assert s.shifted(Fraction(1, 3)).normalized() == e


def test_substituted_rejects_a_non_integer_exponent():
    # a float exponent would leak floats into the exponents and the precision
    with pytest.raises(ValueError, match="substitution exponent must be a positive integer"):
        QSeries(1, 4, {0: 1, 1: 1}).substituted(1.5)


def test_shifted_takes_only_an_int_or_a_fraction():
    with pytest.raises(TypeError, match="shift must be an int or a Fraction"):
        catalog.eisenstein(4, 4).shifted(0.1)
    assert catalog.eisenstein(4, 4).shifted(2).coefficient(3) == 240


def test_normalized_idempotent_and_lossless():
    a = QSeries(8, 63, {8: 1, 56: -3})
    n = a.normalized()
    assert n.normalized() == n
    assert n.coefficient(7) == -3  # the boundary term survives normalization
    b = QSeries(8, 64, {8: 1, 56: -3})
    assert b.normalized().qscale == 1


def test_coefficient_guard():
    a = QSeries(2, 10, {1: 5})
    assert a.coefficient(Fraction(1, 2)) == 5
    assert a.coefficient(2) == 0
    with pytest.raises(ValueError):
        a.coefficient(5)


def test_json_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        a = random_qseries(rng, scale=rng.choice([1, 2, 8, 24]), laurent=True)
        assert QSeries.from_json_dict(a.to_json_dict()) == a
    d = QSeries(8, 17, {-3: Fraction(2, 7), 5: -4}).to_json_dict()
    assert d == {"qscale": 8, "prec": 17, "terms": [[-3, "2/7"], [5, "-4"]]}


def test_str_contains_big_oh():
    s = str(QSeries(1, 5, {0: 1, 2: -24}))
    assert "O(q^5)" in s and "24" in s


# -- cyclotomic elements ------------------------------------------------------------

def test_cyclotomic_polys():
    assert list(cyclotomic_poly(1)) == [-1, 1]
    assert list(cyclotomic_poly(2)) == [1, 1]
    assert list(cyclotomic_poly(4)) == [1, 0, 1]
    assert list(cyclotomic_poly(3)) == [1, 1, 1]
    assert list(cyclotomic_poly(12)) == [1, 0, -1, 0, 1]


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_cyclotomic_polys_against_their_definition():
    # x^n - 1 = prod_{d|n} Phi_d, deg Phi_n = phi(n), Phi_n monic
    for n in range(1, 201):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n
        phi = cyclotomic_poly(n)
        assert len(phi) - 1 == sum(math.gcd(n, k) == 1 for k in range(1, n + 1)), n
        assert phi[-1] == 1 and all(type(c) is int for c in phi), n


def test_cycloelt_root_sums():
    # the full sum of K-th roots of unity vanishes
    for k in (3, 4, 8, 12, 24):
        acc = CycloElt.zero(k)
        for j in range(k):
            acc = acc + CycloElt.from_root_power(k, j)
        assert acc.is_zero()
    # i + (-i) = 0; i * i = -1 via times_root
    i_elt = CycloElt.from_root_power(4, 1)
    assert (i_elt + CycloElt.from_root_power(4, 3)).is_zero()
    assert i_elt.times_root(1).rational_value() == -1
    assert not i_elt.is_rational()
    with pytest.raises(ValueError):
        i_elt.rational_value()


def test_cycloelt_conjugate_pairs_are_rational():
    # zeta_3^1 + zeta_3^2 = -1
    a = CycloElt.from_root_power(3, 1) + CycloElt.from_root_power(3, 2)
    assert a.is_rational() and a.rational_value() == -1
    # 2 cos(2 pi / 8) sums: zeta_8 + zeta_8^-1 is irrational
    b = CycloElt.from_root_power(8, 1) + CycloElt.from_root_power(8, 7)
    assert not b.is_rational()


def test_cycloseries_times_root():
    elt = CycloElt.from_root_power(4, 1)  # i
    cs = CycloSeries(4, 1, 5, {2: elt})
    qs = cs.times_root(-1, 4).to_qseries()
    assert qs.coefficient(2) == 1


@pytest.mark.parametrize("numer, denom", [(1, 0), (1, -4), (1, 3), (1, 2.0), (0.5, 4)])
def test_cycloseries_times_root_refuses_a_bad_root(numer, denom):
    # 0 divided by zero, -4 and 2.0 were taken as divisors of 4, and 0.5
    # failed as a tuple index
    cs = CycloSeries(4, 1, 5, {2: CycloElt.from_root_power(4, 1)})
    expected = f"times_root expects an int numer and an int denom >= 1 dividing conductor 4, got {numer!r}/{denom!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        cs.times_root(numer, denom)


def test_cycloseries_keeps_its_terms_and_checks_its_window():
    elts = {1: CycloElt(3, (Fraction(1, 2), Fraction(-2, 3))), 4: CycloElt.from_root_power(3, 2, 5)}
    cs = CycloSeries(3, 2, 9, {**elts, 6: CycloElt.zero(3)})
    assert cs.terms == elts and cs.prec_exponent == Fraction(9, 2)
    with pytest.raises(TypeError):
        cs.terms[1] = elts[4]
    with pytest.raises(AttributeError):
        cs.prec = 3
    # the window and the scales are checked where the series is made
    with pytest.raises(ValueError, match="term at q\\^\\(9/2\\) at or beyond precision 9"):
        CycloSeries(3, 2, 9, {9: elts[4]})
    with pytest.raises(ValueError, match="scales must be positive integers and prec an integer"):
        CycloSeries(3, 0, 9, elts)
    # a coefficient of another conductor was relabelled: zeta_3 read as i
    with pytest.raises(ValueError, match="must have its conductor 4"):
        CycloSeries(4, 1, 5, {2: CycloElt.from_root_power(3, 1)})


BAD_CONDUCTORS = (0, -3, 2.0, Fraction(4), True, "4", None)


@pytest.mark.parametrize("conductor", BAD_CONDUCTORS, ids=repr)
def test_cyclotomic_constructors_require_an_int_conductor(conductor):
    # 0 and -3 failed inside factorize with a message naming neither class,
    # 2.0 as "factorize expects integers", and a CycloSeries of conductor 0
    # or -4 was made and read back as a QSeries
    for cls, make in ((CycloElt, lambda: CycloElt(conductor, [])),
                      (CycloElt, lambda: CycloElt(conductor, [1])),
                      (CycloElt, lambda: CycloElt.zero(conductor)),
                      (CycloElt, lambda: CycloElt.from_root_power(conductor, 1)),
                      (CycloSeries, lambda: CycloSeries(conductor, 1, 5, {}))):
        expected = f"{cls.__name__} needs an int conductor >= 1, got {conductor!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            make()
    assert CycloElt(1, [3]).rational_value() == 3 and CycloElt.zero(1).is_zero()
    assert CycloSeries(4, 1, 5, {}).to_qseries() == QSeries(1, 5, {})


def test_precision_memo_under_threads():
    started, release = threading.Event(), threading.Event()

    @memo_by_prec
    def geometric(k, prec):
        if k == 0 and prec == 5:  # held until a higher build is kept
            started.set()
            release.wait(10)
        return QSeries(1, prec, {t: k for t in range(prec)})

    # a lower build that finishes last does not replace the higher one
    with ThreadPoolExecutor(max_workers=1) as pool:
        low = pool.submit(geometric, 0, 5)
        assert started.wait(10)
        geometric(0, 10)
        release.set()
        assert low.result(timeout=10) == QSeries(1, 5, {t: 0 for t in range(5)})
    hits = geometric.cache_info().hits
    geometric(0, 10)
    assert geometric.cache_info().hits == hits + 1

    # no counter update or kept build is lost under many threads
    jobs = [(k, prec) for _ in range(20) for k in (1, 2, 3) for prec in range(1, 30)]
    random.Random(5).shuffle(jobs)
    geometric.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda job: geometric(*job), jobs, timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert all(r == QSeries(1, prec, {t: k for t in range(prec)})
               for r, (k, prec) in zip(results, jobs))
    hits, misses, maxsize, currsize = geometric.cache_info()
    assert hits + misses == len(jobs) and maxsize is None and currsize == 3
    for k in (1, 2, 3):  # the highest build is the one kept
        geometric(k, 29)
    assert geometric.cache_info().hits == hits + 3


# -- the product kernel against the term-pair loop it replaced ------------------------

def product_by_pairs(a, b, bound, zeta):
    """The oracle: every term pair, summed per key below the q-index bound."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = (k1[0] + k2[0], k1[1] + k2[1]) if zeta else k1 + k2
            if (key[0] if zeta else key) < bound:
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def kernel(a, b, bound, zeta):
    """The row kernel `_product` on term maps a and b (b may be a itself,
    for the square): the product's terms below the q-index bound."""
    cls = FJExp if zeta else QSeries

    def series(terms):
        top = max((k[0] if zeta else k for k in terms), default=0) + 1
        return FJExp(1, 1, top, terms) if zeta else QSeries(1, top, terms)

    x = series(a)
    y = x if b is a else series(b)
    den, rows, grid = _product(x, y, bound)
    prod = cls._reduced(1, 1, bound, den, rows, grid)
    terms = dict(prod.terms)
    # canonical: the same rows as the term-map constructor makes of the terms
    assert prod._data() == (FJExp(1, 1, bound, terms) if zeta else QSeries(1, bound, terms))._data()
    assert len(prod.terms) == len(terms)
    return terms


def product_by_pairs_of(x, y):
    """The oracle for `x * y` on series, with the precision rule of `__mul__`."""
    if isinstance(y, FJExp) and isinstance(x, QSeries):
        x = FJExp.from_qseries(x)
    if isinstance(x, FJExp) and isinstance(y, QSeries):
        y = FJExp.from_qseries(y)
    a, b = x._aligned(y)
    zeta = isinstance(a, FJExp)
    lo_a = min((k[0] if zeta else k for k in a.terms), default=0)
    lo_b = min((k[0] if zeta else k for k in b.terms), default=0)
    prec = min(a.prec + min(lo_b, 0), b.prec + min(lo_a, 0))
    return a.qscale, a.zscale, prec, product_by_pairs(a.terms, b.terms, prec, zeta)


def assert_mul_matches(x, y):
    prod = x * y
    assert (prod.qscale, prod.zscale, prod.prec, dict(prod.terms)) == product_by_pairs_of(x, y)


def random_terms(rng, n, t_range, r_range, zeta, big=False, denominators=(1,)):
    terms = {}
    for _ in range(n):
        t = rng.randrange(*t_range)
        key = (t, rng.randrange(*r_range)) if zeta else t
        top = 10**30 if big else 50
        c = Fraction(rng.randrange(-top, top + 1), rng.choice(denominators))
        if c:
            terms[key] = c.numerator if c.denominator == 1 else c
    return terms


@pytest.mark.parametrize("zeta", [False, True])
def test_kernel_random_sparse_and_dense(zeta):
    rng = random.Random(4001 + zeta)
    for trial in range(150):
        dense = trial % 2
        n = rng.randrange(1, 60 if dense else 8)
        span = (0, max(2, n // 3) if dense else 40)
        rs = (-4, 5) if dense else (-30, 31)
        dens = rng.choice([(1,), (1, 2, 3), (7, 11, 13, 5)])
        a = random_terms(rng, n, span, rs, zeta, big=trial % 5 == 0, denominators=dens)
        b = random_terms(rng, rng.randrange(1, 60 if dense else 8), span, rs, zeta,
                         denominators=rng.choice([(1,), (2, 9)]))
        bound = rng.randrange(0, 2 * span[1] + 2)
        assert kernel(a, b, bound, zeta) == product_by_pairs(a, b, bound, zeta)
        # a square packs its one operand once
        assert kernel(a, a, bound, zeta) == product_by_pairs(a, a, bound, zeta)


@pytest.mark.parametrize("zeta", [False, True])
def test_kernel_laurent_strides_and_bounds(zeta):
    rng = random.Random(23 + zeta)
    for _ in range(150):
        stride_t, stride_r = rng.choice([1, 2, 8, 24]), rng.choice([1, 2, 3])
        off_a, off_b = rng.randrange(-60, 10), rng.randrange(-60, 10)
        a = {(off_a + stride_t * k[0], stride_r * k[1] - 7) if zeta else off_a + stride_t * k: c
             for k, c in random_terms(rng, rng.randrange(1, 12), (0, 9), (-5, 6), zeta).items()}
        b = {(off_b + stride_t * k[0], stride_r * k[1] + 1) if zeta else off_b + stride_t * k: c
             for k, c in random_terms(rng, rng.randrange(1, 12), (0, 9), (-5, 6), zeta,
                                      denominators=(1, 4, 6)).items()}
        if not a or not b:
            continue
        lowest = min(k[0] if zeta else k for k in a) + min(k[0] if zeta else k for k in b)
        for bound in (lowest - 1, lowest, lowest + 1, lowest + rng.randrange(2, 300), 10**6):
            assert kernel(a, b, bound, zeta) == product_by_pairs(a, b, bound, zeta)
            for x in (a, b):
                assert kernel(x, x, bound, zeta) == product_by_pairs(x, x, bound, zeta)
    for empty, other in (({}, {(1, 1) if zeta else 1: 2}), ({(0, 0) if zeta else 0: 3}, {})):
        assert kernel(empty, other, 10, zeta) == {} == kernel(other, empty, 10, zeta)


@pytest.mark.parametrize("zeta", [False, True])
@pytest.mark.parametrize("bits", [7, 8, 16, 24, 32, 40, 48, 56, 63, 64, 72, 128])
def test_kernel_saturates_its_slots(zeta, bits):
    # dense operands, every coefficient +-top, sized so that one product slot
    # sums min(#a, #b) products of top*top and so needs exactly `bits` bits:
    # a slot one bit narrower carries into its neighbour.  The bits cover
    # every slot width k = bits // 8 + 1 up to 8 bytes, where the kernel
    # rounds k up to a machine word (so a word one size narrower fails
    # here), and the byte slices above it.
    rng = random.Random(bits)
    n = 4
    top = math.isqrt((2**bits - 1) // n)
    assert (n * top * top).bit_length() == bits and n * top * top > 2 ** (bits - 1)
    keys = [(t, r) for t in range(2) for r in range(2)] if zeta else list(range(n))
    # with signs (-1)^(t+r), every pair landing in one slot adds with one sign
    parity = (lambda k: sum(k) % 2) if zeta else (lambda k: k % 2)
    for _ in range(4):
        sign_a, sign_b = rng.choice([1, -1]), rng.choice([1, -1])
        a = {k: sign_a * top * (-1) ** parity(k) for k in keys}
        b = {k: sign_b * top * (-1) ** parity(k) for k in keys}
        for x, y in ((a, b), (a, a)):
            got = kernel(x, y, 10**3, zeta)
            assert max(map(abs, got.values())) == n * top * top
            assert got == product_by_pairs(x, y, 10**3, zeta)
        # the same with denominators, which the kernel scales away
        a = {k: as_rational(Fraction(c, 7)) for k, c in a.items()}
        assert kernel(a, b, 10**3, zeta) == product_by_pairs(a, b, 10**3, zeta)
        assert kernel(a, a, 10**3, zeta) == product_by_pairs(a, a, 10**3, zeta)


@pytest.mark.parametrize("zeta", [False, True])
def test_kernel_returns_ints_where_denominators_cancel(zeta):
    # (1/2 + 1/3 q)(2 + 3 q) = 1 + 13/6 q + q^2: the lcm 6 of the operand
    # denominators divides the outer slots, which come back as ints
    key = (lambda t, r: (t, r)) if zeta else (lambda t, r: t)
    a = {key(0, 1): Fraction(1, 2), key(1, 1): Fraction(1, 3)}
    b = {key(0, 1): 2, key(1, 1): 3}
    got = kernel(a, b, 10, zeta)
    assert got == {key(0, 2): 1, key(1, 2): Fraction(13, 6), key(2, 2): 1}
    assert type(got[key(0, 2)]) is int and type(got[key(2, 2)]) is int
    rng = random.Random(6)
    for _ in range(100):
        a = random_terms(rng, rng.randrange(1, 12), (0, 9), (-3, 4), zeta, denominators=(2, 3, 5))
        b = random_terms(rng, rng.randrange(1, 12), (0, 9), (-3, 4), zeta, denominators=(1, 4, 6))
        for v in kernel(a, b, 20, zeta).values():
            assert type(v) is int or v.denominator > 1


def test_kernel_rows_edge_cases():
    # the row layouts a product must cut, pack and trim correctly
    cases = [
        # a single zeta-index (zeta-stride 0), alone and against a full row
        ({(0, 3): 2, (2, 3): -1}, {(1, 3): 5}),
        ({(0, 3): 2, (2, 3): -1}, {(0, -1): 1, (0, 0): 1, (0, 1): 1}),
        ({(4, -2): 7}, {(1, 5): -3}),
        # zeta-strides 2 against 3
        ({(0, 0): 1, (0, 2): 1, (0, 4): -1, (1, 2): 3}, {(0, 1): 2, (0, 4): 1, (2, 7): -1}),
        # interior zeros, a row that cancels, and a gap of whole rows
        ({(0, -2): 1, (0, 2): 1}, {(0, -2): 1, (0, 2): -1}),
        ({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): -1}),
        ({(0, 0): 1, (1, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 0): -1, (1, 1): -1, (9, 4): 2}),
    ]
    big = 10**40  # byte-slice slots, with rows whose ends are zero slots
    cases.append(({(0, -5): big, (0, 5): -big, (1, 0): big, (3, 1): 1}, {(0, 0): big, (2, -1): 3}))
    cases.append(({(0, -5): big, (0, 0): 1, (0, 5): big}, {(0, -5): big, (0, 5): -big}))
    for pair in cases:
        # the same layouts along q, with t*8 + r + 5 as the q-index
        along_q = [{k[0] * 8 + k[1] + 5: c for k, c in x.items()} for x in pair]
        for zeta, (a, b) in ((True, pair), (False, along_q)):
            for bound in (1, 2, 3, 10, 10**3):
                assert kernel(a, b, bound, zeta) == product_by_pairs(a, b, bound, zeta)
                assert kernel(b, a, bound, zeta) == product_by_pairs(b, a, bound, zeta)
                assert kernel(a, a, bound, zeta) == product_by_pairs(a, a, bound, zeta)


def test_cancellation_leaves_canonical_rows():
    # a sum that cancels a whole row, or the whole series, is the series
    # the term-map constructor makes of what is left
    x = FJExp(1, 2, 6, {(0, -1): Fraction(1, 2), (0, 1): 1, (2, 3): Fraction(1, 3)})
    y = FJExp(1, 2, 6, {(0, -1): Fraction(-1, 2), (0, 1): 2, (2, 3): Fraction(-1, 3), (3, 0): 5})
    s = x + y
    assert s._data() == FJExp(1, 2, 6, {(0, 1): 3, (3, 0): 5})._data() and s._den == 1
    for z in (x - x, x * y - y * x, (x * y).truncated(0)):
        assert z.is_zero() and z._data() == FJExp(1, 2, z.prec, {})._data() and len(z.terms) == 0
    q = QSeries(3, 9, {0: Fraction(1, 2), 3: 1, 6: 2})
    assert (q - q).is_zero()
    assert (q + QSeries(3, 9, {0: Fraction(-1, 2)}))._data() == QSeries(3, 9, {3: 1, 6: 2})._data()


def test_products_build_no_term_map():
    # multiplying, truncating, serializing and comparing work on rows: the
    # term map behind `terms` is never built, and its len reads a count
    prod = catalog.theta(16) ** 8 * catalog.phi(1, 16)
    cut = prod.truncated(8)
    json_dict = cut.to_json_dict()
    assert cut.mismatch(prod) is None and prod.mismatch(cut) is None and cut.agrees_with(prod)
    assert len(prod.terms) == len(prod._keyed()) and len(cut.terms) == len(json_dict["terms"])
    assert prod._map is None and cut._map is None
    assert dict(cut.terms) == {(t, r): as_rational(Fraction(c)) for t, r, c in json_dict["terms"]}
    assert cut._map is not None


def test_coefficients_read_rows():
    # `coefficient` reads one numerator from the rows, on and off the grids,
    # inside and outside each run, and builds no term map
    qseries = [catalog.eta(12), catalog.delta(8), catalog.theta_const(1, 0, 6), catalog.g2(5),
               QSeries(3, 9, {-2: Fraction(1, 2), 4: 3}), QSeries(1, 5, {}),
               QSeries(2, 7, {4: 5})]
    fjexps = [catalog.theta(6), catalog.phi(1, 4), catalog.jacobi_eis(10, 1, 3),
              catalog.theta(5).ud(2) * Fraction(1, 3), FJExp(2, 3, 6, {(1, 3): 2, (5, 3): -1}),
              FJExp(1, 2, 4, {(-1, 4): Fraction(1, 6), (0, -2): 1, (2, 6): 5}), FJExp(1, 1, 3, {})]
    for x in qseries:
        x = x * 1  # a fresh series: an earlier reader may have built a memo hit's map
        got = {t: x.coefficient(Fraction(t, x.qscale)) for t in range(-4 * x.qscale, x.prec)}
        assert x._map is None
        assert got == {t: x.terms.get(t, 0) for t in got}
    for x in fjexps:
        x = x * 1
        lo, hi = x._summary()[3:]
        got = {(t, r): x.coefficient(Fraction(t, x.qscale), Fraction(r, x.zscale))
               for t in range(-2 * x.qscale, x.prec) for r in range(lo - 3, hi + 4)}
        assert x._map is None
        assert got == {k: x.terms.get(k, 0) for k in got}
    assert catalog.g2(4).coefficient(Fraction(1, 2)) == 0 and type(catalog.delta(4).coefficient(2)) is int


def test_shared_series_terms_under_threads():
    # 8 threads read the term map of one fresh series while others multiply
    # it: every map is equal and read-only, every product the same
    def build():
        return catalog.theta(12) ** 3 * catalog.phi(2, 12)
    shared, want = build(), dict(build().terms)
    want_square = (build() * build())._data()
    assert shared._map is None

    def read(_):
        m = shared.terms
        with pytest.raises(TypeError):
            m[(0, 0)] = 1
        return dict(m)

    def multiply(_):
        return (shared * shared)._data()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            maps = pool.map(read, range(16), timeout=60)
            squares = pool.map(multiply, range(16), timeout=60)
            maps, squares = list(maps), list(squares)
    finally:
        sys.setswitchinterval(old)
    assert all(m == want for m in maps) and all(sq == want_square for sq in squares)
    assert shared.terms == want and len(shared.terms) == len(want)


def test_mul_on_mixed_scales_and_eta_strides():
    rng = random.Random(1975)
    eta = catalog.eta(12)
    assert_mul_matches(eta, eta)
    assert_mul_matches(eta, catalog.euler_product(12))
    assert_mul_matches(eta ** 3, eta.inverse())
    assert_mul_matches(eta, catalog.theta(6))
    for _ in range(120):
        x_prec, y_prec = rng.randrange(1, 60), rng.randrange(1, 40)
        x = QSeries(rng.choice([1, 3, 8, 24]), x_prec,
                    random_terms(rng, rng.randrange(0, 10), (-10, x_prec), None, False,
                                 denominators=(1, 5)))
        y = FJExp(rng.choice([1, 2, 8]), rng.choice([1, 2, 3]), y_prec,
                  {k: c for k, c in random_terms(rng, rng.randrange(0, 10), (-3, 40), (-6, 7), True,
                                                 denominators=(1, 3)).items() if k[0] < y_prec})
        assert_mul_matches(x, x)
        assert_mul_matches(x, y)
        assert_mul_matches(y, x)
        assert_mul_matches(y, y)


CATALOG_FORMS = ("theta", "theta00", "theta01", "theta10", "theta11", "eta", "delta", "ek:4",
                 "ek:12", "g2", "eps2", "phi:1", "phi:2", "phi:3", "phi:4", "jacobi_eis:4,1",
                 "jacobi_eis:6,2", "jacobi_eis:4,4", "theta_const:0,0", "theta_const:0,1", "theta_const:1,0",
                 "wp_theta2")


@pytest.mark.parametrize("name", CATALOG_FORMS)
def test_mul_on_catalog_forms(name):
    for p in range(1, 13):
        form, theta = catalog.form_by_name(name, p), catalog.theta(p)
        assert_mul_matches(form, form)
        assert_mul_matches(form, theta)


# each entry point would otherwise read a float through Fraction, as its
# binary expansion (0.1 -> 3602879701896397/36028797018963968)
FLOAT_INPUTS = {
    "coefficient": lambda: QSeries(1, 3, {0: 0.1}),
    "cohen_h": lambda: cohen_h(3, 0.1),
    "weight": lambda: FJExp(1, 1, 2, {}, weight=0.5),
    "index": lambda: FJExp(1, 1, 2, {}, index=0.5),
    "cone_slack": lambda: FJExp(1, 1, 2, {}, cone_slack=0.5),
    "cyclo_coordinate": lambda: CycloElt(4, (0.1, 0)),
    "qseries_one": lambda: QSeries.one(2.5),
    "fjexp_one": lambda: FJExp.one(2.5),
    "truncated": lambda: catalog.eta(4).truncated(2.5),
    "q_exp": lambda: catalog.eta(4).coefficient(0.5),
    "q_slice": lambda: catalog.theta(4).q_slice(0.125),
    "z_exp": lambda: catalog.theta(4).coefficient(Fraction(1, 8), 0.5),
    "in_e8": lambda: lattice.in_e8((0.5,) * 8),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_INPUTS))
def test_floats_are_refused(entry):
    with pytest.raises(TypeError):
        FLOAT_INPUTS[entry]()


# a scale or precision that is not an int would construct, and then fail
# later (str() raised "both arguments should be Rational instances")
NON_INT_GRIDS = {
    "qseries_prec": lambda: QSeries(1, 2.5, {0: 1}),
    "qseries_qscale": lambda: QSeries(1.0, 3, {}),
    "qseries_json_prec": lambda: QSeries.from_json_dict({"qscale": 1, "prec": 3.0, "terms": [[0, "1"]]}),
    "fjexp_zscale": lambda: FJExp(1, 2.0, 3, {}),
    "fjexp_prec": lambda: FJExp(1, 1, Fraction(3), {}),
    "fjexp_json_prec": lambda: FJExp.from_json_dict({"qscale": 1, "zscale": 1, "prec": 3.0, "terms": []}),
}


@pytest.mark.parametrize("entry", sorted(NON_INT_GRIDS))
def test_scales_and_precision_must_be_ints(entry):
    with pytest.raises(ValueError, match="scales must be positive integers and prec an integer"):
        NON_INT_GRIDS[entry]()


# rescaled took any multiple of the old scale: 0 made qscale 0 and prec 0,
# 2.0 a float qscale, and (8, 0) a zscale of 0
BAD_RESCALES = {
    "zero": lambda: QSeries(1, 5, {0: 1, 2: 3}).rescaled(0),
    "float": lambda: QSeries(1, 5, {0: 1, 2: 3}).rescaled(2.0),
    "float_same": lambda: QSeries(2, 5, {0: 1}).rescaled(2.0),
    "negative": lambda: QSeries(1, 5, {0: 1}).rescaled(-2),
    "zscale_zero": lambda: catalog.theta(3).rescaled(8, 0),
    "zscale_fraction": lambda: catalog.theta(3).rescaled(8, Fraction(4)),
}


@pytest.mark.parametrize("entry", sorted(BAD_RESCALES))
def test_rescaled_refuses_scales_that_are_not_positive_integers(entry):
    with pytest.raises(ValueError, match="scales must be positive integers and prec an integer"):
        BAD_RESCALES[entry]()
