"""One-variable series engine: ring laws, inversion, precision semantics."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from jacobiforms.series import CycloElt, CycloSeries, QSeries, cyclotomic_poly, memo_by_prec


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
