"""Two-variable expansions: operators, division, specialization, precision."""

import random
from fractions import Fraction

import pytest

from jacobiforms import catalog as cat
from jacobiforms.series import (
    FJExp,
    InexactDivision,
    NonRationalResult,
    QSeries,
    prec_for_eval_linear,
    prec_for_specialize,
)

HALF = Fraction(1, 2)


def random_fj(rng, prec=8):
    terms = {}
    for _ in range(rng.randrange(0, 10)):
        t = rng.randrange(0, prec)
        r = rng.randrange(-4, 5)
        terms[(t, r)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return FJExp(1, 1, prec, {k: c for k, c in terms.items() if c})


def test_ring_laws_random():
    rng = random.Random(314159)
    for _ in range(120):
        a, b, c = random_fj(rng), random_fj(rng), random_fj(rng)
        assert (a + b).terms == (b + a).terms
        assert (a * b).terms == (b * a).terms
        assert ((a + b) + c).terms == (a + (b + c)).terms
        assert (a * (b + c)).terms == ((a * b) + (a * c)).terms
        assert ((a * b) * c).agrees_with(a * (b * c))


def test_one_and_meta():
    a = cat.theta(4)
    assert (a * FJExp.one(4)) == a
    assert a.ud(1) == a
    sq = a * a
    assert sq.weight == 1 and sq.index == 1  # theta^2 is weight 1, index 1
    assert a.with_meta(weight=5).weight == 5


def test_ud_fixture():
    th = cat.theta(4)
    lowest = th.ud(2).q_slice(Fraction(1, 8))
    assert lowest == {Fraction(1): 1, Fraction(-1): -1}
    e41 = cat.jacobi_eis_m1(4, 4)
    support = {r for r, c in e41.ud(2).q_slice(1).items()}
    assert support == {0, 2, -2, 4, -4}


def test_vl_fixtures():
    e41 = cat.jacobi_eis_m1(4, 24)
    assert e41.vl(1) == e41.normalized()
    assert e41.vl(4).coefficient(0, 0) == 73
    assert e41.vl(2).coefficient(1, 1) == 576
    with pytest.raises(ValueError):
        cat.theta(4).vl(2)  # fractional scales


def test_vl_commutes_with_restriction():
    # restriction to z = 0 of E|V_l matches the classical V_l on the q-series
    e41 = cat.jacobi_eis_m1(4, 25)
    e4 = e41.eval_z0()
    for l in (2, 3, 4):
        lhs = e41.vl(l).eval_z0()
        prec = lhs.prec
        terms = {}
        for n in range(prec):
            acc = Fraction(0)
            g = l if n == 0 else __import__("math").gcd(n, l)
            for d in [d for d in range(1, g + 1) if g % d == 0]:
                acc += d**3 * Fraction(e4.coefficient(n * l // (d * d))
                                       if (n * l) % (d * d) == 0 else 0)
            terms[n] = acc
        assert lhs.agrees_with(QSeries(1, prec, terms)), l


def test_eval_z0():
    assert cat.theta(6).eval_z0().is_zero()
    th8 = cat.theta(6) ** 8
    assert th8.eval_z0().coefficient(1) == 0  # binomial row sums to zero
    e41 = cat.jacobi_eis_m1(4, 6)
    assert e41.eval_z0().agrees_with(cat.eisenstein(4, 6))


def test_divide_roundtrip_on_catalog_forms():
    th = cat.theta(8)
    for num, den in ((th.ud(2), th), (th.ud(3), th), (th * th, th)):
        q = num.divide(den)
        back = q * den
        assert back.agrees_with(num.truncated(back.prec_exponent))
    assert th.divide(th).agrees_with(FJExp.one(1))
    # (a * b) / b recovers a for denominators with invertible lowest term
    for a, b in ((cat.theta(7) ** 8, cat.phi(2, 7)),
                 (cat.jacobi_eis_m1(4, 7), cat.theta(7) ** 2)):
        q = (a * b).divide(b)
        assert q.agrees_with(a.truncated(q.prec_exponent))


def test_divide_inexact_raises():
    th = cat.theta(6)
    bad = th.ud(2) + FJExp(8, 2, th.prec, {(0, 0): 1})
    with pytest.raises(InexactDivision) as err:
        (bad).divide(th)
    assert err.value.q_exponent is not None


def test_mul_with_qseries_and_scalar():
    th8 = cat.theta(5) ** 8
    assert (th8 * 2).coefficient(1, 0) == 140
    scaled = th8 * QSeries(1, 5, {0: 2})
    assert scaled.coefficient(1, 0) == 140
    assert scaled.index == 4


def test_add_and_subtract_scalar():
    th = cat.theta(4)
    one = QSeries(th.qscale, th.prec, {0: 1})
    for total, expected in ((th + 1, th + one), (1 + th, th + one),
                            (th - 1, th - one), (1 - th, -th + one)):
        assert total == expected
    assert (th + 1).coefficient(0, 0) == 1 and (1 - th).coefficient(Fraction(1, 8), HALF) == -1
    assert (th + HALF).coefficient(0, 0) == HALF


def test_qseries_minus_fjexp():
    one = QSeries(8, 32, {0: 1})
    assert one - cat.theta(4) == -(cat.theta(4) - one)


def test_specialize_fixtures():
    th = cat.theta(12)
    th8 = th**8
    t108 = th8.specialize(0, HALF)
    assert t108.coefficient(1) == 256 and t108.coefficient(2) == 2048
    # z -> tau/2 with the automorphy prefactor equals -theta_01
    s = th.specialize(HALF, 0)
    t01 = cat.theta_const(0, 1, 10)
    assert s.truncated(8).agrees_with((-1 * t01).truncated(8))
    # z -> (tau+1)/2 on the eighth power equals theta_00^8
    s2 = th8.specialize(HALF, HALF)
    t008 = cat.theta_const(0, 0, 10) ** 8
    assert s2.agrees_with(t008.truncated(s2.prec_exponent))
    # mu = 0, lambda = 0 recovers the z = 0 restriction
    e = cat.jacobi_eis_m1(4, 6)
    assert e.specialize(0, 0).agrees_with(e.eval_z0())


def test_specialize_twisted_sum_consistency():
    # at (0, 1/2) the result is exactly the (-1)^r-twisted zeta-sum per q-power
    e = cat.jacobi_eis(4, 2, 8)
    s = e.specialize(0, HALF)
    for n in range(8):
        twisted = sum((-1 if int(r) & 1 else 1) * c for r, c in e.q_slice(n).items())
        assert s.coefficient(n) == twisted, n


def test_specialize_nonrational_raises_and_cyclo_route():
    th = cat.theta(8)
    with pytest.raises(NonRationalResult) as err:
        th.specialize(0, HALF)
    assert err.value.value.conductor == 4
    cs = th.specialize(0, HALF, cyclotomic=True)
    t10 = cs.times_root(-1, 4).to_qseries()
    assert t10.agrees_with(cat.theta_const(1, 0, 8).truncated(t10.prec_exponent))


def test_specialize_certified_window_is_sound():
    # a low-precision input must agree with the high-precision ground truth
    # everywhere inside its certified window
    lo = (cat.theta(8) ** 8).specialize(HALF, HALF)
    hi = (cat.theta(20) ** 8).specialize(HALF, HALF)
    assert lo.prec_exponent >= 1
    assert lo.agrees_with(hi.truncated(lo.prec_exponent))


def test_eval_linear_certified_window_is_sound():
    lo = (cat.theta(8) ** 8).eval_linear(3, 2)
    hi = (cat.theta(24) ** 8).eval_linear(3, 2)
    assert lo.agrees_with(hi.truncated(lo.prec_exponent))


def test_prec_planning_helpers():
    for target in (4, 8, 12):
        p = prec_for_specialize(target, 4, HALF, 0)
        out = (cat.theta(p) ** 8).specialize(HALF, HALF)
        assert out.prec_exponent >= target
        p = prec_for_eval_linear(target, 4, 3, 2, 0)
        out = (cat.theta(p) ** 8).eval_linear(3, 2)
        assert out.prec_exponent >= target


def test_specialize_without_cone_metadata_rejected():
    a = FJExp(1, 1, 6, {(1, 0): 1, (1, 1): 1})
    with pytest.raises(ValueError):
        a.specialize(HALF, 0, index=1)
    # but lambda = 0 needs no cone
    assert a.specialize(0, HALF, index=1).coefficient(1) == 0


def test_index_cone_invariant_on_catalog_forms():
    for form in (cat.theta(10), cat.jacobi_eis_m1(4, 10), cat.jacobi_eis(4, 3, 8),
                 cat.jacobi_eis(6, 4, 8), cat.wp_theta2(8)):
        assert form.cone_violations() == []
    # weak forms satisfy the slack-m cone
    for j in (1, 2, 3, 4):
        assert cat.phi(j, 8).cone_violations() == []


def test_fj_json_roundtrip():
    th = cat.theta(5)
    assert FJExp.from_json_dict(th.to_json_dict()).terms == th.terms
    d = FJExp(2, 3, 7, {(1, -2): Fraction(1, 3), (1, 2): 5}).to_json_dict()
    assert d == {"qscale": 2, "zscale": 3, "prec": 7,
                 "terms": [[1, -2, "1/3"], [1, 2, "5"]]}


def test_truncated_and_coefficient_guards():
    e = cat.jacobi_eis_m1(4, 8)
    t = e.truncated(3)
    assert t.prec_exponent == 3
    with pytest.raises(ValueError):
        t.coefficient(3, 0)
    with pytest.raises(ValueError):
        t.q_slice(5)
    # the precision edge cuts whole q-rows, negative zeta-powers included
    with pytest.raises(ValueError):
        FJExp(1, 1, 2, {(2, -1): 1})
    assert dict(FJExp(1, 1, 3, {(1, 1): 2, (2, -1): 1}).truncated(2).terms) == {(1, 1): 2}


def test_divide_fuzz_reconstructs_factor():
    # random denominators with a Laurent lowest block: (q * b) / b == q
    rng = random.Random(1729)
    for _ in range(40):
        b_terms = {}
        for _ in range(rng.randrange(1, 8)):
            b_terms[(rng.randrange(0, 5), rng.randrange(-3, 4))] = rng.randrange(-5, 6)
        b = FJExp(1, 1, 8, {k: c for k, c in b_terms.items() if c})
        if b.is_zero():
            continue
        q_terms = {}
        for _ in range(rng.randrange(1, 6)):
            q_terms[(rng.randrange(0, 4), rng.randrange(-2, 3))] = Fraction(
                rng.randrange(-6, 7), rng.randrange(1, 4))
        q = FJExp(1, 1, 8, {k: c for k, c in q_terms.items() if c})
        got = (q * b).divide(b)
        assert got.agrees_with(q.truncated(got.prec_exponent))


def random_laurent_qseries(rng):
    """A QSeries on a random scale, with Laurent terms and coefficients of
    mixed denominators."""
    scale = rng.choice((1, 2, 3, 8, 24))
    prec = rng.randrange(1, 4 * scale)
    terms = {}
    for _ in range(rng.randrange(0, 9)):
        terms[rng.randrange(-2 * scale, prec)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return QSeries(scale, prec, terms)


def test_shared_core_agrees_on_lifted_qseries():
    # every operation of the shared core commutes with FJExp.from_qseries
    lift = FJExp.from_qseries
    ops = {
        "add": (lambda a, b: a + b),
        "sub": (lambda a, b: a - b),
        "neg": (lambda a, b: -a),
        "scalar": (lambda a, b: 3 * a),
        "truncated": (lambda a, b: a.truncated(b.prec_exponent - 1)),
        "normalized": (lambda a, b: a.normalized()),
        "rescaled": (lambda a, b: a.rescaled(a.qscale * b.qscale)),
    }
    rng = random.Random(2718)
    for _ in range(150):
        a, b = random_laurent_qseries(rng), random_laurent_qseries(rng)
        for name, op in ops.items():
            one_var, two_var = lift(op(a, b)), op(lift(a), lift(b))
            assert one_var == two_var, name
            assert one_var.to_json_dict() == two_var.to_json_dict(), name


def test_mismatch_reports_the_same_place_for_both_types():
    lift = FJExp.from_qseries
    rng = random.Random(161803)
    found = 0
    for _ in range(200):
        a = random_laurent_qseries(rng)
        b = a + QSeries(a.qscale, a.prec, {rng.randrange(-a.qscale, a.prec): rng.randrange(-1, 2)})
        one_var, two_var = a.mismatch(b), lift(a).mismatch(lift(b))
        if one_var is None:
            assert two_var is None
            continue
        found += 1
        q, z, lhs, rhs = one_var
        assert z is None and lhs != rhs
        assert two_var == (q, 0, lhs, rhs)
    assert found > 50
