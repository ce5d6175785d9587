"""Two-variable expansions: operators, division, specialization, precision."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from jacobiforms import catalog as cat
from jacobiforms import series
from jacobiforms.numtheory import as_rational
from jacobiforms.series import (
    CycloElt,
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


def test_ud_rejects_a_non_integer_factor():
    # theta(3).ud(1.5) used to give zeta-indices -1.5 and -4.5 and index 9/8
    with pytest.raises(ValueError, match="U_d expects a positive integer"):
        cat.theta(3).ud(1.5)


def test_vl_rejects_a_non_integer_level():
    with pytest.raises(ValueError, match="V_l expects a positive integer"):
        cat.jacobi_eis(4, 1, 5).vl(2.0, 4)


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
    # the registry's pull-backs at target 12: phi_{0,j}(tau, (tau+1)/2),
    # E_{k,m}(tau, (tau+1)/2) and the C33/S32 maps (index, c, d)
    assert [prec_for_specialize(12, j, HALF, j) for j in (1, 2, 3, 4)] == [17, 19, 21, 23]
    assert prec_for_specialize(13, 1, HALF, 1) == 18
    assert [prec_for_specialize(12, m, HALF, 0) for m in (1, 2, 4)] == [16, 18, 20]
    assert [prec_for_eval_linear(12, m, c, d, 0) for m, c, d in ((4, 3, 2), (1, 3, 1), (4, 2, 1))] == [14, 6, 14]
    # the bound grows with P only for a positive tau multiplier, and the
    # exponents stay on one integer grid only for an integral one
    for tau_mult in (0, -1, Fraction(3, 2)):
        with pytest.raises(ValueError, match="tau multiplier"):
            prec_for_eval_linear(4, 1, tau_mult, 1, 0)
        with pytest.raises(ValueError, match="tau multiplier"):
            cat.theta(4).eval_linear(tau_mult, 1)


# a float pull-back parameter would be read by Fraction as its binary
# expansion (0.1 -> 3602879701896397/2^55), so every entry point refuses one
FLOAT = 0.1


@pytest.mark.parametrize("z_mult", [FLOAT, "1/2"])
def test_eval_linear_takes_only_an_int_or_a_fraction(z_mult):
    with pytest.raises(TypeError, match="z_mult must be an int or a Fraction"):
        cat.theta(3).eval_linear(3, z_mult)


@pytest.mark.parametrize("name", ["lam", "mu"])
def test_specialize_takes_only_ints_or_fractions(name):
    args = {"lam": HALF, "mu": 0, name: FLOAT}
    with pytest.raises(TypeError, match=f"{name} must be an int or a Fraction"):
        cat.theta(3).specialize(**args)


@pytest.mark.parametrize("name", ["lam", "index", "slack"])
def test_prec_for_specialize_takes_only_ints_or_fractions(name):
    args = {"target": 4, "index": 4, "lam": HALF, "slack": 0, name: FLOAT}
    with pytest.raises(TypeError, match=f"{name} must be an int or a Fraction"):
        prec_for_specialize(**args)


@pytest.mark.parametrize("name", ["z_mult", "index", "slack"])
def test_prec_for_eval_linear_takes_only_ints_or_fractions(name):
    args = {"target": 4, "index": 4, "tau_mult": 3, "z_mult": 2, "slack": 0, name: FLOAT}
    with pytest.raises(TypeError, match=f"{name} must be an int or a Fraction"):
        prec_for_eval_linear(**args)


def test_root_power_takes_only_an_int_or_a_fraction_coefficient():
    with pytest.raises(TypeError, match="coeff must be an int or a Fraction"):
        series.CycloElt.from_root_power(8, 1, FLOAT)
    assert series.CycloElt.from_root_power(4, 1, HALF).coords == (0, HALF)


@pytest.mark.parametrize("scalar", [FLOAT, "1/2"], ids=["float", "str"])
def test_cyclo_scalar_takes_only_an_int_or_a_fraction(scalar):
    i_elt = series.CycloElt.from_root_power(4, 1)
    with pytest.raises(TypeError, match="scalar must be an int or a Fraction"):
        i_elt * scalar
    with pytest.raises(TypeError, match="scalar must be an int or a Fraction"):
        scalar * i_elt


def test_cyclo_scalar_products_by_ints_and_fractions():
    elt = series.CycloElt.from_root_power(8, 1) + series.CycloElt.from_root_power(8, 2, HALF)
    assert (elt * 3).coords == (0, 3, Fraction(3, 2), 0)
    assert (HALF * elt).coords == (0, HALF, Fraction(1, 4), 0)
    assert (elt * Fraction(4, 2)).coords == (0, 2, 1, 0) and type((elt * Fraction(4, 2)).coords[1]) is int


def search_from_one(target, *bound):
    """The least P >= 1 whose tail bound admits the target, searched upward
    from P = 1: the oracle for where the planners start their search."""
    p = 1
    while not series._tail_bound(p, *bound).admits(target):
        p += 1
    return p


def test_planners_equal_the_search_from_one():
    targets = (-3, 0, 1, 2, 5, 12, 30, Fraction(7, 3), Fraction(25, 8))
    slopes = (0, Fraction(1, 4), HALF, Fraction(2, 3), 1, -HALF, 2)
    for target, index, lam, slack in itertools.product(targets, (0, HALF, 1, 3, 4), slopes, (0, 1, 4)):
        lam_f = Fraction(lam)
        assert (prec_for_specialize(target, index, lam, slack)
                == search_from_one(target, 1, lam_f, index * lam_f * lam_f, Fraction(index),
                                   Fraction(slack))), (target, index, lam, slack)
    for target, index, c, d, slack in itertools.product(targets, (0, HALF, 1, 4), (1, 2, 3),
                                                        (0, HALF, 1, 2, -1), (0, 2)):
        assert (prec_for_eval_linear(target, index, c, d, slack)
                == search_from_one(target, c, Fraction(d), 0, Fraction(index), Fraction(slack))), \
            (target, index, c, d, slack)


def full_cone(index, slack, prec):
    """Coefficient 1 on every (n, r), n < prec, of the cone
    |r| <= 2*sqrt(n*index) + slack: a pull-back's window can only be sound
    if the terms on the cone's edge, which no form has to spare, stay out."""
    rmax = [math.isqrt(4 * n * index) + slack for n in range(prec)]
    terms = {(n, r): 1 for n in range(prec) for r in range(-rmax[n], rmax[n] + 1)}
    return FJExp(1, 1, prec, terms, index=index, cone_slack=slack)


# the planners against the certifier: every catalog form with cone metadata
# and three full cones, five pull-back slopes lam (with mu = 0 and 1/2) and
# five maps (c, d)
SWEEP_FORMS = (
    lambda p: full_cone(1, 1, p),
    lambda p: full_cone(2, 2, p),
    lambda p: full_cone(3, 0, p),
    lambda p: cat.theta(p),
    lambda p: cat.theta(p) ** 8,
    *(lambda p, j=j: cat.phi(j, p) for j in (1, 2, 3, 4)),
    lambda p: cat.jacobi_eis(4, 2, p),
    lambda p: cat.jacobi_eis(6, 3, p),
    lambda p: cat.wp_theta2(p),
)
SWEEP_SLOPES = (HALF, Fraction(1, 3), Fraction(1, 4), Fraction(2, 3), 1)
SWEEP_MAPS = ((3, 2), (3, 1), (2, 1), (2, -1), (1, HALF))


@pytest.mark.parametrize("target", [2, 5, 8])
def test_planned_precision_is_the_least_sound_one(target):
    # the planned P certifies the target, P - 1 does not, and the window at
    # P agrees with a build from six more q-orders
    for form in SWEEP_FORMS:
        index, slack = form(1).index, form(1).cone_slack
        for lam in SWEEP_SLOPES:
            p = prec_for_specialize(target, index, lam, slack)
            hi = form(p + 6)
            for mu in (0, HALF):
                assert form(p).specialize(lam, mu, cyclotomic=True).prec_exponent >= target
                if p > 1:
                    assert form(p - 1).specialize(lam, mu, cyclotomic=True).prec_exponent < target
            lo = form(p).specialize(lam, 0)
            assert lo.agrees_with(hi.specialize(lam, 0)), (index, lam)
        for tau_mult, z_mult in SWEEP_MAPS:
            p = prec_for_eval_linear(target, index, tau_mult, z_mult, slack)
            lo = form(p).eval_linear(tau_mult, z_mult)
            assert lo.prec_exponent >= target
            assert lo.agrees_with(form(p + 6).eval_linear(tau_mult, z_mult)), (index, tau_mult, z_mult)
            if p > 1:
                assert form(p - 1).eval_linear(tau_mult, z_mult).prec_exponent < target


def test_specialize_without_cone_metadata_rejected():
    a = FJExp(1, 1, 6, {(1, 0): 1, (1, 1): 1}, index=1)
    with pytest.raises(ValueError):
        a.specialize(HALF, 0)
    # but lambda = 0 needs no cone
    assert a.specialize(0, HALF).coefficient(1) == 0
    # the index comes only from the metadata
    with pytest.raises(ValueError, match="none in metadata"):
        FJExp(1, 1, 6, {(1, 0): 1}).specialize(0, HALF)


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


# -- the long division against the row-by-row division it replaced ------------------

def laurent_div_by_ints(num: dict, den: dict) -> dict:
    """Exact division in Q[z, 1/z], in integer steps wherever the leading
    coefficient divides as ints; raises InexactDivision(0) when the quotient
    does not exist."""
    if not den:
        raise ZeroDivisionError("Laurent division by zero")
    if not num:
        return {}
    dmax, qmin = max(den), min(num) - min(den)
    dlead = den[dmax]
    rem, quot = dict(num), {}
    while rem:
        rmax = max(rem)
        qdeg = rmax - dmax
        if qdeg < qmin:
            raise InexactDivision(Fraction(0))
        top = rem[rmax]
        if type(top) is int and type(dlead) is int and not top % dlead:
            coef = top // dlead
        else:
            coef = as_rational(Fraction(top) / dlead)
        quot[qdeg] = coef
        for rd, dc in den.items():
            v = rem.get(qdeg + rd, 0) - coef * dc
            if v:
                rem[qdeg + rd] = v
            else:
                rem.pop(qdeg + rd, None)
    return quot


def laurent_div_by_fractions(num: dict, den: dict) -> dict:
    """Exact division in Q[z, 1/z] with every step in Fraction."""
    if not den:
        raise ZeroDivisionError("Laurent division by zero")
    if not num:
        return {}
    dmax, qmin = max(den), min(num) - min(den)
    dlead = Fraction(den[dmax])
    rem, quot = dict(num), {}
    while rem:
        rmax = max(rem)
        qdeg = rmax - dmax
        if qdeg < qmin:
            raise InexactDivision(Fraction(0))
        coef = Fraction(rem[rmax]) / dlead
        quot[qdeg] = as_rational(coef)
        for rd, dc in den.items():
            v = rem.get(qdeg + rd, 0) - coef * dc
            if v:
                rem[qdeg + rd] = v
            else:
                rem.pop(qdeg + rd, None)
    return quot


def divide_by_rows(num: FJExp, den: FJExp, laurent) -> FJExp:
    """The oracle: per q-order, divide the lowest residual row by the
    denominator's lowest row through `laurent`, then subtract the quotient
    row times the whole denominator, its lowest row included, from every
    term of the remainder."""
    a, b = num._aligned(den)
    d_lo = min(t for t, _ in b.terms)
    b0 = {r: c for (t, r), c in b.terms.items() if t == d_lo}
    if not a.terms:
        return FJExp(a.qscale, a.zscale, a.prec - d_lo, {})
    n_lo = min(t for t, _ in a.terms)
    out_prec = min(a.prec - d_lo, b.prec - 2 * d_lo + n_lo)
    rem, quot = dict(a.terms), {}
    while rem:
        t_min = min(t for t, _ in rem)
        q_order = t_min - d_lo
        if q_order >= out_prec:
            break
        block = {r: c for (t, r), c in rem.items() if t == t_min}
        try:
            q_block = laurent(block, b0)
        except InexactDivision:
            raise InexactDivision(Fraction(t_min, a.qscale)) from None
        for r, c in q_block.items():
            quot[(q_order, r)] = c
        limit = out_prec + d_lo - q_order
        for rq, qc in q_block.items():
            for (t2, r2), c2 in b.terms.items():
                if t2 < limit:
                    key = (q_order + t2, rq + r2)
                    v = rem.get(key, 0) - qc * c2
                    if v:
                        rem[key] = v
                    else:
                        rem.pop(key, None)
    weight = None if (a.weight is None or b.weight is None) else a.weight - b.weight
    index = None if (a.index is None or b.index is None) else a.index - b.index
    return FJExp(a.qscale, a.zscale, out_prec, quot, weight=weight, index=index)


def one_row_divide(num: dict, den: dict) -> dict:
    """Laurent division of zeta-polynomials through `FJExp.divide` on one q-row."""
    quot = FJExp(1, 1, 1, {(0, e): c for e, c in num.items()}).divide(
        FJExp(1, 1, 1, {(0, e): c for e, c in den.items()}))
    assert quot.prec == 1
    return {r: c for (_, r), c in quot.terms.items()}


def laurent_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: as_rational(c) for e, c in out.items() if c}


@pytest.mark.parametrize("lead", [1, -1, 2, Fraction(3, 5)], ids=str)
def test_laurent_division_matches_fraction_steps(lead):
    rng = random.Random(f"laurent-{lead}")

    def poly(n, coeff):
        return {e: coeff() for e in rng.sample(range(-5, 5), n)}

    def small():
        return rng.choice((-1, 1)) * rng.randrange(1, 7)

    def mixed():
        return as_rational(Fraction(small(), rng.choice((1, 1, 2, 5))))

    for trial in range(80):
        den = poly(rng.randrange(0, 4), mixed if trial % 2 else small)
        den[max(den, default=0) + rng.randrange(1, 3)] = lead  # the leading coefficient
        quot = poly(rng.randrange(1, 6), mixed if trial % 3 == 0 else small)
        num = laurent_mul(quot, den)
        got = one_row_divide(num, den)
        assert got == laurent_div_by_ints(num, den) == laurent_div_by_fractions(num, den) == quot
        assert all(type(c) is int or c.denominator > 1 for c in got.values())
        if len(den) > 1:  # one extra term makes the division inexact
            e = rng.randrange(min(num) - 3, max(num) + 4)
            bad = {**num, e: num.get(e, 0) + mixed()}
            bad = {k: c for k, c in bad.items() if c}
            for divide in (one_row_divide, laurent_div_by_ints, laurent_div_by_fractions):
                with pytest.raises(InexactDivision) as err:
                    divide(bad, den)
                assert err.value.q_exponent == 0


def test_inexact_division_fails_at_the_same_q_order():
    # a perturbed row of theta(tau, 2z) or of a product of random expansions:
    # the long division raises where the row-by-row oracle raises, in its
    # integer-step and its all-Fraction form, and agrees with both on the
    # unperturbed products
    rng = random.Random(8)
    th = cat.theta(10)
    cases = [(th.ud(2) + FJExp(8, 2, th.prec, {(t, 0): 1}), th) for t in (1, 9, 25, 49)]
    for _ in range(30):
        den = random_fj(rng, prec=10) + FJExp(1, 1, 10, {(0, 3): Fraction(3, 5), (0, -1): 2})
        num = random_fj(rng, prec=10) * den
        row = rng.randrange(0, 4)
        cases += [(num, den), (num + FJExp(1, 1, 10, {(row, 7): 1}), den)]
    for num, den in cases:
        outcomes = []
        for divide in (FJExp.divide,
                       lambda a, b: divide_by_rows(a, b, laurent_div_by_ints),
                       lambda a, b: divide_by_rows(a, b, laurent_div_by_fractions)):
            try:
                quot = divide(num, den)
                outcomes.append((quot.prec, dict(quot.terms), quot.weight, quot.index))
            except InexactDivision as err:
                outcomes.append(err.q_exponent)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert isinstance(outcomes[0], Fraction) or den is not th


def test_long_division_equals_the_row_by_row_oracle():
    # the catalog's quotients and inverses, and the fuzz products above
    th = cat.theta(16)
    cases = [(th.ud(2), th), (th.ud(3), th), (th.ud(2) * th.ud(2), th * th)]
    for s in (cat.eta(16) ** 6, cat.delta(16), cat.eisenstein(6, 16), cat.theta_const(1, 0, 16)):
        cases.append((FJExp(s.qscale, 1, s.prec - min(s.terms), {(0, 0): 1}), FJExp.from_qseries(s)))
    rng = random.Random(1729)
    for _ in range(20):
        den = random_fj(rng) + FJExp(1, 1, 8, {(1, 2): 1})
        cases.append((random_fj(rng) * den, den))
    for num, den in cases:
        got = num.divide(den)
        for laurent in (laurent_div_by_ints, laurent_div_by_fractions):
            want = divide_by_rows(num, den, laurent)
            assert (got.prec, got.to_json_dict(), got.weight, got.index) == \
                (want.prec, want.to_json_dict(), want.weight, want.index)


def canonical_digest(forms) -> str:
    h = hashlib.sha256()
    for x in forms:
        data = x.to_json_dict()
        data["meta"] = [str(getattr(x, f, None)) for f in ("weight", "index", "cone_slack")]
        h.update(json.dumps(data, sort_keys=True).encode())
    return h.hexdigest()


# sha256 of the outputs at p = 8, 16 and 40, captured from the all-Fraction
# Laurent steps, the byte-slice kernel and powers started from 1
OUTPUT_DIGESTS = {
    "theta(2z)/theta": ("d489ed6c39a6c5b9a9b54d9c7993402a7fcd4655b6a42f4cf0d14bd82b627f75",
                        lambda p: cat.theta(p).ud(2).divide(cat.theta(p))),
    "theta(3z)/theta": ("bd4b2a7e712e5ecea4c1a31e8f881c8fdb7f3270de633311f79ad1db2751b615",
                        lambda p: cat.theta(p).ud(3).divide(cat.theta(p))),
    "E4/E6": ("fe0dbc72eed84aef5891b1a14f7a9c422a706c218956563f875c8ddc05e6a51b",
              lambda p: cat.eisenstein(4, p) / cat.eisenstein(6, p)),
    "1/E6": ("752c82f3f8c8a0c676244536febcec08dbcf18cde1e38b25bfd391c762aaa576",
             lambda p: cat.eisenstein(6, p).inverse()),
    "1/eta": ("b70cab1d7bd2f62003407dfaaf98dd7fe0f52e4726698a0a80bf61216f555570",
              lambda p: cat.eta(p).inverse()),
    "1/Delta": ("719a725f1b9ae31bac4e9a41bf0d2e30841cdf25b533e81d761abb7cc5160627",
                lambda p: cat.delta(p).inverse()),
    "theta^8": ("be2d698774b77fab6097390b45fb1c07b01d146ac12d4774ede401fe7687ef88",
                lambda p: cat.theta(p) ** 8),
    "eta^24": ("21d2812b1cc10827b2b979c1c318e5b9be2934c11612b8d902ed53518f08f47d",
               lambda p: cat.eta(p) ** 24),
}


@pytest.mark.parametrize("name", OUTPUT_DIGESTS)
def test_quotients_inverses_and_powers_keep_their_bytes(name):
    digest, build = OUTPUT_DIGESTS[name]
    assert canonical_digest(build(p) for p in (8, 16, 40)) == digest


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


# -- certified windows: more input precision changes nothing already certified -------

def assert_extends(lo, hi, target=None):
    """`hi`, built from more precise inputs than `lo`, certifies at least
    lo's window and agrees with lo on all of it."""
    assert lo.prec_exponent <= hi.prec_exponent
    assert lo.agrees_with(hi)
    if target is not None:
        assert lo.prec_exponent >= target


PRODUCTS = (
    lambda p: cat.theta(p) ** 3 * cat.jacobi_eis_m1(4, p),
    lambda p: cat.phi(2, p) * cat.phi(3, p),
    lambda p: cat.eta(p) ** 5 * cat.phi(1, p),
    lambda p: cat.phi(1, p) * cat.delta(p).inverse(),  # a Laurent factor
    lambda p: cat.eisenstein(4, p) * cat.eta(p).inverse() ** 2,
)

# (form at precision p, index, slack, lam, mu) with rational specializations
SPECIALIZED = (
    (lambda p: cat.theta(p) ** 8, 4, 0, HALF, HALF),
    (lambda p: cat.theta(p) ** 8, 4, 0, -HALF, 0),
    (lambda p: cat.jacobi_eis(4, 2, p), 2, 0, HALF, HALF),
    (lambda p: cat.phi(2, p), 2, 2, HALF, HALF),
    (lambda p: cat.phi(1, p), 1, 1, 0, HALF),
    *((lambda p, j=j: cat.phi(j, p), j, j, Fraction(1, 3), 0) for j in (1, 2, 3, 4)),
)

# (form at precision p, index, slack, tau_mult, z_mult)
EVALUATED = (
    (lambda p: cat.theta(p) ** 8, 4, 0, 3, 2),
    (lambda p: cat.jacobi_eis(4, 2, p), 2, 0, 2, -1),
    (lambda p: cat.phi(3, p), 3, 3, 2, HALF),
    *((lambda p, j=j: cat.phi(j, p), j, j, 1, Fraction(1, 3)) for j in (1, 2, 3, 4)),
)

QUOTIENTS = (
    lambda p: cat.theta(p).ud(2).divide(cat.theta(p)),
    lambda p: (cat.theta(p) ** 8 * cat.phi(2, p)).divide(cat.phi(2, p)),
    lambda p: (cat.jacobi_eis_m1(4, p) * cat.theta(p) ** 2).divide(cat.theta(p) ** 2),
)

INVERSES = (
    lambda p: cat.theta_const(0, 0, p).inverse(),
    lambda p: cat.delta(p).inverse(),
    lambda p: cat.eta(p).inverse(),
)


@pytest.mark.parametrize("extra", [1, 3])
@pytest.mark.parametrize("target", [2, 5, 8])
def test_certified_windows_only_grow(target, extra):
    for build in PRODUCTS + QUOTIENTS + INVERSES:
        assert_extends(build(target), build(target + extra))
    for form, index, slack, lam, mu in SPECIALIZED:
        p = prec_for_specialize(target, index, lam, slack)
        lo = form(p).specialize(lam, mu)
        assert form(p).index == index
        assert_extends(lo, form(p + extra).specialize(lam, mu), target)
    for form, index, slack, tau_mult, z_mult in EVALUATED:
        p = prec_for_eval_linear(target, index, tau_mult, z_mult, slack)
        lo = form(p).eval_linear(tau_mult, z_mult)
        assert_extends(lo, form(p + extra).eval_linear(tau_mult, z_mult), target)


# the forms and the torsion points z = lam*tau + mu of the pull-back
# cross-check: every lam, mu in TORSION is inside the conductor cap
PULLBACK_FORMS = {
    "theta": cat.theta,
    "theta8": lambda p: cat.theta(p) ** 8,
    **{f"phi{j}": (lambda p, j=j: cat.phi(j, p)) for j in (1, 2, 3, 4)},
    "wp_theta2": cat.wp_theta2,
    **{f"E{k},{m}": (lambda p, k=k, m=m: cat.jacobi_eis(k, m, p)) for k, m in ((4, 1), (4, 4), (6, 3), (8, 2))},
}
TORSION = (Fraction(0), Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(3, 4))


def reference_pullback(f, c, d, mu, shift, phase0, scale, prec):
    """The pull-back along (tau, z) -> (c*tau, d*tau + mu), times
    q^shift e^(2 pi i phase0), summed term by term from `terms` as
    coeff * CycloElt.from_root_power below q^(prec/scale): (conductor,
    {q-index: nonzero CycloElt})."""
    hits = []
    for (t, r), v in f.terms.items():
        z = Fraction(r, f.zscale)
        e = (c * Fraction(t, f.qscale) + d * z + shift) * scale
        if e < prec:
            assert e.denominator == 1
            hits.append((int(e), (mu * z + phase0) % 1, v))
    k = math.lcm(*[a.denominator for _, a, _ in hits])
    out = {}
    for e, a, v in hits:
        elt = CycloElt.from_root_power(k, int(a * k), v)
        out[e] = out[e] + elt if e in out else elt
    return k, {e: x for e, x in out.items() if not x.is_zero()}


def rational_series(scale, prec, elts):
    return QSeries(scale, prec, {e: x.rational_value() for e, x in elts.items()})


@pytest.mark.parametrize("name", sorted(PULLBACK_FORMS))
def test_pullbacks_against_the_term_by_term_reference(name):
    # specialize (both results) and eval_linear share one integer pull-back
    # and one exit; each must equal the sum of CycloElt phases per term
    f = PULLBACK_FORMS[name](8)
    m = f.index
    for lam, mu in itertools.product(TORSION, repeat=2):
        cs = f.specialize(lam, mu, cyclotomic=True)
        k, ref = reference_pullback(f, 1, lam, mu, m * lam * lam, mu * m * lam, cs.qscale, cs.prec)
        assert cs.conductor == k and cs.terms == ref, (lam, mu)
        lowest = next((e for e in sorted(ref) if not ref[e].is_rational()), None)
        if lowest is None:
            assert f.specialize(lam, mu) == rational_series(cs.qscale, cs.prec, ref), (lam, mu)
        else:
            with pytest.raises(NonRationalResult) as err:
                f.specialize(lam, mu)
            assert err.value.exponent == Fraction(lowest, cs.qscale), (lam, mu)
            assert err.value.value == ref[lowest], (lam, mu)
    for c, d in itertools.product((1, 2, 3), TORSION):
        out = f.eval_linear(c, d)
        _, ref = reference_pullback(f, c, d, 0, 0, 0, out.qscale, out.prec)
        assert out == rational_series(out.qscale, out.prec, ref), (c, d)


def test_specialize_refuses_conductors_above_the_cap():
    # r/2 * 1/25 for odd r: the phases need the 50th roots of unity
    with pytest.raises(ValueError, match="^phase conductor 50 exceeds the supported cap 48$"):
        cat.theta(8).specialize(0, Fraction(1, 25))


# -- sums and the support cone on integer rows -----------------------------------------

def dict_merge_sum(x, y, sx, sy):
    """sx*x + sy*y as the sum was made before the row merge: the two term
    maps merged key by key in Fractions, through the public constructor,
    on the aligned scales and the smaller window, with x's type and the
    metadata rule of a sum."""
    if isinstance(y, (int, Fraction)):
        y = QSeries(x.qscale, x.prec, {0: y})
    if isinstance(x, FJExp) and isinstance(y, QSeries):
        y = FJExp.from_qseries(y)
    s, w = math.lcm(x.qscale, y.qscale), math.lcm(x.zscale, y.zscale)
    a, b = x.rescaled(s, w), y.rescaled(s, w)
    prec = min(a.prec, b.prec)
    a, b = a.truncated(Fraction(prec, s)), b.truncated(Fraction(prec, s))
    terms = {k: sx * c for k, c in a.terms.items()}
    for k, c in b.terms.items():
        terms[k] = terms.get(k, 0) + sy * c
    terms = {k: c for k, c in terms.items() if c}
    if isinstance(a, QSeries):
        return QSeries(s, prec, terms)
    index = a.index if a.index == b.index else None
    both = a.cone_slack is not None and b.cone_slack is not None and index is not None
    return FJExp(s, w, prec, terms, weight=a.weight if a.weight == b.weight else None,
                 index=index, cone_slack=max(a.cone_slack, b.cone_slack) if both else None)


def random_strided_fj(rng):
    """An FJExp on random scales whose terms sit on a random zeta-stride and
    offset, with negative q-exponents and mixed denominators."""
    qscale, zscale = rng.choice((1, 2, 8)), rng.choice((1, 2, 3))
    prec = rng.randrange(1, 3 * qscale)
    stride, off = rng.choice((1, 2, 3)), rng.randrange(3)
    terms = {(rng.randrange(-qscale, prec), off + stride * rng.randrange(-3, 4)):
             Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 6))) for _ in range(rng.randrange(0, 12))}
    return FJExp(qscale, zscale, prec, {k: c for k, c in terms.items() if c},
                 weight=rng.choice((None, 4)), index=rng.choice((None, 1, 2)),
                 cone_slack=rng.choice((None, 0, 1)))


def sum_grid():
    """(operands, signs, the sum) over random pairs of both types on
    different scales, strides and precisions; sums whose denominators cancel
    and that cancel whole rows and run ends; int and Fraction addends on
    either side; an FJExp and a lifted QSeries; and catalog forms."""
    rng = random.Random(2027)
    cases = []
    for _ in range(120):
        for draw in (random_laurent_qseries, random_strided_fj):
            x, y = draw(rng), draw(rng)
            cases += [(x, y, 1, 1, x + y), (x, y, 1, -1, x - y)]
            # x - y cancels every term common to both: whole rows and run ends
            z = draw(rng)
            xz, yz = x + z, y + z
            cases += [(xz, yz, 1, -1, xz - yz), (xz, z * Fraction(-1, 3), 1, 1, xz + z * Fraction(-1, 3))]
            # denominators that cancel: 1/6 + 5/6
            sixth = x * Fraction(1, 6)
            cases.append((sixth, x * Fraction(5, 6), 1, 1, sixth + x * Fraction(5, 6)))
            for c in (0, 3, Fraction(-1, 2)):
                cases += [(x, c, 1, 1, x + c), (x, c, 1, 1, c + x), (x, c, 1, -1, x - c), (x, c, -1, 1, c - x)]
        fj, qs = random_strided_fj(rng), random_laurent_qseries(rng)
        cases += [(fj, qs, 1, 1, fj + qs), (fj, qs, 1, 1, qs + fj),
                  (fj, qs, 1, -1, fj - qs), (fj, qs, -1, 1, qs - fj)]
    th8, e41, e44 = cat.theta(8) ** 8, cat.jacobi_eis(4, 1, 8).ud(2), cat.jacobi_eis(4, 4, 8)
    cases += [(e41, e44, 1, -1, e41 - e44), (th8, e41 - e44, 1, -1, th8 - (e41 - e44)),
              (cat.phi(1, 8), cat.phi(2, 8), 1, 1, cat.phi(1, 8) + cat.phi(2, 8)),
              (cat.eta(8), cat.eisenstein(4, 8), 1, -1, cat.eta(8) - cat.eisenstein(4, 8))]
    return cases


def test_sums_merge_rows_as_the_dict_merge():
    for x, y, sx, sy, got in sum_grid():
        ref = dict_merge_sum(x, y, sx, sy)
        assert type(got) is type(ref) and got.prec == ref.prec
        assert got.to_json_dict() == ref.to_json_dict(), (x, y, sx, sy)
        assert (got._den, got._rows, got._gt, got._gr) == (ref._den, ref._rows, ref._gt, ref._gr)
        if isinstance(got, FJExp):
            assert (got.weight, got.index, got.cone_slack) == (ref.weight, ref.index, ref.cone_slack)


def test_a_constant_needs_the_window_to_reach_q0():
    # a nonzero constant lies beyond a window that ends at or below q^0
    for x in (QSeries.one(-1), FJExp.one(0)):
        assert all(y.is_zero() and y.prec == x.prec for y in (x + 0, 0 - x))
        with pytest.raises(ValueError, match=f"^term at q\\^\\(0/1\\) at or beyond precision {x.prec}$"):
            x + Fraction(1, 2)


def test_sums_build_no_term_map():
    # the operands' terms are never read, and the sum's own is not built
    a, b = (FJExp.from_json_dict(f.to_json_dict()) for f in (cat.jacobi_eis(4, 1, 8).ud(2), cat.jacobi_eis(4, 4, 8)))
    total = a - b
    assert total.agrees_with(cat.theta(8) ** 8)
    assert a._map is b._map is total._map is None


def fraction_cone(f, index, slack, strict):
    """The terms ((t, r), coeff) of f outside |r/w| <= 2 sqrt(index t/s) +
    slack (on its edge too when strict), one Fraction test per term."""
    m, b = Fraction(index), Fraction(slack)
    out = []
    for (t, r), c in sorted(f.terms.items()):
        excess = max(abs(Fraction(r, f.zscale)) - b, 0)
        edge = 4 * Fraction(t, f.qscale) * m
        if excess * excess > edge or strict and excess * excess == edge:
            out.append(((t, r), c))
    return out


CONE_FORMS = {**PULLBACK_FORMS, **{f"eta{k}phi{j}": (lambda p, k=k, j=j: cat.eta(p) ** k * cat.phi(j, p))
                                   for k, j in ((12, 1), (6, 2), (4, 3), (3, 4), (24, 1))}}


@pytest.mark.parametrize("name", sorted(CONE_FORMS))
def test_cone_test_against_the_fraction_reference(name):
    from jacobiforms.identities import _cone_violation_pair
    f = CONE_FORMS[name](8)
    m = f.index
    # an out-of-cone term at q^1 zeta^(2m + 3), 2m an integer
    r = int(2 * m + 3) * f.zscale
    bad = f + FJExp(f.qscale, f.zscale, f.prec, {(f.qscale, r): 7},
                    weight=f.weight, index=m, cone_slack=f.cone_slack)
    for form in (f, bad):
        for slack in (0, HALF, m, Fraction(-1, 3)):
            for strict in (False, True):
                assert form._outside_cone(m, slack, strict) == fraction_cone(form, m, slack, strict), \
                    (slack, strict)
        for strict in (False, True):
            lhs, rhs = _cone_violation_pair(form, m, strict)
            assert lhs.terms == dict(fraction_cone(form, m, 0, strict)) and rhs.is_zero()
        assert form.cone_violations() == [((Fraction(t, f.qscale), Fraction(r, f.zscale)), c)
                                          for (t, r), c in fraction_cone(form, m, f.cone_slack or 0, False)]
    assert ((1, 2 * m + 3), 7) in bad.cone_violations()
    assert _cone_violation_pair(bad, m, False)[0].terms[f.qscale, r] == 7


def test_terms_below_q0_lie_outside_every_cone():
    # no zeta-power lies in |r/w| <= 2 sqrt(m t/s) + b at t < 0, whatever b
    f = FJExp(1, 1, 4, {(-1, 0): 1, (0, 1): 2, (1, 2): 3}, index=1, cone_slack=1)
    assert f.cone_violations() == [((-1, 0), 1)]
    assert f._outside_cone(1, 0) == [((-1, 0), 1), ((0, 1), 2)]
    assert f._outside_cone(1, 0, strict=True) == [((-1, 0), 1), ((0, 1), 2), ((1, 2), 3)]
