"""Catalog constructors against printed expansions and classical relations."""

import math
import re
from fractions import Fraction

import pytest

from jacobiforms import catalog as cat
from jacobiforms import lattice
from jacobiforms.catalog import UnknownFormError
from jacobiforms.numtheory import cohen_h, factorize, mobius, zeta_neg
from jacobiforms.series import FJExp, QSeries

from conftest import PREC_MEMOS

HALF = Fraction(1, 2)


def test_theta_lowest_terms():
    th = cat.theta(4)
    assert th.q_slice(Fraction(1, 8)) == {HALF: 1, -HALF: -1}
    assert th.q_slice(Fraction(9, 8)) == {Fraction(3, 2): -1, Fraction(-3, 2): 1}
    assert th.weight == HALF and th.index == HALF
    assert th.eval_z0().is_zero()


def test_theta_ab_series():
    t00 = cat.theta_ab(0, 0, 6)
    assert t00.coefficient(0, 0) == 1
    assert t00.q_slice(HALF) == {Fraction(1): 1, Fraction(-1): 1}
    t01 = cat.theta_const(0, 1, 6)
    assert [t01.coefficient(e) for e in (0, HALF, 2, Fraction(9, 2))] == [1, -2, 2, -2]
    t10 = cat.theta_const(1, 0, 6)
    assert t10.coefficient(Fraction(1, 8)) == 2
    assert t10.coefficient(Fraction(9, 8)) == 2
    assert cat.theta_ab(1, 1, 5) == cat.theta(5)
    with pytest.raises(UnknownFormError):
        cat.theta_ab(1, 2, 5)


def test_returned_series_are_immutable():
    th, d = cat.theta(4), cat.delta(4)
    key = next(iter(th.terms))
    before = th.terms[key]
    with pytest.raises(TypeError):
        th.terms[key] = 12345
    with pytest.raises(TypeError):
        d.terms[0] = 1
    with pytest.raises(AttributeError):
        th.qprec = 8
    with pytest.raises(AttributeError):
        d.prec = 99
    assert cat.theta(4).terms[key] == before
    assert cat.theta(4).prec_exponent == 4
    assert cat.delta(4).coefficient(0) == 0 and cat.delta(5).prec_exponent == 5


# (memo, arguments before the precision, highest precision built)
SERVED_CASES = [
    *((cat.theta_ab, ab, 8) for ab in ((0, 0), (0, 1), (1, 0), (1, 1))),
    *((cat.theta_const, ab, 8) for ab in ((0, 0), (0, 1), (1, 0), (1, 1))),
    (cat.theta, (), 8), (cat.euler_product, (), 8), (cat.eta, (), 8), (cat.delta, (), 8),
    (cat.eisenstein, (4,), 8), (cat.g2, (), 8), (cat.eps2, (), 8),
    (cat.jacobi_eis_m1, (4,), 8), (cat.jacobi_eis, (4, 4), 8), (cat.jacobi_eis, (6, 3), 8),
    *((cat.phi, (j,), 8) for j in (1, 2, 3, 4)),
    (cat.wp_theta2, (), 8),
    (lattice._jacobi_theta_e8_cached, (lattice.U2,), 6),
    (lattice._jacobi_theta_e8_cached, (lattice.U8,), 6),
]


def _fingerprint(series):
    return (series.to_json_dict(), getattr(series, "weight", None),
            getattr(series, "index", None), getattr(series, "cone_slack", None))


def test_served_build_equals_fresh_build(clear_memos):
    assert {memo for memo, _, _ in SERVED_CASES} == set(PREC_MEMOS)
    scales = set()
    for memo, args, top in SERVED_CASES:
        fresh = {}
        for p in range(1, top + 1):
            clear_memos()
            fresh[p] = _fingerprint(memo(*args, p))
        # the memo now keeps the build at top; every lower precision is cut
        # from it once, and each request after gets that same object
        build = memo(*args, top)
        scales.add(build.qscale)
        for p in range(1, top + 1):
            hits, misses = memo.cache_info()[:2]
            cut = memo(*args, p)
            assert memo(*args, p) is cut, (memo.__name__, args, p)
            assert memo.cache_info()[:2] == (hits + 2, misses), (memo.__name__, args, p)
            assert _fingerprint(cut) == fresh[p], (memo.__name__, args, p)
            old_route = build.truncated(build.prec_exponent - (top - p))
            assert _fingerprint(cut) == _fingerprint(old_route), (memo.__name__, args, p)
    assert {2, 8, 24} <= scales  # theta constants, theta, eta and wp*theta^2
    cat.theta(8)
    cat.theta_ab(0, 0, 8)
    with pytest.raises(ValueError, match="theta needs prec >= 1"):
        cat.theta(0)
    with pytest.raises(ValueError, match="theta00 needs prec >= 1"):
        cat.theta_ab(0, 0, 0)


# (memo, arguments, the precision a request for 6 builds at above a kept 5):
# a one-variable series doubles past the kept top, an FJExp builds exactly
@pytest.mark.parametrize("memo, args, grown", [(cat.theta, (), 6), (cat.eta, (), 10), (cat.phi, (1,), 6),
                                               (lattice._jacobi_theta_e8_cached, (lattice.U2,), 6)],
                         ids=["theta", "eta", "phi", "e8"])
def test_a_higher_build_drops_the_served_cuts(clear_memos, memo, args, grown):
    clear_memos()
    memo(*args, 5)
    old = memo(*args, 3)
    assert memo(*args, 3) is old
    memo(*args, 6)  # kept in place of the build at 5, whose cuts go with it
    assert memo.cache_precisions()[args] == grown
    new = memo(*args, 3)
    assert new is not old and _fingerprint(new) == _fingerprint(old) and memo(*args, 3) is new
    memo.cache_clear()
    assert memo.cache_info() == (0, 0, None, 0) and memo.cache_precisions() == {}
    memo(*args, 6)
    again = memo(*args, 3)
    assert again is not new and _fingerprint(again) == _fingerprint(new)
    assert memo.cache_info() == (1, 1, None, 1)


def test_a_one_variable_build_doubles_and_an_fjexp_builds_what_is_asked(clear_memos):
    clear_memos()
    cat.phi(1, 12)
    cat.phi(1, 19)
    assert cat.phi.cache_precisions()[(1,)] == 19
    cat.delta(12)
    served = cat.delta(13)
    assert cat.delta.cache_precisions() == {(): 24}
    assert served.prec_exponent == 13 and served == cat.delta(24).truncated(13)
    assert cat.delta(13) is served and cat.delta.cache_info().misses == 2
    cat.delta.cache_clear()
    for n in range(200):  # asked for n + 1, built at 1, 2, 4, ..., 256
        cat.delta(n + 1)
    assert cat.delta.cache_info().misses == 9 and cat.delta.cache_precisions() == {(): 256}


@pytest.mark.parametrize("prec", [0, 2.5], ids=["zero", "float"])
def test_a_refused_precision_leaves_the_kept_top(clear_memos, prec):
    clear_memos()
    cat.eta(5)
    for _ in range(2):
        with pytest.raises(ValueError, match="^eta needs"):
            cat.eta(prec)
    assert cat.eta.cache_precisions() == {(): 5}
    assert cat.eta.cache_info()[:2] == (0, 3)


NON_INT_PREC_FORMS = {
    "theta": cat.theta,
    "theta00": lambda p: cat.theta_ab(0, 0, p),
    "eta": cat.eta,
    "jacobi_eis": lambda p: cat.jacobi_eis(4, 1, p),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(NON_INT_PREC_FORMS))
@pytest.mark.parametrize("prec", [2.5, Fraction(5, 2), True], ids=["float", "fraction", "bool"])
def test_non_integer_precision_fails_cold_and_warm(clear_memos, name, warm, prec):
    # the memo must not cut a non-integer request from a kept build either
    build = NON_INT_PREC_FORMS[name]
    clear_memos()
    if warm:
        build(3)
    with pytest.raises(ValueError, match=re.escape(f"{name} needs an integer prec, got {prec!r}")):
        build(prec)


# (constructor, its int form arguments, precision)
NON_INT_ARG_FORMS = {
    "theta_ab": (cat.theta_ab, (0, 0), 4),
    "theta_const": (cat.theta_const, (1, 0), 4),
    "eisenstein": (cat.eisenstein, (4,), 8),
    "jacobi_eis": (cat.jacobi_eis, (4, 4), 4),
    "jacobi_eis_m1": (cat.jacobi_eis_m1, (4,), 4),
    "phi": (cat.phi, (1,), 4),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(NON_INT_ARG_FORMS))
@pytest.mark.parametrize("kind", [float, Fraction, bool], ids=["float", "fraction", "bool"])
def test_non_integer_form_argument_fails_cold_and_warm(clear_memos, name, warm, kind):
    # the memo must neither answer an equal int's build nor keep one under it
    build, args, prec = NON_INT_ARG_FORMS[name]
    clear_memos()
    if warm:
        build(*args, prec)
    bad = (kind(args[0]),) + args[1:]
    with pytest.raises(TypeError, match=f"^{name} expects integers, got {re.escape(repr(bad[0]))}$"):
        build(*bad, prec)
    assert all(type(x) is int for key in build.cache_precisions() for x in key)


def test_memos_expose_lru_cache_counters(clear_memos):
    # found the way the benchmark tracer finds them, which reads the misses
    # of theta, phi, jacobi_eis and jacobi_eis_m1
    memos = {name: obj for name, obj in vars(cat).items()
             if hasattr(obj, "cache_info") and obj.__module__ == cat.__name__}
    assert {"theta", "phi", "jacobi_eis", "jacobi_eis_m1"} <= set(memos)
    clear_memos()
    for memo in memos.values():
        info = memo.cache_info()
        assert info._fields == ("hits", "misses", "maxsize", "currsize")
        assert tuple(info) == (0, 0, None, 0), memo.__name__
    cat.theta(3), cat.theta(2), cat.theta(5), cat.theta(4)
    assert tuple(cat.theta.cache_info()) == (2, 2, None, 1)
    cat.phi(2, 3)  # built from phi(1, 3), which it memoizes too
    assert cat.theta.cache_precisions() == {(): 5}
    assert cat.phi.cache_precisions() == {(1,): 3, (2,): 3}
    cat.theta.cache_clear()
    assert tuple(cat.theta.cache_info()) == (0, 0, None, 0)
    assert cat.theta.cache_precisions() == {}


def test_eta_delta():
    eta = cat.eta(8)
    assert eta.coefficient(Fraction(1, 24)) == 1
    assert eta.coefficient(Fraction(25, 24)) == -1
    d = cat.delta(8)
    assert [d.coefficient(n) for n in range(1, 8)] == [1, -24, 252, -1472, 4830, -6048, -16744]
    assert (cat.eta(8) ** 24).normalized().agrees_with(d)


def test_eisenstein_series():
    e4 = cat.eisenstein(4, 6)
    assert [e4.coefficient(n) for n in range(4)] == [1, 240, 2160, 6720]
    e6 = cat.eisenstein(6, 4)
    assert [e6.coefficient(n) for n in range(3)] == [1, -504, -16632]
    assert [cat.eps2(4).coefficient(n) for n in range(4)] == [1, 24, 24, 96]
    assert cat.g2(4).coefficient(0) == Fraction(-1, 24)
    assert cat.g2(4).coefficient(3) == 4
    with pytest.raises(ValueError):
        cat.eisenstein(5, 4)


def test_jacobi_eisenstein_m1_printed_rows():
    e41 = cat.jacobi_eis_m1(4, 4)
    assert (e41.coefficient(1, 0), e41.coefficient(1, 1), e41.coefficient(1, 2)) == (126, 56, 1)
    assert e41.coefficient(0, 0) == 1
    e61 = cat.jacobi_eis_m1(6, 3)
    assert (e61.coefficient(1, 0), e61.coefficient(1, 1), e61.coefficient(1, 2)) == (-330, -88, 1)
    e101 = cat.jacobi_eis_m1(10, 3)
    assert e101.coefficient(1, 1) == Fraction(-860776, 43867)
    assert e101.coefficient(1, 0) == Fraction(-9947070, 43867)
    e121 = cat.jacobi_eis_m1(12, 3)
    assert e121.coefficient(1, 1) == Fraction(339848, 77683)
    assert e121.coefficient(1, 0) == Fraction(6971898, 77683)


def test_jacobi_eisenstein_e44_row_and_closed_route():
    e44 = cat.jacobi_eis(4, 4, 6)
    assert [e44.coefficient(1, r) for r in range(4)] == [56, 56, 28, 8]
    # the direct index-4 route: (E_{4,1}|V_4 - E_{4,1}(tau,2z)) / 72
    e41 = cat.jacobi_eis_m1(4, 24)
    closed = (e41.vl(4) - e41.truncated(6).ud(2)) * Fraction(1, 72)
    assert e44.agrees_with(closed)


def eis_by_operators(k, m, prec):
    """The oracle: E_{k,m} through the index-raising operators,

        E_{k,m} = m^(1-k) prod_{p|m} (1 + p^(1-k))^(-1)
                  * sum_{d^2|m} mu(d) (E_{k,1} | U_d V_{m/d^2}),

    from the whole index-1 series E_{k,1} at precision m * prec, whose
    coefficients are H(k-1, 4n - r^2) / zeta(3 - 2k)."""
    z = Fraction(zeta_neg(3 - 2 * k))
    base = {}
    for n in range(m * prec):
        rmax = math.isqrt(4 * n)
        for r in range(-rmax, rmax + 1):
            base[(n, r)] = Fraction(cohen_h(k - 1, 4 * n - r * r)) / z
    base = FJExp(1, 1, m * prec, base, weight=k, index=1, cone_slack=0)
    acc = None
    for d in range(1, math.isqrt(m) + 1):
        if m % (d * d) or mobius(d) == 0:
            continue
        piece = base.ud(d).vl(m // (d * d), k) * mobius(d)
        acc = piece if acc is None else acc + piece
    pref = Fraction(1, m ** (k - 1))
    for p, _ in factorize(m):
        pref *= Fraction(p ** (k - 1), p ** (k - 1) + 1)
    return (acc * pref).truncated(prec).with_meta(weight=k, index=m, cone_slack=0)


def test_jacobi_eis_against_operator_route(clear_memos):
    # m = 4, 8, 9, 12 are the indices with a square divisor d > 1, and
    # 16, 18, 25 those with d = 4, 3, 5: the build evaluates one value per
    # class (4nm - r^2, +-r mod 2m), the operator route every (n, r)
    clear_memos()
    cases = [(m, p) for m in range(1, 13) for p in (1, 3, 8)] + [(m, p) for m in (16, 18, 25) for p in (1, 4)]
    for k in (4, 6, 8, 10, 12):
        for m, p in cases:
            new, old = cat.jacobi_eis(k, m, p), eis_by_operators(k, m, p)
            assert dict(new.terms) == dict(old.terms), (k, m, p)
            assert _fingerprint(new) == _fingerprint(old), (k, m, p)
            assert (new.qscale, new.zscale, new.prec) == (old.qscale, old.zscale, old.prec)
        assert _fingerprint(cat.jacobi_eis_m1(k, 8)) == _fingerprint(eis_by_operators(k, 1, 8))


def test_jacobi_eis_builds_no_index_one_base(clear_memos):
    clear_memos()
    cat.jacobi_eis(4, 12, 6)
    assert cat.jacobi_eis.cache_info().misses == 1
    assert cat.jacobi_eis_m1.cache_info().misses == 0


def test_jacobi_eis_m1_is_served_by_jacobi_eis(clear_memos):
    # one build of E_{k,1} per precision, whichever constructor asks first
    clear_memos()
    e41 = cat.jacobi_eis_m1(4, 8)
    assert cat.jacobi_eis.cache_info()[:2] == (0, 1)
    assert cat.jacobi_eis(4, 1, 8) == e41
    assert cat.jacobi_eis.cache_info()[:2] == (1, 1)


def test_jacobi_eis_checks_its_weight():
    for k in (5, 2, 0):
        with pytest.raises(ValueError, match=f"jacobi_eis needs even k >= 4, got {k}"):
            cat.jacobi_eis(k, 4, 3)
        with pytest.raises(ValueError, match=f"jacobi_eis_m1 needs even k >= 4, got {k}"):
            cat.jacobi_eis_m1(k, 3)
    with pytest.raises(ValueError, match="jacobi_eis needs m >= 1"):
        cat.jacobi_eis(4, 0, 3)
    with pytest.raises(ValueError, match="jacobi_eis needs prec >= 1"):
        cat.jacobi_eis(4, 2, 0)


def test_ekm_restriction_is_ek():
    # the catalog's self-check precision: 12 q-units
    for k in (4, 6, 8, 10):
        for m in (1, 2, 3, 4):
            assert cat.jacobi_eis(k, m, 12).eval_z0().agrees_with(cat.eisenstein(k, 12)), (k, m)


def test_e81_is_e4_e41():
    lhs = cat.jacobi_eis_m1(8, 6)
    assert lhs.agrees_with(cat.jacobi_eis_m1(4, 6) * cat.eisenstein(4, 6))


def test_integrality_of_listed_series():
    for k, m in ((4, 1), (4, 2), (4, 3), (4, 4), (6, 1), (6, 2), (6, 4), (8, 1)):
        e = cat.jacobi_eis(k, m, 8)
        assert all(isinstance(c, int) for c in e.terms.values()), (k, m)


def test_phi_q0_rows():
    assert cat.phi(1, 4).q_slice(0) == {Fraction(1): 1, Fraction(0): 10, Fraction(-1): 1}
    assert cat.phi(2, 4).q_slice(0) == {Fraction(1): 1, Fraction(0): 4, Fraction(-1): 1}
    assert cat.phi(3, 4).q_slice(0) == {Fraction(1): 1, Fraction(0): 2, Fraction(-1): 1}
    assert cat.phi(4, 4).q_slice(0) == {Fraction(1): 1, Fraction(0): 1, Fraction(-1): 1}
    with pytest.raises(UnknownFormError):
        cat.phi(5, 4)


def phi_by_theta_constants(j, prec):
    """phi_{0,1} (j = 1) or phi_{0,2} (j = 2) from the squared quotients
    xi_ab^2 = (theta_ab(tau, z) / theta_ab(tau))^2 of the three even level-two
    theta series: 4 (xi_00^2 + xi_01^2 + xi_10^2) and
    2 (xi_00^2 xi_01^2 + xi_00^2 xi_10^2 + xi_10^2 xi_01^2), at prec + 1."""
    work = prec + 1
    x00, x01, x10 = ((cat.theta_ab(a, b, work) * cat.theta_const(a, b, work).inverse()) ** 2
                     for a, b in ((0, 0), (0, 1), (1, 0)))
    result = 4 * (x00 + x01 + x10) if j == 1 else 2 * (x00 * x01 + x00 * x10 + x10 * x01)
    return result.truncated(prec).normalized().with_meta(weight=0, index=j, cone_slack=j)


@pytest.mark.parametrize("j", [1, 2])
def test_phi_from_theta_equals_the_theta_constant_route(clear_memos, j):
    for prec in [*range(1, 25), 48]:
        clear_memos()
        assert _fingerprint(cat.phi(j, prec)) == _fingerprint(phi_by_theta_constants(j, prec)), prec


def test_phi_relation():
    p1, p2, p3, p4 = (cat.phi(j, 6) for j in (1, 2, 3, 4))
    assert (4 * p4).agrees_with(p1 * p3 - p2 * p2)


def test_wp_theta2():
    wp = cat.wp_theta2(6)
    assert wp.weight == 3 and wp.index == 1
    # 12 wp theta^2 * theta^6 realizes the weight-6 index-4 difference
    lhs = (12 * wp) * (cat.theta(7) ** 6)
    rhs = cat.jacobi_eis_m1(6, 6).ud(2) - cat.jacobi_eis(6, 4, 6)
    assert lhs.agrees_with(rhs)
    # z = 1/2 value against eps_2 theta_10^2 / 6 (the wp(tau,1/2) = -eps_2/6 fact)
    s = wp.specialize(0, HALF)
    rhs2 = (cat.eps2(6) * cat.theta_const(1, 0, 6) ** 2) * Fraction(1, 6)
    assert s.agrees_with(rhs2.truncated(s.prec_exponent))


def test_classical_eta_theta_relations():
    two_eta3 = 2 * cat.eta(8) ** 3
    prod = cat.theta_const(0, 0, 8) * cat.theta_const(0, 1, 8) * cat.theta_const(1, 0, 8)
    assert two_eta3.agrees_with(prod)
    lhs = cat.eta(8) ** 12 * cat.theta_const(1, 0, 8) ** 4
    rhs = 16 * (cat.eta(8) ** 8 * (cat.eta(8) ** 8).substituted(2))
    assert lhs.agrees_with(rhs.truncated(lhs.prec_exponent))
    lhs = cat.eta(8) ** 6 * cat.theta_const(1, 0, 8) ** 6
    rhs = 64 * (cat.eta(8) ** 12).substituted(2)
    assert lhs.agrees_with(rhs.truncated(lhs.prec_exponent))


def test_theta_specialization_normalizations():
    # |theta(tau, 1/2)| = theta_10 via the conductor-4 route
    cs = cat.theta(8).specialize(0, HALF, cyclotomic=True)
    t10 = cs.times_root(-1, 4).to_qseries()
    assert t10.agrees_with(cat.theta_const(1, 0, 8).truncated(t10.prec_exponent))
    # theta^8 at z = tau/2 equals theta_01^8 after the prefactor
    s = (cat.theta(12) ** 8).specialize(HALF, 0)
    t018 = cat.theta_const(0, 1, 8) ** 8
    assert s.agrees_with(t018.truncated(s.prec_exponent))


def test_form_by_name():
    assert cat.form_by_name("theta", 4) == cat.theta(4)
    assert cat.form_by_name("jacobi_eis:4,4", 5) == cat.jacobi_eis(4, 4, 5)
    assert cat.form_by_name("phi:3", 4) == cat.phi(3, 4)
    assert cat.form_by_name("ek:6", 5) == cat.eisenstein(6, 5)
    assert cat.form_by_name("theta_const:1,0", 5) == cat.theta_const(1, 0, 5)
    assert cat.form_by_name("eps2", 5) == cat.eps2(5)
    for bad in ("nope", "phi:9", "jacobi_eis:4", "theta:1", "ek:seven"):
        with pytest.raises(UnknownFormError):
            cat.form_by_name(bad, 4)
    # each table entry reaches its constructor with its fixed arguments
    for two_a, two_b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert cat.form_by_name(f"theta{two_a}{two_b}", 4) is cat.theta_ab(two_a, two_b, 4)
    for name in ("eta", "delta", "g2", "wp_theta2"):
        assert cat.form_by_name(name, 4) is getattr(cat, name)(4)


@pytest.mark.parametrize("name", [None, 5, b"theta", ("theta",)], ids=repr)
def test_form_by_name_needs_a_str(name):
    # None and 5 failed with "'NoneType' object has no attribute 'partition'"
    with pytest.raises(TypeError) as err:
        cat.form_by_name(name, 4)
    assert str(err.value) == f"form_by_name needs a str name, got {name!r}"
