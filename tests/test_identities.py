"""The identity registry: spot checks, report mechanics, filters."""

import math
from fractions import Fraction

import pytest

from jacobiforms import catalog as cat
from jacobiforms import identities as ids
from jacobiforms.identities import Identity, IdentityReport, UnknownIdentityError, verify, verify_all
from jacobiforms.numtheory import cohen_h, sigma, sigma_rational, zeta_neg
from jacobiforms.representations import _sign
from jacobiforms.series import FJExp, QSeries


FAST_SPOT_CHECKS = [
    "T31-theta8", "T31-f4", "T31-wp8", "T31-f6",
    "L21-e10", "L21-delta", "C33-eta8", "S32-spec-e41", "S32-spec-e64",
    "S32-cohen-h3-even", "S32-t10-8", "S32-t01-8", "S32-eps2-level",
    "S41-eta-a", "S41-eta-b", "P42-diff", "P43-e63",
    "S42-phivals-relation", "S42-phivals-4-tau", "INTRO-r8", "INTRO-delta8",
    "H-hol-eta6phi1", "H-hol-eta2phi4",
]


@pytest.mark.parametrize("identity_id", FAST_SPOT_CHECKS)
def test_spot_checks_at_low_precision(identity_id):
    assert verify(identity_id, 4).passed


def test_precision_monotonicity():
    for identity_id in ("T31-theta8", "S32-t10-8", "P41-diff"):
        assert verify(identity_id, 6).passed
        for prec in (5, 3, 2, 1):
            assert verify(identity_id, prec).passed, (identity_id, prec)


def test_unknown_id():
    with pytest.raises(UnknownIdentityError):
        verify("NOPE-1", 4)


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        verify("T31-theta8", 0)
    with pytest.raises(ValueError):
        verify("T31-theta8", -3)


@pytest.mark.parametrize("identity_id", ["T31-theta8", "L21-tau"])
@pytest.mark.parametrize("prec", [2.5, 8.0, Fraction(8), True], ids=["2.5", "8.0", "Fraction(8)", "True"])
def test_verify_refuses_a_non_int_prec(identity_id, prec):
    with pytest.raises(ValueError) as err:
        verify(identity_id, prec)
    assert str(err.value) == f"verify needs an integer prec, got {prec!r}"


def test_registry_filters():
    assert ids.identity_ids("") == []
    p4 = ids.identity_ids("P4*")
    assert p4 and all(i.startswith("P4") for i in p4)
    assert set(p4) == {i for i in ids.REGISTRY if i.startswith("P4")}
    assert ids.identity_ids("T31-theta8") == ["T31-theta8"]
    assert verify_all(4, "ZZZ*") == []


@pytest.mark.parametrize("pattern", [5, None, b"P4*", ["P4*"]], ids=repr)
def test_registry_filters_need_a_str_pattern(pattern):
    # both failed inside fnmatch ("object of type 'int' has no len()")
    for fn, call in (("identity_ids", lambda: ids.identity_ids(pattern)),
                     ("verify_all", lambda: verify_all(4, pattern)),
                     ("verify_all", lambda: verify_all(pattern=pattern))):
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == f"{fn} needs a str pattern, got {pattern!r}"


def test_default_precisions():
    assert ids.REGISTRY["T31-theta8"].default_prec == 8
    assert ids.REGISTRY["T44-theta16"].default_prec == 6
    assert ids.REGISTRY["S43-theta24"].default_prec == 6


def test_failure_report_mechanics():
    bogus = Identity("TEST-bogus", "deliberately false",
                     lambda prec: (cat.eisenstein(4, prec), cat.eisenstein(6, prec)))
    ids.REGISTRY[bogus.id] = bogus
    try:
        report = verify("TEST-bogus", 4)
        assert not report.passed
        q, z, lhs, rhs = report.first_mismatch
        assert (q, z, lhs, rhs) == (1, None, 240, -504)
        js = report.to_json_dict()
        assert js["status"] == "fail"
        assert js["mismatch"]["lhs"] == "240" and js["mismatch"]["q_exponent"] == "1"
        assert "240 != -504" in str(report)
        # a false two-variable identity: theta^2 against theta^2 with one
        # coefficient moved, reported with its zeta-exponent
        def fj_sides(prec):
            sq = cat.theta(prec) ** 2
            bumped = dict(sq.terms)
            bumped[(2, 2)] += 1
            return sq, FJExp(sq.qscale, sq.zscale, sq.prec, bumped)
        ids.REGISTRY[bogus.id] = Identity(bogus.id, bogus.description, fj_sides)
        report = verify("TEST-bogus", 4)
        assert report.first_mismatch == (Fraction(1, 4), 1, 1, 2)
        assert report.to_json_dict()["mismatch"]["z_exponent"] == "1"
    finally:
        del ids.REGISTRY[bogus.id]


def test_pass_report_json():
    r = verify("INTRO-r8", 4)
    assert r.to_json_dict() == {"id": "INTRO-r8", "prec": 4, "status": "pass"}
    # the timings are carried but are not part of the result
    assert r.build_s > 0 and r.compare_s > 0
    assert r == IdentityReport("INTRO-r8", 4, "pass", None, r.build_s + 1, 0.0)


def test_torsion_pull_back_builds_at_the_least_certified_precision(clear_memos):
    # phi_{0,2}(tau, (tau+1)/2) below q^12 needs phi_{0,2} below q^19 and no
    # more, and phi_{0,2} is built from phi_{0,1} at the same precision
    clear_memos()
    assert verify("S42-phivals-2-tau", 12).passed
    assert cat.phi.cache_precisions() == {(1,): 19, (2,): 19}


def test_registry_descriptions_are_single_lines():
    for ident in ids.REGISTRY.values():
        assert "\n" not in ident.description
        assert ident.default_prec >= 1


def test_under_delivering_builder_trips():
    short = Identity("TEST-short", "builder returns too little precision",
                     lambda prec: (QSeries.one(1), QSeries.one(1)))
    ids.REGISTRY[short.id] = short
    try:
        with pytest.raises(RuntimeError):
            verify("TEST-short", 5)
    finally:
        del ids.REGISTRY[short.id]


def test_concurrent_verification(clear_memos):
    # constructors memoize behind a thread-safe precision memo that builds
    # outside its lock and keeps the higher build; verification is pure
    from concurrent.futures import ThreadPoolExecutor
    chosen = ["T31-theta8", "T31-wp8", "R31-a", "L21-e10", "S32-t10-8",
              "S32-eps2-eis", "P41-diff", "S42-phivals-relation",
              "INTRO-r8", "H-hol-eta6phi1", "C33-eta8", "S32-spec-e44"]
    jobs = [(i, prec) for i in chosen for prec in (4, 7, 5, 6)]
    clear_memos()
    with ThreadPoolExecutor(max_workers=8) as pool:
        reports = list(pool.map(lambda job: verify(*job), jobs))
    assert all(r.passed for r in reports)
    assert [(r.id, r.prec) for r in reports] == jobs
    clear_memos()
    assert reports == [verify(*job) for job in jobs]


# the identities whose sides are Cohen-number window sums over r or over cone
# points (representations.h_window_sum / cone_points), well above the default
# precision, where the windows are wide
WINDOW_SUM_IDS = [
    "C33-eta8-conv", "S32-t01-8-conv",
    "S32-cohen-h3-even", "S32-cohen-h3-odd", "S32-cohen-h5-even", "S32-cohen-h5-odd", "S32-cohen-h3-all",
    "S32-t10-8-delta", "S32-r8-odd", "P41-an", "P42-b-odd", "P42-b-even",
]


@pytest.mark.parametrize("identity_id", WINDOW_SUM_IDS)
def test_window_sum_identities_at_precision_32(identity_id):
    assert verify(identity_id, 32).passed


@pytest.mark.parametrize("prec", [1, 2, 3])
def test_every_identity_at_the_smallest_windows(prec):
    # a builder margin that is dropped but still needed shows up here first,
    # as verify's "builder delivered a window" error
    reports = verify_all(prec)
    assert len(reports) == len(ids.REGISTRY)
    assert [r.id for r in reports if not r.passed] == []


# the Cohen-number sums of P41-e82-series and P43-cn as hand loops over r and
# the divisors d of (n, r, 2) or (n, r, 3): the oracles of their h_window_sum forms

def e82_half_coeff_by_loops(n):
    z = Fraction(zeta_neg(-13))
    acc = Fraction(0)
    for r in range(-math.isqrt(8 * n), math.isqrt(8 * n) + 1):
        if r * r > 8 * n:
            continue
        inner = Fraction(0)
        for d in ((1,) if math.gcd(n, r, 2) == 1 else (1, 2)):
            inner += d**7 * Fraction(cohen_h(7, Fraction(8 * n - r * r, d * d))) / z
        acc += _sign(r) * inner / 129
    return acc


def p43_cn_coeff_by_loops(n):
    acc = Fraction(0)
    for r in range(-math.isqrt(12 * n), math.isqrt(12 * n) + 1):
        if r * r > 12 * n:
            continue
        w = Fraction(1) if r % 3 == 0 else Fraction(-1, 2)
        inner = Fraction(0)
        for d in ((1, 3) if (n % 3 == 0 and r % 3 == 0) else (1,)):
            inner += d**5 * Fraction(cohen_h(5, Fraction(12 * n - r * r, d * d)))
        acc += w * inner
    return (Fraction(61, 3168) * sigma(5, n) - Fraction(4941, 352) * sigma_rational(5, Fraction(n, 3))
            + Fraction(13, 864) * acc)


@pytest.mark.parametrize("window_sum, loops, first", [
    (ids._e82_half_coeff, e82_half_coeff_by_loops, 0),
    (ids._p43_cn_coeff, p43_cn_coeff_by_loops, 1),
], ids=["P41-e82-series", "P43-cn"])
def test_window_sum_coefficients_match_the_hand_loops(window_sum, loops, first):
    for n in range(first, 61):
        assert window_sum(n) == loops(n), n
