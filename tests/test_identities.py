"""The identity registry: spot checks, report mechanics, filters."""

from fractions import Fraction

import pytest

from jacobiforms import catalog as cat
from jacobiforms import identities as ids
from jacobiforms.identities import Identity, IdentityReport, UnknownIdentityError, verify, verify_all
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


def test_registry_filters():
    assert ids.identity_ids("") == []
    p4 = ids.identity_ids("P4*")
    assert p4 and all(i.startswith("P4") for i in p4)
    assert set(p4) == {i for i in ids.REGISTRY if i.startswith("P4")}
    assert ids.identity_ids("T31-theta8") == ["T31-theta8"]
    assert verify_all(4, "ZZZ*") == []


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
