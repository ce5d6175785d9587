"""The verification surface: every machine check of the package, in order.

Each check is a zero-argument function returning (ok, detail), and CHECKS is
the ordered tuple of (name, check) pairs.  `run` times each check and yields
(name, ok, detail, elapsed seconds).  `jacobiforms selftest` prints one line
per check; the acceptance suite asserts each one.  The two therefore always
run the same checks.  Every comparison is exact.

The "constructor cross-checks" rebuild theta from the triple product, the
Euler product as a naive product, and Delta as eta^24, and compare them with
the catalog's one-route constructors.  The "lattice fixtures" check compares
the E8 Jacobi theta series, counted coordinate by coordinate, with a tally
over the enumerated E8 vectors.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from jacobiforms import catalog, identities, lattice, representations as reps
from jacobiforms.numtheory import cohen_h, cohen_h_via_l_values
from jacobiforms.series import FJExp, QSeries

THETA_CHECK_PREC = 28
EULER_CHECK_PREC = 51
LATTICE_CHECK_PREC = 4


def check_registry():
    reports = identities.verify_all()  # per-identity defaults: 8, and 6 for the index-12 heavyweights
    bad = [r.id for r in reports if not r.passed]
    return not bad, f"{len(reports)} identities" + (f"; failing: {bad}" if bad else "")


def check_printed_fixtures():
    if [catalog.jacobi_eis_m1(4, 4).coefficient(1, r) for r in range(3)] != [126, 56, 1]:
        return False, "weight-4 index-1 row"
    if [catalog.jacobi_eis(4, 4, 4).coefficient(1, r) for r in range(4)] != [56, 56, 28, 8]:
        return False, "weight-4 index-4 row"
    if catalog.jacobi_eis_m1(10, 3).coefficient(1, 1) != Fraction(-860776, 43867):
        return False, "weight-10 coefficient"
    if catalog.jacobi_eis_m1(12, 3).coefficient(1, 1) != Fraction(339848, 77683):
        return False, "weight-12 coefficient"
    diff = catalog.jacobi_eis_m1(12, 8).eval_z0() - catalog.eisenstein(12, 8)
    if not diff.agrees_with(Fraction(304819200, 53678953) * catalog.delta(8)):
        return False, "weight-12 restriction vs Delta"
    return True, "Eisenstein coefficient rows and the Delta proportionality"


def check_cohen_dual():
    for r in (1, 2, 3, 5, 7, 9, 11):
        for n in range(0, 201):
            if cohen_h(r, n) != cohen_h_via_l_values(r, n):
                return False, f"H({r},{n}) disagrees between definitions"
    return True, "r in {1,2,3,5,7,9,11}, N <= 200"


def _brute(kind, m, n, a=None):
    return reps.count_bruteforce(reps.CountQuery(kind, m, n, a=a))


def check_counts():
    for n in range(1, 41):
        if _brute("squares", 8, n) != reps.formula_r8(n):
            return False, f"r_8({n})"
        if _brute("triangular", 8, n) != reps.formula_delta8(n):
            return False, f"delta_8({n})"
    for a in range(1, 6):
        for n in range(0, 31):
            if reps.r_a8_formula(a, n) != _brute("figurate", 8, n, a):
                return False, f"R_{{{a},8}}({n})"
            if reps.r_a8odd_formula(a, n) != _brute("figurate_odd", 8, n, a):
                return False, f"R^odd_{{{a},8}}({n})"
    # sixteen variables: closed form = brute force = theta-constant 16th power
    t10_16 = (catalog.theta_const(1, 0, 26) ** 8) ** 2
    t00_16 = ((catalog.theta_const(0, 0, 24) ** 8) ** 2).substituted(2)
    for n in range(1, 22, 2):
        if not (reps.delta16(n) == _brute("triangular", 16, n)
                == Fraction(t10_16.coefficient(n + 2), 2**16)):
            return False, f"delta_16({n})"
        if not reps.r16(n) == _brute("squares", 16, n) == t00_16.coefficient(n):
            return False, f"r_16({n})"
    return True, "r8/delta8 to 40; figurate a<=5 to 30; 16-variable odd n <= 21 three ways"


def check_tau():
    if reps.tau(1) != 1 or reps.tau(2) != -24:
        return False, "tau(1) = 1, tau(2) = -24"
    for n in range(1, 51):
        routes = reps.tau_applicable_routes(n)
        if n % 2 and math.isqrt(n) ** 2 != n and not {"via_h3_closed", "via_h5_closed"} <= set(routes):
            return False, f"closed H(3)/H(5) routes not applicable at n = {n}"
        values = {route: reps.tau(n, route) for route in routes}
        if len(set(values.values())) != 1:
            return False, f"tau({n}) routes disagree: {values}"
        if not isinstance(values["direct"], int):
            return False, f"tau({n}) is not an integer"
    return True, "all routes, n <= 50"


def _e8_theta_by_enumeration(u, prec: int) -> dict:
    """The terms of the E8 Jacobi theta series on u below q^prec, tallied
    over the enumerated doubled vectors w = 2v as ((w,w)/8, (w,2u)/4)."""
    terms: dict = {}
    for w in lattice._e8_doubled_vectors(8 * prec - 8):
        key = (sum(x * x for x in w) // 8, sum(2 * a * b for a, b in zip(w, u)) // 4)
        terms[key] = terms.get(key, 0) + 1
    return terms


def check_lattice():
    if lattice.vector_counts("E7", 2).get(2) != 126:
        return False, "E7 root count"
    if lattice.vector_counts("A7", 2).get(2) != 56:
        return False, "A7 root count"
    if lattice.jacobi_theta_e8(lattice.U2, 6).mismatch(catalog.jacobi_eis_m1(4, 6)) is not None:
        return False, "Theta_{E8,u2} != E_{4,1}"
    if lattice.jacobi_theta_e8(lattice.U8, 6).mismatch(catalog.jacobi_eis(4, 4, 6)) is not None:
        return False, "Theta_{E8,u8} != E_{4,4}"
    p = LATTICE_CHECK_PREC
    for name, u in (("u2", lattice.U2), ("u8", lattice.U8)):
        if dict(lattice.jacobi_theta_e8(u, p).terms) != _e8_theta_by_enumeration(u, p):
            return False, f"Theta_{{E8,{name}}} at prec {p}: coordinate count != enumeration"
    return True, f"root counts, theta series fixtures, coordinate count vs enumeration at prec {p}"


def check_catalog():
    for k in (4, 6, 8, 10):
        for m in (1, 2, 3, 4):
            if catalog.jacobi_eis(k, m, 6).eval_z0().mismatch(catalog.eisenstein(k, 6)) is not None:
                return False, f"E_{{{k},{m}}}(tau,0) != E_{k}"
    e81 = catalog.jacobi_eis_m1(8, 6)
    if e81.mismatch(catalog.jacobi_eis_m1(4, 6) * catalog.eisenstein(4, 6)) is not None:
        return False, "E_{8,1} != E_4 E_{4,1}"
    for k, m in ((4, 1), (4, 2), (4, 3), (4, 4), (6, 1), (6, 2), (6, 4), (8, 1)):
        if any(not isinstance(c, int) for c in catalog.jacobi_eis(k, m, 8).terms.values()):
            return False, f"E_{{{k},{m}}} has non-integral coefficients"
    two_eta3 = 2 * (catalog.eta(8) ** 3)
    prod = (catalog.theta_const(0, 0, 8) * catalog.theta_const(0, 1, 8)
            * catalog.theta_const(1, 0, 8)).truncated(8)
    if two_eta3.truncated(8).mismatch(prod) is not None:
        return False, "2 eta^3 != theta_00 theta_01 theta_10"
    return True, "E_{k,m}(tau,0), E_{8,1} product, integrality, 2 eta^3"


def check_series_properties():
    rng = random.Random(424242)

    def rand_qs():
        return QSeries(1, 10, {rng.randrange(0, 10): Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                               for _ in range(rng.randrange(0, 7))})

    for _ in range(100):
        a, b, c = rand_qs(), rand_qs(), rand_qs()
        if not ((a + b) == (b + a) and (a * b) == (b * a)
                and (a * (b + c)) == (a * b + a * c)
                and ((a * b) * c).agrees_with(a * (b * c))):
            return False, "ring laws"
    th = catalog.theta(8)
    for num in (th.ud(2), th.ud(3), th * th * th):
        q = num.divide(th)
        if not (q * th).agrees_with(num.truncated((q * th).prec_exponent)):
            return False, "division round-trip"
    for form in (catalog.theta(10), catalog.jacobi_eis_m1(6, 8), catalog.jacobi_eis(4, 4, 6),
                 catalog.wp_theta2(8), catalog.phi(1, 8), catalog.phi(4, 8)):
        if form.cone_violations():
            return False, "support cone"
    return True, "ring laws, division round-trip, support cones"


def _theta_from_triple_product(prec: int) -> FJExp:
    """The odd theta series as -q^(1/8) zeta^(-1/2) prod_{n>=1} (1 - q^(n-1) zeta)
    (1 - q^n zeta^(-1)) (1 - q^n), expanded factor by factor."""
    big_p = 8 * prec
    acc = FJExp(8, 2, big_p, {(1, -1): -1}, weight=catalog.HALF, index=catalog.HALF, cone_slack=0)
    for n in range(1, prec + 1):
        for a, b in ((n - 1, 1), (n, -1), (n, 0)):
            if 8 * a < big_p:
                acc = acc * FJExp(8, 2, big_p, {(0, 0): 1, (8 * a, 2 * b): -1})
    return acc


def _euler_product_naive(prec: int) -> QSeries:
    """prod_{n>=1} (1 - q^n), multiplied out one factor at a time."""
    acc = QSeries(1, prec, {0: 1})
    for n in range(1, prec):
        acc = acc * QSeries(1, prec, {0: 1, n: -1})
    return acc


def check_constructors():
    p = THETA_CHECK_PREC
    if catalog.theta(p).mismatch(_theta_from_triple_product(p)) is not None:
        return False, f"theta({p}): Kronecker sum and triple product disagree"
    p = EULER_CHECK_PREC
    if catalog.euler_product(p) != _euler_product_naive(p):
        return False, f"euler_product({p}): pentagonal series and naive product disagree"
    if catalog.delta(p).mismatch((catalog.eta(p) ** 24).normalized()) is not None:
        return False, f"delta({p}) != eta^24"
    return True, (f"theta vs triple product at prec {THETA_CHECK_PREC}; Euler product vs naive "
                  f"product and Delta vs eta^24 at prec {EULER_CHECK_PREC}")


CHECKS = (
    ("identity registry", check_registry),
    ("printed fixtures", check_printed_fixtures),
    ("cohen dual definition", check_cohen_dual),
    ("counting oracles", check_counts),
    ("tau routes", check_tau),
    ("lattice fixtures", check_lattice),
    ("catalog invariants", check_catalog),
    ("series properties", check_series_properties),
    ("constructor cross-checks", check_constructors),
)


def run(checks=None):
    """Run the given (name, check) pairs, CHECKS by default, yielding
    (name, ok, detail, elapsed seconds) for each as it finishes.  A check
    that raises fails with "Type: message" as its detail."""
    for name, check in CHECKS if checks is None else checks:
        t0 = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        yield name, ok, detail, time.perf_counter() - t0
