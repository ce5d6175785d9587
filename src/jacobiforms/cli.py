"""Command-line front end.

Subcommands: cohen (Cohen numbers), expand (named-form q-expansions),
verify (identity registry), count (representation counts), tau
(discriminant-form coefficients by route), lattice (short-vector counts),
and selftest (the full identity registry plus every oracle cross-check).

Output is deterministic and byte-stable for fixed inputs: term lists are
sorted, rationals print canonically, and exact values are JSON strings.
Exit codes: 0 success / all pass, 1 verification failure, 2 unknown form or
identity, 3 precondition violation.  JF_DEFAULT_PREC overrides the default
precision where no --prec is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from jacobiforms import catalog, identities, lattice, representations
from jacobiforms.numtheory import cohen_h, cohen_h_via_l_values, parse_rational, rational_str
from jacobiforms.series import QSeries

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_PRECONDITION = 3


def _default_prec(fallback: int) -> int:
    env = os.environ.get("JF_DEFAULT_PREC")
    if env is None:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"JF_DEFAULT_PREC must be an integer, got {env!r}") from None


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _series_json(series) -> dict:
    return series.to_json_dict()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cohen(args) -> int:
    value = cohen_h(args.r, parse_rational(args.N))
    print(rational_str(value))
    return EXIT_OK


def _cmd_expand(args) -> int:
    prec = args.prec if args.prec is not None else _default_prec(8)
    series = catalog.form_by_name(args.form, prec)
    if args.json:
        _emit(_series_json(series))
    else:
        print(series)
    return EXIT_OK


def _cmd_verify(args) -> int:
    pattern = args.id
    prec = args.prec
    if prec is None and os.environ.get("JF_DEFAULT_PREC"):
        prec = _default_prec(0)
    if any(ch in pattern for ch in "*?["):
        ids = identities.identity_ids(pattern)
        if not ids:
            raise identities.UnknownIdentityError(f"no identity matches {pattern!r}")
    else:
        if pattern not in identities.REGISTRY:
            raise identities.UnknownIdentityError(pattern)
        ids = [pattern]
    reports = [identities.verify(i, prec) for i in ids]
    if args.json:
        _emit([r.to_json_dict() for r in reports])
    else:
        for r in reports:
            print(r)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _count_query(args) -> tuple:
    if args.what == "r8":
        value = representations.formula_r8(args.n)
        query = representations.CountQuery("squares", 8, args.n)
    elif args.what == "delta8":
        value = representations.formula_delta8(args.n)
        query = representations.CountQuery("triangular", 8, args.n)
    else:
        if args.a is None:
            raise ValueError("count figurate requires --a")
        if args.odd:
            value = representations.r_a8odd_formula(args.a, args.n)
            query = representations.CountQuery("figurate_odd", 8, args.n, a=args.a)
        else:
            value = representations.r_a8_formula(args.a, args.n)
            query = representations.CountQuery("figurate", 8, args.n, a=args.a)
    return value, query


def _cmd_count(args) -> int:
    value, query = _count_query(args)
    oracle = representations.count_bruteforce(query) if args.oracle else None
    if args.json:
        payload = {
            "query": {"what": args.what, "n": str(args.n),
                      **({"a": str(args.a)} if args.a is not None else {}),
                      **({"odd": True} if args.odd else {})},
            "value": str(value),
        }
        if oracle is not None:
            payload["oracle"] = str(oracle)
        _emit(payload)
    else:
        print(value)
        if oracle is not None:
            status = "agrees" if oracle == value else "DISAGREES"
            print(f"oracle: {oracle} ({status})")
    if oracle is not None and oracle != value:
        return EXIT_FAIL
    return EXIT_OK


def _cmd_tau(args) -> int:
    routes = [args.route] if args.route else representations.tau_applicable_routes(args.n)
    values = {route: representations.tau(args.n, route) for route in routes}
    first = values[routes[0]]
    if args.json:
        _emit({
            "query": {"n": str(args.n)},
            "value": rational_str(first),
            "routes": {route: rational_str(v) for route, v in values.items()},
        })
    else:
        print(rational_str(first))
    return EXIT_OK if len(set(values.values())) == 1 else EXIT_FAIL


def _cmd_lattice(args) -> int:
    counts = lattice.vector_counts(args.lattice, args.max_norm)
    _emit({str(norm): str(counts[norm]) for norm in sorted(counts)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest: registry plus every oracle cross-check
# ---------------------------------------------------------------------------

def _selftest_checks():
    import random

    def check_registry():
        reports = identities.verify_all()
        bad = [r for r in reports if not r.passed]
        return not bad, f"{len(reports)} identities" + (f"; failing: {[r.id for r in bad]}" if bad else "")

    def check_printed_fixtures():
        e41 = catalog.jacobi_eis_m1(4, 4)
        if [e41.coefficient(1, r) for r in range(3)] != [126, 56, 1]:
            return False, "weight-4 index-1 row"
        e44 = catalog.jacobi_eis(4, 4, 4)
        if [e44.coefficient(1, r) for r in range(4)] != [56, 56, 28, 8]:
            return False, "weight-4 index-4 row"
        if catalog.jacobi_eis_m1(10, 3).coefficient(1, 1) != Fraction(-860776, 43867):
            return False, "weight-10 coefficient"
        if catalog.jacobi_eis_m1(12, 3).coefficient(1, 1) != Fraction(339848, 77683):
            return False, "weight-12 coefficient"
        diff = catalog.jacobi_eis_m1(12, 8).eval_z0() - catalog.eisenstein(12, 8)
        if not diff.agrees_with(Fraction(304819200, 53678953) * catalog.delta(8)):
            return False, "weight-12 restriction vs Delta"
        return True, "Eisenstein coefficient rows and the Delta proportionality"

    def check_series_properties():
        rng = random.Random(8128)
        def rand_qs():
            return QSeries(1, 10, {rng.randrange(0, 10): Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                                   for _ in range(rng.randrange(0, 7))})
        for _ in range(60):
            a, b, c = rand_qs(), rand_qs(), rand_qs()
            if not ((a + b) == (b + a) and (a * b) == (b * a)
                    and (a * (b + c)) == (a * b + a * c)
                    and ((a * b) * c).agrees_with(a * (b * c))):
                return False, "ring laws"
        th = catalog.theta(8)
        for num in (th.ud(2), th.ud(3), th * th * th):
            q = num.divide(th)
            if not (q * th).agrees_with(num.q_truncated((q * th).prec_exponent)):
                return False, "division round-trip"
        for form in (catalog.theta(10), catalog.jacobi_eis(4, 4, 6), catalog.wp_theta2(8),
                     catalog.phi(1, 8), catalog.phi(4, 8)):
            if form.cone_violations():
                return False, "support cone"
        return True, "ring laws, division round-trip, support cones"

    def check_cohen_dual():
        for r in (1, 2, 3, 5, 7, 9, 11):
            for n in range(0, 201):
                if cohen_h(r, n) != cohen_h_via_l_values(r, n):
                    return False, f"H({r},{n}) disagrees between definitions"
        return True, "r in {1,2,3,5,7,9,11}, N <= 200"

    def check_counts():
        for n in range(1, 41):
            q = representations.CountQuery("squares", 8, n)
            if representations.count_bruteforce(q) != representations.formula_r8(n):
                return False, f"r_8({n})"
            q = representations.CountQuery("triangular", 8, n)
            if representations.count_bruteforce(q) != representations.formula_delta8(n):
                return False, f"delta_8({n})"
        for a in range(1, 6):
            for n in range(0, 31):
                if representations.r_a8_formula(a, n) != representations.count_bruteforce(
                        representations.CountQuery("figurate", 8, n, a=a)):
                    return False, f"R_{{{a},8}}({n})"
                if representations.r_a8odd_formula(a, n) != representations.count_bruteforce(
                        representations.CountQuery("figurate_odd", 8, n, a=a)):
                    return False, f"R^odd_{{{a},8}}({n})"
        for n in range(1, 22, 2):
            if representations.r16(n) != representations.count_bruteforce(
                    representations.CountQuery("squares", 16, n)):
                return False, f"r_16({n})"
            if representations.delta16(n) != representations.count_bruteforce(
                    representations.CountQuery("triangular", 16, n)):
                return False, f"delta_16({n})"
        return True, "r8/delta8 to 40; figurate a<=5 to 30; 16-variable odd n <= 21"

    def check_tau():
        for n in range(1, 51):
            vals = {representations.tau(n, route) for route in representations.tau_applicable_routes(n)}
            if len(vals) != 1 or not isinstance(next(iter(vals)), int):
                return False, f"tau({n}) routes disagree: {vals}"
        return True, "all routes, n <= 50"

    def check_lattice():
        if lattice.vector_counts("E7", 2).get(2) != 126:
            return False, "E7 root count"
        if lattice.vector_counts("A7", 2).get(2) != 56:
            return False, "A7 root count"
        u2 = lattice.jacobi_theta_e8(lattice.U2, 6)
        u8 = lattice.jacobi_theta_e8(lattice.U8, 6)
        if u2.mismatch(catalog.jacobi_eis_m1(4, 6)) is not None:
            return False, "Theta_{E8,u2} != E_{4,1}"
        if u8.mismatch(catalog.jacobi_eis(4, 4, 6)) is not None:
            return False, "Theta_{E8,u8} != E_{4,4}"
        return True, "root counts and theta series fixtures"

    def check_catalog():
        for k in (4, 6, 8, 10):
            for m in (1, 2, 3, 4):
                if catalog.jacobi_eis(k, m, 6).eval_z0().mismatch(catalog.eisenstein(k, 6)) is not None:
                    return False, f"E_{{{k},{m}}}(tau,0) != E_{k}"
        e81 = catalog.jacobi_eis_m1(8, 6)
        if e81.mismatch(catalog.jacobi_eis_m1(4, 6) * catalog.eisenstein(4, 6)) is not None:
            return False, "E_{8,1} != E_4 E_{4,1}"
        for k, m in ((4, 1), (4, 2), (4, 3), (4, 4), (6, 1), (6, 2), (6, 4), (8, 1)):
            e = catalog.jacobi_eis(k, m, 8)
            if any(not isinstance(c, int) for c in e.terms.values()):
                return False, f"E_{{{k},{m}}} has non-integral coefficients"
        two_eta3 = 2 * (catalog.eta(8) ** 3)
        prod = (catalog.theta_const(0, 0, 8) * catalog.theta_const(0, 1, 8)
                * catalog.theta_const(1, 0, 8)).truncated(8)
        if two_eta3.truncated(8).mismatch(prod) is not None:
            return False, "2 eta^3 != theta_00 theta_01 theta_10"
        return True, "E_{k,m}(tau,0), E_{8,1} product, integrality, 2 eta^3"

    return [
        ("identity registry", check_registry),
        ("printed fixtures", check_printed_fixtures),
        ("cohen dual definition", check_cohen_dual),
        ("counting oracles", check_counts),
        ("tau routes", check_tau),
        ("lattice fixtures", check_lattice),
        ("catalog invariants", check_catalog),
        ("series properties", check_series_properties),
    ]


def _cmd_selftest(args) -> int:
    ok_all = True
    for name, check in _selftest_checks():
        ok, detail = check()
        ok_all &= ok
        print(f"{name}: {'pass' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if ok_all else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobiforms",
        description="Exact Jacobi-form expansions, Cohen numbers and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohen", help="Cohen number H(r, N)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", required=True, help="non-negative rational, e.g. 3 or 9/4")
    p.set_defaults(fn=_cmd_cohen)

    p = sub.add_parser("expand", help="q-expansion of a named form")
    p.add_argument("--form", required=True,
                   help="one of: " + ", ".join(catalog.FORM_NAMES))
    p.add_argument("--prec", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("verify", help="verify identities from the registry")
    p.add_argument("--id", required=True, help="identity id or glob, e.g. T31-theta8 or 'P4*'")
    p.add_argument("--prec", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("count", help="representation counts")
    p.add_argument("what", choices=("r8", "delta8", "figurate"))
    p.add_argument("--a", type=int)
    p.add_argument("--odd", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("tau", help="coefficients of the weight-12 discriminant form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--route", choices=representations.TAU_ROUTES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("lattice", help="short-vector counts by norm (JSON)")
    p.add_argument("lattice", choices=lattice.LATTICES)
    p.add_argument("--max-norm", type=int, required=True)
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("selftest", help="identity registry plus all oracle cross-checks")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (catalog.UnknownFormError, identities.UnknownIdentityError) as exc:
        print(f"error: unknown name: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
