"""Command-line front end.

Subcommands: cohen (Cohen numbers), expand (named-form q-expansions),
verify (identity registry, by an id or a glob: one that matches nothing
is an unknown name), count (representation counts: r8, delta8, r16,
delta16, figurate), tau (discriminant-form coefficients by route),
lattice (short-vector counts), and selftest (every check in
jacobiforms.checks, one timed line each).

Output is deterministic and byte-stable for fixed inputs: term lists are
sorted, rationals print canonically, and exact values are JSON strings.
Exit codes: 0 success / all pass, 1 verification failure or an internal
check that raised (one "error: Type: message" line on stderr), 2 unknown form
or identity, 3 precondition violation.  JF_DEFAULT_PREC overrides the default
precision of expand and verify where no --prec is given; an empty value
means unset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from jacobiforms import catalog, identities, lattice, representations
from jacobiforms.numtheory import cohen_h, parse_rational, rational_str
from jacobiforms.series import InexactDivision, NonRationalResult

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_PRECONDITION = 3


def _default_prec(fallback):
    """JF_DEFAULT_PREC as an int, or `fallback` when it is unset or empty."""
    env = os.environ.get("JF_DEFAULT_PREC")
    if not env:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"JF_DEFAULT_PREC must be an integer, got {env!r}") from None


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


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
        _emit(series.to_json_dict())
    else:
        print(series)
    return EXIT_OK


def _cmd_verify(args) -> int:
    pattern = args.id
    prec = args.prec if args.prec is not None else _default_prec(None)
    ids = identities.identity_ids(pattern)
    if not ids:
        raise identities.UnknownIdentityError(f"no identity matches {pattern!r}")
    reports = [identities.verify(i, prec) for i in ids]
    if args.json:
        _emit([{**r.to_json_dict(), "build_s": r.build_s, "compare_s": r.compare_s} for r in reports])
    else:
        for r in reports:
            print(r)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


# counts without a figurate parameter: what -> (closed formula, kind, summands)
_PLAIN_COUNTS = {
    "r8": (representations.formula_r8, "squares", 8),
    "delta8": (representations.formula_delta8, "triangular", 8),
    "r16": (representations.r16, "squares", 16),
    "delta16": (representations.delta16, "triangular", 16),
}


def _count_query(args) -> tuple:
    if args.what in _PLAIN_COUNTS:
        if args.a is not None or args.odd:
            raise ValueError(f"count {args.what} takes no --a or --odd")
        formula, kind, m = _PLAIN_COUNTS[args.what]
        query = representations.CountQuery(kind, m, args.n)
        return formula(args.n), query
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


def _cmd_selftest(args) -> int:
    from jacobiforms import checks
    ok_all = True
    for name, ok, detail, elapsed in checks.run():
        ok_all &= ok
        print(f"{name}: {'pass' if ok else 'FAIL'} in {elapsed:.2f}s ({detail})", flush=True)
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
    p.add_argument("what", choices=(*_PLAIN_COUNTS, "figurate"))
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

    p = sub.add_parser("selftest", help="run every verification check, timed")
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
    except (RuntimeError, InexactDivision, NonRationalResult) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
