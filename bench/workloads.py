"""The benchmark's workloads: fixed request lists with an exact oracle.

A workload is a list of requests run one after another by a single
closed-loop client.  Each request returns the checks it made, as
(label, passed) pairs, and a canonical, JSON-serializable output; the
outputs of a pass are hashed into one digest.  An exception inside a
request counts as one failed check and the pass goes on.

- `registry-p12`: every registry identity once, at precision 12 (entries
  whose default precision is 6 stay at 6).  The only user of `lattice` and
  `identities`.
- `coeff-window`: tau(n) by every applicable route, and the eight- and
  sixteen-variable counting formulas against brute-force counts, over a
  window of n.  The only user of brute-force counting; it bypasses `series`
  and `lattice`.
- `session`: a seeded stream of expression requests at precisions 6..16,
  mixing catalog lookups with products, powers, quotients and
  specializations.  The only workload that asks for the same forms again at
  other precisions, so catalog caches are read as well as written.

Every module attribute is looked up at call time (`identities.verify`, not a
name imported from it), so the tracer's rebinding reaches these calls.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from jacobiforms import catalog, identities, representations
from reference import SpeedSampler, work_clock

WORKLOADS = ("registry-p12", "coeff-window", "session")
SCALES = ("full", "tiny")

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# registry-p12
# ---------------------------------------------------------------------------

REGISTRY_PREC = 12
TINY_IDENTITIES = ("T31-theta8", "L32-e8-u2", "INTRO-r8", "S42-phivals-2-half", "P42-b-odd")


def _registry_requests(scale: str) -> list:
    ids = list(identities.REGISTRY) if scale == "full" else list(TINY_IDENTITIES)
    requests = []
    for ident_id in ids:
        default = identities.REGISTRY[ident_id].default_prec
        if scale == "full":
            prec = REGISTRY_PREC if default >= 8 else default
        else:
            prec = 4

        def run(ident_id=ident_id, prec=prec):
            report = identities.verify(ident_id, prec)
            return [(f"{ident_id}@{prec}", report.passed)], report.to_json_dict()

        requests.append((f"verify:{ident_id}", run))
    return requests


# ---------------------------------------------------------------------------
# coeff-window
# ---------------------------------------------------------------------------

# n windows: (tau, eight-variable counts, figurate parameters a, sixteen-variable odd n)
COEFF_WINDOWS = {
    "full": (range(1, 17), range(1, 49), range(1, 6), range(1, 34, 2)),
    "tiny": (range(1, 6), range(1, 11), range(1, 3), range(1, 6, 2)),
}


def _tau_request(n: int):
    def run():
        values = {route: representations.tau(n, route)
                  for route in representations.tau_applicable_routes(n)}
        ints = all(type(v) is int for v in values.values())
        agree = len(set(values.values())) == 1
        return [(f"tau({n})", ints and agree)], [n, {k: str(v) for k, v in values.items()}]
    return run


def _count_request(n: int, figurate_a, sixteen: bool):
    def run():
        rep = representations
        rows = [
            ("r8", rep.formula_r8(n), rep.CountQuery("squares", 8, n)),
            ("delta8", rep.formula_delta8(n), rep.CountQuery("triangular", 8, n)),
        ]
        rows += [(f"R_{a},8", rep.r_a8_formula(a, n), rep.CountQuery("figurate", 8, n, a=a))
                 for a in figurate_a]
        if sixteen:
            rows += [
                ("r16", rep.r16(n), rep.CountQuery("squares", 16, n)),
                ("delta16", rep.delta16(n), rep.CountQuery("triangular", 16, n)),
            ]
        checks, out = [], []
        for name, value, query in rows:
            count = rep.count_bruteforce(query)
            checks.append((f"{name}({n})", value == count))
            out.append([name, str(value), count])
        return checks, [n, out]
    return run


def _coeff_requests(scale: str) -> list:
    tau_ns, count_ns, figurate_a, sixteen_ns = COEFF_WINDOWS[scale]
    requests = [(f"tau:{n}", _tau_request(n)) for n in tau_ns]
    requests += [(f"count:{n}", _count_request(n, figurate_a, n in sixteen_ns)) for n in count_ns]
    return requests


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

def _get(name: str, prec: int):
    return catalog.form_by_name(name, prec)


# expression name -> builder at precision p.  Every builder's output at
# precision p agrees with its output at p' > p on the smaller window.
SESSION_EXPRESSIONS = {
    "theta^8": lambda p: _get("theta", p) ** 8,
    "phi:1*phi:2": lambda p: _get("phi:1", p) * _get("phi:2", p),
    "phi:3*phi:4": lambda p: _get("phi:3", p) * _get("phi:4", p),
    "E41*E61": lambda p: _get("jacobi_eis:4,1", p) * _get("jacobi_eis:6,1", p),
    "E42^2": lambda p: _get("jacobi_eis:4,2", p) ** 2,
    "wp_theta2*theta^6": lambda p: _get("wp_theta2", p) * _get("theta", p) ** 6,
    "theta(2z)/theta": lambda p: _get("theta", p).ud(2).divide(_get("theta", p)),
    "E44(tau,1/2)": lambda p: _get("jacobi_eis:4,4", p).specialize(0, HALF),
    "phi:1(tau,1/2)": lambda p: _get("phi:1", p).specialize(0, HALF),
    "eta^24": lambda p: _get("eta", p) ** 24,
    "E4*E6": lambda p: _get("ek:4", p) * _get("ek:6", p),
    "E4/E6": lambda p: _get("ek:4", p) / _get("ek:6", p),
    "theta00^8*theta01^8": lambda p: _get("theta_const:0,0", p) ** 8 * _get("theta_const:0,1", p) ** 8,
}

# precisions dealt per expression, and copies of each (expression, precision)
SESSION_DECK = {
    "full": (tuple(range(6, 17, 2)), 3),
    "tiny": ((3, 4), 2),
}

# sha256 of the canonical outputs of the full deck (independent of the seed,
# which only orders the deck)
SESSION_DIGEST = "c18624d5975ef026c218e003b7c855198f18127596456b581cfd36cb30413d87"


def session_deck(seed: int, scale: str) -> list:
    """The seed's request order: every expression at every deck precision,
    each repeated, shuffled by the seed."""
    precs, copies = SESSION_DECK[scale]
    deck = [(expr, p, c) for expr in SESSION_EXPRESSIONS for p in precs for c in range(copies)]
    random.Random(seed).shuffle(deck)
    return deck


def _session_requests(seed: int, scale: str, results: dict) -> list:
    requests = []
    for expr, prec, copy in session_deck(seed, scale):
        def run(expr=expr, prec=prec, copy=copy):
            value = SESSION_EXPRESSIONS[expr](prec)
            results[(expr, prec, copy)] = value
            return [(f"{expr}@{prec}#{copy}", value.prec_exponent > 0)], None
        requests.append((f"{expr}@{prec}", run))
    return requests


def _session_cross_checks(scale: str, results: dict) -> tuple:
    """Agreement across precisions and copies; returns (checks, outputs)."""
    precs, copies = SESSION_DECK[scale]
    checks, outputs = [], []
    for expr in SESSION_EXPRESSIONS:
        previous = None
        for p in precs:
            runs = [results.get((expr, p, c)) for c in range(copies)]
            if any(r is None for r in runs):
                checks.append((f"{expr}@{p} answered", False))
                previous = None
                continue
            canon = runs[0].to_json_dict()
            checks.append((f"{expr}@{p} repeats", all(r.to_json_dict() == canon for r in runs[1:])))
            if previous is not None:
                checks.append((f"{expr}@{p} agrees below", previous.mismatch(runs[0]) is None))
            previous = runs[0]
            outputs.append([expr, p, canon])
    return checks, outputs


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def _digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(out, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_pass(workload: str, seed: int, scale: str = "full") -> dict:
    """Run one pass of a workload and check every answer.

    Returns wall_s (the requests and the final cross-checks), the request
    latencies and the time of the final cross-checks in ms,
    attempted/failed checks with the labels of the failures, and the digest
    of the canonical outputs.  A `SpeedSampler` times the reference
    computation every few hundredths of a second from a signal handler (so
    this runs in the main thread); its time is kept out of every figure, and
    norm_s is wall_s rescaled to the reference speed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (expected one of {SCALES})")
    session_results: dict = {}
    if workload == "registry-p12":
        requests = _registry_requests(scale)
    elif workload == "coeff-window":
        requests = _coeff_requests(scale)
    else:
        requests = _session_requests(seed, scale, session_results)

    sampler = SpeedSampler()
    checks, outputs, latencies = [], [], []
    clock = work_clock
    sampler.start()
    try:
        t0 = clock()
        for label, run in requests:
            start = clock()
            try:
                made, output = run()
            except Exception as exc:  # one failed request; the session goes on
                made, output = [(label, False)], f"{label}: {type(exc).__name__}: {exc}"
            latencies.append((clock() - start) * 1000.0)
            checks += made
            if output is not None:
                outputs.append(output)
        answered = clock()
        if workload == "session":
            made, outputs = _session_cross_checks(scale, session_results)
            checks += made
            digest = _digest(outputs)
            if scale == "full":
                checks.append(("session digest", digest == SESSION_DIGEST))
        else:
            digest = _digest(outputs)
        end = clock()
    finally:
        sampler.stop()
    failed = [label for label, ok in checks if not ok]
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "wall_s": end - t0,
        "latencies_ms": latencies,
        "certify_ms": (end - answered) * 1000.0,
        "attempted": len(checks),
        "failed": len(failed),
        "failures": failed[:20],
        "digest": digest,
        "norm_s": sampler.normalized_s(),
        "reference_ms": [round(ref * 1000.0, 4) for _, _, ref in sampler.samples],
    }
    return result
