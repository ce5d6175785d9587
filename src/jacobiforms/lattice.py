"""Short-vector counts in E8, E7, A7 and the Jacobi theta series of E8.

E8 is realized as D8 together with the coset D8 + (1/2, ..., 1/2) (Conway-
Sloane, SPLAG, ch. 4 sec. 8.1), in doubled coordinates: w = 2v, all
coordinates of equal parity, coordinate sum = 0 mod 4.  The Jacobi theta
series is counted coordinate by coordinate, once per parity class: the
state (norm so far, dot product with 2u so far, coordinate sum mod 4) maps
to its multiplicity, so vectors with equal data are never told apart.  The
explicit enumeration with norm pruning serves `vector_counts` and the tests.
E7 is the orthogonal complement in E8 of a fixed root U2, A7 the sum-zero
hyperplane of Z^8.  Root counts of the complements (126 and 56) are asserted
whenever a theta series is built on a vector of norm 2 or a primitive vector
of norm 8 - they certify the choice of vectors against the series fixtures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from jacobiforms.series import FJExp, memo_by_prec, require_prec

U2 = (1, -1, 0, 0, 0, 0, 0, 0)
U8 = (2, 1, 1, 1, 1, 0, 0, 0)

LATTICES = ("E8", "E7", "A7")


def in_e8(v) -> bool:
    """Membership test for the D8-coset realization of E8."""
    v = tuple(Fraction(x) for x in v)
    if len(v) != 8:
        return False
    doubled = [2 * x for x in v]
    if any(d.denominator != 1 for d in doubled):
        return False
    d = [int(x) for x in doubled]
    parities = {x % 2 for x in d}
    if len(parities) != 1:
        return False
    return sum(d) % 4 == 0


def is_primitive_e8(v) -> bool:
    """True when v is in E8 but v/2 is not."""
    return in_e8(v) and not in_e8(tuple(Fraction(x) / 2 for x in v))


def _e8_doubled_vectors(max_doubled_norm: int, constraint=None):
    """All doubled E8 vectors u (= 2v) with sum(u_i^2) <= max_doubled_norm.

    `constraint` is an optional integer 8-vector c; only u with u . c = 0
    are kept.  Depth-first search over the two parity classes with
    squared-norm pruning.
    """
    out = []
    c = constraint

    def go(parity, i, budget, total, dot, prefix):
        if i == 8:
            if total % 4 == 0 and (c is None or dot == 0):
                out.append(tuple(prefix))
            return
        top = isqrt(budget)
        x = -top
        if (x - parity) % 2:
            x += 1
        while x <= top:
            go(parity, i + 1, budget - x * x, total + x,
               dot + (x * c[i] if c is not None else 0), prefix + [x])
            x += 2

    go(0, 0, max_doubled_norm, 0, 0, [])
    go(1, 0, max_doubled_norm, 0, 0, [])
    return out


def _a7_vectors(max_norm: int):
    """Integer 8-vectors with coordinate sum 0 and norm <= max_norm."""
    out = []

    def go(i, budget, total, prefix):
        if i == 8:
            if total == 0:
                out.append(tuple(prefix))
            return
        remaining = 8 - i
        top = isqrt(budget)
        for x in range(-top, top + 1):
            nb = budget - x * x
            nt = total + x
            # Cauchy-Schwarz: the remaining coordinates must absorb -nt
            if nt * nt > nb * (remaining - 1) and remaining > 1:
                continue
            if remaining == 1 and nt != 0:
                continue
            go(i + 1, nb, nt, prefix + [x])

    go(0, max_norm, 0, [])
    return out


@lru_cache(maxsize=None)
def vector_counts(lattice: str, max_norm: int) -> dict:
    """Exact number of lattice vectors of each norm <= max_norm."""
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    name = lattice.upper()
    counts: dict = {}
    if name == "A7":
        for v in _a7_vectors(max_norm):
            n = sum(x * x for x in v)
            counts[n] = counts.get(n, 0) + 1
    elif name in ("E8", "E7"):
        constraint = U2 if name == "E7" else None
        for u in _e8_doubled_vectors(4 * max_norm, constraint):
            n = sum(x * x for x in u) // 4
            counts[n] = counts.get(n, 0) + 1
    else:
        raise ValueError(f"unknown lattice {lattice!r} (expected one of {LATTICES})")
    return counts


@memo_by_prec
def _jacobi_theta_e8_cached(u: tuple, prec: int) -> FJExp:
    doubled_u = [2 * x for x in u]
    max_doubled = 8 * prec - 8  # (v,v) < 2*prec, norms are even
    top = isqrt(max_doubled)
    terms: dict = {}
    for parity in (0, 1):
        xs = [x for x in range(-top, top + 1) if (x - parity) % 2 == 0]
        # (w.w, w.(2u), coordinate sum mod 4) of the coordinates so far -> count
        states = {(0, 0, 0): 1}
        for c in doubled_u:
            grown: dict = {}
            for (n, d, s), count in states.items():
                for x in xs:
                    nx = n + x * x
                    if nx <= max_doubled:
                        key = (nx, d + x * c, (s + x) % 4)
                        grown[key] = grown.get(key, 0) + count
            states = grown
        for (n, d, s), count in states.items():
            if s == 0:
                key = (n // 8, d // 4)  # ((v,v)/2, (v,u))
                terms[key] = terms.get(key, 0) + count
    norm = sum(x * x for x in u)
    series = FJExp(1, 1, prec, terms, weight=4, index=Fraction(norm, 2), cone_slack=0)
    # root-count certificates for the two configurations the package relies on
    if norm == 2 and prec >= 2:
        if series.coefficient(1, 0) != 126:
            raise RuntimeError("norm-2 certificate failed: complement has != 126 roots")
    if norm == 8 and prec >= 2 and is_primitive_e8(u):
        if series.coefficient(1, 0) != 56:
            raise RuntimeError("norm-8 certificate failed: complement has != 56 roots")
    return series


def jacobi_theta_e8(u, prec: int) -> FJExp:
    """Jacobi theta series of E8 against the vector u:
    sum over v in E8 of q^((v,v)/2) zeta^((v,u)); weight 4, index (u,u)/2."""
    require_prec("jacobi_theta_e8", prec)
    u = tuple(u)
    if any(not isinstance(x, int) for x in u):
        raise ValueError("u must be an integer vector (half-integer vectors: double a lattice basis instead)")
    if not in_e8(u):
        raise ValueError(f"{u} is not an E8 vector")
    return _jacobi_theta_e8_cached(u, prec)
