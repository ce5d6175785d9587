"""Short-vector counts in E8, E7, A7 and the Jacobi theta series of E8.

E8 is D8 together with the coset D8 + (1/2, ..., 1/2) (Conway-Sloane, SPLAG,
ch. 4 sec. 7-8), and the theta series of D_n is (theta_00^n + theta_01^n)/2,
so the Jacobi theta series of E8 against an integer vector u is built from
the catalog's level-two theta series, the coordinates grouped by |u_i|:

    Theta_E8(tau, z*u) = 1/2 sum over (a, b) of prod_i theta_ab(tau, u_i*z).

theta_11 is odd in z and the other three are even, so an odd count of
negative u_i flips the sign of the (1, 1) product.

`vector_counts` reads every count off that series: E8 at z = 0, E7 as the
zeta^0 column on U2 (the orthogonal complement of a root) and A7 as the
zeta^0 column on U8 (the complement of a primitive vector of norm 8).  Root
counts of the complements (126 and 56) are asserted whenever a theta series
is built on a vector of norm 2 or a primitive vector of norm 8 - they
certify the choice of vectors against the series fixtures.  The explicit
enumeration of E8 vectors lives in `jacobiforms.checks`, as the oracle; the
tests keep a coordinate-by-coordinate count as the high-precision one.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul
from types import MappingProxyType

from jacobiforms import catalog
from jacobiforms.numtheory import as_rational, require_ints
from jacobiforms.series import FJExp, memo_by_prec, require_prec

U2 = (1, -1, 0, 0, 0, 0, 0, 0)
U8 = (2, 1, 1, 1, 1, 0, 0, 0)

LATTICES = ("E8", "E7", "A7")


def in_e8(v) -> bool:
    """Membership test for the D8-coset realization of E8."""
    v = tuple(as_rational(x) for x in v)
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


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry of 2
def vector_counts(lattice: str, max_norm: int) -> MappingProxyType:
    """Exact number of lattice vectors of each norm <= max_norm, read off the
    E8 theta series: E8 at z = 0, E7 and A7 in the zeta^0 columns on U2 and
    U8.  The map is read-only, since every caller shares the cached one."""
    require_ints("vector_counts", max_norm)
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    name = lattice.upper() if isinstance(lattice, str) else None
    if name not in LATTICES:
        raise ValueError(f"unknown lattice {lattice!r} (expected one of {LATTICES})")
    series = _jacobi_theta_e8_cached(U8 if name == "A7" else U2, max_norm // 2 + 1)
    if name == "E8":
        counts = {2 * t: c for t, c in series.eval_z0().terms.items()}
    else:
        counts = {2 * t: c for (t, r), c in series.terms.items() if r == 0}
    return MappingProxyType(counts)


@memo_by_prec
def _jacobi_theta_e8_cached(u: tuple, prec: int) -> FJExp:
    # the product formula of the module docstring
    sizes = Counter(abs(x) for x in u)
    odd = sum(x < 0 for x in u) % 2
    terms = []
    # theta_11 vanishes at z = 0, so a zero u_i kills the (1, 1) product
    for a, b in ((0, 0), (0, 1), (1, 0)) + (() if 0 in sizes else ((1, 1),)):
        term = reduce(mul, ((catalog.theta_ab(a, b, prec).ud(k) if k
                             else FJExp.from_qseries(catalog.theta_const(a, b, prec))) ** e
                            for k, e in sizes.items()))
        terms.append(-term if odd and (a, b) == (1, 1) else term)
    norm = sum(x * x for x in u)
    series = (reduce(add, terms) / 2).normalized().with_meta(
        weight=4, index=Fraction(norm, 2), cone_slack=0)
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
