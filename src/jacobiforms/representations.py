"""Representation counts and closed-form coefficient formulas.

The two Fourier-coefficient families of the eighth theta power and of its
wp-product,

    f4(n, r) = -511/2 H(3, (16n - r^2)/4) + 7/2 sum_{d | (n,r,4)} d^3 H(3, (16n - r^2)/d^2)
    f6(n, r) = -1057/8 H(5, (16n - r^2)/4) + 1/8 sum_{d | (n,r,4)} d^5 H(5, (16n - r^2)/d^2)

(value 1 on the boundary 16n = r^2 with n odd, 0 with n even), drive the
counting formulas: representations of n by eight figurate numbers, the
classical r_8 / delta_8 divisor sums, the 16-variable analogues, and eight
exact routes to the tau coefficients of the discriminant form.

Brute-force counting builds exact sum tables by nested enumeration with
pruning; tuples of more than four summands are split in half and meet in the
middle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from jacobiforms.numtheory import Rat, as_rational, cohen_h, divisors, sigma, zeta_neg

FACT8 = math.factorial(8)
FACT10 = math.factorial(10)
FACT6 = math.factorial(6)


def _sign(r: int) -> int:
    """(-1)^r as an exact int for any integer r (negative included)."""
    return -1 if r & 1 else 1


# ---------------------------------------------------------------------------
# coefficient formulas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def f4_coeff(n: int, r: int) -> Rat:
    """Fourier coefficient of the eighth power of the triple product at
    q^n zeta^r, from Cohen numbers (0 outside the cone 16n >= r^2)."""
    disc = 16 * n - r * r
    if disc < 0 or n < 0:
        return 0
    if disc == 0:
        return 1 if n % 2 else 0
    acc = Fraction(-511, 2) * Fraction(cohen_h(3, Fraction(disc, 4)))
    for d in divisors(math.gcd(n, r, 4)):
        acc += Fraction(7, 2) * d**3 * Fraction(cohen_h(3, Fraction(disc, d * d)))
    return as_rational(acc)


@lru_cache(maxsize=None)
def f6_coeff(n: int, r: int) -> Rat:
    """Fourier coefficient of 12*wp*theta^8 at q^n zeta^r, from H(5, .)."""
    disc = 16 * n - r * r
    if disc < 0 or n < 0:
        return 0
    if disc == 0:
        return 1 if n % 2 else 0
    acc = Fraction(-1057, 8) * Fraction(cohen_h(5, Fraction(disc, 4)))
    for d in divisors(math.gcd(n, r, 4)):
        acc += Fraction(1, 8) * d**5 * Fraction(cohen_h(5, Fraction(disc, d * d)))
    return as_rational(acc)


# ---------------------------------------------------------------------------
# figurate numbers and brute-force counting
# ---------------------------------------------------------------------------

def figurate(a: int, x: int) -> int:
    """The figurate value f_a(x) = (a x^2 + (a-2) x) / 2 (triangular at a=1,
    squares at a=2); x ranges over all integers."""
    return (a * x * x + (a - 2) * x) // 2


@dataclass(frozen=True)
class CountQuery:
    """How many m-tuples of values of the given kind sum to n.

    kinds: "squares" and "figurate" / "figurate_odd" (parameter a) range over
    all integers x; "triangular" counts non-negative x only (the delta_k
    convention).  "figurate_odd" restricts to odd x.
    """

    kind: str
    m: int
    n: int
    a: Optional[int] = None

    def __post_init__(self):
        if self.m < 1 or self.n < 0:
            raise ValueError("need m >= 1 and n >= 0")
        if self.kind in ("figurate", "figurate_odd"):
            if self.a is None or self.a < 1:
                raise ValueError("figurate kinds need a >= 1")
        elif self.kind not in ("squares", "triangular"):
            raise ValueError(f"unknown kind {self.kind!r}")


def _value_multiplicities(query: CountQuery) -> tuple:
    """Distinct attainable values <= n with the number of x producing each."""
    n = query.n
    vals: dict = {}
    if query.kind == "squares":
        x = 0
        while x * x <= n:
            vals[x * x] = 1 if x == 0 else 2
            x += 1
    elif query.kind == "triangular":
        x = 0
        while x * (x + 1) // 2 <= n:
            vals[x * (x + 1) // 2] = vals.get(x * (x + 1) // 2, 0) + 1
            x += 1
    else:
        a = query.a
        step = 2 if query.kind == "figurate_odd" else 1
        start = 1 if query.kind == "figurate_odd" else 0
        x = start
        while True:
            v = figurate(a, x)
            if v > n and x > 0:
                break
            if 0 <= v <= n:
                vals[v] = vals.get(v, 0) + 1
            x += step
        x = start - step if query.kind == "figurate_odd" else -1
        while True:
            v = figurate(a, x)
            if v > n and x < 0:
                break
            if 0 <= v <= n:
                vals[v] = vals.get(v, 0) + 1
            x -= step
    return tuple(sorted(vals.items()))


def _sum_table(values: tuple, k: int, cap: int) -> dict:
    """Map s -> number of k-tuples of values summing to s <= cap."""
    if k <= 4:
        table: dict = {}

        def go(i: int, slots: int, acc: int, weight: int):
            if slots == 0:
                table[acc] = table.get(acc, 0) + weight
                return
            if i == len(values):
                return
            v, mult = values[i]
            if v > 0 and acc + v * slots > cap:
                top = min(slots, (cap - acc) // v)
            else:
                top = slots
            for count in range(top + 1):
                go(i + 1, slots - count, acc + v * count,
                   weight * math.comb(slots, count) * mult**count)

        go(0, k, 0, 1)
        return table
    half = k // 2
    t1 = _sum_table(values, half, cap)
    t2 = t1 if k - half == half else _sum_table(values, k - half, cap)
    out: dict = {}
    for s1, c1 in t1.items():
        for s2, c2 in t2.items():
            s = s1 + s2
            if s <= cap:
                out[s] = out.get(s, 0) + c1 * c2
    return out


def count_bruteforce(query: CountQuery) -> int:
    """Exact representation count by enumeration.

    Up to four summands, pruned enumeration over the distinct values builds
    the table of exact sums directly; longer tuples are split in half and the
    two halves' sum tables are convolved up to n (meet in the middle)."""
    values = _value_multiplicities(query)
    return _sum_table(values, query.m, query.n).get(query.n, 0)


# ---------------------------------------------------------------------------
# the classical eight-variable divisor-sum formulas
# ---------------------------------------------------------------------------

def formula_r8(n: int) -> int:
    """Eight squares: r_8(n) = 16 sum_{d|n} (-1)^(n+d) d^3 for n >= 1."""
    if n < 1:
        raise ValueError("formula_r8 expects n >= 1")
    return 16 * sum((-1) ** (n + d) * d**3 for d in divisors(n))


def formula_delta8(n: int) -> int:
    """Eight triangular numbers: delta_8(n) = sum of d^3 over divisors d of
    n+1 with (n+1)/d odd, for n >= 0."""
    if n < 0:
        raise ValueError("formula_delta8 expects n >= 0")
    return sum(d**3 for d in divisors(n + 1) if ((n + 1) // d) % 2)


# ---------------------------------------------------------------------------
# eight figurate summands: general and parity-case formulas
# ---------------------------------------------------------------------------

def _r8_general(a: int, n: int) -> Rat:
    """sum over a*m + r*(a-1) + 3a - 4 = n, 16m >= r^2 of (-1)^r f4(m, r)."""
    target = n - 3 * a + 4
    acc = Fraction(0)
    # a*(r^2/16) + r*(a-1) <= target bounds the r window
    disc = 256 * (a - 1) ** 2 + 64 * a * target
    if disc < 0:
        return 0
    top = math.isqrt(disc)
    r_lo = (-16 * (a - 1) - top) // (2 * a) - 2
    r_hi = (-16 * (a - 1) + top) // (2 * a) + 2
    for r in range(r_lo, r_hi + 1):
        num = target - r * (a - 1)
        if num < 0 or num % a:
            continue
        m = num // a
        if 16 * m >= r * r:
            acc += _sign(r) * Fraction(f4_coeff(m, r))
    return as_rational(acc)


def _r8_case_even_a_odd_n(a: int, n: int) -> Rat:
    acc = Fraction(0)
    target = n - 3 * a + 4
    disc = 256 * (a - 1) ** 2 + 64 * a * target
    if disc < 0:
        return 0
    top = math.isqrt(disc)
    for r in range((-16 * (a - 1) - top) // (2 * a) - 2, (-16 * (a - 1) + top) // (2 * a) + 3):
        if r % 2 == 0:
            continue
        num = target - r * (a - 1)
        if num < 0 or num % a:
            continue
        m = num // a
        if 16 * m > r * r:
            acc += Fraction(cohen_h(3, 16 * m - r * r))
    return as_rational(Fraction(-7, 2) * acc)


def _r8_case_odd_a_even_n(a: int, n: int) -> Rat:
    target = n - 3 * a + 4
    acc = Fraction(0)
    disc = 256 * (a - 1) ** 2 + 64 * a * target
    if disc >= 0:
        top = math.isqrt(disc)
        for r in range((-16 * (a - 1) - top) // (2 * a) - 2, (-16 * (a - 1) + top) // (2 * a) + 3):
            num = target - r * (a - 1)
            if num < 0 or num % a:
                continue
            m = num // a
            if m % 2 and 16 * m > r * r:
                acc += _sign(r) * Fraction(7, 2) * Fraction(cohen_h(3, 16 * m - r * r))
    # second sum: a*m + 2*s*(a-1) + 3a - 4 = n, 4m > s^2, m odd
    disc2 = 64 * (a - 1) ** 2 + 16 * a * target
    if disc2 >= 0:
        top2 = math.isqrt(disc2)
        for s in range((-8 * (a - 1) - top2) // (2 * a) - 2, (-8 * (a - 1) + top2) // (2 * a) + 3):
            num = target - 2 * s * (a - 1)
            if num < 0 or num % a:
                continue
            m = num // a
            if m % 2 and 4 * m > s * s:
                acc -= Fraction(511, 2) * Fraction(cohen_h(3, 4 * m - s * s))
    # boundary representations 16m = r^2: r = 4t, m = t^2
    bound = math.isqrt(max(target, 0) // a + 4 * (a - 1) ** 2 + 4) + 2
    for t in range(-bound, bound + 1):
        if a * t * t + 4 * t * (a - 1) == target:
            acc += 1
    return as_rational(acc)


def r_a8_formula(a: int, n: int) -> int:
    """Representations of n by eight a-figurate numbers (all-integer
    arguments), by the alternating f4 sum; when a parity-case divisor
    formula applies it is evaluated too and must agree."""
    if a < 1 or n < 0:
        raise ValueError("need a >= 1 and n >= 0")
    general = _r8_general(a, n)
    if a % 2 == 0 and n % 2 == 1:
        case = _r8_case_even_a_odd_n(a, n)
        if case != general:
            raise RuntimeError(f"R_{{{a},8}}({n}): case formula {case} != general {general}")
    if a % 2 == 1 and n % 2 == 0:
        case = _r8_case_odd_a_even_n(a, n)
        if case != general:
            raise RuntimeError(f"R_{{{a},8}}({n}): case formula {case} != general {general}")
    if not isinstance(general, int):
        raise RuntimeError(f"R_{{{a},8}}({n}) is not an integer: {general}")
    return general


def _r8odd_general(a: int, n: int) -> Rat:
    """sum over 4am + r(a-2) = n, 16m >= r^2 of (-1)^r f4(m, r)."""
    acc = Fraction(0)
    # a*r^2/4 + r*(a-2) <= n bounds the window
    disc = 4 * (a - 2) ** 2 + 4 * a * n
    if disc < 0:
        return 0
    top = math.isqrt(disc)
    for r in range((-2 * (a - 2) - top) // a - 2, (-2 * (a - 2) + top) // a + 3):
        num = n - r * (a - 2)
        if num < 0 or num % (4 * a):
            continue
        m = num // (4 * a)
        if 16 * m >= r * r:
            acc += _sign(r) * Fraction(f4_coeff(m, r))
    return as_rational(acc)


def r_a8odd_formula(a: int, n: int) -> int:
    """Representations of n by eight a-figurate numbers with all odd
    arguments; the odd-a odd-n case formula is cross-asserted."""
    if a < 1 or n < 0:
        raise ValueError("need a >= 1 and n >= 0")
    general = _r8odd_general(a, n)
    if a % 2 == 1 and n % 2 == 1:
        acc = Fraction(0)
        disc = 4 * (a - 2) ** 2 + 4 * a * n
        if disc >= 0:
            top = math.isqrt(disc)
            for r in range((-2 * (a - 2) - top) // a - 2, (-2 * (a - 2) + top) // a + 3):
                if r % 2 == 0:
                    continue
                num = n - r * (a - 2)
                if num < 0 or num % (4 * a):
                    continue
                m = num // (4 * a)
                if 16 * m > r * r:
                    acc += Fraction(cohen_h(3, 16 * m - r * r))
        case = as_rational(Fraction(-7, 2) * acc)
        if case != general:
            raise RuntimeError(f"R^odd_{{{a},8}}({n}): case formula {case} != general {general}")
    if not isinstance(general, int):
        raise RuntimeError(f"R^odd_{{{a},8}}({n}) is not an integer: {general}")
    return general


# ---------------------------------------------------------------------------
# tau of the discriminant form, by seven routes
# ---------------------------------------------------------------------------

TAU_ROUTES = ("direct", "via_f4", "via_f4_n", "via_f6", "via_f6_n",
              "via_h11", "via_h3_closed", "via_h5_closed")


def _require_odd_nonsquare(n: int, route: str):
    if n % 2 == 0:
        raise ValueError(f"route {route} requires odd n (got {n})")
    r = math.isqrt(n)
    if r * r == n:
        raise ValueError(f"route {route} requires n that is not an odd square (got {n})")


def tau(n: int, route: str = "direct") -> Rat:
    """The q^n coefficient of the weight-12 discriminant cusp form, computed
    by the requested route; all routes agree and return an integer.

    Moment routes (via_f4, via_f6 and their n*tau variants) sum r^k f(n, r)
    over the full window r^2 <= 16n; via_h11 is the weight-12 Cohen-number
    route; the closed H(3)/H(5) routes require n odd and not an odd square.
    """
    if n < 1:
        raise ValueError("tau expects n >= 1")
    if route == "direct":
        from jacobiforms.catalog import delta
        return delta(n + 1).coefficient(n)
    if route in ("via_f4", "via_f4_n", "via_f6", "via_f6_n"):
        rmax = math.isqrt(16 * n)
        acc = Fraction(0)
        for r in range(-rmax, rmax + 1):
            if route == "via_f4":
                acc += r**8 * Fraction(f4_coeff(n, r))
            elif route == "via_f4_n":
                acc += r**10 * Fraction(f4_coeff(n, r))
            elif route == "via_f6":
                acc += r**6 * Fraction(f6_coeff(n, r))
            else:
                acc += r**8 * Fraction(f6_coeff(n, r))
        if route == "via_f4":
            return as_rational(acc / FACT8)
        if route == "via_f4_n":
            return as_rational(acc * 3 / (FACT10 * n))
        if route == "via_f6":
            return as_rational(acc / (FACT6 * 12))
        return as_rational(acc / (FACT8 * 4 * n))
    if route == "via_h11":
        rmax = math.isqrt(4 * n)
        z = Fraction(zeta_neg(-21))
        acc = sum(Fraction(cohen_h(11, 4 * n - r * r)) / z for r in range(-rmax, rmax + 1)
                  if 4 * n - r * r >= 0)
        acc -= Fraction(65520, 691) * sigma(11, n)
        return as_rational(Fraction(53678953, 304819200) * acc)
    if route == "via_h3_closed":
        _require_odd_nonsquare(n, route)
        s1 = sum(Fraction(cohen_h(3, 4 * n - r * r)) * r**8
                 for r in range(-math.isqrt(4 * n), math.isqrt(4 * n) + 1) if 4 * n > r * r)
        s2 = sum(Fraction(cohen_h(3, 16 * n - r * r)) * r**8
                 for r in range(-math.isqrt(16 * n), math.isqrt(16 * n) + 1) if 16 * n > r * r)
        return as_rational(Fraction(-73, 45) * s1 + Fraction(1, 11520) * s2)
    if route == "via_h5_closed":
        _require_odd_nonsquare(n, route)
        s1 = sum(Fraction(cohen_h(5, 4 * n - r * r)) * r**6
                 for r in range(-math.isqrt(4 * n), math.isqrt(4 * n) + 1) if 4 * n > r * r)
        s2 = sum(Fraction(cohen_h(5, 16 * n - r * r)) * r**6
                 for r in range(-math.isqrt(16 * n), math.isqrt(16 * n) + 1) if 16 * n > r * r)
        return as_rational(Fraction(-1057, 1080) * s1 + Fraction(1, 69120) * s2)
    raise ValueError(f"unknown tau route {route!r} (expected one of {TAU_ROUTES})")


def tau_applicable_routes(n: int) -> list:
    """Routes whose side conditions hold at n."""
    out = ["direct", "via_f4", "via_f4_n", "via_f6", "via_f6_n", "via_h11"]
    if n % 2 and math.isqrt(n) ** 2 != n:
        out += ["via_h3_closed", "via_h5_closed"]
    return out


# ---------------------------------------------------------------------------
# sixteen-variable counts
# ---------------------------------------------------------------------------

def delta16(n: int) -> Rat:
    """Sixteen triangular numbers, closed form for odd n:
    61/8640 sigma_7(n+2) - 1/829440 sum (-1)^r H(7, 8(n+2) - r^2)/zeta(-13)."""
    if n % 2 == 0:
        raise ValueError("delta16 requires odd n")
    z = Fraction(zeta_neg(-13))
    m = n + 2
    rmax = math.isqrt(8 * m)
    acc = sum(_sign(r) * Fraction(cohen_h(7, 8 * m - r * r)) / z
              for r in range(-rmax, rmax + 1) if 8 * m > r * r)
    return as_rational(Fraction(61, 8640) * sigma(7, m) - Fraction(1, 829440) * acc)


def r16(n: int) -> Rat:
    """Sixteen squares, closed form for odd n:
    416/135 sigma_7(n) + 2/405 sum (-1)^r H(7, 8n - r^2)/zeta(-13)."""
    if n % 2 == 0:
        raise ValueError("r16 requires odd n")
    z = Fraction(zeta_neg(-13))
    rmax = math.isqrt(8 * n)
    acc = sum(_sign(r) * Fraction(cohen_h(7, 8 * n - r * r)) / z
              for r in range(-rmax, rmax + 1) if 8 * n > r * r)
    return as_rational(Fraction(416, 135) * sigma(7, n) + Fraction(2, 405) * acc)
