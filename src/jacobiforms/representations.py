"""Representation counts and closed-form coefficient formulas.

The two Fourier-coefficient families of the eighth theta power and of its
wp-product,

    f4(n, r) = -511/2 H(3, (16n - r^2)/4) + 7/2 sum_{d | (n,r,4)} d^3 H(3, (16n - r^2)/d^2)
    f6(n, r) = -1057/8 H(5, (16n - r^2)/4) + 1/8 sum_{d | (n,r,4)} d^5 H(5, (16n - r^2)/d^2)

(value 1 on the boundary 16n = r^2 with n odd, 0 with n even), drive the
counting formulas: representations of n by eight figurate numbers, the
classical r_8 / delta_8 divisor sums, the 16-variable analogues, and eight
exact routes to the tau coefficients of the discriminant form.

Every weighted window sum of Cohen numbers, sum_r w(r) H(k, N - r^2), goes
through `h_window_sum`, and every sum over the lattice points of a sheared
cone through `cone_points`; these two are the one reader of H over windows,
here and in the identity registry.  H is read only at integer N: f4 and f6
read H(k, disc/d^2), disc = 16n - r^2, only where d^2 | disc (0 otherwise).
Every such sum adds integers: H(k, N) * S_k from `numtheory._h_num`, S_k =
den zeta(1-2k) (252 for k = 3, 132 for k = 5), and f4, f6 as `_f_num`
numerators over `_F_DEN` = 2 S_3 = 504 and 8 S_5 = 1056; each answer makes
at most one Fraction, from its integer numerator over its one denominator.

Every summand kind of a count is the figurate value f_a(x) over an
arithmetic progression of x (squares are f_2, triangular numbers f_1).
Brute-force counting raises the generating polynomial of those values,
taken with repetition and truncated at q^n, to the m-th power as one packed
integer (Kronecker substitution): every coefficient is a non-negative count,
so slots wide enough for the largest count never carry, and the power holds
the count of every sum s <= n.  One power is kept per (kind, m, a) and
answers every n up to its top T; a request past T rebuilds at max(n, 2T).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from jacobiforms.numtheory import Rat, _h_num, _h_scale, _rational, divisors, require_ints, sigma
from jacobiforms.series import CacheInfo


def _sign(r: int) -> int:
    """(-1)^r as an exact int for any integer r (negative included)."""
    return -1 if r & 1 else 1


# ---------------------------------------------------------------------------
# coefficient formulas
# ---------------------------------------------------------------------------

# k -> (c4, cd): f(n, r) = (c4 H(k, disc/4) + cd sum_{d | (n,r,4)} d^k H(k, disc/d^2)) / (2, 8)
_F_CONSTANTS = {3: (-511, 7), 5: (-1057, 1)}
# k -> the denominator of `_f_num`: 2 S_3 and 8 S_5, S_k = den zeta(1-2k)
_F_DEN = {3: 504, 5: 1056}


@lru_cache(maxsize=None)
def _f_num_even(k: int, n: int, r: int) -> int:
    """`_f_num` at r >= 0, computed once per (k, n, r)."""
    disc = 16 * n - r * r
    if disc < 0 or n < 0:
        return 0
    if disc == 0:
        return _F_DEN[k] if n % 2 else 0
    c4, cd = _F_CONSTANTS[k]
    acc = c4 * _h_num(k, disc // 4) if disc % 4 == 0 else 0
    g = math.gcd(n, r, 4)
    for d in (1, 2, 4):  # the divisors of (n, r, 4)
        if g % d == 0 and disc % (d * d) == 0:
            acc += cd * d**k * _h_num(k, disc // (d * d))
    return acc


def _f_num(k: int, n: int, r: int) -> int:
    """The f4 (k = 3) or f6 (k = 5) coefficient at q^n zeta^r times
    _F_DEN[k]: an integer, from the integers H(k, N) * S_k.  f is even in
    r, so it is kept per (k, n, |r|)."""
    return _f_num_even(k, n, -r if r < 0 else r)


def _f_coeff(k: int, n: int, r: int) -> Rat:
    """The f4 (k = 3) or f6 (k = 5) coefficient at q^n zeta^r."""
    return _rational(_f_num(k, n, r), _F_DEN[k])


@lru_cache(maxsize=None, typed=True)  # typed: 1.0 must not hit the entry of 1
def f4_coeff(n: int, r: int) -> Rat:
    """Fourier coefficient of the eighth power of the triple product at
    q^n zeta^r, from Cohen numbers (0 outside the cone 16n >= r^2)."""
    if not (type(n) is int and type(r) is int):  # inline: called per coefficient
        require_ints("f4_coeff", n, r)
    return _f_coeff(3, n, r)


@lru_cache(maxsize=None, typed=True)  # typed: 1.0 must not hit the entry of 1
def f6_coeff(n: int, r: int) -> Rat:
    """Fourier coefficient of 12*wp*theta^8 at q^n zeta^r, from H(5, .)."""
    if not (type(n) is int and type(r) is int):  # inline: called per coefficient
        require_ints("f6_coeff", n, r)
    return _f_coeff(5, n, r)


# ---------------------------------------------------------------------------
# figurate numbers and brute-force counting
# ---------------------------------------------------------------------------

def figurate(a: int, x: int) -> int:
    """The figurate value f_a(x) = (a x^2 + (a-2) x) / 2 (triangular at a=1,
    squares at a=2); x ranges over all integers."""
    if not (isinstance(a, int) and isinstance(x, int)):  # inline: `_values` calls it per x
        require_ints("figurate", a, x)
    return (a * x * x + (a - 2) * x) // 2


# kind -> (a, or None for the query's own a; the step of x; the first x >= 0;
# whether x also runs downward from first - step)
_PROGRESSIONS = {
    "squares": (2, 1, 0, True),
    "triangular": (1, 1, 1, False),  # f_1(x + 1) = x(x + 1)/2
    "figurate": (None, 1, 0, True),
    "figurate_odd": (None, 2, 1, True),
}


@dataclass(frozen=True)
class CountQuery:
    """How many m-tuples of values of the given kind sum to n.

    Every kind is f_a over an arithmetic progression of x (`_PROGRESSIONS`):
    "squares" is f_2 and "figurate" f_a (parameter a) over all integers x,
    "figurate_odd" is f_a over the odd x, and "triangular" is f_1 over
    x >= 1, that is x(x+1)/2 over x >= 0 (the delta_k convention).  Only
    "figurate" and "figurate_odd" take an a; the other two fix it.
    """

    kind: str
    m: int
    n: int
    a: Optional[int] = None

    def __post_init__(self):
        require_ints("CountQuery", self.m, self.n, 0 if self.a is None else self.a)
        if self.m < 1:
            raise ValueError(f"CountQuery expects m >= 1, got {self.m}")
        if self.n < 0:
            raise ValueError(f"CountQuery expects n >= 0, got {self.n}")
        if self.kind not in _PROGRESSIONS:
            raise ValueError(f"unknown kind {self.kind!r}")
        fixed = _PROGRESSIONS[self.kind][0]
        if fixed is None and (self.a is None or self.a < 1):
            raise ValueError(f"CountQuery expects a >= 1 for kind {self.kind!r}, got {self.a}")
        if fixed is not None and self.a is not None:
            raise ValueError(f"CountQuery takes no a for kind {self.kind!r}, got {self.a}")


def _values(query: CountQuery) -> list:
    """Every value f_a(x) <= n over the query's progression of x, with
    repetition.  x walks up from the first x, and down from first - step
    when the kind says so; for a >= 1, f_a is never negative at an integer
    and does not decrease as x moves away from {0, 1}, so each walk stops at
    its first value above n."""
    a, step, first, down = _PROGRESSIONS[query.kind]
    a = a or query.a
    values = []
    walks = [(first, step), (first - step, -step)] if down else [(first, step)]
    for x, dx in walks:
        while (v := figurate(a, x)) <= query.n:
            values.append(v)
            x += dx
    return values


def _packed_power(query: CountQuery) -> tuple:
    """(b, P): slot s of P, b bits wide, counts the m-tuples summing to s,
    for every s <= n.

    The values, with repetition (one per x), are packed into slots of b bits,
    sum 2^(b v), so equal values add up in their slot, and the packed int is
    raised to the m-th power with every product masked to the n + 1 slots of
    the sums s <= n.  No slot carries: every slot of a partial power, and of
    a product before the mask, counts tuples of at most m of the `total`
    values, so it is at most total^m < 2^b."""
    n, m = query.n, query.m
    values = _values(query)
    total = len(values)
    b = (total ** m).bit_length()
    mask = (1 << (b * (n + 1))) - 1
    base = sum(1 << (b * v) for v in values)
    acc = 1
    while True:
        if m & 1:
            acc = (acc * base) & mask
        m >>= 1
        if not m:
            return b, acc
        base = (base * base) & mask


# (kind, m, a) -> (top, b, the packed power of `_packed_power` at n = top)
_POWERS: dict = {}
_POWER_COUNTS = [0, 0]  # hits, misses
_POWER_LOCK = threading.Lock()


def count_bruteforce(query: CountQuery) -> int:
    """Exact representation count: slot n of one packed power.

    One power is kept per (kind, m, a), the one built at the highest top T.
    A request with n <= T reads slot n of it: every value is >= 0, so the
    slots s <= n of the power masked at T are those of the power masked at
    n.  A key's first request builds at exactly n, one above T at
    max(n, 2T), so an ascending loop over n builds O(log n) powers.  Builds
    run outside the lock, and a build replaces the kept power only if it is
    higher.  `cache_info()` counts hits and misses (builds) as lru_cache
    does; `cache_clear()` drops every power."""
    if not isinstance(query, CountQuery):
        raise TypeError(f"count_bruteforce needs a CountQuery, got {query!r}")
    key, n = (query.kind, query.m, query.a), query.n
    with _POWER_LOCK:
        top, b, power = _POWERS.get(key, (-1, 0, 0))
        hit = n <= top
        _POWER_COUNTS[0 if hit else 1] += 1
    if not hit:
        top = n if top < 0 else max(n, 2 * top)
        b, power = _packed_power(replace(query, n=top))
        with _POWER_LOCK:
            if top > _POWERS.get(key, (-1,))[0]:
                _POWERS[key] = (top, b, power)
    return (power >> (b * n)) & ((1 << b) - 1)


def _powers_cache_clear() -> None:
    with _POWER_LOCK:
        _POWERS.clear()
        _POWER_COUNTS[:] = [0, 0]


count_bruteforce.cache_info = lambda: CacheInfo(*_POWER_COUNTS, None, len(_POWERS))
count_bruteforce.cache_clear = _powers_cache_clear


# ---------------------------------------------------------------------------
# the classical eight-variable divisor-sum formulas
# ---------------------------------------------------------------------------

def formula_r8(n: int) -> int:
    """Eight squares: r_8(n) = 16 sum_{d|n} (-1)^(n+d) d^3 for n >= 1."""
    require_ints("formula_r8", n)
    if n < 1:
        raise ValueError("formula_r8 expects n >= 1")
    return 16 * sum(_sign(n + d) * d**3 for d in divisors(n))


def formula_delta8(n: int) -> int:
    """Eight triangular numbers: delta_8(n) = sum of d^3 over divisors d of
    n+1 with (n+1)/d odd, for n >= 0."""
    require_ints("formula_delta8", n)
    if n < 0:
        raise ValueError("formula_delta8 expects n >= 0")
    return sum(d**3 for d in divisors(n + 1) if ((n + 1) // d) % 2)


# ---------------------------------------------------------------------------
# windows of Cohen numbers: the one reader of H over r-windows and cone points
# ---------------------------------------------------------------------------

def _h_window_num(k: int, big_n: int, weight) -> int:
    """`h_window_sum` times S_k: the integer sum of weight(r) H(k, N - r^2) S_k."""
    rmax = math.isqrt(big_n)
    return sum(w * _h_num(k, big_n - r * r) for r in range(-rmax, rmax + 1) if (w := weight(r)))


def h_window_sum(k: int, big_n: int, weight) -> Rat:
    """sum over integers r with r^2 <= N of weight(r) H(k, N - r^2) for
    k >= 1 and N >= 0, H read only where the weight is nonzero: an integer
    sum over S_k, divided once.  Weights are ints (a Fraction weight gives
    the exact value too); any other weight raises TypeError."""
    require_ints("h_window_sum", k, big_n)
    if k < 1:
        raise ValueError(f"h_window_sum expects k >= 1, got {k}")
    if big_n < 0:
        raise ValueError(f"h_window_sum expects N >= 0, got {big_n}")

    def checked(r: int):
        w = weight(r)
        if not isinstance(w, (int, Fraction)):
            raise TypeError(f"h_window_sum expects int or Fraction weights, got {w!r} at r = {r}")
        return w

    return _rational(_h_window_num(k, big_n, checked), _h_scale(k))


def cone_points(c: int, slope: int, div: int, cone: int = 16) -> list:
    """The integer pairs (r, m) with div*m + slope*r = c and cone*m >= r^2,
    for div >= 1 and cone >= 1, in increasing r."""
    require_ints("cone_points", c, slope, div, cone)
    if div < 1:
        raise ValueError(f"cone_points expects div >= 1, got {div}")
    if cone < 1:
        raise ValueError(f"cone_points expects cone >= 1, got {cone}")
    # the r window: div*r^2 + cone*slope*r - cone*c <= 0, that is
    # |2*div*r + cone*slope| <= isqrt(disc) for the integer r
    disc = (cone * slope) ** 2 + 4 * div * cone * c
    if disc < 0:
        return []
    top = math.isqrt(disc)
    rs = range(-((cone * slope + top) // (2 * div)), (top - cone * slope) // (2 * div) + 1)
    return [(r, num // div) for r in rs if (num := c - slope * r) % div == 0 and cone * (num // div) >= r * r]


# ---------------------------------------------------------------------------
# eight figurate summands: general and parity-case formulas
# ---------------------------------------------------------------------------

def _f4_sum(points) -> Rat:
    """sum over the points (r, m) of (-1)^r f4(m, r)."""
    return _rational(sum(_sign(r) * _f_num(3, m, r) for r, m in points), _F_DEN[3])


def _h3_odd_r_sum(points) -> Rat:
    """-7/2 sum over the points with r odd and 16m > r^2 of H(3, 16m - r^2)."""
    acc = sum(_h_num(3, 16 * m - r * r) for r, m in points if r % 2 and 16 * m > r * r)
    return _rational(-7 * acc, _F_DEN[3])


def _r8_case_odd_a_even_n(a: int, n: int) -> Rat:
    target = n - 3 * a + 4
    acc = 0  # over _F_DEN[3] = 2 S_3
    for r, m in cone_points(target, a - 1, a):
        if 16 * m == r * r:  # boundary representations: r = 4t, m = t^2
            acc += _F_DEN[3]
        elif m % 2:
            acc += _sign(r) * 7 * _h_num(3, 16 * m - r * r)
    # second sum: a*m + 2*s*(a-1) + 3a - 4 = n, 4m > s^2, m odd
    for s, m in cone_points(target, 2 * (a - 1), a, cone=4):
        if m % 2 and 4 * m > s * s:
            acc -= 511 * _h_num(3, 4 * m - s * s)
    return _rational(acc, _F_DEN[3])


def _eight_figurate(label: str, points: list, case: Optional[Rat]) -> int:
    """The general formula sum (-1)^r f4(m, r) over the points, which must
    equal the parity-case value `case` when one applies (None otherwise) and
    must be an integer."""
    general = _f4_sum(points)
    if case is not None and case != general:
        raise RuntimeError(f"{label}: case formula {case} != general {general}")
    if not isinstance(general, int):
        raise RuntimeError(f"{label} is not an integer: {general}")
    return general


def r_a8_formula(a: int, n: int) -> int:
    """Representations of n by eight a-figurate numbers (all-integer
    arguments): the sum over a*m + r*(a-1) + 3a - 4 = n, 16m >= r^2 of
    (-1)^r f4(m, r).  When a parity-case divisor formula applies it is
    evaluated too and must agree."""
    require_ints("r_a8_formula", a, n)
    if a < 1:
        raise ValueError(f"r_a8_formula expects a >= 1, got {a}")
    if n < 0:
        raise ValueError(f"r_a8_formula expects n >= 0, got {n}")
    points = cone_points(n - 3 * a + 4, a - 1, a)
    case = None
    if a % 2 == 0 and n % 2 == 1:
        case = _h3_odd_r_sum(points)
    elif a % 2 == 1 and n % 2 == 0:
        case = _r8_case_odd_a_even_n(a, n)
    return _eight_figurate(f"R_{{{a},8}}({n})", points, case)


def r_a8odd_formula(a: int, n: int) -> int:
    """Representations of n by eight a-figurate numbers with all odd
    arguments: the sum over 4am + r(a-2) = n, 16m >= r^2 of (-1)^r f4(m, r).
    The odd-a odd-n case formula is cross-asserted."""
    require_ints("r_a8odd_formula", a, n)
    if a < 1:
        raise ValueError(f"r_a8odd_formula expects a >= 1, got {a}")
    if n < 0:
        raise ValueError(f"r_a8odd_formula expects n >= 0, got {n}")
    points = cone_points(n, a - 2, 4 * a)
    case = _h3_odd_r_sum(points) if a % 2 == 1 and n % 2 == 1 else None
    return _eight_figurate(f"R^odd_{{{a},8}}({n})", points, case)


# ---------------------------------------------------------------------------
# tau of the discriminant form, by eight routes
# ---------------------------------------------------------------------------

TAU_ROUTES = ("direct", "via_f4", "via_f4_n", "via_f6", "via_f6_n",
              "via_h11", "via_h3_closed", "via_h5_closed")


def _odd_nonsquare(n: int) -> bool:
    """The side condition of the closed H(3)/H(5) routes."""
    return n % 2 == 1 and math.isqrt(n) ** 2 != n


# moment routes: sum r^power f(n, r) over r^2 <= 16n, / (divisor * n^n_power), f = f4 at
# k = 3 and f6 at k = 5; `_f_num` is read by its module-global name per call
_MOMENT_ROUTES = {
    "via_f4": (3, 8, math.factorial(8), 0),
    "via_f4_n": (3, 10, math.factorial(10) // 3, 1),
    "via_f6": (5, 6, 12 * math.factorial(6), 0),
    "via_f6_n": (5, 8, 4 * math.factorial(8), 1),
}

# closed routes: (c1 sum r^power H(k, 4n - r^2) + c2 sum r^power H(k, 16n - r^2)) / den,
# that is -73/45 and 1/11520 for k = 3, -1057/1080 and 1/69120 for k = 5
_CLOSED_ROUTES = {
    "via_h3_closed": (3, 8, -73 * 256, 1, 11520),
    "via_h5_closed": (5, 6, -1057 * 64, 1, 69120),
}


def tau(n: int, route: str = "direct") -> Rat:
    """The q^n coefficient of the weight-12 discriminant cusp form, computed
    by the requested route; all routes agree and return an integer.

    Moment routes (via_f4, via_f6 and their n*tau variants) sum r^k f(n, r)
    over the full window r^2 <= 16n, as twice the sum over r >= 1, since f
    is even in r and k is even; via_h11 is the weight-12 Cohen-number
    route; the closed H(3)/H(5) routes require n odd and not an odd square.
    """
    require_ints("tau", n)
    if n < 1:
        raise ValueError("tau expects n >= 1")
    if route == "direct":
        from jacobiforms.catalog import delta
        # the precision ladder 2, 4, 8, ...: an ascending loop over n builds
        # delta O(log n) times and cuts every other read from the kept build
        return delta(1 << n.bit_length()).coefficient(n)
    if route in _MOMENT_ROUTES:
        k, power, divisor, n_power = _MOMENT_ROUTES[route]
        # f(n, -r) = f(n, r) and every power is even and positive: twice the sum over r >= 1
        acc = 2 * sum(r**power * _f_num(k, n, r) for r in range(1, math.isqrt(16 * n) + 1))
        return _rational(acc, _F_DEN[k] * divisor * n**n_power)
    if route == "via_h11":
        # 53678953/304819200 (sum H(11, 4n - r^2)/zeta(-21) - 65520/691 sigma_11(n)), and
        # H(11, .)/zeta(-21) = _h_num(11, .)/z with z = S_11 zeta(-21) = _h_num(11, 0)
        z = _h_num(11, 0)
        acc = 691 * _h_window_num(11, 4 * n, lambda r: 1) - 65520 * z * sigma(11, n)
        return _rational(53678953 * acc, 304819200 * 691 * z)
    if route in _CLOSED_ROUTES:
        if not _odd_nonsquare(n):
            raise ValueError(f"route {route} requires odd n that is not a square (got {n})")
        k, power, c1, c2, den = _CLOSED_ROUTES[route]
        acc = (c1 * _h_window_num(k, 4 * n, lambda r: r**power)
               + c2 * _h_window_num(k, 16 * n, lambda r: r**power))
        return _rational(acc, den * _h_scale(k))
    raise ValueError(f"unknown tau route {route!r} (expected one of {TAU_ROUTES})")


def tau_applicable_routes(n: int) -> list:
    """Routes whose side conditions hold at n >= 1."""
    require_ints("tau_applicable_routes", n)
    if n < 1:
        raise ValueError(f"tau_applicable_routes expects n >= 1, got {n}")
    return [route for route in TAU_ROUTES if route not in _CLOSED_ROUTES or _odd_nonsquare(n)]


# ---------------------------------------------------------------------------
# sixteen-variable counts
# ---------------------------------------------------------------------------

def _sixteen(name: str, n: int, big_n: int, c1: int, c2: int, den: int) -> Rat:
    """(c1 sigma_7(N) + c2 sum (-1)^r H(7, 8N - r^2)/zeta(-13)) / den at
    N = big_n, for odd n >= 1; H(7, .)/zeta(-13) = _h_num(7, .)/z with
    z = S_7 zeta(-13) = _h_num(7, 0)."""
    require_ints(name, n)
    if n < 1:
        raise ValueError(f"{name} expects n >= 1")
    if n % 2 == 0:
        raise ValueError(f"{name} requires odd n")
    z = _h_num(7, 0)
    acc = c1 * z * sigma(7, big_n) + c2 * _h_window_num(7, 8 * big_n, _sign)
    return _rational(acc, den * z)


def delta16(n: int) -> Rat:
    """Sixteen triangular numbers, closed form for odd n >= 1:
    61/8640 sigma_7(n+2) - 1/829440 sum (-1)^r H(7, 8(n+2) - r^2)/zeta(-13)."""
    return _sixteen("delta16", n, n + 2, 61 * 96, -1, 829440)


def r16(n: int) -> Rat:
    """Sixteen squares, closed form for odd n >= 1:
    416/135 sigma_7(n) + 2/405 sum (-1)^r H(7, 8n - r^2)/zeta(-13)."""
    return _sixteen("r16", n, n, 416 * 3, 2, 405)
