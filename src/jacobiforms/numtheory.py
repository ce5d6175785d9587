"""Exact elementary and analytic number theory.

Everything here returns exact values: divisor sums, the Kronecker symbol,
Bernoulli numbers and polynomials, Dirichlet L-values at non-positive
integers via generalized Bernoulli numbers, and the Cohen numbers

    H(r, N) = L(1-r, chi_D) * prod_{p^e || f} E_p,
    E_p = sigma_{2r-1}(p^e) - chi_D(p) p^(r-1) sigma_{2r-1}(p^(e-1)),

for (-1)^r N = D f^2 with D a fundamental discriminant (D = 1 allowed): the
product is the Euler product of the twisted divisor sum
sum_{d|f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d), which is multiplicative
in f.  L(1-r, chi_D) = -B_{r,chi_D}/r, and since chi_D(-1) = sign D and
B_r(1-x) = (-1)^r B_r(x), :func:`gen_bernoulli` sums B_{r,chi_D} over the
half range 1 <= a < |D|/2, in integers over one Bernoulli denominator, and
reads chi_D there as two lists, the a with chi_D(a) = 1 and those with
chi_D(a) = -1, cut out of the half range by byte masks (:func:`_chi_signs`);
:func:`cohen_h` divides -B_{r,chi_D} times the Euler product by r once.
H(r, N) is an integer over S_r = den zeta(1-2r) = den H(r, 0) (12, 120,
252, 240, 132, ... for r = 1, 2, 3, 4, 5; tested for N <= 5000 at r <= 13),
and the package's Cohen-number sums add the integers H(r, N) * S_r from
one cache, :func:`_h_num`, which raises ArithmeticError naming (r, N) for a
value that is not one instead of rounding it.
Values stay plain `int` wherever they are integers; a `fractions.Fraction`
enters only where a denominator can arise (a Bernoulli number, a division),
and each rational-valued public function returns through :func:`as_rational`
or :func:`_rational` once, so an integer result is an `int` and any other
is a `Fraction` with denominator > 1.  All functions are pure and safe to
call from several threads: the memo caches are `functools.lru_cache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul
from typing import Union

Rat = Union[int, Fraction]


def as_rational(x) -> Rat:
    """Coerce to an exact rational, collapsing Fractions with denominator 1.
    A Fraction that is not an integer is returned as is; a float raises
    TypeError, since Fraction would take its binary expansion."""
    if isinstance(x, int):
        return x
    if type(x) is Fraction and x.denominator != 1:
        return x
    if isinstance(x, float):
        raise TypeError(f"expected an exact rational, got the float {x!r}")
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _rational(num: int, den: int) -> Rat:
    """num / den as a canonical rational: an int wherever den divides num,
    else one Fraction."""
    if den == 1:
        return num
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def rational_str(x: Rat) -> str:
    """Canonical string form: "p/q", or "p" when the denominator is 1."""
    x = as_rational(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Rat:
    """Inverse of :func:`rational_str`."""
    return as_rational(Fraction(s))


def require_ints(fn: str, *args) -> None:
    """TypeError for a non-int argument, as :func:`as_rational` refuses a
    float: an integer entry point must not answer a float or a Fraction."""
    for x in args:
        if not isinstance(x, int):
            raise TypeError(f"{fn} expects integers, got {x!r}")


# ---------------------------------------------------------------------------
# multiplicative functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)  # typed: 6.0 must not hit the entry of 6
def factorize(n: int) -> tuple:
    """Prime factorization of n >= 1 by trial division, as ((p, e), ...)."""
    require_ints("factorize", n)
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        # wheel over 6k +- 1
        p += 2 if p % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list:
    """Sorted list of the positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum_{d|n} d^k, for k >= 0 and n >= 1."""
    require_ints("sigma", k, n)
    if k < 0:
        raise ValueError(f"sigma expects k >= 0, got {k}")
    if n < 1:
        raise ValueError(f"sigma expects n >= 1, got {n}")
    result = 1
    for p, e in factorize(n):
        if k == 0:
            result *= e + 1
        else:
            result *= (p ** (k * (e + 1)) - 1) // (p**k - 1)
    return result


def sigma_rational(k: int, x: Rat) -> int:
    """sigma_k extended by 0 off the positive integers (sigma_3(n/2) idiom)."""
    require_ints("sigma_rational", k)
    if k < 0:
        raise ValueError(f"sigma_rational expects k >= 0, got {k}")
    x = as_rational(x)
    if not isinstance(x, int) or x < 1:
        return 0
    return sigma(k, x)


def mobius(n: int) -> int:
    """Moebius function: 0 on squareful n, else (-1)^(number of prime factors)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), completely multiplicative in n.

    Conventions: (a|0) = 1 iff |a| = 1; (a|-1) = -1 iff a < 0;
    (a|2) = 0, 1, -1 for a even, a = +-1 mod 8, a = +-3 mod 8.
    """
    require_ints("kronecker", a, n)
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    # n odd positive: Jacobi symbol by reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Bernoulli machinery and L-values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)  # typed: 3.0 must not hit the entry of 3
def bernoulli(n: int) -> Rat:
    """Bernoulli number B_n with the B_1 = -1/2 convention."""
    require_ints("bernoulli", n)
    if n < 0:
        raise ValueError(f"bernoulli expects n >= 0, got {n}")
    if n <= 1:
        return Fraction(-1, 2) if n else 1
    if n % 2:
        return 0
    # sum_{k=0}^{n} C(n+1, k) B_k = 0, read in increasing k, so each B_k's
    # own terms are already cached and a cold call recurses two levels deep
    acc = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n))
    return as_rational(-acc / (n + 1))


@lru_cache(maxsize=None)
def _bernoulli_over_lcm(n: int) -> tuple:
    """(L, L*B_0, ..., L*B_n) with L = lcm(den B_k, k <= n): the Bernoulli
    numbers up to n as integers over one denominator."""
    bs = [bernoulli(k) for k in range(n + 1)]
    den = math.lcm(*(b.denominator for b in bs))
    return (den, *(b.numerator * (den // b.denominator) for b in bs))


def bernoulli_poly(n: int, x: Rat) -> Rat:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k).

    Summed in integers over the common denominator lcm(den B_k) * q^n of
    x = p/q.  Only the tests call it, as the oracle for :func:`gen_bernoulli`.
    """
    require_ints("bernoulli_poly", n)
    if n < 0:
        raise ValueError(f"bernoulli_poly expects n >= 0, got {n}")
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    den, *nums = _bernoulli_over_lcm(n)
    num = sum(math.comb(n, k) * b * p ** (n - k) * q**k for k, b in enumerate(nums))
    return _rational(num, den * q**n)


def zeta_neg(s: int) -> Rat:
    """Riemann zeta at a negative odd integer: zeta(1-2r) = -B_2r / 2r."""
    require_ints("zeta_neg", s)
    if s >= 0 or s % 2 == 0:
        raise ValueError(f"zeta_neg expects a negative odd integer, got {s}")
    two_r = 1 - s
    return as_rational(-Fraction(bernoulli(two_r)) / two_r)


def is_fundamental_discriminant(d: int) -> bool:
    """True for D = 1 and the discriminants of quadratic fields."""
    if d == 1:
        return True
    if d % 4 == 1:
        return mobius(abs(d)) != 0
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and mobius(abs(m)) != 0
    return False


# chi_D of the 2-part D2 in {1, -4, 8, -8} of a fundamental D, on a mod |D2|,
# as byte masks (zero, minus): chi_D2(a) = 0 where zero[a], else -1 where minus[a]
_TWO_PART_MASKS = {1: (b"\0", b"\0"), -4: (b"\1\0\1\0", b"\0\0\0\1"),
                   8: (b"\1\0" * 4, b"\0\0\0\1\0\1\0\0"),
                   -8: (b"\1\0" * 4, b"\0\0\0\0\0\1\0\1")}


def _chi_signs(d: int, count: int) -> tuple:
    """(plus, minus): the a in 1..count with chi_D(a) = 1 and with chi_D(a)
    = -1, D fundamental.  chi_D is the product of the characters of the
    prime discriminants p* = +-p = 1 mod 4 (a Legendre symbol mod each odd
    p | D) and of the 2-part D / prod p*, each a zero mask and a sign mask
    of bytes over one period; repeated over 1..count and read as integers,
    the zero masks combine by OR and the sign masks by XOR, with no Python
    step per a.  The primes come from the factorization that
    :func:`is_fundamental_discriminant` has already cached."""
    m = abs(d)
    two, masks = d, []
    for p, _ in factorize(m if d % 2 else m // 4):
        if p == 2:
            continue
        minus = bytearray(b"\1") * p
        minus[0] = 0
        for x in range(1, p // 2 + 1):
            minus[x * x % p] = 0
        masks.append((b"\1" + bytes(p - 1), minus))
        two //= p if p % 4 == 1 else -p
    masks.append(_TWO_PART_MASKS[two])
    zero = neg = 0
    for z, s in masks:
        reps = count // len(z) + 1
        zero |= int.from_bytes((z * reps)[1:count + 1], "big")
        neg ^= int.from_bytes((s * reps)[1:count + 1], "big")
    live = int.from_bytes(b"\1" * count, "big") ^ zero  # chi_D(a) != 0
    a = range(1, count + 1)
    return (list(compress(a, (live & ~neg).to_bytes(count, "big"))),
            list(compress(a, (live & neg).to_bytes(count, "big"))))


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry of 2
def gen_bernoulli(r: int, d: int) -> Rat:
    """Generalized Bernoulli number B_{r, chi_D} for fundamental D (or D = 1).

    The definition is B_{r,chi} = m^(r-1) * sum_{a=1..m} chi_D(a) B_r(a/m),
    m = |D|.  D = 1 gives B_r(1) = (-1)^r B_r.  Otherwise chi_D is primitive
    of conductor m with chi_D(-1) = sign D, and B_r(1-x) = (-1)^r B_r(x)
    pairs a with m - a, so B_{r,chi} = 0 unless D < 0 exactly when r is odd,
    and then it is twice the sum over the half range 1 <= a < m/2 (chi_D(m/2)
    = 0, since m = 2 is no conductor).  Expanding B_r(x) gives

        B_{r,chi} = 2 * sum_{k=0..r} C(r,k) B_k m^(k-1) S'_{r-k},
        S'_j = sum_{1 <= a < m/2} chi_D(a) a^j,

    summed in integers over L = lcm(den B_k) and divided by L * m once.
    S'_j is the power sum over the a with chi_D(a) = 1 minus the one over
    the a with chi_D(a) = -1, two lists that :func:`_chi_signs` cuts out of
    the half range by byte masks of D's prime-discriminant characters (no
    Kronecker symbol is evaluated), and S'_j is needed only where B_k != 0
    (k = 0, 1 and even k), so the lists of a^j step from one such j to the
    next by a^2, or by a to and from j = r - 1.  The full-range defining
    sum over :func:`bernoulli_poly` and :func:`kronecker` is the test oracle.
    """
    require_ints("gen_bernoulli", r, d)
    if r < 1:
        raise ValueError(f"gen_bernoulli expects r >= 1, got {r}")
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    if d == 1:
        return Fraction(1, 2) if r == 1 else bernoulli(r)
    if (d < 0) != (r % 2 == 1):
        return 0
    m = abs(d)
    plus, minus = _chi_signs(d, (m - 1) // 2)
    den, *nums = _bernoulli_over_lcm(r)
    acc = nums[r] * m**r * (len(plus) - len(minus))  # j = 0
    pos, neg, i, sq = plus, minus, 1, None  # a^i where chi_D(a) = 1, -1; a^2
    for j in range(1, r + 1):
        if not nums[r - j]:
            continue
        if j > i:  # the next j with B_(r-j) != 0 is i + 1 or i + 2
            if sq is None and j == i + 2:
                sq = list(map(mul, plus, plus)), list(map(mul, minus, minus))
            by_pos, by_neg = sq if j == i + 2 else (plus, minus)
            pos, neg, i = list(map(mul, pos, by_pos)), list(map(mul, neg, by_neg)), j
            if i == 2:
                sq = pos, neg
        acc += math.comb(r, j) * nums[r - j] * m ** (r - j) * (sum(pos) - sum(neg))
    return _rational(2 * acc, den * m)


def l_value_neg(r: int, d: int) -> Rat:
    """L(1-r, chi_D) = -B_{r,chi_D}/r; for D = 1 this is zeta(1-r)."""
    require_ints("l_value_neg", r, d)
    return as_rational(-Fraction(gen_bernoulli(r, d)) / r)


# ---------------------------------------------------------------------------
# discriminant decomposition and Cohen numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscDecomp:
    """delta = D*f^2 with D fundamental (or 1) and f >= 1."""

    d: int
    f: int


def fund_disc_decomp(delta: int) -> DiscDecomp:
    """Split delta = 0,1 mod 4 (delta != 0) as D*f^2, D fundamental or 1."""
    if delta == 0 or delta % 4 in (2, 3):
        raise ValueError(f"{delta} is not a discriminant (need 0,1 mod 4, nonzero)")
    sign = 1 if delta > 0 else -1
    core = sign  # squarefree kernel, with sign
    f = 1
    for p, e in factorize(abs(delta)):
        f *= p ** (e // 2)
        if e % 2:
            core *= p
    if core % 4 == 1:
        return DiscDecomp(core, f)
    # kernel = 2,3 mod 4: the fundamental discriminant is 4*kernel
    return DiscDecomp(4 * core, f // 2)


def cohen_h(r: int, n: Rat) -> Rat:
    """Cohen number H(r, N) for rational N >= 0 (0 on non-integral N).

    N = 0 gives zeta(1-2r); (-1)^r N = 2,3 mod 4 gives 0; otherwise the
    L-value L(1-r, chi_D) = -B_{r,chi_D}/r times the Euler product over the
    conductor, as one integer quotient: -num(B) * E / (den(B) * r).
    Negative N raises.
    This is the uncached definition: the package's sums read H through
    :func:`_h_num`, which caches each value once, as an integer, and calls
    this function by its module-global name on a miss.
    """
    if type(r) is not int:  # inline: called once per cold H value
        require_ints("cohen_h", r)
    if r < 1:
        raise ValueError(f"cohen_h expects r >= 1, got {r}")
    n = as_rational(n)
    if n < 0:
        raise ValueError(f"cohen_h expects N >= 0, got {n}")
    if not isinstance(n, int):
        return 0
    if n == 0:
        return zeta_neg(1 - 2 * r)
    dn = n if r % 2 == 0 else -n
    if dn % 4 in (2, 3):
        return 0
    dec = fund_disc_decomp(dn)
    acc = 1
    for p, e in factorize(dec.f):
        k = p ** (2 * r - 1)
        below = (k**e - 1) // (k - 1)  # sigma_{2r-1}(p^(e-1)); sigma(p^e) = k * below + 1
        acc *= k * below + 1 - kronecker(dec.d, p) * p ** (r - 1) * below
    b = gen_bernoulli(r, dec.d)  # H = L(1-r, chi_D) * acc = -B_{r,chi_D} * acc / r
    return _rational(-b.numerator * acc, b.denominator * r)


@lru_cache(maxsize=None)  # one entry per weight: every cache miss of _h_num reads it
def _h_scale(r: int) -> int:
    """S_r = den zeta(1-2r) = den H(r, 0), the denominator :func:`_h_num` reads H(r, .) over."""
    return Fraction(zeta_neg(1 - 2 * r)).denominator


@lru_cache(maxsize=None)  # untyped: every caller passes ints, r >= 1 and N >= 0
def _h_num(r: int, n: int) -> int:
    """H(r, N) * S_r, the integer numerator of H(r, N) over :func:`_h_scale`;
    the one cache of Cohen numbers.  A miss calls `cohen_h`, and a value
    that is not an integer over S_r raises ArithmeticError naming (r, N):
    no sum built on this cache ever rounds."""
    h = cohen_h(r, n)
    s = _h_scale(r)
    num, rem = divmod(h.numerator * s, h.denominator)
    if rem:
        raise ArithmeticError(f"H({r}, {n}) = {h} is not an integer over den zeta({1 - 2 * r}) = {s}")
    return num


def cohen_h_via_l_values(r: int, n: int) -> Rat:
    """The companion definition H(r,N) = sum_{d^2 | N} h(r, N/d^2).

    Here h(r, M) is the negative-argument value of the possibly imprimitive
    L-series attached to chi_{(-1)^r M}: with (-1)^r M = D f^2,

        h(r, M) = L(1-r, chi_D) * f^(2r-1) * prod_{p | f} (1 - chi_D(p) p^(-r)),

    and h vanishes unless (-1)^r M = 0, 1 mod 4.  Kept as an independent
    route for cross-checking :func:`cohen_h`, with its preconditions.
    """
    require_ints("cohen_h_via_l_values", r, n)
    if r < 1:
        raise ValueError(f"cohen_h_via_l_values expects r >= 1, got {r}")
    if n < 0:
        raise ValueError(f"cohen_h_via_l_values expects N >= 0, got {n}")
    if n == 0:
        return zeta_neg(1 - 2 * r)
    acc = Fraction(0)
    for d in range(1, math.isqrt(n) + 1):
        if n % (d * d):
            continue
        m = n // (d * d)
        dm = m if r % 2 == 0 else -m
        if dm % 4 in (2, 3):
            continue
        dec = fund_disc_decomp(dm)
        val = Fraction(l_value_neg(r, dec.d)) * dec.f ** (2 * r - 1)
        for p, _ in factorize(dec.f):
            val *= 1 - Fraction(kronecker(dec.d, p), p**r)
        acc += val
    return as_rational(acc)
