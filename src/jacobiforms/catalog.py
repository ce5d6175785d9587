"""Constructors for the named forms: the odd Jacobi theta series and its
level-two relatives, eta, Delta, theta constants, Eisenstein series E_k,
the quasi-modular G_2 and the level-2 eps_2, the four weight-0 weak Jacobi
generators phi_{0,1..4}, all built from the odd theta series, Jacobi-Eisenstein
series E_{k,m}, and the product wp*theta^2 realized as eta^6 phi_{0,1} / 12.

Each constructor builds by one route; E_{k,m} sums Cohen numbers once per
class (4nm - r^2, +-r mod 2m) of its coefficients (Eichler-Zagier, Thms 2.1
and 2.2) and emits its rows directly.  The second routes that cross-check
them (theta from the triple product, the naive Euler product, Delta as eta^24)
live in `jacobiforms.checks`, the U_d V_l route to E_{k,m} in the tests; only
the cheap normalization asserts of jacobi_eis and phi stay here.  Constructors
are pure, their series immutable, and `series.memo_by_prec` answers lower
precisions from each form's highest build: a hit returns a shared,
already-canonical cut, and each kept build holds at most one cut per
precision it has served.
"""

from __future__ import annotations

import math
from fractions import Fraction
from jacobiforms.numtheory import (_h_num, _h_scale, bernoulli, divisors, factorize, mobius,
                                   require_ints, sigma, zeta_neg)
from jacobiforms.series import FJExp, QSeries, memo_by_prec, require_prec

HALF = Fraction(1, 2)


class UnknownFormError(KeyError):
    """A form name the catalog does not recognize."""


# ---------------------------------------------------------------------------
# theta series of level two
# ---------------------------------------------------------------------------

@memo_by_prec
def theta(prec: int) -> FJExp:
    """The odd theta series, weight 1/2 and index 1/2 (real-normalized):
    sum over odd n of kronecker(-4, n) q^(n^2/8) zeta^(n/2), which is
    theta_ab(1, 1)."""
    require_prec("theta", prec)
    return theta_ab(1, 1, prec)


@memo_by_prec
def theta_ab(two_a: int, two_b: int, prec: int) -> FJExp:
    """Level-two theta series with characteristic (a, b) = (two_a/2, two_b/2):
    sum over n = two_a (mod 2) of (-1)^(two_b*floor(n/2)) q^(n^2/8) zeta^(n/2),
    on its minimal scales.

    Only the four order-two characteristics exist here; the (1,1) case is
    real-normalized (it is :func:`theta`).  Other rational characteristics
    are reached through `FJExp.specialize` on theta powers.
    """
    require_ints("theta_ab", two_a, two_b)
    if (two_a, two_b) not in ((0, 0), (0, 1), (1, 0), (1, 1)):
        raise UnknownFormError(
            f"characteristic ({two_a}/2, {two_b}/2) is not order two; "
            f"specialize a theta power instead"
        )
    require_prec(f"theta{two_a}{two_b}", prec)
    top = math.isqrt(8 * prec - 1)  # n^2 < 8 * prec
    terms = {(n * n, n): (-1) ** (two_b * (n // 2) % 2)
             for n in range(-top, top + 1) if (n - two_a) % 2 == 0}
    return FJExp(8, 2, 8 * prec, terms, weight=HALF, index=HALF, cone_slack=0).normalized()


@memo_by_prec
def theta_const(two_a: int, two_b: int, prec: int) -> QSeries:
    """Theta constant: the z = 0 value of :func:`theta_ab`."""
    require_ints("theta_const", two_a, two_b)
    require_prec("theta_const", prec)
    return theta_ab(two_a, two_b, prec).eval_z0()


# ---------------------------------------------------------------------------
# eta, Delta, Eisenstein series
# ---------------------------------------------------------------------------

@memo_by_prec
def euler_product(prec: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) by the pentagonal number theorem:
    sum over k of (-1)^k q^(k(3k-1)/2)."""
    require_prec("euler_product", prec)
    terms = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 < prec:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < prec:
                terms[e] = -1 if k % 2 else 1
        k += 1
    return QSeries(1, prec, terms)


@memo_by_prec
def eta(prec: int) -> QSeries:
    """Dedekind eta: q^(1/24) prod (1 - q^n)."""
    require_prec("eta", prec)
    return euler_product(prec).shifted(Fraction(1, 24))


@memo_by_prec
def delta(prec: int) -> QSeries:
    """The discriminant cusp form q prod (1 - q^n)^24, which equals eta^24."""
    require_prec("delta", prec)
    return (euler_product(prec) ** 24).shifted(1).truncated(prec)


@memo_by_prec
def eisenstein(k: int, prec: int) -> QSeries:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n for even k >= 2."""
    require_ints("eisenstein", k)
    if k < 2 or k % 2:
        raise ValueError(f"eisenstein needs even k >= 2, got {k}")
    require_prec("eisenstein", prec)
    factor = Fraction(-2 * k) / Fraction(bernoulli(k))
    terms = {0: 1}
    for n in range(1, prec):
        terms[n] = factor * sigma(k - 1, n)
    return QSeries(1, prec, terms)


@memo_by_prec
def g2(prec: int) -> QSeries:
    """Quasi-modular G_2 = -1/24 + sum sigma_1(n) q^n, which is -E_2 / 24."""
    require_prec("g2", prec)
    return eisenstein(2, prec) * Fraction(-1, 24)


@memo_by_prec
def eps2(prec: int) -> QSeries:
    """The weight-2 level-2 Eisenstein series 2 E_2(2 tau) - E_2(tau)."""
    require_prec("eps2", prec)
    e2 = eisenstein(2, prec)
    return 2 * e2.substituted(2) - e2


# ---------------------------------------------------------------------------
# Jacobi-Eisenstein series
# ---------------------------------------------------------------------------

@memo_by_prec
def jacobi_eis(k: int, m: int, prec: int) -> FJExp:
    """Jacobi-Eisenstein series E_{k,m}, even k >= 4, from Cohen numbers
    (Eichler-Zagier, *The Theory of Jacobi Forms*, Thm 2.1): for r^2 <= 4nm,

        c(n, r) = P / zeta(3-2k) * sum_{d^2|m} mu(d) [d | r]
                  * sum_{e | gcd(n, r/d, m/d^2)} e^(k-1) H(k-1, (4nm - r^2) / (d^2 e^2))

    with P = m^(1-k) prod_{p|m} p^(k-1) / (p^(k-1) + 1), gcd(0, 0, l) = l
    and H = 0 off the integers: E_{k,1} | U_d V_{m/d^2}, term by term.  The
    inner sums add the integers H(k-1, N) S_{k-1} (`numtheory._h_num`), and
    the rows are built over the one denominator den(P / zeta(3-2k)) S_{k-1}.
    A coefficient of a Jacobi form of index m depends only on 4nm - r^2 and
    r mod 2m (Thm 2.2), and E_{k,m} is even in r, so the sum is evaluated
    once per class (4nm - r^2, +-r mod 2m) and each row n, symmetric in r,
    is built from its half r >= 0."""
    require_ints("jacobi_eis", k, m)
    if m < 1:
        raise ValueError(f"jacobi_eis needs m >= 1, got {m}")
    if k < 4 or k % 2:
        raise ValueError(f"jacobi_eis needs even k >= 4, got {k}")
    require_prec("jacobi_eis", prec)
    pref = Fraction(math.prod(Fraction(p ** (k - 1), p ** (k - 1) + 1) for p, _ in factorize(m)),
                    m ** (k - 1)) / zeta_neg(3 - 2 * k)
    squares = [(d, mobius(d), m // (d * d)) for d in divisors(m) if m % (d * d) == 0 and mobius(d)]
    classes = {}  # (4nm - r^2, +-r mod 2m) -> the numerator of c(n, r)
    rows = []
    for n in range(prec):
        half = []  # the numerators at r = 0, 1, ..., up to the last nonzero one
        for r in range(math.isqrt(4 * n * m) + 1):
            disc = 4 * n * m - r * r
            key = (disc, min(r % (2 * m), -r % (2 * m)))
            num = classes.get(key)
            if num is None:
                acc = 0
                for d, mu, l in squares:
                    if r % d == 0:
                        for e in divisors(math.gcd(n, r // d, l)):
                            h, rest = divmod(disc, d * d * e * e)
                            if not rest:
                                acc += mu * e ** (k - 1) * _h_num(k - 1, h)
                num = classes[key] = pref.numerator * acc
            half.append(num)
        while half and not half[-1]:
            half.pop()
        if half:
            rows.append((n, 1 - len(half), (*half[:0:-1], *half)))
    den = pref.denominator * _h_scale(k - 1)
    if classes[0, 0] != den:
        raise RuntimeError(f"E_{{{k},{m}}} normalization check failed")
    return FJExp._reduced(1, 1, prec, den, rows, 1, (k, m, 0))


@memo_by_prec
def jacobi_eis_m1(k: int, prec: int) -> FJExp:
    """E_{k,1}, the m = 1 case of :func:`jacobi_eis`: c(n, r) = H(k-1, 4n - r^2) / zeta(3 - 2k)."""
    require_ints("jacobi_eis_m1", k)
    if k < 4 or k % 2:
        raise ValueError(f"jacobi_eis_m1 needs even k >= 4, got {k}")
    require_prec("jacobi_eis_m1", prec)
    return jacobi_eis(k, 1, prec)


# ---------------------------------------------------------------------------
# weight-0 weak Jacobi generators and the wp product
# ---------------------------------------------------------------------------

def _d_zeta(f: FJExp) -> FJExp:
    """D = zeta d/dzeta, term by term: c q^(t/s) zeta^(r/w) -> (r/w) c q^(t/s) zeta^(r/w)."""
    w = f.zscale
    return FJExp(f.qscale, w, f.prec, {(t, r): Fraction(r * c, w) for (t, r), c in f.terms.items()})


_PHI_Q0 = {
    1: {Fraction(1): 1, Fraction(0): 10, Fraction(-1): 1},
    2: {Fraction(1): 1, Fraction(0): 4, Fraction(-1): 1},
    3: {Fraction(1): 1, Fraction(0): 2, Fraction(-1): 1},
    4: {Fraction(1): 1, Fraction(0): 1, Fraction(-1): 1},
}


@memo_by_prec
def phi(j: int, prec: int) -> FJExp:
    """The weak Jacobi form phi_{0,j} of weight 0 and index j (j = 1..4),
    from the odd theta series alone (Eichler-Zagier, section 3 and Thm 9.3):
    with D = zeta d/dzeta and phi_{-2,1} = -theta^2 / eta^6,

        phi_{0,1} = (12 ((D theta)^2 - theta D^2 theta) + E_2 theta^2) / eta^6 = 12 wp theta^2 / eta^6,
        phi_{0,2} = (phi_{0,1}^2 - E_4 phi_{-2,1}^2) / 24, from the memoized phi_{0,1},

    and phi_{0,3}, phi_{0,4} are exact quotients of theta rescalings.  The
    constant zeta-polynomials are asserted on construction.
    """
    require_ints("phi", j)
    if j not in (1, 2, 3, 4):
        raise UnknownFormError(f"phi_{{0,{j}}} is not a generator (j must be 1..4)")
    require_prec("phi", prec)
    work = prec + 1
    th = theta(work)
    if j == 1:
        d1 = _d_zeta(th)
        num = 12 * (d1 * d1 - th * _d_zeta(d1)) + eisenstein(2, work) * th * th
        result = num * (eta(work) ** 6).inverse()
    elif j == 2:
        phi1 = phi(1, prec)
        result = (phi1 * phi1 - th ** 4 * (eisenstein(4, work) * (eta(work) ** 12).inverse())) / 24
    elif j == 3:
        ratio = th.ud(2).divide(th)
        result = ratio * ratio
    else:
        result = th.ud(3).divide(th)
    result = result.truncated(prec).normalized().with_meta(weight=0, index=j, cone_slack=j)
    if result.q_slice(0) != _PHI_Q0[j]:
        raise RuntimeError(f"phi_{{0,{j}}} self-check failed: wrong q^0 term")
    return result


@memo_by_prec
def wp_theta2(prec: int) -> FJExp:
    """The product of the Weierstrass wp-function with theta^2, weight 3 and
    index 1: (D theta)^2 - theta D^2 theta + E_2 theta^2 / 12 (D = zeta d/dzeta),
    which is eta^6 phi_{0,1} / 12.  It is built as the latter, whose scales
    (24, 1) the serialized form records; a build from theta would have (8, 2).
    wp itself is meromorphic and never constructed.
    """
    require_prec("wp_theta2", prec)
    result = (eta(prec) ** 6) * phi(1, prec) * Fraction(1, 12)
    return result.with_meta(weight=3, index=1, cone_slack=0)


# ---------------------------------------------------------------------------
# form lookup by name (the CLI surface)
# ---------------------------------------------------------------------------

# name -> (argument count, constructor); each entry calls its constructor by
# its module name, so a wrapper bound to that name later is the one called
_FORMS = {
    "theta": (0, lambda p: theta(p)),
    "theta00": (0, lambda p: theta_ab(0, 0, p)),
    "theta01": (0, lambda p: theta_ab(0, 1, p)),
    "theta10": (0, lambda p: theta_ab(1, 0, p)),
    "theta11": (0, lambda p: theta_ab(1, 1, p)),
    "eta": (0, lambda p: eta(p)),
    "delta": (0, lambda p: delta(p)),
    "g2": (0, lambda p: g2(p)),
    "eps2": (0, lambda p: eps2(p)),
    "wp_theta2": (0, lambda p: wp_theta2(p)),
    "ek": (1, lambda k, p: eisenstein(k, p)),
    "phi": (1, lambda j, p: phi(j, p)),
    "jacobi_eis": (2, lambda k, m, p: jacobi_eis(k, m, p)),
    "theta_const": (2, lambda a, b, p: theta_const(a, b, p)),
}


def form_by_name(name: str, prec: int):
    """Resolve a lower-snake form name like "theta", "ek:4", "jacobi_eis:4,4",
    "phi:3" or "theta_const:1,0" to its expansion at the given precision.

    A name that is not a str raises TypeError; an unknown name or arguments
    that do not parse raise UnknownFormError; a constructor's own
    precondition (bad precision, odd weight) raises its ValueError unchanged."""
    if not isinstance(name, str):
        raise TypeError(f"form_by_name needs a str name, got {name!r}")
    base, _, argtext = name.partition(":")
    try:
        args = [int(a) for a in argtext.split(",")] if argtext else []
    except ValueError:
        raise UnknownFormError(f"bad arguments for form {name!r}") from None
    if base not in _FORMS:
        raise UnknownFormError(f"unknown form {name!r}")
    arity, build = _FORMS[base]
    if len(args) != arity:
        raise UnknownFormError(f"form {base!r} takes {arity} argument(s), got {len(args)}")
    return build(*args, prec)


FORM_NAMES = (
    "theta", "theta00", "theta01", "theta10", "theta11",
    "eta", "delta", "ek:K", "g2", "eps2",
    "phi:J", "jacobi_eis:K,M", "theta_const:2A,2B", "wp_theta2",
)
