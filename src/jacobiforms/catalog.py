"""Constructors for the named forms: the odd Jacobi theta series and its
level-two relatives, eta, Delta, theta constants, Eisenstein series E_k,
the quasi-modular G_2 and the level-2 eps_2, the four weight-0 weak Jacobi
generators phi_{0,1..4}, Jacobi-Eisenstein series E_{k,m}, and the product
wp*theta^2 realized as eta^6 phi_{0,1} / 12.

Each constructor builds by one route.  The second routes that cross-check
them (theta from the triple product, the naive Euler product, Delta as
eta^24) live in `jacobiforms.checks`; only the cheap normalization asserts
of jacobi_eis and phi stay here.  Constructors are pure, their series immutable,
and `series.memo_by_prec` cuts lower precisions from each form's highest build.
"""

from __future__ import annotations

import math
from fractions import Fraction
from jacobiforms.numtheory import bernoulli, cohen_h, factorize, kronecker, mobius, sigma, zeta_neg
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
    sum over odd n of kronecker(-4, n) q^(n^2/8) zeta^(n/2)."""
    require_prec("theta", prec)
    big_p = 8 * prec
    terms = {}
    n = 1
    while n * n < big_p:
        for s in (n, -n):
            terms[(s * s, s)] = kronecker(-4, s)
        n += 2
    return FJExp(8, 2, big_p, terms, weight=HALF, index=HALF, cone_slack=0)


@memo_by_prec
def theta_ab(two_a: int, two_b: int, prec: int) -> FJExp:
    """Level-two theta series with characteristic (a, b) = (two_a/2, two_b/2).

    Only the four order-two characteristics exist here; the (1,1) case is
    returned real-normalized (equal to :func:`theta`).  Other rational
    characteristics are reached through `FJExp.specialize` on theta powers.
    """
    if (two_a, two_b) not in ((0, 0), (0, 1), (1, 0), (1, 1)):
        raise UnknownFormError(
            f"characteristic ({two_a}/2, {two_b}/2) is not order two; "
            f"specialize a theta power instead"
        )
    require_prec(f"theta{two_a}{two_b}", prec)
    if (two_a, two_b) == (1, 1):
        return theta(prec)
    if two_a == 0:
        big_p = 2 * prec
        terms = {}
        n = 0
        while n * n < big_p:
            for s in {n, -n}:
                terms[(s * s, s)] = (-1 if s & 1 else 1) if two_b else 1
            n += 1
        return FJExp(2, 1, big_p, terms, weight=HALF, index=HALF, cone_slack=0)
    # (1, 0): q^(1/8) zeta^(1/2) sum q^(n(n+1)/2) zeta^n
    big_p = 8 * prec
    terms = {}
    n = 0
    while 4 * n * (n + 1) + 1 < big_p:
        for s in (n, -n - 1):
            terms[(4 * s * (s + 1) + 1, 2 * s + 1)] = 1
        n += 1
    return FJExp(8, 2, big_p, terms, weight=HALF, index=HALF, cone_slack=0)


@memo_by_prec
def theta_const(two_a: int, two_b: int, prec: int) -> QSeries:
    """Theta constant: the z = 0 value of :func:`theta_ab`."""
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
    """Quasi-modular G_2 = -1/24 + sum sigma_1(n) q^n."""
    require_prec("g2", prec)
    terms = {0: Fraction(-1, 24)}
    for n in range(1, prec):
        terms[n] = sigma(1, n)
    return QSeries(1, prec, terms)


@memo_by_prec
def eps2(prec: int) -> QSeries:
    """The weight-2 level-2 Eisenstein series 2 E_2(2 tau) - E_2(tau)."""
    require_prec("eps2", prec)
    e2 = eisenstein(2, prec)
    return (2 * e2.substituted(2).truncated(prec) - e2).truncated(prec)


# ---------------------------------------------------------------------------
# Jacobi-Eisenstein series
# ---------------------------------------------------------------------------

@memo_by_prec
def jacobi_eis_m1(k: int, prec: int) -> FJExp:
    """Index-1 Jacobi-Eisenstein series: coefficients are normalized Cohen
    numbers H(k-1, 4n - r^2) / zeta(3 - 2k) on the support r^2 <= 4n."""
    if k < 4 or k % 2:
        raise ValueError(f"jacobi_eis_m1 needs even k >= 4, got {k}")
    require_prec("jacobi_eis_m1", prec)
    z = Fraction(zeta_neg(3 - 2 * k))
    terms = {}
    for n in range(prec):
        rmax = math.isqrt(4 * n)
        for r in range(-rmax, rmax + 1):
            if r * r <= 4 * n:
                terms[(n, r)] = Fraction(cohen_h(k - 1, 4 * n - r * r)) / z
    return FJExp(1, 1, prec, terms, weight=k, index=1, cone_slack=0)


@memo_by_prec
def jacobi_eis(k: int, m: int, prec: int) -> FJExp:
    """Index-m Jacobi-Eisenstein series via the index-raising operators:

        E_{k,m} = m^(1-k) prod_{p|m} (1 + p^(1-k))^(-1)
                  * sum_{d^2|m} mu(d) (E_{k,1} | U_d V_{m/d^2}).
    """
    if m < 1:
        raise ValueError(f"jacobi_eis needs m >= 1, got {m}")
    require_prec("jacobi_eis", prec)
    if m == 1:
        return jacobi_eis_m1(k, prec)
    base = jacobi_eis_m1(k, m * prec)
    acc = None
    for d in range(1, math.isqrt(m) + 1):
        if m % (d * d):
            continue
        mu = mobius(d)
        if mu == 0:
            continue
        piece = base.ud(d).vl(m // (d * d), k) * mu
        acc = piece if acc is None else acc + piece
    pref = Fraction(1, m ** (k - 1))
    for p, _ in factorize(m):
        pref *= Fraction(p ** (k - 1), p ** (k - 1) + 1)
    result = (acc * pref).truncated(prec).with_meta(weight=k, index=m, cone_slack=0)
    if result.coefficient(0, 0) != 1:
        raise RuntimeError(f"E_{{{k},{m}}} normalization check failed")
    return result


# ---------------------------------------------------------------------------
# weight-0 weak Jacobi generators and the wp product
# ---------------------------------------------------------------------------

@memo_by_prec
def _xi_squared(two_a: int, two_b: int, prec: int) -> FJExp:
    """(theta_ab(tau, z) / theta_ab(tau))^2 at an internal working precision."""
    num = theta_ab(two_a, two_b, prec)
    den = theta_const(two_a, two_b, prec)
    ratio = num * den.inverse()
    return ratio * ratio


_PHI_Q0 = {
    1: {Fraction(1): 1, Fraction(0): 10, Fraction(-1): 1},
    2: {Fraction(1): 1, Fraction(0): 4, Fraction(-1): 1},
    3: {Fraction(1): 1, Fraction(0): 2, Fraction(-1): 1},
    4: {Fraction(1): 1, Fraction(0): 1, Fraction(-1): 1},
}


@memo_by_prec
def phi(j: int, prec: int) -> FJExp:
    """The weak Jacobi form phi_{0,j} of weight 0 and index j (j = 1..4).

    phi_{0,1} and phi_{0,2} come from the squared quotients of the level-two
    theta series by their theta constants; phi_{0,3} and phi_{0,4} are exact
    quotients of theta rescalings.  The constant zeta-polynomials are
    asserted on construction.
    """
    if j not in (1, 2, 3, 4):
        raise UnknownFormError(f"phi_{{0,{j}}} is not a generator (j must be 1..4)")
    require_prec("phi", prec)
    work = prec + 1
    if j == 1:
        result = 4 * (_xi_squared(0, 0, work) + _xi_squared(0, 1, work) + _xi_squared(1, 0, work))
    elif j == 2:
        x00, x01, x10 = (_xi_squared(a, b, work) for a, b in ((0, 0), (0, 1), (1, 0)))
        result = 2 * (x00 * x01 + x00 * x10 + x10 * x01)
    elif j == 3:
        th = theta(work)
        ratio = th.ud(2).divide(th)
        result = ratio * ratio
    else:
        th = theta(work)
        result = th.ud(3).divide(th)
    result = result.truncated(prec).normalized().with_meta(weight=0, index=j, cone_slack=j)
    if result.q_slice(0) != _PHI_Q0[j]:
        raise RuntimeError(f"phi_{{0,{j}}} self-check failed: wrong q^0 term")
    return result


@memo_by_prec
def wp_theta2(prec: int) -> FJExp:
    """The product of the Weierstrass wp-function with theta^2, weight 3 and
    index 1, realized as eta^6 phi_{0,1} / 12.

    wp itself is meromorphic and never constructed; only this holomorphic
    product (and its powers against theta powers) ever appears.
    """
    require_prec("wp_theta2", prec)
    result = (eta(prec + 1) ** 6) * phi(1, prec + 1) * Fraction(1, 12)
    return result.truncated(prec).with_meta(weight=3, index=1, cone_slack=0)


# ---------------------------------------------------------------------------
# form lookup by name (the CLI surface)
# ---------------------------------------------------------------------------

def form_by_name(name: str, prec: int):
    """Resolve a lower-snake form name like "theta", "ek:4", "jacobi_eis:4,4",
    "phi:3" or "theta_const:1,0" to its expansion at the given precision.

    An unknown name or arguments that do not parse raise UnknownFormError;
    a constructor's own precondition (bad precision, odd weight) raises its
    ValueError unchanged."""
    base, _, argtext = name.partition(":")
    try:
        args = [int(a) for a in argtext.split(",")] if argtext else []
    except ValueError:
        raise UnknownFormError(f"bad arguments for form {name!r}") from None
    forms = {
        "theta": (0, theta),
        "theta00": (0, lambda p: theta_ab(0, 0, p)),
        "theta01": (0, lambda p: theta_ab(0, 1, p)),
        "theta10": (0, lambda p: theta_ab(1, 0, p)),
        "theta11": (0, lambda p: theta_ab(1, 1, p)),
        "eta": (0, eta),
        "delta": (0, delta),
        "g2": (0, g2),
        "eps2": (0, eps2),
        "wp_theta2": (0, wp_theta2),
        "ek": (1, eisenstein),
        "phi": (1, phi),
        "jacobi_eis": (2, jacobi_eis),
        "theta_const": (2, theta_const),
    }
    if base not in forms:
        raise UnknownFormError(f"unknown form {name!r}")
    arity, build = forms[base]
    if len(args) != arity:
        raise UnknownFormError(f"form {base!r} takes {arity} argument(s), got {len(args)}")
    return build(*args, prec)


FORM_NAMES = (
    "theta", "theta00", "theta01", "theta10", "theta11",
    "eta", "delta", "ek:K", "g2", "eps2",
    "phi:J", "jacobi_eis:K,M", "theta_const:2A,2B", "wp_theta2",
)
