"""Registry of machine-checkable series identities.

Each entry names one displayed identity (a theta-power decomposition into
Jacobi-Eisenstein series, a theta-constant formula, a Cohen-number divisor
sum, a cusp-correction formula, ...), builds both sides from catalog /
series / lattice primitives at a requested precision, and verifies exact
equality of the coefficient maps on that window.  Verification is never
probabilistic: a single differing coefficient fails the identity and is
reported with its exponents and both values.

`verify` owns the comparison window: it rejects a side certified on a
window that ends below q^prec and compares both sides exactly below q^prec,
so a builder returns each side on any window that reaches prec and never
truncates.  A builder asks a constructor for one of three precisions: prec
itself; what an exact planner (`prec_for_specialize`, `prec_for_eval_linear`)
returns for the target prec, less any shift that then raises the pulled-back
window; or prec + k, where a named Laurent step (a shift, an inverse, a
coefficient read past q^prec) uses up k, stated in a one-line comment.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from jacobiforms import catalog as cat
from jacobiforms import lattice
from jacobiforms.catalog import HALF
from jacobiforms.numtheory import rational_str, sigma, sigma_rational, zeta_neg
from jacobiforms.representations import (
    _F_DEN,
    _f_num,
    _h3_odd_r_sum,
    _odd_nonsquare,
    _sign,
    cone_points,
    delta16,
    formula_delta8,
    formula_r8,
    h_window_sum,
    r16,
    tau,
)
from jacobiforms.series import FJExp, QSeries, prec_for_eval_linear, prec_for_specialize, require_prec


class UnknownIdentityError(KeyError):
    """An identity id that is not in the registry."""


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    build: Callable[[int], tuple]
    default_prec: int = 8


@dataclass(frozen=True)
class IdentityReport:
    id: str
    prec: int
    status: str  # "pass" | "fail"
    first_mismatch: Optional[tuple] = None  # (q_exp, z_exp | None, lhs, rhs)
    # seconds to build both sides and to compare them: not part of the result
    build_s: float = field(default=0.0, compare=False)
    compare_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {"id": self.id, "prec": self.prec, "status": self.status}
        if self.first_mismatch is not None:
            q, z, lhs, rhs = self.first_mismatch
            out["mismatch"] = {
                "q_exponent": str(q),
                "z_exponent": None if z is None else str(z),
                "lhs": rational_str(lhs),
                "rhs": rational_str(rhs),
            }
        return out

    def __str__(self) -> str:
        line = f"{self.id}: {self.status} (prec {self.prec})"
        if self.first_mismatch is not None:
            q, z, lhs, rhs = self.first_mismatch
            where = f"q^{q}" if z is None else f"q^{q} zeta^{z}"
            line += f"  first mismatch at {where}: {rational_str(lhs)} != {rational_str(rhs)}"
        return line


# ---------------------------------------------------------------------------
# small builder helpers
# ---------------------------------------------------------------------------

def _qs_from(prec: int, fn, keys=None, den: int = 1) -> QSeries:
    """QSeries with integer exponents n < prec and coefficients fn(n) / den."""
    if keys is None:
        keys = range(prec)
    return QSeries._make(1, 1, prec, *QSeries._gridded({n: c for n in keys if (c := fn(n))}, den))


def _eis_2z(k: int, m: int, prec: int) -> FJExp:
    return cat.jacobi_eis(k, m, prec).ud(2)


def _index4_window(k: int, prec: int) -> FJExp:
    """f4 (k = 3) or f6 (k = 5) on n < prec and r^2 <= 16 n, the index-4
    cone, as the integers `_f_num` over `_F_DEN[k]`: f4 and f6 vanish
    outside the cone, and a term of the other side there still mismatches."""
    nums = {(n, r): c for n in range(prec) for r in range(-math.isqrt(16 * n), math.isqrt(16 * n) + 1)
            if (c := _f_num(k, n, r))}
    return FJExp._make(1, 1, prec, *FJExp._gridded(nums, _F_DEN[k]))


def _eta12_theta10_4(prec: int) -> QSeries:
    """The first level-2 cusp form eta^12 * theta_10^4 as a q-series."""
    return cat.eta(prec) ** 12 * cat.theta_const(1, 0, prec) ** 4


def _eta12_2tau(prec: int) -> QSeries:
    """eta(2 tau)^12."""
    return (cat.eta(prec) ** 12).substituted(2)


def _e_series(k: int, prec: int, sub: int = 1) -> QSeries:
    """E_k(sub * tau)."""
    return cat.eisenstein(k, (prec + sub - 1) // sub).substituted(sub)


def _spec_half(k: int, m: int, prec: int, lam: Fraction = Fraction(0)) -> QSeries:
    """E_{k,m} pulled back to z = lam*tau + 1/2, automorphy prefactor included."""
    return cat.jacobi_eis(k, m, prec_for_specialize(prec, m, lam, 0)).specialize(lam, HALF)


def _cone_violation_pair(fj: FJExp, index: int, strict: bool):
    """Terms outside the holomorphic (or, when strict, cuspidal) cone,
    paired with a zero expansion of the same precision."""
    lhs = FJExp(fj.qscale, fj.zscale, fj.prec, dict(fj._outside_cone(index, 0, strict)))
    return lhs, FJExp(fj.qscale, fj.zscale, fj.prec, {})


# ---------------------------------------------------------------------------
# builders, grouped as in the registry
# ---------------------------------------------------------------------------

def _b_t31_theta8(prec):
    return cat.theta(prec) ** 8, _eis_2z(4, 1, prec) - cat.jacobi_eis(4, 4, prec)


def _b_t31_f4(prec):
    return (cat.theta(prec) ** 8).normalized(), _index4_window(3, prec)


def _b_t31_wp8(prec):
    lhs = (12 * cat.wp_theta2(prec)) * cat.theta(prec) ** 6
    return lhs, _eis_2z(6, 1, prec) - cat.jacobi_eis(6, 4, prec)


def _b_t31_f6(prec):
    lhs = _eis_2z(6, 1, prec) - cat.jacobi_eis(6, 4, prec)
    return lhs.normalized(), _index4_window(5, prec)


def _b_r31_a(prec):
    th = cat.theta(prec)
    return th.ud(3) * th**7, cat.jacobi_eis(4, 8, prec) - _eis_2z(4, 2, prec)


def _b_r31_b(prec):
    th = cat.theta(prec)
    lhs = th.ud(2) ** 2 * th**6 * cat.phi(2, prec)
    return lhs, cat.jacobi_eis_m1(4, prec).ud(3) - cat.jacobi_eis(4, 9, prec)


def _b_r31_c(prec):
    th = cat.theta(prec)
    return th.ud(3) ** 2 * th**6, _eis_2z(4, 3, prec) - cat.jacobi_eis(4, 12, prec)


def _b_l32_e8(prec):
    lhs = cat.theta(prec) ** 8
    rhs = lattice.jacobi_theta_e8(lattice.U2, prec).ud(2) - lattice.jacobi_theta_e8(lattice.U8, prec)
    return lhs, rhs


def _b_l32_u2(prec):
    return lattice.jacobi_theta_e8(lattice.U2, prec), cat.jacobi_eis_m1(4, prec)


def _b_l32_u8(prec):
    return lattice.jacobi_theta_e8(lattice.U8, prec), cat.jacobi_eis(4, 4, prec)


def _b_l21_e10(prec):
    rhs = (Fraction(23037, 43867) * (cat.jacobi_eis_m1(6, prec) * cat.eisenstein(4, prec))
           + Fraction(20830, 43867) * (cat.jacobi_eis_m1(4, prec) * cat.eisenstein(6, prec)))
    return cat.jacobi_eis_m1(10, prec), rhs


def _b_l21_e12(prec):
    e4 = cat.eisenstein(4, prec)
    rhs = (Fraction(27850, 77683) * (cat.jacobi_eis_m1(6, prec) * cat.eisenstein(6, prec))
           + Fraction(49833, 77683) * (cat.jacobi_eis_m1(4, prec) * (e4 * e4)))
    return cat.jacobi_eis_m1(12, prec), rhs


def _b_l21_delta(prec):
    lhs = cat.jacobi_eis_m1(12, prec).eval_z0()
    rhs = cat.eisenstein(12, prec) + Fraction(304819200, 53678953) * cat.delta(prec)
    return lhs, rhs


def _b_l21_tau(prec):
    keys = range(1, prec)
    return (_qs_from(prec, lambda n: tau(n, "via_h11"), keys),
            _qs_from(prec, lambda n: tau(n, "direct"), keys))


def _b_c33_eta8(prec):
    inner = prec_for_eval_linear(prec - 5, 4, 3, 2, 0)  # shifted(5) raises the window by 5
    lhs = cat.euler_product(prec) ** 8
    rhs = (cat.theta(inner) ** 8).eval_linear(3, 2).shifted(5)
    return lhs, rhs


def _b_c33_eta8_eis(prec):
    lhs = cat.euler_product(prec) ** 8
    p1 = prec_for_eval_linear(prec, 1, 3, 1, 0)
    p2 = prec_for_eval_linear(prec - 5, 4, 3, 2, 0)  # shifted(5) raises the window by 5
    rhs = (cat.jacobi_eis_m1(4, p1).eval_linear(3, 1)
           - cat.jacobi_eis(4, 4, p2).eval_linear(3, 2).shifted(5))
    return lhs, rhs


def _b_c33_eta8_conv(prec):
    lhs = cat.euler_product(prec) ** 8
    # 3m + 2r + 5 = n, 16m >= r^2
    return lhs, _qs_from(prec, lambda n: sum(_f_num(3, m, r) for r, m in cone_points(n - 5, 2, 3)),
                         den=_F_DEN[3])


def _b_s32_spec(k: int, m: int, combo):
    def build(prec):
        rhs = None
        for coeff, sub in combo:
            piece = coeff * _e_series(k, prec, sub)
            rhs = piece if rhs is None else rhs + piece
        return _spec_half(k, m, prec), rhs
    return build


def _odd(r: int) -> int:
    return r & 1


def _b_s32_cohen(r_cohen: int, parity: int, factor: Fraction, sig: int):
    def build(prec):
        keys = range(1, prec, 2)
        lhs = _qs_from(prec, lambda n: h_window_sum(r_cohen, 8 * n, lambda r: r % 2 == parity), keys)
        return lhs, _qs_from(prec, lambda n: factor * sigma(sig, n), keys)
    return build


def _b_s32_cohen_all_n(prec):
    def lhs_fn(n):  # positive odd r: half the symmetric sum
        return HALF * h_window_sum(3, 4 * n, _odd)
    def rhs_fn(n):
        return (Fraction(-2, 9) * sigma(3, n) - Fraction(2, 7) * sigma_rational(3, Fraction(n, 2))
                + Fraction(32, 63) * sigma_rational(3, Fraction(n, 4)))
    keys = range(1, prec)
    return _qs_from(prec, lhs_fn, keys), _qs_from(prec, rhs_fn, keys)


def _b_s32_t10_8(prec):
    lhs = (cat.theta(prec) ** 8).specialize(0, HALF)
    rhs = Fraction(16, 15) * (_e_series(4, prec) - _e_series(4, prec, 2))
    return lhs, rhs


def _b_s32_t10_8_const(prec):
    return (cat.theta(prec) ** 8).specialize(0, HALF), cat.theta_const(1, 0, prec) ** 8


def _b_s32_t10_8_delta(prec):
    keys = [n for n in range(1, prec) if _odd_nonsquare(n)]
    def rhs_fn(n):
        return (Fraction(7, 2) * h_window_sum(3, 16 * n, _sign)
                - Fraction(511, 2) * h_window_sum(3, 4 * n, lambda r: 1))
    return (_qs_from(prec, lambda n: 256 * formula_delta8(n - 1), keys),
            _qs_from(prec, rhs_fn, keys))


def _b_s32_t01_8(prec):
    lhs = (cat.theta_const(0, 1, prec) ** 8).substituted(2)
    rhs = Fraction(-1, 15) * _e_series(4, prec) + Fraction(16, 15) * _e_series(4, prec, 2)
    return lhs, rhs


def _b_s32_t01_8_e44(prec):
    lhs = (cat.theta_const(0, 1, prec) ** 8).substituted(2)
    inner = prec_for_eval_linear(prec - 2, 4, 2, 1, 0)  # shifted(2) raises the window by 2
    rhs = _e_series(4, prec, 2) - cat.jacobi_eis(4, 4, inner).eval_linear(2, 1).shifted(2)
    return lhs, rhs


def _b_s32_t01_8_conv(prec):
    lhs = (cat.theta_const(0, 1, prec) ** 8).substituted(2)
    # 2m + r + 2 = n, 16m >= r^2
    return lhs, _qs_from(prec, lambda n: sum(_f_num(3, m, r) for r, m in cone_points(n - 2, 1, 2)),
                         den=_F_DEN[3])


def _b_s32_r8_odd(prec):
    keys = range(1, prec, 2)
    # 2m + r = n - 2, 16m > r^2 (r is odd with n)
    return (_qs_from(prec, formula_r8, keys),
            _qs_from(prec, lambda n: _h3_odd_r_sum(cone_points(n - 2, 1, 2)), keys))


def _b_s32_eps2_consts(prec):
    lhs = 2 * cat.eps2(prec) * (cat.theta(prec) ** 8).specialize(0, HALF)
    t10, t00, t01 = (cat.theta_const(a, b, prec) for a, b in ((1, 0), (0, 0), (0, 1)))
    return lhs, (t10 ** 8) * (t00**4 + t01**4)


def _b_s32_eps2_eis(prec):
    lhs = 2 * cat.eps2(prec) * (cat.theta(prec) ** 8).specialize(0, HALF)
    return lhs, _spec_half(6, 4, prec) - _e_series(6, prec)


def _b_s32_eps2_level(prec):
    lhs = 2 * cat.eps2(prec) * (cat.theta(prec) ** 8).specialize(0, HALF)
    return lhs, Fraction(64, 63) * (_e_series(6, prec, 2) - _e_series(6, prec))


def _b_s32_spec_64_62(prec):
    return _spec_half(6, 4, prec), _spec_half(6, 2, prec)


def _b_s32_eps2_tau_half(prec):
    t10, t00, t01 = (cat.theta_const(a, b, prec) for a, b in ((1, 0), (0, 0), (0, 1)))
    return (t00 ** 8) * (t01**4 - t10**4), _e_series(6, prec) - _spec_half(6, 4, prec, HALF)


def _b_s32_eps2_wp(prec):
    lhs = cat.wp_theta2(prec).specialize(0, HALF)
    return lhs, cat.eps2(prec) * (cat.theta_const(1, 0, prec) ** 2) * Fraction(1, 6)


def _b_p41(coeff: Fraction, m: int):
    def build(prec):
        lhs = _spec_half(8, m, prec)
        rhs = (Fraction(256, 255) * _e_series(8, prec, 2) - Fraction(1, 255) * _e_series(8, prec)
               + coeff * _eta12_theta10_4(prec))
        return lhs, rhs
    return build


def _e82_half_coeff(n: int) -> Fraction:
    """The q^n coefficient of E_{8,2}(tau, 1/2): sum over r^2 <= 8n of (-1)^r
    sum_{d | (n, r, 2)} d^7 H(7, (8n - r^2)/d^2), over 129 zeta(-13); the
    d = 2 terms are r = 2s, H(7, 2n - s^2)."""
    acc = h_window_sum(7, 8 * n, _sign)
    if n % 2 == 0:
        acc += 128 * h_window_sum(7, 2 * n, lambda r: 1)
    return acc / (129 * Fraction(zeta_neg(-13)))


def _b_p41_e82_series(prec):
    return _spec_half(8, 2, prec), _qs_from(prec, _e82_half_coeff)


def _b_p41_an(prec):
    keys = range(1, prec, 2)
    z = Fraction(zeta_neg(-13))
    def rhs_fn(n):
        return Fraction(86, 135) * sigma(7, n) + Fraction(17, 6480) * h_window_sum(7, 8 * n, _sign) / z
    return _qs_from(prec, _eta12_theta10_4(prec).coefficient, keys), _qs_from(prec, rhs_fn, keys)


def _b_p41_diff(prec):
    lhs = _eta12_theta10_4(prec)
    rhs = Fraction(43, 135) * (_spec_half(8, 2, prec) - _spec_half(8, 4, prec))
    return lhs, rhs


def _b_s41_eta_a(prec):
    lhs = _eta12_theta10_4(prec)
    return lhs, 16 * (cat.eta(prec) ** 8 * (cat.eta(prec) ** 8).substituted(2))


def _b_s41_eta_b(prec):
    return cat.eta(prec) ** 6 * cat.theta_const(1, 0, prec) ** 6, 64 * _eta12_2tau(prec)


def _b_p42_e61(prec):
    lhs = _spec_half(6, 1, prec)
    rhs = (Fraction(1, 63) * _e_series(6, prec) - Fraction(22, 21) * _e_series(6, prec, 2)
           + Fraction(128, 63) * _e_series(6, prec, 4) - 144 * _eta12_2tau(prec))
    return lhs, rhs


def _b_p42_diff(prec):
    lhs = _spec_half(6, 3, prec) - _spec_half(6, 1, prec)
    return lhs, Fraction(9216, 61) * _eta12_2tau(prec)


def _b_p42_b_odd(prec):
    keys = range(1, prec, 2)
    def rhs_fn(k):  # 4k = 8n + 4 for k = 2n + 1
        return (Fraction(11, 12) * h_window_sum(5, 4 * k, _sign)
                - Fraction(1, 18) * sigma(5, k))
    return _qs_from(prec, _eta12_2tau(prec).coefficient, keys), _qs_from(prec, rhs_fn, keys)


def _b_p42_b_even(prec):
    keys = range(1, prec)
    def lhs_fn(n):  # positive odd r: half the symmetric sum
        return HALF * h_window_sum(5, 8 * n, _odd)
    def rhs_fn(n):
        return (Fraction(31, 33) * sigma(5, 2 * n) + sigma(5, n)
                - Fraction(64, 33) * sigma_rational(5, Fraction(n, 2)))
    return _qs_from(prec, lhs_fn, keys), _qs_from(prec, rhs_fn, keys)


def _eta_eta3_6(prec: int) -> QSeries:
    return cat.eta(prec) ** 6 * (cat.eta(prec) ** 6).substituted(3)


def _b_p43_e63(prec):
    lhs = cat.jacobi_eis(6, 3, prec).specialize(0, Fraction(1, 3))
    rhs = (Fraction(-1, 728) * _e_series(6, prec) + Fraction(729, 728) * _e_series(6, prec, 3)
           - Fraction(28512, 793) * _eta_eta3_6(prec))
    return lhs, rhs


def _p43_cn_coeff(n: int) -> Fraction:
    """The q^n coefficient of (eta(tau) eta(3 tau))^6: sigma terms plus 13/1728
    of the sum over r^2 <= 12n of w(r) sum_{d | (n, r, 3)} d^5 H(5, (12n - r^2)/d^2),
    w(r) = 2 at 3 | r and -1 otherwise; the d = 3 terms are r = 3s,
    H(5, 4n/3 - s^2), with weight 2 * 3^5."""
    acc = h_window_sum(5, 12 * n, lambda r: 2 if r % 3 == 0 else -1)
    if n % 3 == 0:
        acc += 486 * h_window_sum(5, 4 * n // 3, lambda r: 1)
    return (Fraction(61, 3168) * sigma(5, n) - Fraction(4941, 352) * sigma_rational(5, Fraction(n, 3))
            + Fraction(13, 1728) * acc)


def _b_p43_cn(prec):
    return _eta_eta3_6(prec), _qs_from(prec, _p43_cn_coeff, range(1, prec))


def _b_t44_wp2(prec):
    eta12_th4 = cat.eta(prec) ** 12 * cat.theta(prec) ** 4
    rhs = (_eis_2z(8, 1, prec) - cat.jacobi_eis(8, 4, prec)
           + Fraction(1449, 86) * (eta12_th4 * cat.phi(2, prec)))
    return eta12_th4 * cat.phi(1, prec) ** 2, rhs


def _b_t44_wp3(prec):
    # the index-4 cusp corrections live on eta^18 theta^2, the weight-10
    # analogue of Delta at index 1
    eta18_th2 = cat.eta(prec) ** 18 * cat.theta(prec) ** 2
    p1, p2, p3 = (cat.phi(j, prec) for j in (1, 2, 3))
    rhs = (_eis_2z(6, 1, prec) * cat.eisenstein(4, prec)
           - cat.jacobi_eis(4, 4, prec) * cat.eisenstein(6, prec)
           + 36 * (eta18_th2 * (p1 * p2 - 2 * p3)))
    return eta18_th2 * p1 ** 3, rhs


def _b_t44_wp4(prec):
    p1, p2, p3, p4 = (cat.phi(j, prec) for j in (1, 2, 3, 4))
    rhs = (_eis_2z(6, 1, prec) * cat.eisenstein(6, prec)
           - cat.jacobi_eis(4, 4, prec) * cat.eisenstein(8, prec)
           + 48 * (cat.delta(prec) * (p1**2 * p2 - 9 * p1 * p3 + 12 * p4)))
    return cat.delta(prec) * p1**4, rhs


def _b_t44_theta16(prec):
    p1, p2, p3, p4 = (cat.phi(j, prec) for j in (1, 2, 3, 4))
    cusp = (p1 * p2 * p3 * Fraction(73, 11008)
            - p3 ** 2 * Fraction(45549, 2752)
            + p2 * p4 * Fraction(20713, 1376))
    rhs = (_eis_2z(8, 2, prec) - cat.jacobi_eis(8, 8, prec)
           + cat.eta(prec) ** 12 * cat.theta(prec) ** 4 * cusp)
    return (cat.theta(prec) ** 8) ** 2, rhs


def _b_s43_theta24(prec):
    lhs = (cat.theta(prec) ** 8) ** 3
    p1, p2, p3, p4 = (cat.phi(j, prec) for j in (1, 2, 3, 4))
    e4 = cat.eisenstein(4, prec)
    eis = _eis_2z(4, 3, prec) * (e4 * e4) - cat.jacobi_eis(4, 4, prec) ** 3
    cusp = (-24 * (p1**2 * p2 * p4**2) + 36 * p2**6
            + p3 * (-38 * p1 * p2**4 - 477 * p1 * p2 * p3**2 + 486 * p2**3 * p3
                    + 702 * p3**3 + 55 * p1**2 * p3 * p4 + 160 * p1 * p2**2 * p4))
    return lhs, eis + cat.delta(prec) * cusp


def _t10_24_sides(prec: int) -> tuple:
    """theta_10^24 and E_4^3 - E_{4,4}(tau, 1/2)^3, the two sides of the
    S43-t10-24 identities before their cusp corrections."""
    return ((cat.theta_const(1, 0, prec) ** 8) ** 3,
            _e_series(4, prec) ** 3 - _spec_half(4, 4, prec) ** 3)


def _b_s43_t10_24_phi(prec):
    lhs, eis = _t10_24_sides(prec)
    phi1_half = cat.phi(1, prec).specialize(0, HALF)
    return lhs, eis - 48 * (cat.delta(prec) * phi1_half * phi1_half) + 2304 * cat.delta(prec)


def _b_s43_t10_24(prec):
    lhs, eis = _t10_24_sides(prec)
    return lhs, eis - 48 * (_eta12_theta10_4(prec) * cat.eisenstein(4, prec))


def _b_s43_t10_24_e8m(prec):
    lhs, eis = _t10_24_sides(prec)
    diff = _spec_half(8, 2, prec) - _spec_half(8, 4, prec)
    return lhs, eis - Fraction(688, 45) * (cat.eisenstein(4, prec) * diff)


def _t10_16(prec: int) -> QSeries:
    return (cat.theta_const(1, 0, prec) ** 8) ** 2


def _b_s42_t10_16_a(prec):
    rhs = (_e_series(8, prec) - _spec_half(8, 8, prec)
           - Fraction(20713, 688) * _eta12_theta10_4(prec))
    return _t10_16(prec), rhs


def _b_s42_t10_16_b(prec):
    rhs = (Fraction(256, 255) * (_e_series(8, prec) - _e_series(8, prec, 2))
           - Fraction(512, 17) * _eta12_theta10_4(prec))
    return _t10_16(prec), rhs


def _b_s42_t10_16_c(prec):
    rhs = (Fraction(1952, 2025) * _e_series(8, prec) + Fraction(18688, 2025) * _e_series(8, prec, 2)
           - Fraction(1376, 135) * _spec_half(8, 2, prec))
    return _t10_16(prec), rhs


def _b_s42_t01_16(prec):
    lhs = ((cat.theta_const(0, 1, prec) ** 8) ** 2).substituted(2)
    rhs = (Fraction(-13, 2025) * _e_series(8, prec) + Fraction(3328, 2025) * _e_series(8, prec, 2)
           - Fraction(86, 135) * _spec_half(8, 2, prec))
    return lhs, rhs


def _b_s42_delta16(prec):
    # reads q^(n + 2) for odd n < prec, so the window must pass q^(prec + 1)
    t10_16 = _t10_16(prec + 2).normalized()
    keys = range(1, prec, 2)
    lhs = _qs_from(prec, lambda n: Fraction(t10_16.coefficient(n + 2), 65536), keys)
    rhs = _qs_from(prec, delta16, keys)
    return lhs, rhs


def _b_s42_r16(prec):
    t00_16 = ((cat.theta_const(0, 0, prec) ** 8) ** 2).substituted(2)
    keys = range(1, prec, 2)
    lhs = _qs_from(prec, lambda n: t00_16.coefficient(n), keys)
    rhs = _qs_from(prec, r16, keys)
    return lhs, rhs


def _b_phival_const(j: int, lam: Fraction, value: int):
    def build(prec):
        lhs = cat.phi(j, prec_for_specialize(prec, j, lam, j)).specialize(lam, HALF)
        return lhs, QSeries(1, prec, {0: value})
    return build


def _b_phival_relation(prec):
    p1, p2, p3, p4 = (cat.phi(j, prec) for j in (1, 2, 3, 4))
    return 4 * p4, p1 * p3 - p2 * p2


def _b_phival_1_half(prec):
    t00, t01 = cat.theta_const(0, 0, prec), cat.theta_const(0, 1, prec)
    lhs = cat.phi(1, prec).specialize(0, HALF) * (t00**2 * t01**2)
    return lhs, 4 * (t01**4 + t00**4)


def _b_phival_1_tau_half(prec):
    inner = prec_for_specialize(prec, 1, HALF, 1)
    cyc = cat.phi(1, inner).specialize(HALF, HALF, cyclotomic=True)
    lhs = cyc.times_root(-1, 4).to_qseries()  # divide by i
    # theta_10^2 starts at q^(1/4): its inverse is certified 1/2 short of prec + 1
    t10sq = cat.theta_const(1, 0, prec + 1) ** 2
    t01sq = cat.theta_const(0, 1, prec + 1) ** 2
    return lhs, 4 * (t10sq * t01sq.inverse() - t01sq * t10sq.inverse())


def _b_intro_r8(prec):
    lhs = (cat.theta_const(0, 0, prec) ** 8).substituted(2)
    return lhs, _qs_from(prec, lambda n: 1 if n == 0 else formula_r8(n))


def _b_intro_delta8(prec):
    # shifted(-1) moves the window down by one
    lhs = ((cat.theta_const(1, 0, prec + 1) ** 8) * Fraction(1, 256)).shifted(-1)
    return lhs, _qs_from(prec, formula_delta8)


def _b_hhol(eta_pow: int, j: int, strict: bool):
    def build(prec):
        form = cat.eta(prec) ** eta_pow * cat.phi(j, prec)
        return _cone_violation_pair(form, j, strict)
    return build


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _entries():
    e4x = [(Fraction(-1, 15), 1), (Fraction(16, 15), 2)]
    ids = [
        Identity("T31-theta8", "eighth theta power equals E_{4,1}(2z) - E_{4,4}", _b_t31_theta8),
        Identity("T31-f4", "coefficients of the eighth theta power from H(3,.)", _b_t31_f4),
        Identity("T31-wp8", "eta^6 theta^6 phi_{0,1} equals E_{6,1}(2z) - E_{6,4}", _b_t31_wp8),
        Identity("T31-f6", "coefficients of 12 wp theta^8 from H(5,.)", _b_t31_f6),
        Identity("R31-a", "theta(3z) theta^7 equals E_{4,8} - E_{4,2}(2z)", _b_r31_a),
        Identity("R31-b", "theta(2z)^2 theta^6 phi_{0,2} equals E_{4,1}(3z) - E_{4,9}", _b_r31_b),
        Identity("R31-c", "theta(3z)^2 theta^6 equals E_{4,3}(2z) - E_{4,12}", _b_r31_c),
        Identity("L32-e8", "eighth theta power from the two E8 theta series", _b_l32_e8),
        Identity("L32-e8-u2", "E8 theta series on a root equals E_{4,1}", _b_l32_u2, 6),
        Identity("L32-e8-u8", "E8 theta series on a primitive norm-8 vector equals E_{4,4}", _b_l32_u8, 6),
        Identity("L21-e10", "E_{10,1} as a combination of E_4 E_{6,1} and E_6 E_{4,1}", _b_l21_e10),
        Identity("L21-e12", "E_{12,1} as a combination of E_6 E_{6,1} and E_4^2 E_{4,1}", _b_l21_e12),
        Identity("L21-delta", "E_{12,1}(tau,0) - E_12 is proportional to Delta", _b_l21_delta),
        Identity("L21-tau", "tau(n) from the weight-12 Cohen-number route", _b_l21_tau),
        Identity("C33-eta8", "eighth power of the Euler product from the sheared theta power", _b_c33_eta8),
        Identity("C33-eta8-eis", "eighth power of the Euler product from sheared Eisenstein series", _b_c33_eta8_eis),
        Identity("C33-eta8-conv", "eighth power of the Euler product as an f4 convolution", _b_c33_eta8_conv),
        Identity("S32-spec-e42", "E_{4,2}(tau,1/2) in the weight-4 level-2 basis",
                 _b_s32_spec(4, 2, e4x)),
        Identity("S32-spec-e44", "E_{4,4}(tau,1/2) in the weight-4 level-2 basis",
                 _b_s32_spec(4, 4, e4x)),
        Identity("S32-spec-e62", "E_{6,2}(tau,1/2) in the weight-6 level-2 basis",
                 _b_s32_spec(6, 2, [(Fraction(-1, 63), 1), (Fraction(64, 63), 2)])),
        Identity("S32-spec-e64", "E_{6,4}(tau,1/2) in the weight-6 level-2 basis",
                 _b_s32_spec(6, 4, [(Fraction(-1, 63), 1), (Fraction(64, 63), 2)])),
        Identity("S32-spec-e64-e62", "E_{6,4}(tau,1/2) equals E_{6,2}(tau,1/2)", _b_s32_spec_64_62),
        Identity("S32-spec-e41", "E_{4,1}(tau,1/2) in the weight-4 level-4 basis",
                 _b_s32_spec(4, 1, [(Fraction(1, 15), 1), (Fraction(-6, 5), 2), (Fraction(32, 15), 4)])),
        Identity("S32-spec-e43", "E_{4,3}(tau,1/2) matches the E_{4,1} pullback",
                 _b_s32_spec(4, 3, [(Fraction(1, 15), 1), (Fraction(-6, 5), 2), (Fraction(32, 15), 4)])),
        Identity("S32-cohen-h3-even", "even-r H(3, 8n - r^2) sum at odd n", _b_s32_cohen(3, 0, Fraction(-4), 3)),
        Identity("S32-cohen-h3-odd", "odd-r H(3, 8n - r^2) sum at odd n", _b_s32_cohen(3, 1, Fraction(-32, 7), 3)),
        Identity("S32-cohen-h5-even", "even-r H(5, 8n - r^2) sum at odd n", _b_s32_cohen(5, 0, Fraction(62), 5)),
        Identity("S32-cohen-h5-odd", "odd-r H(5, 8n - r^2) sum at odd n", _b_s32_cohen(5, 1, Fraction(64), 5)),
        Identity("S32-cohen-h3-all", "positive-odd-r H(3, 4n - r^2) sum for every n", _b_s32_cohen_all_n),
        Identity("S32-t10-8", "theta_10^8 from the level-2 Eisenstein basis", _b_s32_t10_8),
        Identity("S32-t10-8-const", "theta^8 at z = 1/2 equals theta_10^8", _b_s32_t10_8_const),
        Identity("S32-t10-8-delta", "delta_8 from alternating H(3,.) sums at odd non-square n", _b_s32_t10_8_delta),
        Identity("S32-t01-8", "theta_01^8(2 tau) in the level-2 Eisenstein basis", _b_s32_t01_8),
        Identity("S32-t01-8-e44", "theta_01^8(2 tau) from the sheared E_{4,4}", _b_s32_t01_8_e44),
        Identity("S32-t01-8-conv", "theta_01^8(2 tau) as an f4 convolution", _b_s32_t01_8_conv),
        Identity("S32-r8-odd", "r_8 at odd n from H(3, 16m - r^2) sums", _b_s32_r8_odd),
        Identity("S32-eps2-consts", "2 eps_2 theta^8(1/2) equals theta_10^8 (theta_00^4 + theta_01^4)", _b_s32_eps2_consts),
        Identity("S32-eps2-eis", "2 eps_2 theta^8(1/2) equals E_{6,4}(1/2) - E_6", _b_s32_eps2_eis),
        Identity("S32-eps2-level", "2 eps_2 theta^8(1/2) in the level-2 basis", _b_s32_eps2_level),
        Identity("S32-eps2-tau-half", "theta_00^8 (theta_01^4 - theta_10^4) from the (tau+1)/2 pullback", _b_s32_eps2_tau_half),
        Identity("S32-eps2-wp", "the wp theta^2 product at z = 1/2 against eps_2 theta_10^2", _b_s32_eps2_wp),
        Identity("P41-e82", "E_{8,2}(tau,1/2) with its eta^12 theta_10^4 cusp correction", _b_p41(Fraction(2160, 731), 2)),
        Identity("P41-e84", "E_{8,4}(tau,1/2) with its cusp correction", _b_p41(Fraction(-135, 731), 4)),
        Identity("P41-e88", "E_{8,8}(tau,1/2) with its cusp correction", _b_p41(Fraction(135, 11696), 8)),
        Identity("P41-e82-series", "E_{8,2}(tau,1/2) as an H(7,.) divisor sum", _b_p41_e82_series),
        Identity("P41-an", "odd coefficients of eta^12 theta_10^4 from H(7,.)", _b_p41_an),
        Identity("P41-diff", "eta^12 theta_10^4 from E_{8,2} - E_{8,4} at z = 1/2", _b_p41_diff),
        Identity("S41-eta-a", "eta^12 theta_10^4 = 16 eta(tau)^8 eta(2tau)^8", _b_s41_eta_a),
        Identity("S41-eta-b", "eta^6 theta_10^6 = 64 eta(2tau)^12", _b_s41_eta_b),
        Identity("P42-e61", "E_{6,1}(tau,1/2) in the weight-6 level-4 basis", _b_p42_e61),
        Identity("P42-diff", "E_{6,3}(1/2) - E_{6,1}(1/2) is proportional to eta(2tau)^12", _b_p42_diff),
        Identity("P42-b-odd", "odd coefficients of eta(2tau)^12 from H(5,.)", _b_p42_b_odd),
        Identity("P42-b-even", "vanishing even coefficients: the H(5,.) divisor-sum identity", _b_p42_b_even),
        Identity("P43-e63", "E_{6,3}(tau,1/3) against the level-3 basis", _b_p43_e63),
        Identity("P43-cn", "coefficients of (eta eta_3)^6 from weighted H(5,.) sums", _b_p43_cn),
        Identity("T44-wp2", "(12 wp)^2 theta^8 with its index-4 cusp correction", _b_t44_wp2, 6),
        Identity("T44-wp3", "(12 wp)^3 theta^8 with its index-4 cusp corrections", _b_t44_wp3, 6),
        Identity("T44-wp4", "(12 wp)^4 theta^8 with its index-4 cusp corrections", _b_t44_wp4, 6),
        Identity("T44-theta16", "sixteenth theta power with its index-8 cusp corrections", _b_t44_theta16, 6),
        Identity("S42-t10-16-a", "theta_10^16 from E_8 - E_{8,8}(1/2)", _b_s42_t10_16_a),
        Identity("S42-t10-16-b", "theta_10^16 in the level-2 basis", _b_s42_t10_16_b),
        Identity("S42-t10-16-c", "theta_10^16 from E_{8,2}(1/2)", _b_s42_t10_16_c),
        Identity("S42-t01-16", "theta_01^16(2 tau) from E_{8,2}(1/2)", _b_s42_t01_16),
        Identity("S42-delta16", "delta_16 closed form against the theta_10^16 series", _b_s42_delta16),
        Identity("S42-r16", "r_16 closed form against the theta_00^16(2 tau) series", _b_s42_r16),
        Identity("S42-phivals-2-half", "phi_{0,2}(tau, 1/2) = 2", _b_phival_const(2, Fraction(0), 2)),
        Identity("S42-phivals-3-half", "phi_{0,3}(tau, 1/2) = 0", _b_phival_const(3, Fraction(0), 0)),
        Identity("S42-phivals-4-half", "phi_{0,4}(tau, 1/2) = -1", _b_phival_const(4, Fraction(0), -1)),
        Identity("S42-phivals-2-tau", "prefactored phi_{0,2}(tau, (tau+1)/2) = 2", _b_phival_const(2, HALF, 2)),
        Identity("S42-phivals-3-tau", "prefactored phi_{0,3}(tau, (tau+1)/2) = 0", _b_phival_const(3, HALF, 0)),
        Identity("S42-phivals-4-tau", "prefactored phi_{0,4}(tau, (tau+1)/2) = -1", _b_phival_const(4, HALF, -1)),
        Identity("S42-phivals-relation", "4 phi_{0,4} = phi_{0,1} phi_{0,3} - phi_{0,2}^2", _b_phival_relation),
        Identity("S42-phivals-1-half", "phi_{0,1}(tau,1/2) theta_00^2 theta_01^2 = 4(theta_01^4 + theta_00^4)", _b_phival_1_half),
        Identity("S42-phivals-1-tau", "phi_{0,1}(tau,(tau+1)/2) via the conductor-4 route", _b_phival_1_tau_half),
        Identity("S43-theta24", "twenty-fourth theta power with its index-12 cusp corrections", _b_s43_theta24, 6),
        Identity("S43-t10-24-phi", "theta_10^24 with the phi_{0,1}(1/2) cusp correction", _b_s43_t10_24_phi),
        Identity("S43-t10-24", "theta_10^24 with the eta^12 theta_10^4 E_4 correction", _b_s43_t10_24),
        Identity("S43-t10-24-e8m", "theta_10^24 from E_{8,2} - E_{8,4} at z = 1/2", _b_s43_t10_24_e8m),
        Identity("INTRO-r8", "the classical eight-squares divisor sum", _b_intro_r8),
        Identity("INTRO-delta8", "the classical eight-triangular-numbers divisor sum", _b_intro_delta8),
        Identity("H-hol-eta6phi1", "eta^6 phi_{0,1} is a holomorphic Jacobi form", _b_hhol(6, 1, False)),
        Identity("H-hol-eta3phi2", "eta^3 phi_{0,2} is a holomorphic Jacobi form", _b_hhol(3, 2, False)),
        Identity("H-hol-eta2phi3", "eta^2 phi_{0,3} is a holomorphic Jacobi form", _b_hhol(2, 3, False)),
        Identity("H-hol-eta2phi4", "eta^2 phi_{0,4} is a Jacobi cusp form", _b_hhol(2, 4, True)),
    ]
    return ids


REGISTRY = {ident.id: ident for ident in _entries()}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify(identity_id: str, prec: Optional[int] = None) -> IdentityReport:
    """Build both sides of one identity and compare exactly below prec."""
    try:
        ident = REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None
    if prec is None:
        prec = ident.default_prec
    require_prec("verify", prec)  # an int >= 1: the comparison window is not empty
    start = time.perf_counter()
    lhs, rhs = ident.build(prec)
    built = time.perf_counter()
    if min(lhs.prec_exponent, rhs.prec_exponent) < prec:
        raise RuntimeError(
            f"{identity_id}: builder delivered a window "
            f"{min(lhs.prec_exponent, rhs.prec_exponent)} < requested {prec}"
        )
    # mismatch reports the lowest difference on the common window, which
    # reaches prec; one at or above q^prec lies outside the comparison
    mm = lhs.mismatch(rhs)
    if mm is not None and mm[0] >= prec:
        mm = None
    return IdentityReport(identity_id, prec, "pass" if mm is None else "fail", mm,
                          built - start, time.perf_counter() - built)


def _require_pattern(fn: str, pattern) -> None:
    if not isinstance(pattern, str):
        raise TypeError(f"{fn} needs a str pattern, got {pattern!r}")


def identity_ids(pattern: str = "*") -> list:
    """Registry ids matching a glob pattern, in registry order."""
    _require_pattern("identity_ids", pattern)
    return [i for i in REGISTRY if fnmatch.fnmatchcase(i, pattern)]


def verify_all(prec: Optional[int] = None, pattern: str = "*") -> list:
    """Verify every registry entry matching the pattern.

    With prec=None every identity runs at its own default precision (the
    index-12 heavyweights default lower to bound runtime)."""
    _require_pattern("verify_all", pattern)
    return [verify(i, prec) for i in identity_ids(pattern)]
