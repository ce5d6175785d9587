"""Exact truncated series in one and two variables.

QSeries is a series in q^(1/s) with rational coefficients: a map t -> c
meaning c * q^(t/s), together with a precision P (coefficients are certified
for all exponents t/s < P/s; larger ones are truncated).  FJExp is the
two-variable analogue, a Fourier-Jacobi expansion sum c * q^(t/s) zeta^(r/w)
whose zeta-part is a finite Laurent polynomial for every q-power.

Both are subclasses of one term-map core, QSeries being the case w = 1 with
every zeta-index 0, so they share one vocabulary: `prec` is the precision
P in units of 1/s, `prec_exponent` is P/s, `truncated(e)` cuts the certified
window to q-exponents below e, and `mismatch` returns the first difference
on the common window as (q_exp, z_exp, lhs, rhs), with z_exp None for a
QSeries, or None when there is none.  Only the products stay per class.

Negative exponents are allowed in both variables.  Binary operations align
the scales by lcm and take the minimum precision, corrected downward when an
operand has terms with negative q-exponent; nothing is ever emitted beyond
the certified window.  Series are read-only once built (term maps are
MappingProxyType views; setting an attribute raises), so callers can share one.

CycloElt represents an exact element of Q[x]/Phi_K(x) (x a primitive K-th
root of unity) and only appears in torsion-point specialization, where the
root-of-unity phases live before they cancel to rationals.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from types import MappingProxyType
from typing import Optional, Union

from jacobiforms.numtheory import Rat, as_rational, divisors, parse_rational, rational_str

RatLike = Union[int, Fraction]


class InexactDivision(ArithmeticError):
    """Raised when a series quotient fails exact Laurent division.

    `q_exponent` is the q-order at which the division first failed; for the
    quotients this package constructs, failure means the inputs were wrong
    (the true quotient is not a weak Jacobi form).
    """

    def __init__(self, q_exponent: Fraction):
        self.q_exponent = q_exponent
        super().__init__(f"inexact Laurent division at q-order {q_exponent}")


class NonRationalResult(ArithmeticError):
    """Raised when a specialized series has a genuinely irrational coefficient."""

    def __init__(self, exponent: Fraction, value: "CycloElt"):
        self.exponent = exponent
        self.value = value
        super().__init__(
            f"non-rational coefficient at q-exponent {exponent} "
            f"(conductor {value.conductor}); use cyclotomic=True for the "
            f"cyclotomic-valued variant"
        )


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    if x <= 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    r = math.isqrt(n * d)
    if r * r == n * d:
        return Fraction(r, d)
    return Fraction(r + 1, d)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


_set = object.__setattr__  # __init__ writes slots through this; later writes raise


def _read_only(self, name, *_):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


# ---------------------------------------------------------------------------
# the term-map core shared by QSeries and FJExp
# ---------------------------------------------------------------------------

class _Series:
    """A read-only map from grid keys to nonzero rationals, certified for
    every q-index t < prec; a key stands for q^(t/qscale) zeta^(r/zscale).

    Subclasses supply the hooks: `_split` (key -> (t, r)); `_below(p)`, a
    key that sorts above exactly the keys of q-index < p, so that the hot
    filters compare keys without splitting them; `_rescaled_terms`, the
    term map re-keyed by (t, r) -> (t*qmul//qdiv, r*zmul//zdiv); `_rebuilt`,
    a copy with new data that keeps its own metadata unless `meta`
    overrides it; `_lifted`, an addend as this type or None; and
    `_sum_meta`, the metadata of a sum.
    """

    __slots__ = ("qscale", "prec", "terms")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, qscale: int, prec: int, terms: dict):
        if qscale < 1 or self.zscale < 1:
            raise ValueError("scales must be positive integers")
        _set(self, "qscale", qscale)
        _set(self, "prec", prec)
        edge = self._below(prec)
        clean = {}
        for k, c in terms.items():
            c = as_rational(c)
            if c == 0:
                continue
            if k >= edge:
                t = self._split(k)[0]
                raise ValueError(f"term at q^({t}/{qscale}) at or beyond precision {prec}")
            clean[k] = c
        _set(self, "terms", MappingProxyType(clean))

    @property
    def prec_exponent(self) -> Fraction:
        return Fraction(self.prec, self.qscale)

    def is_zero(self) -> bool:
        return not self.terms

    def _q_index(self, q_exp: RatLike) -> Fraction:
        """q_exp in units of 1/qscale; raises beyond the certified window."""
        e = Fraction(q_exp)
        if e >= self.prec_exponent:
            raise ValueError(f"exponent {e} is beyond certified precision {self.prec_exponent}")
        return e * self.qscale

    # -- scale and precision management ---------------------------------------

    def rescaled(self, s: int, w: Optional[int] = None):
        """Same series on finer scales (w defaults to the current
        zeta-scale); each must be a multiple of the old one."""
        w = self.zscale if w is None else w
        if s % self.qscale or w % self.zscale:
            raise ValueError("new scales must be multiples of the old ones")
        ks, kw = s // self.qscale, w // self.zscale
        if ks == 1 and kw == 1:
            return self
        return self._rebuilt(s, w, self.prec * ks, self._rescaled_terms(ks, 1, kw, 1))

    def normalized(self):
        """Reduce to the minimal scales representing the same certified data.

        The precision bound participates in the q-gcd so that no certified
        information is lost; the result is idempotent.
        """
        split = self._split
        gs, gw = math.gcd(self.qscale, self.prec), self.zscale
        for k in self.terms:
            t, r = split(k)
            gs, gw = math.gcd(gs, t), math.gcd(gw, r)
            if gs == 1 and gw == 1:
                return self
        if gs == 1 and gw == 1:
            return self
        return self._rebuilt(self.qscale // gs, self.zscale // gw, self.prec // gs,
                             self._rescaled_terms(1, gs, 1, gw))

    def truncated(self, prec_exp: RatLike):
        """The same series, certified only below q^prec_exp."""
        bound = Fraction(prec_exp)
        if bound >= self.prec_exponent:
            return self
        new_p = _floor_frac(bound * self.qscale)
        edge = self._below(new_p)
        return self._rebuilt(self.qscale, self.zscale, new_p,
                             {k: c for k, c in self.terms.items() if k < edge})

    def _aligned(self, other):
        s = math.lcm(self.qscale, other.qscale)
        w = math.lcm(self.zscale, other.zscale)
        return self.rescaled(s, w), other.rescaled(s, w)

    # -- ring operations --------------------------------------------------------

    def __neg__(self):
        return self._rebuilt(self.qscale, self.zscale, self.prec,
                             {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries(self.qscale, self.prec, {0: other})
        other = self._lifted(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        edge = a._below(prec)
        terms = {k: c for k, c in a.terms.items() if k < edge}
        for k, c in b.terms.items():
            if k < edge:
                terms[k] = terms.get(k, 0) + c
        return a._rebuilt(a.qscale, a.zscale, prec, terms, **a._sum_meta(b))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _powered(self, n: int, result):
        """result * self^n for n >= 0, by binary powering."""
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return (a.qscale == b.qscale and a.zscale == b.zscale and a.prec == b.prec
                and a.terms == b.terms)

    __hash__ = None

    def _mismatch(self, other, zeta: bool):
        """First differing (q-exp, z-exp, self-coeff, other-coeff) on the
        common certified q-window, or None when the series agree there; the
        z-exp is None when not `zeta`."""
        a, b = self._aligned(other)
        edge = a._below(min(a.prec, b.prec))
        for k in sorted(set(a.terms) | set(b.terms)):
            if k >= edge:
                break
            ca, cb = a.terms.get(k, 0), b.terms.get(k, 0)
            if ca != cb:
                t, r = a._split(k)
                return (Fraction(t, a.qscale), Fraction(r, a.zscale) if zeta else None, ca, cb)
        return None

    def agrees_with(self, other) -> bool:
        return self.mismatch(other) is None


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------

class QSeries(_Series):
    """Truncated series sum_t c_t q^(t/qscale), certified for t < prec: the
    core with zscale 1 and zeta-index 0, keyed by t alone."""

    __slots__ = ()
    zscale = 1

    @staticmethod
    def _split(t):
        return t, 0

    @staticmethod
    def _below(p):
        return p

    def _rescaled_terms(self, qmul, qdiv, zmul, zdiv) -> dict:
        return {t * qmul // qdiv: c for t, c in self.terms.items()}

    def _rebuilt(self, qscale, zscale, prec, terms, **meta) -> "QSeries":
        return QSeries(qscale, prec, terms)

    def _lifted(self, other):
        return other if isinstance(other, QSeries) else None

    def _sum_meta(self, other) -> dict:
        return {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls, prec_exp: RatLike) -> "QSeries":
        p = Fraction(prec_exp)
        return cls(p.denominator, p.numerator, {0: 1})

    @classmethod
    def from_exponents(cls, pairs, prec_exp: RatLike) -> "QSeries":
        """Build from (exponent, coefficient) pairs with rational exponents."""
        pairs = [(Fraction(e), as_rational(c)) for e, c in pairs]
        p = Fraction(prec_exp)
        s = p.denominator
        for e, _ in pairs:
            s = math.lcm(s, e.denominator)
        terms: dict = {}
        for e, c in pairs:
            t = e.numerator * (s // e.denominator)
            terms[t] = terms.get(t, 0) + c
        return cls(s, p.numerator * (s // p.denominator), terms)

    # -- basic queries ---------------------------------------------------------

    def lowest_exponent(self) -> Optional[Fraction]:
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.qscale)

    def coefficient(self, exponent: RatLike) -> Rat:
        """Coefficient at q^exponent; raises beyond the certified window."""
        t = self._q_index(exponent)
        if t.denominator != 1:
            return 0
        return self.terms.get(t.numerator, 0)

    # -- ring operations --------------------------------------------------------

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries(self.qscale, self.prec, {t: c * other for t, c in self.terms.items()})
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._aligned(other)
        lo_a = min(a.terms) if a.terms else 0
        lo_b = min(b.terms) if b.terms else 0
        prec = min(a.prec + min(lo_b, 0), b.prec + min(lo_a, 0))
        out: dict = {}
        for t1, c1 in a.terms.items():
            for t2, c2 in b.terms.items():
                t = t1 + t2
                if t >= prec:
                    continue
                out[t] = out.get(t, 0) + c1 * c2
        return QSeries(a.qscale, prec, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return self.inverse() ** (-n)
        return self._powered(n, QSeries(self.qscale, self.prec, {0: 1}))

    def inverse(self) -> "QSeries":
        """Multiplicative inverse as a Laurent series in q^(1/s)."""
        if not self.terms:
            raise ZeroDivisionError("cannot invert a series with zero lowest coefficient")
        lo = min(self.terms)
        c0 = Fraction(self.terms[lo])
        shifted = {t - lo: c for t, c in self.terms.items()}
        n_coeffs = self.prec - lo  # inverse of the unit part is certified below this
        inv = {0: 1 / c0}
        # recurrence: b_t = -(sum_{0<i<=t} a_i b_{t-i}) / a_0
        keys = sorted(k for k in shifted if 0 < k < n_coeffs)
        for t in range(1, n_coeffs):
            acc = 0
            for i in keys:
                if i > t:
                    break
                b = inv.get(t - i)
                if b:
                    acc += shifted[i] * b
            if acc:
                inv[t] = -acc / c0
        out_prec = self.prec - 2 * lo
        return QSeries(self.qscale, out_prec, {t - lo: c for t, c in inv.items() if t - lo < out_prec})

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        return self * other.inverse()

    def substituted(self, c: int) -> "QSeries":
        """q -> q^c for a positive integer c."""
        if c < 1:
            raise ValueError("substitution exponent must be a positive integer")
        return QSeries(self.qscale, self.prec * c, {t * c: v for t, v in self.terms.items()})

    def shifted(self, delta: RatLike) -> "QSeries":
        """Multiply by the exact monomial q^delta."""
        d = Fraction(delta)
        s = math.lcm(self.qscale, d.denominator)
        a = self.rescaled(s)
        off = d.numerator * (s // d.denominator)
        return QSeries(s, a.prec + off, {t + off: c for t, c in a.terms.items()})

    # -- comparison -------------------------------------------------------------

    def mismatch(self, other: "QSeries"):
        """First differing (exponent, None, self-coeff, other-coeff) on the
        common certified window, or None when the series agree there."""
        return self._mismatch(other, zeta=False)

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "qscale": self.qscale,
            "prec": self.prec,
            "terms": [[t, rational_str(c)] for t, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        return cls(data["qscale"], data["prec"], {t: parse_rational(c) for t, c in data["terms"]})

    # -- display --------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return f"O(q^{_exp_str(self.prec_exponent)})"
        parts = []
        for t, c in sorted(self.terms.items()):
            parts.append(_signed_term(c, _q_power(Fraction(t, self.qscale)), first=not parts))
        parts.append(f" + O(q^{_exp_str(self.prec_exponent)})")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QSeries(qscale={self.qscale}, prec={self.prec}, {len(self.terms)} terms)"


def _exp_str(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else f"({e})"


def _q_power(e: Fraction) -> str:
    if e == 0:
        return ""
    if e == 1:
        return "q"
    return f"q^{_exp_str(e)}"


def _zeta_power(e: Fraction) -> str:
    if e == 0:
        return ""
    if e == 1:
        return "zeta"
    return f"zeta^{_exp_str(e)}"


def _signed_term(c: Rat, power: str, first: bool) -> str:
    c = as_rational(c)
    sign = "-" if c < 0 else "+"
    mag = -c if c < 0 else c
    body = power if (mag == 1 and power) else (rational_str(mag) + ("*" + power if power else ""))
    if first:
        return body if sign == "+" else "-" + body
    return f" {sign} {body}"


# ---------------------------------------------------------------------------
# cyclotomic coefficients
# ---------------------------------------------------------------------------

def _poly_div_exact_int(num: list, den: list) -> list:
    """Exact division of integer polynomials (coefficients low to high)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("nonzero remainder in polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _poly_div_exact_int(num, list(cyclotomic_poly(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _root_power_rows(k: int) -> tuple:
    """x^j mod Phi_k for j in range(k), as coefficient tuples."""
    phi = cyclotomic_poly(k)
    deg = len(phi) - 1
    rows = []
    row = [Fraction(0)] * deg
    row[0] = Fraction(1)
    for _ in range(k):
        rows.append(tuple(row))
        carry = row[deg - 1]
        row = [Fraction(0)] + row[: deg - 1]
        if carry:
            for i in range(deg):
                row[i] -= carry * phi[i]
    return tuple(rows)


class CycloElt:
    """Element of Q[x]/Phi_K(x) in the power basis, x = exp(2 pi i / K)."""

    __slots__ = ("conductor", "coords")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, conductor: int, coords):
        _set(self, "conductor", conductor)
        coords = tuple(Fraction(c) for c in coords)
        deg = len(cyclotomic_poly(conductor)) - 1
        if len(coords) != deg:
            raise ValueError(f"expected {deg} coordinates for conductor {conductor}")
        _set(self, "coords", coords)

    @classmethod
    def zero(cls, conductor: int) -> "CycloElt":
        deg = len(cyclotomic_poly(conductor)) - 1
        return cls(conductor, (Fraction(0),) * deg)

    @classmethod
    def from_root_power(cls, conductor: int, j: int, coeff: RatLike = 1) -> "CycloElt":
        """coeff * exp(2 pi i j / K)."""
        row = _root_power_rows(conductor)[j % conductor]
        c = Fraction(coeff)
        return cls(conductor, tuple(c * x for x in row))

    def __add__(self, other: "CycloElt") -> "CycloElt":
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch")
        return CycloElt(self.conductor, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CycloElt") -> "CycloElt":
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch")
        return CycloElt(self.conductor, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, scalar) -> "CycloElt":
        c = Fraction(scalar)
        return CycloElt(self.conductor, tuple(c * x for x in self.coords))

    __rmul__ = __mul__

    def times_root(self, j: int) -> "CycloElt":
        """Multiply by exp(2 pi i j / K)."""
        rows = _root_power_rows(self.conductor)
        deg = len(self.coords)
        out = [Fraction(0)] * deg
        for i, c in enumerate(self.coords):
            if not c:
                continue
            row = rows[(i + j) % self.conductor]
            for t in range(deg):
                out[t] += c * row[t]
        return CycloElt(self.conductor, out)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Rat:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return as_rational(self.coords[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.conductor == other.conductor and self.coords == other.coords

    __hash__ = None

    def __repr__(self) -> str:
        return f"CycloElt({self.conductor}, {list(self.coords)})"


class CycloSeries:
    """A q-series with CycloElt coefficients (specialization intermediate)."""

    __slots__ = ("conductor", "qscale", "prec", "terms")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, conductor: int, qscale: int, prec: int, terms: dict):
        _set(self, "conductor", conductor)
        _set(self, "qscale", qscale)
        _set(self, "prec", prec)
        _set(self, "terms", MappingProxyType({t: c for t, c in terms.items() if not c.is_zero()}))

    @property
    def prec_exponent(self) -> Fraction:
        return Fraction(self.prec, self.qscale)

    def times_root(self, numer: int, denom: int) -> "CycloSeries":
        """Multiply every coefficient by exp(2 pi i numer/denom)."""
        if self.conductor % denom:
            raise ValueError(f"denominator {denom} does not divide conductor {self.conductor}")
        j = numer * (self.conductor // denom)
        return CycloSeries(
            self.conductor, self.qscale, self.prec,
            {t: c.times_root(j) for t, c in self.terms.items()},
        )

    def to_qseries(self) -> QSeries:
        out = {}
        for t, c in sorted(self.terms.items()):
            if not c.is_rational():
                raise NonRationalResult(Fraction(t, self.qscale), c)
            out[t] = c.rational_value()
        return QSeries(self.qscale, self.prec, out)


# ---------------------------------------------------------------------------
# two-variable Fourier-Jacobi expansions
# ---------------------------------------------------------------------------

class FJExp(_Series):
    """Truncated Fourier-Jacobi expansion sum c * q^(t/qscale) zeta^(r/zscale),
    keyed by (t, r).

    `weight`, `index` and `cone_slack` are optional metadata.  cone_slack = b
    certifies |r/zscale| <= 2*sqrt((t/qscale)*index) + b on all Fourier
    support (b = 0 is the holomorphic cone, b = index the weak-form cone);
    it is what makes torsion-point specialization precision certifiable.
    """

    __slots__ = ("zscale", "weight", "index", "cone_slack")

    def __init__(self, qscale: int, zscale: int, prec: int, terms: dict,
                 weight=None, index=None, cone_slack=None):
        _set(self, "zscale", zscale)
        super().__init__(qscale, prec, terms)
        _set(self, "weight", None if weight is None else as_rational(weight))
        _set(self, "index", None if index is None else as_rational(index))
        _set(self, "cone_slack", None if cone_slack is None else as_rational(cone_slack))

    @staticmethod
    def _split(key):
        return key

    @staticmethod
    def _below(p):
        return (p,)  # (t, r) < (p,) exactly when t < p

    def _rescaled_terms(self, qmul, qdiv, zmul, zdiv) -> dict:
        return {(t * qmul // qdiv, r * zmul // zdiv): c for (t, r), c in self.terms.items()}

    def _rebuilt(self, qscale, zscale, prec, terms, **meta) -> "FJExp":
        meta = {"weight": self.weight, "index": self.index, "cone_slack": self.cone_slack, **meta}
        return FJExp(qscale, zscale, prec, terms, **meta)

    def _lifted(self, other):
        if isinstance(other, QSeries):
            return FJExp.from_qseries(other)
        return other if isinstance(other, FJExp) else None

    def _sum_meta(self, other) -> dict:
        index = self.index if self.index == other.index else None
        slack = None
        if self.cone_slack is not None and other.cone_slack is not None and index is not None:
            slack = max(self.cone_slack, other.cone_slack)
        return {"weight": self.weight if self.weight == other.weight else None,
                "index": index, "cone_slack": slack}

    # -- construction ----------------------------------------------------------

    @classmethod
    def one(cls, prec_exp: RatLike) -> "FJExp":
        p = Fraction(prec_exp)
        return cls(p.denominator, 1, p.numerator, {(0, 0): 1}, weight=0, index=0, cone_slack=0)

    @classmethod
    def from_qseries(cls, qs: QSeries) -> "FJExp":
        lo = qs.lowest_exponent()
        slack = 0 if (lo is None or lo >= 0) else None
        return cls(qs.qscale, 1, qs.prec, {(t, 0): c for t, c in qs.terms.items()},
                   weight=None, index=0, cone_slack=slack)

    def with_meta(self, weight=None, index=None, cone_slack=None) -> "FJExp":
        """Copy with metadata replaced (None leaves a field unchanged)."""
        return FJExp(
            self.qscale, self.zscale, self.prec, self.terms,
            weight=self.weight if weight is None else weight,
            index=self.index if index is None else index,
            cone_slack=self.cone_slack if cone_slack is None else cone_slack,
        )

    # -- queries -----------------------------------------------------------------

    @property
    def qprec(self) -> int:
        """Read-only alias of `prec`, still read by bench/test_bench.py."""
        return self.prec

    def coefficient(self, q_exp: RatLike, z_exp: RatLike) -> Rat:
        t = self._q_index(q_exp)
        r = Fraction(z_exp) * self.zscale
        if t.denominator != 1 or r.denominator != 1:
            return 0
        return self.terms.get((t.numerator, r.numerator), 0)

    def q_slice(self, q_exp: RatLike) -> dict:
        """The zeta-Laurent polynomial at one q-power, as {z-exponent: coeff}."""
        t = self._q_index(q_exp)
        if t.denominator != 1:
            return {}
        tn = t.numerator
        return {Fraction(r, self.zscale): c for (t2, r), c in self.terms.items() if t2 == tn}

    def cone_violations(self) -> list:
        """Stored terms violating 4*(t/s)*index >= (r/w)^2 - tolerated slack.

        With cone_slack = 0 this is the holomorphicity test; the index must
        be set.  Returns a list of ((q_exp, z_exp), coeff).
        """
        if self.index is None:
            raise ValueError("index metadata required for cone checks")
        m = Fraction(self.index)
        b = Fraction(self.cone_slack or 0)
        out = []
        for (t, r), c in sorted(self.terms.items()):
            x = Fraction(t, self.qscale)
            rr = Fraction(r, self.zscale)
            # |r/w| <= 2 sqrt(x m) + b  <=>  (|r/w| - b)^2 <= 4 x m when |r/w| > b
            excess = abs(rr) - b
            if excess > 0 and excess * excess > 4 * x * m:
                out.append(((x, rr), c))
        return out

    # -- ring operations --------------------------------------------------------------

    def __mul__(self, other) -> "FJExp":
        if isinstance(other, (int, Fraction)):
            return self._rebuilt(self.qscale, self.zscale, self.prec,
                                 {k: c * other for k, c in self.terms.items()})
        other = self._lifted(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        lo_a = min((t for t, _ in a.terms), default=0)
        lo_b = min((t for t, _ in b.terms), default=0)
        prec = min(a.prec + min(lo_b, 0), b.prec + min(lo_a, 0))
        out: dict = {}
        for (t1, r1), c1 in a.terms.items():
            for (t2, r2), c2 in b.terms.items():
                t = t1 + t2
                if t >= prec:
                    continue
                key = (t, r1 + r2)
                out[key] = out.get(key, 0) + c1 * c2
        weight = None if (a.weight is None or b.weight is None) else a.weight + b.weight
        index = None if (a.index is None or b.index is None) else a.index + b.index
        slack = None
        if a.cone_slack is not None and b.cone_slack is not None:
            slack = a.cone_slack + b.cone_slack
        return FJExp(a.qscale, a.zscale, prec, out, weight=weight, index=index, cone_slack=slack)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FJExp":
        if n < 0:
            raise ValueError("negative powers of Fourier-Jacobi expansions are not supported")
        return self._powered(n, FJExp.one(self.prec_exponent))

    def divide(self, den: "FJExp") -> "FJExp":
        """Exact quotient: per q-order, the residual zeta-polynomial must be
        exactly divisible by the denominator's lowest one."""
        a, b = self._aligned(den)
        if not b.terms:
            raise ZeroDivisionError("division by the zero expansion")
        d_lo = min(t for t, _ in b.terms)
        b0 = {r: c for (t, r), c in b.terms.items() if t == d_lo}
        if not a.terms:
            return FJExp(a.qscale, a.zscale, a.prec - d_lo, {},
                         weight=None, index=None, cone_slack=None)
        n_lo = min(t for t, _ in a.terms)
        out_prec = min(a.prec - d_lo, b.prec - 2 * d_lo + n_lo)
        rem = dict(a.terms)
        quot: dict = {}
        while rem:
            t_min = min(t for t, _ in rem)
            q_order = t_min - d_lo
            if q_order >= out_prec:
                break
            block = {r: c for (t, r), c in rem.items() if t == t_min}
            try:
                q_block = _laurent_div_exact(block, b0)
            except InexactDivision:
                raise InexactDivision(Fraction(t_min, a.qscale)) from None
            for r, c in q_block.items():
                quot[(q_order, r)] = c
            # subtract q_block * den from the remainder
            for rq, qc in q_block.items():
                for (t2, r2), c2 in b.terms.items():
                    key = (q_order + t2, rq + r2)
                    v = rem.get(key, 0) - qc * c2
                    if v:
                        rem[key] = v
                    else:
                        rem.pop(key, None)
        weight = None if (a.weight is None or b.weight is None) else a.weight - b.weight
        index = None if (a.index is None or b.index is None) else a.index - b.index
        return FJExp(a.qscale, a.zscale, out_prec,
                     {k: c for k, c in quot.items() if k[0] < out_prec},
                     weight=weight, index=index, cone_slack=None)

    def __truediv__(self, other) -> "FJExp":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, QSeries):
            return self * other.inverse()
        if isinstance(other, FJExp):
            return self.divide(other)
        return NotImplemented

    # -- Jacobi-form operators -------------------------------------------------------

    def eval_z0(self) -> QSeries:
        """Restriction to z = 0: sum the zeta-coefficients per q-power."""
        out: dict = {}
        for (t, _), c in self.terms.items():
            out[t] = out.get(t, 0) + c
        return QSeries(self.qscale, self.prec, out)

    def ud(self, d: int) -> "FJExp":
        """The operator z -> d*z; the index is multiplied by d^2."""
        if d < 1:
            raise ValueError("U_d expects a positive integer")
        if d == 1:
            return self
        return self._rebuilt(self.qscale, self.zscale, self.prec,
                             {(t, d * r): c for (t, r), c in self.terms.items()},
                             index=None if self.index is None else d * d * self.index,
                             cone_slack=None if self.cone_slack is None else d * self.cone_slack)

    def vl(self, l: int, k: Optional[int] = None) -> "FJExp":
        """Index-raising Hecke-type operator V_l at weight k.

        New coefficient at (n, r): sum over d | gcd(n, r, l) of
        d^(k-1) * a(n*l/d^2, r/d), with gcd(0, 0, l) = l.  Requires integral
        scales; the result is certified for n < ceil(prec / l).
        """
        if l < 1:
            raise ValueError("V_l expects a positive integer")
        if k is None:
            if self.weight is None or Fraction(self.weight).denominator != 1:
                raise ValueError("V_l needs an integral weight (pass k explicitly)")
            k = int(self.weight)
        a = self.normalized()
        if a.qscale != 1 or a.zscale != 1:
            raise ValueError("V_l requires integral q- and zeta-scales")
        if l == 1:
            return a
        new_prec = (a.prec + l - 1) // l
        out: dict = {}
        for d in divisors(l):
            dd = d * d
            mult = d ** (k - 1)
            for (n1, r1), c in a.terms.items():
                num = n1 * dd
                if num % l:
                    continue
                n = num // l
                if n >= new_prec or (d > 1 and n % d):
                    continue
                key = (n, d * r1)
                out[key] = out.get(key, 0) + mult * c
        return FJExp(1, 1, new_prec, out,
                     weight=self.weight,
                     index=None if self.index is None else l * self.index,
                     cone_slack=0 if self.cone_slack == 0 else None)

    # -- evaluation and specialization ---------------------------------------------------

    def _unknown_tail_bound(self, coef_tau: Fraction, coef_z: Fraction, shift: Fraction) -> Fraction:
        """Lower bound for coef_tau*x + coef_z*(r/w) + shift over the unknown
        region x >= prec_exponent, using the certified support cone."""
        x0 = self.prec_exponent
        if coef_z == 0:
            return coef_tau * x0 + shift
        if self.index is None or self.cone_slack is None:
            raise ValueError(
                "cannot certify output precision: the expansion carries no "
                "support-cone metadata (index and cone_slack)"
            )
        m = Fraction(self.index)
        b = Fraction(self.cone_slack)
        ad = abs(Fraction(coef_z))
        c = Fraction(coef_tau)
        if m == 0:
            # cone degenerates to |r/w| <= b
            return c * x0 - ad * b + shift
        xstar = (ad / c) * (ad / c) * m
        if x0 <= xstar:
            return -(ad * ad * m) / c - ad * b + shift
        return c * x0 - ad * (2 * _sqrt_upper(x0 * m) + b) + shift

    def eval_linear(self, tau_mult: int, z_mult: RatLike) -> QSeries:
        """The one-variable series of (tau, z) -> (c*tau, d*tau): each term
        c q^(t/s) zeta^(r/w) contributes at q-exponent c*(t/s) + d*(r/w)."""
        if tau_mult < 1:
            raise ValueError("tau multiplier must be a positive integer")
        d = Fraction(z_mult)
        bound = self._unknown_tail_bound(Fraction(tau_mult), d, Fraction(0))
        pairs = []
        for (t, r), c in self.terms.items():
            e = tau_mult * Fraction(t, self.qscale) + d * Fraction(r, self.zscale)
            if e < bound:
                pairs.append((e, c))
        return QSeries.from_exponents(pairs, bound)

    def specialize(self, lam: RatLike, mu: RatLike, index: Optional[RatLike] = None,
                   cyclotomic: bool = False):
        """Pull back along z = lam*tau + mu, including the index-m automorphy
        prefactor q^(m lam^2) e^(2 pi i m lam mu).

        Each term c q^(t/s) zeta^(r/w) lands at q-exponent
        t/s + (r/w) lam + m lam^2 with phase e^(2 pi i mu (r/w + m lam)).
        Phases accumulate exactly as cyclotomic integers; the result converts
        to a QSeries when every coefficient is rational, otherwise it raises
        NonRationalResult (or returns the CycloSeries when cyclotomic=True).
        """
        m = Fraction(index) if index is not None else (
            None if self.index is None else Fraction(self.index))
        if m is None:
            raise ValueError("an index is required to specialize (none in metadata)")
        lam = Fraction(lam)
        mu = Fraction(mu)
        shift = m * lam * lam
        bound = self._unknown_tail_bound(Fraction(1), lam, shift) if lam else self.prec_exponent
        entries = []
        conductor = 1
        for (t, r), c in self.terms.items():
            rz = Fraction(r, self.zscale)
            e = Fraction(t, self.qscale) + rz * lam + shift
            if e >= bound:
                continue
            angle = mu * (rz + m * lam)
            angle -= _floor_frac(angle)
            conductor = math.lcm(conductor, angle.denominator)
            entries.append((e, angle, c))
        if conductor > 48:
            raise ValueError(f"phase conductor {conductor} exceeds the supported cap 48")
        scale = bound.denominator
        for e, _, _ in entries:
            scale = math.lcm(scale, e.denominator)
        prec = _floor_frac(bound * scale)
        acc: dict = {}
        for e, angle, c in entries:
            t = e.numerator * (scale // e.denominator)
            j = int(angle * conductor)
            elt = CycloElt.from_root_power(conductor, j, c)
            acc[t] = acc[t] + elt if t in acc else elt
        result = CycloSeries(conductor, scale, prec, acc)
        if cyclotomic:
            return result
        return result.to_qseries()

    # -- comparison ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FJExp):
            return NotImplemented
        return (self.weight == other.weight and self.index == other.index
                and _Series.__eq__(self, other))

    def mismatch(self, other: "FJExp"):
        """First differing (q-exp, z-exp, self-coeff, other-coeff) on the
        common certified q-window, or None."""
        return self._mismatch(other, zeta=True)

    # -- serialization ----------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "qscale": self.qscale,
            "zscale": self.zscale,
            "prec": self.prec,
            "terms": [[t, r, rational_str(c)] for (t, r), c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FJExp":
        return cls(data["qscale"], data["zscale"], data["prec"],
                   {(t, r): parse_rational(c) for t, r, c in data["terms"]})

    # -- display ---------------------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return f"O(q^{_exp_str(self.prec_exponent)})"
        by_q: dict = {}
        for (t, r), c in self.terms.items():
            by_q.setdefault(t, {})[r] = c
        parts = []
        for t in sorted(by_q):
            qpow = _q_power(Fraction(t, self.qscale))
            body = _zeta_polynomial_str(by_q[t], self.zscale)
            if not qpow:
                parts.append(body)
            elif body == "1":
                parts.append(qpow)
            else:
                parts.append(f"{qpow}*({body})")
        return " + ".join(parts) + f" + O(q^{_exp_str(self.prec_exponent)})"

    def __repr__(self) -> str:
        return (f"FJExp(qscale={self.qscale}, zscale={self.zscale}, prec={self.prec}, "
                f"{len(self.terms)} terms, weight={self.weight}, index={self.index})")


def _zeta_polynomial_str(coeffs: dict, zscale: int) -> str:
    """Display a zeta-Laurent polynomial, grouping r with -r when symmetric."""
    done = set()
    parts = []
    for r in sorted(coeffs, key=lambda r: (-abs(r), -r)):
        if r in done:
            continue
        c = coeffs[r]
        if r != 0 and coeffs.get(-r) == c:
            done.update((r, -r))
            parts.append(_signed_term(c, f"zeta^(+-{Fraction(abs(r), zscale)})", first=not parts))
        else:
            done.add(r)
            parts.append(_signed_term(c, _zeta_power(Fraction(r, zscale)), first=not parts))
    return "".join(parts) if parts else "0"


def _laurent_div_exact(num: dict, den: dict) -> dict:
    """Exact division in the Laurent polynomial ring Q[z, 1/z].

    Inputs map exponent -> coefficient; raises InexactDivision(0) when the
    quotient does not exist.
    """
    if not den:
        raise ZeroDivisionError("Laurent division by zero")
    if not num:
        return {}
    nmin, dmin = min(num), min(den)
    dmax = max(den)
    dlead = Fraction(den[dmax])
    qmin = nmin - dmin
    rem = dict(num)
    quot: dict = {}
    while rem:
        rmax = max(rem)
        qdeg = rmax - dmax
        if qdeg < qmin:
            raise InexactDivision(Fraction(0))
        coef = Fraction(rem[rmax]) / dlead
        quot[qdeg] = as_rational(coef)
        for rd, dc in den.items():
            key = qdeg + rd
            v = rem.get(key, 0) - coef * dc
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quot


# ---------------------------------------------------------------------------
# precision planning helpers and the precision memo of the form constructors
# ---------------------------------------------------------------------------

def prec_for_specialize(target: RatLike, index: RatLike, lam: RatLike, slack: RatLike) -> int:
    """Input q-precision (in whole q-units) sufficient for `specialize` at
    z = lam*tau + mu to be certified below `target`."""
    lam = abs(Fraction(lam))
    if lam == 0:
        return math.ceil(Fraction(target))
    m, b, w = Fraction(index), Fraction(slack), Fraction(target)
    y = lam * _sqrt_upper(m) + _sqrt_upper(w + lam * b)
    return _floor_frac(y * y) + 2


def prec_for_eval_linear(target: RatLike, index: RatLike, tau_mult: int,
                         z_mult: RatLike, slack: RatLike) -> int:
    """Input q-precision sufficient for `eval_linear(tau_mult, z_mult)` to be
    certified below `target`."""
    d = abs(Fraction(z_mult))
    c = Fraction(tau_mult)
    if d == 0:
        return math.ceil(Fraction(target) / c)
    m, b, w = Fraction(index), Fraction(slack), Fraction(target)
    y = (d * _sqrt_upper(m) + _sqrt_upper(d * d * m + c * (w + d * b))) / c
    return _floor_frac(y * y) + 2


def require_prec(form: str, prec: int) -> None:
    """The precondition shared by the public form constructors."""
    if prec < 1:
        raise ValueError(f"{form} needs prec >= 1, got {prec}")


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def memo_by_prec(build):
    """Memoize a pure constructor `build(*args, prec)` whose series is
    certified below prec + c, c fixed per form: keep one build per `args`,
    the one at the highest precision `top`, and cut any request with
    1 <= prec <= top from it; any other request goes to `build`.  Builds run
    outside the lock (constructors call each other) and replace the kept one
    only if higher.  `cache_info` and `cache_clear` are as in lru_cache."""
    kept: dict = {}  # args before the precision -> (top, series)
    counts = [0, 0]  # hits, misses
    lock = threading.Lock()

    @wraps(build)
    def memo(*args):
        key, prec = args[:-1], args[-1]
        with lock:
            top, series = kept.get(key, (0, None))
            hit = 1 <= prec <= top
            counts[0 if hit else 1] += 1
        if hit:
            return series.truncated(series.prec_exponent - (top - prec))
        series = build(*args)
        with lock:
            if prec > kept.get(key, (0,))[0]:
                kept[key] = (prec, series)
        return series

    def cache_clear() -> None:
        with lock:
            kept.clear()
            counts[:] = [0, 0]

    memo.cache_info = lambda: CacheInfo(counts[0], counts[1], None, len(kept))
    memo.cache_clear = cache_clear
    return memo
