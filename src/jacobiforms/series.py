"""Exact truncated series in one and two variables.

QSeries is a series in q^(1/s) with rational coefficients: a map t -> c
meaning c * q^(t/s), together with a precision P (coefficients are certified
for all exponents t/s < P/s; larger ones are truncated).  FJExp is the
two-variable analogue, a Fourier-Jacobi expansion sum c * q^(t/s) zeta^(r/w)
whose zeta-part is a finite Laurent polynomial for every q-power.

Both are subclasses of one row core, QSeries being the case w = 1 with
every zeta-index 0, so they share one vocabulary: `prec` is the precision
P in units of 1/s, `prec_exponent` is P/s, `truncated(e)` cuts the certified
window to q-exponents below e, and `mismatch` returns the first difference
on the common window as (q_exp, z_exp, lhs, rhs), with z_exp None for a
QSeries, or None when there is none.  A series is stored as one positive
denominator and integer rows: per q-index one run of numerators over the
expansion's zeta-grid for an FJExp, one run over the q-grid for a QSeries,
in the canonical form made by one step, `_canonical`, so that products,
truncation, sums, equality, `coefficient`, `mismatch`, serialization and
the support-cone test work on the rows and make no Fraction per term: a
sum merges the operands' runs row by row on their common grid, and the
cone test decides each row by one integer bound.  `terms`, the read-only
map key -> coefficient, is built on first read; `len(terms)` reads a
stored count.  Each class keeps its own `__mul__`, but both multiply
through one module-level kernel, `_product`: Kronecker substitution
packs each operand's rows into one integer, so that a product is one
big-int multiply instead of a loop over term pairs.  Slots of up to 8
bytes are machine words, packed and read by one struct call each; wider
slots are byte slices.  A square packs its one operand once, and powers
start from their first factor, never from a product by 1.

Negative exponents are allowed in both variables.  Binary operations align
the scales by lcm and take the minimum precision, corrected downward when an
operand has terms with negative q-exponent; nothing is ever emitted beyond
the certified window.  Series are read-only once built (`terms` is a
MappingProxyType view; setting an attribute raises), so callers can share one.

There is one division: FJExp.divide, one long division that clears the
lowest row of the remainder, q-order by q-order, in one pass over the divisor
read with leading coefficient 1; QSeries.inverse divides 1 through it, and
cyclotomic_poly multiplies out the Moebius product.  There is one pull-back,
FJExp._pullback, shared by FJExp.specialize and FJExp.eval_linear: it
certifies the output window exactly from the expansion's support cone, and the
planners prec_for_specialize and prec_for_eval_linear return the least input
precision whose window reaches a target, decided by that same bound (_TailBound).
It folds each phase into integer coordinates in the power basis of Q[x]/Phi_K(x),
x a primitive K-th root of unity, one row per q-index of a CycloSeries, whose
`to_qseries` is the one exit of both; a CycloElt, one such element, is made
only when a caller reads `CycloSeries.terms` or a NonRationalResult.
"""

from __future__ import annotations

import math
import struct
import threading
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain, compress, count, groupby
from operator import add, itemgetter, neg
from types import MappingProxyType
from typing import Optional, Union

from jacobiforms.numtheory import Rat, _rational, as_rational, divisors, mobius, parse_rational, rational_str

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


_set = object.__setattr__  # __init__ writes slots through this; later writes raise


def _read_only(self, name, *_):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


def _require_scales(qscale, zscale, prec) -> None:
    """The constructors' precondition: positive integer scales, an integer prec."""
    if not (type(qscale) is type(zscale) is type(prec) is int) or min(qscale, zscale) < 1:
        raise ValueError(f"scales must be positive integers and prec an integer, got qscale "
                         f"{qscale!r}, zscale {zscale!r}, prec {prec!r}")


def _fraction(name: str, x: RatLike) -> Fraction:
    """Fraction(x) for an int or a Fraction x; anything else raises
    TypeError, since Fraction would take a float's binary expansion."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{name} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


# ---------------------------------------------------------------------------
# the product kernel shared by QSeries and FJExp
# ---------------------------------------------------------------------------

def _product(a: "_Series", b: "_Series", bound: int) -> tuple:
    """The exact product of two series on the same scales below q-index
    `bound`, as (den, rows, grid) for `_reduced`, by Kronecker
    substitution: one big-int multiply instead of a loop over term pairs.

    Rows that cannot land below the bound are dropped.  The product lives on
    the q-grid gcd of the operands' q-strides and, for an FJExp, on the
    zeta-grid gcd of their zeta-strides (eta's q^(1/24) would otherwise
    leave t on a stride of 24).  Each operand's integer numerators are laid
    out t-major in one int, one signed k-byte slot per grid point, row by
    row; the denominator of the product is the product of the two.  A
    product slot sums at most one pair per term of either operand, so its
    size is at most min(sum|a| * max|b|, max|a| * sum|b|) (read from each
    operand's summary), and k keeps that below half the slot range.  A k of
    at most 8 bytes is rounded up to a machine word (1, 2, 4 or 8 bytes),
    so that an operand is packed by one struct.pack and the product read by
    one struct.unpack; wider slots are written and read as byte slices.  An
    operand is packed in two's complement, and the sign bit of each slot
    then takes off the borrow that slot owes.  Adding half the range to each
    slot read removes the borrows between the product's slots, and flipping
    the sign bits back leaves each slot's signed value.  Each product row is
    cut from the bytes with its zero slots at both ends stripped.  A square
    (`a is b`) packs its operand once.
    """
    if not a._rows or not b._rows:
        return 1, (), 1
    ta0, tb0 = a._rows[0][0], b._rows[0][0]
    origin = ta0 + tb0
    if origin >= bound:
        return 1, (), 1
    zeta = a._zeta
    gt = math.gcd(a._gt, b._gt) or 1
    rows_a, ra0, ra1 = a._kept(bound - tb0)
    rows_b, rb0, rb1 = (rows_a, ra0, ra1) if a is b else b._kept(bound - ta0)
    if zeta:
        gr = unit = math.gcd(a._gr, b._gr) or 1
        width = (ra1 - ra0 + rb1 - rb0) // gr + 1
    else:
        gr, unit, width = 1, gt, 1
    # (first slot, slot step, numerators) of each run
    step_a = (a._gr if zeta else a._gt) // unit or 1
    step_b = (b._gr if zeta else b._gt) // unit or 1
    runs_a = [((t - ta0) // gt * width + (r - ra0) // gr, step_a, nums) for t, r, nums in rows_a]
    runs_b = runs_a if a is b else [((t - tb0) // gt * width + (r - rb0) // gr, step_b, nums)
                                    for t, r, nums in rows_b]
    sa, sb = a._summary(), b._summary()
    most = min(sa[1] * sb[2], sa[2] * sb[1])
    k = most.bit_length() // 8 + 1  # bytes per slot: most < 2^(8k - 1)
    k, word = _WORDS.get(k, (k, None))  # word: the struct letter, None above 8 bytes
    # the last run, in the highest row, ends the slots of an operand
    size_a = runs_a[-1][0] + step_a * (len(runs_a[-1][2]) - 1) + 1
    size_b = runs_b[-1][0] + step_b * (len(runs_b[-1][2]) - 1) + 1
    # the slots read, below the bound
    n = min(size_a + size_b - 1, (bound - origin + gt - 1) // gt * width)
    signs = int.from_bytes((b"\x00" * (k - 1) + b"\x80") * n, "little")
    pa = _packed(runs_a, size_a, k, word, signs)
    prod = pa * pa if a is b else pa * _packed(runs_b, size_b, k, word, signs)
    data = (((prod + signs) & ((1 << 8 * k * n) - 1)) ^ signs).to_bytes(n * k, "little")
    if word:
        slots = struct.unpack(f"<{n}{word}", data)
    chunk = width if zeta else n  # the slots of one product row
    out = []
    for i in range(0, n, chunk):
        end = min(i + chunk, n)
        seg = data[i * k:end * k]
        body = seg.lstrip(b"\0")
        if not body:
            continue
        lo = i + (len(seg) - len(body)) // k
        hi = end - (len(body) - len(body.rstrip(b"\0"))) // k
        nums = slots[lo:hi] if word else tuple(
            int.from_bytes(data[p:p + k], "little", signed=True) for p in range(lo * k, hi * k, k))
        if zeta:
            out.append((origin + gt * (i // width), ra0 + rb0 + gr * (lo - i), nums))
        else:
            out.append((origin + gt * lo, 0, nums))
    return a._den * b._den, out, unit


# slot bytes k <= 8 -> (the machine word k rounds up to, its struct letter)
_WORDS = {1: (1, "b"), 2: (2, "h"), 3: (4, "i"), 4: (4, "i"),
          5: (8, "q"), 6: (8, "q"), 7: (8, "q"), 8: (8, "q")}


def _packed(runs: list, size: int, k: int, word: Optional[str], signs: int) -> int:
    """sum nums[j] * 2^(8k * (s + d*j)) over runs (s, d, nums), for
    |nums[j]| < 2^(8k - 1): the numerators laid out in two's complement, by
    one struct.pack of the machine word with letter `word` or, when it is
    None, as k-byte slices, read back as one unsigned int u.  A negative
    slot reads 2^(8k) too high and has its sign bit set, so
    u - 2 * (u & signs) is the sum, `signs` holding the sign bit of every
    slot."""
    if word:
        dense = [0] * size
        for s, d, nums in runs:
            dense[s:s + d * len(nums):d] = nums
        u = int.from_bytes(struct.pack(f"<{size}{word}", *dense), "little")
    else:
        buf = bytearray(size * k)
        for s, d, nums in runs:
            for j, c in enumerate(nums):
                p = (s + d * j) * k
                buf[p:p + k] = c.to_bytes(k, "little", signed=True)
        u = int.from_bytes(buf, "little")
    return u - ((u & signs) << 1)


def _canonical(den: int, rows, grid: int, axis: int) -> tuple:
    """The canonical (den, rows, gt, gr) of rows (t, r, nums) over den whose
    runs, with nonzero ends, step by `grid` along key component `axis`: den
    and every numerator divided by their gcd, the runs thinned to the exact
    stride of the nonzero terms, and gt, gr the exact q- and zeta-strides
    (0 for a single position).  Every series is made through this step."""
    if not rows:
        return 1, (), 0, 0
    if den > 1:
        g = math.gcd(den, *chain.from_iterable(row[2] for row in rows))
        if g > 1:
            den //= g
            rows = [(t, r, tuple(c // g for c in nums)) for t, r, nums in rows]
    s0 = rows[0][axis]
    h = math.gcd(*[(row[axis] - s0) // grid for row in rows], *[len(row[2]) - 1 for row in rows])
    for _, _, nums in rows:
        if h < 2:
            break
        if len(nums) > 1:
            h = 1 if 0 not in nums else math.gcd(h, *[j for j, c in enumerate(nums) if c])
    rows = tuple((t, r, nums[::h]) for t, r, nums in rows) if h > 1 else tuple(rows)
    gt = math.gcd(*[t - rows[0][0] for t, _, _ in rows])  # 0 for a QSeries' one row
    return (den, rows, gt, grid * h) if axis else (den, rows, grid * h, 0)


def _run(nums: dict, g: int) -> tuple:
    """A map from positions on a grid of step g >= 1 to numerators as
    (first position, numerators with zeros in the gaps)."""
    s0 = min(nums)
    run = [0] * ((max(nums) - s0) // g + 1)
    for p, c in nums.items():
        run[(p - s0) // g] = c
    return s0, tuple(run)


def _num_at(nums: tuple, start: int, step: int, x: int) -> int:
    """The numerator at position x of a run from `start` by `step` (0 for
    one position), 0 off the run."""
    j, off = divmod(x - start, step or 1)
    return 0 if off or not 0 <= j < len(nums) else nums[j]


_first = itemgetter(0)


# ---------------------------------------------------------------------------
# the row core shared by QSeries and FJExp
# ---------------------------------------------------------------------------

class _TermMap:
    """The mapping behind a series' `terms` proxy: its length is the stored
    count of nonzero terms; anything else reads the series' term map, which
    is built on that first read."""

    __slots__ = ("_series",)

    def __init__(self, series):
        self._series = series

    def __len__(self):
        return self._series._summary()[0]

    def __getitem__(self, key):
        return self._series._term_map()[key]

    def __iter__(self):
        return iter(self._series._term_map())

    def __contains__(self, key):
        return key in self._series._term_map()

    def __eq__(self, other):
        return self._series._term_map() == other

    def __repr__(self):
        return repr(dict(self._series._term_map()))

    def __getattr__(self, name):  # keys, items, values, get, copy
        return getattr(self._series._term_map(), name)


class _Series:
    """A read-only series certified for every q-index t < prec, a term
    standing for num/den * q^(t/qscale) zeta^(r/zscale), stored as one
    positive denominator `_den` and integer rows `_rows` of (t, r, nums).

    For an FJExp each row is one q-index t, sorted by t, and nums[j] is the
    numerator at zeta-index r + _gr*j; for a QSeries there is at most one
    row, and nums[j] is the numerator at q-index t + _gt*j.  The form is
    canonical, so that equal series have equal rows: gcd(den, nums) = 1,
    every run has nonzero ends, and `_gt` and `_gr` are the exact gcds of
    the differences of the nonzero terms' q- and zeta-indices (0 when there
    is only one).  `_summary()` (count, sum|num|, max|num|, zeta-range) and
    the term map behind `terms` are computed on first use.

    Subclasses supply `_zeta` (whether keys are (t, r) rather than t),
    `_keyed` (the sorted (key, numerator) pairs), `_kept` and `_cut` (the
    rows, or the series, below a q-index), `_lifted` (an addend as this
    type or None), `_meta` and `_sum_meta`.
    """

    __slots__ = ("qscale", "prec", "_den", "_rows", "_gt", "_gr", "_stats", "_map")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, qscale: int, prec: int, terms: dict):
        _require_scales(qscale, self.zscale, prec)
        zeta = self._zeta
        clean = {}
        for k, c in terms.items():
            if type(c) is not int:
                c = as_rational(c)
            if c == 0:
                continue
            if (t := k[0] if zeta else k) >= prec:
                raise ValueError(f"term at q^({t}/{qscale}) at or beyond precision {prec}")
            clean[k] = c
        self._fill(qscale, prec, *self._gridded(clean))

    @classmethod
    def _gridded(cls, nums: dict, den: int = 1) -> tuple:
        """`_canonical` of a map from keys to nonzero values over den, ints
        or Fractions (whose denominators join den): the values as integers
        over one denominator, the keys as one run per row on their gcd grid."""
        if dens := [c.denominator for c in nums.values() if type(c) is not int]:
            d = math.lcm(*dens)
            den, nums = den * d, {k: c.numerator * (d // c.denominator) for k, c in nums.items()}
        if not nums:
            return _canonical(den, (), 1, cls._zeta)
        if not cls._zeta:  # keys t
            t0 = next(iter(nums))
            g = math.gcd(*[t - t0 for t in nums]) or 1
            t0, run = _run(nums, g)
            return _canonical(den, [(t0, 0, run)], g, 0)
        by_t: dict = {}
        for (t, r), c in nums.items():
            by_t.setdefault(t, {})[r] = c
        r0 = next(iter(nums))[1]
        g = math.gcd(*[r - r0 for _, r in nums]) or 1
        return _canonical(den, [(t, *_run(by_t[t], g)) for t in sorted(by_t)], g, 1)

    def _fill(self, qscale, prec, den, rows, gt, gr) -> None:
        _set(self, "qscale", qscale)
        _set(self, "prec", prec)
        _set(self, "_den", den)
        _set(self, "_rows", rows)
        _set(self, "_gt", gt)
        _set(self, "_gr", gr)
        _set(self, "_stats", None)
        _set(self, "_map", None)

    @classmethod
    def _make(cls, qscale, zscale, prec, den, rows, gt, gr, meta=(None, None, None)):
        """A series from canonical rows, unchecked; `meta` is (weight,
        index, cone_slack) for an FJExp, whose zscale it sets too."""
        self = object.__new__(cls)
        self._fill(qscale, prec, den, rows, gt, gr)
        for name, value in zip(cls.__slots__, (zscale, *meta)):  # FJExp's own slots
            _set(self, name, value)
        return self

    @classmethod
    def _reduced(cls, qscale, zscale, prec, den, rows, grid, meta=(None, None, None)):
        """`_make` from rows with nonzero ends whose runs step by `grid`,
        brought to canonical form first."""
        return cls._make(qscale, zscale, prec, *_canonical(den, rows, grid, cls._zeta), meta)

    def _like(self, prec, den, rows, gt, gr, **meta):
        """A copy of this series' class, scales and metadata with new
        canonical data; `meta` overrides fields of the metadata."""
        return self._make(self.qscale, self.zscale, prec, den, rows, gt, gr, self._meta(**meta))

    @property
    def terms(self) -> MappingProxyType:
        """The read-only map key -> nonzero coefficient, built on first
        read; its len is the stored count and builds nothing."""
        m = self._map
        return m if m is not None else MappingProxyType(_TermMap(self))

    def _term_map(self) -> MappingProxyType:
        m = self._map
        if m is None:
            den = self._den
            m = MappingProxyType({k: _rational(c, den) for k, c in self._keyed()})
            _set(self, "_map", m)
        return m

    def _summary(self) -> tuple:
        """(count, sum |num|, max |num|, lowest r, highest r) of the nonzero
        terms, computed on first use."""
        s = self._stats
        if s is None:
            rows, g = self._rows, self._gr
            flat = rows[0][2] if len(rows) == 1 else tuple(chain.from_iterable(row[2] for row in rows))
            if g:
                lo, hi = min(r for _, r, _ in rows), max(r + g * (len(nums) - 1) for _, r, nums in rows)
            else:  # one zeta-index, or a QSeries
                lo = hi = rows[0][1] if rows else 0
            mags = list(map(abs, flat))
            s = (len(flat) - flat.count(0), sum(mags), max(mags, default=0), lo, hi)
            _set(self, "_stats", s)
        return s

    @property
    def prec_exponent(self) -> Fraction:
        return Fraction(self.prec, self.qscale)

    def is_zero(self) -> bool:
        return not self._rows

    def _q_index(self, q_exp: RatLike) -> Fraction:
        """q_exp in units of 1/qscale; raises beyond the certified window."""
        e = _fraction("q_exp", q_exp)
        if e >= self.prec_exponent:
            raise ValueError(f"exponent {e} is beyond certified precision {self.prec_exponent}")
        return e * self.qscale

    # -- scale and precision management ---------------------------------------

    def rescaled(self, s: int, w: Optional[int] = None):
        """Same series on finer scales (w defaults to the current
        zeta-scale); each must be a multiple of the old one."""
        w = self.zscale if w is None else w
        _require_scales(s, w, self.prec)
        if s % self.qscale or w % self.zscale:
            raise ValueError("new scales must be multiples of the old ones")
        ks, kw = s // self.qscale, w // self.zscale
        if ks == 1 and kw == 1:
            return self
        return self._make(s, w, self.prec * ks, self._den,
                          tuple((t * ks, r * kw, nums) for t, r, nums in self._rows),
                          self._gt * ks, self._gr * kw, self._meta())

    def normalized(self):
        """Reduce to the minimal scales representing the same certified data.

        The precision bound participates in the q-gcd so that no certified
        information is lost; the result is idempotent.
        """
        t0, r0, _ = self._rows[0] if self._rows else (0, 0, ())
        gs = math.gcd(self.qscale, self.prec, t0, self._gt)
        gw = math.gcd(self.zscale, r0, self._gr)
        if gs == 1 and gw == 1:
            return self
        return self._make(self.qscale // gs, self.zscale // gw, self.prec // gs, self._den,
                          tuple((t // gs, r // gw, nums) for t, r, nums in self._rows),
                          self._gt // gs, self._gr // gw, self._meta())

    def truncated(self, prec_exp: RatLike):
        """The same series, certified only below q^prec_exp."""
        bound = _fraction("prec_exp", prec_exp)
        if bound >= self.prec_exponent:
            return self
        return self._cut(math.floor(bound * self.qscale))

    def _aligned(self, other):
        s = math.lcm(self.qscale, other.qscale)
        w = math.lcm(self.zscale, other.zscale)
        return self.rescaled(s, w), other.rescaled(s, w)

    # -- ring operations --------------------------------------------------------

    def __neg__(self):
        return self._like(self.prec, self._den,
                          tuple((t, r, tuple(map(neg, nums))) for t, r, nums in self._rows),
                          self._gt, self._gr)

    def _times(self, c: RatLike):
        """The product by a rational scalar."""
        if not c:
            return self._like(self.prec, 1, (), 0, 0)
        p = c.numerator
        rows = [(t, r, tuple(x * p for x in nums)) for t, r, nums in self._rows]
        return self._reduced(self.qscale, self.zscale, self.prec, self._den * c.denominator, rows,
                             (self._gr if self._zeta else self._gt) or 1, self._meta())

    def _merged(self, other, sign: int):
        """self + sign * other, merged row by row over the lcm of the two
        denominators: on the common grid of the operands' runs (the zeta-grid
        of an FJExp, the q-grid of a QSeries), the runs that share a row are
        laid onto one list by slice assignment and added, and the sum keeps
        its rows with their zero ends stripped."""
        if isinstance(other, (int, Fraction)):  # the constant series, in self's window
            if other and self.prec <= 0:
                raise ValueError(f"term at q^(0/{self.qscale}) at or beyond precision {self.prec}")
            rows = [(0, 0, (other.numerator,))] if other else []
            other = QSeries._make(self.qscale, 1, self.prec, *_canonical(other.denominator, rows, 1, 0))
        other = self._lifted(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        a, b = a._cut(prec), b._cut(prec)
        den = math.lcm(a._den, b._den)
        axis = self._zeta  # the key component the runs go along
        steps = (a._gr, b._gr) if axis else (a._gt, b._gt)
        starts = [x._rows[0][axis] for x in (a, b) if x._rows]
        grid = math.gcd(*steps, starts[0] - starts[-1] if starts else 0) or 1
        # per row: (row key, first position, step in grid units, scaled numerators)
        runs = sorted([(t * axis, r if axis else t, step // grid or 1, nums if f == 1 else [c * f for c in nums])
                       for x, step, f in zip((a, b), steps, (den // a._den, sign * (den // b._den)))
                       for t, r, nums in x._rows], key=_first)
        rows = []
        for key, group in groupby(runs, key=_first):
            (_, p, d, nums), *rest = group  # the row's one or two runs
            if rest or d > 1:
                _, q, e, more = rest[0] if rest else (key, p, d, ())
                lo = min(p, q)
                u, v = (p - lo) // grid, (q - lo) // grid
                row = [0] * max(u + d * len(nums), v + e * len(more))
                row[u:u + d * len(nums):d] = nums
                row[v:v + e * len(more):e] = map(add, row[v:v + e * len(more):e], more)
                if (i := next(compress(count(), row), None)) is None:
                    continue
                p, nums = lo + grid * i, row[i:len(row) - next(compress(count(), reversed(row)))]
            rows.append((key, p, tuple(nums)) if axis else (p, 0, tuple(nums)))
        return a._make(a.qscale, a.zscale, prec, *_canonical(den, rows, grid, axis),
                       a._meta(**a._sum_meta(b)))

    def __add__(self, other):
        return self._merged(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merged(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _powered(self, n: int):
        """self^n for n >= 1, by binary powering from the first factor.
        Starting from 1 would cost one more product and, for a base with
        negative q-exponents, narrow the certified window by their depth."""
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _mul_rows(self, other):
        """The aligned operands and the precision and kernel output of their
        product: the window narrows by the depth of negative q-exponents."""
        a, b = self._aligned(other)
        lo_a = a._rows[0][0] if a._rows else 0
        lo_b = b._rows[0][0] if b._rows else 0
        prec = min(a.prec + min(lo_b, 0), b.prec + min(lo_a, 0))
        return a, b, prec, _product(a, b, prec)

    # -- comparison -------------------------------------------------------------

    def _data(self) -> tuple:
        return self._den, self._gt, self._gr, self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return (a.qscale == b.qscale and a.zscale == b.zscale and a.prec == b.prec
                and a._data() == b._data())

    __hash__ = None

    def _mismatch(self, other):
        """First differing (q-exp, z-exp, self-coeff, other-coeff) on the
        common certified q-window, or None when the series agree there; the
        z-exp is None for a QSeries.  Equal rows answer at once."""
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        a, b = a._cut(prec), b._cut(prec)
        if a._data() == b._data():
            return None
        na, nb = dict(a._keyed()), dict(b._keyed())
        for k in sorted(na.keys() | nb.keys()):
            ca, cb = na.get(k, 0), nb.get(k, 0)
            if ca * b._den != cb * a._den:
                t, r = k if a._zeta else (k, None)
                return (Fraction(t, a.qscale), r if r is None else Fraction(r, a.zscale),
                        _rational(ca, a._den), _rational(cb, b._den))
        return None

    def agrees_with(self, other) -> bool:
        return self.mismatch(other) is None

    def _text(self):
        """The canonical string of a numerator over this series' denominator,
        as `rational_str` writes the reduced rational."""
        den = self._den
        if den == 1:
            return str

        def text(c):
            g = math.gcd(c, den)
            return f"{c // g}/{den // g}" if g != den else str(c // g)
        return text


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------

class QSeries(_Series):
    """Truncated series sum_t c_t q^(t/qscale), certified for t < prec: the
    core with zscale 1 and zeta-index 0, keyed by t alone, its terms one
    run over the q-grid."""

    __slots__ = ()
    zscale = 1
    _zeta = 0  # the rows' runs go along t, key component 0

    def _meta(self) -> tuple:
        return ()  # QSeries carries no metadata

    def _keyed(self) -> list:
        g = self._gt
        return [(t + g * j, c) for t, _, run in self._rows for j, c in enumerate(run) if c]

    def _kept(self, limit: int) -> tuple:
        (t0, _, run), = self._rows
        m = (limit - t0 - 1) // self._gt + 1 if self._gt else 1
        return ((t0, 0, run[:m]),), 0, 0

    def _cut(self, p: int) -> "QSeries":
        if p >= self.prec:
            return self
        if not self._rows or self._rows[0][0] >= p:
            return self._like(p, 1, (), 0, 0)
        ((t0, _, run),), _, _ = self._kept(p)
        end = len(run)
        while not run[end - 1]:
            end -= 1
        return self._reduced(self.qscale, 1, p, self._den, [(t0, 0, run[:end])], self._gt or 1)

    def _lifted(self, other):
        return other if isinstance(other, QSeries) else None

    def _sum_meta(self, other) -> dict:
        return {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls, prec_exp: RatLike) -> "QSeries":
        """1 certified below q^prec_exp: O(q^prec_exp) when that is <= 0."""
        p = _fraction("prec_exp", prec_exp)
        return cls(p.denominator, p.numerator, {0: 1} if p > 0 else {})

    # -- basic queries ---------------------------------------------------------

    def lowest_exponent(self) -> Optional[Fraction]:
        return Fraction(self._rows[0][0], self.qscale) if self._rows else None

    def coefficient(self, exponent: RatLike) -> Rat:
        """Coefficient at q^exponent; raises beyond the certified window."""
        t = self._q_index(exponent)
        if t.denominator != 1 or not self._rows:
            return 0
        (t0, _, run), = self._rows
        return _rational(_num_at(run, t0, self._gt, t.numerator), self._den)

    # -- ring operations --------------------------------------------------------

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, _, prec, (den, rows, grid) = self._mul_rows(other)
        return QSeries._reduced(a.qscale, 1, prec, den, rows, grid)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return self._powered(n) if n else QSeries.one(self.prec_exponent)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse as a Laurent series in q^(1/s): 1 divided
        by this series through `FJExp.divide`, at zeta-index 0."""
        if not self._rows:
            raise ZeroDivisionError("cannot invert a series with zero lowest coefficient")
        # 1 is certified as far as the inverse of the unit part needs it
        one = FJExp(self.qscale, 1, self.prec - self._rows[0][0], {(0, 0): 1})
        return one.divide(FJExp.from_qseries(self))._at_z0()

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        return self * other.inverse()

    def substituted(self, c: int) -> "QSeries":
        """q -> q^c for a positive integer c."""
        if not isinstance(c, int) or c < 1:
            raise ValueError("substitution exponent must be a positive integer")
        return self._like(self.prec * c, self._den,
                          tuple((t * c, 0, run) for t, _, run in self._rows), self._gt * c, 0)

    def shifted(self, delta: RatLike) -> "QSeries":
        """Multiply by the exact monomial q^delta, delta an int or a Fraction."""
        delta = _fraction("shift", delta)
        a = self.rescaled(math.lcm(self.qscale, delta.denominator))
        off = delta.numerator * (a.qscale // delta.denominator)
        return a._like(a.prec + off, a._den, tuple((t + off, 0, run) for t, _, run in a._rows),
                       a._gt, 0)

    # -- comparison -------------------------------------------------------------

    def mismatch(self, other: "QSeries"):
        """First differing (exponent, None, self-coeff, other-coeff) on the
        common certified window, or None when the series agree there."""
        return self._mismatch(other)

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        text = self._text()
        return {"qscale": self.qscale, "prec": self.prec,
                "terms": [[t, text(c)] for t, c in self._keyed()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        return cls(data["qscale"], data["prec"], {t: parse_rational(c) for t, c in data["terms"]})

    # -- display --------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._rows:
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

@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, low degree first:
    x - 1 for n = 1, else the Moebius product prod_{d|n} (1 - x^d)^mu(n/d),
    multiplied out as a power series through its degree phi(n)."""
    if n == 1:
        return (-1, 1)
    factors = [(d, mu) for d in divisors(n) if (mu := mobius(n // d))]
    size = sum(mu * d for d, mu in factors) + 1  # phi(n) + 1
    out = [1] + [0] * (size - 1)
    for d, mu in factors:
        if mu > 0:  # times 1 - x^d
            for i in range(size - 1, d - 1, -1):
                out[i] -= out[i - d]
        else:  # times 1 / (1 - x^d) = sum_j x^(jd)
            for i in range(d, size):
                out[i] += out[i - d]
    return tuple(out)


@lru_cache(maxsize=None)
def _root_power_rows(k: int) -> tuple:
    """x^j mod Phi_k for j in range(k), as int tuples (Phi_k is monic and integral)."""
    phi = cyclotomic_poly(k)
    deg = len(phi) - 1
    rows = []
    row = [0] * deg
    row[0] = 1
    for _ in range(k):
        rows.append(tuple(row))
        carry = row[deg - 1]
        row = [0] + row[: deg - 1]
        if carry:
            for i in range(deg):
                row[i] -= carry * phi[i]
    return tuple(rows)


def _require_conductor(cls, conductor) -> None:
    """The cyclotomic constructors' precondition: an int conductor K >= 1."""
    if type(conductor) is not int or conductor < 1:
        raise ValueError(f"{cls.__name__} needs an int conductor >= 1, got {conductor!r}")


class CycloElt:
    """Element of Q[x]/Phi_K(x) in the power basis, x = exp(2 pi i / K); the
    coordinates are canonical (`as_rational`), so integer ones are ints."""

    __slots__ = ("conductor", "coords")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, conductor: int, coords):
        _require_conductor(type(self), conductor)
        _set(self, "conductor", conductor)
        coords = tuple(as_rational(c) for c in coords)
        deg = len(cyclotomic_poly(conductor)) - 1
        if len(coords) != deg:
            raise ValueError(f"expected {deg} coordinates for conductor {conductor}")
        _set(self, "coords", coords)

    @classmethod
    def zero(cls, conductor: int) -> "CycloElt":
        _require_conductor(cls, conductor)
        deg = len(cyclotomic_poly(conductor)) - 1
        return cls(conductor, (0,) * deg)

    @classmethod
    def from_root_power(cls, conductor: int, j: int, coeff: RatLike = 1) -> "CycloElt":
        """coeff * exp(2 pi i j / K)."""
        coeff = _fraction("coeff", coeff)
        _require_conductor(cls, conductor)
        row = _root_power_rows(conductor)[j % conductor]
        return cls(conductor, tuple(coeff * x for x in row))

    def __add__(self, other: "CycloElt") -> "CycloElt":
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch")
        return CycloElt(self.conductor, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CycloElt") -> "CycloElt":
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch")
        return CycloElt(self.conductor, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, scalar) -> "CycloElt":
        c = _fraction("scalar", scalar)
        return CycloElt(self.conductor, tuple(c * x for x in self.coords))

    __rmul__ = __mul__

    def times_root(self, j: int) -> "CycloElt":
        """Multiply by exp(2 pi i j / K)."""
        return CycloElt(self.conductor, _rotated(self.coords, j, self.conductor))

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


def _rotated(coords, j: int, conductor: int) -> tuple:
    """Power-basis coordinates times x^j, x a primitive conductor-th root."""
    rows = _root_power_rows(conductor)
    out = [0] * len(coords)
    for i, c in enumerate(coords):
        if c:
            for t, x in enumerate(rows[(i + j) % conductor]):
                out[t] += c * x
    return tuple(out)


class CycloSeries:
    """A q-series with coefficients in Q[x]/Phi_K(x) (the phases of a
    specialization before they cancel), stored as one positive denominator
    `_den` and integer rows `_rows`: per nonzero q-index t, in order, the
    power-basis numerators (t, coords).  `terms`, the read-only map
    t -> CycloElt, is built on first read."""

    __slots__ = ("conductor", "qscale", "prec", "_den", "_rows", "_map")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, conductor: int, qscale: int, prec: int, terms: dict):
        _require_conductor(type(self), conductor)
        _require_scales(qscale, 1, prec)
        if any(c.conductor != conductor for c in terms.values()):
            raise ValueError(f"every coefficient of a CycloSeries must have its conductor {conductor}")
        coords = {t: c.coords for t, c in terms.items() if not c.is_zero()}
        if coords and (t := max(coords)) >= prec:
            raise ValueError(f"term at q^({t}/{qscale}) at or beyond precision {prec}")
        den = math.lcm(*[x.denominator for xs in coords.values() for x in xs])
        self._fill(conductor, qscale, prec, den, tuple(
            (t, tuple(x.numerator * (den // x.denominator) for x in coords[t])) for t in sorted(coords)))

    def _fill(self, conductor, qscale, prec, den, rows) -> "CycloSeries":
        for name, value in zip(self.__slots__, (conductor, qscale, prec, den, rows, None)):
            _set(self, name, value)
        return self

    @property
    def terms(self) -> MappingProxyType:
        """The read-only map q-index -> nonzero CycloElt, built on first read."""
        if self._map is None:
            elts = {t: CycloElt(self.conductor, [Fraction(x, self._den) for x in xs]) for t, xs in self._rows}
            _set(self, "_map", MappingProxyType(elts))
        return self._map

    @property
    def prec_exponent(self) -> Fraction:
        return Fraction(self.prec, self.qscale)

    def times_root(self, numer: int, denom: int) -> "CycloSeries":
        """Multiply every coefficient by exp(2 pi i numer/denom), denom dividing K."""
        k = self.conductor
        if not (isinstance(numer, int) and isinstance(denom, int)) or denom < 1 or k % denom:
            raise ValueError(f"times_root expects an int numer and an int denom >= 1 dividing "
                             f"conductor {k}, got {numer!r}/{denom!r}")
        j = numer * (k // denom)
        return object.__new__(CycloSeries)._fill(k, self.qscale, self.prec, self._den, tuple(
            (t, _rotated(xs, j, k)) for t, xs in self._rows))

    def to_qseries(self) -> QSeries:
        """The QSeries of the coefficients, all rational, through the
        canonical-form step; NonRationalResult at the lowest q-index with a
        nonzero coordinate off the constant one."""
        for t, xs in self._rows:
            if any(xs[1:]):
                raise NonRationalResult(Fraction(t, self.qscale), self.terms[t])
        return QSeries._make(self.qscale, 1, self.prec,
                             *QSeries._gridded({t: xs[0] for t, xs in self._rows}, self._den))


class FJExp(_Series):
    """Truncated Fourier-Jacobi expansion sum c * q^(t/qscale) zeta^(r/zscale),
    keyed by (t, r), its terms one zeta-run per q-index.

    `weight`, `index` and `cone_slack` are optional metadata.  cone_slack = b
    certifies |r/zscale| <= 2*sqrt((t/qscale)*index) + b on all Fourier
    support (b = 0 is the holomorphic cone, b = index the weak-form cone);
    it is what makes torsion-point specialization precision certifiable.
    """

    __slots__ = ("zscale", "weight", "index", "cone_slack")  # the order `_make` sets them in
    _zeta = 1  # the rows' runs go along r, key component 1

    def __init__(self, qscale: int, zscale: int, prec: int, terms: dict,
                 weight=None, index=None, cone_slack=None):
        _set(self, "zscale", zscale)
        super().__init__(qscale, prec, terms)
        _set(self, "weight", None if weight is None else as_rational(weight))
        _set(self, "index", None if index is None else as_rational(index))
        _set(self, "cone_slack", None if cone_slack is None else as_rational(cone_slack))

    def _meta(self, **meta) -> tuple:
        """(weight, index, cone_slack), with the fields in `meta` replaced."""
        meta = {"weight": self.weight, "index": self.index, "cone_slack": self.cone_slack, **meta}
        return meta["weight"], meta["index"], meta["cone_slack"]

    def _keyed(self) -> list:
        g = self._gr
        return [((t, r + g * j), c) for t, r, nums in self._rows for j, c in enumerate(nums) if c]

    def _kept(self, limit: int) -> tuple:
        cut = bisect_left(self._rows, limit, key=_first)
        if cut == len(self._rows):
            s = self._summary()
            return self._rows, s[3], s[4]
        rows, g = self._rows[:cut], self._gr
        return rows, min(r for _, r, _ in rows), max(r + g * (len(nums) - 1) for _, r, nums in rows)

    def _cut(self, p: int) -> "FJExp":
        if p >= self.prec:
            return self
        cut = bisect_left(self._rows, p, key=_first)
        if cut == len(self._rows):
            return self._like(p, self._den, self._rows, self._gt, self._gr)
        return self._reduced(self.qscale, self.zscale, p, self._den, self._rows[:cut],
                             self._gr or 1, self._meta())

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
        """1 certified below q^prec_exp: O(q^prec_exp) when that is <= 0."""
        p = _fraction("prec_exp", prec_exp)
        return cls(p.denominator, 1, p.numerator, {(0, 0): 1} if p > 0 else {},
                   weight=0, index=0, cone_slack=0)

    @classmethod
    def from_qseries(cls, qs: QSeries) -> "FJExp":
        lo = qs.lowest_exponent()
        slack = 0 if (lo is None or lo >= 0) else None
        rows = tuple((t, 0, (c,)) for t, c in qs._keyed())
        return cls._make(qs.qscale, 1, qs.prec, qs._den, rows, qs._gt, 0, (None, 0, slack))

    def with_meta(self, weight=None, index=None, cone_slack=None) -> "FJExp":
        """Copy with metadata replaced (None leaves a field unchanged)."""
        meta = {name: as_rational(v) for name, v in
                (("weight", weight), ("index", index), ("cone_slack", cone_slack)) if v is not None}
        return self._like(self.prec, self._den, self._rows, self._gt, self._gr, **meta)

    # -- queries -----------------------------------------------------------------

    @property
    def qprec(self) -> int:
        """Read-only alias of `prec`, still read by bench/test_bench.py."""
        return self.prec

    def coefficient(self, q_exp: RatLike, z_exp: RatLike) -> Rat:
        t = self._q_index(q_exp)
        r = _fraction("z_exp", z_exp) * self.zscale
        if t.denominator != 1 or r.denominator != 1 or (row := self._row(t.numerator)) is None:
            return 0
        return _rational(_num_at(row[2], row[1], self._gr, r.numerator), self._den)

    def _row(self, t: RatLike) -> Optional[tuple]:
        """The row (t, r0, nums) at q-index t, or None."""
        i = bisect_left(self._rows, t, key=_first)
        return self._rows[i] if i < len(self._rows) and self._rows[i][0] == t else None

    def q_slice(self, q_exp: RatLike) -> dict:
        """The zeta-Laurent polynomial at one q-power, as {z-exponent: coeff}."""
        row = self._row(self._q_index(q_exp))
        if row is None:
            return {}
        _, r0, nums = row
        return {Fraction(r0 + self._gr * j, self.zscale): _rational(c, self._den)
                for j, c in enumerate(nums) if c}

    def cone_violations(self) -> list:
        """The stored terms outside the support cone
        |r/w| <= 2*sqrt((t/s)*index) + cone_slack, as `_outside_cone` decides.

        With cone_slack = 0 this is the holomorphicity test; the index must
        be set.  Returns a list of ((q_exp, z_exp), coeff).
        """
        if self.index is None:
            raise ValueError("index metadata required for cone checks")
        return [((Fraction(t, self.qscale), Fraction(r, self.zscale)), c)
                for (t, r), c in self._outside_cone(self.index, self.cone_slack or 0)]

    def _outside_cone(self, index: RatLike, slack: RatLike, strict: bool = False) -> list:
        """The sorted ((t, r), coeff) of the terms outside the cone
        |r/w| <= 2*sqrt(index*t/s) + slack, or on its edge too when strict
        (the cusp condition).  For index mn/md and slack bn/bd, a term is
        outside when s*md*E^2 > 4*t*mn*(w*bd)^2 (>= when strict), E =
        max(|r|*bd - bn*w, 0): one integer bound per row, the largest |r|
        inside, decides every term of the row."""
        m, b = Fraction(index), Fraction(slack)
        k, w, g = self.qscale * m.denominator, self.zscale, self._gr
        out = []
        for t, r0, nums in self._rows:
            e2 = (4 * t * m.numerator * (w * b.denominator) ** 2 - strict) // k  # inside: E^2 <= e2
            top = (math.isqrt(e2) + b.numerator * w) // b.denominator if e2 >= 0 else -1
            if -top <= r0 and r0 + g * (len(nums) - 1) <= top:
                continue
            out += [((t, r), _rational(c, self._den)) for j, c in enumerate(nums)
                    if c and abs(r := r0 + g * j) > top]
        return out

    # -- ring operations --------------------------------------------------------------

    def __mul__(self, other) -> "FJExp":
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        other = self._lifted(other)
        if other is None:
            return NotImplemented
        a, b, prec, (den, rows, grid) = self._mul_rows(other)
        weight = None if (a.weight is None or b.weight is None) else a.weight + b.weight
        index = None if (a.index is None or b.index is None) else a.index + b.index
        slack = None
        if a.cone_slack is not None and b.cone_slack is not None:
            slack = a.cone_slack + b.cone_slack
        return FJExp._reduced(a.qscale, a.zscale, prec, den, rows, grid, (weight, index, slack))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FJExp":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers of Fourier-Jacobi expansions are not supported")
        return self._powered(n) if n else FJExp.one(self.prec_exponent)

    def divide(self, den: "FJExp") -> "FJExp":
        """Exact quotient by one long division: per q-order, the lowest row
        of the remainder must be exactly divisible, as a zeta-Laurent
        polynomial, by the denominator's lowest row.  The denominator is
        read over its leading coefficient, so each quotient term is the
        remainder's top term, taken once off every remainder row it
        reaches inside the output window."""
        a, b = self._aligned(den)
        if not b._rows:
            raise ZeroDivisionError("division by the zero expansion")
        # the rows of b over `lead` and of a over 1 differ from b and a by
        # the factors lead / b._den and a._den, which the quotient undoes
        lead = b._rows[0][2][-1]
        brows = _by_row(b, lead)
        d_lo = min(brows)
        b0 = brows[d_lo]
        if not a._rows:
            return FJExp(a.qscale, a.zscale, a.prec - d_lo, {},
                         weight=None, index=None, cone_slack=None)
        rem = _by_row(a, 1)
        out_prec = min(a.prec - d_lo, b.prec - 2 * d_lo + min(rem))
        b_top, b_low = max(b0), min(b0)
        scale = b._den if lead > 0 else -b._den
        quot = {}  # (q-order, zeta-index) -> coefficient times a._den * |lead|
        while rem:
            t = min(rem)
            q_order = t - d_lo
            if q_order >= out_prec:
                break
            # the lowest row is final: clear it from its top down
            row = rem.pop(t)
            limit = out_prec + d_lo - q_order
            targets = [(row if t2 == d_lo else rem.setdefault(q_order + t2, {}), row2)
                       for t2, row2 in brows.items() if t2 < limit]
            q_low = min(row, default=0) - b_low
            while row:
                top = max(row)
                qdeg = top - b_top
                if qdeg < q_low:
                    raise InexactDivision(Fraction(t, a.qscale))
                c = row[top]
                quot[q_order, qdeg] = c * scale
                for target, row2 in targets:
                    for r, d in row2.items():
                        if v := target.get(qdeg + r, 0) - c * d:
                            target[qdeg + r] = v
                        else:
                            del target[qdeg + r]
        weight = None if (a.weight is None or b.weight is None) else a.weight - b.weight
        index = None if (a.index is None or b.index is None) else a.index - b.index
        return FJExp._make(a.qscale, a.zscale, out_prec, *FJExp._gridded(quot, a._den * abs(lead)),
                           (weight, index, None))

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
        return self._at_z0()

    def _at_z0(self) -> QSeries:
        nums = {t: c for t, _, nums in self._rows if (c := sum(nums))}
        return QSeries._make(self.qscale, 1, self.prec, *QSeries._gridded(nums, self._den))

    def ud(self, d: int) -> "FJExp":
        """The operator z -> d*z; the index is multiplied by d^2."""
        if not isinstance(d, int) or d < 1:
            raise ValueError("U_d expects a positive integer")
        if d == 1:
            return self
        return self._like(self.prec, self._den, tuple((t, d * r, nums) for t, r, nums in self._rows),
                          self._gt, self._gr * d,
                          index=None if self.index is None else d * d * self.index,
                          cone_slack=None if self.cone_slack is None else d * self.cone_slack)

    def vl(self, l: int, k: Optional[int] = None) -> "FJExp":
        """Index-raising Hecke-type operator V_l at weight k.

        New coefficient at (n, r): sum over d | gcd(n, r, l) of
        d^(k-1) * a(n*l/d^2, r/d), with gcd(0, 0, l) = l.  Requires integral
        scales; the result is certified for n < ceil(prec / l).
        """
        if not isinstance(l, int) or l < 1:
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

    def _pullback(self, c: int, lam: Fraction, shift: Fraction, mu: Fraction,
                  phase0: Fraction) -> CycloSeries:
        """The pull-back along (tau, z) -> (c*tau, lam*tau + mu), times
        q^shift e^(2 pi i phase0), on its certified window: a term at
        q^(t/s) zeta^(r/w) lands at q-exponent c*(t/s) + lam*(r/w) + shift
        with phase e^(2 pi i (mu*(r/w) + phase0)).  The numerators at each
        q-index and root power are summed, then folded into the integer
        power-basis coordinates of `_root_power_rows`: a CycloSeries of one
        integer row per q-index over this series' denominator."""
        bound = _tail_bound(self.prec_exponent, c, lam, shift, self.index, self.cone_slack)
        # a term's exponent and phase angle, as integers e and a over the
        # common denominators den_e and den_a
        den_e = math.lcm(self.qscale, self.zscale * lam.denominator, shift.denominator)
        e_t, e_0 = c * (den_e // self.qscale), shift.numerator * (den_e // shift.denominator)
        e_r = lam.numerator * (den_e // (self.zscale * lam.denominator))
        a_r = mu / self.zscale
        den_a = math.lcm(a_r.denominator, phase0.denominator)
        a_r, a_0 = (x.numerator * (den_a // x.denominator) for x in (a_r, phase0))
        top = bound.top(den_e)  # the window: e < top
        sums: dict = {}
        for (t, r), v in self._keyed():
            e = t * e_t + r * e_r + e_0
            if e < top:
                key = (e, (r * a_r + a_0) % den_a)
                sums[key] = sums.get(key, 0) + v
        # den_e // g_e and den_a // g_a: the lcms of the reduced denominators
        g_e = math.gcd(den_e, top, *[e for e, _ in sums])
        g_a = math.gcd(den_a, *[a for _, a in sums])
        conductor = den_a // g_a
        if conductor > 48:
            raise ValueError(f"phase conductor {conductor} exceeds the supported cap 48")
        basis = _root_power_rows(conductor)
        rows: dict = {}
        for (e, a), v in sums.items():
            row, xs = rows.get(e // g_e), basis[a // g_a]
            rows[e // g_e] = [v * x for x in xs] if row is None else [y + v * x for y, x in zip(row, xs)]
        return object.__new__(CycloSeries)._fill(conductor, den_e // g_e, top // g_e, self._den, tuple(
            (e, tuple(row)) for e, row in sorted(rows.items()) if any(row)))

    def eval_linear(self, tau_mult: int, z_mult: RatLike) -> QSeries:
        """The one-variable series of (tau, z) -> (c*tau, d*tau): each term
        c q^(t/s) zeta^(r/w) contributes at q-exponent c*(t/s) + d*(r/w)."""
        zero = Fraction(0)
        return self._pullback(tau_mult, _fraction("z_mult", z_mult), zero, zero, zero).to_qseries()

    def specialize(self, lam: RatLike, mu: RatLike, cyclotomic: bool = False):
        """Pull back along z = lam*tau + mu, including the index-m automorphy
        prefactor q^(m lam^2) e^(2 pi i m lam mu), where m is the index in
        this expansion's metadata.

        Each term c q^(t/s) zeta^(r/w) lands at q-exponent
        t/s + (r/w) lam + m lam^2 with phase e^(2 pi i mu (r/w + m lam)).
        Phases add up exactly as integer cyclotomic coordinates in the
        pull-back that eval_linear shares: the CycloSeries if cyclotomic=True,
        else its one exit `to_qseries`, a QSeries or NonRationalResult.
        """
        if self.index is None:
            raise ValueError("an index is required to specialize (none in metadata)")
        m = Fraction(self.index)
        lam, mu = _fraction("lam", lam), _fraction("mu", mu)
        result = self._pullback(1, lam, m * lam * lam, mu, mu * m * lam)
        return result if cyclotomic else result.to_qseries()

    # -- comparison ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FJExp):
            return NotImplemented
        return (self.weight == other.weight and self.index == other.index
                and _Series.__eq__(self, other))

    def mismatch(self, other: "FJExp"):
        """First differing (q-exp, z-exp, self-coeff, other-coeff) on the
        common certified q-window, or None."""
        return self._mismatch(other)

    # -- serialization ----------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        text = self._text()
        return {"qscale": self.qscale, "zscale": self.zscale, "prec": self.prec,
                "terms": [[t, r, text(c)] for (t, r), c in self._keyed()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FJExp":
        return cls(data["qscale"], data["zscale"], data["prec"],
                   {(t, r): parse_rational(c) for t, r, c in data["terms"]})

    # -- display ---------------------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._rows:
            return f"O(q^{_exp_str(self.prec_exponent)})"
        by_q = _by_row(self, self._den)
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


def _by_row(x: FJExp, den: int) -> dict:
    """The terms of an expansion as rows {t: {r: num / den}}, num its
    numerators: with den = x._den the values are its coefficients."""
    g = x._gr
    return {t: {r + g * j: _rational(c, den) for j, c in enumerate(nums) if c}
            for t, r, nums in x._rows}


# ---------------------------------------------------------------------------
# precision planning helpers and the precision memo of the form constructors
# ---------------------------------------------------------------------------

class _TailBound(namedtuple("_TailBound", "base root2")):
    """B = base - sqrt(root2), base and root2 >= 0 rational, so decided exactly:
    the least q-exponent at which a pull-back puts an unknown term."""

    __slots__ = ()

    def admits(self, e: RatLike) -> bool:
        """Whether e <= B, so that a window below q^e is certified."""
        k = self.base - e
        return k >= 0 and k * k >= self.root2

    def top(self, den: int) -> int:
        """The largest T with T/den <= B: floor(B*den) is t or t - 1 below,
        because isqrt(floor(root2*den^2)) is floor(sqrt(root2)*den)."""
        t = math.floor(self.base * den) - math.isqrt(math.floor(self.root2 * den * den))
        return t if self.admits(Fraction(t, den)) else t - 1


def _tail_bound(x0, c, d, shift, m, b) -> _TailBound:
    """The least value of c*x + d*rho + shift (c > 0) over the unknown region
    x >= x0 of an expansion with support cone |rho| <= 2*sqrt(m*x) + b (rho
    the zeta-exponent).  Over rho it is c*x - |d|*(2*sqrt(m*x) + b) + shift,
    which is least at x* = m*(d/c)^2."""
    if not isinstance(c, int) or c <= 0:
        raise ValueError("tau multiplier must be a positive integer")
    ad = abs(Fraction(d))
    if not ad:
        return _TailBound(c * x0 + shift, 0)
    if m is None or b is None:
        raise ValueError("cannot certify output precision: the expansion carries no "
                         "support-cone metadata (index and cone_slack)")
    if m and c * c * x0 <= ad * ad * m:  # x0 <= x*
        return _TailBound(shift - ad * ad * m / c - ad * b, 0)
    return _TailBound(c * x0 - ad * b + shift, 4 * ad * ad * m * x0)


def _least_prec(target: RatLike, c, d, shift, m, b) -> int:
    """The least whole-q precision P >= 1 at which _tail_bound(P, c, d, shift,
    m, b) admits `target`.  Every branch of that bound is at most
    c*P + shift - |d|*b, so the search starts at the least P that reaches
    the target; the bound at P = 1 checks the arguments first."""
    if _tail_bound(1, c, d, shift, m, b).admits(target):
        return 1
    p = max(2, -((shift - target - abs(d) * b) // c))
    while not _tail_bound(p, c, d, shift, m, b).admits(target):
        p += 1
    return p


def prec_for_specialize(target: RatLike, index: RatLike, lam: RatLike, slack: RatLike) -> int:
    """The least whole-q input precision P at which `specialize` along
    z = lam*tau + mu certifies its window up to `target` (an integer, or any
    point of the output's exponent grid) for an expansion of this index and
    cone slack.  It asks the certifier's own bound: P certifies the target
    and P - 1 does not."""
    lam, m = _fraction("lam", lam), _fraction("index", index)
    return _least_prec(target, 1, lam, m * lam * lam, m, _fraction("slack", slack))


def prec_for_eval_linear(target: RatLike, index: RatLike, tau_mult: int,
                         z_mult: RatLike, slack: RatLike) -> int:
    """The least whole-q input precision P at which
    `eval_linear(tau_mult, z_mult)` certifies its window up to `target`,
    decided by the certifier's own bound as in `prec_for_specialize`."""
    return _least_prec(target, tau_mult, _fraction("z_mult", z_mult), 0,
                       _fraction("index", index), _fraction("slack", slack))


def require_prec(form: str, prec: int) -> None:
    """The precondition shared by the public form constructors: prec is an
    int >= 1."""
    if not isinstance(prec, int):
        raise ValueError(f"{form} needs an integer prec, got {prec!r}")
    if prec < 1:
        raise ValueError(f"{form} needs prec >= 1, got {prec}")


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def memo_by_prec(build):
    """Memoize a pure constructor `build(*args, prec)` whose series is
    certified below prec + c, c fixed per form: keep one build per `args`,
    keyed by type as well as value (as lru_cache(typed=True), so 4.0 never
    meets the build of 4), the one at the highest precision `top`, and cut
    any request with an int 1 <= prec <= top from it; any other request
    (a non-int precision too) goes to `build`, whose own check decides.
    Builds run outside the lock (constructors call each other) and replace
    the kept one only if higher.  `cache_info` and `cache_clear` are as in
    lru_cache; `cache_precisions()` maps each kept `args` to its precision."""
    kept: dict = {}  # (args before the precision, their types) -> (top, series)
    counts = [0, 0]  # hits, misses
    lock = threading.Lock()

    @wraps(build)
    def memo(*args):
        key, prec = (args[:-1], tuple(map(type, args[:-1]))), args[-1]
        with lock:
            top, series = kept.get(key, (0, None))
            hit = isinstance(prec, int) and 1 <= prec <= top
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

    def cache_precisions() -> dict:
        with lock:
            return {args: top for (args, _), (top, _) in kept.items()}

    memo.cache_info = lambda: CacheInfo(counts[0], counts[1], None, len(kept))
    memo.cache_clear = cache_clear
    memo.cache_precisions = cache_precisions
    return memo
