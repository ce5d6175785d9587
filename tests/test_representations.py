"""Counting formulas against brute-force enumeration and series extraction."""

import itertools
import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from jacobiforms import catalog as cat
from jacobiforms.numtheory import as_rational, cohen_h, divisors
from jacobiforms.representations import (
    CountQuery,
    _f4_sum,
    _f_coeff,
    _h3_odd_r_sum,
    _r8_case_odd_a_even_n,
    _sign,
    _values,
    cone_points,
    count_bruteforce,
    delta16,
    f4_coeff,
    f6_coeff,
    figurate,
    formula_delta8,
    formula_r8,
    h_window_sum,
    r16,
    r_a8_formula,
    r_a8odd_formula,
    tau,
    tau_applicable_routes,
)


def test_figurate_values():
    assert [figurate(1, x) for x in (-2, -1, 0, 1, 2, 3)] == [3, 1, 0, 0, 1, 3]
    assert all(figurate(2, x) == x * x for x in range(-5, 6))
    assert figurate(5, 0) == 0 and figurate(5, 2) == 13
    assert figurate(3, -1) == Fraction(1)  # pentagonal over Z hits 1 twice


def test_f4_coefficients_match_series():
    th8 = (cat.theta(7) ** 8).normalized()
    for n in range(7):
        for r in range(-12, 13):
            assert f4_coeff(n, r) == th8.terms.get((n, r), 0), (n, r)


def test_f6_coefficients_match_series():
    wp8 = ((12 * cat.wp_theta2(7)) * (cat.theta(8) ** 6)).normalized()
    for n in range(6):
        for r in range(-12, 13):
            assert f6_coeff(n, r) == wp8.terms.get((n, r), 0), (n, r)


def test_boundary_rules():
    # 16n = r^2 with n odd gives 1, with n even gives 0
    assert f4_coeff(1, 4) == 1 and f4_coeff(4, 8) == 0 and f4_coeff(9, 12) == 1
    assert f6_coeff(1, 4) == 1 and f6_coeff(4, 8) == 0
    assert f4_coeff(1, 5) == 0  # outside the cone


# the module docstring's constants, k -> (c4, cd)
DOC_CONSTANTS = {3: (Fraction(-511, 2), Fraction(7, 2)), 5: (Fraction(-1057, 8), Fraction(1, 8))}


def _f_coeff_docstring(k, n, r):
    """f4 (k = 3) or f6 (k = 5) term by term as the module docstring writes
    it, with Fraction constants and H read only at integer N."""
    disc = 16 * n - r * r
    if disc < 0 or n < 0:
        return 0
    if disc == 0:
        return 1 if n % 2 else 0
    c4, cd = DOC_CONSTANTS[k]
    acc = Fraction(0)
    if disc % 4 == 0:
        acc += c4 * cohen_h(k, disc // 4)
    for d in divisors(math.gcd(n, r, 4)):
        if disc % (d * d) == 0:
            acc += cd * d**k * cohen_h(k, disc // (d * d))
    return as_rational(acc)


@pytest.mark.parametrize("k", [3, 5])
def test_f_coefficients_over_one_denominator_match_the_docstring(k):
    for n in range(41):
        rmax = math.isqrt(16 * n + 4)
        for r in range(-rmax, rmax + 1):
            value = _f_coeff(k, n, r)
            assert value == _f_coeff_docstring(k, n, r) and is_canonical(value), (n, r)


def _f_coeff_rational_n(k, n, r):
    """f4 (k = 3) or f6 (k = 5) with every H read at the rational N = disc/d^2,
    0 off the integers: the oracle for the integer reads in `_f_coeff`."""
    disc = 16 * n - r * r
    if disc < 0 or n < 0:
        return 0
    if disc == 0:
        return 1 if n % 2 else 0
    c4, cd = DOC_CONSTANTS[k]
    acc = c4 * Fraction(cohen_h(k, Fraction(disc, 4)))
    for d in divisors(math.gcd(n, r, 4)):
        acc += cd * d**k * Fraction(cohen_h(k, Fraction(disc, d * d)))
    return as_rational(acc)


def is_canonical(x):
    """An exact value as the package returns it: an int, or a Fraction that is not one."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_f_coefficients_against_rational_n_reads():
    for n in range(41):
        rmax = math.isqrt(16 * n)
        for r in range(-rmax, rmax + 1):
            for k, coeff in ((3, f4_coeff), (5, f6_coeff)):
                value = coeff(n, r)
                assert value == _f_coeff_rational_n(k, n, r) and is_canonical(value), (k, n, r)


def test_cohen_readers_return_canonical_values():
    weights = (lambda r: 1, _sign, lambda r: r**6, lambda r: 1 if r % 3 == 0 else Fraction(-1, 2))
    values = [h_window_sum(k, big_n, w) for k in (3, 5, 7, 11) for big_n in range(1, 50)
              for w in weights]
    for a in range(1, 6):
        for n in range(1, 30):
            points = list(cone_points(n - 3 * a + 4, a - 1, a))
            values += [_f4_sum(points), _h3_odd_r_sum(points), _r8_case_odd_a_even_n(a, n)]
            values += [r_a8_formula(a, n), r_a8odd_formula(a, n)]
    values += [tau(n, route) for n in range(1, 17) for route in tau_applicable_routes(n)]
    values += [f(n) for n in range(1, 16, 2) for f in (r16, delta16)]
    assert all(is_canonical(v) for v in values)


@pytest.mark.parametrize("k", [3, 5, 7, 11])
def test_h_window_sum_against_per_term_fractions(k):
    # the oracle for the integer window sum: one Fraction multiply-add per term
    weights = (lambda r: 1, _sign, lambda r: r & 1, lambda r: r**8)
    for big_n in range(120):
        rmax = math.isqrt(big_n)
        for w in weights:
            oracle = sum((w(r) * Fraction(cohen_h(k, big_n - r * r)) for r in range(-rmax, rmax + 1)),
                         Fraction(0))
            value = h_window_sum(k, big_n, w)
            assert value == oracle and is_canonical(value), (k, big_n)


def test_h_window_sum_preconditions():
    # a negative N used to fail inside math.isqrt, a float inside cohen_h or isqrt
    with pytest.raises(ValueError, match="^h_window_sum expects N >= 0, got -1$"):
        h_window_sum(3, -1, lambda r: 1)
    for k, big_n in ((3.0, 4), (3, 4.0), (3, Fraction(4))):
        with pytest.raises(TypeError, match="^h_window_sum expects integers, got"):
            h_window_sum(k, big_n, lambda r: 1)
    assert h_window_sum(3, 0, lambda r: 1) == Fraction(-1, 252)  # H(3, 0) = zeta(-5)


def test_h_window_sum_refuses_k_below_one_and_non_rational_weights():
    # k = 0 was reported by cohen_h, a float weight by Fraction's internals
    for k in (0, -3):
        with pytest.raises(ValueError, match=f"^h_window_sum expects k >= 1, got {k}$"):
            h_window_sum(k, 8, lambda r: 1)
    for w in (0.5, 1.0, "1", None):
        with pytest.raises(TypeError, match=f"^h_window_sum expects int or Fraction weights, got {w!r} at r = "):
            h_window_sum(3, 8, lambda r, w=w: w)
    ones = h_window_sum(3, 8, lambda r: 1)
    assert h_window_sum(3, 8, lambda r: Fraction(1, 2)) == ones / 2  # Fraction weights stay exact


def test_cone_points_preconditions():
    # div = 0 raised ZeroDivisionError, div < 0 yielded nothing, a float an internal TypeError
    for args, kind, message in (((5, 1, 0), ValueError, "cone_points expects div >= 1, got 0"),
                                ((5, 1, -2), ValueError, "cone_points expects div >= 1, got -2"),
                                ((5, 1, 2, 0), ValueError, "cone_points expects cone >= 1, got 0"),
                                ((5, 1, 2, -16), ValueError, "cone_points expects cone >= 1, got -16"),
                                ((5, 1.0, 2), TypeError, "cone_points expects integers, got 1.0"),
                                ((5, 1, 2, Fraction(16)), TypeError, r"cone_points expects integers, got Fraction\(16, 1\)")):
        with pytest.raises(kind, match=f"^{message}$"):
            cone_points(*args)  # at the call, before any point is read


def test_cone_points_are_exactly_the_lattice_points_of_the_cone():
    # against a scan far past the window: no point is missed at either end
    for c, slope, div, cone in itertools.product(range(-5, 41), range(-3, 6), range(1, 9), (4, 16)):
        scan = [(r, (c - slope * r) // div) for r in range(-200, 201)
                if (c - slope * r) % div == 0 and cone * ((c - slope * r) // div) >= r * r]
        assert list(cone_points(c, slope, div, cone)) == scan, (c, slope, div, cone)


@pytest.mark.parametrize("query", [None, ("squares", 8, 1), {"kind": "squares", "m": 8, "n": 1}],
                         ids=["None", "tuple", "dict"])
def test_count_bruteforce_needs_a_count_query(query):
    with pytest.raises(TypeError) as err:
        count_bruteforce(query)
    assert str(err.value) == f"count_bruteforce needs a CountQuery, got {query!r}"


def test_count_fixture_values():
    assert count_bruteforce(CountQuery("squares", 8, 1)) == 16
    assert count_bruteforce(CountQuery("triangular", 8, 1)) == 8
    assert count_bruteforce(CountQuery("figurate", 8, 0, a=1)) == 256
    assert count_bruteforce(CountQuery("squares", 8, 0)) == 1
    with pytest.raises(ValueError):
        CountQuery("figurate", 8, 1)  # missing a
    with pytest.raises(ValueError):
        CountQuery("nonsense", 8, 1)


@pytest.mark.parametrize("args, message", [
    (("squares", 0, 3), "CountQuery expects m >= 1, got 0"),
    (("squares", 8, -1), "CountQuery expects n >= 0, got -1"),
    (("figurate", 8, 3, 0), "CountQuery expects a >= 1 for kind 'figurate', got 0"),
    (("figurate_odd", 8, 3), "CountQuery expects a >= 1 for kind 'figurate_odd', got None"),
    (("squares", 8, 3, 5), "CountQuery takes no a for kind 'squares', got 5"),
    (("triangular", 8, 3, 2), "CountQuery takes no a for kind 'triangular', got 2"),
])
def test_count_query_preconditions_name_the_class(args, message):
    with pytest.raises(ValueError) as err:
        CountQuery(*args)
    assert str(err.value) == message


# -- the counting oracle: enumeration over the distinct values -----------------

def _sum_table(values: tuple, k: int, cap: int) -> dict:
    """Map s -> number of k-tuples of values summing to s <= cap.

    Up to four summands, pruned enumeration over the distinct values builds
    the table of exact sums directly; longer tuples are split in half and the
    two halves' sum tables are convolved up to cap (meet in the middle)."""
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


COUNT_KINDS = ([("squares", None), ("triangular", None)]
               + [(kind, a) for kind in ("figurate", "figurate_odd") for a in range(1, 6)])


def _count_by_table(query: CountQuery) -> int:
    """Exact representation count by one dynamic-programming table: the
    oracle for the packed-integer power in `count_bruteforce`.

    table[s] counts the tuples of the summands placed so far that sum to
    s <= n; each of the m summands adds every attainable value, weighted by
    the number of x giving it, to every nonzero entry."""
    n = query.n
    values = sorted(Counter(_values(query)).items())
    table = [1] + [0] * n
    for _ in range(query.m):
        nxt = [0] * (n + 1)
        for s, c in enumerate(table):
            if c:
                for v, mult in values:
                    if s + v > n:
                        break
                    nxt[s + v] += c * mult
        table = nxt
    return table[n]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16, 24])
@pytest.mark.parametrize("kind, a", COUNT_KINDS)
def test_packed_power_matches_table(kind, a, m):
    for n in range(61):
        query = CountQuery(kind, m, n, a=a)
        assert count_bruteforce(query) == _count_by_table(query), n


@pytest.mark.parametrize("kind", ["squares", "triangular"])
def test_packed_power_matches_table_past_machine_words(kind):
    query = CountQuery(kind, 16, 2001)
    count = count_bruteforce(query)
    assert count > 2**64 and count == _count_by_table(query)


# -- the store of packed powers ----------------------------------------------

ASCENDING_KEYS = [("squares", 8, None), ("triangular", 16, None), ("figurate", 8, 3)]


def _ascending_count_loop():
    count_bruteforce.cache_clear()
    for n in range(201):
        for kind, m, a in ASCENDING_KEYS:
            count_bruteforce(CountQuery(kind, m, n, a=a))


def test_ascending_count_loop_builds_logarithmically():
    # one packed power per (kind, m, a) on the ladder 2^bit_length(n)
    _ascending_count_loop()
    info = count_bruteforce.cache_info()
    # builds at the rungs 1, 2, 4, ..., 256 (slots s < rung) for each key
    keys = len(ASCENDING_KEYS)
    assert info.misses == 9 * keys and info.hits == 201 * keys - info.misses
    assert info.currsize == keys


def test_ascending_count_loop_keeps_each_key_at_the_top_rung():
    _ascending_count_loop()
    assert count_bruteforce.cache_precisions() == {key: 256 for key in ASCENDING_KEYS}
    count_bruteforce.cache_clear()
    assert count_bruteforce.cache_precisions() == {}


def _fresh_count(query: CountQuery) -> int:
    """The count from a power built for this query alone."""
    count_bruteforce.cache_clear()
    return count_bruteforce(query)


# n in an order that hits, grows past the top and reads far below it
STORE_ORDER = [3, 0, 1, 2, 5, 4, 9, 13, 12, 27, 26, 1, 40, 6, 55, 33, 0]


@pytest.mark.parametrize("m", [1, 8, 16])
@pytest.mark.parametrize("kind, a", COUNT_KINDS)
def test_store_serves_what_a_fresh_build_gives(kind, a, m):
    count_bruteforce.cache_clear()
    served = [count_bruteforce(CountQuery(kind, m, n, a=a)) for n in STORE_ORDER]
    assert count_bruteforce.cache_info().hits > 0
    fresh = [_fresh_count(CountQuery(kind, m, n, a=a)) for n in STORE_ORDER]
    assert served == fresh


def test_a_cold_query_builds_at_n_plus_one_and_grows_by_doubling():
    count_bruteforce.cache_clear()
    misses = []
    for n in (37, 38, 74, 75, 148, 149):
        count_bruteforce(CountQuery("squares", 8, n))
        misses.append(count_bruteforce.cache_info().misses)
    # 37 builds the slots s < 38; 38 builds 76, which serves 74 and 75; 148 builds 152 for 149
    assert misses == [1, 2, 2, 2, 3, 3]
    assert count_bruteforce.cache_precisions() == {("squares", 8, None): 152}
    query = CountQuery("squares", 16, 1025)
    assert count_bruteforce(query) == r16(1025)
    assert count_bruteforce.cache_precisions()[("squares", 16, None)] == 1026


def test_store_is_keyed_by_kind_m_and_a():
    count_bruteforce.cache_clear()
    queries = [CountQuery("squares", 8, 20), CountQuery("squares", 16, 20),
               CountQuery("triangular", 8, 20), CountQuery("figurate", 8, 20, a=3),
               CountQuery("figurate", 8, 20, a=4), CountQuery("figurate_odd", 8, 20, a=3)]
    served = [count_bruteforce(q) for q in queries]
    assert count_bruteforce.cache_info().currsize == len(queries)
    assert served == [_count_by_table(q) for q in queries]


def test_threads_interleaving_n_get_the_sequential_values():
    ns = list(range(0, 90, 3)) + list(range(1, 90, 7))
    sequential = {n: _count_by_table(CountQuery("squares", 8, n)) for n in ns}
    orders = [ns, ns[::-1], ns[1::2] + ns[::2], sorted(ns, key=lambda n: (n * 37) % 89)] * 2
    count_bruteforce.cache_clear()
    barrier = threading.Barrier(len(orders))
    results, errors = [], []

    def run(order):
        try:
            barrier.wait()
            results.append({n: count_bruteforce(CountQuery("squares", 8, n)) for n in order})
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(results) == len(orders)
    assert all(got == sequential for got in results)
    info = count_bruteforce.cache_info()
    assert info.hits + info.misses == len(orders) * len(ns) and info.currsize == 1


def test_tau_direct_builds_delta_logarithmically(clear_memos):
    # tau(n, "direct") asks for delta(n + 1), and the memo grows the kept
    # delta by doubling, so the ascending loop builds it at 2, 4, ..., 256
    clear_memos()
    values = [tau(n) for n in range(1, 200)]
    assert cat.delta.cache_info().misses <= 9
    assert values == [cat.delta(200).coefficient(n) for n in range(1, 200)]


def test_a_cold_tau_builds_delta_at_n_plus_one(clear_memos):
    clear_memos()
    powers = [1, -24]  # tau(2^(k+1)) = tau(2) tau(2^k) - 2^11 tau(2^(k-1))
    while len(powers) < 12:
        powers.append(-24 * powers[-1] - 2**11 * powers[-2])
    assert tau(2048) == powers[11]
    assert cat.delta.cache_precisions() == {(): 2049}


def test_f_num_is_kept_once_per_absolute_r():
    import jacobiforms.representations as reps
    reps._f_num_even.cache_clear()
    assert [reps._f_num(3, 5, r) for r in (-3, 3)] == [reps._f_num(3, 5, 3)] * 2
    assert [reps._f_num(5, 7, r) for r in (-4, 4)] == [reps._f_num(5, 7, 4)] * 2
    info = reps._f_num_even.cache_info()
    assert info.misses == 2 and info.hits == 4


@pytest.mark.parametrize("n", [0, -3])
def test_tau_applicable_routes_refuses_n_below_one(n):
    # -3 failed inside math.isqrt, 0 listed six routes that tau refuses
    with pytest.raises(ValueError, match=f"^tau_applicable_routes expects n >= 1, got {n}$"):
        tau_applicable_routes(n)


@pytest.mark.parametrize("kind, a", COUNT_KINDS)
def test_count_table_matches_enumeration(kind, a):
    cap = 40
    values = sorted(Counter(_values(CountQuery(kind, 1, cap, a=a))).items())
    for m in (1, 2, 3, 4, 5, 8):
        table = _sum_table(values, m, cap)
        for n in range(cap + 1):
            assert count_bruteforce(CountQuery(kind, m, n, a=a)) == table.get(n, 0), (m, n)
    table = _sum_table(values, 16, 21)
    for n in range(1, 22, 2):
        assert count_bruteforce(CountQuery(kind, 16, n, a=a)) == table.get(n, 0), (16, n)


def _literal_value(kind, a, x):
    if kind == "squares":
        return x * x
    if kind == "triangular":
        return x * (x + 1) // 2 if x >= 0 else None
    if kind == "figurate_odd" and x % 2 == 0:
        return None
    return (a * x * x + (a - 2) * x) // 2


@pytest.mark.parametrize("kind, a", COUNT_KINDS)
def test_count_matches_literal_tuples(kind, a):
    # every m-tuple of arguments |x| <= 30 (all values <= 12 lie there), one value per argument
    cap = 12
    vals = [v for x in range(-30, 31)
            if (v := _literal_value(kind, a, x)) is not None and v <= cap]
    for m in (1, 2, 3):
        sums = [sum(t) for t in itertools.product(vals, repeat=m)]
        for n in range(cap + 1):
            assert count_bruteforce(CountQuery(kind, m, n, a=a)) == sums.count(n), (m, n)


def test_jacobi_formulas_bruteforce_slice():
    # acceptance covers n <= 40; keep a faster slice in the unit suite
    for n in range(1, 26):
        assert count_bruteforce(CountQuery("squares", 8, n)) == formula_r8(n)
        assert count_bruteforce(CountQuery("triangular", 8, n)) == formula_delta8(n)
    assert formula_r8(2) == 112
    assert formula_delta8(0) == 1


def test_jacobi_formulas_three_way_with_series():
    # brute force = divisor sum = series coefficient, out to n = 40
    t00_8 = (cat.theta_const(0, 0, 42) ** 8).substituted(2)
    t10_8 = (cat.theta_const(1, 0, 44) ** 8).shifted(-1) * Fraction(1, 256)
    for n in range(1, 41):
        assert (count_bruteforce(CountQuery("squares", 8, n))
                == formula_r8(n) == t00_8.coefficient(n)), n
        assert (count_bruteforce(CountQuery("triangular", 8, n))
                == formula_delta8(n) == t10_8.coefficient(n)), n


def test_figurate_formula_slice():
    for a in (1, 2, 3, 5):
        for n in range(0, 16):
            assert r_a8_formula(a, n) == count_bruteforce(CountQuery("figurate", 8, n, a=a))
            assert r_a8odd_formula(a, n) == count_bruteforce(CountQuery("figurate_odd", 8, n, a=a))


def test_figurate_series_oracle():
    # generating-function route: theta_00^8(a tau, (a-2)/2 tau) coefficients
    for a in (1, 3, 4):
        prec = 12
        gen = (cat.theta_ab(0, 0, 4 * prec) ** 8).eval_linear(a, Fraction(a - 2, 2))
        for n in range(min(prec, int(gen.prec_exponent))):
            assert gen.coefficient(n) == r_a8_formula(a, n), (a, n)


def test_tau_fixture_values():
    assert tau(1) == 1
    assert tau(2) == -24
    assert tau(3, "via_f4") == 252
    assert tau(6, "via_f6") == -6048


def test_tau_routes_agree_slice():
    for n in range(1, 16):
        values = {tau(n, route) for route in tau_applicable_routes(n)}
        assert len(values) == 1, n
        assert isinstance(values.pop(), int)


def test_tau_closed_routes_side_conditions():
    assert "via_h3_closed" in tau_applicable_routes(3)
    assert "via_h3_closed" not in tau_applicable_routes(9)   # odd square
    assert "via_h3_closed" not in tau_applicable_routes(6)   # even
    with pytest.raises(ValueError):
        tau(4, "via_h3_closed")
    with pytest.raises(ValueError):
        tau(9, "via_h5_closed")
    with pytest.raises(ValueError):
        tau(3, "no_such_route")
    with pytest.raises(ValueError):
        tau(0)


def test_sixteen_variable_formulas_slice():
    for n in (1, 3, 5, 7, 9):
        assert r16(n) == count_bruteforce(CountQuery("squares", 16, n))
        assert delta16(n) == count_bruteforce(CountQuery("triangular", 16, n))
    with pytest.raises(ValueError):
        r16(2)
    with pytest.raises(ValueError):
        delta16(4)


@pytest.mark.parametrize("n", [0, -1, -3])
@pytest.mark.parametrize("formula", [r16, delta16], ids=["r16", "delta16"])
def test_sixteen_variable_formulas_reject_n_below_one(formula, n):
    with pytest.raises(ValueError, match=f"^{formula.__name__} expects n >= 1$"):
        formula(n)


def test_sixteen_variable_formulas_at_larger_n():
    for n in (201, 401):
        assert r16(n) == count_bruteforce(CountQuery("squares", 16, n))
        assert delta16(n) == count_bruteforce(CountQuery("triangular", 16, n))


def test_sixteen_variable_series_extraction():
    t10_16 = (cat.theta_const(1, 0, 14) ** 8) ** 2
    t00_16 = ((cat.theta_const(0, 0, 12) ** 8) ** 2).substituted(2)
    for n in (1, 3, 5, 7, 9):
        assert delta16(n) == Fraction(t10_16.coefficient(n + 2), 2**16)
        assert r16(n) == t00_16.coefficient(n)


def test_case_formula_tripwire_catches_corruption(monkeypatch):
    # poison one f4 value and confirm the general/case cross-assert fires:
    # (m, r) = (3, 1) feeds R_{2,8}(9), whose odd-n case formula bypasses f4;
    # the sums read f4 as the integer _f_num over _F_DEN[3], so +1 in value
    # is +_F_DEN[3] in the numerator
    import jacobiforms.representations as reps
    original = reps._f_num
    def poisoned(k, n, r):
        if (k, n, r) == (3, 3, 1):
            return original(k, n, r) + reps._F_DEN[3]
        return original(k, n, r)
    monkeypatch.setattr(reps, "_f_num", poisoned)
    with pytest.raises(RuntimeError):
        reps.r_a8_formula(2, 9)


def test_tau_moment_routes_read_f4_at_call_time(monkeypatch):
    # the moment routes call their coefficient numerator by its module-global
    # name, so a replaced representations._f_num reaches tau; they read
    # f(n, r) for r >= 1 only and count it twice, f being even in r
    import jacobiforms.representations as reps
    original = reps._f_num
    seen = []
    def poisoned(k, n, r):
        if k == 3:
            seen.append((n, r))
        return original(k, n, r) + (reps._F_DEN[3] if (k, n, r) == (3, 3, 1) else 0)
    monkeypatch.setattr(reps, "_f_num", poisoned)
    assert tau(3, "via_f4") == 252 + Fraction(2, 40320)  # 2 * 1^8 / 8!
    assert (3, 1) in seen and (3, -1) not in seen


# (counting entry point, int arguments, the same with a float, its name):
# each refuses the float with a precondition that names it, where it used to
# fail inside (tau(2.0) asked delta for a precision of 3.0)
COUNTING_NON_INTS = [
    (tau, (2,), (2.0,), "tau"),
    (tau_applicable_routes, (2,), (2.0,), "tau_applicable_routes"),
    (r16, (3,), (3.0,), "r16"),
    (delta16, (3,), (3.0,), "delta16"),
    (r_a8_formula, (2, 3), (2, 3.0), "r_a8_formula"),
    (r_a8odd_formula, (1, 9), (1.0, 9), "r_a8odd_formula"),
    (formula_r8, (3,), (3.0,), "formula_r8"),
    (formula_delta8, (3,), (3.0,), "formula_delta8"),
    (CountQuery, ("squares", 8, 3), ("squares", 8.0, 3), "CountQuery"),
    (CountQuery, ("squares", 8, 3), ("squares", 8, 3.0), "CountQuery"),
    (CountQuery, ("figurate", 8, 3, 5), ("figurate", 8, 3, 5.0), "CountQuery"),
]


@pytest.mark.parametrize("fn, good, bad, name", COUNTING_NON_INTS,
                         ids=[f"{name}{bad}" for _, _, bad, name in COUNTING_NON_INTS])
def test_counting_entry_points_refuse_floats_by_name(fn, good, bad, name):
    fn(*good)
    with pytest.raises(TypeError, match=f"^{name} expects integers, got"):
        fn(*bad)
