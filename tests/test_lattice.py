"""Lattice counts, the E8 Jacobi theta series, and the enumerations they
are checked against."""

import re
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from jacobiforms import catalog as cat
from jacobiforms import checks, identities, lattice
from jacobiforms.numtheory import sigma
from jacobiforms.series import FJExp


def test_root_counts():
    assert lattice.vector_counts("E8", 2)[2] == 240
    assert lattice.vector_counts("E7", 2)[2] == 126
    assert lattice.vector_counts("A7", 2)[2] == 56
    for name in ("E8", "E7", "A7"):
        assert lattice.vector_counts(name, 0) == {0: 1}
    with pytest.raises(ValueError):
        lattice.vector_counts("D4", 2)


@pytest.mark.parametrize("name", [None, 8])
def test_vector_counts_refuse_a_lattice_that_is_not_a_name(name):
    # a non-string lattice raised AttributeError from .upper()
    expected = f"unknown lattice {name!r} (expected one of {lattice.LATTICES})"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        lattice.vector_counts(name, 2)


def test_vector_counts_are_read_only():
    # every caller shares the cached map, so none may change it
    counts = lattice.vector_counts("E8", 2)
    with pytest.raises(TypeError):
        counts[2] = 5
    assert lattice.vector_counts("E8", 2) is counts
    assert counts == {0: 1, 2: 240}


@pytest.mark.parametrize("max_norm", [2.0, 2.5, Fraction(2)], ids=["float", "half", "fraction"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_vector_counts_refuse_a_non_integer_norm(max_norm, warm):
    lattice.vector_counts.cache_clear()
    if warm:
        lattice.vector_counts("E7", 2)
    with pytest.raises(TypeError, match=f"^vector_counts expects integers, got {re.escape(repr(max_norm))}$"):
        lattice.vector_counts("E7", max_norm)
    assert lattice.vector_counts("E8", 2) is lattice.vector_counts("E8", 2)


def _a7_vectors(max_norm: int):
    """Integer 8-vectors with coordinate sum 0 and norm <= max_norm."""
    out = []

    def go(i, budget, total, prefix):
        if i == 8:
            if total == 0:
                out.append(tuple(prefix))
            return
        remaining = 8 - i
        top = isqrt(budget)
        for x in range(-top, top + 1):
            nb = budget - x * x
            nt = total + x
            # Cauchy-Schwarz: the remaining coordinates must absorb -nt
            if nt * nt > nb * (remaining - 1) and remaining > 1:
                continue
            if remaining == 1 and nt != 0:
                continue
            go(i + 1, nb, nt, prefix + [x])

    go(0, max_norm, 0, [])
    return out


def test_a7_counts_match_sum_zero_enumeration():
    tally = Counter(sum(x * x for x in v) for v in _a7_vectors(12))
    for n in range(13):
        assert lattice.vector_counts("A7", n) == {k: c for k, c in tally.items() if k <= n}, n


def test_e7_counts_match_enumerated_complement_of_root():
    # E7 is the zeta^0 column of the enumerated E8 theta series on U2
    terms = checks._e8_theta_by_enumeration(lattice.U2, 7)
    for n in range(13):
        expected = {2 * t: c for (t, r), c in terms.items() if r == 0 and 2 * t <= n}
        assert lattice.vector_counts("E7", n) == expected, n


def test_e8_counts_are_240_sigma3():
    expected = {0: 1, **{2 * n: 240 * sigma(3, n) for n in range(1, 21)}}
    assert lattice.vector_counts("E8", 40) == expected
    assert lattice.vector_counts("E8", 41) == expected


def test_e8_theta_series_counts_match_e4():
    # the z = 0 restriction of the Jacobi theta series is the E8 theta = E_4
    th = lattice.jacobi_theta_e8(lattice.U2, 6)
    assert th.eval_z0().agrees_with(cat.eisenstein(4, 6))
    counts = lattice.vector_counts("E8", 10)
    e4 = cat.eisenstein(4, 6)
    for norm in range(0, 11, 2):
        assert counts.get(norm, 0) == e4.coefficient(norm // 2)


def test_membership_and_primitivity():
    assert lattice.in_e8(lattice.U2) and lattice.in_e8(lattice.U8)
    assert lattice.is_primitive_e8(lattice.U8)
    assert lattice.in_e8([Fraction(1, 2)] * 8)
    assert not lattice.in_e8((1, 0, 0, 0, 0, 0, 0, 0))  # odd coordinate sum
    assert not lattice.in_e8([Fraction(1, 2)] * 7 + [Fraction(1, 3)])
    with pytest.raises(ValueError):
        lattice.jacobi_theta_e8((1, 0, 0, 0, 0, 0, 0, 0), 4)


@pytest.mark.parametrize("u", [None, 5, 2.5], ids=repr)
def test_theta_e8_needs_a_vector(u):
    with pytest.raises(TypeError) as err:
        lattice.jacobi_theta_e8(u, 4)
    assert str(err.value) == f"jacobi_theta_e8 needs u an integer vector, got {u!r}"


@pytest.mark.parametrize("prec", [0, -1])
def test_theta_e8_rejects_empty_precision(prec):
    with pytest.raises(ValueError, match=f"jacobi_theta_e8 needs prec >= 1, got {prec}"):
        lattice.jacobi_theta_e8(lattice.U2, prec)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_theta_e8_rejects_a_non_integer_precision(clear_memos, warm):
    clear_memos()
    if warm:
        lattice.jacobi_theta_e8(lattice.U2, 3)
    with pytest.raises(ValueError, match="jacobi_theta_e8 needs an integer prec, got 2.5"):
        lattice.jacobi_theta_e8(lattice.U2, 2.5)


def test_theta_on_root_is_e41():
    assert lattice.jacobi_theta_e8(lattice.U2, 6).mismatch(cat.jacobi_eis_m1(4, 6)) is None


def test_theta_on_primitive_norm8_is_e44():
    assert lattice.jacobi_theta_e8(lattice.U8, 6).mismatch(cat.jacobi_eis(4, 4, 6)) is None


def test_theta_independent_of_vector_in_orbit():
    # a root from the half-integer coset is rejected: only integer vectors are accepted
    with pytest.raises(ValueError):
        lattice.jacobi_theta_e8(tuple([Fraction(1, 2)] * 6 + [Fraction(-1, 2)] * 2), 5)
    orbits = [
        (lattice.U2, [(0, 0, 0, 1, 0, 0, -1, 0), (0, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, -1, -1)]),
        (lattice.U8, [(-2, 1, 1, 1, -1, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 2)]),
    ]
    for u, others in orbits:
        reference = lattice.jacobi_theta_e8(u, 5)
        for v in others:
            assert lattice.jacobi_theta_e8(v, 5).mismatch(reference) is None, v


@pytest.mark.parametrize("u", [lattice.U2, lattice.U8, (1, 1, 1, 1, 0, 0, 0, 0), (2, -2, 0, 0, 0, 0, 0, 0)])
def test_coordinate_count_matches_enumeration(u, clear_memos):
    # the four theta products against a tally of the enumerated vectors
    for p in range(1, 7):
        clear_memos()
        assert dict(lattice.jacobi_theta_e8(u, p).terms) == checks._e8_theta_by_enumeration(u, p), p


def _theta_e8_by_coordinates(u, prec: int):
    """The E8 Jacobi theta series on u below q^prec, counted coordinate by
    coordinate in doubled coordinates w = 2v, once per parity class: the
    state (norm so far, dot product with 2u so far, coordinate sum mod 4)
    maps to its multiplicity."""
    doubled_u = [2 * x for x in u]
    max_doubled = 8 * prec - 8  # (v,v) < 2*prec, norms are even
    top = isqrt(max_doubled)
    terms: dict = {}
    for parity in (0, 1):
        xs = [x for x in range(-top, top + 1) if (x - parity) % 2 == 0]
        # (w.w, w.(2u), coordinate sum mod 4) of the coordinates so far -> count
        states = {(0, 0, 0): 1}
        for c in doubled_u:
            grown: dict = {}
            for (n, d, s), count in states.items():
                for x in xs:
                    nx = n + x * x
                    if nx <= max_doubled:
                        key = (nx, d + x * c, (s + x) % 4)
                        grown[key] = grown.get(key, 0) + count
            states = grown
        for (n, d, s), count in states.items():
            if s == 0:
                key = (n // 8, d // 4)  # ((v,v)/2, (v,u))
                terms[key] = terms.get(key, 0) + count
    norm = sum(x * x for x in u)
    return FJExp(1, 1, prec, terms, weight=4, index=Fraction(norm, 2), cone_slack=0)


_FEW_PRECS = (1, 2, 3, 5, 8, 13, 24)
_PRODUCT_CASES = [
    (lattice.U2, range(1, 25)),
    (lattice.U8, range(1, 25)),
    (lattice.U2, (64,)),
    (lattice.U8, (64,)),
    *[(u, _FEW_PRECS) for u in [
        (1, 1, 1, 1, 0, 0, 0, 0), (2, -2, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, -1, 0), (0, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, -1, -1),
        (-2, 1, 1, 1, -1, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 2),
        (0,) * 8, (4, 0, 0, 0, 0, 0, 0, 0),
        (3, 1, 0, 0, 0, 0, 0, 0),  # distinct |u_i|
        (-1, 1, 1, 1, 1, 1, 1, 1),  # an odd count of negative coordinates
    ]],
]


@pytest.mark.parametrize("u, precs", _PRODUCT_CASES, ids=[
    ",".join(map(str, u)) + "-p" + (f"{ps.start}..{ps.stop - 1}" if isinstance(ps, range)
                                    else ",".join(map(str, ps)))
    for u, ps in _PRODUCT_CASES])
def test_theta_products_match_coordinate_count(u, precs, clear_memos):
    # the four products of level-two theta series against the coordinate count
    for p in precs:
        clear_memos()
        got, want = lattice.jacobi_theta_e8(u, p), _theta_e8_by_coordinates(u, p)
        fields = ("qscale", "zscale", "prec", "weight", "index", "cone_slack")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], p
        assert got.terms == want.terms, p


def test_e8_identity_at_precision_24():
    assert identities.verify("L32-e8", 24).passed


def test_theta_halfinteger_vector_rejected_with_message():
    with pytest.raises(ValueError):
        lattice.jacobi_theta_e8(tuple([Fraction(1, 2)] * 8), 4)


def test_eisenstein_zero_coefficients_count_complement_roots():
    # e_{4,1}(n, 0) counts E7 vectors of norm 2n; e_{4,4}(n, 0) counts A7 ones
    e41 = cat.jacobi_eis_m1(4, 5)
    e44 = cat.jacobi_eis(4, 4, 5)
    e7 = lattice.vector_counts("E7", 8)
    a7 = lattice.vector_counts("A7", 8)
    for n in range(5):
        assert e41.coefficient(n, 0) == e7.get(2 * n, 0)
        assert e44.coefficient(n, 0) == a7.get(2 * n, 0)
