"""Lattice enumeration and the E8 Jacobi theta series."""

from fractions import Fraction

import pytest

from jacobiforms import catalog as cat
from jacobiforms import checks, identities, lattice


def test_root_counts():
    assert lattice.vector_counts("E8", 2)[2] == 240
    assert lattice.vector_counts("E7", 2)[2] == 126
    assert lattice.vector_counts("A7", 2)[2] == 56
    for name in ("E8", "E7", "A7"):
        assert lattice.vector_counts(name, 0) == {0: 1}
    with pytest.raises(ValueError):
        lattice.vector_counts("D4", 2)


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


@pytest.mark.parametrize("prec", [0, -1])
def test_theta_e8_rejects_empty_precision(prec):
    with pytest.raises(ValueError, match=f"jacobi_theta_e8 needs prec >= 1, got {prec}"):
        lattice.jacobi_theta_e8(lattice.U2, prec)


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
    # the coordinate-by-coordinate count against a tally of the enumerated vectors
    for p in range(1, 7):
        clear_memos()
        assert dict(lattice.jacobi_theta_e8(u, p).terms) == checks._e8_theta_by_enumeration(u, p), p


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
