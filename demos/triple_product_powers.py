#!/usr/bin/env python3
"""The eighth power of the Jacobi triple product as an Eisenstein series.

The odd theta series

    theta(tau, z) = q^(1/8) zeta^(1/2) prod (1 - q^(n-1) zeta)(1 - q^n / zeta)(1 - q^n)

has theta^8 of weight 4 and index 4, and theta^8 = E_{4,1}(tau, 2z) - E_{4,4}(tau, z):
every Fourier coefficient of theta^8 is a two-term combination of Cohen
numbers H(3, .).  This script prints the expansions side by side and runs
the registry checks that pin the identity down exactly.
"""

from jacobiforms import catalog as cat
from jacobiforms.identities import verify
from jacobiforms.representations import f4_coeff


def main():
    th = cat.theta(5)
    print("theta =", th)
    print()

    th8 = (th ** 8).normalized()
    print("theta^8 =", th8.truncated(3))
    print()

    e41_2z = cat.jacobi_eis_m1(4, 3).ud(2)
    e44 = cat.jacobi_eis(4, 4, 3)
    print("E_{4,1}(tau,2z) =", e41_2z)
    print("E_{4,4}(tau,z)  =", e44)
    print()

    print("Coefficient formula f4(n, r) from Cohen numbers, row n = 2:")
    print("  ", {r: f4_coeff(2, r) for r in range(-5, 6) if f4_coeff(2, r)})
    print("  series row:", {int(r): c for r, c in th8.q_slice(2).items()})
    print()

    for ident in ("T31-theta8", "T31-f4", "T31-wp8", "T31-f6", "L32-e8"):
        print(verify(ident, 6))


if __name__ == "__main__":
    main()
