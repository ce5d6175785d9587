#!/usr/bin/env python3
"""Counting short vectors in E8 and its cross-sections.

The Jacobi theta series of E8 against a vector u,

    Theta_{E8,u}(tau, z) = sum over v in E8 of q^((v,v)/2) zeta^((v,u)),

is a Jacobi form of weight 4 and index (u,u)/2.  On a root it reproduces
E_{4,1}; on a primitive vector of norm 8 it reproduces E_{4,4} - so the
eighth power of the triple product is a difference of two lattice sums.
The zeta^0 columns count vectors in the orthogonal complements E7 and A7.
"""

from jacobiforms import catalog as cat
from jacobiforms import lattice


def main():
    for name in ("E8", "E7", "A7"):
        counts = lattice.vector_counts(name, 8)
        print(f"{name} vectors by norm:", {n: counts[n] for n in sorted(counts)})
    print()

    theta_u2 = lattice.jacobi_theta_e8(lattice.U2, 4)
    theta_u8 = lattice.jacobi_theta_e8(lattice.U8, 4)
    print("u2 =", lattice.U2, " -> index", theta_u2.index)
    print("Theta_{E8,u2} =", theta_u2.truncated(2))
    print("   E_{4,1}    =", cat.jacobi_eis_m1(4, 2))
    print()
    print("u8 =", lattice.U8, " -> index", theta_u8.index)
    print("Theta_{E8,u8} =", theta_u8.truncated(2))
    print("   E_{4,4}    =", cat.jacobi_eis(4, 4, 2))
    print()

    th8 = cat.theta(4) ** 8
    diff = theta_u2.ud(2) - theta_u8
    print("theta^8 == Theta_{E8,u2}(tau,2z) - Theta_{E8,u8}(tau,z):",
          th8.mismatch(diff) is None)


if __name__ == "__main__":
    main()
