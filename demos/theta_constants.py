#!/usr/bin/env python3
"""Theta-constant powers and representation counts.

theta_00^k(2 tau) generates the counts r_k(n) of representations by k
squares, theta_10^k the counts delta_k(n) by k triangular numbers.  The
eighth powers reduce to the classical divisor sums; the sixteenth powers
acquire a Cohen-number correction term.  Both are cross-checked against
brute-force counts here.
"""

from jacobiforms import catalog as cat
from jacobiforms.representations import (
    CountQuery,
    count_bruteforce,
    delta16,
    formula_delta8,
    formula_r8,
    r16,
    r_a8_formula,
)


def main():
    print("theta_10 =", cat.theta_const(1, 0, 4))
    print("theta_01 =", cat.theta_const(0, 1, 4))
    print()

    print(" n   r_8(n) formula   brute force      delta_8(n)   brute force")
    for n in range(1, 11):
        r8 = formula_r8(n)
        r8_bf = count_bruteforce(CountQuery("squares", 8, n))
        d8 = formula_delta8(n)
        d8_bf = count_bruteforce(CountQuery("triangular", 8, n))
        print(f"{n:>2}   {r8:>12}   {r8_bf:>11}      {d8:>10}   {d8_bf:>11}")
    print()

    print("Sixteen variables, odd n (closed forms use H(7, .)):")
    print(" n    r_16(n)      brute force      delta_16(n)   brute force")
    for n in (1, 3, 5, 7, 9, 11):
        print(f"{n:>2}   {r16(n):>9}   {count_bruteforce(CountQuery('squares', 16, n)):>12}"
              f"      {delta16(n):>10}   {count_bruteforce(CountQuery('triangular', 16, n)):>11}")
    print()

    print("Eight a-figurate numbers f_a(x) = (a x^2 + (a-2) x)/2, x in Z:")
    print(" a\\n " + "".join(f"{n:>7}" for n in range(8)))
    for a in range(1, 6):
        print(f"  {a}  " + "".join(f"{r_a8_formula(a, n):>7}" for n in range(8)))
    print("(each value equals the brute-force count; the formula is an")
    print(" alternating sum of the theta^8 coefficients f4(m, r))")


if __name__ == "__main__":
    main()
