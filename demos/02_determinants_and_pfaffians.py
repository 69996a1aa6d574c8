"""Two independent determinant engines and the Pfaffian.

det_dp expands along rows with memoized minors (fast, bound 8); the
permutation oracle is the literal signed sum over all n! permutations
(bound 7).  They share no code paths, so each one checks the other.
"""

import random

from tracedet import (
    Polynomial,
    PolyMatrix,
    det_dp,
    det_perm_oracle,
    entry,
    pfaffian,
    pfaffian_split,
)


def a(i, j):
    return Polynomial.of_var(entry(i, j))


generic = PolyMatrix.build(range(1, 4), range(1, 4), lambda i, j: a(i, j))
print("3x3 determinant (DP engine):")
print(" ", det_dp(generic))
print("engines agree:", det_dp(generic) == det_perm_oracle(generic))

# Cross-check on random single-term matrices.
rng = random.Random(0)
trials = 20
agreed = sum(
    det_dp(m) == det_perm_oracle(m)
    for m in (
        PolyMatrix.build(
            range(4), range(4),
            lambda i, j: rng.randint(-3, 3) * a(rng.randint(0, 3), rng.randint(0, 3)),
        )
        for _ in range(trials)
    )
)
print(f"random cross-check: {agreed}/{trials} agreements")


# A generic skew-symmetric matrix: zero diagonal, a[i,j] above, -a[i,j] below.
def skew(n):
    def rule(i, j):
        if i == j:
            return 0
        return a(i, j) if i < j else -a(j, i)

    return PolyMatrix.build(range(1, n + 1), range(1, n + 1), rule)


m4 = skew(4)
pf = pfaffian(m4)
print("\nPf =", pf)
print("Pf^2 == det:", pf ** 2 == det_dp(m4))

# The split by the parity of the partner of index 1.
pf_e, pf_o = pfaffian_split(m4)
print("Pf_e =", pf_e)
print("Pf_o =", pf_o)
print("Pf_e + Pf_o == Pf:", pf_e + pf_o == pf)
