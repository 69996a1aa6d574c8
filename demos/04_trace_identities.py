"""The SL(2) trace side, in exact Gaussian-rational arithmetic.

Writing a[i,j] = tr(m_i M_j^-1) with m_0 = M_0 = I, the trace relation
tr(m M^-1) = tr(m) tr(M) - tr(m M) turns the symbolic determinant
identities into trace identities: det A = det B + det C with
B[i][j] = -tr(m_i M_j) and C[i][j] = tr(m_i M_j^-1), det A = 0 for n >= 4,
det B = det C = 0 for n >= 5, and det D = 0 for D[i][j] = tr(m_i M_j^{e_i})
once n >= 5.
"""

import random

from tracedet import (
    Mat2,
    build_magnus_matrices,
    build_thm2_D,
    exact_det,
    left_kernel,
    random_sl2_gaussian,
    random_sl2z,
    trace_relation_check,
)
from tracedet.sl2exact import GEN_S, GEN_T, mat_mul_vec_left

# The trace relation on a concrete pair.
lhs, rhs = trace_relation_check(GEN_T, GEN_S)
print("tr(T S^-1) =", lhs, " tr T tr S - tr(TS) =", rhs)

# Sampled matrices: words in S, T (integer entries) or bounded-height
# Gaussian rationals; both are exactly unimodular.
m = random_sl2z(12, random.Random(14))
g = random_sl2_gaussian(random.Random(2024))
print("\nsampled SL(2,Z) matrix:", m, " det =", m.det())
print("sampled Gaussian matrix det:", g.det())

# The determinant identity at n = 3.
ms = [random_sl2z(12, random.Random(s)) for s in (141, 142, 143)]
Ms = [random_sl2z(12, random.Random(s)) for s in (144, 145, 146)]
a_mat, b_mat, c_mat = build_magnus_matrices(ms, Ms)
det_a, det_b, det_c = exact_det(a_mat), exact_det(b_mat), exact_det(c_mat)
print("\nn=3: det A =", det_a, " det B =", det_b, " det C =", det_c)
print("det A == det B + det C:", det_a == det_b + det_c)

# At n = 5 every such determinant collapses to zero, witnessed by an exact
# left kernel vector.
ms5 = [random_sl2z(12, random.Random(10 + s)) for s in range(5)]
Ms5 = [random_sl2z(12, random.Random(20 + s)) for s in range(5)]
d_mat = build_thm2_D(ms5, Ms5, [1, -1, 1, 1, -1])
print("\nn=5: det D =", exact_det(d_mat))
v = left_kernel(d_mat)
print("left kernel v =", v)
print("v*D =", mat_mul_vec_left(v, d_mat))

# All-identity corner case: every trace is 2, so determinants vanish.
ident = [Mat2.identity()] * 2
a2, b2, c2 = build_magnus_matrices(ident, ident)
print("\nall-identity n=2: det A =", exact_det(a2),
      " det B =", exact_det(b2), " det C =", exact_det(c2))
