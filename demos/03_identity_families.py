"""The symbolic identity families, verified to literal zero.

thm1:  det A - (-1)^n det B - det C = 0 on the (n+1)x(n+1) family whose
       entries mix a[i,j] with lambda*a[i,0]*a[0,j] - a[i,j] by parity.
thm3:  det A - beta(det B + det C) = (a[1,1] - 2 beta) det(inner), with the
       first-column constraint a[i,1] = beta*a[1,i] baked in.
cor5:  the symmetric specialization (a[i,j] = a[j,i], a[i,i] = 2, beta = 1).
cor6:  the skew specialization (a[i,j] = -a[j,i], beta = -1), even n.
thm7:  in the skew case with lambda = 1, det C factors as -2 Pf_e(A) Pf_o(A).
"""

from tracedet import apply_specialization, build_thm3, pfaffian_split, det_dp
from tracedet.verify import verify_thm1, verify_thm3_family

print("matrix family at n=2 (symbolic beta):")
a_mat, b_mat, c_mat = build_thm3(2)
print("A:", [[str(a_mat.entry(i, j)) for j in (1, 2)] for i in (1, 2)])
print("B:", [[str(b_mat.entry(2, 2))]])
print("C:", [[str(c_mat.entry(2, 2))]])

print("\nresidual checks (exact, both determinant engines where possible):")
for n in range(0, 5):
    print(" ", f"thm1 n={n}:", verify_thm1(n).status)
for n in range(1, 5):
    print(" ", f"thm3 n={n}:", verify_thm3_family(n, 'thm3').status)
for n in (2, 3, 4):
    print(" ", f"cor5 n={n}:", verify_thm3_family(n, 'cor5').status)
for n in (2, 4):
    print(" ", f"cor6 n={n}:", verify_thm3_family(n, 'cor6').status)
    print(" ", f"thm7 n={n}:", verify_thm3_family(n, 'thm7').status)

# What thm7 says, spelled out at n=4: C's determinant against the split
# Pfaffian of the skew-specialized A with lambda = 1.
spec_a, _, spec_c = apply_specialization(4, "thm7")
pf_e, pf_o = pfaffian_split(spec_a)
print("\nthm7 at n=4, by hand:")
print("  det C          =", det_dp(spec_c))
print("  -2 Pf_e * Pf_o =", -2 * pf_e * pf_o)

# A deliberately corrupted build: flip one sign and the residual is nonzero.
bad = verify_thm1(3, corrupt_sign=True)
print("\nmutation check (one sign flipped in B):", bad.status)
print("  residual:", bad.residual)
