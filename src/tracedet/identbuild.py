"""Constructors for the symbolic matrix families behind the determinant
identities (thm1, thm3) and their specializations (cor5, cor6, thm7).  Each
family is stated once as entry rules over any commutative ring, and one
builder runs either family's rules over the polynomial ring.  cor5 and cor6
are thm3's rules at a point stated once for any ring (_specialized): beta =
+-1 and a[i,j] symmetric or skew; thm7 is cor6 at lambda = 1.
"""

from __future__ import annotations

from .exactpoly import BETA, LAMBDA, Polynomial, entry
from .symmat import PolyMatrix

THM1 = "thm1"
THM3 = "thm3"
COR5 = "cor5"
COR6 = "cor6"
THM7 = "thm7"


def _a(i: int, j: int) -> Polynomial:
    return Polynomial.of_var(entry(i, j))


def thm1_rules(lam, a, one):
    """thm1's entry rules in any commutative ring: the functions (i, j) ->
    entry of A, B and C, with ``a(i, j)`` the value of a[i,j], ``lam`` that
    of lambda and ``one`` the ring's unit.  a[0,0] is never read.

    A has first row (2, lambda*a[0,1], ..., lambda*a[0,n]), first column
    (2, a[1,0], ..., a[n,0])^t, interior entries a[i,j] when i+j is even and
    B[i,j] otherwise; B[i,j] = lambda*a[i,0]*a[0,j] - a[i,j]; C[i,j] = a[i,j].
    Scaling a[i,0] by s_i, a[0,j] by t_j and a[i,j] by s_i*t_j (s_0 = t_0
    = 1) scales entry (i, j) by s_i*t_j, so build_magnus_matrices can run
    the rules over Z[i] and keep the scales per row and column.
    """

    def b_rule(i: int, j: int):
        return lam * a(i, 0) * a(0, j) - a(i, j)

    def a_rule(i: int, j: int):
        if i == 0 and j == 0:
            return one + one
        if i == 0:
            return lam * a(0, j)
        if j == 0 or (i + j) % 2 == 0:
            return a(i, j)
        return b_rule(i, j)

    return a_rule, b_rule, a


def thm3_rules(lam, beta, a):
    """thm3's entry rules in any commutative ring, as thm1_rules gives
    thm1's; a[i,1] with i > 1 is never read.

    A has first row (a[1,1], lambda*a[1,2], ..., lambda*a[1,n]), first
    column (a[1,1], beta*a[1,2], ..., beta*a[1,n])^t and interior a[i,j];
    B corrects the cells with i+j even and C those with i+j odd to
    a[i,j] - lambda*a[1,i]*a[1,j].  Scaling a[1,j] by s_j and a[i,j] by
    s_i*s_j for i, j >= 2 (s_1 = 1) scales entry (i, j) by s_i*s_j.
    """

    def a_rule(i: int, j: int):
        if i == 1 and j > 1:
            return lam * a(1, j)
        if j == 1 and i > 1:
            return beta * a(1, i)
        return a(i, j)

    def corrected(i: int, j: int, parity: int):
        if (i + j) % 2 == parity:
            return a(i, j) - lam * a(1, i) * a(1, j)
        return a(i, j)

    return a_rule, lambda i, j: corrected(i, j, 0), lambda i, j: corrected(i, j, 1)


def _build(rules, first: int, n: int) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    # A on labels first..n, B and C on first+1..n.
    a_rule, b_rule, c_rule = rules
    outer, inner = range(first, n + 1), range(first + 1, n + 1)
    return (
        PolyMatrix.build(outer, outer, a_rule),
        PolyMatrix.build(inner, inner, b_rule),
        PolyMatrix.build(inner, inner, c_rule),
    )


def build_thm1(n: int) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """The (n+1)x(n+1) matrix A (labels 0..n) and the n x n matrices B, C
    (labels 1..n) of thm1_rules over the polynomial ring, satisfying
    det A - (-1)^n det B - det C = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _build(thm1_rules(Polynomial.of_var(LAMBDA), _a, Polynomial.of_int(1)), 0, n)


def build_thm3(n: int) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """The n x n matrix A (labels 1..n) and (n-1)x(n-1) matrices B, C
    (labels 2..n) of thm3_rules over the polynomial ring, satisfying
    det A - beta*(det B + det C) = (a[1,1] - 2*beta) * det((a[i,j])_{2..n}).

    The constraint a[i,1] = beta*a[1,i] is baked into A's first column, so
    no variable a[i,1] with i > 1 ever occurs.  beta stays symbolic;
    apply_specialization runs the same rules at cor5's and cor6's point.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _build(thm3_rules(Polynomial.of_var(LAMBDA), Polynomial.of_var(BETA), _a), 1, n)


def _specialized(kind: str, a, one):
    """cor5's or cor6's point in any commutative ring: (beta, a') with
    a'(i, j) = a(i, j) for i < j, s*a(j, i) for i > j and the diagonal
    value times ``one`` for i = j.  cor5 is the symmetric sequence, (beta,
    diagonal, s) = (1, 2, 1); cor6 the skew one, (-1, 0, -1)."""
    if kind not in (COR5, COR6):
        raise ValueError(f"unknown specialization {kind!r}")
    beta, diagonal, s = (1, 2, 1) if kind == COR5 else (-1, 0, -1)

    def a_spec(i: int, j: int):
        if i < j:
            return a(i, j)
        if i > j:
            return s * a(j, i)
        return diagonal * one

    return beta, a_spec


def apply_specialization(n: int, kind: str) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """cor5's, cor6's or thm7's A, B and C at n: thm3_rules at _specialized's
    point over the polynomial ring, lambda symbolic for cor5 and cor6 and
    lambda = 1 for thm7, which is cor6 there.  Labels as in build_thm3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one = Polynomial.of_int(1)
    lam = one if kind == THM7 else Polynomial.of_var(LAMBDA)
    beta, a = _specialized(COR6 if kind == THM7 else kind, _a, one)
    return _build(thm3_rules(lam, beta, a), 1, n)


def build_inner_minor(n: int) -> PolyMatrix:
    """The plain matrix (a[i,j]) on labels 2..n (empty when n = 1)."""
    inner = range(2, n + 1)
    return PolyMatrix.build(inner, inner, lambda i, j: _a(i, j))
