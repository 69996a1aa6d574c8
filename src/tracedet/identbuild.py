"""Constructors for the symbolic matrix families behind the determinant
identities (thm1, thm3) and their specializations (cor5, cor6, thm7).
"""

from __future__ import annotations

import functools

from .exactpoly import BETA, LAMBDA, Polynomial, PolyVar, entry
from .symmat import PolyMatrix

THM1 = "thm1"
THM3 = "thm3"
COR5 = "cor5"
COR6 = "cor6"
THM7 = "thm7"


def _a(i: int, j: int) -> Polynomial:
    return Polynomial.of_var(entry(i, j))


@functools.cache
def build_thm1(n: int) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """The (n+1)x(n+1) matrix A (labels 0..n) and the n x n matrices B, C
    (labels 1..n) satisfying det A - (-1)^n det B - det C = 0.

    A has first row (2, lambda*a[0,1], ..., lambda*a[0,n]), first column
    (2, a[1,0], ..., a[n,0])^t, interior entries a[i,j] when i+j is even and
    lambda*a[i,0]*a[0,j] - a[i,j] otherwise;
    B[i,j] = lambda*a[i,0]*a[0,j] - a[i,j]; C[i,j] = a[i,j].

    Built once per n and shared by every caller: PolyMatrix and Polynomial
    have no mutators (with_entry, substitute and evaluate return copies), so
    a caller cannot alter the cached matrices.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = Polynomial.of_var(LAMBDA)

    def a_rule(i: int, j: int) -> Polynomial:
        if i == 0 and j == 0:
            return Polynomial.of_int(2)
        if i == 0:
            return lam * _a(0, j)
        if j == 0 or (i + j) % 2 == 0:
            return _a(i, j)
        return lam * _a(i, 0) * _a(0, j) - _a(i, j)

    inner = range(1, n + 1)
    a_mat = PolyMatrix.build(range(n + 1), range(n + 1), a_rule)
    b_mat = PolyMatrix.build(inner, inner, lambda i, j: lam * _a(i, 0) * _a(0, j) - _a(i, j))
    c_mat = PolyMatrix.build(inner, inner, lambda i, j: _a(i, j))
    return a_mat, b_mat, c_mat


def build_thm3(n: int) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """The n x n matrix A (labels 1..n) and (n-1)x(n-1) matrices B, C
    (labels 2..n) satisfying
    det A - beta*(det B + det C) = (a[1,1] - 2*beta) * det((a[i,j])_{2..n}).

    The constraint a[i,1] = beta*a[1,i] is baked into A's first column, so
    no variable a[i,1] with i > 1 ever occurs.  beta stays symbolic;
    apply_specialization substitutes its value for cor5 and cor6.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = Polynomial.of_var(LAMBDA)
    beta = Polynomial.of_var(BETA)

    def a_rule(i: int, j: int) -> Polynomial:
        if i == 1 and j == 1:
            return _a(1, 1)
        if i == 1:
            return lam * _a(1, j)
        if j == 1:
            return beta * _a(1, i)
        return _a(i, j)

    def b_rule(i: int, j: int) -> Polynomial:
        if (i + j) % 2 == 0:
            return _a(i, j) - lam * _a(1, i) * _a(1, j)
        return _a(i, j)

    def c_rule(i: int, j: int) -> Polynomial:
        if (i + j) % 2 == 0:
            return _a(i, j)
        return _a(i, j) - lam * _a(1, i) * _a(1, j)

    inner = range(2, n + 1)
    a_mat = PolyMatrix.build(range(1, n + 1), range(1, n + 1), a_rule)
    b_mat = PolyMatrix.build(inner, inner, b_rule)
    c_mat = PolyMatrix.build(inner, inner, c_rule)
    return a_mat, b_mat, c_mat


def _specialization_map(n: int, kind: str) -> dict[PolyVar, Polynomial | int]:
    if kind == COR5:
        # Symmetric sequence with 2 on the diagonal, beta = 1.
        mapping: dict[PolyVar, Polynomial | int] = {BETA: 1}
        for i in range(1, n + 1):
            mapping[entry(i, i)] = 2
            for j in range(1, i):
                mapping[entry(i, j)] = _a(j, i)
        return mapping
    if kind == COR6:
        # Skew-symmetric sequence, beta = -1.
        mapping = {BETA: -1}
        for i in range(1, n + 1):
            mapping[entry(i, i)] = 0
            for j in range(1, i):
                mapping[entry(i, j)] = -_a(j, i)
        return mapping
    raise ValueError(f"unknown specialization {kind!r}")


def apply_specialization(
    matrices: tuple[PolyMatrix, PolyMatrix, PolyMatrix], kind: str
) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Specialize matrices built by build_thm3 with symbolic beta.

    cor5: beta -> 1, a[i,j] -> a[j,i] for i > j, a[i,i] -> 2.
    cor6: beta -> -1, a[i,j] -> -a[j,i] for i > j, a[i,i] -> 0.
    lambda stays symbolic; originals are never mutated.
    """
    a_mat, b_mat, c_mat = matrices
    n = max(a_mat.row_labels)
    mapping = _specialization_map(n, kind)
    return (
        a_mat.substitute(mapping),
        b_mat.substitute(mapping),
        c_mat.substitute(mapping),
    )


def build_inner_minor(n: int) -> PolyMatrix:
    """The plain matrix (a[i,j]) on labels 2..n (empty when n = 1)."""
    inner = range(2, n + 1)
    return PolyMatrix.build(inner, inner, lambda i, j: _a(i, j))
