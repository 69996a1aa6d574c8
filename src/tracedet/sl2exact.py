"""Exact 2x2 linear algebra over the Gaussian rationals: SL(2) samplers,
trace matrices, and exact determinant / left-kernel computation.

Floating point is banned here; every scalar is a pair of Fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactpoly import LAMBDA, entry
from .identbuild import build_thm1
from .symmat import NonSquareError


class SingularError(ZeroDivisionError):
    pass


class NotUnimodularError(ValueError):
    pass


class LengthMismatchError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x)!r}")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Exact complex scalar re + im*i with rational components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other) -> "GaussianRational":
        other = _gr(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        other = _gr(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _gr(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other) -> "GaussianRational":
        other = _gr(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise SingularError("division by zero")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}i)"


def _gr(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(_frac(x))
    raise TypeError(f"expected GaussianRational-compatible value, got {type(x)!r}")


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))


@dataclass(frozen=True, slots=True)
class Mat2:
    """Element of SL(2) over the Gaussian rationals.  Entries may be given as
    ints, Fractions or GaussianRationals; construction raises
    NotUnimodularError unless the determinant is exactly 1.  The numeric
    checks build one per sample and reach products only through
    trace_matrix."""

    e11: GaussianRational
    e12: GaussianRational
    e21: GaussianRational
    e22: GaussianRational

    def __post_init__(self):
        for name in ("e11", "e12", "e21", "e22"):
            object.__setattr__(self, name, _gr(getattr(self, name)))
        if self.det() != GR_ONE:
            raise NotUnimodularError(f"determinant {self.det()!r} is not 1")

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def trace(self) -> GaussianRational:
        return self.e11 + self.e22

    def det(self) -> GaussianRational:
        return self.e11 * self.e22 - self.e12 * self.e21

    def inverse(self) -> "Mat2":
        """The adjugate, which is the inverse because det = 1."""
        return Mat2(self.e22, -self.e12, -self.e21, self.e11)

    def __repr__(self) -> str:
        return f"[[{self.e11!r}, {self.e12!r}], [{self.e21!r}, {self.e22!r}]]"


GEN_S = Mat2(0, -1, 1, 0)
GEN_T = Mat2(1, 1, 0, 1)
# S, S^-1, T and T^-1 as int 4-tuples (e11, e12, e21, e22), in the order
# random_sl2z draws them from.
_SL2Z_LETTERS = ((0, -1, 1, 0), (0, 1, -1, 0), (1, 1, 0, 1), (1, -1, 0, 1))

DEFAULT_WORD_LEN = 12
HEIGHT_BOUND = 5


def trace_relation_check(m: Mat2, big_m: Mat2) -> tuple[GaussianRational, GaussianRational]:
    """Both sides of tr(m*M^-1) = tr(m)*tr(M) - tr(m*M)."""
    ((lhs,),) = trace_matrix([m], [big_m], invert_right=True)
    ((cross,),) = trace_matrix([m], [big_m])
    return lhs, m.trace() * big_m.trace() - cross


def _resolve_rng(rng: random.Random | int) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


def random_sl2z(word_len: int, rng: random.Random | int) -> Mat2:
    """Product of word_len uniform factors from {S, S^-1, T, T^-1}; always
    determinant 1 with integer entries, reproducible for a fixed seed.  The
    word is multiplied out over plain ints."""
    gen = _resolve_rng(rng)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(word_len):
        p, q, r, s = gen.choice(_SL2Z_LETTERS)
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return Mat2(a, b, c, d)


def _random_gaussian(gen: random.Random) -> GaussianRational:
    """re and im each p/q with |p| <= HEIGHT_BOUND and 1 <= q <= HEIGHT_BOUND."""
    re = Fraction(gen.randint(-HEIGHT_BOUND, HEIGHT_BOUND), gen.randint(1, HEIGHT_BOUND))
    im = Fraction(gen.randint(-HEIGHT_BOUND, HEIGHT_BOUND), gen.randint(1, HEIGHT_BOUND))
    return GaussianRational(re, im)


def random_sl2_gaussian(rng: random.Random | int) -> Mat2:
    """Determinant-1 matrix with genuinely complex entries: a, b, c are
    random Gaussian rationals of height HEIGHT_BOUND (a resampled until
    nonzero) and d = (1 + b*c)/a."""
    gen = _resolve_rng(rng)
    while True:
        a = _random_gaussian(gen)
        if a:
            break
    b = _random_gaussian(gen)
    c = _random_gaussian(gen)
    d = (GR_ONE + b * c) / a
    return Mat2(a, b, c, d)


GRMatrix = list[list[GaussianRational]]


def build_magnus_matrices(
    ms: Sequence[Mat2], big_ms: Sequence[Mat2]
) -> tuple[GRMatrix, GRMatrix, GRMatrix]:
    """Trace matrices A, B, C for the generalized determinant identity.

    With m_0 = M_0 = I: A is (n+1)x(n+1) with A[i][j] = tr(m_i M_j^-1) when
    i+j is even and tr(m_i M_j) otherwise; B[i][j] = -tr(m_i M_j) and
    C[i][j] = tr(m_i M_j^-1) for 1 <= i, j <= n.  Note B carries the minus
    sign, so the identity reads det A = det B + det C.  A, -B and C are
    thm1's matrices at the trace point lambda = 1, a[i,0] = tr m_i,
    a[0,j] = tr M_j and a[i,j] = tr(m_i M_j^-1), by
    tr(mM) = tr m tr M - tr(mM^-1).  The samples must pair up.
    """
    if len(ms) != len(big_ms):
        raise LengthMismatchError(f"{len(ms)} m's vs {len(big_ms)} M's")
    point = {LAMBDA: GR_ONE}
    point.update((entry(0, j), big.trace()) for j, big in enumerate(big_ms, 1))
    for i, (m, row) in enumerate(zip(ms, trace_matrix(ms, big_ms, invert_right=True)), 1):
        point[entry(i, 0)] = m.trace()
        point.update((entry(i, j), x) for j, x in enumerate(row, 1))
    a_poly, b_poly, c_poly = build_thm1(len(ms))
    return (
        a_poly.evaluate(point, GR_ONE),
        [[-x for x in row] for row in b_poly.evaluate(point, GR_ONE)],
        c_poly.evaluate(point, GR_ONE),
    )


def build_thm2_D(
    ms: Sequence[Mat2], big_ms: Sequence[Mat2], eps: Sequence[int]
) -> GRMatrix:
    """The n x n matrix D[i][j] = tr(m_i M_j^{eps_i}); row i uses the single
    exponent eps_i throughout, so it is one trace-matrix row, with every M_j
    inverted when eps_i = -1."""
    if len(eps) != len(ms):
        raise LengthMismatchError(f"{len(eps)} signs vs {len(ms)} m's")
    if any(e not in (1, -1) for e in eps):
        raise ValueError(f"sign vector entries must be +1 or -1, got {tuple(eps)}")
    if len(ms) != len(big_ms):
        raise LengthMismatchError(f"{len(ms)} m's vs {len(big_ms)} M's")
    return [trace_matrix([m], big_ms, invert_right=e == -1)[0] for m, e in zip(ms, eps)]


def trace_matrix(left: Sequence[Mat2], right: Sequence[Mat2], invert_right: bool = False) -> GRMatrix:
    """The matrix (tr(left_i * right_j)) or (tr(left_i * right_j^-1)).

    No product or inverse is built: tr(xy) is x11 y11 + x12 y21 + x21 y12 +
    x22 y22, and y^-1 is the adjugate of y because a Mat2 has det = 1.
    """
    if invert_right:
        return [
            [x.e11 * y.e22 - x.e12 * y.e21 - x.e21 * y.e12 + x.e22 * y.e11 for y in right]
            for x in left
        ]
    return [
        [x.e11 * y.e11 + x.e12 * y.e21 + x.e21 * y.e12 + x.e22 * y.e22 for y in right]
        for x in left
    ]


def _echelon(rows: GRMatrix) -> tuple[GRMatrix, list[tuple[int, int]], int]:
    """Row-reduce a copy of the square matrix over the field, pivoting on the
    first nonzero entry of each column and skipping columns with none.

    Returns the reduced rows, the (row, col) pivot positions in order and
    the parity of the row swaps.  The pivots and the entries right of each
    pivot are exact; entries below a pivot are left unspecified, because
    neither the determinant nor the back-substitution reads them.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareError("matrix is not square")
    work = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []
    swaps = 0
    for col in range(n):
        top = len(pivots)
        found = next((r for r in range(top, n) if work[r][col]), None)
        if found is None:
            continue
        if found != top:
            work[top], work[found] = work[found], work[top]
            swaps ^= 1
        piv = work[top][col]
        for r in range(top + 1, n):
            if work[r][col]:
                factor = work[r][col] / piv
                for c in range(col + 1, n):
                    work[r][c] = work[r][c] - factor * work[top][c]
        pivots.append((top, col))
    return work, pivots, swaps


def exact_det(rows: GRMatrix) -> GaussianRational:
    """Exact determinant by Gaussian elimination over the field, pivoting on
    the first nonzero entry of each column."""
    work, pivots, swaps = _echelon(rows)
    if len(pivots) < len(work):
        return GR_ZERO
    det = -GR_ONE if swaps else GR_ONE
    for r, c in pivots:
        det = det * work[r][c]
    return det


def left_kernel(rows: GRMatrix) -> list[GaussianRational] | None:
    """A nonzero row vector v with v*M = 0, normalized so its first nonzero
    coordinate is 1; None when M has full rank."""
    # v*M = 0 is M^t x = 0 for the column vector x = v^t.
    work, pivots, _ = _echelon(list(zip(*rows)))
    n = len(work)
    if len(pivots) == n:
        return None
    pivot_cols = {c for _, c in pivots}
    free_col = next(c for c in range(n) if c not in pivot_cols)
    x = [GR_ZERO] * n
    x[free_col] = GR_ONE
    for pr, pc in reversed(pivots):
        acc = GR_ZERO
        for c in range(pc + 1, n):
            if x[c]:
                acc = acc + work[pr][c] * x[c]
        x[pc] = -acc / work[pr][pc]
    lead = next(v for v in x if v)
    return [v / lead for v in x]


def mat_mul_vec_left(v: Sequence[GaussianRational], rows: GRMatrix) -> list[GaussianRational]:
    """The row vector v*M, computed by plain exact multiplication."""
    n = len(rows)
    if len(v) != n:
        raise LengthMismatchError(f"vector length {len(v)} vs {n} rows")
    cols = len(rows[0]) if rows else 0
    out = []
    for j in range(cols):
        acc = GR_ZERO
        for i in range(n):
            acc = acc + v[i] * rows[i][j]
        out.append(acc)
    return out


def gaussian_to_json(x: GaussianRational) -> dict[str, str]:
    return {
        "re_num": str(x.re.numerator),
        "re_den": str(x.re.denominator),
        "im_num": str(x.im.numerator),
        "im_den": str(x.im.denominator),
    }


def mat2_to_json(m: Mat2) -> list[list[dict[str, str]]]:
    return [
        [gaussian_to_json(m.e11), gaussian_to_json(m.e12)],
        [gaussian_to_json(m.e21), gaussian_to_json(m.e22)],
    ]
