"""Exact 2x2 linear algebra over the Gaussian rationals: SL(2) samplers,
trace matrices, and exact determinant / left-kernel computation.

Floating point is banned here.  From a sampler's draw to the elimination
all arithmetic is over the Gaussian integers (pairs of ints): a Mat2 sample
is N/d with N over Z[i], and a trace matrix is a ScaledMatrix, an integer
matrix with one positive int scale per row and per column, reduced by one
fraction-free routine, _echelon.  GaussianRationals (pairs of Fractions)
appear only where a value leaves, as an entry, determinant or kernel vector,
or as the two sides of the trace relation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .identbuild import thm1_rules
from .symmat import NonSquareError


class SingularError(ZeroDivisionError):
    pass


class NotUnimodularError(ValueError):
    pass


class LengthMismatchError(ValueError):
    pass


class InexactDivisionError(ArithmeticError):
    """A division in the fraction-free elimination left a remainder, which no
    matrix over Z[i] can cause: an internal error, not a failed identity."""


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


# GaussianInt(re, im) without its Python-level __new__: _new(GaussianInt, (re, im)).
_new = tuple.__new__


class GaussianInt(NamedTuple):
    """Exact Gaussian integer re + im*i.  It is a pair of ints, so the
    elimination loops unpack it directly; the ring operators are what
    thm1_rules need to run over Z[i]."""

    re: int = 0
    im: int = 0

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __neg__(self) -> "GaussianInt":
        return _new(GaussianInt, (-self.re, -self.im))

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return _new(GaussianInt, (self.re + other.re, self.im + other.im))

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return _new(GaussianInt, (self.re - other.re, self.im - other.im))

    def __mul__(self, other: "GaussianInt | int") -> "GaussianInt":
        a, b = self
        if isinstance(other, int):
            return _new(GaussianInt, (a * other, b * other))
        c, d = other
        return _new(GaussianInt, (a * c - b * d, a * d + b * c))

    __rmul__ = __mul__


ZI_ONE = GaussianInt(1)


def _over_zi(values: Sequence[GaussianRational]) -> tuple[list[GaussianInt], int]:
    """The values as z/d: z over Z[i], and d > 0 the lcm of their denominators."""
    d = math.lcm(*(x.denominator for g in values for x in (g.re, g.im)))
    return [
        GaussianInt(g.re.numerator * (d // g.re.denominator), g.im.numerator * (d // g.im.denominator))
        for g in values
    ], d


def _gr_over(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


@dataclass(frozen=True, slots=True, init=False)
class Mat2:
    """Element of SL(2) over the Gaussian rationals, stored as N/d: num holds
    N's entries n11, n12, n21, n22 over Z[i], and den is d > 0, in lowest
    terms, so equal fields are equal matrices.  Mat2(e11, e12, e21, e22)
    takes ints, Fractions or GaussianRationals and Mat2.over(num, den) the
    integral form; both raise NotUnimodularError unless det N = d^2.  The
    numeric checks build one per sample and reach products only through
    trace_matrix."""

    num: tuple[GaussianInt, GaussianInt, GaussianInt, GaussianInt]
    den: int

    def __init__(self, e11, e12, e21, e22):
        self._set_checked(*_over_zi([_gr(e) for e in (e11, e12, e21, e22)]))

    @classmethod
    def over(cls, num: Sequence[GaussianInt], den: int) -> "Mat2":
        """The matrix N/d, from N's entries n11, n12, n21, n22 and den > 0."""
        m = object.__new__(cls)
        m._set_checked(num, den)
        return m

    def _set_checked(self, num: Sequence[GaussianInt], den: int) -> None:
        """Every Mat2's one det check: reduce N/d to lowest terms, then
        require det N = d^2 over the ints.  N's entries may be GaussianInts
        or (re, im) int pairs."""
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        (ar, ai), (br, bi), (cr, ci), (dr, di) = num
        g = math.gcd(den, ar, ai, br, bi, cr, ci, dr, di)
        if g > 1:
            ar, ai, br, bi = ar // g, ai // g, br // g, bi // g
            cr, ci, dr, di = cr // g, ci // g, dr // g, di // g
            den //= g
        det_re = ar * dr - ai * di - br * cr + bi * ci
        det_im = ar * di + ai * dr - br * ci - bi * cr
        if det_re != den * den or det_im:
            raise NotUnimodularError(f"determinant {_gr_over(det_re, det_im, den * den)!r} is not 1")
        num = (_new(GaussianInt, (ar, ai)), _new(GaussianInt, (br, bi)),
               _new(GaussianInt, (cr, ci)), _new(GaussianInt, (dr, di)))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def identity(cls) -> "Mat2":
        m = object.__new__(cls)  # I needs no det check
        object.__setattr__(m, "num", (ZI_ONE, GaussianInt(), GaussianInt(), ZI_ONE))
        object.__setattr__(m, "den", 1)
        return m

    # The entries as GaussianRationals, for reports and tests.
    e11 = property(lambda self: _gr_over(*self.num[0], self.den))
    e12 = property(lambda self: _gr_over(*self.num[1], self.den))
    e21 = property(lambda self: _gr_over(*self.num[2], self.den))
    e22 = property(lambda self: _gr_over(*self.num[3], self.den))

    def trace(self) -> GaussianRational:
        return _gr_over(*(self.num[0] + self.num[3]), self.den)

    def det(self) -> GaussianRational:
        n11, n12, n21, n22 = self.num
        return _gr_over(*(n11 * n22 - n12 * n21), self.den * self.den)

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
    """Both sides of tr(m*M^-1) = tr(m)*tr(M) - tr(m*M), with M^-1 taken as
    adj(M)/det(M) (with adj(M) alone both sides are one polynomial).  Mat2
    admits det = 1 only, so no pair it builds makes the sides differ.

    With m = N/d and M = N'/D the left side is tr(N adj N') D / (d det N')
    and the right side (tr N tr N' - tr(N N')) / (d D).  Both traces come
    from trace_matrix over Z[i], the left side is taken on the scale
    d |det N'|^2, and each side leaves as one GaussianRational.  A zero
    det N' raises SingularError."""
    y11, y12, y21, y22 = big_m.num
    det_re, det_im = y11 * y22 - y12 * y21
    norm = det_re * det_re + det_im * det_im
    if not norm:
        raise SingularError("division by zero")
    big_d = big_m.den
    adj_trace = trace_matrix([m], [big_m], invert_right=True).num[0][0]
    cross = trace_matrix([m], [big_m]).num[0][0]
    n11, _, _, n22 = m.num
    lhs = adj_trace * _new(GaussianInt, (det_re * big_d, -det_im * big_d))
    rhs = (n11 + n22) * (y11 + y22) - cross
    return _gr_over(*lhs, m.den * norm), _gr_over(*rhs, m.den * big_d)


def random_sl2z(word_len: int, rng: random.Random) -> Mat2:
    """Product of word_len uniform factors from {S, S^-1, T, T^-1}, drawn
    from ``rng`` with one choice() each; always determinant 1 with integer
    entries.  The word is multiplied out over plain ints."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(word_len):
        p, q, r, s = rng.choice(_SL2Z_LETTERS)
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return Mat2.over(((a, 0), (b, 0), (c, 0), (d, 0)), 1)


def _random_gaussian(rng: random.Random) -> tuple[int, int, int]:
    """x/p, with re and im each u/v for |u| <= HEIGHT_BOUND and
    1 <= v <= HEIGHT_BOUND: x's re and im over Z, and p the product of the
    two v's."""
    re, re_den = rng.randint(-HEIGHT_BOUND, HEIGHT_BOUND), rng.randint(1, HEIGHT_BOUND)
    im, im_den = rng.randint(-HEIGHT_BOUND, HEIGHT_BOUND), rng.randint(1, HEIGHT_BOUND)
    return re * im_den, im * re_den, re_den * im_den


def random_sl2_gaussian(rng: random.Random) -> Mat2:
    """Determinant-1 matrix with genuinely complex entries: a = x/p, b = y/q
    and c = z/r are random Gaussian rationals of height HEIGHT_BOUND drawn
    from ``rng`` in that order (a redrawn until nonzero), and d = (1 + b*c)/a
    = (qr + yz) p conj(x) / (qr |x|^2).  Over the common denominator
    pqr |x|^2 all four entries are Gaussian integers."""
    while True:
        xr, xi, p = _random_gaussian(rng)
        if xr or xi:
            break
    yr, yi, q = _random_gaussian(rng)
    zr, zi, r = _random_gaussian(rng)
    qr, norm, pp = q * r, xr * xr + xi * xi, p * p
    # u = qr + y*z, and d's numerator is u * conj(x) * p^2.
    ur, ui = qr + yr * zr - yi * zi, yr * zi + yi * zr
    d_num = ((ur * xr + ui * xi) * pp, (ui * xr - ur * xi) * pp)
    a, b, c = qr * norm, p * r * norm, p * q * norm
    return Mat2.over(((xr * a, xi * a), (yr * b, yi * b), (zr * c, zi * c), d_num), p * qr * norm)


GRMatrix = list[list[GaussianRational]]


@dataclass(frozen=True, slots=True, eq=False)
class ScaledMatrix:
    """The matrix diag(1/row_den) * num * diag(1/col_den), with num over Z[i]
    and positive int scales.  Trace matrices are built and eliminated in this
    form, so no Fraction is formed until a result leaves; to_rows() gives
    the Gaussian-rational entries."""

    num: list[list[GaussianInt]]
    row_den: list[int]
    col_den: list[int]

    def to_rows(self) -> GRMatrix:
        return [
            [_gr_over(x.re, x.im, r * c) for x, c in zip(row, self.col_den)]
            for row, r in zip(self.num, self.row_den)
        ]


def _scaled(rows: ScaledMatrix | GRMatrix) -> ScaledMatrix:
    """rows itself, or Gaussian-rational rows scaled to Z[i] row by row."""
    if isinstance(rows, ScaledMatrix):
        return rows
    scaled = [_over_zi(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    return ScaledMatrix([z for z, _ in scaled], [d for _, d in scaled], [1] * cols)


def _dot(xs: Sequence[GaussianInt], ys: Sequence[GaussianInt]) -> GaussianInt:
    """sum_k xs[k] * ys[k] over Z[i]; entries may be GaussianInts or (re, im) pairs."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return _new(GaussianInt, (re, im))


def build_magnus_matrices(
    ms: Sequence[Mat2], big_ms: Sequence[Mat2]
) -> tuple[ScaledMatrix, ScaledMatrix, ScaledMatrix]:
    """Trace matrices A, B, C with det A = det B + det C: thm1's A, -B and C
    at lambda = 1 and a[i,j] = tr(m_i M_j^-1), with m_0 = M_0 = I.  By
    tr(mM) = tr m tr M - tr(mM^-1), A is (n+1)x(n+1) with A[i][j] =
    tr(m_i M_j^-1) when i+j is even and tr(m_i M_j) otherwise, B[i][j] =
    -tr(m_i M_j) and C[i][j] = tr(m_i M_j^-1) for 1 <= i, j <= n.  The
    samples must pair up.

    The trace point is one trace matrix with an identity border: row 0 holds
    tr M_j and column 0 tr m_i.  thm1_rules scale per row and column, so they
    run on its numerators over Z[i], and its scales [1, *d_i] and [1, *D_j]
    are A's; B and C take their [1:] slices.
    """
    if len(ms) != len(big_ms):
        raise LengthMismatchError(f"{len(ms)} m's vs {len(big_ms)} M's")
    one = Mat2.identity()
    point = trace_matrix([one, *ms], [one, *big_ms], invert_right=True)
    num, rows, cols = point.num, point.row_den, point.col_den
    a_rule, b_rule, c_rule = thm1_rules(ZI_ONE, lambda i, j: num[i][j], ZI_ONE)
    outer, inner = range(len(ms) + 1), range(1, len(ms) + 1)
    return (
        ScaledMatrix([[a_rule(i, j) for j in outer] for i in outer], rows, cols),
        ScaledMatrix([[-b_rule(i, j) for j in inner] for i in inner], rows[1:], cols[1:]),
        ScaledMatrix([[c_rule(i, j) for j in inner] for i in inner], rows[1:], cols[1:]),
    )


def build_thm2_D(
    ms: Sequence[Mat2], big_ms: Sequence[Mat2], eps: Sequence[int]
) -> ScaledMatrix:
    """The n x n matrix D[i][j] = tr(m_i M_j^{eps_i}); row i uses the single
    exponent eps_i throughout, so it is one trace-matrix row, with every M_j
    inverted when eps_i = -1."""
    if len(eps) != len(ms):
        raise LengthMismatchError(f"{len(eps)} signs vs {len(ms)} m's")
    if any(e not in (1, -1) for e in eps):
        raise ValueError(f"sign vector entries must be +1 or -1, got {tuple(eps)}")
    if len(ms) != len(big_ms):
        raise LengthMismatchError(f"{len(ms)} m's vs {len(big_ms)} M's")
    rows = [trace_matrix([x], big_ms, e == -1).num[0] for x, e in zip(ms, eps)]
    return ScaledMatrix(rows, [x.den for x in ms], [y.den for y in big_ms])


def trace_matrix(left: Sequence[Mat2], right: Sequence[Mat2], invert_right: bool = False) -> ScaledMatrix:
    """The matrix (tr(left_i * right_j)) or (tr(left_i * right_j^-1)), over
    Z[i] with the samples' scales: tr(N/d * N'/D) = (n11 n'11 + n12 n'21 +
    n21 n'12 + n22 n'22)/(d D).  No product or inverse is built: y^-1 is
    adj y = [[y22, -y12], [-y21, y11]] because a Mat2 has det = 1."""
    if invert_right:
        partners = [(y22, -y21, -y12, y11) for y11, y12, y21, y22 in (y.num for y in right)]
    else:
        partners = [(y11, y21, y12, y22) for y11, y12, y21, y22 in (y.num for y in right)]
    rows = [[_dot(x.num, z) for z in partners] for x in left]
    return ScaledMatrix(rows, [x.den for x in left], [y.den for y in right])


def _divexact(xr: int, xi: int, qr: int, qi: int) -> tuple[int, int]:
    """(xr + xi*i) / (qr + qi*i) in Z[i], as x * conj(q) / |q|^2; raises
    InexactDivisionError on a remainder instead of rounding."""
    if qi:
        norm = qr * qr + qi * qi
        yr, rr = divmod(xr * qr + xi * qi, norm)
        yi, ri = divmod(xi * qr - xr * qi, norm)
    else:
        yr, rr = divmod(xr, qr)
        yi, ri = divmod(xi, qr)
    if rr or ri:
        raise InexactDivisionError(f"({xr}{xi:+}i) / ({qr}{qi:+}i) is not a Gaussian integer")
    return yr, yi


def _echelon(rows: Sequence[Sequence[GaussianInt]]) -> tuple[list[list], list[tuple[int, int]], int]:
    """Fraction-free (Bareiss 1968) row reduction of a copy of the square
    matrix over Z[i], pivoting on the first nonzero entry of each column and
    skipping columns with none.

    Each step sets a = (p*a - f*t) / q below the pivot p, with f the entry
    in the pivot column, t the pivot row's entry and q the previous pivot
    (1 at first).  After k pivots an entry is the minor on the pivot rows
    and columns plus its own row and column, so every division is exact.
    Returns the reduced rows (entries are (re, im) pairs), the (row, col)
    pivot positions in order and the parity of the row swaps.  At full rank
    the last pivot is the determinant up to that sign.  Each pivot row is a
    nonzero multiple of the row plain elimination would give; entries below
    a pivot are left unspecified, because neither the determinant nor the
    back-substitution reads them.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareError("matrix is not square")
    work = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []
    swaps = 0
    qr, qi = 1, 0
    for col in range(n):
        top = len(pivots)
        found = next((r for r in range(top, n) if any(work[r][col])), None)
        if found is None:
            continue
        if found != top:
            work[top], work[found] = work[found], work[top]
            swaps ^= 1
        pivot_row = work[top]
        pr, pi = pivot_row[col]
        for r in range(top + 1, n):
            row = work[r]
            fr, fi = row[col]
            for c in range(col + 1, n):
                ar, ai = row[c]
                tr, ti = pivot_row[c]
                row[c] = _divexact(
                    pr * ar - pi * ai - fr * tr + fi * ti,
                    pr * ai + pi * ar - fr * ti - fi * tr,
                    qr, qi,
                )
        pivots.append((top, col))
        qr, qi = pr, pi
    return work, pivots, swaps


def exact_det(rows: ScaledMatrix | GRMatrix) -> GaussianRational:
    """Exact determinant: the last Bareiss pivot over Z[i], signed by the row
    swaps and divided by the product of the scales; GR_ZERO (falsy) below
    full rank."""
    m = _scaled(rows)
    work, pivots, swaps = _echelon(m.num)
    n = len(work)
    if len(pivots) < n:
        return GR_ZERO
    re, im = work[n - 1][n - 1] if n else ZI_ONE
    sign = -1 if swaps else 1
    return _gr_over(sign * re, sign * im, math.prod(m.row_den) * math.prod(m.col_den))


def left_kernel(rows: ScaledMatrix | GRMatrix) -> list[GaussianRational] | None:
    """A nonzero row vector v with v*M = 0, normalized so its first nonzero
    coordinate is 1; None when M has full rank.  Of the kernel it takes the
    vector whose first free coordinate is set and every other one is 0."""
    m = _scaled(rows)
    # With M = diag(1/r) N diag(1/c), v*M = 0 is N^t w = 0 for w_i = v_i/r_i.
    work, pivots, _ = _echelon(list(zip(*m.num)))
    n = len(work)
    if len(pivots) == n:
        return None
    pivot_cols = {c for _, c in pivots}
    free_col = next(c for c in range(n) if c not in pivot_cols)
    # Back-substitution without division: w is y up to a scalar, and before
    # pivot p's row solves w[pc] = -acc/p, all of y is multiplied by p.
    y = [GaussianInt()] * n
    y[free_col] = ZI_ONE
    for pr, pc in reversed(pivots):
        row = work[pr]
        acc = _dot(row[pc + 1:], y[pc + 1:])
        pivot = GaussianInt(*row[pc])
        y = [x * pivot for x in y]
        y[pc] = -acc
    v = [x * r for x, r in zip(y, m.row_den)]
    lead = next(x for x in v if x)
    # v_k / lead = v_k * conj(lead) / |lead|^2
    conj, norm = GaussianInt(lead.re, -lead.im), lead.re * lead.re + lead.im * lead.im
    return [_gr_over(*(x * conj), norm) for x in v]


def mat_mul_vec_left(v: Sequence[GaussianRational], rows: ScaledMatrix | GRMatrix) -> list[GaussianRational]:
    """The row vector v*M, computed by plain exact multiplication over Z[i]:
    with v_i/r_i = z_i/d for one common d, (v*M)_j = sum_i z_i N_ij / (d c_j)."""
    m = _scaled(rows)
    n = len(m.num)
    if len(v) != n:
        raise LengthMismatchError(f"vector length {len(v)} vs {n} rows")
    z, d = _over_zi([GaussianRational(x.re / r, x.im / r) for x, r in zip(v, m.row_den)])
    return [_gr_over(*_dot(z, col), d * c) for col, c in zip(zip(*m.num), m.col_den)]


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
