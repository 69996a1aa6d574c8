"""Labeled matrices over the polynomial ring, with determinants computed by
two deliberately independent engines, signed-permutation expansions, and
Pfaffians expanded along their smallest label.

The engines share no arithmetic kernel, so a fault in one shows up as a
disagreement with the other:

- det_dp is a subset-DP Laplace expansion that takes the rows with the
  fewest terms first and accumulates with exactpoly's in-place product
  step (acc += sign*e*f);
- det_perm_oracle is the permutation sum, split in half by Laplace's
  expansion by complementary minors.  It flattens each entry to (packed
  monomial, coefficient) pairs once, walks the top n // 2 rows and the
  other rows each once into one term dict per set of columns taken, and
  multiplies each complementary pair of dicts term by term, signed
  (-1)^(sum of the top's columns - k(k-1)/2) for k top rows and columns
  counted from 0.  Its products and sums are its own loops over term
  dicts, with no Polynomial arithmetic and no call to exactpoly's step.

det_signed_perm_expansion runs on the same split sum, each cell listing the
base entry's terms and, where the parity rule allows, the correction's.
The Pfaffians, like det_dp, accumulate with exactpoly's step.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .exactpoly import _MASK, LAMBDA, Polynomial, PolyVar, _add_product, _check_degree, _coerce, _degree

DET_DP_SIZE_BOUND = 8
DET_PERM_SIZE_BOUND = 7
SIGNED_PERM_SIZE_BOUND = 6
PFAFFIAN_SIZE_BOUND = 10

EVEN_CORRECTED = "even_corrected"
ODD_CORRECTED = "odd_corrected"


class NonSquareError(ValueError):
    pass


class SizeExceededError(ValueError):
    pass


class NotSkewError(ValueError):
    pass


class OddSizeError(ValueError):
    pass


class UnknownLabelError(KeyError):
    pass


def _coerce_poly(value) -> Polynomial:
    poly = _coerce(value)
    if poly is NotImplemented:
        raise TypeError(f"matrix entries must be Polynomial or int, got {type(value)!r}")
    return poly


class PolyMatrix:
    """Rectangular matrix of polynomials with explicit integer row/column
    labels; entry lookup is total on the label sets."""

    __slots__ = ("row_labels", "col_labels", "_entries")

    def __init__(
        self,
        row_labels: Iterable[int],
        col_labels: Iterable[int],
        entries: Mapping[tuple[int, int], Polynomial | int],
    ):
        rows = tuple(row_labels)
        cols = tuple(col_labels)
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("row and column labels must be distinct")
        table: dict[tuple[int, int], Polynomial] = {}
        for r in rows:
            for c in cols:
                if (r, c) not in entries:
                    raise UnknownLabelError(f"missing entry ({r}, {c})")
                table[(r, c)] = _coerce_poly(entries[(r, c)])
        if len(entries) != len(table):
            extra = set(entries) - set(table)
            raise UnknownLabelError(f"entries outside the label grid: {sorted(extra)}")
        self.row_labels = rows
        self.col_labels = cols
        self._entries = table

    @classmethod
    def build(
        cls,
        row_labels: Iterable[int],
        col_labels: Iterable[int],
        fn: Callable[[int, int], Polynomial | int],
    ) -> "PolyMatrix":
        rows = tuple(row_labels)
        cols = tuple(col_labels)
        return cls(rows, cols, {(r, c): fn(r, c) for r in rows for c in cols})

    def entry(self, r: int, c: int) -> Polynomial:
        try:
            return self._entries[(r, c)]
        except KeyError:
            raise UnknownLabelError(f"no entry ({r}, {c})") from None

    @property
    def is_square(self) -> bool:
        return len(self.row_labels) == len(self.col_labels)

    @property
    def size(self) -> int:
        if not self.is_square:
            raise NonSquareError(
                f"{len(self.row_labels)}x{len(self.col_labels)} matrix is not square"
            )
        return len(self.row_labels)

    def evaluate(self, point: Mapping[PolyVar, object], one) -> list[list]:
        """Rows of scalars: Polynomial.evaluate applied to every entry, rows
        and columns in label order."""
        return [
            [self._entries[(r, c)].evaluate(point, one) for c in self.col_labels]
            for r in self.row_labels
        ]

    def with_entry(self, r: int, c: int, value: Polynomial | int) -> "PolyMatrix":
        if (r, c) not in self._entries:
            raise UnknownLabelError(f"no entry ({r}, {c})")
        updated = dict(self._entries)
        updated[(r, c)] = _coerce_poly(value)
        return PolyMatrix(self.row_labels, self.col_labels, updated)

    def variables(self) -> set[PolyVar]:
        seen: set[PolyVar] = set()
        for p in self._entries.values():
            seen |= p.variables()
        return seen

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self._entries == other._entries
        )

    __hash__ = None

    def to_text(self) -> str:
        lines = [f"rows {list(self.row_labels)} cols {list(self.col_labels)}"]
        for r in self.row_labels:
            for c in self.col_labels:
                lines.append(f"[{r},{c}] {self._entries[(r, c)].to_text()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PolyMatrix({len(self.row_labels)}x{len(self.col_labels)})"


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct comparables."""
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_dp(m: PolyMatrix) -> Polynomial:
    """Determinant by Laplace expansion along rows with minors memoized per
    column subset (dynamic programming over bitmasks).

    Built layer by layer: layer k maps the column mask of each k x k minor
    on the first k rows of the expansion order to its value and needs only
    layer k-1, whose minors are freed as they are read for the last time,
    so at most two layers are alive at once.  The order puts the
    rows with the fewest terms in total first, so every memoized minor is
    built from the sparsest rows; rows with equal counts go bottom-up, and a
    matrix whose rows all tie is expanded from its last row to its first.
    Layer 0 holds the sign of that row order, which makes the full minor
    det(m).  The empty 0x0 matrix has determinant 1.
    """
    n = m.size
    if n > DET_DP_SIZE_BOUND:
        raise SizeExceededError(f"size {n} exceeds det_dp bound {DET_DP_SIZE_BOUND}")
    rows = m.row_labels
    cols = m.col_labels
    grid = [[m.entry(r, c) for c in cols] for r in rows]
    # sorted is stable, so rows with equal counts keep the bottom-up order.
    order = sorted(reversed(range(n)), key=lambda i: sum(p.num_terms() for p in grid[i]))
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)
    # The last layer expands rows order[n-1], ..., order[0] from the top.
    full = (1 << n) - 1
    layer: dict[int, Polynomial] = {0: Polynomial.of_int(perm_sign(order[::-1]))}
    for k in range(1, n + 1):
        row = grid[order[k - 1]]
        below = layer
        layer = {}
        for mask in masks_by_size[k]:
            total = Polynomial.zero()
            sign = 1
            for pos in range(n):
                bit = 1 << pos
                if mask & bit:
                    # Masks ascend, so the last to read the minor on
                    # mask & ~bit is the one holding every higher column.
                    minor = below.pop(mask & ~bit) if mask | (bit - 1) == full else below[mask & ~bit]
                    _add_product(total, sign, row[pos], minor)
                    sign = -sign
            layer[mask] = total
    return layer[full]


def _perm_walk(
    rows: list[list[list[tuple[int, int]]]],
    degs: list[list[int]],
    row: int,
    used: int,
    deg: int,
    partial: list[tuple[int, int]],
    out: dict[int, dict[int, int]],
    leaf_degs: dict[int, int],
) -> None:
    """Walks the injective maps of ``rows`` into the columns, extending a
    prefix: rows before ``row`` took the columns in the bitmask ``used``,
    ``partial`` lists the signed terms of their product, unmerged, and
    ``deg`` is its degree.  Each product of one entry per row, signed by
    the inversions of its columns, is merged into out[mask], one term dict
    per mask of the columns taken, and leaf_degs[mask] keeps the largest
    degree of those products.  A product through a zero entry is never formed.  A prefix
    past the monomial degree limit keeps its degree but drops its terms, so
    no packed monomial past the limit is formed; _perm_sum raises if such a
    product has a completion."""
    last = row == len(rows) - 1
    row_degs = degs[row]
    for col, terms in enumerate(rows[row]):
        bit = 1 << col
        if used & bit or not terms:
            continue
        # Each used column right of col is one more inversion.
        sign = -1 if (used >> col).bit_count() & 1 else 1
        cur = deg + row_degs[col]
        if last:
            mask = used | bit
            if cur > leaf_degs.get(mask, -1):
                leaf_degs[mask] = cur
            if cur > _MASK:
                continue
            acc = out.setdefault(mask, {})
            get = acc.get
            for m1, c1 in partial:
                c1 *= sign
                for m2, c2 in terms:
                    mono = m1 + m2
                    acc[mono] = get(mono, 0) + c1 * c2
        else:
            prefix = [] if cur > _MASK else [
                (m1 + m2, sign * c1 * c2) for m1, c1 in partial for m2, c2 in terms
            ]
            _perm_walk(rows, degs, row + 1, used | bit, cur, prefix, out, leaf_degs)


def _half(rows: list[list[list[tuple[int, int]]]]) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """The minors on ``rows``, keyed by the mask of their columns: each
    minor's term dict with zeros dropped, and the largest degree of a
    product walked into it.  No rows have the one minor 1, on no columns."""
    if not rows:
        return {0: {0: 1}}, {0: 0}
    # Over Z the top-degree parts of the factors multiply to a nonzero part,
    # so the walk's degrees are exact.
    degs = [[max((mono & _MASK for mono, _ in terms), default=0) for terms in row] for row in rows]
    out: dict[int, dict[int, int]] = {}
    leaf_degs: dict[int, int] = {}
    _perm_walk(rows, degs, 0, 0, 0, [(0, 1)], out, leaf_degs)
    return {mask: {mono: c for mono, c in terms.items() if c} for mask, terms in out.items()}, leaf_degs


def _perm_sum(grid: list[list[list[tuple[int, int]]]]) -> Polynomial:
    """Signed sum over permutations pi of the products of grid[i][pi(i)],
    each cell a list of (packed monomial, coefficient) pairs; the empty grid
    sums to 1.

    The sum is grouped by the set S of columns that the top k = n // 2 rows
    take, which is Laplace's expansion by complementary minors:
    det = sum over S of (-1)^(sum(S) - k(k-1)/2) * top[S] * bottom[S'],
    with columns counted from 0 and S' the columns not in S.  Each half is
    walked once and its minors merged (_half), and each complementary pair
    is multiplied term by term into one term dict.  Before a pair is formed,
    the largest product degrees of its two minors are added and checked
    against the monomial degree limit.  So MonomialOverflowError is raised
    exactly when some permutation through nonzero entries passes it, even
    one whose half cancels in the merge."""
    n = len(grid)
    k = n // 2
    top, top_degs = _half(grid[:k])
    bottom, bottom_degs = _half(grid[k:])
    full = (1 << n) - 1
    out: dict[int, int] = {}
    get = out.get
    for mask, deg in top_degs.items():
        rest = full ^ mask
        if rest not in bottom_degs:
            continue
        _check_degree(deg + bottom_degs[rest])
        upper, lower = top.get(mask), bottom.get(rest)
        if not upper or not lower:
            continue
        col_sum = sum(col for col in range(n) if mask >> col & 1)
        sign = -1 if (col_sum - k * (k - 1) // 2) & 1 else 1
        for m1, c1 in upper.items():
            c1 *= sign
            for m2, c2 in lower.items():
                mono = m1 + m2
                out[mono] = get(mono, 0) + c1 * c2
    terms = {mono: coeff for mono, coeff in out.items() if coeff}
    return Polynomial._wrap(terms, _degree(terms))


def det_perm_oracle(m: PolyMatrix) -> Polynomial:
    """Determinant as the signed sum over all permutations, grouped by the
    columns its top n // 2 rows take (see _perm_sum).

    Kept structurally independent of det_dp so each engine can act as the
    other's oracle: it does no Polynomial arithmetic, walks each half of
    the rows once into merged term dicts, one per set of columns, and
    multiplies complementary dicts term by term.  Within a half the
    permutations are walked row by row, so a prefix's partial products are
    computed once for every extension.  MonomialOverflowError is raised
    exactly when some permutation product through nonzero entries has a
    degree past the monomial limit; a permutation through a zero entry never
    raises.  Each half still costs a falling factorial, which limits the
    oracle to small sizes.
    """
    n = m.size
    if n > DET_PERM_SIZE_BOUND:
        raise SizeExceededError(f"size {n} exceeds det_perm_oracle bound {DET_PERM_SIZE_BOUND}")
    return _perm_sum(
        [[list(m.entry(r, c)._terms.items()) for c in m.col_labels] for r in m.row_labels]
    )


def det_signed_perm_expansion(
    base: PolyMatrix,
    correction: Mapping[int, Polynomial],
    parity_rule: str,
) -> Polynomial:
    """Signed-permutation expansion of a corrected determinant.

    Sums sgn(pi) * w(pi, eps) over signed permutations (pi, eps) of the base
    labels, where position i contributes base[i, pi(i)] when eps_i = +1 and
    -lambda * correction[i] * correction[pi(i)] when eps_i = -1.  eps_i = -1
    is allowed only where i + pi(i) is even (``even_corrected``) or odd
    (``odd_corrected``); elsewhere eps_i is forced to +1.

    Summed like det_perm_oracle, with cell (i, j) listing base[i, j]'s terms
    and then, where eps_i = -1 is allowed, the correction's: a product that
    takes one term from each cell is one term of one signed permutation,
    and the split sum adds up exactly these products, merging equal
    monomials within each half before the halves are paired.
    """
    if parity_rule not in (EVEN_CORRECTED, ODD_CORRECTED):
        raise ValueError(f"unknown parity rule {parity_rule!r}")
    n = base.size
    if base.row_labels != base.col_labels:
        raise ValueError("signed-permutation expansion needs matching row/col labels")
    if n > SIGNED_PERM_SIZE_BOUND:
        raise SizeExceededError(
            f"size {n} exceeds signed-permutation bound {SIGNED_PERM_SIZE_BOUND}"
        )
    labels = base.row_labels
    missing = [i for i in labels if i not in correction]
    if missing:
        raise UnknownLabelError(f"correction missing labels {missing}")
    target = 0 if parity_rule == EVEN_CORRECTED else 1
    lam = Polynomial.of_var(LAMBDA)

    def cell(i: int, j: int) -> list[tuple[int, int]]:
        terms = list(base.entry(i, j)._terms.items())
        if (i + j) % 2 == target:
            terms += (-(lam * correction[i] * correction[j]))._terms.items()
        return terms

    return _perm_sum([[cell(i, j) for j in labels] for i in labels])


def _check_skew(m: PolyMatrix) -> tuple[int, tuple[int, ...]]:
    n = m.size
    if m.row_labels != m.col_labels:
        raise NotSkewError("Pfaffian needs identical row and column labels")
    if n % 2 != 0:
        raise OddSizeError(f"Pfaffian needs even size, got {n}")
    bound = PFAFFIAN_SIZE_BOUND
    if n > bound:
        raise SizeExceededError(f"size {n} exceeds Pfaffian bound {bound}")
    labels = m.row_labels
    for a in labels:
        if m.entry(a, a):
            raise NotSkewError(f"nonzero diagonal entry at ({a}, {a})")
    for ai in range(n):
        for bi in range(ai + 1, n):
            a, b = labels[ai], labels[bi]
            if m.entry(a, b) != -m.entry(b, a):
                raise NotSkewError(f"entries ({a},{b}) and ({b},{a}) are not opposite")
    return n, labels


def pfaffian(m: PolyMatrix) -> Polynomial:
    """Pfaffian, expanded along the smallest label (see pfaffian_split).

    Sign convention: over the labels l1 < l2 < ... < ln, the term
    m[l1,l2]*m[l3,l4]*...*m[ln-1,ln] has coefficient +1, and the pairing
    of l1 with the k-th other label (k = 0, 1, ...) carries (-1)^k;
    pfaffian(m)**2 equals det(m).
    """
    even_part, odd_part = pfaffian_split(m)
    return even_part + odd_part


def _pfaffian_into(
    m: PolyMatrix, labels: tuple[int, ...], even: Polynomial, odd: Polynomial
) -> None:
    """Adds the Pfaffian of m on the sorted, nonempty ``labels`` into even
    and odd: pairing labels[0] with the k-th other label adds (-1)^k * entry
    * Pf(the rest) into even or odd by the parity of that partner."""
    first, others = labels[0], labels[1:]
    for k, partner in enumerate(others):
        rest = others[:k] + others[k + 1:]
        if rest:
            pf_rest = Polynomial.zero()
            _pfaffian_into(m, rest, pf_rest, pf_rest)
        else:
            pf_rest = Polynomial.of_int(1)
        _add_product(odd if partner % 2 else even, -1 if k % 2 else 1, m.entry(first, partner), pf_rest)


def pfaffian_split(m: PolyMatrix) -> tuple[Polynomial, Polynomial]:
    """(Pf_e, Pf_o): the Pfaffian split by the parity of the label paired
    with the smallest label.  Pf_e + Pf_o = pfaffian(m)."""
    n, labels = _check_skew(m)
    if n == 0:
        return Polynomial.of_int(1), Polynomial.zero()
    even_part = Polynomial.zero()
    odd_part = Polynomial.zero()
    _pfaffian_into(m, tuple(sorted(labels)), even_part, odd_part)
    return even_part, odd_part
