"""Labeled matrices over the polynomial ring, with determinants computed by
two deliberately independent engines (subset-DP Laplace expansion and the
raw permutation sum), signed-permutation expansions, and Pfaffians summed
over perfect matchings.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .exactpoly import LAMBDA, Polynomial, PolyVar, _add_product

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
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.of_int(value)
    raise TypeError(f"matrix entries must be Polynomial or int, got {type(value)!r}")


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

    def substitute(self, mapping: Mapping[PolyVar, Polynomial | int]) -> "PolyMatrix":
        return PolyMatrix(
            self.row_labels,
            self.col_labels,
            {rc: p.substitute(mapping) for rc, p in self._entries.items()},
        )

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

    Built bottom-up by row count: layer k maps the column mask of each k x k
    minor on the last k rows to its value and needs only layer k-1, so at
    most two layers are alive at once.  The empty 0x0 matrix has
    determinant 1.
    """
    n = m.size
    if n > DET_DP_SIZE_BOUND:
        raise SizeExceededError(f"size {n} exceeds det_dp bound {DET_DP_SIZE_BOUND}")
    rows = m.row_labels
    cols = m.col_labels
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)
    layer: dict[int, Polynomial] = {0: Polynomial.of_int(1)}
    for k in range(1, n + 1):
        row = [m.entry(rows[n - k], c) for c in cols]
        below = layer
        layer = {}
        for mask in masks_by_size[k]:
            total = Polynomial.zero()
            sign = 1
            for pos in range(n):
                bit = 1 << pos
                if mask & bit:
                    _add_product(total, sign, row[pos], below[mask & ~bit])
                    sign = -sign
            layer[mask] = total
    return layer[(1 << n) - 1]


def det_perm_oracle(m: PolyMatrix, size_bound: int | None = None) -> Polynomial:
    """Determinant as the literal signed sum over all permutations.

    Kept structurally independent of det_dp so each engine can act as the
    other's oracle; factorial cost limits it to small sizes.
    """
    n = m.size
    bound = DET_PERM_SIZE_BOUND if size_bound is None else size_bound
    if n > bound:
        raise SizeExceededError(f"size {n} exceeds det_perm_oracle bound {bound}")
    grid = [[m.entry(r, c) for c in m.col_labels] for r in m.row_labels]
    total = Polynomial.zero()
    for perm in itertools.permutations(range(n)):
        _add_product(total, perm_sign(perm), *(grid[i][perm[i]] for i in range(n)))
    return total


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
    total = Polynomial.zero()
    for image in itertools.permutations(labels):
        sgn = perm_sign([labels.index(x) for x in image])
        correctable = [
            idx for idx, i in enumerate(labels) if (i + image[idx]) % 2 == target
        ]
        for k in range(len(correctable) + 1):
            for flipped in itertools.combinations(correctable, k):
                flipped_set = set(flipped)
                _add_product(total, sgn, *(
                    -(lam * correction[i] * correction[image[idx]])
                    if idx in flipped_set else base.entry(i, image[idx])
                    for idx, i in enumerate(labels)
                ))
    return total


def perfect_matchings(labels: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings as tuples of (i, j) pairs with i < j, pairs
    ordered by their smaller element."""
    items = sorted(labels)

    def rec(remaining: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            partner = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    return rec(items)


def matching_sign(matching: Sequence[tuple[int, int]]) -> int:
    """Sign of the permutation (i1 j1 i2 j2 ...) with pairs sorted by their
    smaller element."""
    pairs = sorted((min(p), max(p)) for p in matching)
    flat = [x for pair in pairs for x in pair]
    order = {label: rank for rank, label in enumerate(sorted(flat))}
    return perm_sign([order[x] for x in flat])


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
    """Pfaffian as the signed sum over perfect matchings of the labels.

    Sign convention: the matching (l1,ln)(l2,ln-1)... of the sorted labels
    contributes +1, as matching_sign gives it (its flattened permutation has
    an even number of inversions); pfaffian(m)**2 equals det(m).
    """
    even_part, odd_part = pfaffian_split(m)
    return even_part + odd_part


def pfaffian_split(m: PolyMatrix) -> tuple[Polynomial, Polynomial]:
    """(Pf_e, Pf_o): the matching sum split by the parity of the partner of
    the smallest label.  Pf_e + Pf_o = pfaffian(m)."""
    n, labels = _check_skew(m)
    if n == 0:
        return Polynomial.of_int(1), Polynomial.zero()
    even_part = Polynomial.zero()
    odd_part = Polynomial.zero()
    for matching in perfect_matchings(labels):
        # perfect_matchings pairs the smallest label first.
        partner = matching[0][1]
        _add_product(
            even_part if partner % 2 == 0 else odd_part,
            matching_sign(matching),
            *(m.entry(i, j) for i, j in matching),
        )
    return even_part, odd_part
