"""Reference oracle for the permutation walk in tracedet.symmat.

The package's walk splits the rows in half and sums complementary minors.
This is the walk it replaced: every permutation is walked row by row over
all n rows, and each term of each permutation product is added on its own
to one term dict.  A product past the monomial degree limit raises
MonomialOverflowError at its leaf, before any of its terms is formed; a
permutation through a zero entry is never formed and never raises.  The
property tests compare the two on the same flattened cells."""

from tracedet.exactpoly import _MASK, Polynomial, _check_degree, _degree
from tracedet.symmat import PolyMatrix


def perm_walk(
    grid: list[list[list[tuple[int, int]]]],
    degs: list[list[int]],
    row: int,
    used: int,
    deg: int,
    partial: list[tuple[int, int]],
    out: dict[int, int],
) -> None:
    """Adds to out every term of every permutation product that extends a
    prefix: rows before ``row`` took the columns in the bitmask ``used``,
    ``partial`` lists the signed terms of their product, unmerged, and
    ``deg`` is its degree."""
    last = row == len(grid) - 1
    row_degs = degs[row]
    for col, terms in enumerate(grid[row]):
        bit = 1 << col
        if used & bit or not terms:
            continue
        # Each used column right of col is one more inversion.
        sign = -1 if (used >> col).bit_count() & 1 else 1
        if last:
            _check_degree(deg + row_degs[col])
            get = out.get
            for m1, c1 in partial:
                c1 *= sign
                for m2, c2 in terms:
                    mono = m1 + m2
                    out[mono] = get(mono, 0) + c1 * c2
        else:
            prefix = [(m1 + m2, sign * c1 * c2) for m1, c1 in partial for m2, c2 in terms]
            perm_walk(grid, degs, row + 1, used | bit, deg + row_degs[col], prefix, out)


def perm_sum(grid: list[list[list[tuple[int, int]]]]) -> Polynomial:
    """Signed sum over permutations pi of the products of grid[i][pi(i)],
    each cell a list of (packed monomial, coefficient) pairs, added term by
    term; the empty grid sums to 1."""
    if not grid:
        return Polynomial.of_int(1)
    # Over Z the top-degree parts of the factors multiply to a nonzero part,
    # so the walk's degrees are exact; they only grow, so a prefix that has
    # carried into the next field never reaches a leaf that passes the check.
    degs = [[max((mono & _MASK for mono, _ in terms), default=0) for terms in row] for row in grid]
    out: dict[int, int] = {}
    perm_walk(grid, degs, 0, 0, 0, [(0, 1)], out)
    terms = {mono: coeff for mono, coeff in out.items() if coeff}
    return Polynomial._wrap(terms, _degree(terms))


def cells(m: PolyMatrix) -> list[list[list[tuple[int, int]]]]:
    """m's entries as the walk takes them: rows of lists of terms."""
    return [[list(m.entry(r, c)._terms.items()) for c in m.col_labels] for r in m.row_labels]


def det(m: PolyMatrix) -> Polynomial:
    """det(m) by the full walk, with no size bound."""
    return perm_sum(cells(m))
