"""Reference oracle for the elimination in tracedet.sl2exact: plain Gaussian
elimination over the Gaussian rationals, one field division per eliminated
entry.  The package eliminates fraction-free over Z[i]; this is the routine
it replaced, kept here so that the tests can compare the two on matrices
of any size (the Leibniz sum in test_sl2exact stops at n = 4)."""

from tracedet.sl2exact import GR_ONE, GR_ZERO, GaussianRational, NonSquareError

GRMatrix = list[list[GaussianRational]]


def echelon(rows: GRMatrix) -> tuple[GRMatrix, list[tuple[int, int]], int]:
    """Row-reduce a copy of the square matrix over the field, pivoting on the
    first nonzero entry of each column and skipping columns with none.
    Returns the reduced rows, the (row, col) pivots and the swap parity."""
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
    work, pivots, swaps = echelon(rows)
    if len(pivots) < len(work):
        return GR_ZERO
    det = -GR_ONE if swaps else GR_ONE
    for r, c in pivots:
        det = det * work[r][c]
    return det


def left_kernel(rows: GRMatrix) -> list[GaussianRational] | None:
    """v with v*M = 0 and first nonzero coordinate 1, from the first free
    column of M^t with every other free coordinate 0; None at full rank."""
    work, pivots, _ = echelon([list(col) for col in zip(*rows)])
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
