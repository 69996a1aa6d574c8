"""Determinant engine cross-checks, signed-permutation expansions, and
Pfaffian behaviour."""

import gc
import itertools
import random

import pytest

from tracedet import symmat
from tracedet.exactpoly import LAMBDA, MonomialOverflowError, Polynomial, entry
from tracedet.identbuild import build_thm1, build_thm3
from tracedet.symmat import (
    EVEN_CORRECTED,
    ODD_CORRECTED,
    NonSquareError,
    NotSkewError,
    OddSizeError,
    PolyMatrix,
    SizeExceededError,
    UnknownLabelError,
    det_dp,
    det_perm_oracle,
    det_signed_perm_expansion,
    pfaffian,
    perm_sign,
    pfaffian_split,
)

import perm_reference as perm_ref


def a(i, j):
    return Polynomial.of_var(entry(i, j))


LAM = Polynomial.of_var(LAMBDA)


def generic_matrix(n, start=1):
    labels = range(start, start + n)
    return PolyMatrix.build(labels, labels, lambda i, j: a(i, j))


def skew_on(labels):
    """The generic skew matrix on the given labels, in the given order."""
    def rule(i, j):
        if i == j:
            return 0
        return a(i, j) if i < j else -a(j, i)

    return PolyMatrix.build(labels, labels, rule)


def generic_skew(n):
    return skew_on(range(1, n + 1))


def random_single_term_matrix(rng, n):
    def rule(i, j):
        return rng.randint(-3, 3) * a(rng.randint(0, 4), rng.randint(0, 4))

    labels = range(n)
    return PolyMatrix.build(labels, labels, rule)


def test_det_2x2_cofactor():
    m = PolyMatrix(
        (1, 2), (1, 2),
        {(1, 1): a(1, 1), (1, 2): a(1, 2), (2, 1): a(2, 1), (2, 2): a(2, 2)},
    )
    expected = a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1)
    assert det_dp(m) == expected
    assert det_perm_oracle(m) == expected


def test_det_empty_matrix_is_one():
    empty = PolyMatrix((), (), {})
    assert det_dp(empty) == Polynomial.of_int(1)
    assert det_perm_oracle(empty) == Polynomial.of_int(1)


def test_det_thm1_matrix_n1():
    m = PolyMatrix.build(
        range(2), range(2),
        lambda i, j: [[Polynomial.of_int(2), LAM * a(0, 1)], [a(1, 0), a(1, 1)]][i][j],
    )
    assert det_dp(m) == 2 * a(1, 1) - LAM * a(0, 1) * a(1, 0)


def test_perm_oracle_1x1():
    m = PolyMatrix((0,), (0,), {(0, 0): LAM * a(1, 1) - a(2, 2)})
    assert det_perm_oracle(m) == LAM * a(1, 1) - a(2, 2)


def test_perm_oracle_diagonal():
    def rule(i, j):
        return a(i, i) if i == j else 0

    m = PolyMatrix.build(range(1, 5), range(1, 5), rule)
    assert det_perm_oracle(m) == a(1, 1) * a(2, 2) * a(3, 3) * a(4, 4)


def test_engines_agree_on_random_matrices():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_single_term_matrix(rng, n)
        assert det_dp(m) == det_perm_oracle(m)


def test_doubling_a_row_doubles_det():
    rng = random.Random(8)
    for _ in range(5):
        n = rng.randint(2, 4)
        m = random_single_term_matrix(rng, n)
        r = m.row_labels[0]
        doubled = m
        for c in m.col_labels:
            doubled = doubled.with_entry(r, c, 2 * m.entry(r, c))
        assert det_dp(doubled) == 2 * det_dp(m)


def test_equal_columns_give_zero_det():
    rng = random.Random(9)
    for _ in range(5):
        n = rng.randint(2, 5)
        m = random_single_term_matrix(rng, n)
        c0, c1 = m.col_labels[0], m.col_labels[1]
        for r in m.row_labels:
            m = m.with_entry(r, c1, m.entry(r, c0))
        assert det_dp(m).is_zero()


def test_non_square_rejected():
    m = PolyMatrix((1,), (1, 2), {(1, 1): a(1, 1), (1, 2): a(1, 2)})
    with pytest.raises(NonSquareError):
        det_dp(m)
    with pytest.raises(NonSquareError):
        det_perm_oracle(m)


def test_size_bounds_enforced(monkeypatch):
    with pytest.raises(SizeExceededError):
        det_dp(generic_matrix(9))
    with pytest.raises(SizeExceededError):
        det_perm_oracle(generic_matrix(8))
    monkeypatch.setattr(symmat, "DET_PERM_SIZE_BOUND", 8)
    assert det_perm_oracle(generic_matrix(8)) == det_dp(generic_matrix(8))


def test_oracle_overflow_guard_raises_on_a_product_past_255():
    grid = [[LAM ** 200, 0], [0, a(1, 1) ** 56]]
    m = PolyMatrix.build(range(2), range(2), lambda i, j: grid[i][j])
    with pytest.raises(MonomialOverflowError):
        det_perm_oracle(m)


def test_oracle_overflow_guard_checks_each_permutation():
    # The row bound is 200 + 100 = 300, but neither product passes 255.
    grid = [[LAM ** 200, 1], [LAM ** 100, 1]]
    m = PolyMatrix.build(range(2), range(2), lambda i, j: grid[i][j])
    assert det_perm_oracle(m) == LAM ** 200 - LAM ** 100


def test_oracle_overflow_guard_skips_a_prefix_with_only_zero_completions():
    # Rows 0 and 1 reach degree 300 on the diagonal, but the only column
    # left for row 2 holds a zero, so that prefix forms no product.
    grid = [[LAM ** 200, 1, 1], [1, LAM ** 100, 1], [1, 1, 0]]
    m = PolyMatrix.build(range(3), range(3), lambda i, j: grid[i][j])
    assert det_perm_oracle(m) == -LAM ** 200 - LAM ** 100 + 2


# The oracle splits a 4x4 matrix into rows 0-1 and rows 2-3; these cases sit
# at that seam, and the full walk in perm_reference gives today's answer.
def grid_matrix(grid):
    n = len(grid)
    return PolyMatrix.build(range(n), range(n), lambda i, j: grid[i][j])


def test_oracle_overflow_guard_raises_on_a_pair_of_halves_past_255():
    # Each half reaches degree 150 at most, but the diagonal reaches 300.
    grid = [[LAM ** 150, 1, 1, 1], [1, 1, 1, 1], [1, 1, LAM ** 150, 1], [1, 1, 1, 1]]
    with pytest.raises(MonomialOverflowError, match="300"):
        perm_ref.det(grid_matrix(grid))
    with pytest.raises(MonomialOverflowError, match="300"):
        det_perm_oracle(grid_matrix(grid))


def test_oracle_overflow_guard_skips_a_top_half_with_only_zero_completions():
    # Rows 0 and 1 reach degree 300 on columns {0, 1}, but column 2 is zero
    # in both bottom rows, so no bottom minor completes that prefix.
    grid = [[LAM ** 200, 1, 1, 1], [1, LAM ** 100, 1, 1], [a(2, 0), 1, 0, 1], [1, a(3, 1), 0, 1]]
    m = grid_matrix(grid)
    det = det_perm_oracle(m)
    assert det == perm_ref.det(m)
    assert not det.is_zero()
    # The top half keeps that product's degree but forms none of its terms:
    # its minor on columns {0, 1} holds only -1, the product of the two 1s.
    top, leaf_degs = symmat._half(perm_ref.cells(m)[:2])
    assert leaf_degs[0b0011] == 300 and top[0b0011] == {0: -1}


def test_oracle_overflow_guard_raises_on_products_that_cancel_in_a_half():
    # Rows 0 and 1 are equal, so every top minor cancels to zero, yet the
    # diagonal permutation has degree 100 + 100 + 60 + 60 = 320.
    row = [LAM ** 100, LAM ** 100, 1, 1]
    grid = [row, row, [1, 1, LAM ** 60, 1], [1, 1, 1, LAM ** 60]]
    with pytest.raises(MonomialOverflowError, match="320"):
        perm_ref.det(grid_matrix(grid))
    with pytest.raises(MonomialOverflowError, match="320"):
        det_perm_oracle(grid_matrix(grid))


def test_row_order_sign():
    # Rows with 1, 2, 3 and 4 terms, so det_dp's sparsest-first order is not
    # the bottom-up one; every row permutation must scale det by its sign.
    grid = [
        [0, a(0, 1), 0, 0],
        [a(1, 0), 0, 0, a(1, 3)],
        [a(2, 0), a(2, 1), a(2, 2), 0],
        [a(3, 0), a(3, 1), a(3, 2), a(3, 3)],
    ]
    base = det_dp(PolyMatrix.build(range(4), range(4), lambda i, j: grid[i][j]))
    assert not base.is_zero()
    for perm in itertools.permutations(range(4)):
        m = PolyMatrix.build(range(4), range(4), lambda i, j: grid[perm[i]][j])
        det = det_dp(m)
        assert det == perm_sign(perm) * base
        assert det == det_perm_oracle(m)


@pytest.mark.parametrize("engine", [det_dp, det_perm_oracle], ids=lambda f: f.__name__)
def test_det_dp_leaves_no_garbage_cycles(engine):
    # The minors and partial products must be freed by reference counting
    # when the engine returns; anything reachable from a cycle would stay
    # alive until a cyclic collection.
    m = generic_matrix(6)
    gc.collect()
    gc.disable()
    try:
        engine(m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def correction_map(n):
    return {i: a(1, i) for i in range(2, n + 1)}


def test_signed_perm_expansion_n2():
    base = generic_matrix(1, start=2)
    corr = correction_map(2)
    assert det_signed_perm_expansion(base, corr, EVEN_CORRECTED) == a(2, 2) - LAM * a(1, 2) ** 2
    assert det_signed_perm_expansion(base, corr, ODD_CORRECTED) == a(2, 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_signed_perm_expansion_matches_det(n):
    _, b_mat, c_mat = build_thm3(n)
    base = generic_matrix(n - 1, start=2)
    corr = correction_map(n)
    assert det_signed_perm_expansion(base, corr, EVEN_CORRECTED) == det_dp(b_mat)
    assert det_signed_perm_expansion(base, corr, ODD_CORRECTED) == det_dp(c_mat)


def test_signed_perm_expansion_matches_det_on_random_entries():
    # Random single-term bases and corrections, both rules, and first
    # labels 0-3 so that both parities of the first label occur.
    rng = random.Random(14)

    def term():
        return rng.randint(-3, 3) * a(rng.randint(0, 4), rng.randint(0, 4))

    rules = ((EVEN_CORRECTED, 0), (ODD_CORRECTED, 1))
    for (rule, target), start, n, _ in itertools.product(rules, range(4), range(6), range(3)):
        labels = range(start, start + n)
        base = PolyMatrix.build(labels, labels, lambda i, j: term())
        corr = {i: term() for i in labels}

        def corrected(i, j):
            if (i + j) % 2 == target:
                return base.entry(i, j) - LAM * corr[i] * corr[j]
            return base.entry(i, j)

        m = PolyMatrix.build(labels, labels, corrected)
        assert det_signed_perm_expansion(base, corr, rule) == det_dp(m)


def test_signed_perm_expansion_overflow_guard():
    # Two corrections of degree 201 multiply to degree 402 under either rule.
    base = generic_matrix(2, start=2)
    corr = {2: LAM ** 100, 3: LAM ** 100}
    for rule in (EVEN_CORRECTED, ODD_CORRECTED):
        with pytest.raises(MonomialOverflowError, match="402"):
            det_signed_perm_expansion(base, corr, rule)


def test_signed_perm_expansion_size_bound():
    base = generic_matrix(7, start=2)
    with pytest.raises(SizeExceededError):
        det_signed_perm_expansion(base, correction_map(8), EVEN_CORRECTED)


def test_signed_perm_expansion_missing_correction():
    base = generic_matrix(2, start=2)
    with pytest.raises(UnknownLabelError):
        det_signed_perm_expansion(base, {2: a(1, 2)}, EVEN_CORRECTED)


def test_pfaffian_2x2():
    m = PolyMatrix(
        (1, 2), (1, 2),
        {(1, 1): 0, (1, 2): a(1, 2), (2, 1): -a(1, 2), (2, 2): 0},
    )
    assert pfaffian(m) == a(1, 2)


def test_pfaffian_4x4_matching_sum():
    m = generic_skew(4)
    expected = a(1, 2) * a(3, 4) - a(1, 3) * a(2, 4) + a(1, 4) * a(2, 3)
    assert pfaffian(m) == expected


def test_pfaffian_empty():
    assert pfaffian(PolyMatrix((), (), {})) == Polynomial.of_int(1)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_square_is_det(n):
    m = generic_skew(n)
    assert pfaffian(m) ** 2 == det_dp(m)
    # The Pfaffian, ** and det_dp share exactpoly's step; the oracle does not.
    assert pfaffian(m) ** 2 == det_perm_oracle(m)
    # One term per perfect matching of the labels.
    assert pfaffian(m).num_terms() == {2: 1, 4: 3, 6: 15}[n]


def test_pfaffian_rejects_non_skew():
    symmetric = PolyMatrix(
        (1, 2), (1, 2),
        {(1, 1): 0, (1, 2): a(1, 2), (2, 1): a(1, 2), (2, 2): 0},
    )
    with pytest.raises(NotSkewError):
        pfaffian(symmetric)
    nonzero_diag = generic_skew(2).with_entry(1, 1, a(1, 1))
    with pytest.raises(NotSkewError):
        pfaffian(nonzero_diag)


def test_pfaffian_rejects_odd_size():
    with pytest.raises(OddSizeError):
        pfaffian(generic_skew(3))


def test_pfaffian_split_4x4():
    pf_e, pf_o = pfaffian_split(generic_skew(4))
    assert pf_e == a(1, 2) * a(3, 4) + a(1, 4) * a(2, 3)
    assert pf_o == -(a(1, 3) * a(2, 4))


def test_pfaffian_split_2x2():
    pf_e, pf_o = pfaffian_split(generic_skew(2))
    assert pf_e == a(1, 2)
    assert pf_o.is_zero()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_split_partition(n):
    m = generic_skew(n)
    pf_e, pf_o = pfaffian_split(m)
    assert pf_e + pf_o == pfaffian(m)


# Pf_e and Pf_o of skew_on(labels), in canonical text.
PFAFFIAN_SPLITS = {
    tuple(range(0, 6)): (
        "-1*a[0,2]*a[1,3]*a[4,5] + 1*a[0,2]*a[1,4]*a[3,5] + -1*a[0,4]*a[1,2]*a[3,5]"
        " + -1*a[0,2]*a[1,5]*a[3,4] + 1*a[0,4]*a[1,3]*a[2,5] + -1*a[0,4]*a[1,5]*a[2,3]",
        "1*a[0,1]*a[2,3]*a[4,5] + 1*a[0,3]*a[1,2]*a[4,5] + -1*a[0,1]*a[2,4]*a[3,5]"
        " + 1*a[0,1]*a[2,5]*a[3,4] + 1*a[0,5]*a[1,2]*a[3,4] + -1*a[0,3]*a[1,4]*a[2,5]"
        " + 1*a[0,3]*a[1,5]*a[2,4] + -1*a[0,5]*a[1,3]*a[2,4] + 1*a[0,5]*a[1,4]*a[2,3]",
    ),
    tuple(range(2, 8)): (
        "-1*a[2,4]*a[3,5]*a[6,7] + 1*a[2,4]*a[3,6]*a[5,7] + -1*a[2,6]*a[3,4]*a[5,7]"
        " + -1*a[2,4]*a[3,7]*a[5,6] + 1*a[2,6]*a[3,5]*a[4,7] + -1*a[2,6]*a[3,7]*a[4,5]",
        "1*a[2,3]*a[4,5]*a[6,7] + 1*a[2,5]*a[3,4]*a[6,7] + -1*a[2,3]*a[4,6]*a[5,7]"
        " + 1*a[2,3]*a[4,7]*a[5,6] + 1*a[2,7]*a[3,4]*a[5,6] + -1*a[2,5]*a[3,6]*a[4,7]"
        " + 1*a[2,5]*a[3,7]*a[4,6] + -1*a[2,7]*a[3,5]*a[4,6] + 1*a[2,7]*a[3,6]*a[4,5]",
    ),
    (7, 2, 4, 9): ("1*a[2,4]*a[7,9]", "-1*a[2,7]*a[4,9] + 1*a[2,9]*a[4,7]"),
}


@pytest.mark.parametrize("labels", list(PFAFFIAN_SPLITS))
def test_pfaffian_split_follows_partner_label_parity(labels):
    # The labels do not start at 1, so the split goes by the partner's
    # label, not by its position.
    pf_e, pf_o = pfaffian_split(skew_on(labels))
    expected_e, expected_o = PFAFFIAN_SPLITS[labels]
    assert pf_e.to_text() == expected_e
    assert pf_o.to_text() == expected_o


def test_pfaffian_of_unsorted_labels_uses_ascending_order():
    # The sign convention reads the labels in ascending order, whatever
    # order the matrix lists them in.
    pf_e, pf_o = pfaffian_split(skew_on((3, 1, 4, 2)))
    assert pf_e.to_text() == "1*a[1,2]*a[3,4] + 1*a[1,4]*a[2,3]"
    assert pf_o.to_text() == "-1*a[1,3]*a[2,4]"
    assert pfaffian(skew_on((3, 1, 4, 2))) == pfaffian(generic_skew(4))
    pf_e, pf_o = pfaffian_split(skew_on((5, 0, 3, 2, 1, 4)))
    assert (pf_e.to_text(), pf_o.to_text()) == PFAFFIAN_SPLITS[tuple(range(0, 6))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lambda_degree_bound_thm1(n):
    a_mat, b_mat, _ = build_thm1(n)
    for m in (a_mat, b_mat):
        det = det_dp(m)
        assert det.degree_in_var(LAMBDA) <= 1
        for k in range(2, n + 2):
            assert det.coeff_in_var(LAMBDA, k).is_zero()


def _swapped_cols(n):
    """The generic n x n matrix with its column labels in reverse order."""
    return PolyMatrix.build(range(1, n + 1), range(n, 0, -1), lambda i, j: a(i, j))


@pytest.mark.parametrize("make, error", [
    (lambda: PolyMatrix((1, 1), (1,), {(1, 1): 0}), ValueError),
    (lambda: PolyMatrix((1, 2), (1,), {(1, 1): 0}), UnknownLabelError),
    (lambda: PolyMatrix((1,), (1,), {(1, 1): 0, (2, 2): 0}), UnknownLabelError),
    (lambda: PolyMatrix((1,), (1,), {(1, 1): 0.5}), TypeError),
    (lambda: generic_matrix(2).entry(3, 1), UnknownLabelError),
    (lambda: generic_matrix(2).with_entry(3, 1, 0), UnknownLabelError),
    (lambda: det_signed_perm_expansion(generic_matrix(2), {1: a(0, 1), 2: a(0, 2)}, "all"), ValueError),
    (lambda: det_signed_perm_expansion(_swapped_cols(2), {1: a(0, 1), 2: a(0, 2)}, EVEN_CORRECTED),
     ValueError),
    (lambda: pfaffian_split(_swapped_cols(2)), NotSkewError),
    (lambda: pfaffian_split(skew_on(range(1, symmat.PFAFFIAN_SIZE_BOUND + 3))), SizeExceededError),
], ids=[
    "duplicate_labels", "missing_entry", "entry_outside_grid", "float_entry",
    "entry_unknown_label", "with_entry_unknown_label", "unknown_parity_rule",
    "signed_perm_mismatched_labels", "pfaffian_mismatched_labels", "pfaffian_above_bound",
])
def test_input_checks(make, error):
    with pytest.raises(error):
        make()
