"""Determinant engine cross-checks, signed-permutation expansions, and
Pfaffian/perfect-matching behaviour."""

import gc
import random

import pytest

from tracedet.exactpoly import LAMBDA, Polynomial, entry
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
    matching_sign,
    perfect_matchings,
    pfaffian,
    pfaffian_split,
)


def a(i, j):
    return Polynomial.of_var(entry(i, j))


LAM = Polynomial.of_var(LAMBDA)


def generic_matrix(n, start=1):
    labels = range(start, start + n)
    return PolyMatrix.build(labels, labels, lambda i, j: a(i, j))


def generic_skew(n):
    def rule(i, j):
        if i == j:
            return 0
        return a(i, j) if i < j else -a(j, i)

    labels = range(1, n + 1)
    return PolyMatrix.build(labels, labels, rule)


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


def test_size_bounds_enforced():
    with pytest.raises(SizeExceededError):
        det_dp(generic_matrix(9))
    with pytest.raises(SizeExceededError):
        det_perm_oracle(generic_matrix(8))
    assert det_perm_oracle(generic_matrix(8), size_bound=8) == det_dp(generic_matrix(8))


def test_det_dp_leaves_no_garbage_cycles():
    # The minors must be freed by reference counting when det_dp returns; a
    # memo reachable from a cycle would stay alive until a cyclic collection.
    m = generic_matrix(6)
    gc.collect()
    gc.disable()
    try:
        det_dp(m)
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_signed_perm_expansion_matches_det(n):
    _, b_mat, c_mat = build_thm3(n)
    base = generic_matrix(n - 1, start=2)
    corr = correction_map(n)
    assert det_signed_perm_expansion(base, corr, EVEN_CORRECTED) == det_dp(b_mat)
    assert det_signed_perm_expansion(base, corr, ODD_CORRECTED) == det_dp(c_mat)


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


def test_perfect_matchings_counts():
    assert len(list(perfect_matchings(range(1, 5)))) == 3
    assert len(list(perfect_matchings(range(1, 7)))) == 15
    assert list(perfect_matchings(()))== [()]


def test_matching_sign_reference():
    assert matching_sign(((1, 2), (3, 4))) == 1
    assert matching_sign(((1, 3), (2, 4))) == -1
    assert matching_sign(((1, 4), (2, 3))) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lambda_degree_bound_thm1(n):
    a_mat, b_mat, _ = build_thm1(n)
    for m in (a_mat, b_mat):
        det = det_dp(m)
        assert det.degree_in_var(LAMBDA) <= 1
        for k in range(2, n + 2):
            assert det.coeff_in_var(LAMBDA, k).is_zero()
