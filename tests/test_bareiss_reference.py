"""The fraction-free elimination over Z[i] against the Fraction elimination
it replaced (tests/elimination_reference.py), on the package's own matrices
and on sizes past the Leibniz reference's n <= 4."""

import random
from fractions import Fraction

import pytest

import elimination_reference as ref
from tracedet.sl2exact import (
    GR_ZERO,
    GaussianRational,
    build_magnus_matrices,
    build_thm2_D,
    exact_det,
    left_kernel,
    mat_mul_vec_left,
)
from tracedet.verify import GAUSSIAN, SL2Z, _trials


def _ref_product(v, rows):
    return [sum((x * row[j] for x, row in zip(v, rows)), GR_ZERO) for j in range(len(rows[0]))]


def _assert_agrees(mat):
    """exact_det, left_kernel and v*M on the scaled matrix against the
    reference on its Gaussian-rational entries; returns the determinant."""
    rows = mat.to_rows()
    det = exact_det(mat)
    assert det == ref.exact_det(rows)
    assert exact_det(rows) == det
    kernel = left_kernel(mat)
    assert kernel == ref.left_kernel(rows)
    probe = [GaussianRational(Fraction(k + 1, 3), -k) for k in range(len(rows))]
    assert mat_mul_vec_left(probe, mat) == _ref_product(probe, rows)
    if kernel is not None:
        assert mat_mul_vec_left(kernel, mat) == _ref_product(kernel, rows) == [GR_ZERO] * len(rows)
    return det


@pytest.mark.parametrize("generator", [SL2Z, GAUSSIAN])
def test_magnus_matrices_agree_up_to_n7(generator):
    for n in range(1, 8):
        for _, ms, big in _trials("magnus", generator, 42, n, 2):
            det_a, det_b, det_c = (_assert_agrees(m) for m in build_magnus_matrices(ms, big))
            assert det_a == det_b + det_c
            assert (n < 4 or not det_a) and (n < 5 or not (det_b or det_c))


@pytest.mark.parametrize("n", [5, 6])
def test_thm2_D_agrees_under_several_signs(n):
    rng = random.Random(n)
    for _, ms, big in _trials("thm2", SL2Z, 7, n, 2):
        signs = [(1,) * n, (-1,) * n] + [tuple(rng.choice((1, -1)) for _ in range(n)) for _ in range(4)]
        for eps in signs:
            assert not _assert_agrees(build_thm2_D(ms, big, eps))


def _random_gr(rng):
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def test_rank_deficient_products_agree():
    # (n x r)(r x n) with r < n has rank at most r.
    rng = random.Random(23)
    for n in range(5, 8):
        for r in range(1, n):
            left = [[_random_gr(rng) for _ in range(r)] for _ in range(n)]
            right = [[_random_gr(rng) for _ in range(n)] for _ in range(r)]
            rows = [[sum((a * b for a, b in zip(row, col)), GR_ZERO) for col in zip(*right)] for row in left]
            assert exact_det(rows) == ref.exact_det(rows) == GR_ZERO
            v = left_kernel(rows)
            assert v == ref.left_kernel(rows)
            assert mat_mul_vec_left(v, rows) == [GR_ZERO] * n


def test_full_rank_and_skipped_columns_agree():
    rng = random.Random(24)
    for n in range(5, 8):
        for _ in range(3):
            rows = [[_random_gr(rng) for _ in range(n)] for _ in range(n)]
            assert exact_det(rows) == ref.exact_det(rows)
            assert left_kernel(rows) is ref.left_kernel(rows) is None
            # A zero column and a zero leading entry force a skip and a swap.
            for row in rows:
                row[2] = GR_ZERO
            rows[0][0] = GR_ZERO
            assert exact_det(rows) == ref.exact_det(rows) == GR_ZERO
            assert left_kernel(rows) == ref.left_kernel(rows)
            transposed = [list(col) for col in zip(*rows)]
            assert left_kernel(transposed) == ref.left_kernel(transposed)
