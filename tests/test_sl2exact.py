"""Exact Gaussian-rational arithmetic, SL(2) samplers, trace matrices, and
exact linear algebra."""

import itertools
import random
from fractions import Fraction

import pytest

from tracedet.sl2exact import (
    GEN_S,
    GEN_T,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    LengthMismatchError,
    Mat2,
    NonSquareError,
    NotUnimodularError,
    SingularError,
    build_magnus_matrices,
    build_thm2_D,
    exact_det,
    gaussian_to_json,
    left_kernel,
    mat_mul_vec_left,
    mat2_to_json,
    random_sl2_gaussian,
    random_sl2z,
    trace_matrix,
    trace_relation_check,
)

I2 = Mat2.identity()


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_gaussian_rational_field_ops():
    x = gr(1, 2)
    y = gr(3, -1)
    assert x + y == gr(4, 1)
    assert x * y == gr(5, 5)
    assert (x / y) * y == x
    assert x - x == GR_ZERO
    assert GR_ONE / gr(0, 1) == gr(0, -1)


def test_gaussian_rational_division_by_zero():
    with pytest.raises(SingularError):
        GR_ONE / GR_ZERO


def test_mat2_identity_and_product():
    x = Mat2(2, 3, 1, 2)
    assert I2 @ x == x @ I2 == x
    assert GEN_T @ Mat2(1, 0, 1, 1) == Mat2(2, 1, 1, 1)
    assert Mat2(Fraction(1, 2), 0, 0, 2) @ Mat2(2, 0, 0, Fraction(1, 2)) == I2


def test_mat2_det_multiplicative():
    rng = random.Random(10)
    for _ in range(20):
        x = random_sl2z(6, rng)
        y = random_sl2_gaussian(rng)
        assert (x @ y).det() == x.det() * y.det()


def test_mat2_inverse():
    assert GEN_T.inverse() == Mat2(1, -1, 0, 1)
    assert I2.inverse() == I2
    assert GEN_S.inverse() == Mat2(0, 1, -1, 0)
    # det = i*(-i) - (1+i)*0 = 1; the inverse is the adjugate.
    complex_sl2 = Mat2(gr(0, 1), gr(1, 1), 0, gr(0, -1))
    assert complex_sl2.inverse() == Mat2(gr(0, -1), gr(-1, -1), 0, gr(0, 1))
    assert complex_sl2 @ complex_sl2.inverse() == complex_sl2.inverse() @ complex_sl2 == I2


def test_sl2_constructor_rejects_non_unimodular():
    non_unimodular = {
        "det 2": (2, 0, 0, 1),
        "det -2": (0, 1, 2, 0),
        "singular": (1, 1, 1, 1),
        "complex det": (gr(0, 1), 0, 0, 1),
    }
    for what, entries in non_unimodular.items():
        with pytest.raises(NotUnimodularError):
            Mat2(*entries)
            pytest.fail(f"{what} was accepted")
    with pytest.raises(TypeError):
        Mat2(1.0, 0, 0, 1)


def test_trace_relation_examples():
    lhs, rhs = trace_relation_check(GEN_T, Mat2(1, 0, 1, 1))
    assert lhs == rhs == GR_ONE
    lhs, rhs = trace_relation_check(GEN_T, GEN_S)
    assert lhs == rhs == gr(-1)
    m = random_sl2z(8, 11)
    lhs, rhs = trace_relation_check(m, I2)
    assert lhs == rhs == m.trace()


def test_trace_relation_rejects_non_unimodular():
    with pytest.raises(NotUnimodularError):
        trace_relation_check(Mat2(2, 0, 0, 1), I2)


def test_trace_relation_random_pairs():
    rng = random.Random(12)
    for _ in range(100):
        m = random_sl2z(10, rng)
        big = random_sl2_gaussian(rng)
        lhs, rhs = trace_relation_check(m, big)
        assert lhs == rhs


def test_random_sl2z_basics():
    assert random_sl2z(0, 5) == I2
    for seed in range(10):
        m = random_sl2z(12, seed)
        assert m.det() == GR_ONE
        assert m @ m.inverse() == I2
        for e in (m.e11, m.e12, m.e21, m.e22):
            assert e.im == 0 and e.re.denominator == 1
    assert random_sl2z(12, 99) == random_sl2z(12, 99)


def test_random_sl2z_matches_mat2_word_product():
    # The int sampler draws the same letters in the same order as the Mat2
    # product over (S, S^-1, T, T^-1), so every seeded sample is unchanged.
    alphabet = (GEN_S, GEN_S.inverse(), GEN_T, GEN_T.inverse())
    for seed in range(20):
        for word_len in range(21):
            gen = random.Random(seed)
            expected = I2
            for _ in range(word_len):
                expected = expected @ gen.choice(alphabet)
            assert random_sl2z(word_len, seed) == expected


def test_random_sl2_gaussian_basics():
    for seed in range(10):
        m = random_sl2_gaussian(seed)
        assert m.det() == GR_ONE
        assert m @ m.inverse() == I2
    assert random_sl2_gaussian(7) == random_sl2_gaussian(7)


def test_magnus_matrices_identity_case():
    a_mat, b_mat, c_mat = build_magnus_matrices([I2], [I2])
    assert a_mat == [[gr(2), gr(2)], [gr(2), gr(2)]]
    assert b_mat == [[gr(-2)]]
    assert c_mat == [[gr(2)]]
    assert exact_det(a_mat) == GR_ZERO
    assert exact_det(b_mat) + exact_det(c_mat) == GR_ZERO


def test_magnus_corner_always_two():
    rng = random.Random(13)
    for _ in range(5):
        ms = [random_sl2z(12, rng) for _ in range(3)]
        big = [random_sl2z(12, rng) for _ in range(3)]
        a_mat, _, _ = build_magnus_matrices(ms, big)
        assert a_mat[0][0] == gr(2)


def test_magnus_n1_regression_T_S():
    # Pinned by an independent integer brute-force run: with m1 = T, M1 = S
    # the matrices are A = [[2, 0], [2, -1]], B = [-1], C = [-1], and the
    # identity reads det A = det B + det C (= -2).
    a_mat, b_mat, c_mat = build_magnus_matrices([GEN_T], [GEN_S])
    assert a_mat == [[gr(2), gr(0)], [gr(2), gr(-1)]]
    assert b_mat == [[gr(-1)]]
    assert c_mat == [[gr(-1)]]
    det_a, det_b, det_c = exact_det(a_mat), exact_det(b_mat), exact_det(c_mat)
    assert det_a == gr(-2)
    assert det_a == det_b + det_c


def test_magnus_matrices_errors():
    with pytest.raises(LengthMismatchError):
        build_magnus_matrices([I2], [I2, I2])
    with pytest.raises(NotUnimodularError):
        build_magnus_matrices([Mat2(2, 0, 0, 1)], [I2])


def _tr(x, y):
    return (x @ y).trace()


def reference_magnus_matrices(ms, big_ms):
    """Direct construction with m_0 = M_0 = I: A[i][j] = tr(m_i M_j^-1) for
    even i+j and tr(m_i M_j) for odd, B = -tr(m_i M_j), C = tr(m_i M_j^-1)."""
    m_full = [I2, *ms]
    big_full = [I2, *big_ms]
    big_inv = [x.inverse() for x in big_full]
    n = len(ms)
    a_mat = [
        [_tr(m_full[i], big_inv[j] if (i + j) % 2 == 0 else big_full[j]) for j in range(n + 1)]
        for i in range(n + 1)
    ]
    b_mat = [[-_tr(m_full[i], big_full[j]) for j in range(1, n + 1)] for i in range(1, n + 1)]
    c_mat = [[_tr(m_full[i], big_inv[j]) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return a_mat, b_mat, c_mat


def reference_thm2_D(ms, big_ms, eps):
    """Direct construction of D[i][j] = tr(m_i M_j^{eps_i})."""
    return [
        [_tr(m, big if e == 1 else big.inverse()) for big in big_ms]
        for m, e in zip(ms, eps)
    ]


@pytest.mark.parametrize("sampler", ["sl2z", "gaussian"])
def test_builders_match_direct_construction(sampler):
    # The builders evaluate thm1 at the trace point; the direct trace
    # construction must give the same matrices exactly.
    def draw(rng):
        if sampler == "sl2z":
            return random_sl2z(12, rng)
        return random_sl2_gaussian(rng)

    for seed in range(3):
        rng = random.Random(100 + seed)
        for n in range(1, 6):
            ms = [draw(rng) for _ in range(n)]
            big = [draw(rng) for _ in range(n)]
            assert build_magnus_matrices(ms, big) == reference_magnus_matrices(ms, big)
            for _ in range(3):
                eps = [rng.choice((1, -1)) for _ in range(n)]
                assert build_thm2_D(ms, big, eps) == reference_thm2_D(ms, big, eps)


def test_thm2_D_identity_case():
    d = build_thm2_D([I2] * 3, [I2] * 3, [1, -1, 1])
    assert d == [[gr(2)] * 3] * 3
    assert exact_det(d) == GR_ZERO
    single = build_thm2_D([GEN_T], [GEN_S], [1])
    assert single == [[(GEN_T @ GEN_S).trace()]]


def test_thm2_D_errors():
    with pytest.raises(LengthMismatchError):
        build_thm2_D([I2], [I2, I2], [1, 1])
    with pytest.raises(ValueError):
        build_thm2_D([I2], [I2], [2])
    with pytest.raises(NotUnimodularError):
        build_thm2_D([Mat2(2, 0, 0, 1)], [I2], [1])


def test_exact_det_identity_and_kernel():
    ident = [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]]
    assert exact_det(ident) == GR_ONE
    assert left_kernel(ident) is None


def test_exact_det_non_square():
    from tracedet import symmat

    assert NonSquareError is symmat.NonSquareError
    with pytest.raises(NonSquareError):
        exact_det([[GR_ONE, GR_ZERO]])


def leibniz_det(rows):
    """Reference determinant: the signed permutation sum, for n <= 4."""
    n = len(rows)
    assert n <= 4
    total = GR_ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = GR_ONE if inversions % 2 == 0 else -GR_ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def _random_gr(rng):
    return gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _matmul(x, y):
    return [[sum((a * b for a, b in zip(row, col)), GR_ZERO) for col in zip(*y)] for row in x]


def _assert_kernel(rows):
    v = left_kernel(rows)
    assert v is not None
    assert next(x for x in v if x) == GR_ONE
    assert not any(mat_mul_vec_left(v, rows))


def test_exact_det_matches_leibniz_on_random_matrices():
    rng = random.Random(16)
    for n in range(5):
        for _ in range(10):
            rows = [[_random_gr(rng) for _ in range(n)] for _ in range(n)]
            assert exact_det(rows) == leibniz_det(rows)


def test_rank_deficient_products_det_and_kernel():
    # (n x r)(r x n) with r < n has rank at most r, so det is 0 and a left
    # kernel vector exists.
    rng = random.Random(17)
    for n in range(1, 5):
        for r in range(n):
            for _ in range(5):
                left = [[_random_gr(rng) for _ in range(r)] for _ in range(n)]
                right = [[_random_gr(rng) for _ in range(n)] for _ in range(r)]
                rows = _matmul(left, right) if r else [[GR_ZERO] * n for _ in range(n)]
                assert exact_det(rows) == leibniz_det(rows) == GR_ZERO
                _assert_kernel(rows)


def test_zero_middle_column_is_skipped():
    rng = random.Random(18)
    for n in (3, 4):
        for _ in range(5):
            rows = [[_random_gr(rng) for _ in range(n)] for _ in range(n)]
            for row in rows:
                row[1] = GR_ZERO
            assert exact_det(rows) == leibniz_det(rows) == GR_ZERO
            _assert_kernel(rows)
            # left_kernel eliminates the transpose, so this takes the skip.
            _assert_kernel([list(col) for col in zip(*rows)])


def test_zero_first_row_kernel_is_first_unit_vector():
    rng = random.Random(19)
    rows = [[GR_ZERO] * 3] + [[_random_gr(rng) for _ in range(3)] for _ in range(2)]
    assert exact_det(rows) == GR_ZERO
    assert left_kernel(rows) == [GR_ONE, GR_ZERO, GR_ZERO]


def test_left_kernel_non_square():
    with pytest.raises(NonSquareError):
        left_kernel([[GR_ONE, GR_ZERO]])
    with pytest.raises(NonSquareError):
        left_kernel([[GR_ONE], [GR_ZERO]])


def test_rank_one_matrix_kernel():
    all_two = [[gr(2)] * 3 for _ in range(3)]
    assert exact_det(all_two) == GR_ZERO
    v = left_kernel(all_two)
    assert v == [gr(1), gr(-1), gr(0)]
    assert all(not x for x in mat_mul_vec_left(v, all_two))


def test_thm2_det_zero_with_kernel_n5():
    rng = random.Random(14)
    ms = [random_sl2z(12, rng) for _ in range(5)]
    big = [random_sl2z(12, rng) for _ in range(5)]
    eps = [1, -1, 1, 1, -1]
    d = build_thm2_D(ms, big, eps)
    assert exact_det(d) == GR_ZERO
    v = left_kernel(d)
    assert v is not None and any(v)
    assert all(not x for x in mat_mul_vec_left(v, d))
    lead = next(x for x in v if x)
    assert lead == GR_ONE


def test_trace_matrix_shapes():
    ms = [GEN_T, GEN_S]
    t = trace_matrix(ms, ms)
    assert t[0][0] == (GEN_T @ GEN_T).trace()
    assert t[1][0] == (GEN_S @ GEN_T).trace()
    t_inv = trace_matrix(ms, ms, invert_right=True)
    assert t_inv[0][1] == (GEN_T @ GEN_S.inverse()).trace()


def test_exact_det_matches_polynomial_engines_on_integers():
    # The same integer matrix embedded as Gaussian rationals and as constant
    # polynomials must get the same determinant from every engine.
    from tracedet.exactpoly import Polynomial
    from tracedet.symmat import PolyMatrix, det_dp, det_perm_oracle

    rng = random.Random(15)
    for _ in range(10):
        n = rng.randint(1, 5)
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        gr_det = exact_det([[gr(x) for x in row] for row in ints])
        poly = PolyMatrix.build(range(n), range(n), lambda i, j: ints[i][j])
        assert gr_det.im == 0 and gr_det.re.denominator == 1
        assert det_dp(poly) == Polynomial.of_int(int(gr_det.re))
        assert det_perm_oracle(poly) == Polynomial.of_int(int(gr_det.re))


def test_json_serialization():
    x = GaussianRational(Fraction(-3, 4), Fraction(5, 7))
    assert gaussian_to_json(x) == {
        "re_num": "-3", "re_den": "4", "im_num": "5", "im_den": "7",
    }
    blob = mat2_to_json(GEN_S)
    assert blob[0][1]["re_num"] == "-1"
    assert blob[1][0]["re_num"] == "1"
