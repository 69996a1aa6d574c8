"""Exact Gaussian-rational arithmetic, SL(2) samplers, trace matrices, and
exact linear algebra."""

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import sl2_reference as ref
from tracedet.exactpoly import BETA, LAMBDA, Polynomial, entry
from tracedet.identbuild import COR5, COR6, _specialized, build_thm1, build_thm3, thm1_rules, thm3_rules
from tracedet.symmat import PolyMatrix
from tracedet.sl2exact import (
    DEFAULT_WORD_LEN,
    GEN_S,
    GEN_T,
    GR_ONE,
    GR_ZERO,
    GaussianInt,
    GaussianRational,
    InexactDivisionError,
    LengthMismatchError,
    Mat2,
    NonSquareError,
    NotUnimodularError,
    ScaledMatrix,
    SingularError,
    ZI_ONE,
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
    assert ref.matmul(I2, x) == ref.matmul(x, I2) == x
    assert ref.matmul(GEN_T, Mat2(1, 0, 1, 1)) == Mat2(2, 1, 1, 1)
    assert ref.matmul(Mat2(Fraction(1, 2), 0, 0, 2), Mat2(2, 0, 0, Fraction(1, 2))) == I2


def test_mat2_det_multiplicative():
    rng = random.Random(10)
    for _ in range(20):
        x = random_sl2z(6, rng)
        y = random_sl2_gaussian(rng)
        assert ref.matmul(x, y).det() == x.det() * y.det()


def test_mat2_inverse():
    assert ref.inverse(GEN_T) == Mat2(1, -1, 0, 1)
    assert ref.inverse(I2) == I2
    assert ref.inverse(GEN_S) == Mat2(0, 1, -1, 0)
    # det = i*(-i) - (1+i)*0 = 1; the inverse is the adjugate.
    complex_sl2 = Mat2(gr(0, 1), gr(1, 1), 0, gr(0, -1))
    inv = ref.inverse(complex_sl2)
    assert inv == Mat2(gr(0, -1), gr(-1, -1), 0, gr(0, 1))
    assert ref.matmul(complex_sl2, inv) == ref.matmul(inv, complex_sl2) == I2


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


def test_integral_form_rejects_det_not_d_squared():
    zero = GaussianInt()
    non_unimodular = {
        "det 2": ((GaussianInt(2), zero, zero, ZI_ONE), 1),
        "I/2, det 1/4": ((ZI_ONE, zero, zero, ZI_ONE), 2),
        "complex det": ((GaussianInt(0, 1), zero, zero, ZI_ONE), 1),
        "det -1 after reduction": ((zero, GaussianInt(3), GaussianInt(3), zero), 3),
    }
    for what, (num, den) in non_unimodular.items():
        with pytest.raises(NotUnimodularError):
            Mat2.over(num, den)
            pytest.fail(f"{what} was accepted")
    # det N = d^2 holds for these, but d is not a positive denominator.
    for num, den in (((ZI_ONE, zero, zero, zero), 0), ((-ZI_ONE, zero, zero, -ZI_ONE), -1)):
        with pytest.raises(ValueError, match="not positive"):
            Mat2.over(num, den)


def test_integral_form_is_reduced():
    half = Mat2(Fraction(1, 2), 0, 0, 2)
    assert (half.num, half.den) == ((ZI_ONE, GaussianInt(), GaussianInt(), GaussianInt(4)), 2)
    # N*k/(d*k) is N/d: it stores the same fields, so it compares and hashes
    # equal to the Mat2 built from the rational entries.
    for m in (half, GEN_S, random_sl2z(12, random.Random(4)), random_sl2_gaussian(random.Random(3))):
        for k in (2, 3, 12):
            scaled = Mat2.over([z * k for z in m.num], m.den * k)
            assert (scaled.num, scaled.den) == (m.num, m.den)
            assert scaled == m == Mat2(m.e11, m.e12, m.e21, m.e22)
            assert hash(scaled) == hash(m)


def test_trace_relation_examples():
    lhs, rhs = trace_relation_check(GEN_T, Mat2(1, 0, 1, 1))
    assert lhs == rhs == GR_ONE
    lhs, rhs = trace_relation_check(GEN_T, GEN_S)
    assert lhs == rhs == gr(-1)
    m = random_sl2z(8, random.Random(11))
    lhs, rhs = trace_relation_check(m, I2)
    assert lhs == rhs == m.trace()


def test_trace_relation_rejects_non_unimodular():
    with pytest.raises(NotUnimodularError):
        trace_relation_check(Mat2(2, 0, 0, 1), I2)


def _unchecked(num, den) -> Mat2:
    """N/d built past Mat2's det check."""
    m = object.__new__(Mat2)
    object.__setattr__(m, "num", tuple(GaussianInt(*z) for z in num))
    object.__setattr__(m, "den", den)
    return m


def test_trace_relation_reads_det():
    # M = diag(2, 1) built past the det check: tr(m M^-1) = tr(m adj M)/2 =
    # 3/2, while tr(m) tr(M) - tr(m M) = 3.  A left side taken from the
    # adjugate alone would equal the right side for every pair.
    big = _unchecked(((2, 0), (0, 0), (0, 0), (1, 0)), 1)
    assert trace_relation_check(GEN_T, big) == ref.trace_relation(GEN_T, big) == (gr(Fraction(3, 2)), gr(3))
    singular = _unchecked(((1, 0), (1, 0), (1, 0), (1, 0)), 1)
    for check in (trace_relation_check, ref.trace_relation):
        with pytest.raises(SingularError):
            check(GEN_T, singular)


@pytest.mark.parametrize("sampler", [
    pytest.param(lambda rng: random_sl2z(DEFAULT_WORD_LEN, rng), id="sl2z"),
    pytest.param(random_sl2_gaussian, id="gaussian"),
])
def test_trace_relation_matches_fraction_reference(sampler):
    # Both sides over Z[i] against the Fraction formula, on the sampled pair
    # and on the pair with M's n11 moved by 1 past the det check, so that
    # the left side's division by det M is compared too.
    for seed in range(1000):
        rng = random.Random(seed)
        m, big = sampler(rng), sampler(rng)
        (y11, y12, y21, y22), den = big.num, big.den
        moved = _unchecked((y11 + ZI_ONE, y12, y21, y22), den)
        for y in (big, moved):
            if y.det():
                assert trace_relation_check(m, y) == ref.trace_relation(m, y), seed


def test_trace_relation_random_pairs():
    rng = random.Random(12)
    for _ in range(100):
        m = random_sl2z(10, rng)
        big = random_sl2_gaussian(rng)
        lhs, rhs = trace_relation_check(m, big)
        assert lhs == rhs


def test_random_sl2z_basics():
    assert random_sl2z(0, random.Random(5)) == I2
    for seed in range(10):
        m = random_sl2z(12, random.Random(seed))
        assert m.det() == GR_ONE
        assert ref.matmul(m, ref.inverse(m)) == I2
        assert m.den == 1
        for e in (m.e11, m.e12, m.e21, m.e22):
            assert e.im == 0 and e.re.denominator == 1
    assert random_sl2z(12, random.Random(99)) == random_sl2z(12, random.Random(99))


def test_random_sl2z_matches_mat2_word_product():
    # The int sampler draws the same letters in the same order as the
    # reference product over (S, S^-1, T, T^-1), so every seeded sample is
    # unchanged.
    for seed in range(20):
        for word_len in range(21):
            assert mat2_to_json(random_sl2z(word_len, random.Random(seed))) == ref.to_json(ref.sl2z_word(word_len, seed))


@pytest.mark.parametrize("sampler, reference", [
    pytest.param(lambda rng: random_sl2z(DEFAULT_WORD_LEN, rng),
                 lambda seed: ref.sl2z_word(DEFAULT_WORD_LEN, seed), id="sl2z"),
    pytest.param(random_sl2_gaussian, ref.sl2_gaussian, id="gaussian"),
])
def test_samplers_match_fraction_reference(sampler, reference):
    # The package draws over Z[i]; the Fraction sampler it replaced must give
    # the same matrix, entry by entry as mat2_to_json writes it, on every seed.
    for seed in range(1000):
        assert mat2_to_json(sampler(random.Random(seed))) == ref.to_json(reference(seed)), seed


def test_random_sl2_gaussian_basics():
    for seed in range(10):
        m = random_sl2_gaussian(random.Random(seed))
        assert m.det() == GR_ONE
        assert ref.matmul(m, ref.inverse(m)) == I2
    assert random_sl2_gaussian(random.Random(7)) == random_sl2_gaussian(random.Random(7))


def test_magnus_matrices_identity_case():
    a_mat, b_mat, c_mat = build_magnus_matrices([I2], [I2])
    assert a_mat.to_rows() == [[gr(2), gr(2)], [gr(2), gr(2)]]
    assert b_mat.to_rows() == [[gr(-2)]]
    assert c_mat.to_rows() == [[gr(2)]]
    assert exact_det(a_mat) == GR_ZERO
    assert exact_det(b_mat) + exact_det(c_mat) == GR_ZERO


def test_magnus_corner_always_two():
    rng = random.Random(13)
    for _ in range(5):
        ms = [random_sl2z(12, rng) for _ in range(3)]
        big = [random_sl2z(12, rng) for _ in range(3)]
        a_mat, _, _ = build_magnus_matrices(ms, big)
        assert a_mat.to_rows()[0][0] == gr(2)


def test_magnus_n1_regression_T_S():
    # Pinned by an independent integer brute-force run: with m1 = T, M1 = S
    # the matrices are A = [[2, 0], [2, -1]], B = [-1], C = [-1], and the
    # identity reads det A = det B + det C (= -2).
    a_mat, b_mat, c_mat = build_magnus_matrices([GEN_T], [GEN_S])
    assert a_mat.to_rows() == [[gr(2), gr(0)], [gr(2), gr(-1)]]
    assert b_mat.to_rows() == [[gr(-1)]]
    assert c_mat.to_rows() == [[gr(-1)]]
    det_a, det_b, det_c = exact_det(a_mat), exact_det(b_mat), exact_det(c_mat)
    assert det_a == gr(-2)
    assert det_a == det_b + det_c


GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_matrices(name: str) -> list[PolyMatrix]:
    """A, B and C read back from a golden file in PolyMatrix.to_text form,
    each entry parsed by Polynomial.from_text: pinned text that does not
    depend on the entry rules as they stand."""
    matrices = []
    for block in re.split(r"^[ABC]$\n", (GOLDEN_DIR / name).read_text(), flags=re.M)[1:]:
        header, *lines = block.strip().split("\n")
        rows, cols = (json.loads(x) for x in re.fullmatch(r"rows (.*) cols (.*)", header).groups())
        entries = {}
        for line in lines:
            r, c, text = re.fullmatch(r"\[(\d+),(\d+)\] (.*)", line).groups()
            entries[(int(r), int(c))] = Polynomial.from_text(text)
        matrices.append(PolyMatrix(rows, cols, entries))
    return matrices


def _assert_rules_give(rules, matrices, point):
    for rule, m in zip(rules, matrices, strict=True):
        rows = [[rule(r, c) for c in m.col_labels] for r in m.row_labels]
        assert rows == m.evaluate(point, ZI_ONE)


@pytest.mark.parametrize("n", range(8))
def test_thm1_rules_over_zi_match_polymatrix_evaluate(n):
    # build_magnus_matrices runs thm1_rules over Z[i]; at a random point with
    # lambda != 1 they must give build_thm1's A, B and C under
    # PolyMatrix.evaluate, and at n = 4 the golden thm1_n4.txt's.
    rng = random.Random(300 + n)

    def zi():
        return GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9))

    point = {entry(i, j): zi() for i in range(n + 1) for j in range(n + 1) if i or j}
    lam = GaussianInt(rng.randint(2, 9), rng.randint(-9, 9))
    point[LAMBDA] = lam
    rules = thm1_rules(lam, lambda i, j: point[entry(i, j)], ZI_ONE)
    _assert_rules_give(rules, build_thm1(n), point)
    if n == 4:
        _assert_rules_give(rules, _golden_matrices("thm1_n4.txt"), point)


@pytest.mark.parametrize("n", range(1, 8))
def test_thm3_rules_over_zi_match_polymatrix_evaluate(n):
    # thm3_rules run over Z[i] at a random point with lambda, beta not in
    # {0, 1}, and at cor5's and cor6's points over it, must give build_thm3's
    # A, B and C under PolyMatrix.evaluate, and at n = 5 the golden
    # thm3_n5.txt's.
    rng = random.Random(400 + n)

    def zi(low=-9):
        return GaussianInt(rng.randint(low, 9), rng.randint(-9, 9))

    values = {(i, j): zi() for i in range(1, n + 1) for j in range(1, n + 1)}
    lam, beta = zi(2), zi(2)
    generic = (beta, lambda i, j: values[(i, j)])
    points = [generic] + [_specialized(kind, generic[1], ZI_ONE) for kind in (COR5, COR6)]
    for beta_at, a_at in points:
        point = {entry(i, j): a_at(i, j) for i, j in values}
        point[LAMBDA], point[BETA] = lam, beta_at * ZI_ONE
        rules = thm3_rules(lam, beta_at, a_at)
        _assert_rules_give(rules, build_thm3(n), point)
        if n == 5:
            _assert_rules_give(rules, _golden_matrices("thm3_n5.txt"), point)


def test_magnus_matrices_errors():
    with pytest.raises(LengthMismatchError):
        build_magnus_matrices([I2], [I2, I2])
    with pytest.raises(NotUnimodularError):
        build_magnus_matrices([Mat2(2, 0, 0, 1)], [I2])


def _tr(x, y):
    return ref.matmul(x, y).trace()


def reference_magnus_matrices(ms, big_ms):
    """Direct construction with m_0 = M_0 = I: A[i][j] = tr(m_i M_j^-1) for
    even i+j and tr(m_i M_j) for odd, B = -tr(m_i M_j), C = tr(m_i M_j^-1)."""
    m_full = [I2, *ms]
    big_full = [I2, *big_ms]
    big_inv = [ref.inverse(x) for x in big_full]
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
        [_tr(m, big if e == 1 else ref.inverse(big)) for big in big_ms]
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
            built = [x.to_rows() for x in build_magnus_matrices(ms, big)]
            assert built == list(reference_magnus_matrices(ms, big))
            for _ in range(3):
                eps = [rng.choice((1, -1)) for _ in range(n)]
                assert build_thm2_D(ms, big, eps).to_rows() == reference_thm2_D(ms, big, eps)


def test_thm2_D_identity_case():
    d = build_thm2_D([I2] * 3, [I2] * 3, [1, -1, 1])
    assert d.to_rows() == [[gr(2)] * 3] * 3
    assert exact_det(d) == GR_ZERO
    single = build_thm2_D([GEN_T], [GEN_S], [1])
    assert single.to_rows() == [[_tr(GEN_T, GEN_S)]]


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
    t = trace_matrix(ms, ms).to_rows()
    assert t[0][0] == _tr(GEN_T, GEN_T)
    assert t[1][0] == _tr(GEN_S, GEN_T)
    t_inv = trace_matrix(ms, ms, invert_right=True).to_rows()
    assert t_inv[0][1] == _tr(GEN_T, ref.inverse(GEN_S))


def test_exact_det_matches_polynomial_engines_on_integers():
    # The same integer matrix embedded as Gaussian rationals and as constant
    # polynomials must get the same determinant from every engine.
    from tracedet.symmat import det_dp, det_perm_oracle

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


GOLDEN_DETS = Path(__file__).parent / "golden" / "dets_seed42.json"


def test_determinants_match_golden():
    # verify_all_n6.json pins verdicts only.  This pins the exact values, as
    # gaussian_to_json writes them (sign and reduced denominators included):
    # exact_det of magnus A, B, C on trial 0 of _trials("magnus", g, 42, n, 1) for
    # n = 1..3 and both generators, and thm2's det_sample for n = 3, 4.
    from tracedet.verify import GAUSSIAN, SL2Z, _trials, verify_thm2

    pinned = {}
    for gen in (SL2Z, GAUSSIAN):
        for n in (1, 2, 3):
            _, ms, big = next(_trials("magnus", gen, 42, n, 1))
            mats = build_magnus_matrices(ms, big)
            pinned[f"magnus_{gen}_n{n}"] = {
                name: gaussian_to_json(exact_det(mat)) for name, mat in zip(("det_A", "det_B", "det_C"), mats)
            }
    for n in (3, 4):
        pinned[f"thm2_n{n}_det_sample"] = verify_thm2(n, 1, 42).params["det_sample"]
    assert json.dumps(pinned, indent=2) + "\n" == GOLDEN_DETS.read_text()


def test_corrupted_pivot_raises(corrupt_pivot_matrix):
    # An honest matrix only ever divides exactly; a pivot that changes
    # between its products and its division must raise, not round.
    honest = ScaledMatrix([[GaussianInt(x) for x in row] for row in ([5, 1, 3], [1, 4, 1], [1, 2, 7])],
                          [1, 1, 1], [1, 1, 1])
    assert exact_det(honest) == gr(118)
    with pytest.raises(InexactDivisionError, match="not a Gaussian integer"):
        exact_det(corrupt_pivot_matrix)
    with pytest.raises(InexactDivisionError):
        left_kernel(corrupt_pivot_matrix)


@pytest.mark.parametrize("make, error", [
    (lambda: Mat2(1.0, 0, 0, 1), TypeError),
    (lambda: build_thm2_D([I2], [I2, I2], [1]), LengthMismatchError),
    (lambda: mat_mul_vec_left([GR_ONE], [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]]), LengthMismatchError),
], ids=["float_entry", "thm2_D_unpaired_samples", "vector_length"])
def test_input_checks(make, error):
    with pytest.raises(error):
        make()
