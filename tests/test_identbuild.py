"""Construction checks for the thm1/thm3 matrix families, their
specializations, and golden-file serialization."""

from pathlib import Path

import pytest

from tracedet.exactpoly import BETA, LAMBDA, Polynomial, entry
from tracedet.identbuild import (
    COR5,
    COR6,
    THM7,
    apply_specialization,
    build_inner_minor,
    build_thm1,
    build_thm3,
)
from tracedet.symmat import OddSizeError, PolyMatrix
from tracedet.verify import IDENTITIES, check_size

GOLDEN_DIR = Path(__file__).parent / "golden"


def a(i, j):
    return Polynomial.of_var(entry(i, j))


LAM = Polynomial.of_var(LAMBDA)
BET = Polynomial.of_var(BETA)


def test_thm1_n0_boundary():
    a_mat, b_mat, c_mat = build_thm1(0)
    assert a_mat.row_labels == (0,)
    assert a_mat.entry(0, 0) == Polynomial.of_int(2)
    assert b_mat.row_labels == ()
    assert c_mat.row_labels == ()


def test_thm1_n1():
    a_mat, b_mat, c_mat = build_thm1(1)
    assert a_mat.entry(0, 0) == Polynomial.of_int(2)
    assert a_mat.entry(0, 1) == LAM * a(0, 1)
    assert a_mat.entry(1, 0) == a(1, 0)
    assert a_mat.entry(1, 1) == a(1, 1)
    assert b_mat.entry(1, 1) == LAM * a(1, 0) * a(0, 1) - a(1, 1)
    assert c_mat.entry(1, 1) == a(1, 1)


def test_thm1_n4_displayed_matrix():
    a_mat, _, _ = build_thm1(4)
    expected_rows = [
        [Polynomial.of_int(2), LAM * a(0, 1), LAM * a(0, 2), LAM * a(0, 3), LAM * a(0, 4)],
        [a(1, 0), a(1, 1), LAM * a(1, 0) * a(0, 2) - a(1, 2), a(1, 3),
         LAM * a(1, 0) * a(0, 4) - a(1, 4)],
        [a(2, 0), LAM * a(2, 0) * a(0, 1) - a(2, 1), a(2, 2),
         LAM * a(2, 0) * a(0, 3) - a(2, 3), a(2, 4)],
        [a(3, 0), a(3, 1), LAM * a(3, 0) * a(0, 2) - a(3, 2), a(3, 3),
         LAM * a(3, 0) * a(0, 4) - a(3, 4)],
        [a(4, 0), LAM * a(4, 0) * a(0, 1) - a(4, 1), a(4, 2),
         LAM * a(4, 0) * a(0, 3) - a(4, 3), a(4, 4)],
    ]
    expected = PolyMatrix.build(range(5), range(5), lambda i, j: expected_rows[i][j])
    assert a_mat == expected


def test_thm1_variable_universe():
    n = 3
    a_mat, b_mat, c_mat = build_thm1(n)
    seen = a_mat.variables() | b_mat.variables() | c_mat.variables()
    expected = {LAMBDA}
    expected |= {entry(i, 0) for i in range(1, n + 1)}
    expected |= {entry(0, j) for j in range(1, n + 1)}
    expected |= {entry(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    assert seen == expected
    assert entry(0, 0) not in b_mat.variables() | c_mat.variables()


def test_thm3_n1_boundary():
    a_mat, b_mat, c_mat = build_thm3(1)
    assert a_mat.row_labels == (1,)
    assert a_mat.entry(1, 1) == a(1, 1)
    assert b_mat.row_labels == ()
    assert c_mat.row_labels == ()


def test_thm3_n2():
    a_mat, b_mat, c_mat = build_thm3(2)
    assert a_mat.entry(1, 1) == a(1, 1)
    assert a_mat.entry(1, 2) == LAM * a(1, 2)
    assert a_mat.entry(2, 1) == BET * a(1, 2)
    assert a_mat.entry(2, 2) == a(2, 2)
    assert b_mat.entry(2, 2) == a(2, 2) - LAM * a(1, 2) ** 2
    assert c_mat.entry(2, 2) == a(2, 2)


def test_thm3_n5_displayed_matrices():
    a_mat, b_mat, c_mat = build_thm3(5)
    for j in range(2, 6):
        assert a_mat.entry(1, j) == LAM * a(1, j)
        assert a_mat.entry(j, 1) == BET * a(1, j)
    assert a_mat.entry(1, 1) == a(1, 1)
    for i in range(2, 6):
        for j in range(2, 6):
            assert a_mat.entry(i, j) == a(i, j)

    expected_b = {
        (2, 2): a(2, 2) - LAM * a(1, 2) ** 2,
        (2, 3): a(2, 3),
        (2, 4): a(2, 4) - LAM * a(1, 2) * a(1, 4),
        (2, 5): a(2, 5),
        (3, 2): a(3, 2),
        (3, 3): a(3, 3) - LAM * a(1, 3) ** 2,
        (3, 4): a(3, 4),
        (3, 5): a(3, 5) - LAM * a(1, 3) * a(1, 5),
        (4, 2): a(4, 2) - LAM * a(1, 2) * a(1, 4),
        (4, 3): a(4, 3),
        (4, 4): a(4, 4) - LAM * a(1, 4) ** 2,
        (4, 5): a(4, 5),
        (5, 2): a(5, 2),
        (5, 3): a(5, 3) - LAM * a(1, 3) * a(1, 5),
        (5, 4): a(5, 4),
        (5, 5): a(5, 5) - LAM * a(1, 5) ** 2,
    }
    expected_c = {
        (2, 2): a(2, 2),
        (2, 3): a(2, 3) - LAM * a(1, 2) * a(1, 3),
        (2, 4): a(2, 4),
        (2, 5): a(2, 5) - LAM * a(1, 2) * a(1, 5),
        (3, 2): a(3, 2) - LAM * a(1, 2) * a(1, 3),
        (3, 3): a(3, 3),
        (3, 4): a(3, 4) - LAM * a(1, 3) * a(1, 4),
        (3, 5): a(3, 5),
        (4, 2): a(4, 2),
        (4, 3): a(4, 3) - LAM * a(1, 3) * a(1, 4),
        (4, 4): a(4, 4),
        (4, 5): a(4, 5) - LAM * a(1, 4) * a(1, 5),
        (5, 2): a(5, 2) - LAM * a(1, 2) * a(1, 5),
        (5, 3): a(5, 3),
        (5, 4): a(5, 4) - LAM * a(1, 4) * a(1, 5),
        (5, 5): a(5, 5),
    }
    assert b_mat == PolyMatrix(range(2, 6), range(2, 6), expected_b)
    assert c_mat == PolyMatrix(range(2, 6), range(2, 6), expected_c)


def test_thm3_no_first_column_variables():
    for n in (2, 3, 4, 5):
        a_mat, b_mat, c_mat = build_thm3(n)
        seen = a_mat.variables() | b_mat.variables() | c_mat.variables()
        for i in range(2, n + 1):
            assert entry(i, 1) not in seen


def test_cor5_n2():
    spec_a, spec_b, spec_c = apply_specialization(2, COR5)
    assert spec_a.entry(1, 1) == Polynomial.of_int(2)
    assert spec_a.entry(1, 2) == LAM * a(1, 2)
    assert spec_a.entry(2, 1) == a(1, 2)
    assert spec_a.entry(2, 2) == Polynomial.of_int(2)
    assert spec_b.entry(2, 2) == 2 - LAM * a(1, 2) ** 2
    assert spec_c.entry(2, 2) == Polynomial.of_int(2)


def test_cor6_n2():
    spec_a, spec_b, spec_c = apply_specialization(2, COR6)
    assert spec_a.entry(1, 1).is_zero()
    assert spec_a.entry(1, 2) == LAM * a(1, 2)
    assert spec_a.entry(2, 1) == -a(1, 2)
    assert spec_a.entry(2, 2).is_zero()
    assert spec_b.entry(2, 2) == -(LAM * a(1, 2) ** 2)
    assert spec_c.entry(2, 2).is_zero()


def test_cor6_inner_block_is_skew():
    for n in (3, 4, 5):
        spec_a, _, spec_c = apply_specialization(n, COR6)
        inner = range(2, n + 1)
        for i in inner:
            assert spec_a.entry(i, i).is_zero()
            for j in inner:
                assert spec_a.entry(i, j) == -spec_a.entry(j, i)
        # C keeps the parity case split over the skew entries.
        for i in spec_c.row_labels:
            for j in spec_c.col_labels:
                if i == j:
                    base = Polynomial.zero()
                elif i < j:
                    base = a(i, j)
                else:
                    base = -a(j, i)
                if (i + j) % 2 == 0:
                    assert spec_c.entry(i, j) == base
                else:
                    assert spec_c.entry(i, j) == base - LAM * a(1, i) * a(1, j)


def _substituted(m: PolyMatrix, mapping) -> PolyMatrix:
    return PolyMatrix.build(m.row_labels, m.col_labels, lambda r, c: m.entry(r, c).substitute(mapping))


@pytest.mark.parametrize("kind", [COR5, COR6, THM7])
@pytest.mark.parametrize("n", range(1, 9))
def test_specialization_matches_substituted_thm3(n, kind):
    # The specializations as substitutions into build_thm3, stated apart from
    # the rules: cor5 sends beta -> 1, a[i,i] -> 2 and a[i,j] -> a[j,i] for
    # i > j; cor6 sends beta -> -1, a[i,i] -> 0 and a[i,j] -> -a[j,i]; thm7 is
    # cor6 with lambda -> 1 as well.
    beta, diagonal, sign = (1, 2, 1) if kind == COR5 else (-1, 0, -1)
    mapping = {BETA: beta}
    for i in range(1, n + 1):
        mapping[entry(i, i)] = diagonal
        for j in range(1, i):
            mapping[entry(i, j)] = sign * a(j, i)
    if kind == THM7:
        mapping[LAMBDA] = 1
    expected = tuple(_substituted(m, mapping) for m in build_thm3(n))
    assert apply_specialization(n, kind) == expected


def test_inner_minor():
    m = build_inner_minor(4)
    assert m.row_labels == (2, 3, 4)
    assert m.entry(3, 4) == a(3, 4)
    assert build_inner_minor(1).row_labels == ()


def test_identity_family_validation():
    check_size("thm1", 0)
    check_size("cor6", 4)
    with pytest.raises(KeyError):
        check_size("nope", 3)
    with pytest.raises(ValueError):
        check_size("thm1", -1)
    with pytest.raises(ValueError):
        check_size("thm3", 0)
    with pytest.raises(OddSizeError):
        check_size("cor6", 3)
    with pytest.raises(OddSizeError):
        check_size("thm7", 5)
    with pytest.raises(ValueError, match="even n >= 2"):
        check_size("thm7", 0)
    # Every swept size is valid and within the command-line bound.
    for identity, sizes in IDENTITIES.items():
        for n in sizes.sweep:
            check_size(identity, n)
        assert max(sizes.sweep, default=0) <= sizes.high


def test_golden_thm1_n4():
    a_mat, b_mat, c_mat = build_thm1(4)
    rendered = "\n".join(
        ["A", a_mat.to_text(), "B", b_mat.to_text(), "C", c_mat.to_text()]
    )
    assert rendered == (GOLDEN_DIR / "thm1_n4.txt").read_text().rstrip("\n")


def test_golden_thm3_n5():
    a_mat, b_mat, c_mat = build_thm3(5)
    rendered = "\n".join(
        ["A", a_mat.to_text(), "B", b_mat.to_text(), "C", c_mat.to_text()]
    )
    assert rendered == (GOLDEN_DIR / "thm3_n5.txt").read_text().rstrip("\n")


@pytest.mark.parametrize("make", [
    lambda: build_thm1(-1),
    lambda: build_thm3(0),
    lambda: apply_specialization(2, "cor7"),
    lambda: apply_specialization(0, COR5),
], ids=["thm1_negative_n", "thm3_n0", "unknown_specialization", "specialization_n0"])
def test_input_checks(make):
    with pytest.raises(ValueError):
        make()
