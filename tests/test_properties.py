"""Property tests (Hypothesis) for the polynomial ring, the two
determinant engines and the Gaussian-rational field.  Examples are
derandomized so every run checks the same cases."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracedet.exactpoly import BETA, LAMBDA, Polynomial, entry
from tracedet.sl2exact import GR_ONE, GR_ZERO, GaussianRational, SingularError
from tracedet.symmat import PolyMatrix, det_dp, det_perm_oracle

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

VAR_POOL = [LAMBDA, BETA] + [entry(i, j) for i in range(3) for j in range(3)]


def polynomials(pool, max_terms=4, max_factors=3, max_exp=3):
    """Sums of c * v1^e1 * ... built through the public arithmetic only."""
    factor = st.tuples(st.sampled_from(pool), st.integers(1, max_exp))
    term = st.tuples(st.integers(-5, 5), st.lists(factor, max_size=max_factors))

    def build(terms):
        p = Polynomial.zero()
        for coeff, factors in terms:
            t = Polynomial.of_int(coeff)
            for v, e in factors:
                t = t * Polynomial.of_var(v) ** e
            p = p + t
        return p

    return st.lists(term, max_size=max_terms).map(build)


polys = polynomials(VAR_POOL)
ZERO = Polynomial.zero()
ONE = Polynomial.of_int(1)


@PROPERTY
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@PROPERTY
@given(polys)
def test_identities(p):
    assert p + ZERO == p
    assert ZERO + p == p
    assert p * ONE == p
    assert ONE * p == p
    assert (p * ZERO).is_zero()
    assert (p - p).is_zero()


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(VAR_POOL), st.integers(1, 3)), max_size=5))
def test_exponents_add(factors):
    p = ONE
    exps = {}
    for v, e in factors:
        p = p * Polynomial.of_var(v) ** e
        exps[v] = exps.get(v, 0) + e
    assert list(p.terms()) == [(tuple(sorted(exps.items())), 1)]


@PROPERTY
@given(polys)
def test_text_round_trip(p):
    text = p.to_text()
    assert Polynomial.from_text(text) == p
    assert Polynomial.from_text(text).to_text() == text


@PROPERTY
@given(polys)
def test_terms_are_canonical(p):
    terms = list(p.terms())
    assert len(terms) == p.num_terms()
    assert all(coeff for _, coeff in terms)
    for mono, _ in terms:
        variables = [v for v, _ in mono]
        assert variables == sorted(set(variables))
        assert all(e >= 1 for _, e in mono)
    assert Polynomial(dict(terms)) == p


@PROPERTY
@given(polys, st.sampled_from(VAR_POOL), st.integers(0, 4))
def test_coeff_and_degree_match_terms(p, v, k):
    terms = list(p.terms())
    assert p.degree_in_var(v) == max((dict(mono).get(v, 0) for mono, _ in terms), default=0)
    expected = Polynomial({
        tuple((w, e) for w, e in mono if w != v): coeff
        for mono, coeff in terms
        if dict(mono).get(v, 0) == k
    })
    assert p.coeff_in_var(v, k) == expected


# Three variables with exponents up to 3, so entries repeat variables within
# a monomial and across entries.
MATRIX_VARS = [LAMBDA, entry(0, 1), entry(1, 0)]
entries = polynomials(MATRIX_VARS, max_terms=2, max_factors=3)


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 5))
    cells = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    return PolyMatrix.build(range(n), range(n), lambda i, j: cells[i * n + j])


def leibniz_det(rows):
    """Integer determinant as the signed permutation sum, sign by inversions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@PROPERTY
@given(matrices(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_engines_agree(m, values):
    det = det_dp(m)
    assert det == det_perm_oracle(m)
    # Evaluation is a ring homomorphism, so it commutes with det; this also
    # catches an error both engines would share through the arithmetic.
    point = dict(zip(MATRIX_VARS, values))
    assert det.evaluate(point, 1) == leibniz_det(m.evaluate(point, 1))


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
gaussians = st.builds(GaussianRational, rationals, rationals)


@PROPERTY
@given(gaussians, gaussians, gaussians)
def test_gaussian_field_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + GR_ZERO == x and x * GR_ONE == x
    assert x + (-x) == GR_ZERO and x - y == x + (-y)
    assert (x * GR_ZERO).is_zero()


@PROPERTY
@given(gaussians, gaussians)
def test_gaussian_division(x, y):
    if y:
        assert (x / y) * y == x
        assert y * (GR_ONE / y) == GR_ONE
    with pytest.raises(SingularError):
        x / GR_ZERO
