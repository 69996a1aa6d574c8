"""Ring, substitution, evaluation, coefficient-extraction, and serialization
checks for the sparse polynomial core."""

import random
from fractions import Fraction

import pytest

from tracedet.exactpoly import BETA, LAMBDA, Polynomial, entry
from tracedet.sl2exact import GR_ONE, GR_ZERO, GaussianRational


def a(i, j):
    return Polynomial.of_var(entry(i, j))


LAM = Polynomial.of_var(LAMBDA)
BET = Polynomial.of_var(BETA)

VAR_POOL = [LAMBDA, BETA] + [entry(i, j) for i in range(3) for j in range(3)]


def random_poly(rng, max_terms=6, max_exp=3):
    p = Polynomial.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Polynomial.of_int(rng.randint(-5, 5))
        for v in rng.sample(VAR_POOL, rng.randint(0, 3)):
            term = term * Polynomial.of_var(v) ** rng.randint(1, max_exp)
        p = p + term
    return p


def test_additive_inverse():
    assert a(1, 2) + (-a(1, 2)) == Polynomial.zero()


def test_additive_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = random_poly(rng)
        assert Polynomial.zero() + p == p


def test_like_term_merge():
    assert 2 * a(1, 1) + 3 * a(1, 1) == 5 * a(1, 1)


def test_difference_of_squares():
    left = (a(1, 0) + a(0, 1)) * (a(1, 0) - a(0, 1))
    assert left == a(1, 0) ** 2 - a(0, 1) ** 2


def test_absorbing_element():
    rng = random.Random(2)
    for _ in range(20):
        p = random_poly(rng)
        assert p * Polynomial.zero() == Polynomial.zero()


def test_exponent_addition():
    assert LAM * (LAM * a(1, 1)) == LAM ** 2 * a(1, 1)


def test_substitute_lambda_to_one():
    p = LAM * a(1, 0) * a(0, 1) - a(1, 1)
    assert p.substitute({LAMBDA: 1}) == a(1, 0) * a(0, 1) - a(1, 1)


def test_substitute_column_constraint():
    assert a(2, 1).substitute({entry(2, 1): BET * a(1, 2)}) == BET * a(1, 2)


def test_substitute_collapse_to_zero():
    p = a(1, 1) - 2 * BET
    assert p.substitute({entry(1, 1): Polynomial.of_int(2), BETA: 1}).is_zero()


def test_coeff_direct_extraction():
    p = LAM ** 2 * a(1, 1) + LAM * a(1, 2) + a(1, 3)
    assert p.coeff_in_var(LAMBDA, 1) == a(1, 2)


def test_coeff_constant_term():
    assert a(1, 1).coeff_in_var(LAMBDA, 0) == a(1, 1)


def test_coeff_absent_power():
    assert (LAM * a(1, 2)).coeff_in_var(LAMBDA, 3).is_zero()


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(30):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def random_mapping(rng):
    return {v: random_poly(rng, max_terms=2, max_exp=2) for v in rng.sample(VAR_POOL, 3)}


def test_substitute_is_homomorphism():
    rng = random.Random(4)
    for _ in range(20):
        p, q = random_poly(rng, max_terms=4), random_poly(rng, max_terms=4)
        mapping = random_mapping(rng)
        assert (p + q).substitute(mapping) == p.substitute(mapping) + q.substitute(mapping)
        assert (p * q).substitute(mapping) == p.substitute(mapping) * q.substitute(mapping)


def _int_point(rng):
    return {v: rng.randint(-4, 4) for v in VAR_POOL}


def _gaussian_point(rng):
    return {
        v: GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                            Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        for v in VAR_POOL
    }


@pytest.mark.parametrize("make_point, one", [(_int_point, 1), (_gaussian_point, GR_ONE)])
def test_evaluate_is_homomorphism(make_point, one):
    rng = random.Random(6)
    for _ in range(20):
        p, q = random_poly(rng, max_terms=4), random_poly(rng, max_terms=4)
        point = make_point(rng)
        assert (p + q).evaluate(point, one) == p.evaluate(point, one) + q.evaluate(point, one)
        assert (p * q).evaluate(point, one) == p.evaluate(point, one) * q.evaluate(point, one)


def test_evaluate_matches_term_sum():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        point = _int_point(rng)
        expected = 0
        for mono, coeff in p.terms():
            for var, exp in mono:
                coeff *= point[var] ** exp
            expected += coeff
        assert p.evaluate(point, 1) == expected


def test_evaluate_constant_and_zero():
    assert Polynomial.of_int(5).evaluate({}, 1) == 5
    assert Polynomial.of_int(-3).evaluate({}, GR_ONE) == GaussianRational(-3)
    assert Polynomial.zero().evaluate({}, 1) == 0
    assert Polynomial.zero().evaluate({}, GR_ONE) == GR_ZERO


def test_evaluate_unmapped_variable_raises():
    with pytest.raises(KeyError):
        (LAM * a(1, 1)).evaluate({LAMBDA: 2}, 1)


def test_coeff_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng)
        for v in p.variables():
            vx = Polynomial.of_var(v)
            total = Polynomial.zero()
            for k in range(p.degree_in_var(v) + 1):
                total = total + p.coeff_in_var(v, k) * vx ** k
            assert total == p


def test_canonical_text_example():
    p = -(LAM * a(0, 1) * a(1, 0)) + 2 * a(1, 1)
    assert p.to_text() == "-1*lambda*a[0,1]*a[1,0] + 2*a[1,1]"


def test_text_round_trip():
    rng = random.Random(6)
    for _ in range(30):
        p = random_poly(rng)
        assert Polynomial.from_text(p.to_text()) == p


def test_text_zero_and_constant():
    assert Polynomial.zero().to_text() == "0"
    assert Polynomial.from_text("0").is_zero()
    assert Polynomial.of_int(-7).to_text() == "-7"
    assert Polynomial.from_text("-7") == Polynomial.of_int(-7)


def test_text_exponents():
    p = LAM ** 3 * a(2, 2) ** 2
    assert p.to_text() == "1*lambda^3*a[2,2]^2"
    assert Polynomial.from_text(p.to_text()) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.from_text("1*bogus")
    with pytest.raises(ValueError):
        Polynomial.from_text("x + y")


def test_entry_rejects_negative_indices():
    with pytest.raises(ValueError):
        entry(-1, 0)


def test_variable_order():
    assert LAMBDA < BETA < entry(0, 0) < entry(0, 1) < entry(1, 0)
