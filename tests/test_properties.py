"""Property tests (Hypothesis) for the polynomial ring and its packed
monomials, global and local, the two determinant engines, the split
permutation oracle against the full walk it replaced, the Gaussian-rational
field, the Gaussian integers, thm1's and thm3's entry rules and the
fraction-free elimination.  Examples are derandomized so every run checks
the same cases."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracedet.exactpoly import (
    _MASK,
    BETA,
    LAMBDA,
    MonomialOverflowError,
    Polynomial,
    _add_product,
    _local_packing,
    _var_id,
    entry,
)
from tracedet.identbuild import thm1_rules, thm3_rules
import elimination_reference as ref
import perm_reference as perm_ref
import poly_reference as pref
from tracedet.sl2exact import (
    DEFAULT_WORD_LEN,
    GR_ONE,
    GR_ZERO,
    GaussianInt,
    GaussianRational,
    InexactDivisionError,
    Mat2,
    SingularError,
    ZI_ONE,
    _divexact,
    exact_det,
    left_kernel,
    mat2_to_json,
    random_sl2_gaussian,
    random_sl2z,
)
from tracedet.symmat import (
    EVEN_CORRECTED,
    ODD_CORRECTED,
    PolyMatrix,
    det_dp,
    det_perm_oracle,
    det_signed_perm_expansion,
)
from tracedet.verify import _exponent_bounds

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


# Variables interned after 64 others, so that their exponent fields lie
# hundreds of bits up in the packed monomial.
for _v in [entry(60 + i, 60) for i in range(64)]:
    _var_id(_v)
FAR_VARS = [entry(200 + i, 7) for i in range(3)]
MIXED_POOL = [LAMBDA, BETA, entry(1, 2), *FAR_VARS]
term_lists = st.lists(
    st.tuples(st.integers(-5, 5), st.lists(st.tuples(st.sampled_from(MIXED_POOL), st.integers(1, 3)), max_size=3)),
    max_size=4,
)


def both_forms(terms):
    """The polynomial of terms built packed and built by the reference."""
    p, r = ZERO, pref.RefPoly.of_int(0)
    for coeff, factors in terms:
        t, rt = Polynomial.of_int(coeff), pref.RefPoly.of_int(coeff)
        for v, e in factors:
            t = t * Polynomial.of_var(v) ** e
            for _ in range(e):
                rt = rt * pref.RefPoly.of_var(v)
        p, r = p + t, r + rt
    return p, r


def assert_agree(p, r):
    assert dict(p.terms()) == r.public_terms()
    assert p.variables() == r.variables()
    assert p.to_text() == r.to_text()
    # The cached degree bound behind the overflow guard is a bound.
    assert p._deg >= max((sum(e for _, e in m) for m in r.public_terms()), default=0)


def test_far_variables_sit_past_id_64():
    assert min(_var_id(v) for v in FAR_VARS) >= 64


@PROPERTY
@given(term_lists, term_lists, st.sampled_from(MIXED_POOL), st.integers(0, 4))
def test_packed_matches_reference(tp, tq, v, k):
    (p, r), (q, s) = both_forms(tp), both_forms(tq)
    assert_agree(p, r)
    assert_agree(p * q, r * s)
    assert_agree(p + q, r + s)
    assert_agree(p - q, r + s * pref.RefPoly.of_int(-1))
    assert_agree(p.coeff_in_var(v, k), r.coeff_in_var(v, k))
    assert p.degree_in_var(v) == r.degree_in_var(v)
    acc = p + 0
    _add_product(acc, -2, q, p)
    assert_agree(acc, r + s * r * pref.RefPoly.of_int(-2))


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


@st.composite
def oracle_matrices(draw):
    """Matrices up to the oracle's bound, with multi-term and zero cells.
    Half the time row 1 repeats row 0; from n = 4 both lie in the oracle's
    top half, so every top minor cancels to nothing."""
    n = draw(st.integers(0, 7))
    cells = draw(st.lists(st.one_of(st.just(ZERO), entries), min_size=n * n, max_size=n * n))
    rows = [cells[i * n:(i + 1) * n] for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[1] = rows[0]
    return PolyMatrix.build(range(n), range(n), lambda i, j: rows[i][j])


@PROPERTY
@given(oracle_matrices())
def test_split_oracle_matches_full_walk(m):
    assert det_perm_oracle(m) == perm_ref.det(m)


LAM = Polynomial.of_var(LAMBDA)


@st.composite
def high_degree_matrices(draw):
    """Cells c * lambda^e with e up to 90, or zero, so that permutation
    products land on both sides of the degree limit 255 and some cancel."""
    n = draw(st.integers(1, 6))
    cell = st.one_of(
        st.just(ZERO),
        st.builds(lambda c, e: c * LAM ** e, st.sampled_from([-1, 1, 2]), st.integers(0, 90)),
    )
    cells = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    return PolyMatrix.build(range(n), range(n), lambda i, j: cells[i * n + j])


@PROPERTY
@given(high_degree_matrices())
def test_split_oracle_overflow_guard_matches_full_walk(m):
    # Raised if and only if some permutation through nonzero entries passes
    # degree 255, whatever the halves merge to.
    try:
        det = perm_ref.det(m)
    except MonomialOverflowError:
        with pytest.raises(MonomialOverflowError):
            det_perm_oracle(m)
    else:
        assert det_perm_oracle(m) == det


@PROPERTY
@given(
    st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.just(ZERO), entries), min_size=n * n, max_size=n * n),
        st.lists(polynomials(MATRIX_VARS, max_terms=1), min_size=n, max_size=n),
    )),
    st.sampled_from([EVEN_CORRECTED, ODD_CORRECTED]),
)
def test_signed_perm_expansion_matches_full_walk(drawn, rule):
    cells, corr = drawn
    n = len(corr)
    base = PolyMatrix.build(range(n), range(n), lambda i, j: cells[i * n + j])
    target = 0 if rule == EVEN_CORRECTED else 1
    # Cell (i, j): base[i, j]'s terms, then the correction's where allowed.
    grid = perm_ref.cells(base)
    for i in range(n):
        for j in range(n):
            if (i + j) % 2 == target:
                grid[i][j] += (-(LAM * corr[i] * corr[j]))._terms.items()
    correction = dict(enumerate(corr))
    assert det_signed_perm_expansion(base, correction, rule) == perm_ref.perm_sum(grid)


@PROPERTY
@given(polys, st.lists(st.integers(0, 3), min_size=len(VAR_POOL), max_size=len(VAR_POOL)))
def test_local_packing_round_trip(p, slack):
    encode, decode = _local_packing({v: p.degree_in_var(v) + s for v, s in zip(VAR_POOL, slack)})
    local = encode(p)
    assert decode(local) == p
    # Field 0 is the total degree in both packings.
    assert sorted(m & _MASK for m in local._terms) == sorted(m & _MASK for m in p._terms)


@PROPERTY
@given(st.sampled_from(VAR_POOL), st.integers(0, 9))
def test_local_packing_refuses_an_exponent_past_its_field(v, bound):
    encode, decode = _local_packing({v: bound})
    top = Polynomial.of_var(v) ** ((1 << max(1, bound.bit_length())) - 1)
    assert decode(encode(top)) == top
    with pytest.raises(MonomialOverflowError):
        encode(top * Polynomial.of_var(v))
    other = next(w for w in VAR_POOL if w != v)
    with pytest.raises(MonomialOverflowError):
        encode(Polynomial.of_var(other))


@st.composite
def top_field_matrices(draw):
    """Generalized permutation matrices of monomials in which each
    variable's exponents sum over the rows to 2^w - 1 for a drawn w: the
    determinant is one term, every exponent at the top of its local field."""
    n = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(n)))
    rows = [Polynomial.of_int(draw(st.sampled_from([-2, -1, 1, 2]))) for _ in range(n)]
    for v in MATRIX_VARS:
        top = 2 ** draw(st.integers(1, 4)) - 1
        cuts = sorted(draw(st.lists(st.integers(0, top), min_size=n - 1, max_size=n - 1)))
        for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, top])):
            rows[i] = rows[i] * Polynomial.of_var(v) ** (hi - lo)
    return PolyMatrix.build(range(n), range(n), lambda i, j: rows[i] if perm[i] == j else 0)


@PROPERTY
@given(top_field_matrices())
def test_top_field_matrices_reach_their_bounds(m):
    bounds = _exponent_bounds([(1, m)])
    det = det_dp(m)
    assert bounds and all(det.degree_in_var(v) == b == 2 ** b.bit_length() - 1 for v, b in bounds.items())


@PROPERTY
@given(st.one_of(matrices(), top_field_matrices()))
def test_local_packing_keeps_both_determinants(m):
    bounds = _exponent_bounds([(1, m)])
    encode, decode = _local_packing(bounds)
    local = PolyMatrix.build(m.row_labels, m.col_labels, lambda r, c: encode(m.entry(r, c)))
    det = det_dp(m)
    assert decode(det_dp(local)) == det
    assert decode(det_perm_oracle(local)) == det_perm_oracle(m)
    assert all(det.degree_in_var(v) <= b for v, b in bounds.items())


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


zis = st.builds(GaussianInt, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


def _as_gr(x: GaussianInt) -> GaussianRational:
    return GaussianRational(x.re, x.im)


@PROPERTY
@given(zis, zis, zis, st.integers(-100, 100))
def test_gaussian_int_ring_axioms(x, y, z, k):
    zero, one = GaussianInt(), GaussianInt(1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x - x == zero
    assert x - y == x + (-y)
    assert x * k == k * x == x * GaussianInt(k)
    assert bool(x) == (x != zero)
    # The inclusion into the Gaussian rationals is a ring homomorphism.
    assert _as_gr(x * y + z) == _as_gr(x) * _as_gr(y) + _as_gr(z)
    # Every operator returns a GaussianInt, not a bare tuple.
    for result in (x + y, x - y, -x, x * y, x * k, k * x):
        assert type(result) is GaussianInt
        assert (result.re, result.im) == tuple(result)


@PROPERTY
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_mat2_over_takes_int_pairs(seed, k):
    # The samplers pass (re, im) int pairs; Mat2.over reduces them and
    # stores GaussianInts, so the sample and its JSON are those of N/d.
    for m in (random_sl2z(DEFAULT_WORD_LEN, random.Random(seed)), random_sl2_gaussian(random.Random(seed))):
        built = Mat2.over([(re * k, im * k) for re, im in m.num], m.den * k)
        assert all(type(z) is GaussianInt for z in built.num)
        assert built == m and mat2_to_json(built) == mat2_to_json(m)


@PROPERTY
@given(st.integers(0, 5), zis, st.data())
def test_thm1_rules_scale_per_row_and_column(n, lam, data):
    # What makes ScaledMatrix(num, d_i, D_j) in build_magnus_matrices valid:
    # with s_0 = t_0 = 1, scaling a[i,0] by s_i, a[0,j] by t_j and a[i,j] by
    # s_i*t_j scales every entry (i, j) of A, B and C by s_i*t_j.  a[0,0]
    # occurs in no entry, so the tables hold no value for it.
    scales = st.lists(st.integers(1, 50), min_size=n, max_size=n)
    s, t = [1, *data.draw(scales)], [1, *data.draw(scales)]
    cells = [(i, j) for i in range(n + 1) for j in range(n + 1) if i or j]
    values = dict(zip(cells, data.draw(st.lists(zis, min_size=len(cells), max_size=len(cells)))))
    scaled = {(i, j): x * (s[i] * t[j]) for (i, j), x in values.items()}
    rules = thm1_rules(lam, lambda i, j: values[i, j], ZI_ONE)
    scaled_rules = thm1_rules(lam, lambda i, j: scaled[i, j], ZI_ONE)
    for rule, scaled_rule, first in zip(rules, scaled_rules, (0, 1, 1)):
        for i, j in itertools.product(range(first, n + 1), repeat=2):
            assert scaled_rule(i, j) == rule(i, j) * (s[i] * t[j])


@PROPERTY
@given(st.integers(1, 6), zis, zis, st.data())
def test_thm3_rules_scale_per_row_and_column(n, lam, beta, data):
    # thm3's first column reads a[1,i], so rows and columns share one scale:
    # with s_1 = 1, scaling a[1,j] by s_j and a[i,j] by s_i*s_j (i, j >= 2)
    # scales every entry (i, j) of A, B and C by s_i*s_j; a trace point
    # needs this with s_k = 1/d_k.  a[i,1] with i > 1 is never read, so the
    # tables hold no value for it.
    s = [0, 1, *data.draw(st.lists(st.integers(1, 50), min_size=n - 1, max_size=n - 1))]
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i == 1 or j > 1]
    values = dict(zip(cells, data.draw(st.lists(zis, min_size=len(cells), max_size=len(cells)))))
    scaled = {(i, j): x * (s[i] * s[j]) for (i, j), x in values.items()}
    rules = thm3_rules(lam, beta, lambda i, j: values[i, j])
    scaled_rules = thm3_rules(lam, beta, lambda i, j: scaled[i, j])
    for rule, scaled_rule, first in zip(rules, scaled_rules, (1, 2, 2)):
        for i, j in itertools.product(range(first, n + 1), repeat=2):
            assert scaled_rule(i, j) == rule(i, j) * (s[i] * s[j])


@PROPERTY
@given(zis, zis, zis)
def test_exact_division_never_rounds(x, q, r):
    assume(q)
    assert _divexact(*(x * q), *q) == tuple(x)
    # Off a multiple of q it returns the quotient only if that is in Z[i].
    off = x * q + r
    quotient = _as_gr(off) / _as_gr(q)
    if quotient.re.denominator == quotient.im.denominator == 1:
        assert _divexact(*off, *q) == (quotient.re, quotient.im)
    else:
        with pytest.raises(InexactDivisionError):
            _divexact(*off, *q)


small_gaussians = st.builds(GaussianRational, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
                            st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def gr_matrices(draw):
    """Square matrices up to 6x6; some rows are copies or multiples of
    earlier ones, so rank deficiency and zero pivots come up often."""
    n = draw(st.integers(0, 6))
    rows = []
    for _ in range(n):
        if rows and draw(st.booleans()):
            source = draw(st.sampled_from(rows))
            factor = draw(small_gaussians)
            rows.append([factor * x for x in source])
        else:
            rows.append(draw(st.lists(small_gaussians, min_size=n, max_size=n)))
    return rows


@PROPERTY
@given(gr_matrices())
def test_bareiss_matches_fraction_elimination(rows):
    assert exact_det(rows) == ref.exact_det(rows)
    assert left_kernel(rows) == ref.left_kernel(rows)
