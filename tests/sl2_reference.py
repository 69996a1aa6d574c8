"""Reference oracle for the SL(2) layer of tracedet.sl2exact: 2x2 products,
adjugates, both samplers and the trace relation in plain Gaussian-rational
(Fraction) arithmetic.  The package draws and stores a sample as N/d over
Z[i] and sums the trace relation there; this is the arithmetic it replaced,
kept here so that the tests can compare the two on as many seeds as they
like and can build products and inverses, which the package never needs."""

import random
from fractions import Fraction

from tracedet.sl2exact import GR_ONE, GR_ZERO, HEIGHT_BOUND, GaussianRational, Mat2, gaussian_to_json

# A 2x2 matrix as its entries (e11, e12, e21, e22).
Entries = tuple[GaussianRational, GaussianRational, GaussianRational, GaussianRational]

IDENTITY: Entries = (GR_ONE, GR_ZERO, GR_ZERO, GR_ONE)
S: Entries = (GR_ZERO, -GR_ONE, GR_ONE, GR_ZERO)
T: Entries = (GR_ONE, GR_ONE, GR_ZERO, GR_ONE)


def mul(x: Entries, y: Entries) -> Entries:
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (
        x11 * y11 + x12 * y21,
        x11 * y12 + x12 * y22,
        x21 * y11 + x22 * y21,
        x21 * y12 + x22 * y22,
    )


def adj(x: Entries) -> Entries:
    """The adjugate, which is the inverse in SL(2)."""
    x11, x12, x21, x22 = x
    return (x22, -x12, -x21, x11)


def entries(m: Mat2) -> Entries:
    return (m.e11, m.e12, m.e21, m.e22)


def trace(x: Entries) -> GaussianRational:
    return x[0] + x[3]


def trace_relation(m: Mat2, big_m: Mat2) -> tuple[GaussianRational, GaussianRational]:
    """Both sides of tr(m M^-1) = tr(m) tr(M) - tr(m M), with M^-1 taken as
    adj(M)/det(M); a zero det(M) raises SingularError."""
    x, y = entries(m), entries(big_m)
    y11, y12, y21, y22 = y
    return trace(mul(x, adj(y))) / (y11 * y22 - y12 * y21), trace(x) * trace(y) - trace(mul(x, y))


def matmul(x: Mat2, y: Mat2) -> Mat2:
    """x*y, built through Mat2's det check."""
    return Mat2(*mul(entries(x), entries(y)))


def inverse(m: Mat2) -> Mat2:
    return Mat2(*adj(entries(m)))


def to_json(x: Entries) -> list[list[dict[str, str]]]:
    """The layout of sl2exact.mat2_to_json, from the entries alone."""
    return [[gaussian_to_json(e) for e in x[:2]], [gaussian_to_json(e) for e in x[2:]]]


def sl2z_word(word_len: int, seed: int) -> Entries:
    """The product of word_len letters drawn by random.Random(seed).choice
    from (S, S^-1, T, T^-1), in that order, as random_sl2z draws them."""
    gen = random.Random(seed)
    letters = (S, adj(S), T, adj(T))
    product = IDENTITY
    for _ in range(word_len):
        product = mul(product, gen.choice(letters))
    return product


def _random_gaussian(gen: random.Random) -> GaussianRational:
    """re and im each p/q with |p| <= HEIGHT_BOUND and 1 <= q <= HEIGHT_BOUND."""
    re = Fraction(gen.randint(-HEIGHT_BOUND, HEIGHT_BOUND), gen.randint(1, HEIGHT_BOUND))
    im = Fraction(gen.randint(-HEIGHT_BOUND, HEIGHT_BOUND), gen.randint(1, HEIGHT_BOUND))
    return GaussianRational(re, im)


def sl2_gaussian(seed: int) -> Entries:
    """a, b, c drawn by random.Random(seed) (a redrawn until nonzero) and
    d = (1 + b*c)/a, as random_sl2_gaussian draws them."""
    gen = random.Random(seed)
    while True:
        a = _random_gaussian(gen)
        if a:
            break
    b = _random_gaussian(gen)
    c = _random_gaussian(gen)
    return (a, b, c, (GR_ONE + b * c) / a)
