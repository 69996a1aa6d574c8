"""Sparse multivariate polynomials over arbitrary-precision integers.

The variable universe is fixed: doubly indexed entries a[i,j] plus the two
scalar indeterminates lambda and beta.  Polynomials are stored canonically
(no zero coefficients), so equality of canonical forms is ring equality and
zero-testing never needs randomized evaluation.

A monomial is stored as a packed exponent vector (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): one int made of W-bit fields, W = 8.  Each variable
gets a small integer id the first time it is used; field 0 holds the total
degree and field k the exponent of the variable with id k - 1.  If lambda
has id 0 and a[1,0] id 5, lambda^2*a[1,0] is 3 + (2 << 8) + (1 << 48).
Multiplying two monomials is then one int addition, and hashing one is an
int hash.  The int is as wide as its largest id needs, W bits per field,
so it grows with the number of interned variables: 520 bits for thm1's 64
at n = 7.

No field may carry into the next.  An exponent never exceeds the total
degree, so it is enough that no total degree passes 2^W - 1 = 255.  Each
Polynomial caches an upper bound on its total degree (``+`` takes the max,
``*`` the sum), so a product checks one sum of two ints; only when that sum
passes 255 are the exact degrees read off the terms.  A product or an
encoded monomial of degree above 255 raises MonomialOverflowError (an
ArithmeticError, so the CLI exits 3) before any term is written.

Ids follow first use, not the variable order, so everything that leaves this
module (``terms``, ``variables``, ``to_text``) is decoded back to PolyVar and
ordered by variable; no result depends on the order in which ids were handed
out.

A symbolic check packs its own monomials (_local_packing): field 0 is still
the W-bit total degree, then each variable it uses gets a field only as wide
as its exponent bound, 89 bits in all for thm1 at n = 7.  Such a Polynomial
is never read as text or terms and never leaves verify_symbolic.

``evaluate`` and ``substitute`` share one walk over the terms: each variable
is decoded and looked up once, then every term is the product of its
variables' values, one factor per unit of exponent, times its coefficient.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Iterator, Mapping

_KIND_LAMBDA = 0
_KIND_BETA = 1
_KIND_ENTRY = 2


@dataclass(frozen=True, order=True, slots=True)
class PolyVar:
    """One indeterminate: lambda, beta, or an entry a[i,j].

    The dataclass ordering (kind, i, j) realizes the variable order
    lambda < beta < a[i,j], entries lexicographic by (i, j).
    """

    kind: int
    i: int = 0
    j: int = 0

    def render(self) -> str:
        if self.kind == _KIND_LAMBDA:
            return "lambda"
        if self.kind == _KIND_BETA:
            return "beta"
        return f"a[{self.i},{self.j}]"

    def __repr__(self) -> str:
        return self.render()


LAMBDA = PolyVar(_KIND_LAMBDA)
BETA = PolyVar(_KIND_BETA)


def entry(i: int, j: int) -> PolyVar:
    """The entry variable a[i,j]; indices must be non-negative."""
    if i < 0 or j < 0:
        raise ValueError(f"entry indices must be non-negative, got ({i}, {j})")
    return PolyVar(_KIND_ENTRY, i, j)


# The public monomial form: (variable, positive exponent) pairs sorted by
# ascending variable; the empty tuple is the unit monomial.
Monomial = tuple[tuple[PolyVar, int], ...]

# Bits per field of a packed monomial; total degrees stay within _MASK.
W = 8
_MASK = (1 << W) - 1


class MonomialOverflowError(ArithmeticError):
    """A total degree above 2^W - 1, which a packed monomial cannot hold, or
    an exponent wider than its field in a local packing."""


# The variable intern table, shared by the whole process.  It only grows and
# a variable's id never changes, so sharing it cannot alter any result; the
# lock keeps two threads from giving one variable two ids.
_VARS: list[PolyVar] = []
_IDS: dict[PolyVar, int] = {}
_INTERN_LOCK = threading.Lock()


def _var_id(v: PolyVar) -> int:
    vid = _IDS.get(v)
    if vid is None:
        with _INTERN_LOCK:
            vid = _IDS.get(v)
            if vid is None:
                vid = len(_VARS)
                _VARS.append(v)
                _IDS[v] = vid
    return vid


def _check_degree(deg: int) -> None:
    if deg > _MASK:
        raise MonomialOverflowError(
            f"total degree {deg} exceeds {_MASK}, the most a {W}-bit monomial field holds"
        )


def _encode(pairs) -> int:
    mono = deg = 0
    for v, e in pairs:
        if e < 0:
            raise ValueError(f"negative exponent {e} on {v!r}")
        deg += e
        mono += e << (_var_id(v) + 1) * W
    _check_degree(deg)
    return mono + deg


def _exponents(mono: int) -> list[tuple[int, int]]:
    """(variable id, exponent) for each variable of mono, by ascending id."""
    out = []
    mono >>= W
    while mono:
        # The lowest set bit finds the next nonzero field, so the loop runs
        # once per variable, not once per interned id.
        vid = ((mono & -mono).bit_length() - 1) // W
        e = (mono >> vid * W) & _MASK
        out.append((vid, e))
        mono ^= e << vid * W
    return out


def _decode(mono: int) -> Monomial:
    return tuple(sorted((_VARS[vid], e) for vid, e in _exponents(mono)))


def _mono_key(mono: Monomial):
    # Graded lexicographic: total degree first, then compare exponents from
    # the largest variable downward (higher exponent on the larger variable
    # wins).  Reversing the ascending-sorted pairs gives exactly that.
    return (sum(e for _, e in mono), tuple(reversed(mono)))


def _degree(terms: dict[int, int]) -> int:
    return max((mono & _MASK for mono in terms), default=0)


def _product_degree(p: "Polynomial", q: "Polynomial") -> int:
    """A bound on deg(p*q) that fits a field, or MonomialOverflowError.

    The cached bounds decide in O(1); only when they sum past the limit are
    the exact degrees read off the terms, so a loose bound never raises."""
    deg = p._deg + q._deg
    if deg > _MASK:
        deg = _degree(p._terms) + _degree(q._terms)
        _check_degree(deg)
    return deg


_TOKEN_RE = re.compile(r"^(lambda|beta|a\[(\d+),(\d+)\])(?:\^(\d+))?$")


class Polynomial:
    """Canonical sparse polynomial: map packed monomial -> nonzero integer,
    plus an upper bound on the total degree (_deg, at most 2^W - 1)."""

    __slots__ = ("_terms", "_deg")
    __hash__ = None  # value equality without hashability

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for pairs, coeff in terms.items():
                mono = _encode(pairs)
                clean[mono] = clean.get(mono, 0) + coeff
        self._terms = {m: c for m, c in clean.items() if c}
        self._deg = _degree(self._terms)

    @classmethod
    def _wrap(cls, terms: dict[int, int], deg: int) -> "Polynomial":
        # Adopts an already canonical term dict without copying it; deg
        # bounds its total degree.
        result = cls.__new__(cls)
        result._terms = terms
        result._deg = deg
        return result

    @classmethod
    def of_int(cls, c: int) -> "Polynomial":
        return cls._wrap({0: c} if c else {}, 0)

    @classmethod
    def of_var(cls, v: PolyVar) -> "Polynomial":
        return cls._wrap({1 + (1 << (_var_id(v) + 1) * W): 1}, 1)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._wrap({}, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """(monomial, coefficient) pairs, monomials in the public form."""
        return ((_decode(m), c) for m, c in self._terms.items())

    def num_terms(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.of_int(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            elif mono in out:
                del out[mono]
        return Polynomial._wrap(out, max(self._deg, other._deg) if out else 0)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap({m: -c for m, c in self._terms.items()}, self._deg)

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = Polynomial.zero()
        _add_product(out, 1, self, other)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.of_int(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _var_ids(self) -> list[int]:
        # A field of the OR of all monomials is nonzero iff some monomial
        # contains that field's variable.
        used = 0
        for mono in self._terms:
            used |= mono
        return [vid for vid, _ in _exponents(used)]

    def _evaluate(self, value_of, one):
        # The term walk behind evaluate and substitute: value_of(v) is
        # called once per variable v, and unit coefficients, the common
        # case, cost no ring product.
        values = {vid: value_of(_VARS[vid]) for vid in self._var_ids()}
        total = None
        for mono, coeff in self._terms.items():
            term = None
            for vid, e in _exponents(mono):
                x = values[vid]
                for _ in range(e):
                    term = x if term is None else term * x
            if term is None:
                term = one * coeff
            elif coeff != 1:
                term = -term if coeff == -1 else term * coeff
            total = term if total is None else total + term
        return one - one if total is None else total

    def evaluate(self, point: Mapping[PolyVar, object], one):
        """Ring homomorphism sending each variable v to ``point[v]`` in any
        ring with ``+``, ``*``, ``-`` and int scaling; ``one`` is its unit.
        A variable missing from ``point`` raises KeyError."""
        return self._evaluate(point.__getitem__, one)

    def substitute(self, mapping: Mapping[PolyVar, "Polynomial | int"]) -> "Polynomial":
        """Ring homomorphism sending each mapped variable to its image:
        evaluate over the polynomial ring, unmapped variables sent to
        themselves."""

        def image(v: PolyVar) -> Polynomial:
            value = mapping.get(v)
            return Polynomial.of_var(v) if value is None else _coerce(value)

        return self._evaluate(image, Polynomial.of_int(1))

    def coeff_in_var(self, v: PolyVar, k: int) -> "Polynomial":
        """The polynomial q_k in p = sum_k q_k * v^k; v is absent from it."""
        if k < 0:
            raise ValueError("power must be non-negative")
        vid = _IDS.get(v)
        if vid is None:  # v was never used, so no term contains it
            return Polynomial._wrap(dict(self._terms) if k == 0 else {}, self._deg)
        shift = (vid + 1) * W
        drop = k + (k << shift)  # v^k off the monomial and k off its degree
        # Distinct monomials with the same v-exponent stay distinct once v
        # is removed, so nothing merges here.
        out = {m - drop: c for m, c in self._terms.items() if (m >> shift) & _MASK == k}
        return Polynomial._wrap(out, self._deg - k if out else 0)

    def degree_in_var(self, v: PolyVar) -> int:
        vid = _IDS.get(v)
        if vid is None:
            return 0
        shift = (vid + 1) * W
        return max(((m >> shift) & _MASK for m in self._terms), default=0)

    def variables(self) -> set[PolyVar]:
        return {_VARS[vid] for vid in self._var_ids()}

    def to_text(self) -> str:
        """Canonical text form: descending monomial order, explicit integer
        coefficients, '*'-separated factors, e.g.
        ``-1*lambda*a[0,1]*a[1,0] + 2*a[1,1]``.
        """
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms(), key=lambda t: _mono_key(t[0]), reverse=True):
            factors = [str(coeff)]
            for var, exp in mono:
                factors.append(var.render() if exp == 1 else f"{var.render()}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "Polynomial":
        """Parse the canonical text form back into a Polynomial."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[Monomial, int] = {}
        for raw_term in text.split("+"):
            tokens = [t.strip() for t in raw_term.strip().split("*")]
            if not tokens or not tokens[0]:
                raise ValueError(f"malformed term in {text!r}")
            coeff = int(tokens[0])
            exps: dict[PolyVar, int] = {}
            for token in tokens[1:]:
                match = _TOKEN_RE.match(token)
                if not match:
                    raise ValueError(f"malformed factor {token!r}")
                name, si, sj, sexp = match.groups()
                if name == "lambda":
                    var = LAMBDA
                elif name == "beta":
                    var = BETA
                else:
                    var = entry(int(si), int(sj))
                exps[var] = exps.get(var, 0) + (int(sexp) if sexp else 1)
            mono = tuple(sorted(exps.items()))
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(terms)

    def __repr__(self) -> str:
        return self.to_text()


def _add_product(acc: Polynomial, sign: int, e: Polynomial, f: Polynomial) -> None:
    """acc += sign*e*f, in place: the one loop that multiplies Polynomials
    term by term.

    ``*`` runs it into a fresh zero, and det_dp, the Pfaffians and the
    residuals accumulate with it (det_perm_oracle and the signed-permutation
    expansion walk flattened terms instead, so that the two determinant
    engines share no kernel).  The sign is multiplied into each coefficient of e once, in the
    outer loop, so e should be the short factor; the products go straight
    into acc's term dict, with no temporary polynomial and no copying
    ``+``.  A zero sign leaves acc untouched.  acc must be an accumulator
    its caller owns, and neither e nor f.  A product of degree above
    2^W - 1 raises MonomialOverflowError with acc untouched.
    """
    if not sign:
        return
    deg = _product_degree(e, f)
    out = acc._terms
    get = out.get
    items2 = f._terms.items()
    for m1, c1 in e._terms.items():
        c1 *= sign
        for m2, c2 in items2:
            mono = m1 + m2
            new = get(mono, 0) + c1 * c2
            if new:
                out[mono] = new
            else:
                # c1*c2 != 0, so a zero sum means mono was already present.
                del out[mono]
    acc._deg = max(acc._deg, deg) if out else 0


def _local_packing(bounds: Mapping[PolyVar, int]):
    """(encode, decode) between the global packing and a local one: the W-bit
    total degree, then a max(1, bound.bit_length())-bit field per variable of
    ``bounds``.  Products must keep every exponent within its bound; encode
    raises MonomialOverflowError on an exponent its field cannot hold."""
    fields = {}  # variable id -> (local shift, field mask)
    shift = W
    for v, bound in bounds.items():
        width = max(1, bound.bit_length())
        fields[_var_id(v)] = (shift, (1 << width) - 1)
        shift += width

    def encode_mono(mono: int) -> int:
        out = mono & _MASK
        for vid, e in _exponents(mono):
            lshift, mask = fields.get(vid, (0, 0))
            if e > mask:
                raise MonomialOverflowError(f"exponent {e} of {_VARS[vid]!r} exceeds its local field")
            out += e << lshift
        return out

    def decode_mono(mono: int) -> int:
        return (mono & _MASK) + sum(
            ((mono >> lshift) & mask) << (vid + 1) * W for vid, (lshift, mask) in fields.items())

    # Both maps are injective on monomials within the bounds, so no terms merge.
    def recode(mono_map):
        return lambda p: Polynomial._wrap({mono_map(m): c for m, c in p._terms.items()}, p._deg)

    return recode(encode_mono), recode(decode_mono)


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.of_int(value)
    return NotImplemented
