"""Sparse multivariate polynomials over arbitrary-precision integers.

The variable universe is fixed: doubly indexed entries a[i,j] plus the two
scalar indeterminates lambda and beta.  Polynomials are stored canonically
(no zero coefficients), so equality of canonical forms is ring equality and
zero-testing never needs randomized evaluation.

Internally each variable gets a small integer id the first time it is used,
and a monomial is the ascending tuple of its factors' ids, each id repeated
by its exponent: if lambda has id 0 and a[1,0] id 5, lambda^2*a[1,0] is
(0, 0, 5).  Hashing, comparing and multiplying monomials then run on int
tuples in C.  Ids follow first use, not the variable order, so everything
that leaves this module (``terms``, ``variables``, ``to_text``) is decoded
back to PolyVar and ordered by variable; no result depends on the order in
which ids were handed out.
"""

from __future__ import annotations

import itertools
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

# The stored form: ascending variable ids, each repeated by its exponent.
_IdMonomial = tuple[int, ...]

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


def _encode(pairs) -> _IdMonomial:
    return tuple(sorted(vid for v, e in pairs for vid in [_var_id(v)] * e))


def _decode(mono: _IdMonomial) -> Monomial:
    return tuple(sorted((_VARS[vid], len(list(run))) for vid, run in itertools.groupby(mono)))


def _mono_key(mono: Monomial):
    # Graded lexicographic: total degree first, then compare exponents from
    # the largest variable downward (higher exponent on the larger variable
    # wins).  Reversing the ascending-sorted pairs gives exactly that.
    return (sum(e for _, e in mono), tuple(reversed(mono)))


def _mul_into(
    out: dict[_IdMonomial, int], t1: dict[_IdMonomial, int], t2: dict[_IdMonomial, int]
) -> None:
    """out += t1 * t2 on term dicts; out stays canonical."""
    get = out.get
    items2 = t2.items()
    for m1, c1 in t1.items():
        for m2, c2 in items2:
            mono = tuple(sorted(m1 + m2))
            new = get(mono, 0) + c1 * c2
            if new:
                out[mono] = new
            else:
                # c1*c2 != 0, so a zero sum means mono was already present.
                del out[mono]


_TOKEN_RE = re.compile(r"^(lambda|beta|a\[(\d+),(\d+)\])(?:\^(\d+))?$")


class Polynomial:
    """Canonical sparse polynomial: map monomial -> nonzero integer."""

    __slots__ = ("_terms",)
    __hash__ = None  # value equality without hashability

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[_IdMonomial, int] = {}
        if terms:
            for pairs, coeff in terms.items():
                mono = _encode(pairs)
                clean[mono] = clean.get(mono, 0) + coeff
        self._terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def _wrap(cls, terms: dict[_IdMonomial, int]) -> "Polynomial":
        # Adopts an already canonical term dict without copying it.
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def of_int(cls, c: int) -> "Polynomial":
        return cls._wrap({(): c} if c else {})

    @classmethod
    def of_var(cls, v: PolyVar) -> "Polynomial":
        return cls._wrap({(_var_id(v),): 1})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._wrap({})

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
        return Polynomial._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap({m: -c for m, c in self._terms.items()})

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
        out: dict[_IdMonomial, int] = {}
        _mul_into(out, self._terms, other._terms)
        return Polynomial._wrap(out)

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

    def evaluate(self, point: Mapping[PolyVar, object], one):
        """Ring homomorphism sending each variable v to ``point[v]`` in any
        ring with ``+``, ``*``, ``-`` and int scaling; ``one`` is its unit.
        A variable missing from ``point`` raises KeyError."""
        total = None
        for mono, coeff in self._terms.items():
            term = None
            for vid in mono:
                x = point[_VARS[vid]]
                term = x if term is None else term * x
            # Unit coefficients are the common case; scaling costs a ring product.
            if term is None:
                term = one * coeff
            elif coeff != 1:
                term = -term if coeff == -1 else term * coeff
            total = term if total is None else total + term
        return one - one if total is None else total

    def substitute(self, mapping: Mapping[PolyVar, "Polynomial | int"]) -> "Polynomial":
        """Ring homomorphism sending each mapped variable to its image.

        Unmapped variables stay fixed.
        """
        images = {v: Polynomial.of_var(v) for v in self.variables()}
        images.update((v, _coerce(p)) for v, p in mapping.items())
        return self.evaluate(images, Polynomial.of_int(1))

    def coeff_in_var(self, v: PolyVar, k: int) -> "Polynomial":
        """The polynomial q_k in p = sum_k q_k * v^k; v is absent from it."""
        if k < 0:
            raise ValueError("power must be non-negative")
        vid = _IDS.get(v)  # None when v was never used: no term contains it
        out: dict[_IdMonomial, int] = {}
        for mono, coeff in self._terms.items():
            exp = mono.count(vid)
            if exp == k:
                # Distinct monomials with the same v-exponent stay distinct
                # once v is removed, so nothing merges here.
                out[tuple(x for x in mono if x != vid) if exp else mono] = coeff
        return Polynomial._wrap(out)

    def degree_in_var(self, v: PolyVar) -> int:
        vid = _IDS.get(v)
        return max((mono.count(vid) for mono in self._terms), default=0)

    def variables(self) -> set[PolyVar]:
        return {_VARS[vid] for mono in self._terms for vid in mono}

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


def _add_product(acc: Polynomial, sign: int, *factors: Polynomial) -> None:
    """acc += sign * factors[0] * ... * factors[-1], in place; the usual call
    is acc += sign*e*f.

    The accumulation step of the determinant and Pfaffian engines: the
    leading factors are multiplied out first, and the product with the last
    one goes straight into acc's term dict, with no temporary polynomial and
    no copying ``+``.  Stops at the first zero partial product.  acc must be
    an accumulator its caller owns, and none of the factors.
    """
    head = Polynomial.of_int(sign)
    for f in factors[:-1]:
        head = head * f
        if not head:
            return
    _mul_into(acc._terms, head._terms, factors[-1]._terms if factors else {(): 1})


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.of_int(value)
    return NotImplemented
