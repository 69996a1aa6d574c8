"""Sparse multivariate polynomials over arbitrary-precision integers.

The variable universe is fixed: doubly indexed entries a[i,j] plus the two
scalar indeterminates lambda and beta.  Polynomials are stored canonically
(no zero coefficients), so equality of canonical forms is ring equality and
zero-testing never needs randomized evaluation.
"""

from __future__ import annotations

import re
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


# A monomial is a tuple of (variable, positive exponent) pairs sorted by
# ascending variable; the empty tuple is the unit monomial.
Monomial = tuple[tuple[PolyVar, int], ...]

_UNIT: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    out: list[tuple[PolyVar, int]] = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_key(mono: Monomial):
    # Graded lexicographic: total degree first, then compare exponents from
    # the largest variable downward (higher exponent on the larger variable
    # wins).  Reversing the ascending-sorted pairs gives exactly that.
    return (_mono_degree(mono), tuple(reversed(mono)))


_TOKEN_RE = re.compile(r"^(lambda|beta|a\[(\d+),(\d+)\])(?:\^(\d+))?$")


class Polynomial:
    """Canonical sparse polynomial: map monomial -> nonzero integer."""

    __slots__ = ("_terms",)
    __hash__ = None  # value equality without hashability

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    clean[mono] = coeff
        self._terms = clean

    @classmethod
    def of_int(cls, c: int) -> "Polynomial":
        return cls({_UNIT: c} if c else None)

    @classmethod
    def of_var(cls, v: PolyVar) -> "Polynomial":
        return cls({((v, 1),): 1})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

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
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        result = Polynomial.__new__(Polynomial)
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

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
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                elif mono in out:
                    del out[mono]
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

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
            for var, exp in mono:
                x = point[var]
                for _ in range(exp):
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
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            exp = 0
            stripped = mono
            for idx, (var, e) in enumerate(mono):
                if var == v:
                    exp = e
                    stripped = mono[:idx] + mono[idx + 1:]
                    break
            if exp == k:
                out[stripped] = out.get(stripped, 0) + coeff
        return Polynomial(out)

    def degree_in_var(self, v: PolyVar) -> int:
        best = 0
        for mono, _ in self._terms.items():
            for var, e in mono:
                if var == v and e > best:
                    best = e
        return best

    def variables(self) -> set[PolyVar]:
        seen: set[PolyVar] = set()
        for mono in self._terms:
            for var, _ in mono:
                seen.add(var)
        return seen

    def to_text(self) -> str:
        """Canonical text form: descending monomial order, explicit integer
        coefficients, '*'-separated factors, e.g.
        ``-1*lambda*a[0,1]*a[1,0] + 2*a[1,1]``.
        """
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items(), key=lambda t: _mono_key(t[0]), reverse=True):
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
        total = cls.zero()
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
            total = total + cls({mono: coeff})
        return total

    def __repr__(self) -> str:
        return self.to_text()


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.of_int(value)
    return NotImplemented
