"""Reference oracle for the monomial arithmetic in tracedet.exactpoly.

The package stores a monomial as one packed int of exponent fields.  This is
the form it replaced: a monomial is the ascending tuple of its variables'
ids, each id repeated by its exponent, and a product of two monomials is
tuple(sorted(m1 + m2)).  The ids come from this module's own intern table,
so nothing here depends on the package's.  The property tests build one
polynomial both ways and compare what leaves the package in the public
form: terms, variables, degrees, coefficients and text."""

import itertools

from tracedet.exactpoly import PolyVar

_VARS: list[PolyVar] = []
_IDS: dict[PolyVar, int] = {}


def _var_id(v: PolyVar) -> int:
    if v not in _IDS:
        _IDS[v] = len(_VARS)
        _VARS.append(v)
    return _IDS[v]


def _decode(mono: tuple[int, ...]) -> tuple[tuple[PolyVar, int], ...]:
    return tuple(sorted((_VARS[vid], len(list(run))) for vid, run in itertools.groupby(mono)))


class RefPoly:
    """Map from id-tuple monomial to nonzero integer coefficient."""

    def __init__(self, terms: dict[tuple[int, ...], int]):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def of_int(cls, c: int) -> "RefPoly":
        return cls({(): c})

    @classmethod
    def of_var(cls, v: PolyVar) -> "RefPoly":
        return cls({(_var_id(v),): 1})

    def __add__(self, other: "RefPoly") -> "RefPoly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return RefPoly(out)

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return RefPoly(out)

    def public_terms(self) -> dict:
        """Public-form monomial -> coefficient, as dict(Polynomial.terms())."""
        return {_decode(m): c for m, c in self.terms.items()}

    def coeff_in_var(self, v: PolyVar, k: int) -> "RefPoly":
        vid = _IDS.get(v)
        return RefPoly({
            tuple(x for x in m if x != vid): c for m, c in self.terms.items() if m.count(vid) == k
        })

    def degree_in_var(self, v: PolyVar) -> int:
        vid = _IDS.get(v)
        return max((m.count(vid) for m in self.terms), default=0)

    def variables(self) -> set[PolyVar]:
        return {_VARS[vid] for m in self.terms for vid in m}

    def to_text(self) -> str:
        """Descending graded lexicographic order: total degree first, then
        exponents compared from the largest variable downward."""
        if not self.terms:
            return "0"
        parts = []
        ordered = sorted(
            self.public_terms().items(),
            key=lambda t: (sum(e for _, e in t[0]), tuple(reversed(t[0]))),
            reverse=True,
        )
        for mono, coeff in ordered:
            factors = [str(coeff)]
            for var, exp in mono:
                factors.append(var.render() if exp == 1 else f"{var.render()}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)
