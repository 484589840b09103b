"""Algebraic differential forms with polynomial coefficients.

A form is a sum of terms p * dx_{i1} ^ ... ^ dx_{ik} with strictly
increasing index tuples and ``MultiPoly`` coefficients.  Used both for
the twisted de Rham complexes on affine charts and for the polynomial
forms on simplices.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import Cyclo, MultiPoly
from .exactalg.poly import accumulate


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Sorted merge of two disjoint increasing tuples with the Koszul sign."""
    inversions = 0
    for i in left:
        for j in right:
            if i > j:
                inversions += 1
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inversions


class DiffForm:
    """Differential form over a fixed polynomial ring."""

    __slots__ = ("variables", "terms")
    __hash__ = None

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean: dict[tuple[int, ...], MultiPoly] = {}
        if terms:
            for idx, p in terms.items():
                if p and not p.is_zero():
                    clean[tuple(idx)] = p.with_variables(self.variables)
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "DiffForm":
        return cls(variables, {})

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "DiffForm":
        return cls(p.variables, {(): p})

    @classmethod
    def const(cls, variables, c) -> "DiffForm":
        return cls.from_poly(MultiPoly.const(variables, c))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, DiffForm):
            if other.variables != self.variables:
                return False
            return self.terms == other.terms
        return NotImplemented

    def form_degrees(self) -> set[int]:
        return {len(i) for i in self.terms}

    def component(self, degree: int) -> "DiffForm":
        return DiffForm(self.variables,
                        {i: p for i, p in self.terms.items() if len(i) == degree})

    def top_coefficient(self) -> MultiPoly:
        """Coefficient of dx_1 ^ ... ^ dx_n (zero polynomial if absent)."""
        full = tuple(range(len(self.variables)))
        return self.terms.get(full, MultiPoly.zero(self.variables))

    def coefficient(self, idx) -> MultiPoly:
        return self.terms.get(tuple(idx), MultiPoly.zero(self.variables))

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffForm):
            if other.variables != self.variables:
                raise ValueError("forms live over different rings")
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return DiffForm.const(self.variables, other)
        if isinstance(other, MultiPoly):
            return DiffForm.from_poly(other.with_variables(self.variables))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for idx, p in o.terms.items():
            accumulate(out, idx, p)
        return DiffForm(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return DiffForm(self.variables, {i: -p for i, p in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def scale(self, c) -> "DiffForm":
        return DiffForm(self.variables, {i: p * c for i, p in self.terms.items()})

    def wedge(self, other) -> "DiffForm":
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot wedge with this operand")
        out: dict[tuple[int, ...], MultiPoly] = {}
        for i1, p1 in self.terms.items():
            for i2, p2 in o.terms.items():
                if set(i1) & set(i2):
                    continue
                idx, sign = _merge_sign(i1, i2)
                contrib = p1 * p2
                accumulate(out, idx, contrib if sign > 0 else -contrib)
        return DiffForm(self.variables, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        return self.wedge(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        return self._coerce(other).wedge(self)

    def exterior_derivative(self) -> "DiffForm":
        out: dict[tuple[int, ...], MultiPoly] = {}
        for idx, p in self.terms.items():
            for v_pos, v_name in enumerate(self.variables):
                if v_pos in idx:
                    continue
                dp = p.derivative(v_name)
                if dp:
                    merged, sign = _merge_sign((v_pos,), idx)
                    accumulate(out, merged, dp if sign > 0 else -dp)
        return DiffForm(self.variables, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms, key=lambda i: (len(i), i)):
            p = self.terms[idx]
            dxs = "^".join(f"d{self.variables[i]}" for i in idx)
            body = f"({p.canonical_str()})"
            parts.append(body if not dxs else f"{body}*{dxs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffForm({self})"


def d_of_poly(p: MultiPoly) -> DiffForm:
    return DiffForm.from_poly(p).exterior_derivative()
