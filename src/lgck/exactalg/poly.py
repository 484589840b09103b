"""Sparse multivariate polynomials over cyclotomic fields.

A polynomial maps exponent tuples to ``Cyclo`` coefficients, and no stored
coefficient is zero.  Every sum of terms, here and in the forms built on
top, goes through ``accumulate``, which keeps that
invariant by dropping an entry whose sum cancels.  The
text grammar is: terms ``c*x1^a1*...*xn^an`` joined by ``+``/``-``, with
cyclotomic coefficients written as products of a rational and a root of
unity, e.g. ``(3/2)*z5^2*x^2*y``.  Printing expands each cyclotomic
coefficient into one printed term per root-of-unity power, so output
round-trips through the parser.

Variable names starting with ``z`` followed by digits are reserved for
roots of unity and rejected as variable names.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import neg

from .cyclo import Cyclo

_ZTOKEN = re.compile(r"^z(\d+)(?:\^(\d+))?$")
_VARTOKEN = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)(?:\^(\d+))?$")
_RATTOKEN = re.compile(r"^\(?(-?\d+(?:/\d+)?)\)?$")

MAX_CYCLO_ORDER = 1024  # largest N of a parsed root of unity zN


def drl_key(exp: tuple[int, ...]):
    """Sort key realizing degree-reverse-lexicographic order (larger = bigger)."""
    return (sum(exp), tuple(map(neg, reversed(exp))))


def accumulate(out: dict, key, c) -> None:
    """out[key] += c, dropping the entry when the sum is zero."""
    s = out.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _check_varname(name: str):
    if _ZTOKEN.match(name):
        raise ValueError(f"variable name {name!r} collides with root-of-unity tokens")


class MultiPoly:
    """Exact sparse polynomial in a fixed ordered list of variables."""

    __slots__ = ("variables", "terms")
    __hash__ = None

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean: dict[tuple[int, ...], Cyclo] = {}
        if terms:
            for exp, c in terms.items():
                if not isinstance(c, Cyclo):
                    c = Cyclo.from_rational(c)
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "MultiPoly":  # unchecked: clean terms
        out = object.__new__(cls)
        out.variables, out.terms = variables, terms
        return out

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables, name) -> "MultiPoly":
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): Cyclo.one()})

    @classmethod
    def monomial(cls, variables, exp, c=1) -> "MultiPoly":
        return cls(variables, {tuple(exp): c if isinstance(c, Cyclo) else Cyclo.from_rational(c)})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading(self):
        """(exponent, coefficient) of the degrevlex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=drl_key)
        return exp, self.terms[exp]

    def coefficient(self, exp) -> Cyclo:
        return self.terms.get(tuple(exp), Cyclo.zero())

    def constant_term(self) -> Cyclo:
        return self.terms.get((0,) * len(self.variables), Cyclo.zero())

    # -- coercion helpers -------------------------------------------------

    def _align(self, other):
        if isinstance(other, MultiPoly):
            if other.variables == self.variables:
                return self, other
            union = list(self.variables)
            for v in other.variables:
                if v not in union:
                    union.append(v)
            return self.with_variables(union), other.with_variables(union)
        if isinstance(other, (int, Fraction, Cyclo)):
            return self, MultiPoly.const(self.variables, other)
        return self, None

    def with_variables(self, new_vars) -> "MultiPoly":
        """Reindex onto a superset (or permutation) of the current variables;
        the same ring returns ``self``."""
        new_vars = tuple(new_vars)
        if new_vars == self.variables:
            return self
        pos = []
        for v in self.variables:
            if v not in new_vars:
                raise ValueError(f"variable {v} missing from target list")
            pos.append(new_vars.index(v))
        out: dict[tuple[int, ...], Cyclo] = {}
        for exp, c in self.terms.items():
            e = [0] * len(new_vars)
            for p, a in zip(pos, exp):
                e[p] = a
            out[tuple(e)] = c
        return MultiPoly._make(new_vars, out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self._align(other)
        if b is None:
            return NotImplemented
        out = dict(a.terms)
        for exp, c in b.terms.items():
            accumulate(out, exp, c)
        return MultiPoly._make(a.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._align(other)
        if b is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._align(other)
        if b is None:
            return NotImplemented
        out: dict[tuple[int, ...], Cyclo] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                accumulate(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        return MultiPoly._make(a.variables, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(self.variables, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        a, b = self._align(other)
        if b is None:
            return NotImplemented
        return a.terms == b.terms

    # -- calculus and substitution ----------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = self.variables.index(name)
        out: dict[tuple[int, ...], Cyclo] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                out[tuple(e)] = c * exp[i]
        return MultiPoly._make(self.variables, out)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Substitute variables by polynomials (all sharing one target ring)."""
        target = None
        for v in self.variables:
            img = mapping.get(v)
            if isinstance(img, MultiPoly):
                target = img.variables if target is None else target
        if target is None:
            target = self.variables
        images = []
        for v in self.variables:
            img = mapping.get(v)
            if img is None:
                img = MultiPoly.var(target, v)
            elif not isinstance(img, MultiPoly):
                img = MultiPoly.const(target, img)
            images.append(img.with_variables(target))
        result = MultiPoly.zero(target)
        for exp, c in self.terms.items():
            term = MultiPoly.const(target, c)
            for img, a in zip(images, exp):
                if a:
                    term = term * img ** a
            result = result + term
        return result

    def restrict_zero(self, names) -> "MultiPoly":
        """Set the listed variables to zero (keeping the ambient ring)."""
        idx = {self.variables.index(n) for n in names}
        out = {exp: c for exp, c in self.terms.items() if all(exp[i] == 0 for i in idx)}
        return MultiPoly(self.variables, out)

    def drop_variables(self, names) -> "MultiPoly":
        """Remove variables that do not occur in any term."""
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        for exp in self.terms:
            for i, a in enumerate(exp):
                if a and i not in keep:
                    raise ValueError(f"variable {self.variables[i]} occurs; cannot drop")
        new_vars = tuple(self.variables[i] for i in keep)
        return MultiPoly(new_vars, {tuple(e[i] for i in keep): c for e, c in self.terms.items()})

    # -- text format --------------------------------------------------------

    @classmethod
    def parse(cls, text: str, variables=None) -> "MultiPoly":
        """Parse the canonical grammar; infer variables if not given."""
        text = text.replace(" ", "")
        if not text:
            raise ValueError("empty polynomial text")
        # split on top-level +/- signs
        pieces: list[tuple[int, str]] = []
        sign, buf = 1, ""
        for ch in text:
            if ch in "+-" and buf and buf[-1] not in "*^(/":
                pieces.append((sign, buf))
                sign, buf = (1 if ch == "+" else -1), ""
            elif ch in "+-" and not buf:
                sign *= 1 if ch == "+" else -1
            else:
                buf += ch
        pieces.append((sign, buf))

        raw_terms = []
        seen_vars: list[str] = []
        for sgn, chunk in pieces:
            coef = Cyclo.from_rational(sgn)
            powers: dict[str, int] = {}
            for factor in chunk.split("*"):
                if not factor:
                    raise ValueError(f"malformed term {chunk!r}")
                m = _RATTOKEN.match(factor)
                if m:
                    coef = coef * Fraction(m.group(1))
                    continue
                m = _ZTOKEN.match(factor)
                if m:
                    order, power = int(m.group(1)), int(m.group(2) or 1)
                    if not 1 <= order <= MAX_CYCLO_ORDER:
                        raise ValueError(f"root of unity {factor!r}: order outside "
                                         f"1..{MAX_CYCLO_ORDER}")
                    coef = coef * Cyclo.root_of_unity(order, power)
                    continue
                m = _VARTOKEN.match(factor)
                if m:
                    name, power = m.group(1), int(m.group(2) or 1)
                    _check_varname(name)
                    powers[name] = powers.get(name, 0) + power
                    if name not in seen_vars:
                        seen_vars.append(name)
                    continue
                raise ValueError(f"cannot parse factor {factor!r}")
            raw_terms.append((powers, coef))

        if variables is None:
            variables = tuple(sorted(seen_vars))
        else:
            variables = tuple(variables)
            for v in variables:
                _check_varname(v)
            for v in seen_vars:
                if v not in variables:
                    raise ValueError(f"variable {v!r} is not in variables {list(variables)}")
        out: dict[tuple[int, ...], Cyclo] = {}
        for powers, coef in raw_terms:
            accumulate(out, tuple(powers.get(v, 0) for v in variables), coef)
        return cls(variables, out)

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[tuple[int, str]] = []  # (sign, body)
        for exp in sorted(self.terms, key=drl_key, reverse=True):
            coef = self.terms[exp]
            mono_factors = [
                f"{v}^{a}" if a > 1 else v
                for v, a in zip(self.variables, exp)
                if a
            ]
            for k, q in coef.items():
                sign = 1 if q > 0 else -1
                q = abs(q)
                factors = []
                if q != 1 or (k == 0 and not mono_factors):
                    factors.append(f"({q})" if q.denominator != 1 else str(q))
                if k:
                    factors.append(f"z{coef.order}" + (f"^{k}" if k > 1 else ""))
                factors.extend(mono_factors)
                chunks.append((sign, "*".join(factors)))
        text = ""
        for i, (sign, body) in enumerate(chunks):
            if i == 0:
                text = ("-" if sign < 0 else "") + body
            else:
                text += (" - " if sign < 0 else " + ") + body
        return text

    def __str__(self):
        return self.canonical_str()

    def __repr__(self):
        return f"MultiPoly({self.variables}, {self.canonical_str()!r})"
