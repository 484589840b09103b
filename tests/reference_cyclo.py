"""Reference copy of the Fraction-based ``Cyclo`` that ``lgck.exactalg.cyclo``
replaced: every coefficient a ``Fraction``, reduction and inversion through a
rational Q[x] library (long division, extended Euclid).  Tests compare the
integer ``Cyclo`` against it; the library does not use it."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by b; b must be nonzero."""
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        if not a or len(a) < len(b):
            break
        coef = a[-1] / lead
        shift = len(a) - len(b)
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] -= coef * bi
        _poly_trim(a)
    return _poly_trim(q), _poly_trim(a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    assert not r, f"cyclotomic division left a remainder for n={n}"
    return tuple(q)


@lru_cache(maxsize=None)
def _power_basis(n: int, e: int) -> tuple[Fraction, ...]:
    """zeta_n^e reduced modulo the n-th cyclotomic polynomial."""
    e %= n
    phi = euler_phi(n)
    if e < phi:
        v = [Fraction(0)] * phi
        v[e] = Fraction(1)
        return tuple(v)
    mono = [Fraction(0)] * e + [Fraction(1)]
    _, r = _poly_divmod(mono, list(cyclotomic_polynomial(n)))
    r = r + [Fraction(0)] * (phi - len(r))
    return tuple(r)


def _poly_ext_gcd(a: list[Fraction], b: list[Fraction]):
    """Return (g, s, t) with s*a + t*b = g over Q[x]."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while _poly_trim(list(r1)):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    return r0, s0, t0


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


class Cyclo:
    """An element of Q(zeta_N), exact."""

    __slots__ = ("order", "coeffs")
    __hash__ = None  # mutable-free but not meant for dict keys

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        c = list(coeffs) + [Fraction(0)] * phi
        self.order = order
        self.coeffs = tuple(x if type(x) is Fraction else Fraction(x) for x in c[:phi])

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "Cyclo":
        v = [Fraction(q)] + [Fraction(0)] * (euler_phi(order) - 1)
        return cls(order, v)

    @classmethod
    def zero(cls, order: int = 1) -> "Cyclo":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "Cyclo":
        return cls.from_rational(1, order)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "Cyclo":
        return cls(order, _power_basis(order, power))

    # -- promotion and coercion ---------------------------------------

    def promote(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed Q(z{self.order}) into Q(z{order})")
        step = order // self.order
        phi = euler_phi(order)
        out = [Fraction(0)] * phi
        for k, c in enumerate(self.coeffs):
            if c:
                basis = _power_basis(order, k * step)
                for i, b in enumerate(basis):
                    out[i] += c * b
        return Cyclo(order, out)

    def _pair(self, other):
        if isinstance(other, Cyclo):
            n = self.order * other.order // gcd(self.order, other.order)
            return self.promote(n), other.promote(n)
        if isinstance(other, (int, Fraction)):
            return self, Cyclo.from_rational(other, self.order)
        return self, None

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def items(self):
        """Nonzero (power, rational) pairs in ascending power order."""
        return [(k, c) for k, c in enumerate(self.coeffs) if c]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return Cyclo(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return Cyclo(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        _, r = _poly_divmod(prod, list(cyclotomic_polynomial(a.order)))
        return Cyclo(a.order, r)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        g, s, _ = _poly_ext_gcd(list(self.coeffs), list(cyclotomic_polynomial(self.order)))
        # g is a nonzero constant since the modulus is irreducible over Q
        assert len(g) == 1
        inv = [c / g[0] for c in s]
        _, r = _poly_divmod(inv, list(cyclotomic_polynomial(self.order)))
        return Cyclo(self.order, r)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Cyclo.from_rational(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = Cyclo.one(self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- display ---------------------------------------------------------

    def __str__(self):
        items = self.items()
        if not items:
            return "0"
        parts = []
        for k, c in items:
            if k == 0:
                parts.append(str(c))
            else:
                z = f"z{self.order}" + (f"^{k}" if k > 1 else "")
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    cs = f"({c})" if c.denominator != 1 or c < 0 else str(c)
                    parts.append(f"{cs}*{z}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Cyclo({self.order}, {self})"


def zeta(order: int, power: int = 1) -> Cyclo:
    """Convenience constructor for zeta_order^power."""
    return Cyclo.root_of_unity(order, power)
