"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as ``(order, nums, den)``: the integer polynomial
``nums`` in zeta_N (ascending, of degree < phi(N)) over one common
denominator ``den > 0``, with gcd(den, *nums) = 1.  This is the layout of
FLINT's ``fmpq_poly``, so each value has exactly one representation and
arithmetic runs on Python integers; there is no floating point anywhere.

The N-th cyclotomic polynomial Phi_N is monic with integer coefficients,
so reducing an integer polynomial modulo Phi_N is long division that never
divides: each step subtracts an integer multiple of Phi_N.

The inverse needs no Euclid.  The Galois automorphisms sigma_k: zeta_N ->
zeta_N^k, k a unit mod N, give the norm N(a) = a * prod_{k != 1} sigma_k(a),
a nonzero rational for a != 0 because Phi_N is irreducible, and then
1/a = prod_{k != 1} sigma_k(a) / N(a).

Values of different orders interoperate: binary operations promote both
sides to Q(zeta_lcm) via zeta_M = zeta_N^(N/M).

>>> z = Cyclo.root_of_unity(5)
>>> sum(z ** k for k in range(5)) == 0
True
>>> (z ** 5) == 1
True
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .linalg import integral


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _divmod_monic(a, m) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the integer polynomial a by the monic m
    (both ascending); the remainder is padded to length deg m."""
    d = len(m) - 1
    a = list(a) + [0] * (d - len(a))
    q = [0] * (len(a) - d)
    low = [(i, c) for i, c in enumerate(m[:d]) if c]
    for s in range(len(a) - d - 1, -1, -1):
        c = q[s] = a[s + d]
        if c:
            for i, mi in low:
                a[s + i] -= c * mi
    return q, a[:d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial:
    x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, r = _divmod_monic(poly, cyclotomic_polynomial(d))
            assert not any(r), f"cyclotomic division left a remainder for n={n}"
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_basis(n: int, e: int) -> tuple[int, ...]:
    """zeta_n^e reduced modulo the n-th cyclotomic polynomial."""
    return tuple(_divmod_monic([0] * (e % n) + [1], cyclotomic_polynomial(n))[1])


def _make(order: int, nums, den: int) -> "Cyclo":
    """The value nums/den in Q(zeta_order), with the common gcd divided out;
    den must be positive."""
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [x // g for x in nums], den // g
    out = object.__new__(Cyclo)
    out.order, out.nums, out.den = order, tuple(nums), den
    return out


class Cyclo:
    """An element of Q(zeta_N), exact."""

    __slots__ = ("order", "nums", "den")
    __hash__ = None  # mutable-free but not meant for dict keys

    def __init__(self, order: int, coeffs):
        """sum_k coeffs[k] zeta_order^k, reduced modulo Phi_order."""
        c = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs]
        nums, den = integral(c)
        value = _make(order, _divmod_monic(nums, cyclotomic_polynomial(order))[1], den)
        self.order, self.nums, self.den = value.order, value.nums, value.den

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "Cyclo":
        q = Fraction(q)
        return _make(order, [q.numerator] + [0] * (euler_phi(order) - 1), q.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "Cyclo":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "Cyclo":
        return cls.from_rational(1, order)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "Cyclo":
        return _make(order, _power_basis(order, power), 1)

    # -- promotion and coercion ---------------------------------------

    def _substitute(self, order: int, step: int) -> "Cyclo":
        """self with zeta_{self.order} -> zeta_order^step."""
        out = [0] * euler_phi(order)
        for k, c in enumerate(self.nums):
            if c:
                for i, b in enumerate(_power_basis(order, k * step % order)):
                    if b:
                        out[i] += c * b
        return _make(order, out, self.den)

    def promote(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed Q(z{self.order}) into Q(z{order})")
        return self._substitute(order, order // self.order)

    def _pair(self, other):
        if isinstance(other, Cyclo):
            n = lcm(self.order, other.order)
            return self.promote(n), other.promote(n)
        if isinstance(other, (int, Fraction)):
            return self, Cyclo.from_rational(other, self.order)
        return self, None

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def items(self):
        """Nonzero (power, rational) pairs in ascending power order."""
        return [(k, Fraction(c, self.den)) for k, c in enumerate(self.nums) if c]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if type(other) is Cyclo and other.order == self.order:  # one representation each
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.nums[0] == other * self.den and self.is_rational()
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return a.nums == b.nums and a.den == b.den

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyclo) and self.order == other.order == 1:  # rationals
            return _make(1, (self.nums[0] * other.den + other.nums[0] * self.den,),
                         self.den * other.den)
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return _make(a.order, [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)],
                     a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        # a rational operand (an int, a Fraction or an order-1 value) scales the other
        if isinstance(other, Cyclo) and self.order == 1 < other.order:
            return other * self
        if isinstance(other, Cyclo) and other.order == 1:
            return _make(self.order, [x * other.nums[0] for x in self.nums], self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return _make(self.order, [x * other.numerator for x in self.nums],
                         self.den * other.denominator)
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        prod = [0] * (2 * len(a.nums) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        prod[i + j] += x * y
        _, r = _divmod_monic(prod, cyclotomic_polynomial(a.order))
        return _make(a.order, r, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.order
        conj = Cyclo.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = conj * self._substitute(n, k)
        norm = self * conj
        # the norm is Galois-invariant, hence rational, and nonzero
        assert norm.is_rational() and norm.nums[0], f"norm of {self} is {norm}"
        sign = 1 if norm.nums[0] > 0 else -1
        return _make(n, [sign * norm.den * x for x in conj.nums], conj.den * abs(norm.nums[0]))

    def __truediv__(self, other):
        # invert in the divisor's own field: it has the fewest conjugates
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self * other.inverse()

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
        if not any(self.nums[1:]):  # rational: most report entries are "0"
            return str(self.nums[0]) if self.den == 1 else f"{self.nums[0]}/{self.den}"
        parts = []
        for k, c in self.items():
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

