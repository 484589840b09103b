"""The integer ``Cyclo`` against the Fraction-based reference copy in
``reference_cyclo``, and the cyclotomic polynomials against sympy."""

import random
from fractions import Fraction
from math import lcm

import pytest

from lgck.exactalg.cyclo import Cyclo, cyclotomic_polynomial, euler_phi

import reference_cyclo as ref

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def coefficient_list(draw, order):
    """Coefficients of a value of the given order: zero, rational or dense."""
    kind = draw(st.sampled_from(["zero", "rational", "dense", "dense"]))
    if kind == "zero":
        return order, []
    if kind == "rational":
        return order, [draw(rationals)]
    return order, draw(st.lists(rationals, min_size=1, max_size=euler_phi(order)))


@st.composite
def operand_pairs(draw):
    """Two values of orders in 1..24 whose joint field Q(zeta_lcm) has
    degree at most 24: the reference's extended Euclid slows fast with the
    degree (about a second per division at degree 176)."""
    m = draw(st.integers(1, 24))
    n = draw(st.sampled_from([k for k in range(1, 25) if euler_phi(lcm(m, k)) <= 24]))
    return coefficient_list(draw, m), coefficient_list(draw, n)


def results(a, b, q):
    """a, b and every operation under test on them and the rational q."""
    out = [a, b, a + b, a - b, a * b, -a, (a + b) - b,
           a + q, q + a, a - q, q - a, a * q, q * a]
    if q:
        out.append(a / q)
    if b:
        out += [b.inverse(), a / b, q / b, a * b / b]
    return out


def observe(rs, q):
    """What a reader of a value sees: its text, order, truth, and equality
    to the rational q and to the operands (``(a + b) - b`` and ``a * b / b``
    equal a only if every result is stored in lowest terms)."""
    return [(str(r), r.order, bool(r), r == q, r == rs[0], r == rs[1]) for r in rs]


@settings(max_examples=150, deadline=None)
@given(operand_pairs(), rationals, st.booleans())
def test_matches_fraction_reference(pair, q, integral):
    (a, b), q = pair, round(q) if integral else q
    new = results(Cyclo(*a), Cyclo(*b), q)
    old = results(ref.Cyclo(*a), ref.Cyclo(*b), q)
    assert observe(new, q) == observe(old, q)


@st.composite
def equality_pairs(draw):
    """Two values to compare, as (order, coefficients), and the second as
    the reference gets it.  The second is of another order M, or of the
    first's order N: drawn alone, the first times a rational (the same
    numerators over another denominator), the first with one coefficient
    moved, or the first plus q * zeta_N^k * Phi_N, an equal value from other
    coefficients (the reference reads no coefficient past phi(N), so it gets
    the first's)."""
    (m, first), (n, other) = draw(operand_pairs())
    kind = draw(st.sampled_from(["order M", "order N", "scaled", "moved", "equal"]))
    if kind == "order M":
        second = n, other
    elif kind == "order N":
        second = coefficient_list(draw, m)
    elif kind == "scaled":
        q = draw(rationals)
        second = m, [c * q for c in first]
    elif kind == "moved":
        coeffs = list(first) + [0] * (euler_phi(m) - len(first))
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(rationals)
        second = m, coeffs
    else:
        q, k, phi = draw(rationals), draw(st.integers(0, 2)), cyclotomic_polynomial(m)
        coeffs = list(first) + [0] * (k + len(phi) - len(first))
        for i, c in enumerate(phi):
            coeffs[i + k] += q * c
        return (m, first), (m, coeffs), (m, first)
    return (m, first), second, second


@settings(max_examples=300, deadline=None)
@given(equality_pairs(), st.integers(1, 4))
def test_equality_matches_reference(values, scale):
    """``a == b`` holds exactly when the reference values are equal: across
    two fields, within one (where ``__eq__`` compares the stored numerators
    and denominator), and for a value against its own promotion."""
    a, b, b_ref = values
    x, y = Cyclo(*a), Cyclo(*b)
    equal = ref.Cyclo(*a) == ref.Cyclo(*b_ref)
    assert (x == y) == (y == x) == equal
    up = x.promote(x.order * scale)
    assert x == up and up == x
    assert (up == y) == (y == up) == equal


@settings(max_examples=200, deadline=None)
@given(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
       st.integers(1, 24))
def test_rational_prints_as_its_fraction(q, order):
    """A rational value prints from its numerator and denominator as
    ``Fraction`` prints it, in every field."""
    assert str(Cyclo.from_rational(q)) == str(q)
    assert str(Cyclo.from_rational(q, order)) == str(q)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 241):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        got = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in got)
        assert got == tuple(int(c) for c in want), n


@pytest.mark.parametrize("order", [60, 77])
def test_field_inverse_dense(order):
    # phi(60) = 16 and phi(77) = 60 coefficients, all drawn nonzero-able
    rnd = random.Random(order)
    x = Cyclo(order, [Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                      for _ in range(euler_phi(order))])
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1


def test_coefficients_past_phi_are_reduced():
    """zeta_4^2 = -1 and zeta_1 = 1: a coefficient past phi(N) is reduced
    modulo Phi_N, not dropped."""
    assert Cyclo(4, [0, 0, 1]) == -1
    assert Cyclo(1, [1, 2, 3]) == 6


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.lists(rationals, max_size=30))
def test_long_coefficient_lists_match_reference(order, coeffs):
    """Cyclo(N, c) is sum_k c_k zeta_N^k, summed in the reference."""
    want = sum((c * ref.Cyclo.root_of_unity(order, k) for k, c in enumerate(coeffs)),
               ref.Cyclo.zero(order))
    got = Cyclo(order, coeffs)
    assert (str(got), got.order) == (str(want), want.order)


def _items_str(x: Cyclo) -> str:
    """The display of a value built from ``items()`` alone, as ``__str__``
    printed every value before its rational fast path."""
    parts = []
    for k, c in x.items():
        if k == 0:
            parts.append(str(c))
        else:
            z = f"z{x.order}" + (f"^{k}" if k > 1 else "")
            if c in (1, -1):
                parts.append(z if c == 1 else f"-{z}")
            else:
                parts.append(f"({c})*{z}" if c.denominator != 1 or c < 0 else f"{c}*{z}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(rationals, max_size=euler_phi(n)), st.integers(1, 4))))
def test_str_matches_items(value):
    """``str`` agrees with the ``items()`` route on zero, rational and dense
    values, also after promotion to a larger order."""
    order, coeffs, step = value
    x = Cyclo(order, coeffs)
    for y in (x, x.promote(order * step), Cyclo.from_rational(x.nums[0], order)):
        assert str(y) == _items_str(y)


def _stored(x: Cyclo) -> tuple:
    return x.order, x.nums, x.den


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, st.integers(2, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(rationals, max_size=euler_phi(n)))))
def test_rational_fast_path(p, q, value):
    """A rational operand of ``*`` (an int, a Fraction or an order-1 value)
    scales the other operand's coefficients, skipping ``_pair`` and the
    product modulo Phi_N; two order-1 operands of ``+`` take its rational
    fast path.  Each result must print as the reference value, keep the
    other operand's order, and store what the constructor stores for the
    reference's coefficients.  ``+`` with a Fraction operand goes through
    ``_pair`` and the general path, which must store the same value as
    ``+``'s fast path."""
    a, b = Cyclo.from_rational(p), Cyclo.from_rational(q)
    for fast, general in ((a + b, a + q), (b + a, b + p)):
        assert _stored(fast) == _stored(general)
    order, coeffs = value
    c, rc = Cyclo(order, coeffs), ref.Cyclo(order, coeffs)
    ra, rb = ref.Cyclo.from_rational(p), ref.Cyclo.from_rational(q)
    k = p.numerator  # an int operand
    cases = [(a * b, ra * rb), (b * a, rb * ra), (a * q, ra * q), (q * a, ra * q),
             (a * c, ra * rc), (c * a, rc * ra), (c * q, rc * q), (q * c, rc * q),
             (c * k, rc * k), (k * c, rc * k)]
    for x, y, rx, ry in ((a, b, ra, rb), (a.promote(order), b, ra.promote(order), rb),
                         (a, b.promote(order), ra, rb.promote(order))):
        cases += [(x * y, rx * ry), (x + y, rx + ry), (y * x, ry * rx), (y + x, ry + rx)]
    for got, want in cases:
        assert (str(got), got.order) == (str(want), want.order)
        assert _stored(got) == _stored(Cyclo(want.order, want.coeffs))
