"""The sparse-term kernel: ``MultiPoly`` arithmetic against sympy, and the
invariant that no polynomial, form or cdga element stores a zero
coefficient, also when terms cancel."""

import pytest

from lgck.exactalg import MultiPoly
from lgck.forms import DiffForm

from witnesses import koszul_cdga

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

XYZ = ("x", "y", "z")
X, Y, Z = (MultiPoly.var(XYZ, v) for v in XYZ)

polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=4).map(lambda t: MultiPoly(XYZ, t))
one_forms = st.tuples(polys, polys, polys).map(
    lambda ps: DiffForm(XYZ, {(i,): p for i, p in enumerate(ps)}))
elements = st.dictionaries(st.integers(0, 3), polys).map(  # 4 = dim of the cdga
    lambda x: {k: p for k, p in x.items() if p})


@pytest.fixture(scope="module")
def cdga():
    return koszul_cdga([X, Y * Y + Z])  # basis 1, e0, e1, e0^e1


def to_sympy(p: MultiPoly):
    gens = sympy.symbols(p.variables)
    out = sympy.Integer(0)
    for exp, c in p.terms.items():
        q = c.as_fraction()
        out += sympy.Rational(q.numerator, q.denominator) * sympy.prod(
            [g ** a for g, a in zip(gens, exp)])
    return out


def assert_no_zero(p: MultiPoly):
    assert all(not c.is_zero() for c in p.terms.values())


def assert_form_no_zero(form: DiffForm):
    for p in form.terms.values():
        assert not p.is_zero()
        assert_no_zero(p)


@settings(max_examples=50, deadline=None)
@given(polys, polys, one_forms, one_forms, elements, elements)
@example(X + Y, X - Y, DiffForm(XYZ, {(0,): X * Y, (1,): Z}),
         DiffForm(XYZ, {(0,): -X * Y, (2,): Y}), {1: X}, {2: X - Z})
def test_sums_match_sympy_and_store_no_zero(cdga, p, q, omega, eta, a, b):
    """+, - and * agree with sympy.expand; +, *, wedge, d and the cdga
    operations drop every coefficient that cancels, so (x+y)(x-y) has two
    terms, d(d omega) and a + (-a) store nothing."""
    for got, want in ((p + q, to_sympy(p) + to_sympy(q)),
                      (p - q, to_sympy(p) - to_sympy(q)),
                      (p * q, to_sympy(p) * to_sympy(q))):
        assert sympy.expand(to_sympy(got) - want) == 0
        assert_no_zero(got)
    assert (p - p).terms == {}

    for form in (omega + eta, omega.wedge(eta), omega.exterior_derivative(),
                 (omega + eta).wedge(omega)):
        assert_form_no_zero(form)
    assert omega.exterior_derivative().exterior_derivative().terms == {}
    assert (omega - omega).terms == {}

    minus_a = cdga.scale(a, MultiPoly.const(XYZ, -1))
    for x in (cdga.add(a, b), cdga.multiply(a, b), cdga.apply_diff(a),
              cdga.add(a, minus_a)):
        for c in x.values():
            assert not c.is_zero()
            assert_no_zero(c)
    assert cdga.add(a, minus_a) == {}
    assert cdga.apply_diff(cdga.apply_diff(b)) == {}

