"""The Groebner kernel: reduced bases against sympy, the packed exponent
layout against the tuple definitions and its width guard, a normal form
deep past the recursion limit, the staircase walk against the box below
the pure powers and the Poincare series, and the heap pair queue with its
criteria against the min-over-all-pairs selection and the chain scan
over every k that it replaced."""

import heapq
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import le

import pytest

from lgck.exactalg import MultiPoly, PolyIdeal, buchberger, drl_key, jacobian_ideal
from lgck.exactalg import groebner

from corpus import corpus

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

XYZ = ("x", "y", "z")


def dwork_quintic(psi) -> MultiPoly:
    names = [f"x{i}" for i in range(1, 6)]
    w = MultiPoly.parse(" + ".join(f"{v}^5" for v in names), names)
    return w + MultiPoly.monomial(names, (1,) * 5, psi)


def quartic_fourfold(c) -> MultiPoly:
    names = [f"x{i}" for i in range(1, 7)]
    w = MultiPoly.parse(" + ".join(f"{v}^4" for v in names), names)
    return w + MultiPoly.monomial(names, (1, 1, 1, 1, 0, 0), c)


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def lcm_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def as_rational_terms(p: MultiPoly) -> frozenset:
    return frozenset((e, c.as_fraction()) for e, c in p.terms.items())


# -- buchberger against sympy ----------------------------------------------

def sympy_reduced_basis(polys, variables) -> set:
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(variables)
    exprs = [sum(sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)
                 * sympy.prod([g ** a for g, a in zip(gens, e)])
                 for e, c in p.terms.items()) for p in polys]
    out = set()
    for g in sympy.groebner(exprs, *gens, order="grevlex").polys:
        lc = g.LC(order="grevlex")  # Poly.monic() would divide by the lex one
        out.add(frozenset((tuple(m), Fraction(int((c / lc).p), int((c / lc).q)))
                          for m, c in g.terms()))
    return out


terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(terms, min_size=1, max_size=3))
def test_buchberger_matches_sympy_random_ideals(gens):
    polys = [MultiPoly(XYZ, t) for t in gens]
    ours = {as_rational_terms(g) for g in buchberger(polys)}
    assert ours == sympy_reduced_basis(polys, XYZ)


def test_buchberger_matches_sympy_dwork_quintic():
    w = dwork_quintic(Fraction(-1, 2))
    parts = [w.derivative(v) for v in w.variables]
    basis = jacobian_ideal(w).basis
    assert len(basis) == 96
    assert {as_rational_terms(g) for g in basis} == sympy_reduced_basis(parts, w.variables)


def test_buchberger_matches_sympy_quartic_fourfold():
    """Six packed fields: sum x_i^4 - 2/3 x1x2x3x4."""
    w = quartic_fourfold(Fraction(-2, 3))
    basis = jacobian_ideal(w).basis
    assert len(basis) == 22
    assert {as_rational_terms(g) for g in basis} == sympy_reduced_basis(jacobian(w), w.variables)


def test_buchberger_matches_sympy_cubic_in_eight_variables():
    """Eight packed fields: sum x_i^3 + 2 x1x2x3."""
    names = [f"x{i}" for i in range(1, 9)]
    w = MultiPoly.parse(" + ".join(f"{v}^3" for v in names) + " + 2*x1*x2*x3", names)
    basis = jacobian_ideal(w).basis
    assert len(basis) == 11
    assert {as_rational_terms(g) for g in basis} == sympy_reduced_basis(jacobian(w), w.variables)


# -- the packed exponent layout -----------------------------------------------

@st.composite
def packed_case(draw):
    """n in 1..8 and three exponent vectors in n variables, each exponent small
    or up to M // n, so that every vector and every lcm fits the layout."""
    n = draw(st.integers(1, 8))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, groebner._M // n))
    return n, [draw(st.tuples(*[exponent] * n)) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(packed_case())
def test_packed_layout_matches_the_tuple_definitions(case):
    """Packed keys sort as drl_key and unpack to their vectors, and the packed
    lcm, support and divisibility agree with the tuple definitions above."""
    n, vectors = case
    layout = groebner._layout(n)
    a, b, c = vectors
    vectors.append(lcm_exp(a, c))  # one vector that a divides
    packed = [groebner._pack(e, layout) for e in vectors]
    for (x, px), (y, py) in product(zip(vectors, packed), repeat=2):
        assert (px < py, px == py) == (drl_key(x) < drl_key(y), x == y)
        assert groebner._lcm(px, py, layout) == groebner._pack(lcm_exp(x, y), layout)
        coprime = not groebner._support(px, layout) & groebner._support(py, layout)
        assert coprime == all(s == 0 or t == 0 for s, t in zip(x, y))
    names = tuple(f"x{i}" for i in range(n))
    divisor = groebner._divisors([MultiPoly.monomial(names, a)])
    for e in vectors:  # x^e reduces to zero modulo x^a exactly when a divides e
        x_e = MultiPoly.monomial(names, e)
        assert groebner.reduce_full(x_e, []) == x_e  # packed and unpacked
        assert (not groebner.reduce_full(x_e, divisor)) == divides(a, e)


def test_reduce_full_makes_divisors_monic():
    """A divisor whose leading coefficient is not 1 reduces as its monic
    multiple does: modulo 3xy - y, xy = y/3 and x^2y^2 = y^2/9."""
    names = ("x", "y")
    divisors = groebner._divisors([MultiPoly.parse("3*x*y - y", names)])
    got = groebner.reduce_full(MultiPoly.parse("x^2*y^2", names), divisors)
    assert got == MultiPoly.parse("1/9*y^2", names)


def test_packed_width_guard():
    """The total degree M = 2^31 - 1 still packs and reduces; M + 1, in one
    exponent, in a sum of two or in an S-polynomial, raises instead of
    wrapping.  An lcm's degree sits above the fields, so a coprime pair whose
    lcm has degree M + 1 is no error."""
    m = groebner._M
    names = ("x", "y")
    ideal = PolyIdeal([MultiPoly.parse(f"x^{m} - 2*y", names)])
    assert ideal.normal_form(MultiPoly.monomial(names, (m, 0))).terms == {(0, 1): 2}
    assert ideal.normal_form(MultiPoly.monomial(names, (m - 1, 1))).terms == {(m - 1, 1): 1}
    for exp in ((m + 1, 0), (m, 1)):
        with pytest.raises(ValueError, match=f"bound {m}"):
            ideal.normal_form(MultiPoly.monomial(names, exp))
    coprime = [MultiPoly.parse(t, names) for t in (f"x^{m} - 1", "y - 1")]
    assert {as_rational_terms(g) for g in buchberger(coprime)} == set(map(as_rational_terms, coprime))
    with pytest.raises(ValueError, match=f"bound {m}"):  # S = x^(M-1)*y^2 - y
        buchberger([MultiPoly.parse(t, names) for t in (f"x^{m} - 1", "x*y - y^2")])


# -- normal forms -------------------------------------------------------------

def test_monomial_normal_form_deep_chain():
    """x^5000 reduces 2499 times modulo x^3 - x, far past the recursion limit."""
    ideal = PolyIdeal([MultiPoly.parse("x^3 - x")])
    assert ideal.normal_form(MultiPoly.monomial(("x",), (5000,))).terms == {(2,): 1}
    assert ideal.normal_form(MultiPoly.monomial(("x",), (4999,))).terms == {(1,): 1}


# -- the staircase walk -------------------------------------------------------

def box_reference(ideal: PolyIdeal):
    """Every exponent below the pure-power bounds that no lead divides."""
    bounds = ideal.pure_power_bounds()
    if bounds is None:
        return None
    leads = ideal.leading_exponents()
    box = product(*(range(b) for b in bounds))
    return sorted((e for e in box if not any(divides(l, e) for l in leads)),
                  key=drl_key)


exponent = st.tuples(*[st.integers(0, 3)] * 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(terms, max_size=2), st.lists(exponent, max_size=4),
       st.lists(st.integers(0, 5), min_size=3, max_size=3))
def test_quotient_basis_is_the_box_below_the_pure_powers(polys, monos, powers):
    """Random ideals in x, y, z: random polynomials, random monomials (leads
    that are not pure powers) and a pure power x_i^a of each variable, where
    a = 0 leaves it out so that the quotient can be infinite."""
    gens = [MultiPoly(XYZ, t) for t in polys]
    gens += [MultiPoly.monomial(XYZ, e) for e in monos]
    gens += [MultiPoly.monomial(XYZ, tuple(a if k == i else 0 for k in range(3)))
             for i, a in enumerate(powers) if a]
    ideal = PolyIdeal(gens or [MultiPoly.zero(XYZ)])
    assert ideal.quotient_basis() == box_reference(ideal)


def test_quotient_basis_unit_ideal_and_missing_pure_power():
    unit = PolyIdeal([MultiPoly.parse(t, XYZ) for t in ("x*y - 1", "x")])
    assert unit.quotient_basis() == [] == box_reference(unit)
    no_z = PolyIdeal([MultiPoly.parse(t, XYZ) for t in ("x^2", "x*z", "y^3 - x*z^2")])
    assert no_z.pure_power_bounds() is None
    assert no_z.quotient_basis() is None


def poincare_polynomial(charges, degree) -> dict:
    """Coefficients of prod (1 - t^(d - w_i)) / (1 - t^(w_i)), the Poincare
    series of the Jacobian ring of a quasi-homogeneous isolated singularity
    with integer charges w_i and degree d (q_i = w_i / d), up to its top degree."""
    top = sum(degree - 2 * w for w in charges)
    series = [1] + [0] * top
    for w in charges:
        for k in range(top, degree - w - 1, -1):  # times 1 - t^(d - w)
            series[k] -= series[k - degree + w]
        for k in range(w, top + 1):  # divided by 1 - t^w
            series[k] += series[k - w]
    return {k: c for k, c in enumerate(series) if c}


def assert_histogram_is_poincare(w: MultiPoly, charges, degree):
    std = jacobian_ideal(w).quotient_basis()
    histogram = Counter(sum(a * e for a, e in zip(charges, exp)) for exp in std)
    assert dict(histogram) == poincare_polynomial(charges, degree)


@pytest.mark.parametrize("name,model", corpus(), ids=[n for n, _ in corpus()])
def test_standard_monomials_follow_the_poincare_series_corpus(name, model):
    charges = [int(c) for c in model.r_charges]  # integral in the corpus: q_i = w_i / d
    assert_histogram_is_poincare(model.potential, charges, int(model.d_w))


def test_standard_monomials_follow_the_poincare_series_dwork_and_quartic():
    assert_histogram_is_poincare(dwork_quintic(Fraction(-1, 2)), [1] * 5, 5)
    assert_histogram_is_poincare(quartic_fourfold(Fraction(3)), [1] * 6, 4)


# -- the heap pair queue ------------------------------------------------------

def min_selection_order(generators) -> tuple[list, list]:
    """The pair loop Buchberger had before the heap and before the settled
    partner sets: each step takes min(pairs.items(), key=...) over a dict of
    every pending pair, and the chain criterion scans every k.  Returns the
    pairs popped and the pairs reduced, in order."""
    basis = [groebner._monic(g) for g in generators if g]
    sugars = [max(map(sum, g.terms)) for g in basis]

    def pair_data(i, j):
        ei, ej = basis[i].leading()[0], basis[j].leading()[0]
        lcm = lcm_exp(ei, ej)
        sugar = max(sugars[i] - sum(ei), sugars[j] - sum(ej)) + sum(lcm)
        return (sugar, sum(lcm), drl_key(lcm), i, j), lcm

    pairs = {(j, i): pair_data(j, i) for i in range(len(basis)) for j in range(i)}
    processed, order, reduced = set(), [], []
    while pairs:
        (i, j), (_, lcm) = min(pairs.items(), key=lambda kv: kv[1][0])
        del pairs[(i, j)]
        processed.add((i, j))
        order.append((i, j))
        ei, ej = basis[i].leading()[0], basis[j].leading()[0]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        if any(k not in (i, j) and divides(basis[k].leading()[0], lcm)
               and (min(i, k), max(i, k)) in processed
               and (min(j, k), max(j, k)) in processed for k in range(len(basis))):
            continue
        reduced.append((i, j))
        r = groebner.reduce_full(groebner._spoly(basis[i], basis[j], ei, ej),
                                  groebner._divisors(basis))
        if r:
            basis.append(groebner._monic(r))
            sugars.append(max(map(sum, r.terms)))
            new = len(basis) - 1
            pairs.update({(k, new): pair_data(k, new) for k in range(new)})
    return order, reduced


def heap_order(monkeypatch, generators) -> tuple[list, list]:
    """The pairs ``buchberger`` pops from its heap and the pairs whose
    S-polynomial it forms (the last pair popped at each ``_spoly`` call)."""
    popped, reduced, pop, spoly = [], [], heapq.heappop, groebner._spoly

    def heappop(heap):
        item = pop(heap)
        if isinstance(item, tuple) and len(item) == 4:  # (lcm, i, j, coprime)
            popped.append(item[1:3])
        return item

    def recording_spoly(*args):
        reduced.append(popped[-1])
        return spoly(*args)

    monkeypatch.setattr(groebner.heapq, "heappop", heappop)
    monkeypatch.setattr(groebner, "_spoly", recording_spoly)
    buchberger(generators)
    monkeypatch.undo()
    return popped, reduced


def jacobian(w: MultiPoly) -> list:
    return [w.derivative(v) for v in w.variables]


@pytest.mark.parametrize("gens", [
    jacobian(dwork_quintic(Fraction(-1, 2))),
    jacobian(quartic_fourfold(Fraction(-2, 3))),
    jacobian(MultiPoly.parse("x^4*y + y^4*z + z^4*u + u^4*x")),
    [MultiPoly.parse(t, XYZ) for t in ("x^3 - y*z + 1", "y^2*x - z", "z^3 + x*y^2 - x")],
], ids=["dwork", "quartic_fourfold", "loop_4", "inhomogeneous"])
def test_heap_pops_in_min_selection_order(monkeypatch, gens):
    popped, reduced = heap_order(monkeypatch, gens)
    order, want_reduced = min_selection_order(gens)
    assert popped and popped == order
    assert reduced == want_reduced


@settings(max_examples=30, deadline=None)
@given(st.lists(terms, min_size=2, max_size=3))
def test_heap_pops_in_min_selection_order_random(gens):
    polys = [MultiPoly(XYZ, t) for t in gens]
    with pytest.MonkeyPatch.context() as mp:
        popped, reduced = heap_order(mp, polys)
    order, want_reduced = min_selection_order(polys)
    assert popped == order
    assert reduced == want_reduced


def test_dwork_quintic_reduces_378_s_polynomials(monkeypatch):
    _, reduced = heap_order(monkeypatch, jacobian(dwork_quintic(Fraction(-1, 2))))
    assert len(reduced) == 378
